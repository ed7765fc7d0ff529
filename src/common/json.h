// The one JSON writer every exported artifact goes through: bench baselines,
// metrics snapshots, flight dumps, profiles, chrome traces and the event
// code table.
//
// Keys are emitted in the order the caller writes them and every number is
// rendered with integer math, so the bytes never depend on locale, printf
// float behaviour or hash-map order. Same seed, same calls: same bytes.
#ifndef SLICE_COMMON_JSON_H_
#define SLICE_COMMON_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace slice {

// Appends `value` rounded to `decimals` fraction digits (clamped to 0-9),
// via integer fixed-point. A negative value keeps its sign even when it
// rounds to zero.
void AppendFixed(std::string& out, double value, int decimals);

class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  // An object key; the next value or container belongs to it. Key() and
  // String() escape `"`, `\` and control bytes and copy all else as is.
  JsonWriter& Key(std::string_view name);
  JsonWriter& String(std::string_view value);
  JsonWriter& Int(int64_t value);
  JsonWriter& UInt(uint64_t value);
  JsonWriter& Fixed(double value, int decimals = 3);
  // `units` / 10^`decimals` with exactly `decimals` fraction digits (0-9),
  // e.g. (1234567, 3) -> 1234.567: nanoseconds rendered as microseconds.
  JsonWriter& Decimal(uint64_t units, int decimals);

  const std::string& str() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  // Emits the separating comma for the second and later values in the
  // enclosing object/array. A value directly after Key() never takes one.
  void Prefix();

  std::string out_;
  std::vector<bool> stack_;
  bool pending_key_ = false;
};

}  // namespace slice

#endif  // SLICE_COMMON_JSON_H_
