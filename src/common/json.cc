#include "src/common/json.h"

#include <cmath>

namespace slice {
namespace {

constexpr uint64_t kPow10[10] = {1,      10,      100,      1000,      10000,
                                 100000, 1000000, 10000000, 100000000, 1000000000};

void AppendEscaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xf];
          out += kHex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
}

void AppendDecimal(std::string& out, uint64_t units, int decimals) {
  const uint64_t scale = kPow10[decimals];
  out += std::to_string(units / scale);
  if (decimals > 0) {
    out += '.';
    const uint64_t frac = units % scale;
    for (int d = decimals - 1; d >= 0; --d) {
      out += static_cast<char>('0' + (frac / kPow10[d]) % 10);
    }
  }
}

}  // namespace

void AppendFixed(std::string& out, double value, int decimals) {
  decimals = decimals < 0 ? 0 : (decimals > 9 ? 9 : decimals);
  double v = value;
  if (v < 0) {
    out += '-';
    v = -v;
  }
  const auto scaled = std::llround(v * static_cast<double>(kPow10[decimals]));
  AppendDecimal(out, static_cast<uint64_t>(scaled), decimals);
}

JsonWriter& JsonWriter::BeginObject() {
  Prefix();
  out_ += '{';
  stack_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  stack_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  Prefix();
  out_ += '[';
  stack_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  stack_.pop_back();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view name) {
  Prefix();
  out_ += '"';
  AppendEscaped(out_, name);
  out_ += "\":";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  Prefix();
  out_ += '"';
  AppendEscaped(out_, value);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Int(int64_t value) {
  Prefix();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::UInt(uint64_t value) {
  Prefix();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Fixed(double value, int decimals) {
  Prefix();
  AppendFixed(out_, value, decimals);
  return *this;
}

JsonWriter& JsonWriter::Decimal(uint64_t units, int decimals) {
  Prefix();
  AppendDecimal(out_, units, decimals);
  return *this;
}

void JsonWriter::Prefix() {
  if (pending_key_) {
    pending_key_ = false;
    return;
  }
  if (!stack_.empty()) {
    if (stack_.back()) {
      out_ += ',';
    }
    stack_.back() = true;
  }
}

}  // namespace slice
