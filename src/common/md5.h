// MD5 message digest, implemented from RFC 1321. Slice uses MD5 as the
// routing fingerprint for name hashing, mkdir switching and small-file server
// selection (paper §4.1: "MD5 yields a combination of balanced distribution
// and low cost that is superior to competing hash functions").
//
// This is NOT used for security here — only for balanced request routing.
#ifndef SLICE_COMMON_MD5_H_
#define SLICE_COMMON_MD5_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <string_view>

#include "src/common/bytes.h"

namespace slice {

using Md5Digest = std::array<uint8_t, 16>;

// Incremental MD5 context.
class Md5 {
 public:
  Md5() { Reset(); }

  void Reset();
  void Update(ByteSpan data);
  void Update(std::string_view data) {
    Update(ByteSpan(reinterpret_cast<const uint8_t*>(data.data()), data.size()));
  }
  // Finalizes and returns the digest. The context must be Reset() before reuse.
  Md5Digest Finish();

  static Md5Digest Hash(ByteSpan data) {
    Md5 ctx;
    ctx.Update(data);
    return ctx.Finish();
  }
  static Md5Digest Hash(std::string_view data) {
    Md5 ctx;
    ctx.Update(data);
    return ctx.Finish();
  }

 private:
  void ProcessBlock(const uint8_t block[64]);

  uint32_t state_[4];
  uint64_t bit_count_;
  uint8_t buffer_[64];
  size_t buffer_len_;
};

// First 8 bytes of the digest as a little-endian integer: the fingerprint
// form used by routing tables and name placement.
inline uint64_t Md5Fingerprint64(const Md5Digest& d) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | d[static_cast<size_t>(i)];
  }
  return v;
}

}  // namespace slice

#endif  // SLICE_COMMON_MD5_H_
