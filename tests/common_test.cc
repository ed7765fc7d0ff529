// Unit tests for src/common: status, MD5 (RFC 1321 vectors), checksums,
// hashing, RNG determinism, the JSON writer.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "src/common/bytes.h"
#include "src/common/hash.h"
#include "src/common/inet_checksum.h"
#include "src/common/json.h"
#include "src/common/md5.h"
#include "src/common/rng.h"
#include "src/common/status.h"

namespace slice {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
}

TEST(StatusTest, ErrorCarriesMessage) {
  Status st(StatusCode::kNotFound, "no such file");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.ToString(), "NOT_FOUND: no such file");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int i = 0; i <= static_cast<int>(StatusCode::kInternal); ++i) {
    EXPECT_NE(StatusCodeName(static_cast<StatusCode>(i)), "UNKNOWN");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status(StatusCode::kCorrupt, "bad"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorrupt);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

// RFC 1321 appendix A.5 test suite.
TEST(Md5Test, Rfc1321Vectors) {
  const std::pair<std::string, std::string> vectors[] = {
      {"", "d41d8cd98f00b204e9800998ecf8427e"},
      {"a", "0cc175b9c0f1b6a831c399e269772661"},
      {"abc", "900150983cd24fb0d6963f7d28e17f72"},
      {"message digest", "f96b697d7cb7938d525a2f31aaf161d0"},
      {"abcdefghijklmnopqrstuvwxyz", "c3fcd3d76192e4007dfb496cca67e13b"},
      {"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
       "d174ab98d277d9f5a5611c2c9f419d9f"},
      {"1234567890123456789012345678901234567890123456789012345678901234567890123456"
       "7890",
       "57edf4a22be3c955ac49da2e2107b67a"},
  };
  for (const auto& [input, expected] : vectors) {
    Md5Digest d = Md5::Hash(input);
    EXPECT_EQ(ToHex(ByteSpan(d.data(), d.size())), expected) << "input: " << input;
  }
}

TEST(Md5Test, IncrementalMatchesOneShot) {
  std::string msg(1000, 'x');
  for (size_t i = 0; i < msg.size(); ++i) {
    msg[i] = static_cast<char>('a' + (i % 26));
  }
  Md5 ctx;
  // Feed in awkward chunk sizes spanning block boundaries.
  size_t pos = 0;
  const size_t chunks[] = {1, 63, 64, 65, 3, 127, 128, 300, 249};
  for (size_t c : chunks) {
    ctx.Update(std::string_view(msg).substr(pos, c));
    pos += c;
  }
  ASSERT_EQ(pos, msg.size());
  EXPECT_EQ(ctx.Finish(), Md5::Hash(msg));
}

TEST(Md5Test, Fingerprint64Differs) {
  const uint64_t a = Md5Fingerprint64(Md5::Hash("hello"));
  const uint64_t b = Md5Fingerprint64(Md5::Hash("hellp"));
  EXPECT_NE(a, b);
}

TEST(Md5Test, FingerprintDistributionIsBalanced) {
  // The paper picked MD5 for balanced routing distributions; check that
  // bucketing 10k sequential names over 8 buckets stays within 20% of even.
  constexpr int kBuckets = 8;
  constexpr int kNames = 10000;
  int counts[kBuckets] = {0};
  for (int i = 0; i < kNames; ++i) {
    const std::string name = "file" + std::to_string(i);
    counts[Md5Fingerprint64(Md5::Hash(name)) % kBuckets]++;
  }
  for (int c : counts) {
    EXPECT_GT(c, kNames / kBuckets * 0.8);
    EXPECT_LT(c, kNames / kBuckets * 1.2);
  }
}

TEST(ChecksumTest, KnownVector) {
  // RFC 1071 example: checksum of 00 01 f2 03 f4 f5 f6 f7.
  const uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  const uint32_t sum = OnesComplementSum(ByteSpan(data, sizeof(data)));
  EXPECT_EQ(FoldSum(sum), 0xddf2);
}

TEST(ChecksumTest, OddLengthPadsWithZero) {
  const uint8_t even[] = {0x12, 0x34, 0x56, 0x00};
  const uint8_t odd[] = {0x12, 0x34, 0x56};
  EXPECT_EQ(InetChecksum(ByteSpan(even, 4)), InetChecksum(ByteSpan(odd, 3)));
}

TEST(ChecksumTest, IncrementalMatchesFullRecompute) {
  Rng rng(123);
  for (int trial = 0; trial < 100; ++trial) {
    Bytes data(64);
    for (auto& b : data) {
      b = static_cast<uint8_t>(rng.NextU64());
    }
    const uint16_t old_sum = InetChecksum(data);

    // Mutate a random 16-bit-aligned field of 2 or 4 bytes.
    const size_t width = rng.NextBool(0.5) ? 2 : 4;
    const size_t offset = rng.NextBelow((data.size() - width) / 2) * 2;
    Bytes old_field(data.begin() + static_cast<ptrdiff_t>(offset),
                    data.begin() + static_cast<ptrdiff_t>(offset + width));
    Bytes new_field(width);
    for (auto& b : new_field) {
      b = static_cast<uint8_t>(rng.NextU64());
    }

    const uint16_t incremental = IncrementalChecksumUpdate(old_sum, old_field, new_field);
    std::copy(new_field.begin(), new_field.end(),
              data.begin() + static_cast<ptrdiff_t>(offset));
    EXPECT_EQ(incremental, InetChecksum(data)) << "trial " << trial;
  }
}

TEST(HashTest, Fnv1aKnownValues) {
  // Standard FNV-1a test vectors.
  EXPECT_EQ(Fnv1a64(std::string_view("")), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a64(std::string_view("a")), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a64(std::string_view("foobar")), 0x85944171f73967e8ull);
}

TEST(HashTest, MixU64AvalancheSmoke) {
  // Flipping one input bit should flip roughly half the output bits.
  int total_flips = 0;
  for (int bit = 0; bit < 64; ++bit) {
    const uint64_t a = MixU64(0x123456789abcdefull);
    const uint64_t b = MixU64(0x123456789abcdefull ^ (1ull << bit));
    total_flips += __builtin_popcountll(a ^ b);
  }
  const double avg = static_cast<double>(total_flips) / 64.0;
  EXPECT_GT(avg, 24.0);
  EXPECT_LT(avg, 40.0);
}

TEST(RngTest, Deterministic) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  EXPECT_NE(a.NextU64(), b.NextU64());
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(13);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) {
    heads += rng.NextBool(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(heads / 10000.0, 0.3, 0.02);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(17);
  double sum = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    sum += rng.NextExponential(5.0);
  }
  EXPECT_NEAR(sum / kN, 5.0, 0.2);
}

TEST(RngTest, ForkIndependentStreams) {
  Rng a(21);
  Rng b = a.Fork();
  EXPECT_NE(a.NextU64(), b.NextU64());
}

TEST(BytesTest, RoundTripScalars) {
  uint8_t buf[8];
  PutU16(buf, 0xbeef);
  EXPECT_EQ(GetU16(buf), 0xbeef);
  PutU32(buf, 0xdeadbeef);
  EXPECT_EQ(GetU32(buf), 0xdeadbeefu);
  PutU64(buf, 0x0123456789abcdefull);
  EXPECT_EQ(GetU64(buf), 0x0123456789abcdefull);
}

TEST(BytesTest, BigEndianLayout) {
  uint8_t buf[4];
  PutU32(buf, 0x01020304);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[3], 0x04);
}

TEST(BytesTest, HexFormatting) {
  const uint8_t data[] = {0xde, 0xad, 0xbe, 0xef};
  EXPECT_EQ(ToHex(ByteSpan(data, 4)), "deadbeef");
}

TEST(BytesTest, HexDumpTruncates) {
  Bytes data(100, 0xab);
  const std::string dump = HexDump(data, 4);
  EXPECT_EQ(dump.substr(0, 8), "abababab");
  EXPECT_NE(dump.find("100 bytes"), std::string::npos);
}

TEST(JsonWriterTest, CommasAcrossNestedObjectsAndArrays) {
  JsonWriter w;
  w.BeginObject().Key("a").UInt(1).Key("b").BeginArray();
  w.Int(-2).BeginObject().EndObject().BeginArray().UInt(3).UInt(4).EndArray().EndArray();
  w.Key("c").BeginObject().Key("d").String("e").EndObject().EndObject();
  EXPECT_EQ(w.str(), R"({"a":1,"b":[-2,{},[3,4]],"c":{"d":"e"}})");
}

TEST(JsonWriterTest, ContainerDirectlyAfterKeyTakesNoComma) {
  JsonWriter w;
  w.BeginObject().Key("x").BeginArray().EndArray().Key("y").BeginObject().Key("z");
  w.BeginArray().UInt(0).EndArray().EndObject().EndObject();
  EXPECT_EQ(w.str(), R"({"x":[],"y":{"z":[0]}})");
}

TEST(JsonWriterTest, KeysAndStringsAreEscaped) {
  const std::string raw = std::string("q\"b\\n\nc") + '\x01';
  const std::string escaped = R"(q\"b\\n\nc\u0001)";
  JsonWriter w;
  w.BeginObject().Key(raw).String(raw).EndObject();
  EXPECT_EQ(w.str(), "{\"" + escaped + "\":\"" + escaped + "\"}");
}

TEST(JsonWriterTest, DecimalRendersMicrosFromNanos) {
  JsonWriter w;
  w.BeginArray().Decimal(5, 3).Decimal(1234567, 3).Decimal(0, 3).Decimal(42, 0).EndArray();
  EXPECT_EQ(w.str(), "[0.005,1234.567,0.000,42]");
}

TEST(JsonWriterTest, FixedRoundsAndKeepsSign) {
  JsonWriter w;
  w.BeginArray().Fixed(2.0625).Fixed(-1.25, 1).Fixed(-0.0001, 2).Fixed(7.0).Fixed(0.5, 0);
  w.Fixed(1.0, 12).EndArray();
  EXPECT_EQ(w.str(), "[2.063,-1.3,-0.00,7.000,1,1.000000000]");
}

TEST(ExportTest, AppendFixedIsLocaleIndependentIntegerMath) {
  std::string out;
  AppendFixed(out, 3.14159, 3);
  EXPECT_EQ(out, "3.142");
  out.clear();
  AppendFixed(out, -2.5, 1);
  EXPECT_EQ(out, "-2.5");
  out.clear();
  AppendFixed(out, 42.0, 0);
  EXPECT_EQ(out, "42");
  out.clear();
  AppendFixed(out, 0.125, 2);
  EXPECT_EQ(out, "0.13");
}

}  // namespace
}  // namespace slice
