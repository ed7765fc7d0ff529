// Unit tests for packets (header layout, checksum rewriting) and the
// simulated network (delivery, timing, taps, loss, failure).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/net/network.h"
#include "src/net/packet.h"
#include "src/net/packet_pool.h"

namespace slice {
namespace {

constexpr NetAddr kHostA = 0x0a000001;  // 10.0.0.1
constexpr NetAddr kHostB = 0x0a000002;  // 10.0.0.2

Packet TestPacket(size_t payload_size = 100) {
  Bytes payload(payload_size, 0x5a);
  return Packet::MakeUdp(Endpoint{kHostA, 1000}, Endpoint{kHostB, 2049}, payload);
}

TEST(PacketTest, BuildsValidUdp) {
  Packet pkt = TestPacket();
  EXPECT_TRUE(pkt.IsValidUdp());
  EXPECT_EQ(pkt.src_addr(), kHostA);
  EXPECT_EQ(pkt.dst_addr(), kHostB);
  EXPECT_EQ(pkt.src_port(), 1000);
  EXPECT_EQ(pkt.dst_port(), 2049);
  EXPECT_EQ(pkt.payload().size(), 100u);
  EXPECT_EQ(pkt.size(), kPacketHeaderSize + 100);
  EXPECT_TRUE(pkt.VerifyChecksums());
}

TEST(PacketTest, ChecksumsDetectCorruption) {
  Packet pkt = TestPacket();
  pkt.mutable_payload()[10] ^= 0xff;
  EXPECT_FALSE(pkt.VerifyChecksums());
}

TEST(PacketTest, RewriteDstPreservesChecksums) {
  Packet pkt = TestPacket();
  pkt.RewriteDst(Endpoint{0x0a0000ff, 3333});
  EXPECT_EQ(pkt.dst_addr(), 0x0a0000ffu);
  EXPECT_EQ(pkt.dst_port(), 3333);
  // The incremental update must agree with a full recompute.
  EXPECT_TRUE(pkt.VerifyChecksums());
}

TEST(PacketTest, RewriteSrcPreservesChecksums) {
  Packet pkt = TestPacket();
  pkt.RewriteSrc(Endpoint{0x0a000042, 777});
  EXPECT_EQ(pkt.src_addr(), 0x0a000042u);
  EXPECT_EQ(pkt.src_port(), 777);
  EXPECT_TRUE(pkt.VerifyChecksums());
}

TEST(PacketTest, RepeatedRewritesStayConsistent) {
  Packet pkt = TestPacket();
  for (uint32_t i = 0; i < 20; ++i) {
    pkt.RewriteDst(Endpoint{0x0a000000 + i, static_cast<NetPort>(2000 + i)});
    pkt.RewriteSrc(Endpoint{0x0a000100 + i, static_cast<NetPort>(4000 + i)});
    ASSERT_TRUE(pkt.VerifyChecksums()) << "iteration " << i;
  }
}

TEST(PacketTest, EmptyPayload) {
  Packet pkt = Packet::MakeUdp(Endpoint{kHostA, 1}, Endpoint{kHostB, 2}, ByteSpan{});
  EXPECT_TRUE(pkt.IsValidUdp());
  EXPECT_EQ(pkt.payload().size(), 0u);
  EXPECT_TRUE(pkt.VerifyChecksums());
}

// A gathered datagram (RPC header + retained args) is byte-for-byte the
// datagram of the joined payload, checksums and trace trailer included.
TEST(PacketTest, GatheredPayloadMatchesConcatenation) {
  Bytes head(45);  // odd length: the checksum pairs bytes across the join
  Bytes body(1001);
  for (size_t i = 0; i < head.size(); ++i) {
    head[i] = static_cast<uint8_t>(i * 13 + 1);
  }
  for (size_t i = 0; i < body.size(); ++i) {
    body[i] = static_cast<uint8_t>(i * 7 + 3);
  }
  Bytes joined = head;
  joined.insert(joined.end(), body.begin(), body.end());
  const Endpoint src{kHostA, 1000};
  const Endpoint dst{kHostB, 2049};
  for (bool traced : {false, true}) {
    Packet gathered = Packet::MakeUdp(src, dst, head, body);
    Packet flat = Packet::MakeUdp(src, dst, joined);
    if (traced) {
      gathered.AttachTrace(0x1111, 0x2222);
      flat.AttachTrace(0x1111, 0x2222);
    }
    EXPECT_EQ(gathered.bytes(), flat.bytes()) << "traced=" << traced;
    EXPECT_EQ(gathered.ip_checksum(), flat.ip_checksum());
    EXPECT_EQ(gathered.udp_checksum(), flat.udp_checksum());
    EXPECT_TRUE(gathered.VerifyChecksums());
    EXPECT_EQ(gathered.HasTrace(), traced);
  }
}

// Buffers above the frame capacity sit in their own size class: a bulk
// datagram recycles a bulk buffer and leaves frame buffers pooled.
TEST(PacketPoolTest, LargeDatagramRecyclesLargeBufferAndKeepsFrameBuffer) {
  ASSERT_TRUE(PacketPool::Enabled());
  PacketPool pool;
  Bytes large;
  large.reserve(40 << 10);
  Bytes frame = pool.Acquire(9000);
  EXPECT_TRUE(frame.empty()) << "Acquire hands out an empty buffer to append into";
  EXPECT_EQ(frame.capacity(), PacketPool::kBufferCapacity);
  const uint8_t* large_buf = large.data();
  const uint8_t* frame_buf = frame.data();
  pool.Release(std::move(large));
  pool.Release(std::move(frame));
  ASSERT_EQ(pool.free_buffers(), 2u);

  Bytes bulk = pool.Acquire(33 << 10);
  EXPECT_EQ(bulk.data(), large_buf);
  EXPECT_TRUE(bulk.empty());
  EXPECT_EQ(pool.recycle_hits(), 1u);
  EXPECT_EQ(pool.free_buffers(), 1u) << "the frame buffer stays pooled";

  // A bulk request the newest bulk buffer cannot hold allocates fresh and
  // leaves the pool as it was.
  pool.Release(std::move(bulk));
  Bytes bigger = pool.Acquire(64 << 10);
  EXPECT_GE(bigger.capacity(), (64u << 10) + PacketPool::kTrailerSlack);
  EXPECT_EQ(pool.recycle_hits(), 1u);
  EXPECT_EQ(pool.free_buffers(), 2u);

  Bytes small = pool.Acquire(100);
  EXPECT_EQ(small.data(), frame_buf);
  EXPECT_EQ(pool.recycle_hits(), 2u);
}

TEST(PacketTest, AddrFormatting) {
  EXPECT_EQ(AddrToString(0x0a000001), "10.0.0.1");
  EXPECT_EQ(EndpointToString(Endpoint{0x0a000001, 2049}), "10.0.0.1:2049");
}

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : net_(queue_, NetworkParams{}) {
    net_.Attach(kHostA, [this](Packet&& pkt) { a_inbox_.push_back(std::move(pkt)); });
    net_.Attach(kHostB, [this](Packet&& pkt) { b_inbox_.push_back(std::move(pkt)); });
  }

  EventQueue queue_;
  Network net_;
  std::vector<Packet> a_inbox_;
  std::vector<Packet> b_inbox_;
};

TEST_F(NetworkTest, DeliversPacket) {
  net_.Send(TestPacket());
  queue_.RunUntilIdle();
  ASSERT_EQ(b_inbox_.size(), 1u);
  EXPECT_TRUE(b_inbox_[0].VerifyChecksums());
  EXPECT_EQ(a_inbox_.size(), 0u);
}

TEST_F(NetworkTest, DeliveryTakesWireTime) {
  net_.Send(TestPacket(9000));
  queue_.RunUntilIdle();
  // 9028 bytes at 1Gb/s ≈ 72.2us serialization, twice (tx+rx), + 30us switch.
  const double expect_us = 2 * (9028.0 * 8 / 1e9 * 1e6) + 30.0;
  EXPECT_NEAR(static_cast<double>(queue_.now()) / 1000.0, expect_us, 5.0);
}

TEST_F(NetworkTest, UnknownDestinationDropped) {
  Bytes payload(10, 1);
  net_.Send(Packet::MakeUdp(Endpoint{kHostA, 1}, Endpoint{0x0afffffe, 2}, payload));
  queue_.RunUntilIdle();
  EXPECT_EQ(net_.packets_dropped(), 1u);
}

TEST_F(NetworkTest, LossInjectionDropsSome) {
  net_.set_loss_rate(0.5);
  for (int i = 0; i < 200; ++i) {
    net_.Send(TestPacket(10));
  }
  queue_.RunUntilIdle();
  EXPECT_GT(b_inbox_.size(), 50u);
  EXPECT_LT(b_inbox_.size(), 150u);
  EXPECT_EQ(b_inbox_.size() + net_.packets_dropped(), 200u);
}

TEST_F(NetworkTest, FailedHostReceivesNothing) {
  net_.SetHostFailed(kHostB, true);
  net_.Send(TestPacket());
  queue_.RunUntilIdle();
  EXPECT_EQ(b_inbox_.size(), 0u);

  net_.SetHostFailed(kHostB, false);
  net_.Send(TestPacket());
  queue_.RunUntilIdle();
  EXPECT_EQ(b_inbox_.size(), 1u);
}

TEST_F(NetworkTest, FailedHostSendsNothing) {
  net_.SetHostFailed(kHostA, true);
  net_.Send(TestPacket());
  queue_.RunUntilIdle();
  EXPECT_EQ(b_inbox_.size(), 0u);
}

// A tap that redirects outbound packets to a different destination and
// counts inbound ones — the skeleton of what the µproxy does.
class RedirectTap : public PacketTap {
 public:
  RedirectTap(Network& net, Endpoint target) : net_(net), target_(target) {}

  void HandleOutbound(Packet&& pkt) override {
    ++outbound_seen;
    pkt.RewriteDst(target_);
    net_.Inject(std::move(pkt));
  }
  void HandleInbound(Packet&& pkt) override {
    ++inbound_seen;
    net_.DeliverLocal(pkt.dst_addr(), std::move(pkt));
  }

  int outbound_seen = 0;
  int inbound_seen = 0;

 private:
  Network& net_;
  Endpoint target_;
};

TEST_F(NetworkTest, TapRedirectsTraffic) {
  constexpr NetAddr kHostC = 0x0a000003;
  std::vector<Packet> c_inbox;
  net_.Attach(kHostC, [&](Packet&& pkt) { c_inbox.push_back(std::move(pkt)); });

  RedirectTap tap(net_, Endpoint{kHostC, 9999});
  net_.InstallTap(kHostA, &tap);

  net_.Send(TestPacket());  // addressed to B, tap redirects to C
  queue_.RunUntilIdle();
  EXPECT_EQ(tap.outbound_seen, 1);
  EXPECT_EQ(b_inbox_.size(), 0u);
  ASSERT_EQ(c_inbox.size(), 1u);
  EXPECT_EQ(c_inbox[0].dst_port(), 9999);
  EXPECT_TRUE(c_inbox[0].VerifyChecksums());
}

TEST_F(NetworkTest, TapSeesInbound) {
  RedirectTap tap(net_, Endpoint{kHostB, 2049});
  net_.InstallTap(kHostB, &tap);
  net_.Send(TestPacket());
  queue_.RunUntilIdle();
  EXPECT_EQ(tap.inbound_seen, 1);
  ASSERT_EQ(b_inbox_.size(), 1u);  // tap passed it up
}

TEST_F(NetworkTest, SerializationQueuesBackToBackPackets) {
  for (int i = 0; i < 10; ++i) {
    net_.Send(TestPacket(9000));
  }
  queue_.RunUntilIdle();
  EXPECT_EQ(b_inbox_.size(), 10u);
  // 10 jumbo packets serialized at 1Gb/s: at least 10 * 72us of wire time.
  EXPECT_GT(queue_.now(), FromMicros(700));
}

TEST_F(NetworkTest, CountsBytes) {
  net_.Send(TestPacket(72));
  queue_.RunUntilIdle();
  EXPECT_EQ(net_.bytes_sent(), kPacketHeaderSize + 72);
  EXPECT_EQ(net_.packets_sent(), 1u);
}

// A tap that records each inbound delivery batch (its size and the first
// payload byte of every packet) into a shared timeline, then passes the
// packets up to its host.
class BatchRecordingTap : public PacketTap {
 public:
  BatchRecordingTap(Network& net, std::vector<std::string>* timeline)
      : net_(net), timeline_(timeline) {}

  void HandleOutbound(Packet&& pkt) override { net_.Inject(std::move(pkt)); }
  void HandleInbound(Packet&& pkt) override {
    Packet one[] = {std::move(pkt)};
    HandleInboundBatch(one);
  }
  void HandleInboundBatch(std::span<Packet> pkts) override {
    std::string entry = "batch:";
    for (Packet& p : pkts) {
      entry += std::to_string(p.payload()[0]);
      net_.DeliverLocal(p.dst_addr(), std::move(p));
    }
    timeline_->push_back(entry);
  }

 private:
  Network& net_;
  std::vector<std::string>* timeline_;
};

// Same-instant delivery needs zero serialization time: at this link rate a
// small packet's wire time rounds to 0 ns, so every packet sent at t=0
// arrives and is delivered at exactly the switch latency.
class DeliveryBatchTest : public ::testing::Test {
 protected:
  DeliveryBatchTest()
      : net_(queue_, NetworkParams{.link_gbit_per_s = 1e6}), tap_(net_, &timeline_) {
    net_.Attach(kHostA, [](Packet&&) {});
    net_.Attach(kHostB, [this](Packet&&) { ++delivered_; });
    net_.InstallTap(kHostB, &tap_);
  }

  void SendNumbered(uint8_t n) {
    Bytes payload(16, n);
    net_.Send(Packet::MakeUdp(Endpoint{kHostA, 1000}, Endpoint{kHostB, 2049}, payload));
  }

  EventQueue queue_;
  Network net_;
  std::vector<std::string> timeline_;
  BatchRecordingTap tap_;
  int delivered_ = 0;
};

TEST_F(DeliveryBatchTest, SameInstantDeliveriesArriveAsOneBatch) {
  ASSERT_TRUE(Network::delivery_batching());
  for (uint8_t n = 0; n < 3; ++n) {
    SendNumbered(n);
  }
  queue_.RunUntilIdle();
  EXPECT_EQ(queue_.now(), FromMicros(30));
  EXPECT_EQ(timeline_, (std::vector<std::string>{"batch:012"}));
  EXPECT_EQ(delivered_, 3);
  // Two drains per packet (arrive, deliver), all absorbed into one dispatch.
  EXPECT_EQ(queue_.executed(), 6u);
}

TEST_F(DeliveryBatchTest, InterleavedSameInstantEventSplitsTheBatch) {
  // G runs between the two arrivals and schedules F at the delivery instant,
  // so F's seq falls between packet 0's and packet 1's delivery drains. F
  // must run between them, which splits the batch in two.
  SendNumbered(0);
  queue_.ScheduleAt(FromMicros(30), [this] {
    timeline_.push_back("G");
    queue_.ScheduleAt(queue_.now(), [this] { timeline_.push_back("F"); });
  });
  SendNumbered(1);
  queue_.RunUntilIdle();
  EXPECT_EQ(timeline_, (std::vector<std::string>{"G", "batch:0", "F", "batch:1"}));
  EXPECT_EQ(delivered_, 2);
}

TEST_F(DeliveryBatchTest, BatchingOffDeliversOnePacketPerCall) {
  Network::SetDeliveryBatching(false);
  for (uint8_t n = 0; n < 3; ++n) {
    SendNumbered(n);
  }
  queue_.RunUntilIdle();
  Network::SetDeliveryBatching(true);
  EXPECT_EQ(timeline_, (std::vector<std::string>{"batch:0", "batch:1", "batch:2"}));
  EXPECT_EQ(delivered_, 3);
}

}  // namespace
}  // namespace slice
