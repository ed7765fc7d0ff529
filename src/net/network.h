// Simulated switched LAN. Hosts attach at addresses; each host has NIC
// transmit/receive serialization at the link rate, packets cross the switch
// with a fixed store-and-forward latency, and optional loss injection models
// drops (which end-to-end RPC retransmission must mask, paper §2.1).
//
// A PacketTap can be interposed on a host's network path — this is where the
// Slice µproxy lives. The tap sees every outbound packet before the network
// and every inbound packet before the host, and may forward, rewrite, absorb,
// or originate packets, mirroring the paper's "request switching filter
// interposed along each client's network path".
#ifndef SLICE_NET_NETWORK_H_
#define SLICE_NET_NETWORK_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"
#include "src/net/packet.h"
#include "src/obs/eventlog.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/obs/sinks.h"
#include "src/obs/trace.h"
#include "src/sim/event_queue.h"

namespace slice {

struct NetworkParams {
  double link_gbit_per_s = 1.0;   // per-host NIC rate
  double switch_latency_us = 30;  // store-and-forward hop
  double loss_rate = 0.0;         // independent per-packet drop probability
  uint64_t loss_seed = 42;
};

// Directional (src→dst) fault shaping on one link, installed by the chaos
// engine (src/chaos). A shaped link can be blocked outright (partition),
// lose packets i.i.d. or in Gilbert-Elliott bursts, and/or add latency
// (gray link). Directionality is the point: an asymmetric partition blocks
// src→dst while dst→src still flows, which is the case that confuses
// heartbeat-based failure detectors the most.
struct LinkShape {
  bool blocked = false;       // full partition: every packet dropped
  double loss = 0.0;          // i.i.d. drop probability
  double burst_loss = 0.0;    // drop probability while in the bad burst state
  double p_enter = 0.0;       // per-packet good→bad transition probability
  double p_exit = 1.0;        // per-packet bad→good transition probability
  SimTime extra_latency = 0;  // added on top of the switch hop
  bool bad = false;           // current Gilbert-Elliott state (engine-owned)
};

// Interposition point on one host's network path.
class PacketTap {
 public:
  virtual ~PacketTap() = default;

  // Called for packets the host is sending. Implementations call
  // Network::Inject to place (possibly rewritten) packets on the wire.
  virtual void HandleOutbound(Packet&& pkt) = 0;
  // Called for packets arriving for the host. Implementations call
  // Network::DeliverLocal to pass packets up to the host.
  virtual void HandleInbound(Packet&& pkt) = 0;
  // Called with a whole delivery flight: every packet in `pkts` arrived for
  // this host at the same instant (their drains coalesced into one event
  // dispatch). The default peels them one at a time, so taps that don't
  // batch behave exactly as before; the µproxy overrides this to hoist
  // per-dispatch work out of the per-packet loop. Overrides must consume
  // every packet and must preserve in-order processing.
  virtual void HandleInboundBatch(std::span<Packet> pkts) {
    for (Packet& p : pkts) {
      HandleInbound(std::move(p));
    }
  }
};

class Network {
 public:
  using Handler = std::function<void(Packet&&)>;

  // Observability (`sinks`): packets carrying a trace trailer get per-hop
  // wire/queue spans and drop markers; every dropped packet (loss model,
  // chaos shaping or dead endpoint) is logged with its trace id; each host
  // gets NIC instruments (packet/byte counters on the hot path, busy-time
  // and backlog providers polled at scrape time) and its cached profiler
  // ledger for wire/queue charges at the NIC serialization points.
  Network(EventQueue& queue, NetworkParams params, const obs::Sinks& sinks = {});

  // Attaches a host and registers its NIC instruments and ledger.
  // `handler` receives packets addressed to `addr`.
  void Attach(NetAddr addr, Handler handler);
  void Detach(NetAddr addr);
  bool IsAttached(NetAddr addr) const { return hosts_.contains(addr); }

  // Installs/removes a tap on a host's path. At most one tap per host.
  void InstallTap(NetAddr addr, PacketTap* tap);
  void RemoveTap(NetAddr addr);

  // Host send path: applies the outbound tap (if any), then puts the packet
  // on the wire.
  void Send(Packet&& pkt);

  // Tap API: places a packet on the wire bypassing the sender-side tap.
  void Inject(Packet&& pkt);
  // Tap API: delivers a packet up to the local host, bypassing the inbound
  // tap. Used by taps to hand accepted packets to their host.
  void DeliverLocal(NetAddr addr, Packet&& pkt);

  // Deferred tap API (allocation-free): the packet waits in a flight slot
  // until `ready` (e.g. the µproxy's CPU-done time) and then enters the wire
  // / the local host, replacing the make_shared<Packet>+closure idiom. A
  // `guard` that reads false at dispatch drops the packet silently — the
  // originating tap died in the meantime.
  void InjectAt(Packet&& pkt, SimTime ready, std::shared_ptr<const bool> guard = nullptr);
  void DeliverLocalAt(NetAddr addr, Packet&& pkt, SimTime ready,
                      std::shared_ptr<const bool> guard = nullptr);
  // Deferred host send (allocation-free): at `ready` the packet enters the
  // normal Send path — outbound tap first, then the wire. This is the RPC
  // server's deferred reply: the encoded reply moves into a pooled packet
  // buffer immediately and waits in a flight slot until its service-done
  // instant, replacing a heap-allocated ScheduleAt closure.
  void SendAt(Packet&& pkt, SimTime ready, std::shared_ptr<const bool> guard = nullptr);

  // A/B switch for flight-batched tap delivery (determinism harness: runs
  // with batching on and off must produce byte-identical artifacts).
  static void SetDeliveryBatching(bool enabled) { batching_enabled_ = enabled; }
  static bool delivery_batching() { return batching_enabled_; }

  // Marks a host failed: its packets are dropped silently until revived.
  // Models server crashes for failover experiments.
  void SetHostFailed(NetAddr addr, bool failed);
  bool IsHostFailed(NetAddr addr) const { return failed_.contains(addr); }

  void set_loss_rate(double rate) { params_.loss_rate = rate; }

  // Chaos shaping (src/chaos): installs/clears a directional src→dst fault
  // shape. Shaped drops are logged as kPacketDrop with detail "partition"
  // or "chaos_loss" and consume a dedicated RNG stream, so enabling chaos
  // never perturbs the base loss model's draw sequence.
  void SetLinkShape(NetAddr src, NetAddr dst, const LinkShape& shape);
  void ClearLinkShape(NetAddr src, NetAddr dst);
  void ClearAllLinkShapes() { link_shapes_.clear(); }
  size_t num_shaped_links() const { return link_shapes_.size(); }

  // Gray NIC: every packet to or from `addr` pays `delay` extra wire
  // latency (slow-but-alive NIC). delay == 0 clears.
  void SetHostExtraDelay(NetAddr addr, SimTime delay);

  // Busy-provider support: adds every host's NIC busy time (tx+rx) into
  // `out`, the independent reference the ledger coverage is checked against.
  void CollectNicBusy(std::map<uint32_t, uint64_t>* out) const;

  EventQueue& queue() { return queue_; }
  uint64_t packets_sent() const { return packets_sent_; }
  uint64_t packets_dropped() const { return packets_dropped_; }
  uint64_t bytes_sent() const { return bytes_sent_; }

 private:
  struct Host {
    Handler handler;
    PacketTap* tap = nullptr;
    BusyResource tx;
    BusyResource rx;
    // Registry-owned instruments (stable heap slots); null when metrics are
    // off, so the hot path pays one branch and nothing else.
    obs::Counter* m_pkts_tx = nullptr;
    obs::Counter* m_bytes_tx = nullptr;
    obs::Counter* m_pkts_rx = nullptr;
    obs::Counter* m_pkts_dropped = nullptr;
    // Cached profiler ledger (null when profiling is off).
    uint64_t* prof_ledger = nullptr;
  };

  // In-flight packets live in a slab; the event queue alone orders them.
  // Every pending flight has exactly one drain event for this network whose
  // payload is the flight's slot, so a drain processes the flight it names.
  // Same-instant drains coalesce into one event dispatch (PeekDrain /
  // AbsorbDrain) without any observable reordering.
  enum class FlightStage : uint8_t {
    kArrive,   // switch hop done; acquire receiver NIC
    kDeliver,  // receiver serialization done; hand to tap/handler
    kInject,   // tap-deferred wire entry (InjectAt)
    kLocal,    // tap-deferred local delivery (DeliverLocalAt)
    kSend,     // deferred host send (SendAt): outbound tap, then the wire
  };
  struct Flight {
    FlightStage stage = FlightStage::kArrive;
    SimTime wire = 0;        // serialization time, reused for the rx side
    NetAddr local_addr = 0;  // kLocal destination
    obs::TraceContext ctx;
    std::shared_ptr<const bool> guard;  // kInject/kLocal/kSend liveness
    Packet pkt;
  };

  static void DrainThunk(void* sink, uint32_t slot);
  void ProcessFlight(uint32_t slot);
  // Parks a flight in a free slot and schedules its drain at `due`.
  void PushFlight(SimTime due, Flight&& f);
  // Frees the slot and hands back its packet.
  Packet TakeFlight(uint32_t slot);

  void Transmit(Packet&& pkt);
  void RegisterHostMetrics(NetAddr addr, Host& host);

  static uint64_t LinkKey(NetAddr src, NetAddr dst) {
    return (static_cast<uint64_t>(src) << 32) | dst;
  }
  // Returns the drop reason ("partition"/"chaos_loss") for this packet, or
  // nullptr to let it pass; accumulates chaos latency into `extra`.
  const char* ApplyChaosShaping(NetAddr src, NetAddr dst, SimTime* extra);

  EventQueue& queue_;
  NetworkParams params_;
  obs::Tracer* const tracer_;
  obs::Metrics* const metrics_;
  obs::EventLog* const eventlog_;
  obs::Profiler* const profiler_;
  double ns_per_byte_;
  std::unordered_map<NetAddr, Host> hosts_;
  std::unordered_map<NetAddr, bool> failed_;
  std::unordered_map<uint64_t, LinkShape> link_shapes_;  // LinkKey(src,dst)
  std::unordered_map<NetAddr, SimTime> host_extra_delay_;
  std::vector<Flight> flights_;
  std::vector<uint32_t> free_flights_;
  // Scratch for flight-batched tap delivery (capacity reused across
  // dispatches; never touched re-entrantly — tap handlers only push new
  // flights, they cannot re-enter the drain).
  std::vector<Packet> batch_;
  static bool batching_enabled_;
  Rng loss_rng_;
  Rng chaos_rng_;
  uint64_t packets_sent_ = 0;
  uint64_t packets_dropped_ = 0;
  uint64_t bytes_sent_ = 0;
};

}  // namespace slice

#endif  // SLICE_NET_NETWORK_H_
