// Recycled packet buffers for the zero-allocation forwarding path.
//
// Every simulated packet used to heap-allocate its byte vector; at millions
// of forwarded requests per experiment that allocation (plus the matching
// free) dominates the non-decode cost of the µproxy fast path. The pool keeps
// a freelist of fixed-capacity buffers sized for a jumbo frame plus the trace
// trailer, so steady-state forwarding acquires and releases buffers without
// touching the heap.
//
// The sim is single-threaded, so one process-wide pool serves every host; the
// class itself carries no global state and per-host instances work too (the
// Table 3 bench uses a private pool to isolate its counters).
//
// Lifecycle contract (DESIGN.md §7): Packet owns its buffer and returns it to
// the default pool on destruction; copies deep-copy (slow paths only), moves
// transfer the buffer. Recycling is capacity-gated — undersized external
// buffers and oversized jumbo payloads are simply freed — so the pool's
// footprint is bounded by kMaxFreeBuffers * kMaxRecycleCapacity.
//
// Two size classes: buffers of exactly kBufferCapacity serve datagrams that
// fit a jumbo frame, and larger ones (bulk 32KB WRITE calls and READ
// replies) sit on their own list, so a bulk datagram never pops a frame
// buffer it cannot use, and a fit is one capacity check on the newest
// buffer of its class.
#ifndef SLICE_NET_PACKET_POOL_H_
#define SLICE_NET_PACKET_POOL_H_

#include <cstdint>
#include <vector>

#include "src/common/bytes.h"

namespace slice {

class PacketPool {
 public:
  // Jumbo frame (9KB) + packet headers + trace trailer + slack, so attaching
  // a trace trailer to a full-size datagram never reallocates.
  static constexpr size_t kBufferCapacity = 9 * 1024 + 256;
  // Buffers above this capacity (100KB+ jumbo bulk writes) are freed rather
  // than hoarded; below kBufferCapacity they are too small to guarantee the
  // no-realloc invariant and are likewise dropped.
  static constexpr size_t kMaxRecycleCapacity = 256 * 1024;
  static constexpr size_t kMaxFreeBuffers = 256;

  // Slack past the datagram so AttachTrace never reallocates.
  static constexpr size_t kTrailerSlack = 64;

  PacketPool() {
    frames_.reserve(kMaxFreeBuffers);
    large_.reserve(kMaxFreeBuffers);
  }

  // Returns an empty buffer whose capacity holds `size` bytes plus the
  // trailer slack, and is at least kBufferCapacity; the caller appends the
  // datagram. Recycles the newest buffer of the matching size class when
  // enabled and it fits, and allocates otherwise.
  Bytes Acquire(size_t size);

  // Takes ownership of a dead packet's buffer; recycles it when it meets the
  // capacity gate and the freelists have room, frees it otherwise.
  void Release(Bytes&& buf);

  size_t free_buffers() const { return frames_.size() + large_.size(); }
  uint64_t acquires() const { return acquires_; }
  uint64_t recycle_hits() const { return recycle_hits_; }
  uint64_t releases() const { return releases_; }

  // Process-wide pool used by Packet's builders and destructor.
  static PacketPool& Default();

  // Test hook: with pooling disabled, Acquire always allocates fresh and
  // Release always frees — byte-for-byte the pre-pool allocation behavior.
  // The determinism tests run the same seed both ways and require identical
  // trace/metrics/flight hashes.
  static void SetEnabled(bool enabled);
  static bool Enabled();

 private:
  // Free buffers of capacity kBufferCapacity, and of larger capacity; the
  // two together hold at most kMaxFreeBuffers.
  std::vector<Bytes> frames_;
  std::vector<Bytes> large_;
  uint64_t acquires_ = 0;
  uint64_t recycle_hits_ = 0;
  uint64_t releases_ = 0;
};

}  // namespace slice

#endif  // SLICE_NET_PACKET_POOL_H_
