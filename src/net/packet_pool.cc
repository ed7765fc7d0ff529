#include "src/net/packet_pool.h"

namespace slice {
namespace {

bool g_pool_enabled = true;

}  // namespace

Bytes PacketPool::Acquire(size_t size) {
  ++acquires_;
  const size_t need = size + kTrailerSlack;
  std::vector<Bytes>& list = need <= kBufferCapacity ? frames_ : large_;
  if (g_pool_enabled && !list.empty() && list.back().capacity() >= need) {
    Bytes buf = std::move(list.back());
    list.pop_back();
    ++recycle_hits_;
    buf.clear();
    return buf;
  }
  Bytes buf;
  buf.reserve(need > kBufferCapacity ? need : kBufferCapacity);
  return buf;
}

void PacketPool::Release(Bytes&& buf) {
  ++releases_;
  const size_t capacity = buf.capacity();
  if (!g_pool_enabled || capacity < kBufferCapacity || capacity > kMaxRecycleCapacity ||
      free_buffers() >= kMaxFreeBuffers) {
    return;  // Bytes destructor frees it
  }
  (capacity == kBufferCapacity ? frames_ : large_).push_back(std::move(buf));
}

PacketPool& PacketPool::Default() {
  static PacketPool pool;
  return pool;
}

void PacketPool::SetEnabled(bool enabled) { g_pool_enabled = enabled; }

bool PacketPool::Enabled() { return g_pool_enabled; }

}  // namespace slice
