// Object store: the per-node storage manager beneath a Slice network storage
// node. Presents a flat space of sparse storage objects ("an ordered
// sequence of bytes with a unique identifier", paper §2.2) over a flat disk
// address space of 8KB blocks.
//
// Physical allocation seeks contiguity (FFS-style clustering): sequential
// writes to an object receive sequential physical blocks whenever possible,
// which the disk timing model rewards. NFSv3 unstable-write semantics are
// implemented with a dirty-block overlay: unstable data lives in memory until
// Commit() pushes it to "disk" (the stable image); CrashDiscardDirty() models
// a power failure, dropping uncommitted data exactly as a real server would.
#ifndef SLICE_STORAGE_OBJECT_STORE_H_
#define SLICE_STORAGE_OBJECT_STORE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"

namespace slice {

constexpr size_t kStoreBlockSize = 8192;

using ObjectId = uint64_t;
using BlockIndex = uint64_t;   // logical block within an object
using PhysBlock = uint64_t;    // physical block within the node's disk space

struct StoreWriteResult {
  // Physical blocks whose stable image was written by this call (empty for
  // unstable writes); the caller charges disk time for them.
  std::vector<PhysBlock> blocks_written;
  uint64_t new_size = 0;
};

struct StoreReadResult {
  Bytes data;
  bool eof = false;
  // Physical blocks backing the read (for cache/disk accounting). Blocks
  // served from the dirty overlay report their physical slot too (already
  // allocated) but a caller that tracks the overlay may treat them as hits.
  std::vector<PhysBlock> blocks_read;
};

class ObjectStore {
 public:
  explicit ObjectStore(uint64_t capacity_bytes);

  // Writes data at `offset`. If `stable`, the data goes straight to the
  // stable image (and physical blocks are reported); otherwise it lands in
  // the dirty overlay awaiting Commit.
  Result<StoreWriteResult> Write(ObjectId id, uint64_t offset, ByteSpan data, bool stable);

  // Reads up to `count` bytes at `offset`, merging the dirty overlay over
  // the stable image. Short reads indicate end-of-object.
  Result<StoreReadResult> Read(ObjectId id, uint64_t offset, uint32_t count) const;

  // Allocation-free read into caller-owned scratch: `data` is resized to the
  // read length (capacity reused across calls) and the stable blocks backing
  // the read are appended to `blocks_read`. Returns eof. The storage node's
  // READ fast path uses this so a steady-state cache-hit read never touches
  // the heap; Read() above is a convenience wrapper.
  Result<bool> ReadInto(ObjectId id, uint64_t offset, uint32_t count, Bytes* data,
                        std::vector<PhysBlock>* blocks_read) const;

  // Flushes the object's dirty overlay to the stable image; returns the
  // physical blocks written so the caller can charge (clustered) disk time.
  // Committing a missing/clean object succeeds with no blocks. If the store
  // runs out of blocks, the flush stops there: that block and the ones after
  // it stay dirty, the stable size stops before them, and `*status` (when
  // given) is set to kResourceExhausted.
  std::vector<PhysBlock> Commit(ObjectId id, Status* status = nullptr);

  // Truncates to `size` (frees whole blocks beyond it).
  Status Truncate(ObjectId id, uint64_t size);
  // Removes the object entirely, freeing its blocks.
  Status Remove(ObjectId id);

  // Models a crash: all dirty (uncommitted) data is lost.
  void CrashDiscardDirty();

  bool Exists(ObjectId id) const { return objects_.contains(id); }
  Result<uint64_t> Size(ObjectId id) const;
  uint64_t SizeOrZero(ObjectId id) const;
  // Bytes of physical storage allocated to the object.
  uint64_t AllocatedBytes(ObjectId id) const;

  size_t object_count() const { return objects_.size(); }
  uint64_t used_blocks() const { return used_blocks_; }
  uint64_t capacity_blocks() const { return capacity_blocks_; }
  uint64_t dirty_blocks() const;

  // The physical block that backs (id, logical block), or nullopt if
  // unallocated. Exposed for tests and the storage node's cache keying.
  std::optional<PhysBlock> PhysicalFor(ObjectId id, BlockIndex block) const;

 private:
  struct Object {
    uint64_t size = 0;                              // stable size
    uint64_t unstable_size = 0;                     // size including overlay
    std::map<BlockIndex, PhysBlock> blocks;         // stable image, sparse
    std::map<BlockIndex, Bytes> dirty;              // overlay, 8KB buffers
  };

  bool IsAllocated(PhysBlock block) const {
    return block < allocated_.size() && allocated_[block];
  }
  Result<PhysBlock> AllocBlock(PhysBlock hint);
  void FreeBlock(PhysBlock block);
  // The stable payload slot backing (obj, block), allocating a physical
  // block (placed after the previous logical block's, for contiguity) if
  // none backs it yet, and appending it to `newly_written`. A fresh slot is
  // empty; the caller fills all kStoreBlockSize bytes of it.
  Result<Bytes*> StableSlot(Object& obj, BlockIndex block,
                            std::vector<PhysBlock>* newly_written);

  uint64_t capacity_blocks_;
  uint64_t used_blocks_ = 0;
  PhysBlock alloc_cursor_ = 0;
  std::unordered_map<ObjectId, Object> objects_;
  // Allocation bits and block payloads, both indexed by PhysBlock and grown
  // only to the highest block used, so a store costs what it holds rather
  // than its capacity. An allocated block's payload is kStoreBlockSize
  // bytes; a free block's is empty.
  std::vector<bool> allocated_;
  std::vector<Bytes> disk_;
};

}  // namespace slice

#endif  // SLICE_STORAGE_OBJECT_STORE_H_
