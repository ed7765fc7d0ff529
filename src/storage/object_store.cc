#include "src/storage/object_store.h"

#include <algorithm>
#include <cstring>

namespace slice {

ObjectStore::ObjectStore(uint64_t capacity_bytes)
    : capacity_blocks_(capacity_bytes / kStoreBlockSize) {}

Result<PhysBlock> ObjectStore::AllocBlock(PhysBlock hint) {
  if (used_blocks_ >= capacity_blocks_) {
    return Status(StatusCode::kResourceExhausted, "store: out of blocks");
  }
  // Try the hint (contiguity), then scan forward from the cursor, wrapping.
  // Blocks past allocated_ are free, so the scan ends there at the latest.
  PhysBlock pick = hint;
  if (hint >= capacity_blocks_ || IsAllocated(hint)) {
    pick = capacity_blocks_;
    for (uint64_t i = 0; i < capacity_blocks_; ++i) {
      const PhysBlock candidate = (alloc_cursor_ + i) % capacity_blocks_;
      if (!IsAllocated(candidate)) {
        pick = candidate;
        break;
      }
    }
    if (pick == capacity_blocks_) {
      return Status(StatusCode::kResourceExhausted, "store: out of blocks");
    }
  }
  if (pick >= allocated_.size()) {
    allocated_.resize(pick + 1, false);
    disk_.resize(pick + 1);
  }
  allocated_[pick] = true;
  ++used_blocks_;
  alloc_cursor_ = pick + 1;
  return pick;
}

void ObjectStore::FreeBlock(PhysBlock block) {
  SLICE_CHECK(IsAllocated(block));
  allocated_[block] = false;
  Bytes().swap(disk_[block]);
  --used_blocks_;
}

Result<Bytes*> ObjectStore::StableSlot(Object& obj, BlockIndex block,
                                       std::vector<PhysBlock>* newly_written) {
  PhysBlock phys;
  if (auto it = obj.blocks.find(block); it != obj.blocks.end()) {
    phys = it->second;
  } else {
    // Contiguity hint: one past the previous logical block's physical slot.
    PhysBlock hint = alloc_cursor_;
    if (auto prev = obj.blocks.find(block == 0 ? 0 : block - 1);
        block > 0 && prev != obj.blocks.end()) {
      hint = prev->second + 1;
    }
    SLICE_ASSIGN_OR_RETURN(phys, AllocBlock(hint));
    obj.blocks[block] = phys;
  }
  newly_written->push_back(phys);
  return &disk_[phys];
}

Result<StoreWriteResult> ObjectStore::Write(ObjectId id, uint64_t offset, ByteSpan data,
                                            bool stable) {
  Object& obj = objects_[id];
  StoreWriteResult result;

  size_t consumed = 0;
  while (consumed < data.size()) {
    const uint64_t abs = offset + consumed;
    const BlockIndex block = abs / kStoreBlockSize;
    const size_t within = abs % kStoreBlockSize;
    const size_t take = std::min(data.size() - consumed, kStoreBlockSize - within);
    const ByteSpan piece = data.subspan(consumed, take);
    const bool whole_block = take == kStoreBlockSize;

    if (stable) {
      SLICE_ASSIGN_OR_RETURN(Bytes * payload, StableSlot(obj, block, &result.blocks_written));
      if (whole_block) {
        payload->assign(piece.begin(), piece.end());
      } else {
        if (payload->empty()) {
          payload->assign(kStoreBlockSize, 0);
        }
        std::memcpy(payload->data() + within, piece.data(), take);
      }
      // If a dirty overlay exists for this block, the stable write supersedes
      // the overlapped range; fold the stable bytes into the overlay so reads
      // stay coherent.
      if (auto dirty_it = obj.dirty.find(block); dirty_it != obj.dirty.end()) {
        std::memcpy(dirty_it->second.data() + within, piece.data(), take);
      }
    } else {
      Bytes& overlay = obj.dirty[block];
      if (whole_block) {
        overlay.assign(piece.begin(), piece.end());
      } else {
        if (overlay.empty()) {
          // Seed the overlay with the stable image so partial dirty writes do
          // not clobber surrounding stable bytes at commit time.
          if (auto sit = obj.blocks.find(block); sit != obj.blocks.end()) {
            overlay = disk_[sit->second];
          } else {
            overlay.assign(kStoreBlockSize, 0);
          }
        }
        std::memcpy(overlay.data() + within, piece.data(), take);
      }
    }
    consumed += take;
  }

  const uint64_t end = offset + data.size();
  if (stable) {
    obj.size = std::max(obj.size, end);
  }
  obj.unstable_size = std::max({obj.unstable_size, obj.size, end});
  result.new_size = obj.unstable_size;
  return result;
}

Result<bool> ObjectStore::ReadInto(ObjectId id, uint64_t offset, uint32_t count, Bytes* data,
                                   std::vector<PhysBlock>* blocks_read) const {
  data->clear();
  const auto obj_it = objects_.find(id);
  if (obj_it == objects_.end()) {
    return true;
  }
  const Object& obj = obj_it->second;
  const uint64_t size = std::max(obj.size, obj.unstable_size);
  if (offset >= size) {
    return true;
  }
  const uint64_t n = std::min<uint64_t>(count, size - offset);
  data->resize(n, 0);

  uint64_t produced = 0;
  while (produced < n) {
    const uint64_t abs = offset + produced;
    const BlockIndex block = abs / kStoreBlockSize;
    const size_t within = abs % kStoreBlockSize;
    const size_t take = std::min<uint64_t>(n - produced, kStoreBlockSize - within);

    if (auto dirty_it = obj.dirty.find(block); dirty_it != obj.dirty.end()) {
      std::memcpy(data->data() + produced, dirty_it->second.data() + within, take);
    } else if (auto sit = obj.blocks.find(block); sit != obj.blocks.end()) {
      blocks_read->push_back(sit->second);
      std::memcpy(data->data() + produced, disk_[sit->second].data() + within, take);
    }
    // else: hole — zeros already there.
    produced += take;
  }
  return offset + n >= size;
}

Result<StoreReadResult> ObjectStore::Read(ObjectId id, uint64_t offset, uint32_t count) const {
  StoreReadResult result;
  SLICE_ASSIGN_OR_RETURN(result.eof,
                         ReadInto(id, offset, count, &result.data, &result.blocks_read));
  return result;
}

std::vector<PhysBlock> ObjectStore::Commit(ObjectId id, Status* status) {
  std::vector<PhysBlock> written;
  auto obj_it = objects_.find(id);
  if (obj_it == objects_.end()) {
    return written;
  }
  Object& obj = obj_it->second;
  uint64_t stable_end = obj.unstable_size;
  // The overlay buffer moves into its stable slot: an overlay block is
  // always whole, so nothing is copied.
  for (auto it = obj.dirty.begin(); it != obj.dirty.end(); it = obj.dirty.erase(it)) {
    Result<Bytes*> slot = StableSlot(obj, it->first, &written);
    if (!slot.ok()) {
      // Out of space: this block and the ones after it stay dirty, and the
      // stable size covers only the flushed prefix.
      stable_end = std::min(stable_end, it->first * kStoreBlockSize);
      if (status != nullptr) {
        *status = slot.status();
      }
      break;
    }
    **slot = std::move(it->second);
  }
  obj.size = std::max(obj.size, stable_end);
  return written;
}

Status ObjectStore::Truncate(ObjectId id, uint64_t size) {
  auto obj_it = objects_.find(id);
  if (obj_it == objects_.end()) {
    if (size == 0) {
      return OkStatus();
    }
    objects_[id].size = size;
    objects_[id].unstable_size = size;
    return OkStatus();
  }
  Object& obj = obj_it->second;
  const BlockIndex keep = (size + kStoreBlockSize - 1) / kStoreBlockSize;
  for (auto it = obj.blocks.begin(); it != obj.blocks.end();) {
    if (it->first >= keep) {
      FreeBlock(it->second);
      it = obj.blocks.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = obj.dirty.begin(); it != obj.dirty.end();) {
    if (it->first >= keep) {
      it = obj.dirty.erase(it);
    } else {
      ++it;
    }
  }
  // Zero the tail of the boundary block so a later size extension exposes
  // zeros, not resurrected bytes (POSIX truncate semantics).
  const size_t tail = size % kStoreBlockSize;
  if (tail != 0 && size < std::max(obj.size, obj.unstable_size)) {
    const BlockIndex boundary = size / kStoreBlockSize;
    if (auto bit = obj.blocks.find(boundary); bit != obj.blocks.end()) {
      Bytes& payload = disk_[bit->second];
      std::fill(payload.begin() + static_cast<ptrdiff_t>(tail), payload.end(), 0);
    }
    if (auto dit = obj.dirty.find(boundary); dit != obj.dirty.end()) {
      std::fill(dit->second.begin() + static_cast<ptrdiff_t>(tail), dit->second.end(), 0);
    }
  }
  // setattr(size) is durable metadata: both shrink and extension survive a
  // crash (matching the implicit-creation path above).
  obj.size = size;
  obj.unstable_size = size;
  return OkStatus();
}

Status ObjectStore::Remove(ObjectId id) {
  auto obj_it = objects_.find(id);
  if (obj_it == objects_.end()) {
    return Status(StatusCode::kNotFound, "store: no such object");
  }
  for (const auto& [block, phys] : obj_it->second.blocks) {
    (void)block;
    FreeBlock(phys);
  }
  objects_.erase(obj_it);
  return OkStatus();
}

void ObjectStore::CrashDiscardDirty() {
  for (auto& [id, obj] : objects_) {
    (void)id;
    obj.dirty.clear();
    obj.unstable_size = obj.size;
  }
}

Result<uint64_t> ObjectStore::Size(ObjectId id) const {
  const auto it = objects_.find(id);
  if (it == objects_.end()) {
    return Status(StatusCode::kNotFound, "store: no such object");
  }
  return std::max(it->second.size, it->second.unstable_size);
}

uint64_t ObjectStore::SizeOrZero(ObjectId id) const {
  const auto it = objects_.find(id);
  return it == objects_.end() ? 0 : std::max(it->second.size, it->second.unstable_size);
}

uint64_t ObjectStore::AllocatedBytes(ObjectId id) const {
  const auto it = objects_.find(id);
  return it == objects_.end() ? 0 : it->second.blocks.size() * kStoreBlockSize;
}

uint64_t ObjectStore::dirty_blocks() const {
  uint64_t n = 0;
  for (const auto& [id, obj] : objects_) {
    (void)id;
    n += obj.dirty.size();
  }
  return n;
}

std::optional<PhysBlock> ObjectStore::PhysicalFor(ObjectId id, BlockIndex block) const {
  const auto it = objects_.find(id);
  if (it == objects_.end()) {
    return std::nullopt;
  }
  const auto bit = it->second.blocks.find(block);
  if (bit == it->second.blocks.end()) {
    return std::nullopt;
  }
  return bit->second;
}

}  // namespace slice
