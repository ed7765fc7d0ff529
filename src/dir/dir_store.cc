#include "src/dir/dir_store.h"

namespace slice {

uint64_t NameFingerprint(const FileHandle& parent, std::string_view name) {
  Md5 ctx;
  ctx.Update(parent.bytes());
  ctx.Update(name);
  return Md5Fingerprint64(ctx.Finish());
}

Status DirStore::InsertEntry(uint64_t parent_id, const std::string& name,
                             const FileHandle& child) {
  if (!dirs_[parent_id].emplace(name, child).second) {
    return Status(StatusCode::kAlreadyExists, "dir: entry exists");
  }
  ++entry_count_;
  return OkStatus();
}

Result<FileHandle> DirStore::FindEntry(uint64_t parent_id, std::string_view name) const {
  if (const Entries* entries = Dir(parent_id); entries != nullptr) {
    if (const auto it = entries->find(name); it != entries->end()) {
      return it->second;
    }
  }
  return Status(StatusCode::kNotFound, "dir: no entry");
}

Status DirStore::EraseEntry(uint64_t parent_id, std::string_view name) {
  const auto dit = dirs_.find(parent_id);
  if (dit == dirs_.end()) {
    return Status(StatusCode::kNotFound, "dir: no entry");
  }
  const auto it = dit->second.find(name);
  if (it == dit->second.end()) {
    return Status(StatusCode::kNotFound, "dir: no entry");
  }
  dit->second.erase(it);
  --entry_count_;
  if (dit->second.empty()) {
    dirs_.erase(dit);
  }
  return OkStatus();
}

const DirStore::Entries* DirStore::Dir(uint64_t dir_id) const {
  const auto dit = dirs_.find(dir_id);
  return dit == dirs_.end() ? nullptr : &dit->second;
}

size_t DirStore::CountDir(uint64_t dir_id) const {
  const Entries* entries = Dir(dir_id);
  return entries == nullptr ? 0 : entries->size();
}

Status DirStore::InsertAttr(uint64_t fileid, const Fattr3& attr) {
  auto [it, inserted] = attrs_.emplace(fileid, AttrCell{attr, {}});
  if (!inserted) {
    return Status(StatusCode::kAlreadyExists, "dir: attr cell exists");
  }
  return OkStatus();
}

AttrCell* DirStore::FindAttr(uint64_t fileid) {
  auto it = attrs_.find(fileid);
  return it == attrs_.end() ? nullptr : &it->second;
}

const AttrCell* DirStore::FindAttr(uint64_t fileid) const {
  const auto it = attrs_.find(fileid);
  return it == attrs_.end() ? nullptr : &it->second;
}

Status DirStore::EraseAttr(uint64_t fileid) {
  if (attrs_.erase(fileid) == 0) {
    return Status(StatusCode::kNotFound, "dir: no attr cell");
  }
  return OkStatus();
}

void DirStore::Clear() {
  dirs_.clear();
  attrs_.clear();
  entry_count_ = 0;
}

}  // namespace slice
