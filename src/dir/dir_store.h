// Directory cell store: name entries and attribute cells resident on one
// server. The paper (§4.3) keeps them in "webs of linked fixed-size cells
// ... indexed by hash chains keyed by an MD5 hash fingerprint on the parent
// file handle and name". Here the MD5 fingerprint decides placement only
// (which site owns a name under name hashing); the store indexes each entry
// once, in a name-ordered map per directory, which answers both lookup and
// readdir.
//
// Name entries and attribute cells for a directory may live on different
// servers (cross-site links); this store only manages one server's resident
// cells. Placement policy lives in the µproxy and DirServer.
#ifndef SLICE_DIR_DIR_STORE_H_
#define SLICE_DIR_DIR_STORE_H_

#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>

#include "src/common/md5.h"
#include "src/common/status.h"
#include "src/nfs/nfs_types.h"

namespace slice {

// Fingerprint for a (parent directory, name) pair: the name-hashing routing
// key. Shared by µproxy and directory servers.
uint64_t NameFingerprint(const FileHandle& parent, std::string_view name);

// A name entry copied out of the store (handoff and slot migration).
struct NameCell {
  uint64_t parent_id = 0;
  std::string name;
  FileHandle child;
};

struct AttrCell {
  Fattr3 attr;
  std::string symlink_target;  // kLnk cells only
};

class DirStore {
 public:
  // One directory's resident entries, name-ordered (cookie = rank).
  using Entries = std::map<std::string, FileHandle, std::less<>>;

  // --- name entries ---
  Status InsertEntry(uint64_t parent_id, const std::string& name, const FileHandle& child);
  Result<FileHandle> FindEntry(uint64_t parent_id, std::string_view name) const;
  Status EraseEntry(uint64_t parent_id, std::string_view name);
  // Entries of `dir_id` resident on this server; nullptr when there are none.
  const Entries* Dir(uint64_t dir_id) const;
  size_t CountDir(uint64_t dir_id) const;

  // --- attribute cells ---
  Status InsertAttr(uint64_t fileid, const Fattr3& attr);
  AttrCell* FindAttr(uint64_t fileid);
  const AttrCell* FindAttr(uint64_t fileid) const;
  Status EraseAttr(uint64_t fileid);

  size_t entry_count() const { return entry_count_; }
  size_t attr_count() const { return attrs_.size(); }
  void Clear();

  // Full scans, used by failover handoff to find cells owned by a site.
  template <typename Fn>
  void ForEachEntry(Fn&& fn) const {
    for (const auto& [dir_id, entries] : dirs_) {
      for (const auto& [name, child] : entries) {
        fn(dir_id, name, child);
      }
    }
  }
  template <typename Fn>
  void ForEachAttr(Fn&& fn) const {
    for (const auto& [fileid, cell] : attrs_) {
      fn(fileid, cell);
    }
  }

 private:
  // A directory with no resident entries has no map.
  std::unordered_map<uint64_t, Entries> dirs_;
  std::unordered_map<uint64_t, AttrCell> attrs_;
  size_t entry_count_ = 0;
};

}  // namespace slice

#endif  // SLICE_DIR_DIR_STORE_H_
