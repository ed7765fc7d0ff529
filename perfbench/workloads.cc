#include "perfbench/workloads.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/obs/metrics_export.h"
#include "src/slice/ensemble.h"
#include "src/workload/seqio.h"
#include "src/workload/sfs_gen.h"
#include "src/workload/untar.h"

namespace perfbench {
namespace {

using slice::Ensemble;
using slice::EnsembleConfig;
using slice::EventQueue;
using slice::FileHandle;
using slice::SimTime;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double SimMs(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

// --- per-layer counters ------------------------------------------------------

// The ledger classes the profiler's per-host sim-time ledgers are folded into.
constexpr const char* kNodeClasses[] = {"client", "dir", "sfs", "storage", "coord"};
constexpr const char* kLedgerCats[] = {"cpu", "queue", "disk", "wire"};

// Monotonic counters read from the components' public getters. The timed
// window of a workload reports the difference of two snapshots.
struct LayerCounts {
  uint64_t events = 0;
  uint64_t packets = 0;
  uint64_t bytes = 0;
  uint64_t drops = 0;
  slice::OpCounters uproxy;
  uint64_t rpc_served = 0;
  uint64_t rpc_duplicates = 0;
  uint64_t dir_local = 0;
  uint64_t dir_cross = 0;
  uint64_t dir_wal_bytes = 0;
  uint64_t dir_cpu_ns = 0;
  uint64_t storage_hits = 0;
  uint64_t storage_misses = 0;
  uint64_t storage_ios = 0;
  uint64_t storage_busy_ns = 0;
  uint64_t storage_prefetches = 0;
  uint64_t sfs_hits = 0;
  uint64_t sfs_misses = 0;
  uint64_t sfs_fetches = 0;
  uint64_t sfs_flushes = 0;
  uint64_t sfs_served = 0;
  // "<class>.<cat>" -> simulated ns, from the profiler (traced runs only).
  std::map<std::string, uint64_t> ledger;
};

// Host address -> node class, from the ensemble's component accessors.
std::map<std::string, std::string> NodeClassByHost(Ensemble& e) {
  std::map<std::string, std::string> classes;
  for (size_t i = 0; i < e.num_clients(); ++i) {
    classes[slice::obs::FormatHostAddr(e.client_host(i).addr())] = "client";
  }
  for (size_t i = 0; i < e.num_dir_servers(); ++i) {
    classes[slice::obs::FormatHostAddr(e.dir_server(i).addr())] = "dir";
  }
  for (size_t i = 0; i < e.num_small_file_servers(); ++i) {
    classes[slice::obs::FormatHostAddr(e.small_file_server(i).addr())] = "sfs";
  }
  for (size_t i = 0; i < e.num_storage_nodes(); ++i) {
    classes[slice::obs::FormatHostAddr(e.storage_node(i).addr())] = "storage";
  }
  for (size_t i = 0; i < e.num_coordinators(); ++i) {
    classes[slice::obs::FormatHostAddr(e.coordinator(i).addr())] = "coord";
  }
  return classes;
}

// Reads the unsigned integer after `"key":` at or beyond `from`.
uint64_t JsonUint(const std::string& json, size_t from, const std::string& key) {
  const size_t at = json.find("\"" + key + "\":", from);
  if (at == std::string::npos) {
    return 0;
  }
  return std::stoull(json.substr(at + key.size() + 3, 24));
}

// Folds the "hosts" array of the profiler's sim section into node classes.
// A host no accessor names lands in "other", which the caller checks is 0.
std::map<std::string, uint64_t> LedgerByClass(Ensemble& e) {
  const std::map<std::string, std::string> classes = NodeClassByHost(e);
  const std::string json = e.profiler()->ExportProfileSimJson();
  std::map<std::string, uint64_t> out;
  for (size_t at = json.find("{\"host\":\""); at != std::string::npos;
       at = json.find("{\"host\":\"", at + 1)) {
    const size_t start = at + 9;
    const std::string host = json.substr(start, json.find('"', start) - start);
    const auto it = classes.find(host);
    const std::string cls = it != classes.end() ? it->second : "other";
    for (const char* cat : kLedgerCats) {
      out[cls + "." + cat] += JsonUint(json, start, cat);
    }
  }
  return out;
}

template <typename Node>
void AddRpc(const Node& node, LayerCounts* c) {
  c->rpc_served += node.requests_served();
  c->rpc_duplicates += node.duplicates_answered();
}

LayerCounts Snapshot(Ensemble& e) {
  LayerCounts c;
  c.events = e.queue().executed();
  c.packets = e.network().packets_sent();
  c.bytes = e.network().bytes_sent();
  c.drops = e.network().packets_dropped();
  c.uproxy = e.AggregateCounters();
  for (size_t i = 0; i < e.num_dir_servers(); ++i) {
    const slice::DirServer& d = e.dir_server(i);
    AddRpc(d, &c);
    c.dir_local += d.local_ops();
    c.dir_cross += d.cross_site_ops();
    c.dir_wal_bytes += d.log_bytes();
    c.dir_cpu_ns += d.cpu().total_busy_time();
  }
  for (size_t i = 0; i < e.num_storage_nodes(); ++i) {
    const slice::StorageNode& s = e.storage_node(i);
    AddRpc(s, &c);
    c.storage_hits += s.cache().hits();
    c.storage_misses += s.cache().misses();
    c.storage_ios += s.disks().TotalIos();
    c.storage_busy_ns += s.disks().TotalBusy();
    c.storage_prefetches += s.prefetches_issued();
  }
  for (size_t i = 0; i < e.num_small_file_servers(); ++i) {
    const slice::SmallFileServer& s = e.small_file_server(i);
    AddRpc(s, &c);
    c.sfs_hits += s.cache().hits();
    c.sfs_misses += s.cache().misses();
    c.sfs_fetches += s.backing_fetches();
    c.sfs_flushes += s.backing_flushes();
    c.sfs_served += s.requests_served();
  }
  for (size_t i = 0; i < e.num_coordinators(); ++i) {
    AddRpc(e.coordinator(i), &c);
  }
  if (e.profiler() != nullptr) {
    c.ledger = LedgerByClass(e);
  }
  return c;
}

uint64_t Intercepted(Ensemble& e) { return e.AggregateCounters().Get("intercepted"); }

// Reports the per-layer counts of the window [a, b] in which `ops` NFS
// operations ran and which took `wall_s` seconds of host time.
void ReportLayers(Ensemble& e, const LayerCounts& a, const LayerCounts& b, uint64_t ops,
                  double wall_s, Report* r) {
  const double events = static_cast<double>(b.events - a.events);
  r->Set("sim.events", events, "count", Kind::kCount);
  r->Set("sim.events_per_op", Ratio(events, ops), "events/op", Kind::kCount);
  r->Set("sim.ns_per_event", Ratio(wall_s * 1e9, events), "ns", Kind::kHost);

  const double packets = static_cast<double>(b.packets - a.packets);
  r->Set("net.packets", packets, "count", Kind::kCount);
  r->Set("net.bytes", static_cast<double>(b.bytes - a.bytes), "bytes", Kind::kCount);
  r->Set("net.drops", static_cast<double>(b.drops - a.drops), "count", Kind::kCount);
  r->Set("net.packets_per_op", Ratio(packets, ops), "packets/op", Kind::kCount);

  for (const char* name :
       {"routed_dir", "routed_sfs", "routed_storage", "attr_writebacks", "intents_logged"}) {
    r->Set(std::string("uproxy.") + name,
           static_cast<double>(b.uproxy.Get(name) - a.uproxy.Get(name)), "count", Kind::kCount);
  }

  const double served = static_cast<double>(b.rpc_served - a.rpc_served);
  const double dups = static_cast<double>(b.rpc_duplicates - a.rpc_duplicates);
  r->Set("rpc.requests_served", served, "count", Kind::kCount);
  r->Set("rpc.duplicates_answered", dups, "count", Kind::kCount);
  r->Set("rpc.duplicate_ratio", Ratio(dups, served), "ratio", Kind::kCount);

  const double local = static_cast<double>(b.dir_local - a.dir_local);
  const double cross = static_cast<double>(b.dir_cross - a.dir_cross);
  r->Set("dir.local_ops", local, "count", Kind::kCount);
  r->Set("dir.cross_site_ops", cross, "count", Kind::kCount);
  r->Set("dir.cross_site_ratio", Ratio(cross, local + cross), "ratio", Kind::kCount);
  r->Set("dir.wal_bytes", static_cast<double>(b.dir_wal_bytes - a.dir_wal_bytes), "bytes",
         Kind::kCount);
  r->Set("dir.cpu_busy_sim_ms", SimMs(b.dir_cpu_ns - a.dir_cpu_ns), "sim_ms", Kind::kCount);

  const double hits = static_cast<double>(b.storage_hits - a.storage_hits);
  const double misses = static_cast<double>(b.storage_misses - a.storage_misses);
  uint64_t used_blocks = 0;
  for (size_t i = 0; i < e.num_storage_nodes(); ++i) {
    used_blocks += e.storage_node(i).store().used_blocks();
  }
  r->Set("storage.cache_hit_ratio", Ratio(hits, hits + misses), "ratio", Kind::kCount);
  r->Set("storage.disk_ios", static_cast<double>(b.storage_ios - a.storage_ios), "count",
         Kind::kCount);
  r->Set("storage.disk_busy_sim_ms", SimMs(b.storage_busy_ns - a.storage_busy_ns), "sim_ms",
         Kind::kCount);
  r->Set("storage.prefetches", static_cast<double>(b.storage_prefetches - a.storage_prefetches),
         "count", Kind::kCount);
  r->Set("storage.used_blocks", static_cast<double>(used_blocks), "blocks", Kind::kCount);

  const double sfs_hits = static_cast<double>(b.sfs_hits - a.sfs_hits);
  const double sfs_misses = static_cast<double>(b.sfs_misses - a.sfs_misses);
  r->Set("sfs.cache_hit_ratio", Ratio(sfs_hits, sfs_hits + sfs_misses), "ratio", Kind::kCount);
  r->Set("sfs.backing_fetches", static_cast<double>(b.sfs_fetches - a.sfs_fetches), "count",
         Kind::kCount);
  r->Set("sfs.backing_flushes", static_cast<double>(b.sfs_flushes - a.sfs_flushes), "count",
         Kind::kCount);
  r->Set("sfs.requests_served", static_cast<double>(b.sfs_served - a.sfs_served), "count",
         Kind::kCount);

  if (e.profiler() == nullptr) {
    return;
  }
  for (const char* cls : kNodeClasses) {
    for (const char* cat : kLedgerCats) {
      const std::string key = std::string(cls) + "." + cat;
      const uint64_t before = a.ledger.count(key) ? a.ledger.at(key) : 0;
      const uint64_t after = b.ledger.count(key) ? b.ledger.at(key) : 0;
      r->Set("obs." + key + "_sim_ms", SimMs(after - before), "sim_ms", Kind::kLedger);
    }
  }
  uint64_t unmapped = 0;
  for (const char* cat : kLedgerCats) {
    const std::string key = std::string("other.") + cat;
    unmapped += b.ledger.count(key) ? b.ledger.at(key) : 0;
  }
  r->Check(unmapped == 0, "profiler ledger charged a host no ensemble accessor names");
  r->profile_sim_hash = e.ProfileSimHash();

  // Wall-clock attribution of the window (ResetWall ran at its start).
  using slice::obs::ProfScope;
  const slice::obs::Profiler& p = *e.profiler();
  auto ms = [](uint64_t ns) { return static_cast<double>(ns) / 1e6; };
  const uint64_t dispatch_self = p.ScopeExclusiveNs(ProfScope::kSimDispatch);
  r->Set("sim.dispatch_self_ms", ms(dispatch_self), "ms", Kind::kWall);
  uint64_t uproxy_self = 0;
  for (ProfScope s :
       {ProfScope::kUproxyOutbound, ProfScope::kUproxyDecode, ProfScope::kUproxyRoute,
        ProfScope::kUproxySoftState, ProfScope::kUproxyTrace, ProfScope::kUproxyRewrite,
        ProfScope::kUproxyAttrPatch, ProfScope::kUproxyMetrics, ProfScope::kUproxyInbound,
        ProfScope::kUproxyInboundBatch}) {
    uproxy_self += p.ScopeExclusiveNs(s);
  }
  const uint64_t uproxy_packets =
      p.ScopeCount(ProfScope::kUproxyOutbound) + p.ScopeCount(ProfScope::kUproxyInbound);
  r->Set("uproxy.self_ms", ms(uproxy_self), "ms", Kind::kWall);
  r->Set("uproxy.ns_per_packet", Ratio(uproxy_self, uproxy_packets), "ns", Kind::kWall);
  r->Set("uproxy.attr_patch_ms", ms(p.ScopeInclusiveNs(ProfScope::kUproxyAttrPatch)), "ms",
         Kind::kWall);
  r->Set("rpc.dispatch_self_ms", ms(p.ScopeExclusiveNs(ProfScope::kRpcDispatch)), "ms",
         Kind::kWall);
  r->Set("rpc.ns_per_request",
         Ratio(p.ScopeInclusiveNs(ProfScope::kRpcDispatch), p.ScopeCount(ProfScope::kRpcDispatch)),
         "ns", Kind::kWall);
  const uint64_t name_op = p.ScopeInclusiveNs(ProfScope::kDirNameOp);
  r->Set("dir.name_op_ms", ms(name_op), "ms", Kind::kWall);
  r->Set("dir.ns_per_name_op", Ratio(name_op, p.ScopeCount(ProfScope::kDirNameOp)), "ns",
         Kind::kWall);
  const uint64_t cache = p.ScopeInclusiveNs(ProfScope::kStorageCache);
  const uint64_t disk = p.ScopeInclusiveNs(ProfScope::kStorageDisk);
  r->Set("storage.cache_ms", ms(cache), "ms", Kind::kWall);
  r->Set("storage.disk_ms", ms(disk), "ms", Kind::kWall);
  r->Set("storage.self_ms", ms(cache + disk), "ms", Kind::kWall);
  r->Set("profile.unattributed_ratio", Ratio(dispatch_self, wall_s * 1e9), "ratio", Kind::kWall);
  r->Check(p.dropped_scopes() == 0, "profiler dropped scopes");
}

// The figures every workload reports, whatever its phases.
void ReportEndToEnd(double setup_s, double wall_s, uint64_t ops, double sim_ops_per_s,
                    double sim_mean_ms, Report* r) {
  r->Set("setup_s", setup_s, "s", Kind::kHost);
  r->Set("wall_ns_per_op", Ratio(wall_s * 1e9, ops), "ns", Kind::kHost);
  r->Set("sim_ops_per_s", sim_ops_per_s, "ops/sim_s", Kind::kSim);
  r->Set("sim_mean_ms", sim_mean_ms, "sim_ms", Kind::kSim);
  r->Set("workload.setup_ms", setup_s * 1e3, "ms", Kind::kHost);
  r->Set("workload.timed_ms", wall_s * 1e3, "ms", Kind::kHost);
}

EnsembleConfig BaseConfig(bool traced) {
  EnsembleConfig config;
  config.mgmt.enabled = false;  // static healthy ensemble, as in the paper benches
  config.profiler.enabled = traced;
  return config;
}

}  // namespace

// --- sfs_mix -------------------------------------------------------------------

// The fig5 calibration (bench/sfs_harness.h): small caches relative to the
// self-scaled file set and FFS-like metadata amplification at the disks.
constexpr double kSfsMetaIos = 3.0;
constexpr double kSfsStorageCacheMb = 3.0;
constexpr double kSfsSmallFileCacheMb = 6.0;
// The highest fig5-style rate whose simulated mean latency does not grow
// with the window length (no backlog), so simulated results do not depend on
// how long a run measures.
constexpr double kSfsOfferedOpsPerSec = 4800;
const SimTime kSfsWarmup = slice::FromMillis(800);
const SimTime kSfsDuration = slice::FromSeconds(4);

void RunSfsMix(uint64_t seed, bool traced, Report* r) {
  const Clock::time_point setup_start = Clock::now();
  EventQueue queue;
  EnsembleConfig config = BaseConfig(traced);
  config.num_storage_nodes = 8;
  config.num_small_file_servers = 2;
  config.num_dir_servers = 1;
  config.num_clients = 4;
  config.cal.storage_cache_mb = kSfsStorageCacheMb;
  config.cal.sfs_cache_mb = kSfsSmallFileCacheMb;
  config.storage_extra_meta_ios = kSfsMetaIos;
  Ensemble ensemble(queue, config);

  slice::SfsParams params;
  params.offered_ops_per_sec = kSfsOfferedOpsPerSec;
  // SPECsfs-style self-scaling, as in fig5: 1200 files outgrow the 24 MB of
  // storage cache plus 12 MB of small-file cache.
  params.num_files = static_cast<size_t>(kSfsOfferedOpsPerSec / 4);
  params.num_dirs = 16;
  params.num_processes = static_cast<size_t>(kSfsOfferedOpsPerSec / 100);
  params.warmup = kSfsWarmup;
  params.duration = kSfsDuration;
  params.seed = seed;
  slice::SfsBenchmark bench(ensemble.client_host(0), queue, ensemble.virtual_server(),
                            ensemble.root(), params);
  const slice::Status setup = bench.Setup();
  r->Check(setup.ok(), "sfs_mix: SfsBenchmark::Setup failed");
  const double setup_s = SecondsSince(setup_start);
  if (!setup.ok()) {
    return;
  }

  if (traced) {
    ensemble.profiler()->ResetWall();
  }
  const LayerCounts before = Snapshot(ensemble);
  const Clock::time_point run_start = Clock::now();
  const slice::SfsReport report = bench.Run();
  const double wall_s = SecondsSince(run_start);
  const LayerCounts after = Snapshot(ensemble);

  // Every NFS op of the timed Run (warmup included) passes the µproxy once.
  const uint64_t ops = after.uproxy.Get("intercepted") - before.uproxy.Get("intercepted");
  r->attempted = report.ops_completed + report.errors;
  r->failed = report.errors;
  ReportEndToEnd(setup_s, wall_s, ops, report.delivered_iops, report.mean_latency_ms, r);
  r->Set("sim_p50_ms", slice::ToMillis(report.p50_latency), "sim_ms", Kind::kSim);
  r->Set("sim_p99_ms", slice::ToMillis(report.p99_latency), "sim_ms", Kind::kSim);
  r->Set("sim_latency_samples", static_cast<double>(report.ops_completed), "count", Kind::kSim);
  r->Set("op_fail_ratio", Ratio(report.errors, r->attempted), "ratio", Kind::kSim);
  r->Set("workload.warmup_measure_ms", wall_s * 1e3, "ms", Kind::kHost);
  ReportLayers(ensemble, before, after, ops, wall_s, r);

  r->Check(report.errors == 0, "sfs_mix: op_fail_ratio is not 0");
  r->Check(report.ops_completed > 0, "sfs_mix: no operation completed");
}

// --- untar ---------------------------------------------------------------------

constexpr int kUntarProcesses = 4;
constexpr int kUntarCreations = 8000;

namespace {

// Counts every entry below `dir` with READDIR, descending into the "d*"
// directories UntarProcess creates ("f*" are its zero-length files).
uint64_t CountTree(slice::SyncNfsClient& client, const FileHandle& dir, Report* r) {
  auto entries = client.ReadWholeDir(dir);
  if (!entries.ok()) {
    r->Check(false, "untar: READDIR failed: " + entries.status().ToString());
    return 0;
  }
  uint64_t count = 0;
  for (const slice::DirEntry& entry : entries.value()) {
    if (entry.name == "." || entry.name == "..") {
      continue;
    }
    ++count;
    if (entry.name[0] == 'd') {
      auto looked = client.Lookup(dir, entry.name);
      if (!looked.ok() || looked.value().status != slice::Nfsstat3::kOk) {
        r->Check(false, "untar: LOOKUP of " + entry.name + " failed");
        continue;
      }
      count += CountTree(client, looked.value().object, r);
    }
  }
  return count;
}

}  // namespace

void RunUntar(uint64_t seed, bool traced, Report* r) {
  const Clock::time_point setup_start = Clock::now();
  EventQueue queue;
  EnsembleConfig config = BaseConfig(traced);
  config.num_dir_servers = 4;
  config.name_policy = slice::NamePolicy::kNameHashing;
  config.num_small_file_servers = 1;
  config.num_storage_nodes = 2;
  config.num_clients = kUntarProcesses;
  Ensemble ensemble(queue, config);

  std::vector<std::unique_ptr<slice::UntarProcess>> procs;
  int finished = 0;
  for (int p = 0; p < kUntarProcesses; ++p) {
    slice::UntarParams params;
    params.total_creations = kUntarCreations;
    params.top_name = "untar_p" + std::to_string(p);
    procs.push_back(std::make_unique<slice::UntarProcess>(
        ensemble.client_host(static_cast<size_t>(p)), queue, ensemble.virtual_server(),
        ensemble.root(), params, slice::MixU64(seed + static_cast<uint64_t>(p)),
        [&finished] { ++finished; }));
  }
  const double setup_s = SecondsSince(setup_start);

  if (traced) {
    ensemble.profiler()->ResetWall();
  }
  const LayerCounts before = Snapshot(ensemble);
  const Clock::time_point run_start = Clock::now();
  const SimTime sim_start = queue.now();
  for (auto& proc : procs) {
    proc->Start();
  }
  queue.RunUntilIdle();
  const double wall_s = SecondsSince(run_start);
  const LayerCounts after = Snapshot(ensemble);

  uint64_t issued = 0;
  uint64_t errors = 0;
  SimTime busy = 0;
  SimTime last_done = sim_start;
  for (auto& proc : procs) {
    issued += proc->ops_issued();
    errors += proc->errors();
    busy += proc->elapsed();
    last_done = std::max(last_done, proc->finished_at());
  }
  const uint64_t ops = after.uproxy.Get("intercepted") - before.uproxy.Get("intercepted");
  r->attempted = issued;
  r->failed = errors;
  // Each process keeps one operation outstanding, so its elapsed time is the
  // sum of its operations' latencies.
  ReportEndToEnd(setup_s, wall_s, ops, Ratio(ops, slice::ToSeconds(last_done - sim_start)),
                 Ratio(slice::ToMillis(busy), issued), r);
  r->Set("op_fail_ratio", Ratio(errors, issued), "ratio", Kind::kSim);
  r->Set("workload.untar_ms", wall_s * 1e3, "ms", Kind::kHost);
  ReportLayers(ensemble, before, after, ops, wall_s, r);

  r->Check(finished == kUntarProcesses, "untar: a process did not finish");
  r->Check(errors == 0, "untar: op_fail_ratio is not 0");
  r->Check(ops == issued, "untar: µproxy saw a different op count than the processes issued");

  // Output check: each process's tree holds exactly its creations.
  const Clock::time_point check_start = Clock::now();
  auto client = ensemble.MakeSyncClient(0);
  for (int p = 0; p < kUntarProcesses; ++p) {
    const std::string top = "untar_p" + std::to_string(p);
    auto looked = client->Lookup(ensemble.root(), top);
    if (!looked.ok() || looked.value().status != slice::Nfsstat3::kOk) {
      r->Check(false, "untar: LOOKUP of " + top + " failed");
      continue;
    }
    const uint64_t count = CountTree(*client, looked.value().object, r);
    r->Check(count == static_cast<uint64_t>(kUntarCreations),
             "untar: " + top + " holds " + std::to_string(count) + " entries, expected " +
                 std::to_string(kUntarCreations));
  }
  r->Set("workload.check_ms", SecondsSince(check_start) * 1e3, "ms", Kind::kHost);
}

// --- bulk_rw -------------------------------------------------------------------

constexpr int kBulkStreams = 4;
constexpr uint32_t kBulkBlock = 32768;
// 24 MB per stream puts one periodic 16 MB commit mid-stream.
constexpr uint64_t kBulkFileBytes = 24ull << 20;
// Each stream starts after a seed-drawn delay of up to this much simulated
// time, as four dd commands started by hand would. This is the seed's input
// to the workload: file sizes would be another, but the cold-read prefetch
// makes throughput jump by 10% between sizes a few blocks apart.
const SimTime kBulkMaxStagger = slice::FromMillis(2);
constexpr int kBulkSampledBlocks = 8;

namespace {

struct StreamPhase {
  double wall_s = 0;
  uint64_t ops = 0;
  uint64_t bytes = 0;
  uint64_t errors = 0;
  SimTime sim_elapsed = 0;
  slice::LatencyStats latency;
};

// Runs one SeqIoProcess per stream to completion, each started after a
// seed-drawn delay.
StreamPhase RunStreams(Ensemble& ensemble, const std::vector<FileHandle>& files, bool write,
                       slice::Rng& rng) {
  EventQueue& queue = ensemble.queue();
  std::vector<std::unique_ptr<slice::SeqIoProcess>> procs;
  std::vector<SimTime> delays;
  int finished = 0;
  for (size_t c = 0; c < files.size(); ++c) {
    slice::SeqIoParams params;
    params.file_bytes = kBulkFileBytes;
    params.block_size = kBulkBlock;
    params.window = 4;
    params.write = write;
    params.client_ns_per_byte = write ? ensemble.config().cal.client_write_ns_per_byte
                                      : ensemble.config().cal.client_read_ns_per_byte;
    params.commit_every = 16ull << 20;
    procs.push_back(std::make_unique<slice::SeqIoProcess>(
        ensemble.client_host(c), queue, ensemble.virtual_server(), files[c], params,
        [&finished] { ++finished; }));
    delays.push_back(rng.NextBelow(kBulkMaxStagger));
  }
  StreamPhase phase;
  const uint64_t ops_before = Intercepted(ensemble);
  const Clock::time_point wall_start = Clock::now();
  for (size_t c = 0; c < procs.size(); ++c) {
    queue.ScheduleAt(queue.now() + delays[c], [proc = procs[c].get()] { proc->Start(); });
  }
  queue.RunUntilIdle();
  phase.wall_s = SecondsSince(wall_start);
  phase.ops = Intercepted(ensemble) - ops_before;
  for (size_t c = 0; c < procs.size(); ++c) {
    phase.bytes += kBulkFileBytes;
    phase.errors += procs[c]->errors();
    phase.sim_elapsed = std::max(phase.sim_elapsed, delays[c] + procs[c]->elapsed());
    phase.latency.Merge(procs[c]->latency());
  }
  if (finished != static_cast<int>(procs.size())) {
    phase.errors += procs.size() - static_cast<size_t>(finished);
  }
  return phase;
}

}  // namespace

void RunBulkRw(uint64_t seed, bool traced, Report* r) {
  slice::Rng rng(seed);
  const Clock::time_point setup_start = Clock::now();
  EventQueue queue;
  EnsembleConfig config = BaseConfig(traced);
  config.num_storage_nodes = 8;
  config.num_small_file_servers = 0;  // pure bulk path, as in the dd test
  config.num_coordinators = 1;
  config.num_clients = kBulkStreams;
  Ensemble ensemble(queue, config);
  std::vector<FileHandle> files;
  for (int c = 0; c < kBulkStreams; ++c) {
    auto client = ensemble.MakeSyncClient(static_cast<size_t>(c));
    auto created = client->Create(ensemble.root(), "dd" + std::to_string(c));
    if (!created.ok() || created.value().status != slice::Nfsstat3::kOk) {
      r->Check(false, "bulk_rw: create failed");
      return;
    }
    files.push_back(*created.value().object);
  }
  const double setup_s = SecondsSince(setup_start);

  if (traced) {
    ensemble.profiler()->ResetWall();
  }
  const LayerCounts before = Snapshot(ensemble);
  const StreamPhase write = RunStreams(ensemble, files, /*write=*/true, rng);
  // Cold caches for the read-back, as in the paper's dd test.
  const Clock::time_point restart_start = Clock::now();
  for (size_t i = 0; i < ensemble.num_storage_nodes(); ++i) {
    ensemble.storage_node(i).Fail();
    ensemble.storage_node(i).Restart();
  }
  const double restart_s = SecondsSince(restart_start);
  const StreamPhase read = RunStreams(ensemble, files, /*write=*/false, rng);
  const LayerCounts after = Snapshot(ensemble);

  const uint64_t ops = write.ops + read.ops;
  const double wall_s = write.wall_s + restart_s + read.wall_s;
  slice::LatencyStats latency = write.latency;
  latency.Merge(read.latency);
  r->attempted = write.latency.count() + read.latency.count();
  r->failed = write.errors + read.errors;
  ReportEndToEnd(setup_s, wall_s, ops,
                 Ratio(ops, slice::ToSeconds(write.sim_elapsed + read.sim_elapsed)),
                 latency.MeanMillis(), r);
  r->Set("wall_ns_per_write_op", Ratio(write.wall_s * 1e9, write.ops), "ns", Kind::kHost);
  r->Set("wall_ns_per_read_op", Ratio(read.wall_s * 1e9, read.ops), "ns", Kind::kHost);
  r->Set("sim_write_mb_per_s", Ratio(write.bytes / 1e6, slice::ToSeconds(write.sim_elapsed)),
         "MB/sim_s", Kind::kSim);
  r->Set("sim_read_mb_per_s", Ratio(read.bytes / 1e6, slice::ToSeconds(read.sim_elapsed)),
         "MB/sim_s", Kind::kSim);
  r->Set("sim_p50_ms", slice::ToMillis(latency.Percentile(50)), "sim_ms", Kind::kSim);
  r->Set("sim_p99_ms", slice::ToMillis(latency.Percentile(99)), "sim_ms", Kind::kSim);
  r->Set("sim_latency_samples", static_cast<double>(latency.count()), "count", Kind::kSim);
  r->Set("op_fail_ratio", Ratio(r->failed, r->attempted), "ratio", Kind::kSim);
  r->Set("workload.write_ms", write.wall_s * 1e3, "ms", Kind::kHost);
  r->Set("workload.restart_ms", restart_s * 1e3, "ms", Kind::kHost);
  r->Set("workload.read_ms", read.wall_s * 1e3, "ms", Kind::kHost);
  ReportLayers(ensemble, before, after, ops, wall_s, r);

  r->Check(write.errors == 0, "bulk_rw: a write failed");
  r->Check(read.errors == 0, "bulk_rw: a read failed or returned a short count");

  // Output check: sampled blocks read back byte for byte. SeqIoProcess fills
  // the block at `offset` with the byte (offset >> 15).
  const Clock::time_point check_start = Clock::now();
  auto client = ensemble.MakeSyncClient(0);
  for (size_t c = 0; c < files.size(); ++c) {
    const uint64_t blocks = kBulkFileBytes / kBulkBlock;
    for (int s = 0; s < kBulkSampledBlocks; ++s) {
      const uint64_t offset = rng.NextBelow(blocks) * kBulkBlock;
      auto got = client->Read(files[c], offset, kBulkBlock);
      const bool ok = got.ok() && got.value().status == slice::Nfsstat3::kOk &&
                      got.value().count == kBulkBlock &&
                      got.value().data.size() == kBulkBlock &&
                      std::all_of(got.value().data.begin(), got.value().data.end(),
                                  [offset](uint8_t b) {
                                    return b == static_cast<uint8_t>(offset >> 15);
                                  });
      r->Check(ok, "bulk_rw: dd" + std::to_string(c) + " block at " + std::to_string(offset) +
                       " does not read back as written");
    }
  }
  r->Set("workload.check_ms", SecondsSince(check_start) * 1e3, "ms", Kind::kHost);
}

}  // namespace perfbench
