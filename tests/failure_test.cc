// Cross-module failure injection: crashes and packet loss at the worst
// moments, combined failures, and recovery interleavings. These go beyond
// the per-module recovery tests by exercising the interactions.
#include <gtest/gtest.h>

#include "src/slice/ensemble.h"

namespace slice {
namespace {

Bytes Pattern(size_t n, uint8_t seed = 1) {
  Bytes data(n);
  for (size_t i = 0; i < n; ++i) {
    data[i] = static_cast<uint8_t>(seed + i * 53);
  }
  return data;
}

class FailureTest : public ::testing::Test {
 protected:
  explicit FailureTest(EnsembleConfig config = DefaultConfig()) {
    ensemble_ = std::make_unique<Ensemble>(queue_, config);
    client_ = ensemble_->MakeSyncClient(0);
    root_ = ensemble_->root();
  }

  static EnsembleConfig DefaultConfig() {
    EnsembleConfig config;
    config.num_dir_servers = 2;
    config.num_small_file_servers = 2;
    config.num_storage_nodes = 2;
    return config;
  }

  EventQueue queue_;
  std::unique_ptr<Ensemble> ensemble_;
  std::unique_ptr<SyncNfsClient> client_;
  FileHandle root_;
};

TEST_F(FailureTest, SimultaneousManagerCrashes) {
  // Create state across both manager classes, flush logs, crash everything
  // at once, recover, verify.
  CreateRes created = client_->Create(root_, "sturdy").value();
  ASSERT_EQ(created.status, Nfsstat3::kOk);
  ASSERT_EQ(client_->Write(*created.object, 0, Pattern(3000), StableHow::kUnstable)
                .value()
                .status,
            Nfsstat3::kOk);
  ASSERT_EQ(client_->Commit(*created.object).value().status, Nfsstat3::kOk);
  queue_.RunUntilIdle();

  for (size_t i = 0; i < ensemble_->num_dir_servers(); ++i) {
    ensemble_->dir_server(i).FlushLog();
  }
  for (size_t i = 0; i < ensemble_->num_small_file_servers(); ++i) {
    ensemble_->small_file_server(i).FlushDirtyForTest();
  }
  queue_.RunUntilIdle();

  for (size_t i = 0; i < ensemble_->num_dir_servers(); ++i) {
    ensemble_->dir_server(i).Fail();
  }
  for (size_t i = 0; i < ensemble_->num_small_file_servers(); ++i) {
    ensemble_->small_file_server(i).Fail();
  }
  for (size_t i = 0; i < ensemble_->num_dir_servers(); ++i) {
    ensemble_->dir_server(i).Restart();
  }
  for (size_t i = 0; i < ensemble_->num_small_file_servers(); ++i) {
    ensemble_->small_file_server(i).Restart();
  }
  queue_.RunUntilIdle();

  LookupRes found = client_->Lookup(root_, "sturdy").value();
  ASSERT_EQ(found.status, Nfsstat3::kOk);
  ReadRes read = client_->Read(found.object, 0, 3000).value();
  ASSERT_EQ(read.status, Nfsstat3::kOk);
  EXPECT_EQ(read.data, Pattern(3000));
}

TEST_F(FailureTest, LossDuringRecoveryStillConverges) {
  // WAL replay itself runs over the lossy network; RPC retransmission must
  // carry it through.
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(client_->Create(root_, "pre" + std::to_string(i)).value().status,
              Nfsstat3::kOk);
  }
  ensemble_->dir_server(0).FlushLog();
  queue_.RunUntilIdle();

  ensemble_->network().set_loss_rate(0.1);
  ensemble_->dir_server(0).Fail();
  ensemble_->dir_server(0).Restart();
  queue_.RunUntilIdle();
  ensemble_->network().set_loss_rate(0.0);

  ASSERT_FALSE(ensemble_->dir_server(0).recovering());
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(client_->Lookup(root_, "pre" + std::to_string(i)).value().status,
              Nfsstat3::kOk);
  }
}

TEST_F(FailureTest, StorageCrashLosesOnlyUncommittedSliceData) {
  // Unstable writes buffered at the small-file server survive a STORAGE
  // node crash (they have not been flushed there yet); committed data
  // survives both crashes.
  CreateRes committed = client_->Create(root_, "committed").value();
  ASSERT_EQ(client_->Write(*committed.object, 0, Pattern(2000, 1), StableHow::kUnstable)
                .value()
                .status,
            Nfsstat3::kOk);
  ASSERT_EQ(client_->Commit(*committed.object).value().status, Nfsstat3::kOk);

  CreateRes buffered = client_->Create(root_, "buffered").value();
  ASSERT_EQ(client_->Write(*buffered.object, 0, Pattern(2000, 2), StableHow::kUnstable)
                .value()
                .status,
            Nfsstat3::kOk);
  queue_.RunUntilIdle();

  for (size_t i = 0; i < ensemble_->num_storage_nodes(); ++i) {
    ensemble_->storage_node(i).Fail();
    ensemble_->storage_node(i).Restart();
  }
  queue_.RunUntilIdle();

  // Both files readable: "committed" from storage-backed pages, "buffered"
  // straight from the small-file server's RAM.
  EXPECT_EQ(client_->Read(*committed.object, 0, 2000).value().data, Pattern(2000, 1));
  EXPECT_EQ(client_->Read(*buffered.object, 0, 2000).value().data, Pattern(2000, 2));
}

TEST_F(FailureTest, RecoveringDirServerAnswersJukebox) {
  // While WAL replay is in flight, name ops get NFS3ERR_JUKEBOX (retry
  // later) rather than wrong answers.
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(client_->Create(root_, "j" + std::to_string(i)).value().status, Nfsstat3::kOk);
  }
  ensemble_->dir_server(0).FlushLog();
  queue_.RunUntilIdle();
  ensemble_->dir_server(0).Fail();
  ensemble_->dir_server(0).Restart();
  // Do NOT drain the queue: ask immediately, racing the replay.
  ASSERT_TRUE(ensemble_->dir_server(0).recovering());
  LookupRes racing = client_->Lookup(root_, "j0").value();
  EXPECT_TRUE(racing.status == Nfsstat3::kErrJukebox || racing.status == Nfsstat3::kOk);
  queue_.RunUntilIdle();
  EXPECT_EQ(client_->Lookup(root_, "j0").value().status, Nfsstat3::kOk);
}

TEST_F(FailureTest, CoordinatorCrashDuringFanoutStillCleansUp) {
  // A remove's data fan-out is in flight when the coordinator crashes; after
  // its own log-driven recovery, no intent leaks and data is gone.
  CreateRes doomed = client_->Create(root_, "doomed").value();
  ASSERT_EQ(client_->Write(*doomed.object, 1 << 20, Pattern(32768), StableHow::kFileSync)
                .value()
                .status,
            Nfsstat3::kOk);
  ASSERT_EQ(client_->Remove(root_, "doomed").value().status, Nfsstat3::kOk);
  // Crash the coordinator before the µproxy's completion can land.
  ensemble_->coordinator(0).Fail();
  ensemble_->uproxy(0).DropSoftState();  // µproxy forgets the operation too
  ensemble_->coordinator(0).Restart();
  queue_.RunUntilIdle();

  EXPECT_EQ(ensemble_->coordinator(0).pending_intents(), 0u);
  EXPECT_EQ(client_->Read(*doomed.object, 1 << 20, 100).value().count, 0u)
      << "recovered remove reclaimed the bulk data";
}

TEST_F(FailureTest, RepeatedCrashRestartCycles) {
  // Hammer a directory server with crash/recover cycles interleaved with
  // mutations; the namespace stays exact.
  std::set<std::string> expected;
  for (int cycle = 0; cycle < 5; ++cycle) {
    const std::string name = "cycle" + std::to_string(cycle);
    ASSERT_EQ(client_->Create(root_, name).value().status, Nfsstat3::kOk);
    expected.insert(name);
    if (cycle % 2 == 0) {
      const std::string victim = "cycle" + std::to_string(cycle / 2);
      if (expected.erase(victim) > 0) {
        ASSERT_EQ(client_->Remove(root_, victim).value().status, Nfsstat3::kOk);
      }
    }
    ensemble_->dir_server(0).FlushLog();
    queue_.RunUntilIdle();
    ensemble_->dir_server(0).Fail();
    ensemble_->dir_server(0).Restart();
    queue_.RunUntilIdle();
  }
  for (const std::string& name : expected) {
    EXPECT_EQ(client_->Lookup(root_, name).value().status, Nfsstat3::kOk) << name;
  }
  std::vector<DirEntry> listing = client_->ReadWholeDir(root_).value();
  EXPECT_EQ(listing.size(), expected.size());
}

// End-to-end control-plane scenario: a storage node AND a directory server
// die mid-workload on a lossy network. The manager must detect both within
// the heartbeat timeout, install a higher-epoch table in every µproxy, and
// the workload must complete with zero client-visible errors (kErrJukebox is
// a retry signal, not an error). On rejoin the slots rebalance under a fresh
// epoch and the mirrors resync.
TEST(ControlPlaneE2eTest, WorkloadSurvivesStorageAndDirDeathUnderLoss) {
  EventQueue queue;
  EnsembleConfig config;
  config.num_dir_servers = 2;
  config.num_small_file_servers = 0;  // all I/O on the mirrored bulk path
  config.num_storage_nodes = 4;
  config.num_coordinators = 1;
  config.name_policy = NamePolicy::kNameHashing;
  config.default_replication = 2;
  config.loss_rate = 0.005;
  Ensemble ensemble(queue, config);
  auto client = ensemble.MakeSyncClient(0);
  const FileHandle root = ensemble.root();
  EnsembleManager& mgr = *ensemble.manager();

  int errors = 0;
  auto check = [&](Nfsstat3 status, const char* what) {
    if (status != Nfsstat3::kOk) {
      ++errors;
      ADD_FAILURE() << what << " -> " << static_cast<int>(status);
    }
  };
  auto retry = [&](auto op) {
    for (int attempt = 0;; ++attempt) {
      auto res = op();
      if (res.status != Nfsstat3::kErrJukebox || attempt >= 100) {
        return res;
      }
      queue.RunUntil(queue.now() + FromMillis(10));
    }
  };

  // Phase 1: healthy workload — 10 mirrored files, 2 x 32KB blocks each.
  std::vector<std::string> names;
  std::vector<FileHandle> files;
  for (int i = 0; i < 10; ++i) {
    names.push_back("work" + std::to_string(i));
    CreateRes created = retry([&] { return client->Create(root, names.back()).value(); });
    check(created.status, "create");
    files.push_back(*created.object);
    for (uint64_t b = 0; b < 2; ++b) {
      check(client->Write(files.back(), b * 32768, Pattern(32768, static_cast<uint8_t>(i)),
                          StableHow::kFileSync)
                .value()
                .status,
            "write");
    }
  }
  ensemble.dir_server(0).FlushLog();
  ensemble.dir_server(1).FlushLog();
  queue.RunUntilIdle();

  // Phase 2: kill one storage node and one directory server mid-workload.
  // Node 3 backs no WAL (dir0 -> node0, dir1 -> node1, coord -> node1).
  const uint64_t epoch_before = mgr.current_epoch();
  ensemble.storage_node(3).Fail();
  ensemble.dir_server(1).Fail();
  queue.RunUntil(queue.now() + FromMillis(800));
  EXPECT_FALSE(mgr.NodeAlive(NodeClass::kStorage, 3));
  EXPECT_FALSE(mgr.NodeAlive(NodeClass::kDir, 1));
  EXPECT_GT(mgr.current_epoch(), epoch_before);
  EXPECT_EQ(ensemble.uproxy(0).table_epoch(), mgr.current_epoch());
  queue.RunUntil(queue.now() + FromMillis(300));  // adoption replay window

  // Phase 3: the workload continues through the outage. Reads fail over to
  // mirrors, writes go degraded, names on the dead server come from its
  // adopter — zero errors end to end.
  for (size_t i = 0; i < files.size(); ++i) {
    LookupRes found = retry([&] { return client->Lookup(root, names[i]).value(); });
    check(found.status, "outage lookup");
    for (uint64_t b = 0; b < 2; ++b) {
      ReadRes read =
          retry([&] { return client->Read(files[i], b * 32768, 32768).value(); });
      check(read.status, "outage read");
      EXPECT_EQ(read.data, Pattern(32768, static_cast<uint8_t>(i))) << "file " << i;
    }
  }
  // Overwrite a block guaranteed to have a replica on the dead node, so the
  // outage leaves a degraded region behind.
  size_t degraded_file = files.size();
  for (size_t i = 0; i < files.size(); ++i) {
    if (ensemble.uproxy(0).StripeSite(files[i], 0, 0) == 3 ||
        ensemble.uproxy(0).StripeSite(files[i], 0, 1) == 3) {
      degraded_file = i;
      break;
    }
  }
  ASSERT_LT(degraded_file, files.size());
  check(retry([&] {
          return client->Write(files[degraded_file], 0, Pattern(32768, 0x77),
                               StableHow::kFileSync)
              .value();
        }).status,
        "degraded write");
  for (int i = 0; i < 5; ++i) {
    check(retry([&] { return client->Create(root, "outage" + std::to_string(i)).value(); })
              .status,
          "outage create");
  }
  queue.RunUntilIdle();
  EXPECT_GE(ensemble.coordinator(0).degraded_count(3), 1u);

  // Phase 4: both nodes rejoin; fresh epoch, handoff, mirror resync.
  const uint64_t outage_epoch = mgr.current_epoch();
  ensemble.network().set_loss_rate(0.0);
  ensemble.storage_node(3).Restart();
  ensemble.dir_server(1).Restart();
  queue.RunUntil(queue.now() + FromMillis(2000));
  queue.RunUntilIdle();
  EXPECT_TRUE(mgr.NodeAlive(NodeClass::kStorage, 3));
  EXPECT_TRUE(mgr.NodeAlive(NodeClass::kDir, 1));
  EXPECT_GT(mgr.current_epoch(), outage_epoch);
  EXPECT_EQ(ensemble.uproxy(0).table_epoch(), mgr.current_epoch());
  EXPECT_TRUE(ensemble.dir_server(0).adopted_sites().empty());
  EXPECT_EQ(ensemble.coordinator(0).degraded_count(3), 0u);
  EXPECT_GE(ensemble.coordinator(0).repairs_run(), 1u);

  // Phase 5: full readback — everything written before and during the
  // outage, including names created while the dir server was down.
  for (size_t i = 0; i < files.size(); ++i) {
    const Bytes expect =
        i == degraded_file ? Pattern(32768, 0x77) : Pattern(32768, static_cast<uint8_t>(i));
    ReadRes read = retry([&] { return client->Read(files[i], 0, 32768).value(); });
    check(read.status, "final read");
    EXPECT_EQ(read.data, expect) << "file " << i;
  }
  for (int i = 0; i < 5; ++i) {
    check(retry([&] { return client->Lookup(root, "outage" + std::to_string(i)).value(); })
              .status,
          "final lookup");
  }
  EXPECT_EQ(errors, 0) << "client-visible errors during failover";
}

class MirroredLoggedFailureTest : public FailureTest {
 protected:
  MirroredLoggedFailureTest() : FailureTest(Config()) {}

  static EnsembleConfig Config() {
    EnsembleConfig config = DefaultConfig();
    config.default_replication = 2;
    config.eventlog.enabled = true;
    return config;
  }
};

TEST_F(MirroredLoggedFailureTest, OwnCallRetransmitsAreLoggedAfterSoftStateDrop) {
  // Dropping soft state rebuilds the µproxy's own RPC client. The rebuilt
  // client must keep the event log: a mirrored write whose second replica
  // is dead retransmits from it, and the flight recorder has to see that.
  CreateRes created = client_->Create(root_, "mirrored").value();
  ASSERT_EQ(created.status, Nfsstat3::kOk);
  ensemble_->uproxy(0).DropSoftState();
  ensemble_->storage_node(1).Fail();
  (void)client_->Write(*created.object, 1 << 20, Pattern(32768), StableHow::kFileSync);
  queue_.RunUntilIdle();

  const uint32_t proxy_host = ensemble_->client_host(0).addr();
  size_t retransmits = 0;
  for (const obs::Event& e : ensemble_->eventlog()->Collect()) {
    if (e.host == proxy_host && e.code == obs::EventCode::kRpcRetransmit) {
      ++retransmits;
    }
  }
  EXPECT_GT(retransmits, 0u);
}

TEST_F(FailureTest, CapabilityForgeryBlockedAtStorage) {
  // A µproxy outside the trust boundary can only touch what its client
  // could: a handle minted with the wrong secret is refused by every
  // storage node even when sent directly.
  FileHandle forged = FileHandle::Make(1, MakeFileid(0, 999), 1, FileType3::kReg, 1,
                                       /*wrong secret=*/0xbad);
  for (size_t i = 0; i < ensemble_->num_storage_nodes(); ++i) {
    SyncNfsClient direct(ensemble_->client_host(0), queue_,
                         ensemble_->storage_node(i).endpoint());
    EXPECT_EQ(direct.Write(forged, 0, Pattern(100), StableHow::kFileSync).value().status,
              Nfsstat3::kErrBadhandle);
  }
}

}  // namespace
}  // namespace slice
