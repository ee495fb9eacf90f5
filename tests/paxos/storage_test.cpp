// Fault-injection tests for the durable segment log (paxos/storage.hpp):
// round-trip recovery, torn-tail truncation, CRC rejection in sealed
// segments, fail-stop fsync, checkpoint GC, crash simulation, and the
// group-commit window (its timed wait and sync() cutting it short). These
// are the attacks the durability layer exists to survive — each test
// damages real files on disk and proves recovery does the right thing.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>

#include "common/clock.hpp"
#include "paxos/storage.hpp"

namespace mcsmr::paxos {
namespace {

namespace fs = std::filesystem;

class SegmentStorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("mcsmr-storage-test-" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + "-" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  SegmentStorageOptions options() {
    SegmentStorageOptions opts;
    opts.dir = dir_;
    opts.fsync_batch_ns = 0;  // commit every burst: tests want determinism
    // Durability here means "the bytes reached the file"; skipping the
    // real fsync keeps the suite fast without weakening any assertion.
    opts.fsync_fn = [](int) { return 0; };
    return opts;
  }

  /// All segment files, sorted by name (= by sequence number).
  std::vector<std::string> segment_files() const {
    std::vector<std::string> files;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      files.push_back(entry.path().string());
    }
    std::sort(files.begin(), files.end());
    return files;
  }

  static Bytes file_contents(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return Bytes(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }

  static void write_file(const std::string& path, const Bytes& data) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size()));
  }

  std::string dir_;
};

Bytes value_of(int i) { return Bytes{static_cast<std::uint8_t>(i), 0xAB, 0xCD}; }

TEST_F(SegmentStorageTest, RecordCodecRoundTrips) {
  const DurableRecord snapshot =
      DurableRecord::snapshot(42, Bytes{1, 2, 3}, Bytes{9, 8});
  const DurableRecord decoded = decode_record(encode_record(snapshot));
  EXPECT_EQ(decoded.type, RecordType::kSnapshot);
  EXPECT_EQ(decoded.instance, 42u);
  EXPECT_EQ(decoded.value, (Bytes{1, 2, 3}));
  EXPECT_EQ(decoded.reply_cache, (Bytes{9, 8}));

  EXPECT_THROW(decode_record(Bytes{0x77}), DecodeError);  // unknown type
  Bytes truncated = encode_record(DurableRecord::accept(3, 7, value_of(1)));
  truncated.pop_back();
  EXPECT_THROW(decode_record(truncated), DecodeError);
}

TEST_F(SegmentStorageTest, AppendSyncRecoverRoundTrips) {
  {
    SegmentStorage storage(options());
    EXPECT_TRUE(storage.recovered().empty());
    storage.append(DurableRecord::promise(3));
    for (int i = 0; i < 10; ++i) {
      storage.append(DurableRecord::accept(3, static_cast<InstanceId>(i), value_of(i)));
    }
    for (int i = 0; i < 6; ++i) {
      storage.append(DurableRecord::decide(static_cast<InstanceId>(i), value_of(i)));
    }
    storage.sync();
    EXPECT_EQ(storage.durable_lsn(), storage.appended_lsn());
    EXPECT_EQ(storage.appended_lsn(), 17u);
  }

  SegmentStorage reopened(options());
  const RecoveredState& state = reopened.recovered();
  EXPECT_EQ(state.promised_view, 3u);
  EXPECT_FALSE(state.snapshot.has_value());
  ASSERT_EQ(state.entries.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    const auto& entry = state.entries.at(static_cast<InstanceId>(i));
    EXPECT_EQ(entry.accepted_view, 3u);
    EXPECT_EQ(entry.value, value_of(i));
    EXPECT_EQ(entry.decided, i < 6);
  }
}

TEST_F(SegmentStorageTest, TornTailIsTruncatedToLastConsistentRecord) {
  {
    SegmentStorage storage(options());
    storage.append(DurableRecord::promise(1));
    storage.append(DurableRecord::accept(1, 0, value_of(0)));
    storage.append(DurableRecord::accept(1, 1, value_of(1)));
    storage.sync();
  }

  // Chop bytes off the newest segment: a partially persisted final frame.
  auto files = segment_files();
  ASSERT_FALSE(files.empty());
  const std::string last = files.back();
  const Bytes full = file_contents(last);
  ASSERT_GT(full.size(), 5u);
  fs::resize_file(last, full.size() - 5);

  SegmentStorage reopened(options());
  const RecoveredState& state = reopened.recovered();
  // The torn accept(1) is gone; everything before it survived.
  EXPECT_EQ(state.promised_view, 1u);
  ASSERT_EQ(state.entries.size(), 1u);
  EXPECT_EQ(state.entries.at(0).value, value_of(0));
  // And the truncation is physical: a third open sees the same clean log.
  const Bytes after = file_contents(last);
  EXPECT_LT(after.size(), full.size() - 5);
}

TEST_F(SegmentStorageTest, BitFlipInTailIsDroppedWithEverythingAfterIt) {
  {
    SegmentStorage storage(options());
    storage.append(DurableRecord::promise(1));
    storage.append(DurableRecord::accept(1, 0, value_of(0)));
    storage.append(DurableRecord::accept(1, 1, value_of(1)));
    storage.sync();
  }

  // Flip one payload byte of the LAST record: recovery must cut there.
  auto files = segment_files();
  const std::string last = files.back();
  Bytes data = file_contents(last);
  data.back() ^= 0xFF;
  write_file(last, data);

  SegmentStorage reopened(options());
  EXPECT_EQ(reopened.recovered().entries.size(), 1u);
  EXPECT_EQ(reopened.recovered().entries.count(1), 0u);
}

TEST_F(SegmentStorageTest, CorruptionInSealedSegmentIsFailStop) {
  SegmentStorageOptions opts = options();
  opts.segment_max_bytes = 64;  // force frequent rolls
  {
    SegmentStorage storage(opts);
    for (int i = 0; i < 20; ++i) {
      storage.append(DurableRecord::accept(1, static_cast<InstanceId>(i), value_of(i)));
    }
    storage.sync();
    EXPECT_GT(storage.segment_count(), 2u);
  }

  // Corrupt a record in the FIRST (sealed) segment: acked data is gone,
  // so recovery must refuse to run rather than silently un-accept.
  auto files = segment_files();
  ASSERT_GE(files.size(), 2u);
  Bytes data = file_contents(files.front());
  ASSERT_GT(data.size(), 12u);
  data[data.size() - 1] ^= 0xFF;
  write_file(files.front(), data);

  EXPECT_THROW(SegmentStorage{opts}, StorageError);
}

TEST_F(SegmentStorageTest, FsyncFailurePoisonsTheStorage) {
  SegmentStorageOptions opts = options();
  auto fail = std::make_shared<std::atomic<bool>>(false);
  opts.fsync_fn = [fail](int) { return fail->load() ? -1 : 0; };

  SegmentStorage storage(opts);
  storage.append(DurableRecord::promise(1));
  storage.sync();  // healthy

  fail->store(true);
  storage.append(DurableRecord::accept(1, 0, value_of(0)));
  EXPECT_THROW(storage.sync(), StorageError);
  EXPECT_TRUE(storage.failed());
  // Fail-stop: the poisoned storage rejects everything afterwards; the
  // replica crashes instead of running non-durable.
  EXPECT_THROW(storage.append(DurableRecord::promise(2)), StorageError);
  EXPECT_THROW(storage.sync(), StorageError);
}

TEST_F(SegmentStorageTest, CheckpointRewritesAndDeletesOldSegments) {
  SegmentStorageOptions opts = options();
  opts.segment_max_bytes = 64;
  {
    SegmentStorage storage(opts);
    for (int i = 0; i < 30; ++i) {
      storage.append(DurableRecord::accept(2, static_cast<InstanceId>(i), value_of(i)));
      storage.append(DurableRecord::decide(static_cast<InstanceId>(i), value_of(i)));
    }
    storage.sync();
    EXPECT_GT(storage.segment_count(), 3u);

    // Snapshot covers instances < 28; only the live tail is rewritten.
    std::vector<DurableRecord> checkpoint;
    checkpoint.push_back(DurableRecord::promise(2));
    checkpoint.push_back(DurableRecord::snapshot(28, Bytes{0xEE}, Bytes{}));
    for (int i = 28; i < 30; ++i) {
      checkpoint.push_back(
          DurableRecord::accept(2, static_cast<InstanceId>(i), value_of(i)));
      checkpoint.push_back(DurableRecord::decide(static_cast<InstanceId>(i), value_of(i)));
    }
    storage.checkpoint(checkpoint);
    EXPECT_EQ(storage.segment_count(), 1u);
  }
  // Only the checkpoint segment survives (it doubles as the active one).
  EXPECT_EQ(segment_files().size(), 1u);

  SegmentStorage reopened(opts);
  const RecoveredState& state = reopened.recovered();
  EXPECT_EQ(state.promised_view, 2u);
  ASSERT_TRUE(state.snapshot.has_value());
  EXPECT_EQ(state.snapshot->instance, 28u);
  EXPECT_EQ(state.snapshot->value, Bytes{0xEE});
  EXPECT_EQ(state.entries.size(), 2u);
  EXPECT_TRUE(state.entries.at(29).decided);
}

TEST_F(SegmentStorageTest, SimulatedCrashLosesAtMostTheUnsyncedTail) {
  SegmentStorageOptions opts = options();
  opts.fsync_batch_ns = 60ull * 1'000'000'000;  // never group-commit on its own
  Lsn durable_at_crash = 0;
  {
    SegmentStorage storage(opts);
    for (int i = 0; i < 5; ++i) {
      storage.append(DurableRecord::accept(1, static_cast<InstanceId>(i), value_of(i)));
    }
    storage.sync();  // the acked prefix
    for (int i = 5; i < 9; ++i) {
      storage.append(DurableRecord::accept(1, static_cast<InstanceId>(i), value_of(i)));
    }
    durable_at_crash = storage.durable_lsn();
    ASSERT_GE(durable_at_crash, 5u);
    storage.simulate_crash();
    EXPECT_THROW(storage.append(DurableRecord::promise(9)), StorageError);
  }

  SegmentStorage reopened(opts);
  const RecoveredState& state = reopened.recovered();
  // Everything durable at the crash survived; the tail may or may not
  // have reached the OS, but nothing in between is missing.
  EXPECT_GE(state.records, durable_at_crash);
  EXPECT_LE(state.records, 9u);
  for (Lsn i = 0; i < durable_at_crash; ++i) {
    ASSERT_EQ(state.entries.count(static_cast<InstanceId>(i)), 1u) << "lost record " << i;
    EXPECT_EQ(state.entries.at(static_cast<InstanceId>(i)).value,
              value_of(static_cast<int>(i)));
  }
}

// The group-commit window: the flush thread writes appends as they come
// but fsyncs at most once per window, unless a sync() cuts it short.
TEST_F(SegmentStorageTest, SyncCutsTheGroupCommitWindowShort) {
  SegmentStorageOptions opts = options();
  opts.fsync_batch_ns = kSeconds;
  SegmentStorage storage(opts);
  for (int i = 0; i < 10; ++i) {
    storage.append(DurableRecord::accept(1, static_cast<InstanceId>(i), value_of(i)));
  }
  // Let the flush thread write the records and park for the rest of the window.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_LT(storage.durable_lsn(), storage.appended_lsn()) << "fsync did not wait for the window";
  const std::uint64_t t0 = mono_ns();
  storage.sync();
  EXPECT_LT(mono_ns() - t0, 200 * kMillis) << "sync() waited for the window to close";
  EXPECT_EQ(storage.durable_lsn(), storage.appended_lsn());
}

TEST_F(SegmentStorageTest, GroupCommitWindowBatchesFsyncs) {
  SegmentStorageOptions opts = options();
  opts.fsync_batch_ns = 20 * kMillis;
  SegmentStorage storage(opts);
  // Spaced out so that a flush thread which fsyncs each write would
  // make one fsync per append.
  for (int i = 0; i < 100; ++i) {
    storage.append(DurableRecord::accept(1, static_cast<InstanceId>(i), value_of(i)));
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  const Lsn appended = storage.appended_lsn();
  const std::uint64_t deadline = mono_ns() + kSeconds;
  while (storage.durable_lsn() < appended && mono_ns() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(storage.durable_lsn(), appended) << "the window's timed wait never committed";
  EXPECT_LE(storage.fsync_count(), 5u);
}

TEST_F(SegmentStorageTest, MemoryStorageIsAlwaysDurableAndNeverPersistent) {
  MemoryStorage storage;
  EXPECT_FALSE(storage.persistent());
  EXPECT_TRUE(storage.recovered().empty());
  storage.append(DurableRecord::promise(1));
  EXPECT_EQ(storage.appended_lsn(), storage.durable_lsn());
  EXPECT_TRUE(storage.all_durable());
}

TEST_F(SegmentStorageTest, FactoryLaysOutPerReplicaPerPartitionDirs) {
  Config config;
  config.log_storage = StorageImpl::kSegment;
  config.log_dir = dir_;
  config.fsync_batch_ns = 0;
  auto storage = make_log_storage(config, /*self=*/1, /*partition=*/2);
  EXPECT_STREQ(storage->name(), "segment");
  EXPECT_TRUE(fs::exists(dir_ + "/r1/p2"));

  config.log_storage = StorageImpl::kMemory;
  EXPECT_STREQ(make_log_storage(config, 0, 0)->name(), "memory");
}

}  // namespace
}  // namespace mcsmr::paxos
