#include "common/config.hpp"

#include <gtest/gtest.h>

namespace mcsmr {
namespace {

TEST(Config, PaperDefaults) {
  Config config;
  EXPECT_EQ(config.n, 3);
  EXPECT_EQ(config.window_size, 10u);      // paper WND default
  EXPECT_EQ(config.batch_max_bytes, 1300u);  // paper BSZ default
  EXPECT_EQ(config.request_queue_cap, 1000u);
  EXPECT_EQ(config.proposal_queue_cap, 20u);
  EXPECT_EQ(config.request_payload_bytes, 128u);
  EXPECT_EQ(config.reply_payload_bytes, 8u);
}

TEST(Config, QuorumSizes) {
  Config config;
  config.n = 3;
  EXPECT_EQ(config.quorum(), 2);
  config.n = 5;
  EXPECT_EQ(config.quorum(), 3);
  config.n = 7;
  EXPECT_EQ(config.quorum(), 4);
}

TEST(Config, LeaderRotatesWithView) {
  Config config;
  config.n = 3;
  EXPECT_EQ(config.leader_of_view(0), 0u);
  EXPECT_EQ(config.leader_of_view(1), 1u);
  EXPECT_EQ(config.leader_of_view(2), 2u);
  EXPECT_EQ(config.leader_of_view(3), 0u);
}

TEST(Config, FromArgsOverrides) {
  auto config = Config::from_args(
      {"n=5", "window_size=35", "batch_max_bytes=2600", "client_io_threads=6"});
  EXPECT_EQ(config.n, 5);
  EXPECT_EQ(config.window_size, 35u);
  EXPECT_EQ(config.batch_max_bytes, 2600u);
  EXPECT_EQ(config.client_io_threads, 6);
}

TEST(Config, RejectsUnknownKey) {
  EXPECT_THROW(Config::from_args({"bogus=1"}), std::invalid_argument);
}

TEST(Config, OneSpellingPerKey) {
  // No aliases (wnd, bsz, partitions, storage), no pin_io_threads or
  // queue_spin_budget knob, no queue choice (every edge is the mutex
  // queue) and no knob for the pre-execution window (a constant).
  for (const char* alias : {"wnd=35", "bsz=2600", "partitions=2", "storage=segment"}) {
    EXPECT_THROW(Config::from_args({alias}), std::invalid_argument) << alias;
  }
  EXPECT_THROW(Config::from_args({"pin_io_threads=1"}), std::invalid_argument);
  EXPECT_THROW(Config::from_args({"queue_spin_budget=256"}), std::invalid_argument);
  EXPECT_THROW(Config::from_args({"queue_impl=mutex"}), std::invalid_argument);
  EXPECT_THROW(Config::from_args({"preexec_window=128"}), std::invalid_argument);
}

TEST(Config, NoKeyForWhatNoReplicaReads) {
  // Only NullService's default reads reply_payload_bytes, so a key for it
  // would be silently ignored.
  EXPECT_THROW(Config::from_args({"reply_payload_bytes=64"}), std::invalid_argument);
}

TEST(Config, RejectsNumbersItCannotHold) {
  // A sign or whitespace is malformed, not wrapped modulo 2^64.
  EXPECT_THROW(Config::from_args({"executor_workers=-1"}), std::invalid_argument);
  EXPECT_THROW(Config::from_args({"request_queue_cap=-1"}), std::invalid_argument);
  EXPECT_THROW(Config::from_args({"window_size=-1"}), std::invalid_argument);
  EXPECT_THROW(Config::from_args({"batch_max_bytes=-5"}), std::invalid_argument);
  EXPECT_THROW(Config::from_args({"client_io_threads=-2"}), std::invalid_argument);
  EXPECT_THROW(Config::from_args({"window_size=+5"}), std::invalid_argument);
  EXPECT_THROW(Config::from_args({"window_size= 5"}), std::invalid_argument);
  EXPECT_THROW(Config::from_args({"window_size="}), std::invalid_argument);
  // Too wide for the field is rejected, not truncated (2^32+1 would read
  // back as 1 and pass num_partitions' [1, 64] check).
  EXPECT_THROW(Config::from_args({"window_size=4294967296"}), std::out_of_range);
  EXPECT_THROW(Config::from_args({"num_partitions=4294967297"}), std::out_of_range);
  EXPECT_THROW(Config::from_args({"n=2147483649"}), std::out_of_range);
  EXPECT_THROW(Config::from_args({"fsync_batch_ns=18446744073709551616"}), std::out_of_range);
  EXPECT_THROW(Config::from_args({"batch_timeout_ms=18446744073710"}), std::out_of_range);
  // The widest value each field holds still parses.
  EXPECT_EQ(Config::from_args({"window_size=4294967295"}).window_size, 4294967295u);
  EXPECT_EQ(Config::from_args({"fsync_batch_ns=18446744073709551615"}).fsync_batch_ns,
            18446744073709551615ull);
}

TEST(Config, ParsePairsKeepsTheLastValueOfARepeatedKey) {
  const auto pairs =
      Config::parse_pairs({"executor_impl=serial", "n=5", "executor_impl=affinity"});
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs.at("executor_impl"), "affinity");
  EXPECT_EQ(pairs.at("n"), "5");
  EXPECT_EQ(Config::parse_pairs({"log_dir=a=b"}).at("log_dir"), "a=b");
}

TEST(Config, RejectsMalformedArg) {
  EXPECT_THROW(Config::from_args({"n"}), std::invalid_argument);
  EXPECT_THROW(Config::from_args({"n=3x"}), std::invalid_argument);
}

TEST(Config, RejectsEvenN) {
  EXPECT_THROW(Config::from_args({"n=4"}), std::invalid_argument);
}

TEST(Config, ExecutorImplParsesSerialAndAffinity) {
  EXPECT_EQ(Config().executor_impl, ExecutorImpl::kSerial);
  EXPECT_EQ(Config::from_args({"executor_impl=serial"}).executor_impl, ExecutorImpl::kSerial);
  EXPECT_EQ(Config::from_args({"executor_impl=affinity"}).executor_impl, ExecutorImpl::kAffinity);
  EXPECT_STREQ(to_string(ExecutorImpl::kSerial), "serial");
  EXPECT_STREQ(to_string(ExecutorImpl::kAffinity), "affinity");
}

TEST(Config, RejectsUnknownExecutorImpl) {
  // "parallel" named the wave executor, which no longer exists.
  EXPECT_THROW(Config::from_args({"executor_impl=parallel"}), std::invalid_argument);
  EXPECT_THROW(Config::from_args({"executor_impl=bogus"}), std::invalid_argument);
}

}  // namespace
}  // namespace mcsmr
