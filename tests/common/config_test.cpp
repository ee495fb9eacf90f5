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
  auto config = Config::from_args({"n=5", "wnd=35", "bsz=2600", "client_io_threads=6"});
  EXPECT_EQ(config.n, 5);
  EXPECT_EQ(config.window_size, 35u);
  EXPECT_EQ(config.batch_max_bytes, 2600u);
  EXPECT_EQ(config.client_io_threads, 6);
}

TEST(Config, RejectsUnknownKey) {
  EXPECT_THROW(Config::from_args({"bogus=1"}), std::invalid_argument);
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
