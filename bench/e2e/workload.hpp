// The four end-to-end workloads and the seeded operation stream each one
// sends.
//
// Every request is named by a 64-bit *stamp* (a stream tag in the top
// bits, the arrival index below). Its bytes are a pure function of
// (seed, stamp): a retry resends identical bytes, the same seed replays
// the same inputs, and any value a KV reply carries can be traced back to
// the one PUT that wrote it (the stamp is embedded in every PUT value).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/config.hpp"
#include "smr/replica.hpp"

namespace e2e {

using mcsmr::Bytes;

enum class ServiceKind { kNull, kKv, kSlowKv };

struct Workload {
  std::string name;
  /// Config::apply_overrides keys on top of the paper defaults.
  std::map<std::string, std::string> overrides;
  ServiceKind service = ServiceKind::kNull;
  double rate_per_s = 0;  ///< open-loop Poisson rate of the fixed-rate phase
  std::uint32_t keys = 0;  ///< KV key space (uniform)
  int hot_pct = 0;         ///< % of KV ops on the single hot key
  int get_pct = 0;         ///< % of KV ops that are GETs
  bool crash_leader = false;  ///< stop() replica 0 in a failover segment
};

/// All workloads, in the order `--workload all` runs them.
const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

/// Off-CPU wait per request of the kv-slow-exec service.
constexpr std::uint64_t kSlowExecSleepNs = 50'000;
/// Request payload (paper-null) and PUT value size.
constexpr std::size_t kPayloadBytes = 128;

/// Stamp streams: one per phase, so each phase's inputs are independent
/// of how many requests an earlier phase happened to issue.
enum class Stream : std::uint64_t { kSetup = 1, kSaturation = 2, kFixedRate = 3 };
inline std::uint64_t stamp_of(Stream stream, std::uint64_t index) {
  return (static_cast<std::uint64_t>(stream) << 48) | index;
}

/// One operation of the stream. `key == keys` names the hot key.
struct Op {
  bool get = false;
  std::uint32_t key = 0;
};

class OpStream {
 public:
  OpStream(const Workload& workload, std::uint64_t seed);

  bool kv() const { return workload_.service != ServiceKind::kNull; }
  /// Number of distinct keys, the hot key included.
  std::uint32_t key_count() const { return workload_.keys + (workload_.hot_pct > 0 ? 1 : 0); }
  std::string key_name(std::uint32_t key) const;

  Op op(std::uint64_t stamp) const;
  /// The request bytes the service receives for `stamp`.
  Bytes payload(std::uint64_t stamp) const;
  /// The value a PUT with `stamp` writes.
  Bytes put_value(std::uint64_t stamp) const;
  /// True if a reply to `stamp` is well formed: NullService's 8 bytes, or
  /// a KV reply whose value is empty or was written by a PUT to the same
  /// key.
  bool valid_reply(std::uint64_t stamp, const Bytes& reply) const;

 private:
  const Workload& workload_;
  std::uint64_t seed_;
};

/// Config for `workload`: paper defaults plus its overrides; segment logs
/// go under `log_dir`.
mcsmr::Config make_config(const Workload& workload, const std::string& log_dir);
mcsmr::smr::Replica::ServiceFactory service_factory(const Workload& workload);

}  // namespace e2e
