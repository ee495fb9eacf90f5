#include "workload.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

namespace e2e {

using namespace mcsmr;

namespace {

std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// KvService whose every execution first waits off-CPU, as a service
/// blocked on a disk or a downstream call would. The wait sits in
/// execute_at, which every executor path reaches.
class SlowKvService : public smr::KvService {
 public:
  Bytes execute_at(const Bytes& request, std::uint64_t instance) override {
    std::this_thread::sleep_for(std::chrono::nanoseconds(kSlowExecSleepNs));
    return KvService::execute_at(request, instance);
  }
};

}  // namespace

const std::vector<Workload>& workloads() {
  // Why each exists, and the layer it loads, is in README.md and
  // BENCHMARK.json; rates sit below each workload's saturation on a
  // 4-core host so the fixed-rate phase measures latency, not backlog.
  static const std::vector<Workload> all = [] {
    std::vector<Workload> list;
    {
      Workload w;
      w.name = "paper-null";
      w.service = ServiceKind::kNull;
      w.rate_per_s = 50'000;
      list.push_back(w);
    }
    {
      Workload w;
      w.name = "kv-lease-mixed";
      w.overrides = {{"read_path", "lease"}};
      w.service = ServiceKind::kKv;
      w.rate_per_s = 20'000;
      w.keys = 1024;
      w.get_pct = 50;
      list.push_back(w);
    }
    {
      Workload w;
      w.name = "kv-slow-exec";
      w.overrides = {{"executor_impl", "affinity"}, {"executor_workers", "4"}};
      w.service = ServiceKind::kSlowKv;
      w.rate_per_s = 10'000;
      w.keys = 4096;
      w.hot_pct = 10;
      list.push_back(w);
    }
    {
      Workload w;
      w.name = "kv-durable-failover";
      w.overrides = {{"log_storage", "segment"}};
      w.service = ServiceKind::kKv;
      w.rate_per_s = 10'000;
      w.keys = 1024;
      w.crash_leader = true;
      list.push_back(w);
    }
    return list;
  }();
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const auto& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

OpStream::OpStream(const Workload& workload, std::uint64_t seed)
    : workload_(workload), seed_(mix(seed)) {}

std::string OpStream::key_name(std::uint32_t key) const {
  return key == workload_.keys ? "hot" : "k" + std::to_string(key);
}

Op OpStream::op(std::uint64_t stamp) const {
  const std::uint64_t draw = mix(seed_ ^ mix(stamp));
  Op op;
  const bool hot = workload_.hot_pct > 0 && static_cast<int>(draw % 100) < workload_.hot_pct;
  op.key = hot ? workload_.keys
               : static_cast<std::uint32_t>(mix(draw) % std::max<std::uint32_t>(workload_.keys, 1));
  op.get = workload_.get_pct > 0 &&
           static_cast<int>(mix(draw ^ 0xC0FFEEull) % 100) < workload_.get_pct;
  return op;
}

Bytes OpStream::put_value(std::uint64_t stamp) const {
  Bytes value(kPayloadBytes, 0x5A);
  for (int i = 0; i < 8; ++i) value[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(stamp >> (8 * i));
  return value;
}

Bytes OpStream::payload(std::uint64_t stamp) const {
  if (!kv()) return put_value(stamp);  // opaque 128 B; NullService ignores it
  const Op o = op(stamp);
  return o.get ? smr::KvService::make_get(key_name(o.key))
               : smr::KvService::make_put(key_name(o.key), put_value(stamp));
}

bool OpStream::valid_reply(std::uint64_t stamp, const Bytes& reply) const {
  if (!kv()) return reply.size() == Config{}.reply_payload_bytes;
  const auto value = smr::KvService::parse_reply(reply);
  if (!value.has_value()) return false;
  if (value->empty()) return true;
  if (value->size() != kPayloadBytes) return false;
  std::uint64_t writer = 0;
  for (int i = 0; i < 8; ++i) {
    writer |= static_cast<std::uint64_t>((*value)[static_cast<std::size_t>(i)]) << (8 * i);
  }
  // A GET, and a PUT's returned old value, may only carry a value that a
  // PUT of the same key wrote.
  const Op mine = op(stamp);
  const Op theirs = op(writer);
  return !theirs.get && theirs.key == mine.key && *value == put_value(writer);
}

Config make_config(const Workload& workload, const std::string& log_dir) {
  Config config;
  config.apply_overrides(workload.overrides);
  config.log_dir = log_dir;
  return config;
}

smr::Replica::ServiceFactory service_factory(const Workload& workload) {
  switch (workload.service) {
    case ServiceKind::kNull:
      return [] { return std::make_unique<smr::NullService>(); };
    case ServiceKind::kKv:
      return [] { return std::make_unique<smr::KvService>(); };
    case ServiceKind::kSlowKv:
      return [] { return std::make_unique<SlowKvService>(); };
  }
  return nullptr;
}

}  // namespace e2e
