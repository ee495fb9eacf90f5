#include "common/config.hpp"

#include <stdexcept>

#include "common/clock.hpp"

namespace mcsmr {

namespace {
std::uint64_t parse_u64(const std::string& value) {
  std::size_t pos = 0;
  const unsigned long long parsed = std::stoull(value, &pos);
  if (pos != value.size()) throw std::invalid_argument("trailing characters in: " + value);
  return parsed;
}
}  // namespace

const char* to_string(QueueImpl impl) {
  return impl == QueueImpl::kMutex ? "mutex" : "ring";
}

const char* to_string(ExecutorImpl impl) {
  return impl == ExecutorImpl::kSerial ? "serial" : "affinity";
}

const char* to_string(StorageImpl impl) {
  return impl == StorageImpl::kMemory ? "memory" : "segment";
}

const char* to_string(ReadPath path) {
  return path == ReadPath::kConsensus ? "consensus" : "lease";
}

std::uint64_t Config::local_clock_ns() const {
  const std::uint64_t now = mono_ns();
  if (clock_offset_ns == 0 && clock_rate_ppm == 0) return now;
  std::int64_t skewed = static_cast<std::int64_t>(now) + clock_offset_ns;
  // Scale in two steps to keep the product inside int64 at any uptime.
  skewed += static_cast<std::int64_t>(now / 1'000'000) * clock_rate_ppm;
  return skewed > 0 ? static_cast<std::uint64_t>(skewed) : 0;
}

void Config::apply_overrides(const std::map<std::string, std::string>& overrides) {
  for (const auto& [key, value] : overrides) {
    if (key == "n") {
      n = static_cast<int>(parse_u64(value));
      if (n < 1 || n % 2 == 0) throw std::invalid_argument("n must be odd and >= 1");
    } else if (key == "window_size" || key == "wnd") {
      window_size = static_cast<std::uint32_t>(parse_u64(value));
    } else if (key == "batch_max_bytes" || key == "bsz") {
      batch_max_bytes = static_cast<std::uint32_t>(parse_u64(value));
    } else if (key == "batch_timeout_ms") {
      batch_timeout_ns = parse_u64(value) * 1'000'000ull;
    } else if (key == "client_io_threads") {
      client_io_threads = static_cast<int>(parse_u64(value));
    } else if (key == "request_queue_cap") {
      request_queue_cap = parse_u64(value);
    } else if (key == "proposal_queue_cap") {
      proposal_queue_cap = parse_u64(value);
    } else if (key == "request_payload_bytes") {
      request_payload_bytes = parse_u64(value);
    } else if (key == "reply_payload_bytes") {
      reply_payload_bytes = parse_u64(value);
    } else if (key == "queue_impl") {
      if (value == "mutex") {
        queue_impl = QueueImpl::kMutex;
      } else if (value == "ring") {
        queue_impl = QueueImpl::kRing;
      } else {
        throw std::invalid_argument("queue_impl must be mutex or ring, got: " + value);
      }
    } else if (key == "queue_spin_budget") {
      queue_spin_budget = static_cast<std::uint32_t>(parse_u64(value));
    } else if (key == "executor_impl") {
      if (value == "serial") {
        executor_impl = ExecutorImpl::kSerial;
      } else if (value == "affinity") {
        executor_impl = ExecutorImpl::kAffinity;
      } else {
        throw std::invalid_argument("executor_impl must be serial or affinity, got: " + value);
      }
    } else if (key == "pin_io_threads") {
      pin_io_threads = parse_u64(value) != 0;
    } else if (key == "executor_workers") {
      executor_workers = parse_u64(value);
      if (executor_workers < 1) throw std::invalid_argument("executor_workers must be >= 1");
    } else if (key == "num_partitions" || key == "partitions") {
      num_partitions = static_cast<std::uint32_t>(parse_u64(value));
      if (num_partitions < 1 || num_partitions > 64) {
        throw std::invalid_argument("num_partitions must be in [1, 64]");
      }
    } else if (key == "log_storage" || key == "storage") {
      if (value == "memory") {
        log_storage = StorageImpl::kMemory;
      } else if (value == "segment") {
        log_storage = StorageImpl::kSegment;
      } else {
        throw std::invalid_argument("log_storage must be memory or segment, got: " + value);
      }
    } else if (key == "log_dir") {
      if (value.empty()) throw std::invalid_argument("log_dir must not be empty");
      log_dir = value;
    } else if (key == "fsync_batch_ns") {
      fsync_batch_ns = parse_u64(value);
    } else if (key == "preexec_window") {
      preexec_window = static_cast<std::uint32_t>(parse_u64(value));
      if (preexec_window < 1) throw std::invalid_argument("preexec_window must be >= 1");
    } else if (key == "read_path") {
      if (value == "consensus") {
        read_path = ReadPath::kConsensus;
      } else if (value == "lease") {
        read_path = ReadPath::kLease;
      } else {
        throw std::invalid_argument("read_path must be consensus or lease, got: " + value);
      }
    } else if (key == "lease_duration_ms") {
      lease_duration_ns = parse_u64(value) * 1'000'000ull;
      if (lease_duration_ns == 0) throw std::invalid_argument("lease_duration_ms must be >= 1");
    } else if (key == "lease_drift_margin_ms") {
      lease_drift_margin_ns = parse_u64(value) * 1'000'000ull;
    } else {
      throw std::invalid_argument("unknown config key: " + key);
    }
  }
}

Config Config::from_args(const std::vector<std::string>& args) {
  Config config;
  std::map<std::string, std::string> overrides;
  for (const auto& arg : args) {
    const auto eq = arg.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("expected key=value, got: " + arg);
    }
    overrides[arg.substr(0, eq)] = arg.substr(eq + 1);
  }
  config.apply_overrides(overrides);
  return config;
}

}  // namespace mcsmr
