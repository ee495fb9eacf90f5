#include "common/config.hpp"

#include <charconv>
#include <initializer_list>
#include <limits>
#include <stdexcept>

#include "common/clock.hpp"

namespace mcsmr {

namespace {

/// Decimal digits only, at most `max`. from_chars into an unsigned type
/// rejects the sign and whitespace std::stoull accepts (it reads "-1" as
/// 2^64-1), and `max` keeps the later narrowing cast from truncating.
std::uint64_t parse_uint(const std::string& key, const std::string& value, std::uint64_t max) {
  std::uint64_t parsed = 0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
  if (ec == std::errc::invalid_argument || ptr != end) {
    throw std::invalid_argument(key + " wants an unsigned decimal integer, got: " + value);
  }
  if (ec == std::errc::result_out_of_range || parsed > max) {
    throw std::out_of_range(key + " must be <= " + std::to_string(max) + ", got: " + value);
  }
  return parsed;
}

/// parse_uint bounded by the width of the field it is stored in.
template <typename T>
void parse_into(T& field, const std::string& key, const std::string& value) {
  field = static_cast<T>(parse_uint(key, value, std::numeric_limits<T>::max()));
}

/// One of `choices`, named as to_string() spells it.
template <typename Enum>
Enum parse_choice(const std::string& key, const std::string& value,
                  std::initializer_list<Enum> choices) {
  std::string names;
  for (const Enum choice : choices) {
    if (value == to_string(choice)) return choice;
    names += (names.empty() ? "" : " or ") + std::string(to_string(choice));
  }
  throw std::invalid_argument(key + " must be " + names + ", got: " + value);
}

/// A millisecond value stored in nanoseconds.
std::uint64_t parse_ms_as_ns(const std::string& key, const std::string& value) {
  constexpr std::uint64_t kNanosPerMilli = 1'000'000;
  return parse_uint(key, value, std::numeric_limits<std::uint64_t>::max() / kNanosPerMilli) *
         kNanosPerMilli;
}

}  // namespace

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
      parse_into(n, key, value);
      if (n < 1 || n % 2 == 0) throw std::invalid_argument("n must be odd and >= 1");
    } else if (key == "window_size") {
      parse_into(window_size, key, value);
    } else if (key == "batch_max_bytes") {
      parse_into(batch_max_bytes, key, value);
    } else if (key == "batch_timeout_ms") {
      batch_timeout_ns = parse_ms_as_ns(key, value);
    } else if (key == "client_io_threads") {
      parse_into(client_io_threads, key, value);
    } else if (key == "request_queue_cap") {
      parse_into(request_queue_cap, key, value);
    } else if (key == "proposal_queue_cap") {
      parse_into(proposal_queue_cap, key, value);
    } else if (key == "request_payload_bytes") {
      parse_into(request_payload_bytes, key, value);
    } else if (key == "executor_impl") {
      executor_impl = parse_choice(key, value, {ExecutorImpl::kSerial, ExecutorImpl::kAffinity});
    } else if (key == "executor_workers") {
      parse_into(executor_workers, key, value);
      if (executor_workers < 1) throw std::invalid_argument("executor_workers must be >= 1");
    } else if (key == "num_partitions") {
      parse_into(num_partitions, key, value);
      if (num_partitions < 1 || num_partitions > 64) {
        throw std::invalid_argument("num_partitions must be in [1, 64]");
      }
    } else if (key == "log_storage") {
      log_storage = parse_choice(key, value, {StorageImpl::kMemory, StorageImpl::kSegment});
    } else if (key == "log_dir") {
      if (value.empty()) throw std::invalid_argument("log_dir must not be empty");
      log_dir = value;
    } else if (key == "fsync_batch_ns") {
      parse_into(fsync_batch_ns, key, value);
    } else if (key == "read_path") {
      read_path = parse_choice(key, value, {ReadPath::kConsensus, ReadPath::kLease});
    } else if (key == "lease_duration_ms") {
      lease_duration_ns = parse_ms_as_ns(key, value);
      if (lease_duration_ns == 0) throw std::invalid_argument("lease_duration_ms must be >= 1");
    } else if (key == "lease_drift_margin_ms") {
      lease_drift_margin_ns = parse_ms_as_ns(key, value);
    } else {
      throw std::invalid_argument("unknown config key: " + key);
    }
  }
}

std::map<std::string, std::string> Config::parse_pairs(const std::vector<std::string>& tokens) {
  std::map<std::string, std::string> pairs;
  for (const auto& token : tokens) {
    const auto eq = token.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("expected key=value, got: " + token);
    }
    pairs[token.substr(0, eq)] = token.substr(eq + 1);
  }
  return pairs;
}

Config Config::from_args(const std::vector<std::string>& args) {
  Config config;
  config.apply_overrides(parse_pairs(args));
  return config;
}

}  // namespace mcsmr
