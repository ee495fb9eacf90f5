#include "metrics/thread_stats.hpp"

#include <pthread.h>

#include <algorithm>
#include <cstdio>
#include <string_view>
#include <utility>

namespace mcsmr::metrics {

namespace {
thread_local std::shared_ptr<ThreadStats> t_current;
}  // namespace

ThreadStats::ThreadStats(std::string name) : name_(std::move(name)) {
  has_cpu_clock_ = pthread_getcpuclockid(pthread_self(), &cpu_clock_) == 0;
  mark_epoch();
}

std::uint64_t ThreadStats::cpu_now_ns() const {
  if (finalized_.load(std::memory_order_acquire)) {
    return final_cpu_ns_.load(std::memory_order_relaxed);
  }
  if (!has_cpu_clock_) return 0;
  timespec ts;
  if (clock_gettime(cpu_clock_, &ts) != 0) {
    // The thread may have exited between the finalized check and here.
    return final_cpu_ns_.load(std::memory_order_relaxed);
  }
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

void ThreadStats::finalize() {
  final_cpu_ns_.store(thread_cpu_ns(), std::memory_order_relaxed);
  final_wall_ns_.store(mono_ns(), std::memory_order_relaxed);
  finalized_.store(true, std::memory_order_release);
}

void ThreadStats::mark_epoch() {
  epoch_cpu_ns_.store(cpu_now_ns(), std::memory_order_relaxed);
  epoch_blocked_ns_.store(blocked_ns_.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
  epoch_waiting_ns_.store(waiting_ns_.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
  epoch_wall_ns_.store(mono_ns(), std::memory_order_relaxed);
}

ThreadStateSnapshot ThreadStats::snapshot(std::uint64_t registry_epoch_wall_ns) const {
  ThreadStateSnapshot snap;
  snap.name = name_;
  snap.alive = !finalized_.load(std::memory_order_acquire);

  // A thread registered after the registry epoch measures from its own
  // registration; one registered before measures from the registry epoch.
  const std::uint64_t epoch_wall =
      std::max(registry_epoch_wall_ns, epoch_wall_ns_.load(std::memory_order_relaxed));
  // For exited threads, stop the wall clock where the counters stopped.
  const std::uint64_t now_wall =
      snap.alive ? mono_ns() : final_wall_ns_.load(std::memory_order_relaxed);
  snap.wall_ns = now_wall > epoch_wall ? now_wall - epoch_wall : 0;

  const std::uint64_t cpu = cpu_now_ns();
  const std::uint64_t cpu0 = epoch_cpu_ns_.load(std::memory_order_relaxed);
  snap.busy_ns = cpu > cpu0 ? cpu - cpu0 : 0;

  const std::uint64_t blk = blocked_ns_.load(std::memory_order_relaxed);
  const std::uint64_t blk0 = epoch_blocked_ns_.load(std::memory_order_relaxed);
  snap.blocked_ns = blk > blk0 ? blk - blk0 : 0;

  const std::uint64_t wait = waiting_ns_.load(std::memory_order_relaxed);
  const std::uint64_t wait0 = epoch_waiting_ns_.load(std::memory_order_relaxed);
  snap.waiting_ns = wait > wait0 ? wait - wait0 : 0;

  // Thread CPU clocks can tick coarsely (10 ms granularity on some
  // kernels/VMs), letting reported CPU briefly outrun wall time. Blocked
  // and waiting intervals consume no CPU by construction, so busy is
  // clamped to the remaining wall budget.
  const std::uint64_t non_cpu = snap.blocked_ns + snap.waiting_ns;
  const std::uint64_t busy_cap = snap.wall_ns > non_cpu ? snap.wall_ns - non_cpu : 0;
  if (snap.busy_ns > busy_cap) snap.busy_ns = busy_cap;

  const std::uint64_t accounted = snap.busy_ns + snap.blocked_ns + snap.waiting_ns;
  snap.other_ns = snap.wall_ns > accounted ? snap.wall_ns - accounted : 0;
  return snap;
}

ThreadRegistry& ThreadRegistry::instance() {
  static ThreadRegistry registry;
  return registry;
}

std::shared_ptr<ThreadStats> ThreadRegistry::register_current(const std::string& name) {
  auto stats = std::make_shared<ThreadStats>(name);
  {
    std::lock_guard<std::mutex> guard(mu_);
    threads_.push_back(stats);
  }
  t_current = stats;
  return stats;
}

void ThreadRegistry::deregister_current() { t_current.reset(); }

ThreadStats* ThreadRegistry::current() { return t_current.get(); }

std::vector<ThreadStateSnapshot> ThreadRegistry::snapshot_all() const {
  const std::uint64_t epoch = epoch_wall_ns_.load(std::memory_order_relaxed);
  std::vector<std::shared_ptr<ThreadStats>> copy;
  {
    std::lock_guard<std::mutex> guard(mu_);
    copy = threads_;
  }
  std::vector<ThreadStateSnapshot> out;
  out.reserve(copy.size());
  for (const auto& stats : copy) out.push_back(stats->snapshot(epoch));
  return out;
}

void ThreadRegistry::reset_epoch() {
  std::lock_guard<std::mutex> guard(mu_);
  for (const auto& stats : threads_) stats->mark_epoch();
  epoch_wall_ns_.store(mono_ns(), std::memory_order_relaxed);
}

void ThreadRegistry::clear() {
  std::lock_guard<std::mutex> guard(mu_);
  threads_.clear();
  epoch_wall_ns_.store(mono_ns(), std::memory_order_relaxed);
}

double ThreadRegistry::total_blocked_frac(std::uint64_t wall_ns) const {
  if (wall_ns == 0) return 0.0;
  double total_blocked = 0;
  for (const auto& snap : snapshot_all()) {
    total_blocked += static_cast<double>(snap.blocked_ns);
  }
  return total_blocked / static_cast<double>(wall_ns);
}

std::string os_thread_name(const std::string& name) {
  constexpr std::size_t kMax = 15;  // TASK_COMM_LEN - 1
  // The replica's module names that do not fit behind an "r<id>/" prefix.
  static constexpr std::pair<std::string_view, std::string_view> kShort[] = {
      {"ReplicaIORcv", "IORcv"}, {"ReplicaIOSnd", "IOSnd"}, {"ClientIOAccept", "CIOAccept"},
      {"Retransmitter", "Retx"}, {"FailureDetector", "FD"},
  };
  const std::size_t slash = name.rfind('/');
  const std::string prefix = slash == std::string::npos ? "" : name.substr(0, slash + 1);
  std::string module = name.substr(prefix.size());
  std::string suffix;
  if (const std::size_t dash = module.rfind('-'); dash != std::string::npos) {
    suffix = module.substr(dash);
    module.resize(dash);
  }
  for (const auto& [full, abbrev] : kShort) {
    if (module == full) {
      module = abbrev;
      break;
    }
  }
  std::string out = prefix + module + suffix;
  if (out.size() <= kMax) return out;
  const std::size_t fixed = prefix.size() + suffix.size();
  if (fixed < kMax) return prefix + module.substr(0, kMax - fixed) + suffix;
  return out.substr(out.size() - kMax);  // keep the most specific tail
}

void NamedThread::set_os_thread_name(const std::string& name) {
  pthread_setname_np(pthread_self(), os_thread_name(name).c_str());
}

std::string format_thread_table(const std::vector<ThreadStateSnapshot>& snaps) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof line, "%-24s %8s %8s %8s %8s\n", "thread", "busy%", "blocked%",
                "waiting%", "other%");
  out += line;
  for (const auto& snap : snaps) {
    std::snprintf(line, sizeof line, "%-24s %8.1f %8.1f %8.1f %8.1f\n", snap.name.c_str(),
                  100.0 * snap.busy_frac(), 100.0 * snap.blocked_frac(),
                  100.0 * snap.waiting_frac(), 100.0 * snap.other_frac());
    out += line;
  }
  return out;
}

}  // namespace mcsmr::metrics
