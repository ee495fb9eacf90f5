#include "smr/retransmitter.hpp"

#include <chrono>
#include <queue>

namespace mcsmr::smr {

Retransmitter::Retransmitter(const Config& config, PartitionIo replica_io)
    : config_(config), replica_io_(replica_io) {}

Retransmitter::~Retransmitter() { stop(); }

void Retransmitter::start() {
  if (started_) return;
  started_ = true;
  stopping_ = false;
  thread_ = metrics::NamedThread(config_.thread_name_prefix + "Retransmitter", [this] { run(); });
}

void Retransmitter::stop() {
  {
    std::lock_guard<std::mutex> guard(mu_);
    if (!started_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  thread_.join();
  started_ = false;
}

void Retransmitter::schedule(std::uint64_t key, paxos::Message message) {
  auto entry = std::make_shared<Entry>();
  entry->message = std::move(message);
  entry->key = key;

  // Replacing an armed key (e.g. re-proposal after view change) cancels
  // the stale entry first.
  if (auto it = by_key_.find(key); it != by_key_.end()) {
    it->second->cancelled.store(true, std::memory_order_relaxed);
    armed_.fetch_sub(1, std::memory_order_relaxed);
  }
  by_key_[key] = entry;
  armed_.fetch_add(1, std::memory_order_relaxed);

  // Hand the entry over; wake the thread only if it is asleep until a
  // later deadline. With a fixed timeout deadlines arrive in order, so
  // the common case is no wake: the thread finds the entry when it next
  // wakes up anyway.
  bool wake = false;
  {
    std::lock_guard<std::mutex> guard(mu_);
    const std::uint64_t deadline = mono_ns() + config_.retransmit_timeout_ns;
    wake = deadline < sleeping_until_ns_;
    incoming_.push_back(Pending{deadline, std::move(entry)});
  }
  if (wake) cv_.notify_one();
}

void Retransmitter::cancel(std::uint64_t key) {
  auto it = by_key_.find(key);
  if (it == by_key_.end()) return;
  // The paper's lock-free cancel: set the flag, let the thread find out
  // when the deadline fires. No lock, no context switch.
  it->second->cancelled.store(true, std::memory_order_relaxed);
  by_key_.erase(it);
  armed_.fetch_sub(1, std::memory_order_relaxed);
}

void Retransmitter::cancel_all() {
  for (auto& [key, entry] : by_key_) {
    entry->cancelled.store(true, std::memory_order_relaxed);
  }
  armed_.fetch_sub(by_key_.size(), std::memory_order_relaxed);
  by_key_.clear();
}

void Retransmitter::run() {
  // The heap is this thread's own: mu_ guards only the hand-off of new
  // entries and the sleep deadline, so schedule() never waits behind the
  // heap work below.
  std::priority_queue<Pending, std::vector<Pending>, std::greater<>> heap;
  std::vector<Pending> arrived;
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_) {
    arrived.swap(incoming_);
    lock.unlock();
    for (Pending& item : arrived) heap.push(std::move(item));
    arrived.clear();

    // Lazy drop of cancelled entries before sleeping: otherwise each one's
    // deadline would still cost a wake-up. Resend whatever is due.
    std::uint64_t now = mono_ns();
    while (!heap.empty()) {
      if (heap.top().entry->cancelled.load(std::memory_order_relaxed)) {
        heap.pop();
        continue;
      }
      if (heap.top().deadline_ns > now) break;
      Pending item = heap.top();
      heap.pop();
      replica_io_.broadcast(item.entry->message);
      resends_.fetch_add(1, std::memory_order_relaxed);
      now = mono_ns();
      item.deadline_ns = now + config_.retransmit_timeout_ns;
      heap.push(std::move(item));
    }
    const std::uint64_t next = heap.empty() ? kNever : heap.top().deadline_ns;

    lock.lock();
    const auto woken = [this] { return stopping_ || !incoming_.empty(); };
    if (woken()) continue;
    now = mono_ns();
    if (next <= now) continue;
    sleeping_until_ns_ = next;
    {
      metrics::WaitingTimer timer;
      if (next == kNever) {
        cv_.wait(lock, woken);
      } else {
        cv_.wait_for(lock, std::chrono::nanoseconds(next - now), woken);
      }
    }
    sleeping_until_ns_ = 0;
    wakeups_.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace mcsmr::smr
