#include "net/simnet.hpp"

#include <sys/prctl.h>

#include <algorithm>
#include <chrono>

#include "common/clock.hpp"

namespace mcsmr::net {

SimNetwork::SimNetwork(SimNetParams params)
    : params_(params), nodes_(params.max_nodes), fault_rng_(params.seed) {
  delivery_thread_ = metrics::NamedThread("SimNetDelivery", [this] { delivery_loop(); });
}

SimNetwork::~SimNetwork() { shutdown(); }

NodeId SimNetwork::add_node(std::string name, bool unlimited_nic) {
  std::lock_guard<std::mutex> guard(add_node_mu_);
  const std::size_t index = node_count_.load(std::memory_order_relaxed);
  if (index >= nodes_.size()) throw std::runtime_error("SimNetwork: max_nodes exceeded");
  auto node = std::make_unique<Node>();
  node->name = std::move(name);
  node->unlimited_nic = unlimited_nic;
  nodes_[index] = std::move(node);
  node_count_.store(index + 1, std::memory_order_release);
  return static_cast<NodeId>(index);
}

SimNetwork::Node& SimNetwork::node_at(NodeId id) {
  if (id >= node_count_.load(std::memory_order_acquire) || !nodes_[id]) {
    throw std::out_of_range("SimNetwork: unknown node " + std::to_string(id));
  }
  return *nodes_[id];
}

SimNetwork::Port& SimNetwork::port_locked(NodeId node, Channel channel) {
  Port& port = ports_[{node, channel}];
  if (!port.inbox) port.inbox = std::make_shared<Inbox>(params_.inbox_capacity, "simnet-inbox");
  return port;
}

std::shared_ptr<SimNetwork::Inbox> SimNetwork::inbox(NodeId node, Channel channel) {
  std::lock_guard<std::mutex> guard(inbox_mu_);
  return port_locked(node, channel).inbox;
}

std::uint64_t SimNetwork::reserve_nic(Node& node, bool out, std::uint64_t packets,
                                      std::uint64_t bytes, std::uint64_t earliest_ns) {
  std::uint64_t cost_ns = 0;
  if (!node.unlimited_nic) {
    if (params_.node_pps > 0) {
      cost_ns = std::max(cost_ns, static_cast<std::uint64_t>(
                                      static_cast<double>(packets) / params_.node_pps * 1e9));
    }
    if (params_.node_bandwidth_bps > 0) {
      cost_ns = std::max(cost_ns,
                         static_cast<std::uint64_t>(static_cast<double>(bytes) /
                                                    params_.node_bandwidth_bps * 1e9));
    }
  }
  std::lock_guard<std::mutex> guard(node.nic_mu);
  std::uint64_t& busy_until = out ? node.nic_out_busy_until_ns : node.nic_in_busy_until_ns;
  const std::uint64_t start = std::max(earliest_ns, busy_until);
  busy_until = start + cost_ns;
  return busy_until;
}

bool SimNetwork::send(NodeId from, NodeId to, Channel channel, Bytes payload) {
  if (stopping_.load()) return false;

  const std::uint64_t now = mono_ns();
  const std::uint64_t bytes = payload.size();
  const std::uint64_t packets = metrics::packets_for_bytes(bytes);

  Node& src = node_at(from);
  Node& dst = node_at(to);
  src.counters.on_send(bytes);

  // Faults (drop / duplicate / delay): the plan and its random draws in
  // one lock hold, and no lock at all before the first set_fault.
  FaultPlan plan;
  int copies = 1;
  std::uint64_t jitter_ns[2] = {0, 0};
  if (any_faults_.load()) {
    std::lock_guard<std::mutex> guard(fault_mu_);
    auto it = faults_.find({from, to});
    if (it != faults_.end()) {
      plan = it->second;
      if (plan.drop_prob > 0 && fault_rng_.chance(plan.drop_prob)) copies = 0;
      if (copies == 1 && plan.dup_prob > 0 && fault_rng_.chance(plan.dup_prob)) copies = 2;
      if (plan.jitter_ns > 0) {
        for (int copy = 0; copy < copies; ++copy) {
          jitter_ns[copy] = fault_rng_.uniform(plan.jitter_ns);
        }
      }
    }
  }
  if (copies == 0) return true;  // silently lost, as on a real network

  for (int copy = 0; copy < copies; ++copy) {
    // Egress: the sender's NIC must emit `packets` frames.
    const std::uint64_t egress_done = reserve_nic(src, /*out=*/true, packets, bytes, now);
    // Propagation.
    const std::uint64_t arrive =
        egress_done + params_.one_way_ns + plan.extra_delay_ns + jitter_ns[copy];
    // Ingress: the receiver's NIC must absorb the frames before delivery.
    const std::uint64_t deliver_at = reserve_nic(dst, /*out=*/false, packets, bytes, arrive);
    dst.counters.on_recv(bytes);

    // The last copy takes the payload; only a duplicate copies it.
    SimMessage message{from, channel, copy + 1 == copies ? std::move(payload) : payload, now};
    bool earliest = false;
    {
      std::lock_guard<std::mutex> guard(flight_mu_);
      if (stopping_.load()) return false;
      const std::uint64_t seq = next_seq_++;
      heap_.push_back(InFlight{deliver_at, seq, to, std::move(message)});
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
      earliest = heap_.front().seq == seq;
    }
    // A later message leaves the delivery thread's timed wait as it is.
    if (earliest) flight_cv_.notify_one();
  }
  return true;
}

std::optional<SimMessage> SimNetwork::recv(NodeId node, Channel channel) {
  return inbox(node, channel)->pop();
}

std::optional<SimMessage> SimNetwork::recv_for(NodeId node, Channel channel,
                                               std::uint64_t timeout_ns) {
  return inbox(node, channel)->pop_for(timeout_ns);
}

void SimNetwork::close_inbox(NodeId node, Channel channel) {
  inbox(node, channel)->close();
}

void SimNetwork::set_sink(NodeId node, Channel channel, Sink sink) {
  // Waits out a batch in progress and keeps the delivery thread out
  // until the new sink is in place, so nothing overtakes the drained
  // messages and nothing reaches the old sink after we return.
  std::lock_guard<std::mutex> sink_guard(sink_mu_);
  std::shared_ptr<Inbox> box = inbox(node, channel);
  if (sink) {
    while (auto message = box->try_pop()) sink(std::move(*message));
  }
  std::lock_guard<std::mutex> guard(inbox_mu_);
  port_locked(node, channel).sink = std::move(sink);
}

void SimNetwork::reset_inbox(NodeId node, Channel channel) {
  std::lock_guard<std::mutex> guard(inbox_mu_);
  ports_[{node, channel}].inbox = std::make_shared<Inbox>(params_.inbox_capacity, "simnet-inbox");
}

bool SimNetwork::inject(NodeId node, Channel channel, SimMessage message) {
  return inbox(node, channel)->push(std::move(message));
}

void SimNetwork::set_fault(NodeId from, NodeId to, FaultPlan plan) {
  std::lock_guard<std::mutex> guard(fault_mu_);
  faults_[{from, to}] = plan;
  any_faults_.store(true);
}

void SimNetwork::set_partition(NodeId a, NodeId b, bool cut) {
  FaultPlan plan;
  plan.drop_prob = cut ? 1.0 : 0.0;
  set_fault(a, b, plan);
  set_fault(b, a, plan);
}

std::uint64_t SimNetwork::ping_rtt_ns(NodeId a, NodeId b) {
  // A 64-byte ICMP-sized probe: one frame each way, delayed behind each
  // node's pending NIC queue exactly like real traffic (ping bypasses the
  // JVM/TCP stack in the paper too — it measures the kernel packet path).
  // The probe itself peeks rather than reserves: its own four frames are
  // negligible against the budget and must not perturb later probes.
  const std::uint64_t now = mono_ns();
  const auto queue_wait = [&](Node& node, bool out, std::uint64_t at) {
    std::lock_guard<std::mutex> guard(node.nic_mu);
    return std::max(at, out ? node.nic_out_busy_until_ns : node.nic_in_busy_until_ns);
  };
  Node& na = node_at(a);
  Node& nb = node_at(b);
  const std::uint64_t out = queue_wait(na, true, now) + params_.one_way_ns;
  const std::uint64_t at_b = queue_wait(nb, false, out);
  const std::uint64_t back = queue_wait(nb, true, at_b) + params_.one_way_ns;
  const std::uint64_t done = queue_wait(na, false, back);
  return done - now;
}

metrics::NetCounters& SimNetwork::counters(NodeId node) { return node_at(node).counters; }

Histogram SimNetwork::lateness() const {
  std::lock_guard<std::mutex> guard(lateness_mu_);
  return lateness_;
}

void SimNetwork::reset_lateness() {
  std::lock_guard<std::mutex> guard(lateness_mu_);
  lateness_.reset();
}

void SimNetwork::shutdown() {
  {
    std::lock_guard<std::mutex> guard(flight_mu_);
    if (stopping_.load()) return;
    stopping_.store(true);
  }
  flight_cv_.notify_all();
  delivery_thread_.join();
  std::lock_guard<std::mutex> guard(inbox_mu_);
  for (auto& [key, port] : ports_) port.inbox->close();
}

void SimNetwork::deliver_batch() {
  // One sink_mu_ hold for the batch keeps set_sink out until it is done;
  // one inbox_mu_ hold resolves every target, and is released before any
  // sink runs (a sink may inject(), which takes inbox_mu_).
  std::lock_guard<std::mutex> sink_guard(sink_mu_);
  {
    std::lock_guard<std::mutex> guard(inbox_mu_);
    for (const InFlight& item : batch_) {
      Port& port = port_locked(item.to, item.message.channel);
      if (port.sink) {
        targets_.push_back(Target{&port.sink, nullptr});
      } else {
        targets_.push_back(Target{nullptr, port.inbox});
      }
    }
  }
  // Lateness is taken as each message is handed over, so a message late
  // in a long batch counts the time spent on the ones before it.
  for (std::size_t i = 0; i < batch_.size(); ++i) {
    late_ns_.push_back(mono_ns() - batch_[i].deliver_at_ns);
    if (targets_[i].sink != nullptr) {
      (*targets_[i].sink)(std::move(batch_[i].message));
    } else {
      // try_push: a full inbox behaves like a NIC ring overflow — the
      // frame is dropped and end-to-end recovery (retransmission) kicks in.
      targets_[i].inbox->try_push(std::move(batch_[i].message));
    }
  }
  {
    std::lock_guard<std::mutex> guard(lateness_mu_);
    for (const std::uint64_t late : late_ns_) lateness_.record(late);
  }
  late_ns_.clear();
  targets_.clear();
  batch_.clear();
}

// Sleeps until the earliest message is due, then delivers every message
// due by then as one batch. send() notifies only when its message became
// the earliest, the one case in which the current timed wait would end too
// late; every other wake-up would find nothing due.
void SimNetwork::delivery_loop() {
  // 1 ns timer slack, so the timed wait ends at the due time and not up to
  // the default 50 us after it. A per-thread attribute of this thread only.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  std::unique_lock<std::mutex> lock(flight_mu_);
  for (;;) {
    const bool stopping = stopping_.load();
    if (heap_.empty()) {
      if (stopping) return;
      flight_cv_.wait(lock, [this] { return stopping_.load() || !heap_.empty(); });
      continue;
    }
    const std::uint64_t now = mono_ns();
    const std::uint64_t due = heap_.front().deliver_at_ns;
    if (due > now && !stopping) {
      flight_cv_.wait_for(lock, std::chrono::nanoseconds(due - now));
      continue;
    }
    // Everything already due (at shutdown: everything), in heap order.
    while (!heap_.empty() && (stopping || heap_.front().deliver_at_ns <= now)) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
      batch_.push_back(std::move(heap_.back()));
      heap_.pop_back();
    }
    lock.unlock();
    deliver_batch();
    lock.lock();
  }
}

}  // namespace mcsmr::net
