#include "load.hpp"

#include <algorithm>

#include "common/clock.hpp"
#include "smr/client_proto.hpp"
#include "smr/transport.hpp"

namespace e2e {

using namespace mcsmr;

Generator::Generator(net::SimNetwork& net, std::vector<net::NodeId> replicas,
                     const OpStream& ops, int io_threads)
    : net_(net), replicas_(std::move(replicas)), ops_(ops),
      io_threads_(std::max(io_threads, 1)),
      self_(net.add_node("load-generator", /*unlimited_nic=*/true)) {
  clients_.resize(static_cast<std::size_t>(kClosedClients + kOpenPool));
  for (std::size_t i = 0; i < clients_.size(); ++i) clients_[i].id = i + 1;
  idle_.reserve(kOpenPool);
  for (auto i = static_cast<std::uint32_t>(clients_.size()); i-- > kClosedClients;) {
    idle_.push_back(i);
  }
  if (ops_.kv()) keys_.resize(ops_.key_count());
}

void Generator::start_closed(Stream stream, int clients) {
  mode_ = Mode::kClosed;
  stream_ = stream;
  next_index_ = 0;
  const std::uint64_t now = mono_ns();
  for (int i = 0; i < std::min(clients, kClosedClients); ++i) {
    if (!clients_[static_cast<std::size_t>(i)].busy) issue(static_cast<std::uint32_t>(i), now, now);
  }
}

void Generator::start_open(Stream stream, double rate_per_s, std::uint64_t rng_seed) {
  mode_ = Mode::kOpen;
  stream_ = stream;
  next_index_ = 0;
  arrivals_ = Rng(rng_seed);
  mean_gap_ns_ = 1e9 / rate_per_s;
  next_due_ns_ = mono_ns();
}

void Generator::stop_arrivals() { mode_ = Mode::kIdle; }

bool Generator::call_once(std::uint64_t max_ns) {
  mode_ = Mode::kIdle;
  stream_ = Stream::kSetup;
  const std::uint64_t now = mono_ns();
  issue(0, now, now);
  return drain(max_ns);
}

void Generator::issue(std::uint32_t index, std::uint64_t due_ns, std::uint64_t now) {
  Client& c = clients_[index];
  ++c.seq;
  c.stamp = stamp_of(stream_, next_index_++);
  c.due_ns = due_ns;
  c.invoke_ns = now;
  c.target = leader_guess_;
  c.busy = true;
  c.window = window_open_ ? static_cast<std::int32_t>(windows_.size() - 1) : -1;
  if (WindowStats* w = current_window()) {
    ++w->attempted;
    if (mode_ == Mode::kOpen) w->lag_ns.push_back(now - due_ns);
  }
  ++outstanding_;
  if (ops_.kv()) {
    const Op op = ops_.op(c.stamp);
    if (!op.get) {
      ++keys_[op.key].puts;
      ++keys_[op.key].unresolved;
    }
  }
  send(index, now);
}

void Generator::send(std::uint32_t index, std::uint64_t now) {
  Client& c = clients_[index];
  ++c.attempt;
  const smr::ClientRequestFrame frame{c.id, c.seq, self_, ops_.payload(c.stamp)};
  const auto channel =
      smr::kClientIoChannelBase + static_cast<net::Channel>(c.id % static_cast<std::uint64_t>(io_threads_));
  net_.send(self_, replicas_[c.target], channel, smr::encode_client_request(frame));
  timers_.push_back(Timer{now + kRetryNs, index, c.attempt});
}

void Generator::run_until(std::uint64_t deadline_ns) {
  for (;;) {
    std::uint64_t now = mono_ns();
    if (now >= deadline_ns) return;

    while (mode_ == Mode::kOpen && next_due_ns_ <= now) {
      if (idle_.empty()) {
        // Pool exhausted: the request could not be sent at all.
        if (WindowStats* w = current_window()) {
          ++w->attempted;
          ++w->failed;
        }
      } else {
        const std::uint32_t index = idle_.back();
        idle_.pop_back();
        issue(index, next_due_ns_, now);
      }
      next_due_ns_ += static_cast<std::uint64_t>(arrivals_.exponential(mean_gap_ns_));
    }

    while (!timers_.empty() && timers_.front().at_ns <= now) {
      const Timer timer = timers_.front();
      timers_.pop_front();
      Client& c = clients_[timer.client];
      if (!c.busy || c.attempt != timer.attempt) continue;
      c.target = (c.target + 1) % static_cast<std::uint32_t>(replicas_.size());
      if (WindowStats* w = current_window()) ++w->resends;
      send(timer.client, now);
    }

    std::uint64_t next = deadline_ns;
    if (mode_ == Mode::kOpen) next = std::min(next, next_due_ns_);
    if (!timers_.empty()) next = std::min(next, timers_.front().at_ns);
    auto message =
        net_.recv_for(self_, smr::kClientReplyChannel, next > now ? next - now : 0);
    if (message.has_value()) on_frame(*message, mono_ns());
  }
}

bool Generator::drain(std::uint64_t max_ns) {
  const std::uint64_t deadline = mono_ns() + max_ns;
  while (outstanding_ > 0) {
    const std::uint64_t now = mono_ns();
    if (now >= deadline) return false;
    run_until(std::min(deadline, now + kMillis));
  }
  return true;
}

void Generator::on_frame(const net::SimMessage& message, std::uint64_t now) {
  smr::DecodedClientFrame frame;
  try {
    frame = smr::decode_client_frame(message.payload);
  } catch (const DecodeError&) {
    ++bad_replies_;
    return;
  }
  const auto from = std::find(replicas_.begin(), replicas_.end(), message.from);
  const std::uint64_t index = frame.reply.client_id - 1;
  if (frame.kind != smr::ClientFrameKind::kReply || from == replicas_.end() ||
      index >= clients_.size()) {
    ++bad_replies_;
    return;
  }
  Client& c = clients_[index];
  if (!c.busy || frame.reply.seq != c.seq) return;  // a duplicate of an answered request

  const auto client = static_cast<std::uint32_t>(index);
  switch (frame.reply.status) {
    case smr::ReplyStatus::kOk:
      complete(client, static_cast<std::uint32_t>(from - replicas_.begin()), frame.reply.payload,
               now);
      break;
    case smr::ReplyStatus::kRedirect:
      if (WindowStats* w = current_window()) ++w->redirects;
      if (auto hint = smr::decode_leader_hint(frame.reply.payload); hint && *hint < replicas_.size()) {
        c.target = *hint;
        leader_guess_ = *hint;
      }
      send(client, now);
      break;
    case smr::ReplyStatus::kRetry:
      break;  // the retry timer resends it
  }
}

void Generator::complete(std::uint32_t index, std::uint32_t from_replica, const Bytes& payload,
                         std::uint64_t now) {
  Client& c = clients_[index];
  if (!ops_.valid_reply(c.stamp, payload)) ++bad_replies_;
  leader_guess_ = from_replica;
  if (WindowStats* w = current_window()) ++w->completed;
  if (c.window >= 0) {
    WindowStats& w = windows_[static_cast<std::size_t>(c.window)];
    const std::uint64_t latency = now - c.due_ns;
    if (latency > kFailAfterNs) {
      ++w.failed;
    } else {
      w.latency_ns.push_back(latency);
    }
  }
  if (crash_ns_ != 0 && first_ok_after_crash_ns_ == 0 && c.due_ns > crash_ns_) {
    first_ok_after_crash_ns_ = now;
  }
  if (ops_.kv()) {
    const Op op = ops_.op(c.stamp);
    if (!op.get) {
      KeyTally& key = keys_[op.key];
      --key.unresolved;
      key.prev_ack_ns = key.last_ack_ns;
      key.last_ack_ns = now;
      key.last_invoke_ns = c.invoke_ns;
      key.last_stamp = c.stamp;
    }
  }
  release(index, now);
}

void Generator::release(std::uint32_t index, std::uint64_t now) {
  Client& c = clients_[index];
  c.busy = false;
  c.window = -1;
  --outstanding_;
  if (index >= kClosedClients) {
    idle_.push_back(index);
  } else if (mode_ == Mode::kClosed) {
    issue(index, now, now);
  }
}

int Generator::open_window() {
  windows_.emplace_back();
  windows_.back().start_ns = mono_ns();
  window_open_ = true;
  return static_cast<int>(windows_.size() - 1);
}

void Generator::close_window() {
  windows_.back().end_ns = mono_ns();
  window_open_ = false;
}

void Generator::fail_outstanding() {
  for (auto& c : clients_) {
    if (c.busy && c.window >= 0) {
      ++windows_[static_cast<std::size_t>(c.window)].failed;
      c.window = -1;
    }
  }
}

}  // namespace e2e
