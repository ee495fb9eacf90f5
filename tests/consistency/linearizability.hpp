// Wing–Gong linearizability checker for the KvService register model.
//
// A history is linearizable iff there is a total order of its operations
// that (a) respects real time — an operation that completed before
// another was invoked comes first — and (b) is a legal run of the
// sequential register: GET returns the current value ("" when absent),
// PUT replaces it, DEL removes it, CAS replaces iff the current value
// equals the compare operand. Keys are independent registers, so the
// whole history is linearizable iff every per-key sub-history is
// (P-compositionality) — which is what keeps the exponential search
// tractable.
//
// The search is the classic Wing–Gong backtracking with Lowe-style
// memoization: at each step any "minimal" unlinearized operation (none
// other completed before it was invoked) may linearize next; visited
// (linearized-set, register-state) pairs are never re-explored. Pending
// operations (no reply seen before shutdown) may linearize any time
// after their invoke OR never take effect — both branches are explored,
// and the search only requires completed operations to be placed.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_set>
#include <vector>

#include "consistency/history.hpp"

namespace mcsmr::consistency {

struct Verdict {
  bool linearizable = true;
  /// True when the state budget ran out before a decision — treated as a
  /// failure by tests (raise CheckOptions::max_states, not the budget of
  /// doubt).
  bool exhausted = false;
  std::string offending_key;

  explicit operator bool() const { return linearizable && !exhausted; }
};

struct CheckOptions {
  /// Upper bound on explored (linearized-set, state) pairs per key.
  std::size_t max_states = 4'000'000;
};

namespace detail {

inline Bytes apply_op(const Operation& op, const Bytes& state) {
  switch (op.kind) {
    case Operation::Kind::kGet: return state;
    case Operation::Kind::kPut: return op.argument;
    case Operation::Kind::kDel: return Bytes{};
    case Operation::Kind::kCas: return state == op.expected ? op.argument : state;
  }
  return state;
}

/// Depth-first search over linearization prefixes of one key's history.
/// The search keeps its own stack (one frame per placed operation) rather
/// than recursing: long histories would otherwise overflow the thread
/// stack, notably under ASan's enlarged frames.
class KeyChecker {
 public:
  KeyChecker(const std::vector<Operation>& ops, const CheckOptions& options)
      : ops_(ops), options_(options), linearized_(ops.size(), false) {}

  /// True = linearizable (or budget exhausted; see exhausted()).
  bool run() {
    std::size_t completed = 0;
    for (const Operation& op : ops_) completed += op.pending() ? 0 : 1;
    if (visit(Bytes{}, completed)) return true;
    while (!stack_.empty()) {
      Frame& frame = stack_.back();
      const std::size_t i = next_candidate(frame);
      if (i == ops_.size()) {  // no extension of this prefix works: backtrack
        stack_.pop_back();
        // The parent's last candidate is the placement that led here.
        if (!stack_.empty()) linearized_[stack_.back().next - 1] = false;
        continue;
      }
      frame.next = i + 1;
      linearized_[i] = true;
      // visit() may grow stack_: `frame` is not used past this call.
      const std::size_t remaining = frame.remaining_completed - (ops_[i].pending() ? 0 : 1);
      const std::size_t depth = stack_.size();
      if (visit(apply_op(ops_[i], frame.state), remaining)) return true;
      if (stack_.size() == depth) linearized_[i] = false;  // explored before
    }
    return false;
  }
  bool exhausted() const { return exhausted_; }

 private:
  /// One linearization prefix: the register state after it, its real-time
  /// frontier, and the next candidate operation to extend it with.
  struct Frame {
    Bytes state;
    std::size_t remaining_completed;
    std::uint64_t min_complete;
    std::size_t next = 0;
  };

  /// Pack (linearized set, state) into a memo key.
  static std::string memo_key(const std::vector<bool>& linearized, const Bytes& state) {
    std::string key;
    key.reserve(linearized.size() / 8 + state.size() + 1);
    std::uint8_t acc = 0;
    for (std::size_t i = 0; i < linearized.size(); ++i) {
      acc = static_cast<std::uint8_t>((acc << 1) | (linearized[i] ? 1 : 0));
      if (i % 8 == 7) {
        key.push_back(static_cast<char>(acc));
        acc = 0;
      }
    }
    key.push_back(static_cast<char>(acc));
    key.append(state.begin(), state.end());
    return key;
  }

  /// Visit the prefix linearized_ holds. True ends the search; otherwise
  /// the prefix is pushed for its extensions to be tried, unless it was
  /// explored before.
  bool visit(Bytes state, std::size_t remaining_completed) {
    if (remaining_completed == 0) return true;  // pending ops may stay unplaced
    if (!visited_.insert(memo_key(linearized_, state)).second) return false;
    if (visited_.size() > options_.max_states) {
      exhausted_ = true;  // give up, inconclusive
      return true;
    }
    // Real-time frontier: an operation may linearize next only if no
    // OTHER unlinearized operation completed before it was invoked.
    std::uint64_t min_complete = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      if (linearized_[i] || ops_[i].pending()) continue;
      min_complete = std::min(min_complete, ops_[i].complete_ns);
    }
    stack_.push_back(Frame{std::move(state), remaining_completed, min_complete});
    return false;
  }

  /// The first operation at or after frame.next that may linearize next,
  /// or ops_.size() when none is left.
  std::size_t next_candidate(const Frame& frame) const {
    for (std::size_t i = frame.next; i < ops_.size(); ++i) {
      if (linearized_[i]) continue;
      const Operation& op = ops_[i];
      if (op.invoke_ns > frame.min_complete) continue;  // someone must go first
      // A completed GET pins the state at its linearization point; a
      // pending GET constrains nothing (its reply was never observed).
      if (op.kind == Operation::Kind::kGet && !op.pending() && op.result != frame.state) continue;
      return i;
    }
    return ops_.size();
  }

  const std::vector<Operation>& ops_;
  const CheckOptions& options_;
  std::vector<bool> linearized_;
  std::vector<Frame> stack_;
  std::unordered_set<std::string> visited_;
  bool exhausted_ = false;
};

}  // namespace detail

/// Check one key's sub-history in isolation.
inline Verdict check_key(const std::string& key, const std::vector<Operation>& ops,
                         const CheckOptions& options = {}) {
  detail::KeyChecker checker(ops, options);
  Verdict verdict;
  verdict.linearizable = checker.run();
  verdict.exhausted = checker.exhausted();
  if (!verdict.linearizable || verdict.exhausted) verdict.offending_key = key;
  return verdict;
}

/// Check a full recorded history: every per-key sub-history must be
/// linearizable (keys are independent registers).
inline Verdict check_history(const std::map<std::string, std::vector<Operation>>& by_key,
                             const CheckOptions& options = {}) {
  for (const auto& [key, ops] : by_key) {
    const Verdict verdict = check_key(key, ops, options);
    if (!verdict) return verdict;
  }
  return Verdict{};
}

}  // namespace mcsmr::consistency
