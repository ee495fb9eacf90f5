// Unit tests for the Wing–Gong linearizability checker: known-good and
// known-bad register histories, pending operations, and the per-key
// composition rule.
#include "consistency/linearizability.hpp"

#include <gtest/gtest.h>

namespace mcsmr::consistency {
namespace {

Bytes val(std::uint8_t b) { return Bytes{b}; }

Operation op(Operation::Kind kind, std::uint64_t invoke, std::uint64_t complete,
             Bytes argument = {}, Bytes result = {}) {
  Operation o;
  o.kind = kind;
  o.key = "k";
  o.argument = std::move(argument);
  o.result = std::move(result);
  o.invoke_ns = invoke;
  o.complete_ns = complete;
  return o;
}

TEST(Linearizability, LongHistoryNeedsNoDeepStack) {
  // The search keeps one frame per placed operation on its own stack: a
  // recursive search overflowed 8 MB under ASan at ~4K operations per key.
  std::vector<Operation> ops;
  for (std::uint64_t i = 0; i < 8'000; ++i) {
    const Bytes value = val(static_cast<std::uint8_t>(i / 2));
    ops.push_back(i % 2 == 0 ? op(Operation::Kind::kPut, 10 * i + 1, 10 * i + 5, value)
                             : op(Operation::Kind::kGet, 10 * i + 1, 10 * i + 5, {}, value));
  }
  EXPECT_TRUE(check_key("k", ops));
}

TEST(Linearizability, SequentialHistoryIsLinearizable) {
  std::vector<Operation> ops{
      op(Operation::Kind::kPut, 10, 20, val(1)),
      op(Operation::Kind::kGet, 30, 40, {}, val(1)),
      op(Operation::Kind::kPut, 50, 60, val(2)),
      op(Operation::Kind::kGet, 70, 80, {}, val(2)),
  };
  EXPECT_TRUE(check_key("k", ops));
}

TEST(Linearizability, StaleReadAfterWriteCompletesIsRejected) {
  // PUT(2) completed at 60; the GET invoked at 70 must not observe 1.
  std::vector<Operation> ops{
      op(Operation::Kind::kPut, 10, 20, val(1)),
      op(Operation::Kind::kPut, 50, 60, val(2)),
      op(Operation::Kind::kGet, 70, 80, {}, val(1)),
  };
  const Verdict verdict = check_key("k", ops);
  EXPECT_FALSE(verdict.linearizable);
  EXPECT_EQ(verdict.offending_key, "k");
}

TEST(Linearizability, ConcurrentReadMayObserveEitherSide) {
  // The GET overlaps PUT(2): both 1 and 2 are legal observations.
  std::vector<Operation> ops{
      op(Operation::Kind::kPut, 10, 20, val(1)),
      op(Operation::Kind::kPut, 50, 90, val(2)),
      op(Operation::Kind::kGet, 60, 70, {}, val(1)),
  };
  EXPECT_TRUE(check_key("k", ops));
  ops[2].result = val(2);
  EXPECT_TRUE(check_key("k", ops));
  ops[2].result = val(3);  // a value nobody wrote
  EXPECT_FALSE(check_key("k", ops).linearizable);
}

TEST(Linearizability, ReadMustNotTravelBackInTime) {
  // Two completed sequential GETs observing 2 then 1 while 1 -> 2 were
  // written in order: the second GET reorders writes illegally.
  std::vector<Operation> ops{
      op(Operation::Kind::kPut, 10, 20, val(1)),
      op(Operation::Kind::kPut, 30, 40, val(2)),
      op(Operation::Kind::kGet, 50, 60, {}, val(2)),
      op(Operation::Kind::kGet, 70, 80, {}, val(1)),
  };
  EXPECT_FALSE(check_key("k", ops).linearizable);
}

TEST(Linearizability, PendingWriteMayOrMayNotTakeEffect) {
  // The PUT(2) never completed. A later GET may see 1 (write lost) or 2
  // (write applied) — but nothing else.
  std::vector<Operation> ops{
      op(Operation::Kind::kPut, 10, 20, val(1)),
      op(Operation::Kind::kPut, 30, 0, val(2)),  // pending
      op(Operation::Kind::kGet, 50, 60, {}, val(1)),
  };
  EXPECT_TRUE(check_key("k", ops));
  ops[2].result = val(2);
  EXPECT_TRUE(check_key("k", ops));
  ops[2].result = val(3);
  EXPECT_FALSE(check_key("k", ops).linearizable);
}

TEST(Linearizability, DeleteAndAbsentReads) {
  std::vector<Operation> ops{
      op(Operation::Kind::kGet, 1, 2, {}, {}),  // absent: empty observation
      op(Operation::Kind::kPut, 10, 20, val(1)),
      op(Operation::Kind::kDel, 30, 40),
      op(Operation::Kind::kGet, 50, 60, {}, {}),
  };
  EXPECT_TRUE(check_key("k", ops));
  ops[3].result = val(1);  // observing the deleted value is stale
  EXPECT_FALSE(check_key("k", ops).linearizable);
}

TEST(Linearizability, CasAppliesOnlyOnMatch) {
  std::vector<Operation> cas_hit{
      op(Operation::Kind::kPut, 10, 20, val(1)),
      [] {
        Operation o = op(Operation::Kind::kCas, 30, 40, val(2));
        o.expected = val(1);
        return o;
      }(),
      op(Operation::Kind::kGet, 50, 60, {}, val(2)),
  };
  EXPECT_TRUE(check_key("k", cas_hit));

  std::vector<Operation> cas_miss = cas_hit;
  cas_miss[1].expected = val(9);       // mismatch: CAS is a no-op
  EXPECT_FALSE(check_key("k", cas_miss).linearizable);
  cas_miss[2].result = val(1);
  EXPECT_TRUE(check_key("k", cas_miss));
}

TEST(Linearizability, KeysCheckIndependently) {
  std::map<std::string, std::vector<Operation>> by_key;
  by_key["a"] = {op(Operation::Kind::kPut, 10, 20, val(1)),
                 op(Operation::Kind::kGet, 30, 40, {}, val(1))};
  by_key["b"] = {op(Operation::Kind::kPut, 10, 20, val(1)),
                 op(Operation::Kind::kGet, 30, 40, {}, val(7))};  // violation
  const Verdict verdict = check_history(by_key);
  EXPECT_FALSE(verdict.linearizable);
  EXPECT_EQ(verdict.offending_key, "b");
}

TEST(Linearizability, ManyConcurrentWritersStayTractable) {
  // 12 overlapping writers + interleaved readers: exercises the memoized
  // search well past naive factorial blowup.
  std::vector<Operation> ops;
  for (std::uint8_t w = 0; w < 12; ++w) {
    ops.push_back(op(Operation::Kind::kPut, 10, 200, val(w)));
  }
  ops.push_back(op(Operation::Kind::kGet, 300, 310, {}, val(5)));
  EXPECT_TRUE(check_key("k", ops));
}

}  // namespace
}  // namespace mcsmr::consistency
