// Unit tests for the runtime::Scheduler policies: pure ranking checks
// on synthetic queue snapshots (FIFO order, priority classes with
// starvation aging, EDF bands with the feasibility split), the factory,
// and the engine-side pluggability contract (a custom policy reorders
// admission; an out-of-range pick is rejected, not followed).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "registry_of.hpp"
#include "runtime/batched_engine.hpp"
#include "runtime/inference_session.hpp"
#include "runtime/scheduler.hpp"
#include "util/check.hpp"

using namespace distmcu;
using distmcu::testing::registry_of;
using runtime::EdfScheduler;
using runtime::FifoScheduler;
using runtime::kNoDeadline;
using runtime::PriorityScheduler;
using runtime::Scheduler;

namespace {

/// Shorthand: candidates listed out of submit order on purpose, so the
/// policies must rank rather than trust positions.
Scheduler::Candidate cand(int seq, int priority = 0,
                          Cycles deadline_at = kNoDeadline,
                          Cycles submitted_at = 0, Cycles estimated_cost = 0) {
  Scheduler::Candidate c;
  c.id = seq;
  c.submit_seq = seq;
  c.priority = priority;
  c.deadline_at = deadline_at;
  c.submitted_at = submitted_at;
  c.estimated_cost = estimated_cost;
  return c;
}

}  // namespace

TEST(FifoSchedulerTest, PicksLowestSubmitSeqWhateverTheQueueOrder) {
  const FifoScheduler fifo;
  const std::vector<Scheduler::Candidate> queue{cand(7), cand(2), cand(5)};
  EXPECT_EQ(fifo.pick(queue, 0), 1u);
  EXPECT_EQ(fifo.pick({cand(3)}, 123), 0u);
  EXPECT_STREQ(fifo.name(), "fifo");
}

TEST(PrioritySchedulerTest, PicksMostUrgentClassAndTiesFifo) {
  const PriorityScheduler prio;
  // Class 0 beats class 2 regardless of submit order; within a class the
  // earliest submit wins.
  EXPECT_EQ(prio.pick({cand(0, 2), cand(1, 0), cand(2, 0)}, 0), 1u);
  EXPECT_EQ(prio.pick({cand(5, 1), cand(3, 1), cand(4, 1)}, 0), 1u);
  // Negative classes are allowed (more urgent than 0).
  EXPECT_EQ(prio.pick({cand(0, 0), cand(1, -1)}, 0), 1u);
  EXPECT_STREQ(prio.name(), "priority");
}

TEST(PrioritySchedulerTest, AgingPromotesStarvedRequests) {
  const PriorityScheduler prio(PriorityScheduler::Options{.aging_cycles = 100});
  // The class-3 request submitted at 0 has waited 350 cycles at now=350:
  // three full aging periods drop it to effective class 0, where the
  // FIFO tie-break (earlier submit) beats the fresh class-0 arrival.
  const auto old_low = cand(0, 3, kNoDeadline, /*submitted_at=*/0);
  const auto fresh_high = cand(9, 0, kNoDeadline, /*submitted_at=*/350);
  EXPECT_EQ(prio.pick({fresh_high, old_low}, 350), 1u);
  // Two periods in, it is still effective class 1 and loses.
  EXPECT_EQ(prio.pick({fresh_high, old_low}, 250), 0u);
}

TEST(PrioritySchedulerTest, AgingDisabledKeepsStaticClasses) {
  const PriorityScheduler prio(PriorityScheduler::Options{.aging_cycles = 0});
  const auto old_low = cand(0, 3, kNoDeadline, 0);
  const auto fresh_high = cand(9, 0, kNoDeadline, 1'000'000);
  // However long the class-3 request waits, the static class wins.
  EXPECT_EQ(prio.pick({old_low, fresh_high}, 1'000'000'000), 1u);
}

TEST(EdfSchedulerTest, PicksEarliestFeasibleDeadline) {
  const EdfScheduler edf;
  EXPECT_EQ(edf.pick({cand(0, 0, 900), cand(1, 0, 500), cand(2, 0, 700)}, 0),
            1u);
  // Deadline ties resolve in submit order.
  EXPECT_EQ(edf.pick({cand(4, 0, 500), cand(2, 0, 500)}, 0), 1u);
  EXPECT_STREQ(edf.name(), "edf");
}

TEST(EdfSchedulerTest, BestEffortGoesLastAndStaysFifo) {
  const EdfScheduler edf;
  // A no-deadline request never displaces a deadline request, however
  // late it was submitted.
  EXPECT_EQ(edf.pick({cand(0), cand(1, 0, 10'000)}, 0), 1u);
  // All best-effort: plain FIFO.
  EXPECT_EQ(edf.pick({cand(3), cand(1), cand(2)}, 0), 1u);
}

TEST(EdfSchedulerTest, InfeasibleDeadlineDemotedBehindFeasible) {
  const EdfScheduler edf;
  // The earlier deadline (100) cannot be met any more (now + cost > 100),
  // so the later-but-feasible deadline is admitted first: spending the
  // slot on a lost cause would convert a second request into a miss.
  const auto lost = cand(0, 0, /*deadline_at=*/100, 0, /*cost=*/60);
  const auto feasible = cand(1, 0, /*deadline_at=*/900, 0, /*cost=*/500);
  EXPECT_EQ(edf.pick({lost, feasible}, /*now=*/50), 1u);
  // Both feasible: the earlier deadline wins again.
  EXPECT_EQ(edf.pick({lost, feasible}, /*now=*/0), 0u);
  // Lost causes still outrank best-effort.
  EXPECT_EQ(edf.pick({cand(2), lost}, /*now=*/50), 1u);
}

TEST(SchedulerFactory, BuildsEveryPolicyWithMatchingName) {
  for (const auto policy :
       {runtime::SchedulePolicy::fifo, runtime::SchedulePolicy::priority,
        runtime::SchedulePolicy::edf}) {
    const auto sched = runtime::make_scheduler(policy);
    ASSERT_NE(sched, nullptr);
    EXPECT_STREQ(sched->name(), runtime::policy_name(policy));
  }
}

// --- engine-side pluggability ---------------------------------------------

namespace {

model::TransformerConfig sched_cfg() {
  model::TransformerConfig cfg = model::TransformerConfig::tiny_llama_42m();
  cfg.embed_dim = 32;
  cfg.ffn_dim = 64;
  cfg.num_heads = 4;
  cfg.head_dim = 8;
  cfg.num_layers = 2;
  cfg.vocab_size = 100;
  cfg.ar_context = 24;
  cfg.prompt_len = 6;
  cfg.validate();
  return cfg;
}

/// Admits the NEWEST submit first — nonsensical for serving, perfect for
/// proving the engine honors an arbitrary user policy.
class LifoScheduler final : public Scheduler {
 public:
  [[nodiscard]] const char* name() const override { return "lifo"; }
  [[nodiscard]] std::size_t pick(const std::vector<Candidate>& queue,
                                 Cycles /*now*/) const override {
    std::size_t best = 0;
    for (std::size_t i = 1; i < queue.size(); ++i) {
      if (queue[i].submit_seq > queue[best].submit_seq) best = i;
    }
    return best;
  }
};

class OutOfRangeScheduler final : public Scheduler {
 public:
  [[nodiscard]] const char* name() const override { return "broken"; }
  [[nodiscard]] std::size_t pick(const std::vector<Candidate>& queue,
                                 Cycles /*now*/) const override {
    return queue.size();  // one past the end
  }
};

}  // namespace

TEST(SchedulerPluggability, CustomPolicyControlsAdmissionOrder) {
  const runtime::InferenceSession session(sched_cfg(), 2);
  runtime::BatchedEngine engine(
      registry_of(session), {.total_kv_slots = 1,
                             .max_pending = 8,
                             .scheduler = std::make_shared<LifoScheduler>()});
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(engine.submit({.prompt = {1 + i, 2}, .new_tokens = 2}));
  }
  const auto results = engine.run_to_completion();
  ASSERT_EQ(results.size(), 3u);
  // Single slot: completion order IS admission order, and LIFO admits
  // the newest queued submit whenever the slot frees.
  EXPECT_EQ(results[0].id, 2);
  EXPECT_EQ(results[1].id, 1);
  EXPECT_EQ(results[2].id, 0);
  EXPECT_STREQ(engine.scheduler().name(), "lifo");
}

TEST(SchedulerPluggability, OutOfRangePickIsRejected) {
  const runtime::InferenceSession session(sched_cfg(), 2);
  runtime::BatchedEngine engine(registry_of(session),
      {.total_kv_slots = 1, .max_pending = 8,
       .scheduler = std::make_shared<OutOfRangeScheduler>()});
  ASSERT_TRUE(engine.submit({.prompt = {1, 2}, .new_tokens = 1}));
  EXPECT_THROW((void)engine.step(), Error);
}

TEST(SchedulerPluggability, NullSchedulerOptionMeansFifo) {
  const runtime::InferenceSession session(sched_cfg(), 2);
  runtime::BatchedEngine engine(registry_of(session), {.total_kv_slots = 1,
                                                       .max_pending = 8});
  EXPECT_STREQ(engine.scheduler().name(), "fifo");
}

// --- preemption policy ------------------------------------------------------

namespace {

runtime::PreemptionPolicy::Victim victim(int id, Cycles deadline_at,
                                         Cycles remaining_cost,
                                         int generated = 0,
                                         bool borrowed = false,
                                         int times_evicted = 0) {
  runtime::PreemptionPolicy::Victim v;
  v.id = id;
  v.deadline_at = deadline_at;
  v.remaining_cost = remaining_cost;
  v.generated = generated;
  v.new_tokens = 16;
  v.borrowed = borrowed;
  v.times_evicted = times_evicted;
  return v;
}

}  // namespace

TEST(DeadlineAwarePreemption, BorrowedSlotsGoFirstThenBestEffort) {
  const runtime::DeadlineAwarePreemption pol;
  const auto starved = cand(9, 0, /*deadline_at=*/1'000, 0, /*cost=*/500);
  // Band order: a watermark-borrowed slot repays another tenant's
  // reserve, so it goes first; best-effort next; a lost deadline last
  // among the unprotected.
  EXPECT_EQ(pol.pick_victim({victim(0, kNoDeadline, 100),
                             victim(1, kNoDeadline, 100, 0, /*borrowed=*/true),
                             victim(2, /*deadline_at=*/10, 100)},
                            starved, /*now=*/100),
            1);
  EXPECT_EQ(pol.pick_victim(
                {victim(0, kNoDeadline, 100), victim(2, /*deadline_at=*/10, 100)},
                starved, 100),
            0);
  EXPECT_STREQ(pol.name(), "deadline_aware");
}

TEST(DeadlineAwarePreemption, FeasibleEarlierDeadlineIsProtected) {
  const runtime::DeadlineAwarePreemption pol;
  const auto starved = cand(9, 0, 1'000, 0, 500);
  // Still-feasible (100 + 100 <= 800) and no later than the starved
  // deadline: evicting it would trade one attainable deadline for an
  // equal-or-worse one — the policy declines outright.
  EXPECT_EQ(pol.pick_victim({victim(0, 800, 100)}, starved, /*now=*/100), -1);
  // Feasible but LATER than the starved deadline: evictable (most slack
  // sacrificed).
  EXPECT_EQ(pol.pick_victim({victim(0, 2'000, 100)}, starved, 100), 0);
  // Infeasible (100 + 900 > 800): already lost, evictable.
  EXPECT_EQ(pol.pick_victim({victim(0, 800, 900)}, starved, 100), 0);
}

TEST(DeadlineAwarePreemption, LatestFeasibleDeadlineSacrificedFirst) {
  const runtime::DeadlineAwarePreemption pol;
  const auto starved = cand(9, 0, 1'000, 0, 500);
  EXPECT_EQ(pol.pick_victim({victim(0, 2'000, 100), victim(1, 3'000, 100)},
                            starved, 100),
            1);
  // Same band and deadline: least decode progress (smallest checkpoint)
  // first, then lowest id.
  EXPECT_EQ(pol.pick_victim({victim(0, 2'000, 100, /*generated=*/5),
                             victim(1, 2'000, 100, /*generated=*/2)},
                            starved, 100),
            1);
  EXPECT_EQ(pol.pick_victim(
                {victim(1, kNoDeadline, 100), victim(0, kNoDeadline, 100)},
                starved, 100),
            1);
}

TEST(DeadlineAwarePreemption, MaxEvictionsBoundsThrash) {
  const runtime::DeadlineAwarePreemption pol(
      runtime::DeadlineAwarePreemption::Options{.max_evictions = 1});
  const auto starved = cand(9, 0, 1'000, 0, 500);
  EXPECT_EQ(pol.pick_victim(
                {victim(0, kNoDeadline, 100, 0, false, /*times_evicted=*/1)},
                starved, 100),
            -1);
  EXPECT_EQ(pol.pick_victim({victim(0, kNoDeadline, 100, 0, false, 1),
                             victim(1, kNoDeadline, 100)},
                            starved, 100),
            1);
}
