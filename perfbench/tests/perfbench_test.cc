// The benchmark's own tests: the timing decorators must not change what
// they time, and every output check must be able to fail.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "checks.h"
#include "harness/streaming.h"
#include "tracing.h"
#include "workloads.h"

namespace byom::perfbench {
namespace {

// A short-horizon served cell replayed through harness::run_method_streaming,
// the library's own streaming runner.
sim::SimResult reference_replay(const ServedCluster& cluster) {
  const auto test = cluster.test_stream();
  return harness::run_method_streaming(
      cluster.factory(), sim::MethodId::kAdaptiveServedLatency, *test,
      cluster.summary(), cluster.capacity(), cluster.streaming_options());
}

class ServedCellTest : public ::testing::TestWithParam<bool> {};

TEST_P(ServedCellTest, DecoratorsKeepResultBitIdentical) {
  const ServedCluster cluster(/*seed=*/7, /*test_jobs=*/1200,
                              /*use_leads=*/GetParam());
  const sim::SimResult reference = reference_replay(cluster);
  ASSERT_GT(reference.jobs_total, 0u);
  ASSERT_GT(reference.hints_on_time, 0u);

  Tracer tracer(/*decide_cpu_time=*/true);
  const ServedCluster::Replay traced = cluster.run(&tracer);
  EXPECT_EQ(check_identical(reference, traced.cell.result), "");
  EXPECT_EQ(check_conservation(traced.cell.result, traced.cell.expected_jobs),
            "");
  EXPECT_EQ(tracer.jobs_streamed(), reference.jobs_total);
  EXPECT_EQ(tracer.calls(Layer::kPolicyDecide), reference.jobs_total);
  EXPECT_EQ(tracer.calls(Layer::kServingEnqueue), traced.cell.submitted);

  const ServedCluster::Replay untraced = cluster.run(nullptr);
  EXPECT_EQ(check_identical(reference, untraced.cell.result), "");
}

// Each job submits one hint request, and each request ends on time, late or
// dropped; each retrain hot-swaps the registry once.
TEST_P(ServedCellTest, EveryRequestAndRetrainIsAccountedFor) {
  const ServedCluster cluster(/*seed=*/7, /*test_jobs=*/1200,
                              /*use_leads=*/GetParam());
  const ServedCluster::Replay served = cluster.run(nullptr);
  EXPECT_EQ(served.cell.submitted, served.cell.expected_jobs);
  EXPECT_EQ(check_hint_accounting(served.cell.result, served.cell.submitted),
            "");
  ASSERT_TRUE(served.cell.registry_swaps.has_value());
  EXPECT_GT(served.cell.result.retrain_events, 0u);
  EXPECT_EQ(
      check_registry_swaps(served.cell.result, *served.cell.registry_swaps),
      "");
}

INSTANTIATE_TEST_SUITE_P(SubmitAtArrivalAndAhead, ServedCellTest,
                         ::testing::Bool());

sim::SimResult sample_result() {
  sim::SimResult r;
  r.tco_actual = 90.5;
  r.tco_all_hdd = 100.25;
  r.tcio_actual_seconds = 40.0;
  r.tcio_all_hdd_seconds = 50.0;
  r.jobs_total = 1000;
  r.jobs_scheduled_ssd = 120;
  r.peak_ssd_used_bytes = 1 << 20;
  r.hints_on_time = 900;
  r.hints_late = 60;
  r.hints_dropped = 40;
  r.retrain_events = 3;
  return r;
}

TEST(OutputChecks, PassOnConsistentResult) {
  const sim::SimResult r = sample_result();
  EXPECT_EQ(check_conservation(r, 1000), "");
  EXPECT_EQ(check_hint_accounting(r, 1000), "");
  EXPECT_EQ(check_identical(r, r), "");
  EXPECT_EQ(check_self_sum(1.0, 1.001), "");
}

TEST(OutputChecks, ConservationFailsOnLostOrExtraJob) {
  sim::SimResult r = sample_result();
  EXPECT_NE(check_conservation(r, 1001), "");
  r.jobs_total = 1001;
  EXPECT_NE(check_conservation(r, 1000), "");
}

TEST(OutputChecks, HintAccountingFailsOnUnaccountedRequest) {
  sim::SimResult r = sample_result();
  EXPECT_NE(check_hint_accounting(r, 1001), "");
  r.hints_late += 1;
  EXPECT_NE(check_hint_accounting(r, 1000), "");
  EXPECT_NE(check_hint_accounting(sample_result(), 0), "");
}

TEST(OutputChecks, IdentityFailsOnEveryPerturbedField) {
  const sim::SimResult base = sample_result();
  const std::vector<void (*)(sim::SimResult&)> perturbations = {
      [](sim::SimResult& r) { r.tco_actual = std::nextafter(r.tco_actual, 0.0); },
      [](sim::SimResult& r) { r.tco_all_hdd += 1e-9; },
      [](sim::SimResult& r) { r.tcio_actual_seconds += 1e-9; },
      [](sim::SimResult& r) { r.tcio_all_hdd_seconds += 1e-9; },
      [](sim::SimResult& r) { r.jobs_total += 1; },
      [](sim::SimResult& r) { r.jobs_scheduled_ssd += 1; },
      [](sim::SimResult& r) { r.peak_ssd_used_bytes += 1; },
      [](sim::SimResult& r) { r.hints_on_time += 1; },
      [](sim::SimResult& r) { r.hints_late += 1; },
      [](sim::SimResult& r) { r.hints_dropped += 1; },
      [](sim::SimResult& r) { r.retrain_events += 1; },
      [](sim::SimResult& r) { r.outcomes.emplace_back(); },
  };
  for (std::size_t i = 0; i < perturbations.size(); ++i) {
    sim::SimResult changed = base;
    perturbations[i](changed);
    EXPECT_NE(check_identical(base, changed), "") << "perturbation " << i;
  }
  // Signed zeros compare equal as doubles but differ in bits.
  sim::SimResult zero = base;
  zero.tco_actual = 0.0;
  sim::SimResult negative_zero = base;
  negative_zero.tco_actual = -0.0;
  EXPECT_NE(check_identical(zero, negative_zero), "");
}

TEST(OutputChecks, RegistrySwapsFailOnMissingOrExtraSwap) {
  const sim::SimResult r = sample_result();  // 3 retrain events
  EXPECT_EQ(check_registry_swaps(r, 4), "");
  EXPECT_NE(check_registry_swaps(r, 3), "");
  EXPECT_NE(check_registry_swaps(r, 5), "");
}

TEST(OutputChecks, SelfSumFailsOnUncoveredOrDoubleCountedTime) {
  EXPECT_NE(check_self_sum(0.9, 1.0), "");
  EXPECT_NE(check_self_sum(1.1, 1.0), "");
}

TEST(Tracer, SelfTimesOfNestedSpansSumToTheRootSpan) {
  Tracer tracer(/*decide_cpu_time=*/true);
  const double start = now_s();
  {
    const Tracer::Span replay(&tracer, Layer::kSimReplay);
    {
      const Tracer::Span decide(&tracer, Layer::kPolicyDecide);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    {
      const Tracer::Span next(&tracer, Layer::kTraceNext);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
  }
  const double total = now_s() - start;
  EXPECT_EQ(check_self_sum(tracer.self_sum_s(), total), "");
  EXPECT_NEAR(tracer.self_sum_s(), tracer.inclusive_s(Layer::kSimReplay),
              1e-9);
  EXPECT_GE(tracer.self_s(Layer::kPolicyDecide), 0.005);
  EXPECT_GE(tracer.self_s(Layer::kSimReplay), 0.003);
  EXPECT_LT(tracer.self_s(Layer::kSimReplay),
            tracer.inclusive_s(Layer::kSimReplay) - 0.006);
  // A sleeping decision is off the CPU.
  EXPECT_GE(tracer.decide_offcpu_s(), 0.004);
  EXPECT_EQ(tracer.calls(Layer::kTraceNext), 1u);
}

}  // namespace
}  // namespace byom::perfbench
