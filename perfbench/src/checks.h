// Output checks behind the benchmark's ops_ok_pct and `failed` count. Each
// returns an empty string when the output holds and a one-line reason when
// it does not, so a failing cell can be reported without aborting the run.
#pragma once

#include <cstdint>
#include <string>

#include "sim/simulator.h"

namespace byom::perfbench {

// Job conservation: the replay placed exactly the jobs the trace holds
// (TraceSummary::job_count for streamed cells, Trace::size otherwise).
std::string check_conservation(const sim::SimResult& result,
                               std::size_t expected_jobs);

// Hint accounting: every submitted request ended on time, late or dropped.
// `submitted` is 0 for cells without a hint service.
std::string check_hint_accounting(const sim::SimResult& result,
                                  std::uint64_t submitted);

// Bit equality of two replays of the same cell (traced against untraced,
// repetition against repetition, serial against parallel).
std::string check_identical(const sim::SimResult& expected,
                            const sim::SimResult& actual);

// Registry hot-swaps match the engine's retrain count: one install when the
// cell is built plus one swap per retrain event.
std::string check_registry_swaps(const sim::SimResult& result,
                                 std::uint64_t swaps);

// The layers' self times account for the traced wall time: spans leave no
// uncovered gap and count no interval twice.
std::string check_self_sum(double self_sum_s, double traced_total_s);

}  // namespace byom::perfbench
