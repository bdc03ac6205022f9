#include "checks.h"

#include <cmath>
#include <cstring>
#include <sstream>

namespace byom::perfbench {

namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Uncovered time between spans is a handful of instructions per cell (the
// SimConfig copy, a vector push); 0.5% of the total plus 2 ms leaves room
// for that and for timer granularity, but not for a missing span.
constexpr double kSelfSumRelative = 0.005;
constexpr double kSelfSumAbsolute = 0.002;

}  // namespace

std::string check_conservation(const sim::SimResult& result,
                               std::size_t expected_jobs) {
  if (result.jobs_total == expected_jobs) return {};
  std::ostringstream out;
  out << "job conservation: replayed " << result.jobs_total << " of "
      << expected_jobs << " jobs";
  return out.str();
}

std::string check_hint_accounting(const sim::SimResult& result,
                                  std::uint64_t submitted) {
  const std::uint64_t accounted =
      result.hints_on_time + result.hints_late + result.hints_dropped;
  if (accounted == submitted) return {};
  std::ostringstream out;
  out << "hint accounting: on_time+late+dropped=" << accounted
      << " but submitted=" << submitted;
  return out.str();
}

std::string check_registry_swaps(const sim::SimResult& result,
                                 std::uint64_t swaps) {
  if (swaps == result.retrain_events + 1) return {};
  std::ostringstream out;
  out << "registry swaps: " << swaps << " for " << result.retrain_events
      << " retrain events (expected one install plus one per retrain)";
  return out.str();
}

std::string check_identical(const sim::SimResult& expected,
                            const sim::SimResult& actual) {
  std::ostringstream out;
  auto field = [&](const char* name, auto a, auto b) {
    if (a != b) out << name << ' ' << a << " != " << b << "; ";
  };
  auto real = [&](const char* name, double a, double b) {
    if (!same_bits(a, b)) {
      out.precision(17);
      out << name << ' ' << a << " != " << b << "; ";
    }
  };
  real("tco_actual", expected.tco_actual, actual.tco_actual);
  real("tco_all_hdd", expected.tco_all_hdd, actual.tco_all_hdd);
  real("tcio_actual_seconds", expected.tcio_actual_seconds,
       actual.tcio_actual_seconds);
  real("tcio_all_hdd_seconds", expected.tcio_all_hdd_seconds,
       actual.tcio_all_hdd_seconds);
  field("jobs_total", expected.jobs_total, actual.jobs_total);
  field("jobs_scheduled_ssd", expected.jobs_scheduled_ssd,
        actual.jobs_scheduled_ssd);
  field("peak_ssd_used_bytes", expected.peak_ssd_used_bytes,
        actual.peak_ssd_used_bytes);
  field("hints_on_time", expected.hints_on_time, actual.hints_on_time);
  field("hints_late", expected.hints_late, actual.hints_late);
  field("hints_dropped", expected.hints_dropped, actual.hints_dropped);
  field("retrain_events", expected.retrain_events, actual.retrain_events);
  field("outcomes", expected.outcomes.size(), actual.outcomes.size());
  const std::string diff = out.str();
  return diff.empty() ? diff : "results differ: " + diff;
}

std::string check_self_sum(double self_sum_s, double traced_total_s) {
  const double gap = std::abs(traced_total_s - self_sum_s);
  if (gap <= kSelfSumAbsolute + kSelfSumRelative * traced_total_s) return {};
  std::ostringstream out;
  out.precision(6);
  out << "layer self times sum to " << self_sum_s << " s but the traced total is "
      << traced_total_s << " s";
  return out.str();
}

}  // namespace byom::perfbench
