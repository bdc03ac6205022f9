// perfbench: end-to-end and per-layer benchmark of the placement
// simulator. Usually launched through perfbench/run.py, which builds it.
//
//   perfbench --workload <served-soak|served-ahead-soak|quota-grid>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    [--source-id <git sha or source digest>]
//
// --trace 0 measures the end-to-end metrics with no spans installed;
// --trace 1 alternates untraced and traced passes and reports the per-layer
// metrics. Both print a record line (host manifest, samples, notes) and, as
// the last line, {"correct", "attempted", "failed", "metrics"}.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "checks.h"
#include "tracing.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

using namespace byom;
using namespace byom::perfbench;

namespace {

// Set-up is repeated and its median reported, so set-up time is as steady
// as the timed phase and work moved into set-up shows.
constexpr int kSetupReps = 3;
// Fewest passes a timed phase makes, however long one pass takes.
constexpr int kMinTimedPasses = 3;
constexpr int kMinTracedPairs = 2;

struct Metric {
  const char* name;
  const char* unit;
};

const std::vector<Metric>& end_to_end_metrics() {
  static const std::vector<Metric> metrics = {
      {"jobs_per_s", "jobs/s"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"hint_on_time_fraction", "fraction"},
      {"ops_ok_pct", "%"}};
  return metrics;
}

// Savings are deterministic per seed but swing by a fifth to a half of
// their median from seed to seed (input variance, not noise), so they are
// reported here, without a regression bound; the bit-equality checks guard
// them within a run.
const std::vector<Metric>& per_layer_metrics() {
  static const std::vector<Metric> metrics = {
      {"tco_savings_pct", "%"},
      {"tcio_savings_pct", "%"},
      {"trace.next_s", "s"},
      {"trace.jobs", "count"},
      {"trace.summarize_s", "s"},
      {"trace.generate_s", "s"},
      {"ml.train_s", "s"},
      {"ml.precompute_s", "s"},
      {"ml.precompute_rows", "count"},
      {"policy.decide_s", "s"},
      {"policy.decide_calls", "count"},
      {"policy.decide_offcpu_s", "s"},
      {"policy.on_placed_s", "s"},
      {"serving.enqueue_s", "s"},
      {"serving.enqueue_calls", "count"},
      {"serving.batches", "count"},
      {"serving.jobs_per_batch", "ratio"},
      {"serving.late", "count"},
      {"serving.dropped", "count"},
      {"serving.misses", "count"},
      {"core.registry_swaps", "count"},
      {"sim.retrain_events", "count"},
      {"sim.replay_s", "s"},
      {"sim.engine_self_s", "s"},
      {"oracle.build_s", "s"},
      {"oracle.cells", "count"},
      {"harness.build_s", "s"},
      {"grid.cell_p50_s", "s"},
      {"grid.cell_max_s", "s"},
      {"grid.parallel_jobs_per_s", "jobs/s"},
      {"proc.cpu_s", "s"},
      {"proc.ctx_switches_voluntary", "count"},
      {"proc.minor_faults", "count"},
      {"layer_self_sum_s", "s"},
      {"traced_total_s", "s"},
      {"span_overhead_pct", "%"}};
  return metrics;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string source_id = "unknown";
};

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr, "perfbench: %s\n", message);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') usage("--seed takes a whole number");
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0.0)) usage("bad --seconds");
    } else if (key == "--trace") {
      args.trace = std::atoi(value);
      if (args.trace != 0 && args.trace != 1) usage("--trace takes 0 or 1");
    } else if (key == "--source-id") {
      args.source_id = value;
    } else {
      usage(("unknown argument " + key).c_str());
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    usage("--workload must be served-soak, served-ahead-soak or quota-grid");
  }
  return args;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Index of the median element (lower median for even counts).
std::size_t median_index(const std::vector<double>& values) {
  std::vector<std::size_t> order(values.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return values[a] < values[b]; });
  return order[(order.size() - 1) / 2];
}

// Peak resident set (VmHWM) in MB from /proc/self/status.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string number_list(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i ? ", " : "") + number(values[i]);
  }
  return out + "]";
}

// Check bookkeeping: a cell counts as failed once, whatever failed in it.
struct Ledger {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> reasons;

  void cell(const std::vector<std::string>& failures) {
    ++attempted;
    bool bad = false;
    for (const std::string& f : failures) {
      if (f.empty()) continue;
      bad = true;
      if (reasons.size() < 8) reasons.push_back(f);
      std::fprintf(stderr, "check failed: %s\n", f.c_str());
    }
    if (bad) ++failed;
  }
};

// Checks every cell of `pass`; `reference` (when set) must match it bit for
// bit; `pass_failure` fails the whole pass (e.g. the self-time sum).
void check_pass(const Pass& pass, const Pass* reference,
                const std::string& pass_failure, Ledger& ledger) {
  for (std::size_t i = 0; i < pass.cells.size(); ++i) {
    const CellRun& cell = pass.cells[i];
    std::vector<std::string> failures = {
        check_conservation(cell.result, cell.expected_jobs),
        check_hint_accounting(cell.result, cell.submitted), pass_failure};
    if (cell.registry_swaps) {
      failures.push_back(check_registry_swaps(cell.result, *cell.registry_swaps));
    }
    if (reference != nullptr) {
      failures.push_back(
          reference->cells.size() == pass.cells.size()
              ? check_identical(reference->cells[i].result, cell.result)
              : "pass has a different cell count than its reference");
    }
    ledger.cell(failures);
  }
}

// Traced-pass invariants: self times add up to the traced total, and the
// decorators saw every job and every hint request the cells report.
std::string traced_pass_failure(const Pass& pass) {
  std::string failure = check_self_sum(pass.layers.at("layer_self_sum_s"),
                                       pass.layers.at("traced_total_s"));
  if (!failure.empty()) return failure;
  double jobs = 0.0;
  double submitted = 0.0;
  for (const CellRun& cell : pass.cells) {
    jobs += static_cast<double>(cell.expected_jobs);
    submitted += static_cast<double>(cell.submitted);
  }
  if (pass.layers.at("trace.jobs") != jobs) {
    return "decorated stream yielded " + number(pass.layers.at("trace.jobs")) +
           " jobs, expected " + number(jobs);
  }
  if (pass.layers.at("serving.enqueue_calls") != submitted) {
    return "decorated hint service saw " +
           number(pass.layers.at("serving.enqueue_calls")) +
           " submits, the service counted " + number(submitted);
  }
  return {};
}

double mean_savings(const Pass& pass, bool tcio) {
  double sum = 0.0;
  int n = 0;
  for (const CellRun& cell : pass.cells) {
    if (!cell.headline) continue;
    sum += tcio ? cell.result.tcio_savings_pct() : cell.result.tco_savings_pct();
    ++n;
  }
  return n > 0 ? sum / n : 0.0;
}

// on_time / (on_time + late + dropped) over the pass. A pass with no hint
// requests (the quota grid reads a precomputed table) misses none: 1.
double hint_on_time_fraction(const Pass& pass) {
  double on_time = 0.0;
  double total = 0.0;
  for (const CellRun& cell : pass.cells) {
    on_time += static_cast<double>(cell.result.hints_on_time);
    total += static_cast<double>(cell.result.hints_on_time +
                                 cell.result.hints_late +
                                 cell.result.hints_dropped);
  }
  return total > 0.0 ? on_time / total : 1.0;
}

bool optimized_build() {
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}

std::string manifest_json(const Args& args, const Workload& workload,
                          long nproc) {
  std::ostringstream out;
  out << "{\"nproc\": " << nproc << ", \"threads\": " << workload.threads()
      << ", \"build_type\": " << quote(PERFBENCH_BUILD_TYPE)
      << ", \"optimized\": " << (optimized_build() ? "true" : "false")
      << ", \"compiler\": " << quote(PERFBENCH_COMPILER)
      << ", \"source_id\": " << quote(args.source_id)
      << ", \"seed\": " << args.seed << ", \"seconds\": " << number(args.seconds)
      << ", \"setup_reps\": " << kSetupReps << ", \"sizes\": {";
  bool first = true;
  for (const auto& [name, value] : workload.sizes()) {
    out << (first ? "" : ", ") << quote(name) << ": " << number(value);
    first = false;
  }
  out << "}}";
  return out.str();
}

void print_result(const Ledger& ledger, const std::vector<Metric>& declared,
                  const std::map<std::string, double>& values) {
  std::ostringstream out;
  out << "{\"correct\": " << (ledger.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << ledger.attempted
      << ", \"failed\": " << ledger.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < declared.size(); ++i) {
    const auto it = values.find(declared[i].name);
    const double v = it == values.end() ? 0.0 : it->second;
    out << (i ? ", " : "") << quote(declared[i].name) << ": {\"value\": "
        << number(v) << ", \"unit\": " << quote(declared[i].unit) << "}";
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
}

int run(const Args& args) {
  const long nproc = std::max(1L, sysconf(_SC_NPROCESSORS_ONLN));
  if (!optimized_build()) {
    std::fprintf(stderr, "warning: perfbench is not an optimised "
                         "build; timings are not comparable\n");
  }

  auto workload = make_workload(args.workload, args.seed,
                                static_cast<std::size_t>(nproc));
  std::vector<double> setup_times;
  std::vector<std::map<std::string, double>> setup_layers;
  for (int r = 0; r < kSetupReps; ++r) {
    const double start = now_s();
    setup_layers.push_back(workload->setup());
    setup_times.push_back(now_s() - start);
  }

  Ledger ledger;
  std::map<std::string, double> values;
  std::vector<double> walls;
  std::vector<double> traced_walls;
  std::vector<std::string> notes;
  std::vector<double> savings;  // tco, tcio
  const double phase_start = now_s();

  if (args.trace == 0) {
    const Pass first = workload->run(PassKind::kTimed);
    check_pass(first, nullptr, {}, ledger);
    walls.push_back(first.wall_s);
    std::vector<double> rates = {static_cast<double>(first.jobs()) /
                                 first.wall_s};
    while (rates.size() < static_cast<std::size_t>(kMinTimedPasses) ||
           now_s() - phase_start < args.seconds) {
      const Pass pass = workload->run(PassKind::kTimed);
      check_pass(pass, &first, {}, ledger);
      walls.push_back(pass.wall_s);
      rates.push_back(static_cast<double>(pass.jobs()) / pass.wall_s);
    }
    values["jobs_per_s"] = median(rates);
    values["setup_s"] = median(setup_times);
    values["hint_on_time_fraction"] = hint_on_time_fraction(first);
    savings = {mean_savings(first, false), mean_savings(first, true)};
  } else {
    // The bit-equality reference: for the grid the nproc-worker
    // ExperimentRunner pass, which the serial passes must reproduce cell by
    // cell.
    const Pass reference = workload->run(PassKind::kParallel);
    check_pass(reference, nullptr, {}, ledger);
    std::vector<Pass> traced;
    while (traced.size() < static_cast<std::size_t>(kMinTracedPairs) ||
           now_s() - phase_start < args.seconds) {
      const Pass untraced = workload->run(PassKind::kSerial);
      walls.push_back(untraced.wall_s);
      check_pass(untraced, &reference, {}, ledger);
      traced.push_back(workload->run(PassKind::kSerialTraced));
      traced_walls.push_back(traced.back().wall_s);
      check_pass(traced.back(), &reference, traced_pass_failure(traced.back()),
                 ledger);
    }
    values = traced[median_index(traced_walls)].layers;
    values.insert(reference.layers.begin(), reference.layers.end());
    for (const auto& [name, value] :
         setup_layers[median_index(setup_times)]) {
      values[name] = value;
    }
    savings = {mean_savings(reference, false), mean_savings(reference, true)};
    values["tco_savings_pct"] = savings[0];
    values["tcio_savings_pct"] = savings[1];
    values["span_overhead_pct"] =
        100.0 * (median(traced_walls) - median(walls)) / median(walls);
    notes.push_back(
        "policy.decide_s includes the serving lookup (queue drain, "
        "execute_batch, inference): it is reachable only through the "
        "policy's category provider");
    notes.push_back(
        "sim.engine_self_s includes clock-event handlers (hint delivery, "
        "retrains) that the engine runs between decisions");
  }
  values["peak_rss_mb"] = peak_rss_mb();
  values["ops_ok_pct"] =
      100.0 * static_cast<double>(ledger.attempted - ledger.failed) /
      static_cast<double>(ledger.attempted);
  if (!optimized_build()) notes.push_back("NOT AN OPTIMISED BUILD");

  std::ostringstream record;
  record << "{\"record\": {\"workload\": " << quote(args.workload)
         << ", \"trace\": " << args.trace
         << ", \"manifest\": " << manifest_json(args, *workload, nproc)
         << ", \"setup_s_samples\": " << number_list(setup_times)
         << ", \"untraced_pass_s\": " << number_list(walls)
         << ", \"traced_pass_s\": " << number_list(traced_walls)
         << ", \"tco_tcio_savings_pct\": " << number_list(savings)
         << ", \"failures\": [";
  for (std::size_t i = 0; i < ledger.reasons.size(); ++i) {
    record << (i ? ", " : "") << quote(ledger.reasons[i]);
  }
  record << "], \"notes\": [";
  for (std::size_t i = 0; i < notes.size(); ++i) {
    record << (i ? ", " : "") << quote(notes[i]);
  }
  record << "]}}";
  std::printf("%s\n", record.str().c_str());
  print_result(ledger, args.trace == 0 ? end_to_end_metrics()
                                       : per_layer_metrics(),
               values);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
