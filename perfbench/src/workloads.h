// The benchmark's workloads, built only from the library's public API.
//
//   served-soak        AdaptiveServedLatency over streamed GeneratedStream
//                      cells, submit at arrival, daily retrain, 5% quota.
//   served-ahead-soak  the same cells with trace-driven submit-ahead leads.
//   quota-grid         fig07's 7 methods x 10 quotas through
//                      ExperimentRunner, one precomputed hint table per
//                      cluster; timed on one worker, checked (and its
//                      parallel throughput reported) on nproc workers.
//
// Every workload replays several independent clusters whose generator seeds
// derive from --seed. Splits are sized in jobs, not days: the job count of
// a synthetic week swings by a factor of two from seed to seed, and a fixed
// amount of work per run is what keeps the timings comparable across seeds.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/streaming.h"
#include "serving/placement_service.h"
#include "sim/simulator.h"
#include "trace/job_stream.h"
#include "tracing.h"

namespace byom::perfbench {

// One replayed cell and what the output checks compare it against.
struct CellRun {
  sim::SimResult result;
  std::size_t expected_jobs = 0;
  // Requests the cell submitted to its hint service (0 without one).
  std::uint64_t submitted = 0;
  // Hot-swaps of the cell's model registry, for cells serving through one.
  std::optional<std::uint64_t> registry_swaps;
  // Counted in tco_savings_pct / tcio_savings_pct.
  bool headline = false;
};

struct Pass {
  std::vector<CellRun> cells;
  double wall_s = 0.0;
  // Per-layer metrics: traced passes, and the grid's nproc-worker pass.
  std::map<std::string, double> layers;
  std::size_t jobs() const;
};

enum class PassKind {
  kTimed,         // the end-to-end timed phase
  kParallel,      // the grid on nproc workers; the soaks' timed path
  kSerial,        // the traced code path with no spans: overhead baseline
  kSerialTraced,  // spans and decorators on
};

// The last `train_jobs` jobs before `boundary` and the first `test_jobs`
// from it on, from one streamed pass over generate_cluster_trace(config)'s
// job sequence (memory stays O(split), not O(trace)).
struct Split {
  std::vector<trace::Job> train;
  std::vector<trace::Job> test;
};
Split stream_split(const trace::GeneratorConfig& config, double boundary,
                   std::size_t train_jobs, std::size_t test_jobs);

// The soak's test split as a stream: generated jobs from `boundary` on, at
// most `limit` of them.
class TestSplitStream final : public trace::JobStream {
 public:
  TestSplitStream(const trace::GeneratorConfig& config, double boundary,
                  std::size_t limit);
  TestSplitStream(const TestSplitStream&) = delete;
  TestSplitStream& operator=(const TestSplitStream&) = delete;

  const trace::Job* next() override;
  std::size_t size_hint() const override { return limit_; }
  std::uint32_t cluster_id() const override { return generated_.cluster_id(); }

 private:
  trace::GeneratedStream generated_;
  trace::SkipUntilStream from_boundary_;
  std::size_t limit_;
  std::size_t taken_ = 0;
};

// One served-soak cluster: bench_soak's AdaptiveServedLatency cell on a
// streamed GeneratedStream. Construction is the cluster's set-up (training
// week, model training, summary pre-pass); run() replays the test horizon.
class ServedCluster {
 public:
  ServedCluster(std::uint64_t seed, std::size_t test_jobs, bool use_leads);

  struct Replay {
    CellRun cell;
    serving::ServingStats serving;
  };
  // Builds a fresh streaming cell and replays it; decorators on when
  // `tracer` is set.
  Replay run(Tracer* tracer) const;

  // What harness::run_method_streaming needs to replay the same cell.
  const sim::MethodFactory& factory() const { return *factory_; }
  std::unique_ptr<TestSplitStream> test_stream() const;
  const trace::TraceSummary& summary() const { return summary_; }
  std::uint64_t capacity() const { return capacity_; }
  harness::StreamingRunOptions streaming_options() const;
  const std::map<std::string, double>& setup_layers() const {
    return setup_layers_;
  }

 private:
  trace::GeneratorConfig config_;
  std::size_t test_jobs_;
  bool use_leads_;
  std::unique_ptr<sim::MethodFactory> factory_;
  trace::TraceSummary summary_;
  std::uint64_t capacity_ = 0;
  sim::MakeOptions options_;
  std::map<std::string, double> setup_layers_;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Trace generation, summary pre-pass, training and hint precompute.
  // Returns the set-up layer times (trace.generate_s, ml.train_s, ...).
  virtual std::map<std::string, double> setup() = 0;
  virtual Pass run(PassKind kind) = 0;
  // Worker threads the timed phase uses.
  virtual std::size_t threads() const = 0;
  // Workload sizes for the host manifest.
  virtual std::map<std::string, double> sizes() const = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        std::size_t nproc);

// The workload names make_workload accepts.
const std::vector<std::string>& workload_names();

}  // namespace byom::perfbench
