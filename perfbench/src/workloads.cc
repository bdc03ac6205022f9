#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <deque>
#include <optional>
#include <stdexcept>
#include <utility>

#include "common/rng.h"
#include "harness/experiment.h"
#include "harness/experiment_runner.h"
#include "serving/placement_service.h"
#include "trace/generator.h"
#include "trace/job_stream.h"

namespace byom::perfbench {

namespace {

constexpr double kDay = 86400.0;

constexpr std::size_t kChunk = trace::GeneratedStream::kDefaultChunkJobs;
// Train/test boundary: the first week is training history.
constexpr double kBoundary = 7.0 * kDay;
// Generator horizon: an upper bound only; streams stop at the split sizes,
// which every seed reaches well before it.
constexpr double kHorizon = 91.0 * kDay;
// Both workloads train on the most recent jobs of the training week.
constexpr std::size_t kTrainJobs = 2000;

// Served soaks: bench_soak's cell (14 pipelines, 5% quota, daily retrain,
// 50 ms mean serving latency). 10k test jobs span two to four weeks.
constexpr int kSoakClusters = 6;
constexpr int kSoakPipelines = 14;
constexpr std::size_t kSoakTestJobs = 10000;
constexpr double kSoakQuota = 0.05;

// Quota grid: fig07's bench cluster shape (20 pipelines, 15 categories)
// and its 7 x 10 grid on each cluster, one ExperimentRunner::run per
// cluster as fig07 runs it. The timed phase runs the runner on one worker:
// the runner splits a grid into one static block per thread, so an nproc
// wall swings by 15% from seed to seed with how evenly the oracle cells
// land, and by 10% more at a fixed seed on a shared host. The nproc wall
// is reported per layer (grid.parallel_jobs_per_s) instead.
constexpr int kGridClusters = 6;
constexpr int kGridPipelines = 20;
constexpr std::size_t kGridTestJobs = 2000;

const std::vector<sim::MethodId>& grid_methods() {
  static const std::vector<sim::MethodId> methods = {
      sim::MethodId::kAdaptiveRanking, sim::MethodId::kAdaptiveHash,
      sim::MethodId::kMlBaseline,      sim::MethodId::kFirstFit,
      sim::MethodId::kHeuristic,       sim::MethodId::kOracleTco,
      sim::MethodId::kOracleTcio};
  return methods;
}

const std::vector<double>& grid_quotas() {
  static const std::vector<double> quotas = {0.005, 0.01, 0.02, 0.05, 0.1,
                                             0.2,   0.35, 0.5,  0.75, 1.0};
  return quotas;
}

// Independent per-cluster generator seeds derived from the workload seed.
std::vector<std::uint64_t> cluster_seeds(std::uint64_t seed, int clusters) {
  std::vector<std::uint64_t> seeds;
  std::uint64_t state = seed;
  for (int k = 0; k < clusters; ++k) seeds.push_back(common::split_mix64(state));
  return seeds;
}

double elapsed_since(double start) { return now_s() - start; }

struct Usage {
  double cpu_s = 0.0;
  double voluntary_switches = 0.0;
  double minor_faults = 0.0;
};

Usage process_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return {seconds(ru.ru_utime) + seconds(ru.ru_stime),
          static_cast<double>(ru.ru_nvcsw), static_cast<double>(ru.ru_minflt)};
}

// The layer metrics every traced pass reports from its tracer, plus the
// process counters over the pass.
void add_tracer_metrics(const Tracer& tracer, const Usage& before,
                        const Usage& after, Pass& pass) {
  for (std::size_t i = 0; i < static_cast<std::size_t>(Layer::kCount); ++i) {
    const auto layer = static_cast<Layer>(i);
    pass.layers[layer_self_metric(layer)] = tracer.self_s(layer);
  }
  pass.layers["trace.jobs"] = static_cast<double>(tracer.jobs_streamed());
  pass.layers["policy.decide_calls"] =
      static_cast<double>(tracer.calls(Layer::kPolicyDecide));
  pass.layers["policy.decide_offcpu_s"] = tracer.decide_offcpu_s();
  pass.layers["serving.enqueue_calls"] =
      static_cast<double>(tracer.calls(Layer::kServingEnqueue));
  pass.layers["sim.replay_s"] = tracer.inclusive_s(Layer::kSimReplay);
  pass.layers["layer_self_sum_s"] = tracer.self_sum_s();
  pass.layers["traced_total_s"] = pass.wall_s;
  pass.layers["proc.cpu_s"] = after.cpu_s - before.cpu_s;
  pass.layers["proc.ctx_switches_voluntary"] =
      after.voluntary_switches - before.voluntary_switches;
  pass.layers["proc.minor_faults"] = after.minor_faults - before.minor_faults;
}

// Replays one prepared cell through the engine, with the timing decorators
// in place when `tracer` is set. Mirrors the SimConfig wiring of
// harness::run_method_streaming / ExperimentRunner.
sim::SimResult replay(trace::JobStream& stream, const sim::PolicyContext& context,
                      sim::SimConfig config, Tracer* tracer) {
  config.clock = context.clock;
  config.staleness = context.staleness;
  if (tracer == nullptr) {
    config.hint_service = context.hint_service;
    return sim::simulate(stream, *context.policy, config);
  }
  const Tracer::Span span(tracer, Layer::kSimReplay);
  TimedStream timed_stream(stream, *tracer);
  TimedPolicy timed_policy(*context.policy, *tracer);
  if (context.hint_service) {
    config.hint_service =
        std::make_shared<TimedHintService>(context.hint_service, *tracer);
  }
  return sim::simulate(timed_stream, timed_policy, config);
}

// ------------------------------------------------------------ soaks

class SoakWorkload final : public Workload {
 public:
  SoakWorkload(std::uint64_t seed, bool use_leads)
      : seeds_(cluster_seeds(seed, kSoakClusters)), use_leads_(use_leads) {}

  std::map<std::string, double> setup() override {
    std::map<std::string, double> layers;
    clusters_.clear();
    for (const std::uint64_t s : seeds_) {
      clusters_.push_back(
          std::make_unique<ServedCluster>(s, kSoakTestJobs, use_leads_));
      for (const auto& [name, value] : clusters_.back()->setup_layers()) {
        layers[name] += value;
      }
    }
    return layers;
  }

  Pass run(PassKind kind) override {
    Tracer tracer(/*decide_cpu_time=*/true);
    Tracer* active = kind == PassKind::kSerialTraced ? &tracer : nullptr;
    Pass pass;
    serving::ServingStats serving;
    double swaps = 0.0;
    double retrains = 0.0;
    const Usage before = process_usage();
    const double start = now_s();
    for (const auto& cluster : clusters_) {
      ServedCluster::Replay served = cluster->run(active);
      pass.cells.push_back(std::move(served.cell));
      if (active == nullptr) continue;
      serving.batches += served.serving.batches;
      serving.completed += served.serving.completed;
      serving.late += served.serving.late;
      serving.dropped += served.serving.dropped;
      serving.misses += served.serving.misses;
      swaps += static_cast<double>(*pass.cells.back().registry_swaps);
      retrains += static_cast<double>(pass.cells.back().result.retrain_events);
    }
    pass.wall_s = elapsed_since(start);
    if (active == nullptr) return pass;

    add_tracer_metrics(tracer, before, process_usage(), pass);
    pass.layers["serving.batches"] = static_cast<double>(serving.batches);
    pass.layers["serving.jobs_per_batch"] =
        serving.batches > 0 ? static_cast<double>(serving.completed) /
                                  static_cast<double>(serving.batches)
                            : 0.0;
    pass.layers["serving.late"] = static_cast<double>(serving.late);
    pass.layers["serving.dropped"] = static_cast<double>(serving.dropped);
    pass.layers["serving.misses"] = static_cast<double>(serving.misses);
    pass.layers["core.registry_swaps"] = swaps;
    pass.layers["sim.retrain_events"] = retrains;
    return pass;
  }

  std::size_t threads() const override { return 1; }

  std::map<std::string, double> sizes() const override {
    double jobs = 0.0;
    for (const auto& cluster : clusters_) {
      jobs += static_cast<double>(cluster->summary().job_count);
    }
    return {{"clusters", kSoakClusters},
            {"pipelines_per_cluster", kSoakPipelines},
            {"train_jobs_per_cluster", kTrainJobs},
            {"test_jobs_per_cluster", kSoakTestJobs},
            {"quota", kSoakQuota},
            {"jobs_per_pass", jobs}};
  }

 private:
  std::vector<std::uint64_t> seeds_;
  bool use_leads_;
  std::vector<std::unique_ptr<ServedCluster>> clusters_;
};

// ------------------------------------------------------------ quota grid

class GridWorkload final : public Workload {
 public:
  GridWorkload(std::uint64_t seed, std::size_t nproc)
      : seeds_(cluster_seeds(seed, kGridClusters)), nproc_(nproc) {}

  std::map<std::string, double> setup() override {
    std::map<std::string, double> layers;
    clusters_.clear();
    timed_runner_ = std::make_unique<sim::ExperimentRunner>(1);
    parallel_runner_ = std::make_unique<sim::ExperimentRunner>(nproc_);
    grids_.clear();
    for (const std::uint64_t s : seeds_) {
      auto cluster = std::make_unique<Cluster>();
      double t = now_s();
      trace::GeneratorConfig cfg = trace::canonical_cluster_config(0, s);
      cfg.num_pipelines = kGridPipelines;
      cfg.duration = kHorizon;
      Split split = stream_split(cfg, kBoundary, kTrainJobs, kGridTestJobs);
      cluster->train = trace::Trace(cfg.cluster_id, std::move(split.train));
      cluster->test = trace::Trace(cfg.cluster_id, std::move(split.test));
      layers["trace.generate_s"] += elapsed_since(t);

      t = now_s();
      core::CategoryModelConfig model;
      model.num_categories = 15;
      model.gbdt.num_rounds = 20;
      model.gbdt.max_trees_total = 300;
      cluster->factory = std::make_unique<sim::MethodFactory>(
          cluster->train, cfg.rates, model);
      for (const sim::MethodId id : grid_methods()) cluster->factory->warm(id);
      layers["ml.train_s"] += elapsed_since(t);

      // One batched inference pass feeds every AdaptiveRanking cell.
      t = now_s();
      const trace::Trace& test = cluster->test;
      const std::vector<int> categories =
          cluster->factory->category_model().predict_categories(test.jobs());
      auto hints = std::make_shared<policy::CategoryHints>();
      hints->reserve(categories.size());
      for (std::size_t i = 0; i < categories.size(); ++i) {
        hints->emplace(test.jobs()[i].job_id, categories[i]);
      }
      cluster->factory->set_predicted_hints(std::move(hints));
      for (const sim::MethodId id : grid_methods()) {
        if (sim::MethodFactory::method_uses_feature_matrix(id, {})) {
          cluster->factory->feature_matrix(test);
          break;
        }
      }
      layers["ml.precompute_s"] += elapsed_since(t);
      layers["ml.precompute_rows"] += static_cast<double>(test.size());

      cluster->peak_bytes = test.peak_concurrent_bytes();
      const std::size_t index =
          timed_runner_->add_cluster(cluster->factory.get(), &test);
      parallel_runner_->add_cluster(cluster->factory.get(), &test);
      grids_.push_back(
          timed_runner_->make_grid(index, grid_methods(), grid_quotas()));
      clusters_.push_back(std::move(cluster));
    }
    return layers;
  }

  Pass run(PassKind kind) override {
    switch (kind) {
      case PassKind::kTimed: return run_grids(*timed_runner_);
      case PassKind::kParallel: {
        Pass pass = run_grids(*parallel_runner_);
        pass.layers["grid.parallel_jobs_per_s"] =
            static_cast<double>(pass.jobs()) / pass.wall_s;
        return pass;
      }
      case PassKind::kSerial: return run_serial(false);
      case PassKind::kSerialTraced: return run_serial(true);
    }
    throw std::logic_error("GridWorkload::run: bad pass kind");
  }

  std::size_t threads() const override { return timed_runner_->num_threads(); }

  std::map<std::string, double> sizes() const override {
    double jobs = 0.0;
    for (const auto& cluster : clusters_) {
      jobs += static_cast<double>(cluster->test.size());
    }
    jobs *= static_cast<double>(grid_methods().size() * grid_quotas().size());
    return {{"clusters", kGridClusters},
            {"pipelines_per_cluster", kGridPipelines},
            {"train_jobs_per_cluster", kTrainJobs},
            {"test_jobs_per_cluster", kGridTestJobs},
            {"methods", static_cast<double>(grid_methods().size())},
            {"quotas", static_cast<double>(grid_quotas().size())},
            {"cells", static_cast<double>(grids_.size() * grid_methods().size() *
                                          grid_quotas().size())},
            {"parallel_threads",
             static_cast<double>(parallel_runner_->num_threads())},
            {"jobs_per_pass", jobs}};
  }

 private:
  struct Cluster {
    trace::Trace train;
    trace::Trace test;
    std::unique_ptr<sim::MethodFactory> factory;
    std::uint64_t peak_bytes = 0;
  };

  CellRun expected(const sim::ExperimentCell& cell) const {
    CellRun run;
    run.expected_jobs = clusters_[cell.cluster]->test.size();
    run.headline = cell.method == sim::MethodId::kAdaptiveRanking;
    return run;
  }

  std::vector<sim::ExperimentCell> all_cells() const {
    std::vector<sim::ExperimentCell> cells;
    for (const auto& grid : grids_) {
      cells.insert(cells.end(), grid.begin(), grid.end());
    }
    return cells;
  }

  Pass run_grids(const sim::ExperimentRunner& runner) {
    Pass pass;
    for (const std::vector<sim::ExperimentCell>& grid : grids_) {
      const double start = now_s();
      std::vector<sim::CellResult> results = runner.run(grid);
      pass.wall_s += elapsed_since(start);
      for (std::size_t i = 0; i < grid.size(); ++i) {
        CellRun run = expected(grid[i]);
        run.result = std::move(results[i].result);
        pass.cells.push_back(std::move(run));
      }
    }
    return pass;
  }

  // Cell by cell on this thread, through the same make_context + simulate
  // wiring as ExperimentRunner::run_cell, so results must match the
  // runner's passes bit for bit.
  Pass run_serial(bool traced) {
    // No serving here: a decision never blocks, so off-CPU time is not
    // split (the clock reads would dominate the span overhead).
    Tracer tracer(/*decide_cpu_time=*/false);
    Tracer* active = traced ? &tracer : nullptr;
    Pass pass;
    std::vector<double> cell_walls;
    double oracle_cells = 0.0;
    const Usage before = process_usage();
    const double start = now_s();
    for (const sim::ExperimentCell& cell : all_cells()) {
      const double cell_start = now_s();
      const Cluster& cluster = *clusters_[cell.cluster];
      const trace::Trace& test = cluster.test;
      const std::uint64_t capacity =
          sim::quota_capacity(cluster.peak_bytes, cell.quota);
      sim::MakeOptions options;
      options.noise_seed = cell.seed;
      const bool oracle = cell.method == sim::MethodId::kOracleTco ||
                          cell.method == sim::MethodId::kOracleTcio;
      oracle_cells += oracle ? 1.0 : 0.0;
      std::optional<sim::PolicyContext> context;
      {
        const Tracer::Span span(
            active, oracle ? Layer::kOracleBuild : Layer::kHarnessBuild);
        context.emplace(cluster.factory->make_context(cell.method, test,
                                                      capacity, options));
      }
      sim::SimConfig config;
      config.ssd_capacity_bytes = capacity;
      config.rates = cluster.factory->cost_model().rates();
      config.horizon_start = test.start_time();
      config.horizon_end = test.end_time();
      config.expected_jobs = test.size();
      trace::MaterializedStream stream(test);
      CellRun run = expected(cell);
      run.result = replay(stream, *context, config, active);
      cell_walls.push_back(elapsed_since(cell_start));
      pass.cells.push_back(std::move(run));
    }
    pass.wall_s = elapsed_since(start);
    if (!traced) return pass;

    add_tracer_metrics(tracer, before, process_usage(), pass);
    std::sort(cell_walls.begin(), cell_walls.end());
    pass.layers["grid.cell_p50_s"] = cell_walls[cell_walls.size() / 2];
    pass.layers["grid.cell_max_s"] = cell_walls.back();
    pass.layers["oracle.cells"] = oracle_cells;
    return pass;
  }

  std::vector<std::uint64_t> seeds_;
  std::size_t nproc_;
  std::vector<std::unique_ptr<Cluster>> clusters_;
  std::unique_ptr<sim::ExperimentRunner> timed_runner_;
  std::unique_ptr<sim::ExperimentRunner> parallel_runner_;
  std::vector<std::vector<sim::ExperimentCell>> grids_;
};

}  // namespace

std::size_t Pass::jobs() const {
  std::size_t jobs = 0;
  for (const CellRun& cell : cells) jobs += cell.result.jobs_total;
  return jobs;
}

// ------------------------------------------------------------ splits

Split stream_split(const trace::GeneratorConfig& config, double boundary,
                   std::size_t train_jobs, std::size_t test_jobs) {
  std::deque<trace::Job> train;
  Split split;
  trace::GeneratedStream stream(config, kChunk);
  while (const trace::Job* job = stream.next()) {
    if (job->arrival_time < boundary) {
      train.push_back(*job);
      if (train.size() > train_jobs) train.pop_front();
    } else if (split.test.size() < test_jobs) {
      split.test.push_back(*job);
    } else {
      break;
    }
  }
  split.train.assign(train.begin(), train.end());
  return split;
}

TestSplitStream::TestSplitStream(const trace::GeneratorConfig& config,
                                 double boundary, std::size_t limit)
    : generated_(config, kChunk),
      from_boundary_(generated_, boundary),
      limit_(limit) {}

const trace::Job* TestSplitStream::next() {
  if (taken_ == limit_) return nullptr;
  const trace::Job* job = from_boundary_.next();
  if (job != nullptr) ++taken_;
  return job;
}

// ------------------------------------------------------------ ServedCluster

ServedCluster::ServedCluster(std::uint64_t seed, std::size_t test_jobs,
                             bool use_leads)
    : config_(trace::canonical_cluster_config(0, seed)),
      test_jobs_(test_jobs),
      use_leads_(use_leads) {
  config_.num_pipelines = kSoakPipelines;
  config_.duration = kHorizon;

  // The training window is materialized (model fitting needs it); the test
  // split streams.
  double t = now_s();
  const trace::Trace train(
      config_.cluster_id, stream_split(config_, kBoundary, kTrainJobs, 0).train);
  setup_layers_["trace.generate_s"] = elapsed_since(t);

  t = now_s();
  core::CategoryModelConfig model;
  model.num_categories = 10;
  model.gbdt.num_rounds = 12;
  factory_ = std::make_unique<sim::MethodFactory>(train, cost::Rates{}, model);
  factory_->warm(sim::MethodId::kAdaptiveServedLatency);
  setup_layers_["ml.train_s"] = elapsed_since(t);

  t = now_s();
  summary_ = trace::summarize(*test_stream());
  capacity_ = sim::quota_capacity(summary_.peak_concurrent_bytes, kSoakQuota);
  setup_layers_["trace.summarize_s"] = elapsed_since(t);

  options_.hint_latency = 0.05;
  options_.retrain_period = kDay;
  options_.noise_seed = seed;
}

std::unique_ptr<TestSplitStream> ServedCluster::test_stream() const {
  return std::make_unique<TestSplitStream>(config_, kBoundary, test_jobs_);
}

harness::StreamingRunOptions ServedCluster::streaming_options() const {
  harness::StreamingRunOptions run;
  run.chunk_jobs = kChunk;
  run.make = options_;
  run.use_trace_leads = use_leads_;
  return run;
}

ServedCluster::Replay ServedCluster::run(Tracer* tracer) const {
  std::unique_ptr<TestSplitStream> test;
  {
    const Tracer::Span span(tracer, Layer::kTraceNext);
    test = test_stream();
  }

  std::optional<sim::StreamingCell> cell;
  {
    const Tracer::Span span(tracer, Layer::kHarnessBuild);
    cell.emplace(factory_->make_streaming_cell(
        sim::MethodId::kAdaptiveServedLatency, summary_, kChunk,
        capacity_, options_));
  }
  if (cell->needs_materialized || cell->window_hints || cell->window_enqueue) {
    throw std::logic_error("served cell unexpectedly needs window hooks");
  }

  const harness::StreamingRunOptions streaming = streaming_options();
  sim::SimConfig config;
  config.ssd_capacity_bytes = capacity_;
  config.rates = factory_->cost_model().rates();
  config.use_trace_leads = streaming.use_trace_leads;
  config.max_hint_lead = streaming.max_hint_lead;
  config.horizon_start = summary_.start_time;
  config.horizon_end = summary_.end_time;
  config.expected_jobs = summary_.job_count;

  Replay out;
  out.cell.result = replay(*test, cell->context, config, tracer);
  out.cell.expected_jobs = summary_.job_count;
  out.cell.headline = true;
  out.serving = cell->context.hint_service->stats();
  out.cell.submitted = out.serving.enqueued + out.serving.dropped;
  out.cell.registry_swaps = cell->context.registry->swap_count();
  return out;
}

// ------------------------------------------------------------ factory

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "served-soak", "served-ahead-soak", "quota-grid"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        std::size_t nproc) {
  if (name == "served-soak") return std::make_unique<SoakWorkload>(seed, false);
  if (name == "served-ahead-soak") {
    return std::make_unique<SoakWorkload>(seed, true);
  }
  if (name == "quota-grid") return std::make_unique<GridWorkload>(seed, nproc);
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace byom::perfbench
