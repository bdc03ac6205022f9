// Outside-in layer timing for the benchmark: a span tracer plus timing
// decorators around the public interfaces the engine calls through
// (trace::JobStream, policy::PlacementPolicy, sim::HintService).
//
// Spans nest on one thread. Closing a span adds its duration to its layer's
// inclusive time and subtracts it from the parent's self time, so the self
// times of all layers opened inside a root interval sum to that interval
// exactly (up to the few instructions between spans). The engine's own work
// is the remainder of the sim.replay span once its children are removed.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "policy/policy.h"
#include "sim/hint_service.h"
#include "trace/job_stream.h"

namespace byom::perfbench {

enum class Layer : std::size_t {
  kTraceNext,      // trace.next_s: stream construction and JobStream::next
  kPolicyDecide,   // policy.decide_s (includes the served-hint lookup)
  kPolicyPlaced,   // policy.on_placed_s
  kServingEnqueue, // serving.enqueue_s
  kSimReplay,      // sim.replay_s inclusive; its self time is the engine's
  kOracleBuild,    // oracle.build_s: make_context of oracle cells
  kHarnessBuild,   // harness.build_s: make_context / make_streaming_cell
  kCount,
};

const char* layer_self_metric(Layer layer);

// Monotonic wall time in seconds.
double now_s();
// CPU time consumed by the calling thread, in seconds.
double thread_cpu_s();

class Tracer {
 public:
  // `decide_cpu_time` reads the thread CPU clock around every decide span
  // (two system calls each) to split off-CPU time; worth it only where a
  // decision can block, as on the served path.
  explicit Tracer(bool decide_cpu_time) : decide_cpu_time_(decide_cpu_time) {}

  // RAII span: opens on construction, closes on destruction.
  class Span {
   public:
    Span(Tracer* tracer, Layer layer) : tracer_(tracer) {
      if (tracer_ != nullptr) tracer_->open(layer);
    }
    ~Span() {
      if (tracer_ != nullptr) tracer_->close();
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
  };

  void open(Layer layer);
  void close();

  double self_s(Layer layer) const { return self_[index(layer)]; }
  double inclusive_s(Layer layer) const { return total_[index(layer)]; }
  std::uint64_t calls(Layer layer) const { return calls_[index(layer)]; }
  // Sum of every layer's self time: what the spans account for.
  double self_sum_s() const;
  // Wall minus thread CPU time inside policy.decide spans: the decision
  // path's time off the CPU (sleeping in the serving queue, page faults).
  // 0 unless constructed with decide_cpu_time.
  double decide_offcpu_s() const { return decide_offcpu_s_; }
  // Calls to next() that returned a job.
  std::uint64_t jobs_streamed() const { return jobs_streamed_; }
  void count_streamed_job() { ++jobs_streamed_; }

 private:
  bool times_cpu(Layer layer) const;
  static std::size_t index(Layer layer) {
    return static_cast<std::size_t>(layer);
  }

  struct Frame {
    Layer layer;
    double start = 0.0;
    double child = 0.0;
    double cpu_start = 0.0;
  };

  static constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);
  bool decide_cpu_time_;
  std::vector<Frame> stack_;
  std::array<double, kLayers> self_{};
  std::array<double, kLayers> total_{};
  std::array<std::uint64_t, kLayers> calls_{};
  double decide_offcpu_s_ = 0.0;
  std::uint64_t jobs_streamed_ = 0;
};

// Times JobStream::next on the stream the engine pulls from.
class TimedStream final : public trace::JobStream {
 public:
  TimedStream(trace::JobStream& inner, Tracer& tracer)
      : inner_(&inner), tracer_(&tracer) {}

  const trace::Job* next() override;
  std::size_t size_hint() const override { return inner_->size_hint(); }
  std::uint32_t cluster_id() const override { return inner_->cluster_id(); }

 private:
  trace::JobStream* inner_;
  Tracer* tracer_;
};

// Times PlacementPolicy::decide / on_placed; forwards everything else.
class TimedPolicy final : public policy::PlacementPolicy {
 public:
  TimedPolicy(policy::PlacementPolicy& inner, Tracer& tracer)
      : inner_(&inner), tracer_(&tracer) {}

  std::string name() const override { return inner_->name(); }
  policy::Device decide(const trace::Job& job,
                        const policy::StorageView& view) override;
  void on_placed(const trace::Job& job,
                 const policy::PlacementOutcome& outcome) override;
  double eviction_ttl(const trace::Job& job) const override {
    return inner_->eviction_ttl(job);
  }

 private:
  policy::PlacementPolicy* inner_;
  Tracer* tracer_;
};

// Times HintService::enqueue, the engine's submit path into serving.
class TimedHintService final : public sim::HintService {
 public:
  TimedHintService(std::shared_ptr<sim::HintService> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(&tracer) {}

  bool enqueue(const trace::Job& job) override;
  sim::HintTimeliness hint_timeliness() const override {
    return inner_->hint_timeliness();
  }

 private:
  std::shared_ptr<sim::HintService> inner_;
  Tracer* tracer_;
};

}  // namespace byom::perfbench
