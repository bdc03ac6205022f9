#include "tracing.h"

#include <time.h>

#include <chrono>
#include <stdexcept>

namespace byom::perfbench {

const char* layer_self_metric(Layer layer) {
  switch (layer) {
    case Layer::kTraceNext: return "trace.next_s";
    case Layer::kPolicyDecide: return "policy.decide_s";
    case Layer::kPolicyPlaced: return "policy.on_placed_s";
    case Layer::kServingEnqueue: return "serving.enqueue_s";
    case Layer::kSimReplay: return "sim.engine_self_s";
    case Layer::kOracleBuild: return "oracle.build_s";
    case Layer::kHarnessBuild: return "harness.build_s";
    case Layer::kCount: break;
  }
  throw std::logic_error("layer_self_metric: bad layer");
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

bool Tracer::times_cpu(Layer layer) const {
  return decide_cpu_time_ && layer == Layer::kPolicyDecide;
}

// The CPU reads sit inside the wall reads, so a span's CPU interval never
// exceeds its wall interval.
void Tracer::open(Layer layer) {
  Frame frame{layer};
  frame.start = now_s();
  if (times_cpu(layer)) frame.cpu_start = thread_cpu_s();
  stack_.push_back(frame);
}

void Tracer::close() {
  const Frame frame = stack_.back();
  const double cpu = times_cpu(frame.layer) ? thread_cpu_s() - frame.cpu_start
                                            : 0.0;
  const double end = now_s();
  stack_.pop_back();
  const double duration = end - frame.start;
  const std::size_t i = index(frame.layer);
  self_[i] += duration - frame.child;
  total_[i] += duration;
  ++calls_[i];
  if (times_cpu(frame.layer)) decide_offcpu_s_ += duration - cpu;
  if (!stack_.empty()) stack_.back().child += duration;
}

double Tracer::self_sum_s() const {
  double sum = 0.0;
  for (const double s : self_) sum += s;
  return sum;
}

const trace::Job* TimedStream::next() {
  const Tracer::Span span(tracer_, Layer::kTraceNext);
  const trace::Job* job = inner_->next();
  if (job != nullptr) tracer_->count_streamed_job();
  return job;
}

policy::Device TimedPolicy::decide(const trace::Job& job,
                                   const policy::StorageView& view) {
  const Tracer::Span span(tracer_, Layer::kPolicyDecide);
  return inner_->decide(job, view);
}

void TimedPolicy::on_placed(const trace::Job& job,
                            const policy::PlacementOutcome& outcome) {
  const Tracer::Span span(tracer_, Layer::kPolicyPlaced);
  inner_->on_placed(job, outcome);
}

bool TimedHintService::enqueue(const trace::Job& job) {
  const Tracer::Span span(tracer_, Layer::kServingEnqueue);
  return inner_->enqueue(job);
}

}  // namespace byom::perfbench
