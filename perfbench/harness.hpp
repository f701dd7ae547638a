// Shared plumbing for the perfbench workloads: run options, the result a
// workload hands back (every number with its unit and the registry metric,
// seam or benchmark span it came from), process probes, registry lookups,
// the benchmark's own span log, and the FleetSampler tap the two physics
// workloads install.
//
// Nothing here adds instrumentation to src/: traced runs read histograms
// and counters the library already registers, and everything else is
// timed from the benchmark's side of a public call or seam.
#pragma once

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "ptsim/stats.hpp"
#include "telemetry/fleet_sampler.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the timed phase, split across a workload's rounds.
  double seconds = 10.0;
  /// Traced run: obs registry and flight recorder on, per-layer table out.
  bool trace = false;
  /// Short mode for the benchmark's own tests: same paths, little work.
  bool smoke = false;
  /// Working directory inside the checkout (stores, span dumps).
  std::string work_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Where the number came from; "n/a: <why>" when the workload bypasses
  /// the layer (the value is then 0).
  std::string source;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed ahead of the JSON result.
  std::vector<std::string> notes;

  void add(const std::string& name, double value, const std::string& unit,
           const std::string& source);
  void na(const std::string& name, const std::string& unit,
          const std::string& why);
  /// A correctness check; a failing one marks the run incorrect.
  void check(bool ok, const std::string& what);
  void note(const std::string& line) { notes.push_back(line); }
};

// -- clocks and process probes ---------------------------------------------
[[nodiscard]] std::uint64_t now_ns();
[[nodiscard]] double seconds_between(std::uint64_t start_ns,
                                     std::uint64_t end_ns);
/// High-water resident set of this process (getrusage), MB.
[[nodiscard]] double peak_rss_mb();
/// Current resident set (/proc/self/statm), MB.
[[nodiscard]] double rss_mb();
/// Involuntary context switches of the whole process so far.
[[nodiscard]] long involuntary_switches();
/// Live threads of this process (/proc/self/status).
[[nodiscard]] int thread_count();
[[nodiscard]] unsigned nproc();

[[nodiscard]] double median(std::vector<double> values);

/// A round's latency quantiles over fixed windows of consecutive frames
/// (arrival order); the reported p50/p99 is the median over windows.  A
/// window of 4096 frames leaves 40 samples beyond its p99, and one
/// preemption burst moves one window, not the result.
class WindowedLatency {
 public:
  static constexpr std::size_t kWindow = 4096;

  /// Fold in samples (seconds), split into equal windows of at least
  /// kWindow frames (one window when there are fewer).
  void add(const tsvpt::Samples& seconds);
  /// Pool another set of windows into this one.
  void merge(const WindowedLatency& other);
  [[nodiscard]] double p50_ms() const { return median(p50_ms_); }
  [[nodiscard]] double p99_ms() const { return median(p99_ms_); }
  [[nodiscard]] std::size_t windows() const { return p99_ms_.size(); }
  [[nodiscard]] std::uint64_t samples() const { return samples_; }

 private:
  std::vector<double> p50_ms_;
  std::vector<double> p99_ms_;
  std::uint64_t samples_ = 0;
};

/// A round's throughput over the same kind of windows: frames per host
/// second between the capture stamps of the first and last frame of each
/// window of kWindow consecutive frames, median over windows.  In a closed
/// loop whose every frame is checked to arrive exactly once, this is the
/// pipeline's steady rate, with transient interference from outside the
/// process confined to the windows it hits.
class WindowedRate {
 public:
  static constexpr std::size_t kWindow = 4096;

  /// Fold in capture stamps (ns, any order); fewer than kWindow frames
  /// make one window.
  void add(std::vector<std::uint64_t> capture_ns);
  [[nodiscard]] double frames_per_s() const { return median(rates_); }

 private:
  std::vector<double> rates_;
};

/// Counts this process's threads 200 ms into a timed phase from a helper
/// thread that sleeps until then and is not counted: a closed loop's main
/// thread sits in FleetSampler::run(), so someone else has to look.
class ThreadProbe {
 public:
  ThreadProbe();
  ~ThreadProbe();
  ThreadProbe(const ThreadProbe&) = delete;
  ThreadProbe& operator=(const ThreadProbe&) = delete;

  /// The count seen (waits for the look).
  int join();

 private:
  int threads_ = 0;
  std::thread thread_;
};

// -- registry lookups (traced runs) ----------------------------------------
class RegistryView {
 public:
  RegistryView();
  [[nodiscard]] std::uint64_t counter(const std::string& name) const;
  /// Empty snapshot (count 0) when the histogram was never registered.
  [[nodiscard]] const tsvpt::obs::HistogramSnapshot& histogram(
      const std::string& name, const std::string& label = {}) const;
  /// One stage of the tsvpt_stage_latency_seconds family.
  [[nodiscard]] const tsvpt::obs::HistogramSnapshot& stage(
      const char* stage) const;

 private:
  tsvpt::obs::Snapshot snapshot_;
};

/// Switch the obs registry and flight recorder together and zero the
/// registry, so a traced round reads only its own samples.
void set_tracing(bool on);

// -- the benchmark's span log ----------------------------------------------
struct Span {
  const char* layer = "";
  const char* op = "";
  /// (stack << 40) | sequence for per-frame spans; a call index otherwise.
  std::uint64_t key = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;

  [[nodiscard]] double seconds() const;
};

[[nodiscard]] inline std::uint64_t frame_key(std::size_t stack,
                                             std::uint64_t sequence) {
  return (static_cast<std::uint64_t>(stack) << 40) | sequence;
}

/// Spans kept in memory and written out when the run ends.  One lane per
/// writer: a lane is only ever appended to by one thread (stack lanes by
/// the stack's owning worker, lane 0 by the driving thread), so recording
/// takes no lock.
class SpanLog {
 public:
  explicit SpanLog(std::size_t lanes) : lanes_(lanes) {}

  void add(std::size_t lane, const Span& span) { lanes_[lane].push_back(span); }

  [[nodiscard]] double total_s(const char* layer, const char* op) const;
  /// One JSON object per line: layer, op, key, start_ns, dur_ns.
  void write(const std::string& path) const;

 private:
  std::vector<std::vector<Span>> lanes_;
};

/// RAII span around one of the benchmark's own calls into the program.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* layer, const char* op,
             std::uint64_t key = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  Span span_;
};

// -- FleetSampler tap --------------------------------------------------------

/// Installed as the sampler's FrameSink (always) and ScanInterceptor
/// (traced runs, or to wrap a ChaosInjector).  Per frame it accounts the
/// modelled conversion energy and the sensed-minus-truth error of
/// non-degraded readings, and counts readings an out-of-service site served
/// undegraded; in traced runs it also timestamps the four hooks
/// and records, keyed by (stack, scan), into lane stack + 1:
///   sampler/advance_sample  before_scan  -> after_scan   (thermal + convert)
///   core/post_scan          after_scan   -> on_frame     (supervise, decide,
///                                                        capture, encode)
///   telemetry/sink          on_frame     -> before_publish (this tap)
/// Every hook is forwarded to `inner` when one is given.  Stack k's slots
/// are touched only by the worker owning stack k, as the seam requires.
class FleetTap final : public tsvpt::telemetry::ScanInterceptor,
                       public tsvpt::telemetry::FrameSink {
 public:
  /// `spans` is null in untraced runs.  `excluded[k]` flags sites of stack
  /// k kept out of the error statistic (sites a fault plan targets); may be
  /// empty.
  FleetTap(std::size_t stacks, SpanLog* spans,
           std::vector<std::vector<bool>> excluded = {});

  /// Forward every hook to `inner` as well (call before the sampler runs).
  void wrap(tsvpt::telemetry::ScanInterceptor* inner) { inner_ = inner; }

  void before_scan(std::size_t stack, std::uint64_t scan,
                   tsvpt::core::StackMonitor& monitor) override;
  void after_scan(std::size_t stack, std::uint64_t scan,
                  std::vector<tsvpt::core::StackMonitor::SiteReading>&
                      readings) override;
  bool before_publish(std::size_t stack, std::uint64_t scan,
                      std::vector<std::uint8_t>& buffer) override;
  void on_frame(const tsvpt::telemetry::Frame& frame,
                const std::vector<std::uint8_t>& wire) override;

  /// Totals over every produced frame (valid after the sampler's run()).
  [[nodiscard]] double energy_j() const;
  [[nodiscard]] std::uint64_t readings() const;
  /// Readings served undegraded by a site marked quarantined or dead: the
  /// supervisor must substitute every one of them (flagged degraded).
  [[nodiscard]] std::uint64_t undegraded_out_of_service() const;
  [[nodiscard]] tsvpt::RunningStats error_c() const;
  /// Capture stamps of every produced frame, all stacks.
  [[nodiscard]] std::vector<std::uint64_t> capture_ns() const;

 private:
  struct alignas(64) Lane {
    double energy_j = 0.0;
    std::uint64_t readings = 0;
    std::uint64_t undegraded_out_of_service = 0;
    tsvpt::RunningStats error_c;
    std::vector<std::uint64_t> captures;
    std::uint64_t before_ns = 0;
    std::uint64_t after_ns = 0;
    std::uint64_t frame_ns = 0;
  };

  SpanLog* spans_;
  tsvpt::telemetry::ScanInterceptor* inner_ = nullptr;
  std::vector<std::vector<bool>> excluded_;
  std::vector<Lane> lanes_;
};

// -- closed-loop rounds (physics_pipeline, dtm_chaos) ------------------------

/// What one round of a closed-loop workload hands back.
struct ClosedRound {
  double setup_s = 0.0;
  double build_s = 0.0;
  double rss_per_stack_mb = 0.0;
  /// Frames over the whole timed phase, first scan to last ingest.
  double frames_per_s = 0.0;
  WindowedRate rate;
  WindowedLatency latency;
  tsvpt::RunningStats error_c;
  double energy_j = 0.0;
  std::uint64_t readings = 0;
  long involuntary_switches = 0;
  int threads = 0;
  std::uint64_t produced = 0;
  std::uint64_t failed = 0;

  /// Fold in the tap's per-frame accounting and the round's latencies.
  void take(const FleetTap& tap, const tsvpt::Samples& latency_s);
};

/// Scans per stack in one round: --seconds split over `rounds`, sized by
/// the workload's rate on the reference box.  The work depends on
/// --seconds alone, never on a measured speed, so a seed always produces
/// the same frames.
[[nodiscard]] std::size_t closed_scans(const Options& options,
                                       std::size_t rounds,
                                       double sizing_frames_per_s,
                                       std::size_t stacks);

/// End-to-end metrics of untraced closed-loop rounds.  frames_per_s is the
/// best round's windowed rate: a round can run slow throughout when the
/// pipeline's threads interfere (NOTES.md, Scheduling), and the best of
/// several rounds is the rate the pipeline reaches when they do not.  The
/// latencies are medians over every round's windows, setup_s the median
/// over rounds; accuracy and energy pool every round.
void add_closed_loop_results(Result& result,
                             const std::vector<const ClosedRound*>& rounds,
                             const std::string& latency_source,
                             const std::string& error_source);

/// proc.* rows and obs.overhead_ratio of a traced round against an
/// untraced one of the same size; writes the span log to `span_path`.
void add_traced_round(Result& result, const ClosedRound& traced,
                      const ClosedRound& plain, const SpanLog& spans,
                      const std::string& span_path);

}  // namespace perfbench
