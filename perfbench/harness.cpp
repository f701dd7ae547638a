#include "harness.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "obs/stages.hpp"
#include "obs/trace.hpp"

namespace perfbench {

using namespace tsvpt;

void Result::add(const std::string& name, double value,
                 const std::string& unit, const std::string& source) {
  metrics.push_back(Metric{name, value, unit, source});
}

void Result::na(const std::string& name, const std::string& unit,
                const std::string& why) {
  metrics.push_back(Metric{name, 0.0, unit, "n/a: " + why});
}

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  notes.push_back("CHECK FAILED: " + what);
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double seconds_between(std::uint64_t start_ns, std::uint64_t end_ns) {
  return end_ns > start_ns ? static_cast<double>(end_ns - start_ns) * 1e-9
                           : 0.0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double rss_mb() {
  std::ifstream statm{"/proc/self/statm"};
  long pages_total = 0;
  long pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

long involuntary_switches() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_nivcsw;
}

int thread_count() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return 0;
}

unsigned nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

void WindowedLatency::add(const Samples& seconds) {
  const std::vector<double>& values = seconds.values();
  samples_ += values.size();
  const std::size_t windows =
      std::max<std::size_t>(1, values.size() / kWindow);
  const std::size_t width = values.size() / windows;
  for (std::size_t w = 0; w < windows && width > 0; ++w) {
    Samples window{std::vector<double>(
        values.begin() + static_cast<std::ptrdiff_t>(w * width),
        values.begin() + static_cast<std::ptrdiff_t>((w + 1) * width))};
    p50_ms_.push_back(window.quantile(0.50) * 1e3);
    p99_ms_.push_back(window.quantile(0.99) * 1e3);
  }
}

void WindowedLatency::merge(const WindowedLatency& other) {
  p50_ms_.insert(p50_ms_.end(), other.p50_ms_.begin(), other.p50_ms_.end());
  p99_ms_.insert(p99_ms_.end(), other.p99_ms_.begin(), other.p99_ms_.end());
  samples_ += other.samples_;
}

void WindowedRate::add(std::vector<std::uint64_t> capture_ns) {
  std::sort(capture_ns.begin(), capture_ns.end());
  // Short rounds (the tests' short mode) make one window of what they have.
  const std::size_t width = std::min(kWindow, capture_ns.size());
  for (std::size_t i = 0; width > 1 && i + width <= capture_ns.size();
       i += width) {
    const double span = seconds_between(capture_ns[i], capture_ns[i + width - 1]);
    if (span > 0.0) rates_.push_back(static_cast<double>(width - 1) / span);
  }
}

ThreadProbe::ThreadProbe()
    : thread_([this] {
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        threads_ = thread_count() - 1;  // not counting this probe
      }) {}

ThreadProbe::~ThreadProbe() { (void)join(); }

int ThreadProbe::join() {
  if (thread_.joinable()) thread_.join();
  return threads_;
}

RegistryView::RegistryView()
    : snapshot_(obs::Registry::instance().snapshot()) {}

std::uint64_t RegistryView::counter(const std::string& name) const {
  for (const auto& [key, value] : snapshot_.counters) {
    if (key == name) return value;
  }
  return 0;
}

const obs::HistogramSnapshot& RegistryView::histogram(
    const std::string& name, const std::string& label) const {
  static const obs::HistogramSnapshot empty;
  for (const auto& h : snapshot_.histograms) {
    if (h.name == name && h.label == label) return h;
  }
  return empty;
}

const obs::HistogramSnapshot& RegistryView::stage(const char* stage) const {
  return histogram(obs::kStageLatencyMetric,
                   std::string{"stage=\""} + stage + "\"");
}

void set_tracing(bool on) {
  obs::set_enabled(on);
  obs::Registry::instance().reset_values();
  obs::FlightRecorder::instance().clear();
}

double Span::seconds() const { return seconds_between(start_ns, end_ns); }

double SpanLog::total_s(const char* layer, const char* op) const {
  double total = 0.0;
  for (const auto& lane : lanes_) {
    for (const Span& s : lane) {
      if (std::string_view{s.layer} == layer && std::string_view{s.op} == op) {
        total += s.seconds();
      }
    }
  }
  return total;
}

void SpanLog::write(const std::string& path) const {
  std::ofstream out{path, std::ios::binary};
  if (!out) throw std::runtime_error{"cannot write span log " + path};
  for (const auto& lane : lanes_) {
    for (const Span& s : lane) {
      out << "{\"layer\": \"" << s.layer << "\", \"op\": \"" << s.op
          << "\", \"key\": " << s.key << ", \"start_ns\": " << s.start_ns
          << ", \"dur_ns\": " << (s.end_ns - s.start_ns) << "}\n";
    }
  }
}

ScopedSpan::ScopedSpan(SpanLog* log, const char* layer, const char* op,
                       std::uint64_t key)
    : log_(log), span_{layer, op, key, now_ns(), 0} {}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) return;
  span_.end_ns = now_ns();
  log_->add(0, span_);
}

FleetTap::FleetTap(std::size_t stacks, SpanLog* spans,
                   std::vector<std::vector<bool>> excluded)
    : spans_(spans), excluded_(std::move(excluded)), lanes_(stacks) {}

void FleetTap::before_scan(std::size_t stack, std::uint64_t scan,
                           core::StackMonitor& monitor) {
  if (inner_ != nullptr) inner_->before_scan(stack, scan, monitor);
  // Stamped after the inner hook, so injector work stays out of the
  // advance/sample span.
  if (spans_ != nullptr) lanes_[stack].before_ns = now_ns();
}

void FleetTap::after_scan(
    std::size_t stack, std::uint64_t scan,
    std::vector<core::StackMonitor::SiteReading>& readings) {
  if (spans_ != nullptr) {
    Lane& lane = lanes_[stack];
    lane.after_ns = now_ns();
    spans_->add(stack + 1, Span{"sampler", "advance_sample",
                                frame_key(stack, scan), lane.before_ns,
                                lane.after_ns});
  }
  if (inner_ != nullptr) inner_->after_scan(stack, scan, readings);
}

void FleetTap::on_frame(const telemetry::Frame& frame,
                        const std::vector<std::uint8_t>& wire) {
  (void)wire;
  // Frames carry wire stack ids; the sampler in this benchmark uses a zero
  // stack_id_base, so the id is the local stack index.
  const std::size_t stack = frame.stack_id;
  Lane& lane = lanes_.at(stack);
  if (spans_ != nullptr) {
    lane.frame_ns = now_ns();
    spans_->add(stack + 1, Span{"core", "post_scan",
                                frame_key(stack, frame.sequence),
                                lane.after_ns, lane.frame_ns});
  }
  const std::vector<bool>* skip =
      stack < excluded_.size() ? &excluded_[stack] : nullptr;
  constexpr auto kQuarantined =
      static_cast<std::uint8_t>(core::HealthState::kQuarantined);
  constexpr auto kDead = static_cast<std::uint8_t>(core::HealthState::kDead);
  lane.captures.push_back(frame.capture_ns);
  for (const auto& r : frame.readings) {
    lane.energy_j += r.energy.value();
    lane.readings += 1;
    if (!r.degraded && (r.health == kQuarantined || r.health == kDead)) {
      lane.undegraded_out_of_service += 1;
    }
    const bool excluded = skip != nullptr && r.site_index < skip->size() &&
                          (*skip)[r.site_index];
    if (!r.degraded && !excluded) lane.error_c.add(r.error());
  }
}

bool FleetTap::before_publish(std::size_t stack, std::uint64_t scan,
                              std::vector<std::uint8_t>& buffer) {
  if (spans_ != nullptr) {
    const Lane& lane = lanes_[stack];
    spans_->add(stack + 1, Span{"telemetry", "sink", frame_key(stack, scan),
                                lane.frame_ns, now_ns()});
  }
  return inner_ == nullptr || inner_->before_publish(stack, scan, buffer);
}

double FleetTap::energy_j() const {
  double total = 0.0;
  for (const Lane& lane : lanes_) total += lane.energy_j;
  return total;
}

std::uint64_t FleetTap::readings() const {
  std::uint64_t total = 0;
  for (const Lane& lane : lanes_) total += lane.readings;
  return total;
}

std::uint64_t FleetTap::undegraded_out_of_service() const {
  std::uint64_t total = 0;
  for (const Lane& lane : lanes_) total += lane.undegraded_out_of_service;
  return total;
}

RunningStats FleetTap::error_c() const {
  RunningStats total;
  for (const Lane& lane : lanes_) total.merge(lane.error_c);
  return total;
}

std::vector<std::uint64_t> FleetTap::capture_ns() const {
  std::vector<std::uint64_t> out;
  for (const Lane& lane : lanes_) {
    out.insert(out.end(), lane.captures.begin(), lane.captures.end());
  }
  return out;
}

void ClosedRound::take(const FleetTap& tap, const Samples& latency_s) {
  rate.add(tap.capture_ns());
  latency.add(latency_s);
  error_c = tap.error_c();
  energy_j = tap.energy_j();
  readings = tap.readings();
}

std::size_t closed_scans(const Options& options, std::size_t rounds,
                         double sizing_frames_per_s, std::size_t stacks) {
  if (options.smoke) return 200;
  const double per_round = options.seconds / static_cast<double>(rounds);
  return static_cast<std::size_t>(
      std::ceil(per_round * sizing_frames_per_s / static_cast<double>(stacks)));
}

void add_closed_loop_results(Result& result,
                             const std::vector<const ClosedRound*>& rounds,
                             const std::string& latency_source,
                             const std::string& error_source) {
  std::vector<double> setup;
  WindowedLatency latency;
  RunningStats error_c;
  double energy_j = 0.0;
  std::uint64_t readings = 0;
  const ClosedRound* best = rounds.front();
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    const ClosedRound& round = *rounds[r];
    result.attempted += round.produced;
    result.failed += round.failed;
    setup.push_back(round.setup_s);
    latency.merge(round.latency);
    error_c.merge(round.error_c);
    energy_j += round.energy_j;
    readings += round.readings;
    if (round.rate.frames_per_s() > best->rate.frames_per_s()) best = &round;
    char line[320];
    std::snprintf(line, sizeof(line),
                  "round %zu: setup %.4f s; %.1f frames/s over the phase, "
                  "%.1f in the median window; latency p50 %.4f ms p99 %.4f "
                  "ms (median of %zu windows, %llu samples); %d threads on "
                  "%u cpus, %ld involuntary switches",
                  r, round.setup_s, round.frames_per_s,
                  round.rate.frames_per_s(), round.latency.p50_ms(),
                  round.latency.p99_ms(), round.latency.windows(),
                  static_cast<unsigned long long>(round.latency.samples()),
                  round.threads, nproc(), round.involuntary_switches);
    result.note(line);
  }
  result.add("setup_s", median(setup), "s",
             "median over rounds: round start -> first frame offered");
  result.add("frames_per_s", best->rate.frames_per_s(), "frames/s",
             "best round, median 4096-frame window; all ingested once");
  result.add("latency_p50_ms", latency.p50_ms(), "ms",
             "median window p50, all rounds: " + latency_source);
  result.add("latency_p99_ms", latency.p99_ms(), "ms",
             "median window p99, all rounds: " + latency_source);
  result.add("peak_rss_mb", peak_rss_mb(), "MB", "getrusage ru_maxrss");
  result.add("sense_err_3sigma_c", 3.0 * error_c.stddev(), "degC",
             error_source + ", all rounds pooled");
  result.add("conv_energy_pj",
             energy_j / static_cast<double>(readings) * 1e12, "pJ",
             "modelled energy per delivered reading, all rounds pooled");
}

void add_traced_round(Result& result, const ClosedRound& traced,
                      const ClosedRound& plain, const SpanLog& spans,
                      const std::string& span_path) {
  result.attempted = traced.produced + plain.produced;
  result.failed = traced.failed + plain.failed;
  result.add("proc.involuntary_switches",
             static_cast<double>(traced.involuntary_switches), "count",
             "getrusage ru_nivcsw over the timed phase");
  result.add("proc.threads", traced.threads, "count",
             "/proc/self/status Threads 200 ms into the timed phase");
  result.add("obs.overhead_ratio", plain.frames_per_s / traced.frames_per_s,
             "ratio", "untraced / traced frames/s over the timed phase");
  spans.write(span_path);
}

}  // namespace perfbench
