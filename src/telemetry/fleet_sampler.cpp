#include "telemetry/fleet_sampler.hpp"

#include <chrono>
#include <stdexcept>

#include "control/stack_loop.hpp"
#include "obs/metrics.hpp"
#include "obs/stages.hpp"
#include "obs/trace.hpp"
#include "process/variation.hpp"

namespace tsvpt::telemetry {

namespace {

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Worker-loop instrumentation, registered once and shared by every worker
/// thread (the handles are sharded internally, so concurrent use from the
/// pool stays uncontended).
struct SamplerMetrics {
  obs::Counter frames = obs::counter("tsvpt_sampler_frames_total");
  obs::Counter dropped = obs::counter("tsvpt_sampler_dropped_total");
  obs::Counter suppressed = obs::counter("tsvpt_sampler_suppressed_total");
  obs::Counter stalls = obs::counter("tsvpt_sampler_stalls_total");
  obs::Histogram scan_seconds =
      obs::histogram("tsvpt_sampler_scan_seconds");
  obs::Histogram encode_seconds =
      obs::histogram("tsvpt_sampler_encode_seconds");
  obs::Histogram push_seconds =
      obs::histogram("tsvpt_sampler_ring_push_seconds");
  obs::Histogram stall_wait_seconds =
      obs::histogram("tsvpt_sampler_stall_wait_seconds");
  obs::Histogram capture_to_ring =
      obs::stage_latency(obs::kStageCaptureToRing);

  static const SamplerMetrics& get() {
    static const SamplerMetrics metrics;
    return metrics;
  }
};

}  // namespace

/// Everything one stack needs to evolve and be scanned, owned by exactly
/// one worker thread for the whole run.
struct FleetSampler::Stack {
  thermal::StackConfig geometry;
  thermal::ThermalNetwork network;
  core::StackMonitor monitor;
  Rng noise;
  /// Present only when Config::supervise — owned by this stack's worker.
  std::unique_ptr<core::HealthSupervisor> supervisor;
  control::StackLoop loop;
  Second now{0.0};
  std::uint64_t sequence = 0;

  Stack(thermal::StackConfig geom, const thermal::Workload& workload,
        std::vector<core::SensorSite> sites,
        const core::PtSensor::Config& sensor, std::uint64_t seed,
        const core::HealthSupervisor::Config* health,
        control::Controller* controller)
      : geometry(std::move(geom)),
        network(geometry),
        monitor(&network, sensor, std::move(sites), derive_seed(seed, 1)),
        noise(derive_seed(seed, 2)),
        supervisor(health != nullptr
                       ? std::make_unique<core::HealthSupervisor>(*health)
                       : nullptr),
        loop(network, workload, monitor, noise, supervisor.get(),
             controller) {}
};

FleetSampler::FleetSampler(Config config)
    : config_(std::move(config)),
      workload_(thermal::Workload::burst_idle(
          thermal::StackConfig::four_die_stack(), config_.peak_power,
          config_.idle_power, config_.burst_period)) {
  if (config_.stack_count == 0) {
    throw std::invalid_argument{"FleetSampler: zero stacks"};
  }
  if (config_.scans_per_stack == 0) {
    throw std::invalid_argument{"FleetSampler: zero scans"};
  }
  if (config_.sample_period.value() <= 0.0 ||
      config_.thermal_step.value() <= 0.0) {
    throw std::invalid_argument{"FleetSampler: non-positive period"};
  }
  if (config_.control != nullptr &&
      config_.control->stack_count() < config_.stack_count) {
    throw std::invalid_argument{
        "FleetSampler: control plane smaller than the fleet"};
  }
  if (config_.thread_count == 0) {
    config_.thread_count = std::thread::hardware_concurrency();
    if (config_.thread_count == 0) config_.thread_count = 1;
  }
  if (config_.thread_count > config_.stack_count) {
    config_.thread_count = config_.stack_count;
  }

  stacks_.reserve(config_.stack_count);
  production_.resize(config_.stack_count);
  for (std::size_t k = 0; k < config_.stack_count; ++k) {
    const std::uint64_t stack_seed = derive_seed(config_.seed, k);
    thermal::StackConfig geometry = thermal::StackConfig::four_die_stack();
    std::vector<core::SensorSite> sites = core::StackMonitor::uniform_sites(
        geometry, config_.grid_columns, config_.grid_rows);
    const std::size_t per_die = config_.grid_columns * config_.grid_rows;
    std::vector<process::Point> points;
    points.reserve(per_die);
    for (std::size_t i = 0; i < per_die; ++i) {
      points.push_back(sites[i].location);
    }
    process::VariationModel variation{config_.sensor.tech, points};
    Rng process_rng{derive_seed(stack_seed, 0)};
    for (std::size_t d = 0; d < geometry.die_count(); ++d) {
      const process::DieVariation die = variation.sample_die(process_rng);
      for (std::size_t i = 0; i < per_die; ++i) {
        sites[d * per_die + i].vt_delta = die.at(i);
      }
    }
    stacks_.push_back(std::make_unique<Stack>(
        std::move(geometry), workload_, std::move(sites),
        config_.sensor, stack_seed,
        config_.supervise ? &config_.health : nullptr,
        config_.control != nullptr ? &config_.control->controller(k)
                                   : nullptr));
  }
  if (config_.control != nullptr &&
      config_.control->die_count() != stacks_.front()->geometry.die_count()) {
    throw std::invalid_argument{
        "FleetSampler: control plane die count mismatch"};
  }

  rings_.reserve(config_.thread_count);
  gates_.reserve(config_.thread_count);
  for (std::size_t w = 0; w < config_.thread_count; ++w) {
    rings_.push_back(std::make_unique<FrameRing>(config_.ring_capacity));
    gates_.push_back(std::make_unique<StallGate>());
  }
}

FleetSampler::~FleetSampler() = default;

std::vector<FrameRing*> FleetSampler::rings() {
  std::vector<FrameRing*> out;
  out.reserve(rings_.size());
  for (auto& ring : rings_) out.push_back(ring.get());
  return out;
}

// hot(io): sampler workers feed the publisher through in-memory rings only;
// a syscall here (socket, fsync, poll) would couple thermal scan cadence to
// kernel scheduling and show up as fake sensor jitter.
void FleetSampler::worker(std::size_t worker_index) {
  FrameRing& ring = *rings_[worker_index];

  // Initialize and power-on-calibrate this worker's stacks.
  for (std::size_t k = worker_index; k < stacks_.size();
       k += config_.thread_count) {
    stacks_[k]->loop.power_on(/*steady_state=*/true);
  }

  // Round-robin the stacks scan by scan so every stack streams steadily
  // (scan-major, not stack-major: a collector watching for runaway should
  // not see one stack's whole history before another's first frame).
  for (std::size_t scan = 0; scan < config_.scans_per_stack; ++scan) {
    // Scan boundary: honour an injected worker stall.  Parked here the
    // worker produces nothing, its rings age, and the collector's watchdog
    // is expected to notice and resume it.
    {
      StallGate& gate = *gates_[worker_index];
      std::unique_lock<std::mutex> lock{gate.mutex};
      if (gate.stalled) {
        // Only a real stall pays for a span — the un-stalled boundary stays
        // a mutex acquire and one branch.
        const SamplerMetrics& m = SamplerMetrics::get();
        m.stalls.inc();
        const obs::ObsSpan wait_span{"sampler", "stall_wait",
                                     m.stall_wait_seconds, worker_index};
        gate.cv.wait(lock, [&] { return !gate.stalled; });
      }
    }

    for (std::size_t k = worker_index; k < stacks_.size();
         k += config_.thread_count) {
      Stack& stack = *stacks_[k];
      const SamplerMetrics& metrics = SamplerMetrics::get();
      // One span per stack-scan (thermal advance + conversion +
      // supervision): the frame is the pipeline's natural unit of work, so
      // frame-level spans keep the recorder's rate equal to the frame rate.
      const obs::ObsSpan scan_span{"sampler", "scan", metrics.scan_seconds,
                                   k};
      if (config_.interceptor != nullptr) {
        config_.interceptor->before_scan(k, scan, stack.monitor);
      }
      // Advance simulated time to the next sampling instant — under the
      // controller's held actuation when the loop is closed.
      stack.loop.advance(stack.now, config_.sample_period,
                         config_.thermal_step);
      stack.now += config_.sample_period;

      Frame frame;
      frame.stack_id =
          config_.stack_id_base + static_cast<std::uint32_t>(k);
      frame.sequence = stack.sequence++;
      frame.sim_time = stack.now;
      // Supervised, only the sites the supervisor asks for are converted
      // (quarantined sites between probes and dead sites cost nothing).
      frame.readings = stack.loop.sample_scan();
      if (config_.interceptor != nullptr) {
        config_.interceptor->after_scan(k, scan, frame.readings);
      }
      // Supervise, then decide on what the fleet sees.
      stack.loop.settle(scan, stack.now, frame.readings);
      frame.capture_ns = steady_now_ns();

      production_[k].frames += 1;
      metrics.frames.inc();
      std::vector<std::uint8_t> buffer;
      {
        const obs::ObsSpan encode_span{"sampler", "encode",
                                       metrics.encode_seconds, k};
        buffer = encode(frame);
      }
      if (config_.sink != nullptr) {
        // The recorder sees every produced frame with its pristine wire
        // image — before the interceptor gets a chance to corrupt or
        // suppress the publish.  The live ring stays lossy; the store does
        // not.
        config_.sink->on_frame(frame, buffer);
      }
      if (config_.interceptor != nullptr &&
          !config_.interceptor->before_publish(k, scan, buffer)) {
        // Injected ring stall: the frame is produced (sequence advanced)
        // but never published — the collector sees a sequence gap.
        production_[k].suppressed += 1;
        metrics.suppressed.inc();
        continue;
      }
      const obs::ObsSpan push_span{"sampler", "ring_push",
                                   metrics.push_seconds, k};
      ring.push_overwrite(std::move(buffer),
                          [&](std::vector<std::uint8_t>&& v) {
        metrics.dropped.inc();
        const auto victim = peek_stack_id(v);
        if (victim && *victim >= config_.stack_id_base &&
            *victim - config_.stack_id_base < production_.size()) {
          production_[*victim - config_.stack_id_base].dropped += 1;
        } else {
          // Peeked id out of range (or no header): a frame this sampler did
          // not produce.  Impossible while rings stay private, but never an
          // excuse for an out-of-bounds write.
          unattributed_drops_.fetch_add(1, std::memory_order_relaxed);
        }
      });
      // First leg of the stage waterfall: sense-complete to ring-visible.
      const std::uint64_t pushed_ns = steady_now_ns();
      if (pushed_ns >= frame.capture_ns) {
        metrics.capture_to_ring.observe(
            static_cast<double>(pushed_ns - frame.capture_ns) * 1e-9);
      }
    }
  }
}

void FleetSampler::set_interceptor(ScanInterceptor* interceptor) {
  if (ran_) {
    throw std::logic_error{"FleetSampler::set_interceptor: already ran"};
  }
  config_.interceptor = interceptor;
}

void FleetSampler::run() {
  if (ran_) throw std::logic_error{"FleetSampler::run: already ran"};
  ran_ = true;

  obs::gauge("tsvpt_sampler_workers")
      .set(static_cast<double>(config_.thread_count));
  obs::gauge("tsvpt_sampler_stacks")
      .set(static_cast<double>(config_.stack_count));
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  pool.reserve(config_.thread_count);
  for (std::size_t w = 0; w < config_.thread_count; ++w) {
    pool.emplace_back([this, w] { worker(w); });
  }
  for (auto& t : pool) t.join();
  elapsed_ = Second{std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count()};
}

std::uint64_t FleetSampler::total_frames() const {
  std::uint64_t total = 0;
  for (const auto& p : production_) total += p.frames;
  return total;
}

std::uint64_t FleetSampler::total_dropped() const {
  std::uint64_t total = unattributed_drops_.load(std::memory_order_relaxed);
  for (const auto& p : production_) total += p.dropped;
  return total;
}

std::size_t FleetSampler::worker_of(std::size_t stack) const {
  if (stack >= stacks_.size()) {
    throw std::out_of_range{"FleetSampler::worker_of: no such stack"};
  }
  return stack % config_.thread_count;
}

void FleetSampler::stall_worker(std::size_t worker_index) {
  StallGate& gate = *gates_.at(worker_index);
  const std::lock_guard<std::mutex> lock{gate.mutex};
  gate.stalled = true;
}

void FleetSampler::resume_worker(std::size_t worker_index) {
  StallGate& gate = *gates_.at(worker_index);
  {
    const std::lock_guard<std::mutex> lock{gate.mutex};
    gate.stalled = false;
  }
  gate.cv.notify_all();
}

std::vector<core::HealthSupervisor::Transition> FleetSampler::transitions(
    std::size_t stack) const {
  return stacks_.at(stack)->loop.transitions();
}

std::vector<core::HealthState> FleetSampler::health(std::size_t stack) const {
  const Stack& s = *stacks_.at(stack);
  std::vector<core::HealthState> out;
  if (s.supervisor == nullptr) return out;
  out.reserve(s.supervisor->site_count());
  for (std::size_t i = 0; i < s.supervisor->site_count(); ++i) {
    out.push_back(s.supervisor->state(i));
  }
  return out;
}

}  // namespace tsvpt::telemetry
