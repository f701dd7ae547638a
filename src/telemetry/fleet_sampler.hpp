// Concurrent fleet sampling: N independent TSV stacks, each with its own
// thermal network and sensor monitor, all playing one shared burst/idle
// workload, advanced and scanned by a pool of worker threads.  Every scan is encoded as a wire frame
// (telemetry::encode) and published into the worker's lock-free ring, from
// which the Aggregator's collector thread drains.
//
// Stacks are deterministic given the master seed: stack k draws its process
// variation, sensor instances and noise stream from derive_seed(seed, k),
// so frame *contents* are identical no matter how many threads run —
// threading only changes interleaving.  Workers own disjoint stack subsets
// (stack k -> worker k % threads), so no lock ever guards simulation state.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "control/controller.hpp"
#include "core/health_supervisor.hpp"
#include "core/stack_monitor.hpp"
#include "telemetry/frame.hpp"
#include "telemetry/ring.hpp"
#include "thermal/network.hpp"
#include "thermal/workload.hpp"

namespace tsvpt::telemetry {

/// Fault-injection seam in the sampling path: a worker calls these hooks
/// around every scan of every stack it owns.  Implementations (see
/// inject::ChaosInjector) must be safe for concurrent calls with
/// *different* stack indices — a stack is only ever touched by one worker,
/// so per-stack state needs no locking, but anything cross-stack does.
class ScanInterceptor {
 public:
  virtual ~ScanInterceptor() = default;

  /// Before stack `stack`'s scan `scan` is sampled: inject or clear sensor
  /// faults, perturb supply rails, request worker stalls.
  virtual void before_scan(std::size_t stack, std::uint64_t scan,
                           core::StackMonitor& monitor) {
    (void)stack; (void)scan; (void)monitor;
  }
  /// After sampling, before supervision: mutate raw readings (silent
  /// corruption — counter bit flips, calibration drift).
  virtual void after_scan(std::size_t stack, std::uint64_t scan,
                          std::vector<core::StackMonitor::SiteReading>&
                              readings) {
    (void)stack; (void)scan; (void)readings;
  }
  /// The encoded frame, about to be published.  Mutate to corrupt it on
  /// the wire; return false to suppress the publish entirely (a stalled
  /// ring: the sequence number still advances, so the collector sees the
  /// gap as missed frames).
  virtual bool before_publish(std::size_t stack, std::uint64_t scan,
                              std::vector<std::uint8_t>& buffer) {
    (void)stack; (void)scan; (void)buffer;
    return true;
  }
};

/// Durable-recording seam: every frame a worker produces is offered to the
/// sink right after encoding, alongside its wire image — this is how the
/// historian (store::StoreWriter) persists a run while it samples.  Workers
/// call concurrently from their own threads, so implementations must be
/// thread-safe.  The sink sees every *produced* frame, including ones the
/// ring later evicts or an interceptor suppresses/corrupts on publish: the
/// recorder's job is the production history, not the lossy live path.
class FrameSink {
 public:
  virtual ~FrameSink() = default;
  virtual void on_frame(const Frame& frame,
                        const std::vector<std::uint8_t>& wire) = 0;
};

class FleetSampler {
 public:
  struct Config {
    /// Independent stacks in the fleet.
    std::size_t stack_count = 8;
    /// Worker threads (clamped to stack_count; 0 = hardware_concurrency).
    std::size_t thread_count = 0;
    /// Frames (full scans) each stack produces.
    std::size_t scans_per_stack = 50;
    /// Simulated time between scans and thermal integration granularity.
    Second sample_period{1e-3};
    Second thermal_step{2.5e-4};
    /// Sensor grid per die.
    std::size_t grid_columns = 2;
    std::size_t grid_rows = 2;
    /// Capacity of each worker's ring (frames).
    std::size_t ring_capacity = 256;
    /// Burst/idle workload shape (die 0 is the hot logic die).
    Watt peak_power{5.0};
    Watt idle_power{0.25};
    Second burst_period{50e-3};
    core::PtSensor::Config sensor;
    std::uint64_t seed = 1;
    /// Offset added to every frame's stack_id on the wire, so multiple
    /// publisher processes feeding one ingest server occupy disjoint fleet
    /// id ranges.  Local indices (worker_of, production()) stay 0-based.
    std::uint32_t stack_id_base = 0;
    /// Optional fault-injection seam (not owned; must outlive run()).
    ScanInterceptor* interceptor = nullptr;
    /// Optional durable-recording seam (not owned; must outlive run()).
    /// Called by every worker with every frame it produces — see FrameSink.
    FrameSink* sink = nullptr;
    /// Per-stack health supervision: quarantine faulty sites, substitute
    /// their readings, recalibrate on recovery.  Off by default — the
    /// plain pipeline ships raw scans.
    bool supervise = false;
    core::HealthSupervisor::Config health;
    /// Closed-loop control seam (not owned; must outlive run()).  Stack k
    /// is driven by plane->controller(k): each scan's post-supervision
    /// readings feed its decision, and the next scan's thermal advance
    /// runs under the held actuation.  Controllers follow the same
    /// ownership rule as stacks — only the owning worker touches stack
    /// k's controller, so the loop stays thread-count-invariant.
    control::ControlPlane* control = nullptr;
  };

  /// Builds every stack up front (thermal network, variation draw, monitor)
  /// so run() measures sampling, not construction.
  explicit FleetSampler(Config config);
  ~FleetSampler();

  FleetSampler(const FleetSampler&) = delete;
  FleetSampler& operator=(const FleetSampler&) = delete;

  [[nodiscard]] std::size_t stack_count() const { return stacks_.size(); }
  [[nodiscard]] std::size_t worker_count() const { return rings_.size(); }

  /// The rings workers publish into — hand these to Aggregator::start
  /// *before* run() so frames are drained while sampling is in flight.
  [[nodiscard]] std::vector<FrameRing*> rings();

  /// Sample the whole fleet: spawns the worker pool, blocks until every
  /// stack has produced scans_per_stack frames.  Callable once.
  void run();

  /// Late-bind the fault-injection seam (injectors usually need the sampler
  /// pointer themselves, so they cannot exist before it).  Call before
  /// run(); throws afterwards.
  void set_interceptor(ScanInterceptor* interceptor);

  struct StackProduction {
    std::uint64_t frames = 0;
    /// Frames this stack lost to ring eviction (drop-oldest).
    std::uint64_t dropped = 0;
    /// Frames produced but never published (interceptor suppressed them —
    /// an injected ring stall).  The collector sees these as sequence gaps.
    std::uint64_t suppressed = 0;
  };

  /// Per-stack production counters (valid after run()).
  [[nodiscard]] const std::vector<StackProduction>& production() const {
    return production_;
  }
  [[nodiscard]] std::uint64_t total_frames() const;
  /// All drops, attributed or not.
  [[nodiscard]] std::uint64_t total_dropped() const;
  /// Evicted frames whose peeked stack id did not name a stack of this
  /// sampler (cannot happen while the rings stay private; counted, not
  /// written through, if it ever does).
  [[nodiscard]] std::uint64_t unattributed_drops() const {
    return unattributed_drops_.load(std::memory_order_relaxed);
  }
  /// Wall-clock duration of run().
  [[nodiscard]] Second elapsed() const { return elapsed_; }

  /// The worker thread that owns stack k (ring index == worker index).
  [[nodiscard]] std::size_t worker_of(std::size_t stack) const;

  /// Park worker w at its next scan boundary (an injected worker kill).
  /// The worker stays parked — producing nothing, tripping the collector's
  /// frame-age watchdog — until resume_worker restores it.  Callable from
  /// any thread, including the stalled worker itself (takes effect at the
  /// next boundary).
  void stall_worker(std::size_t worker_index);
  /// Un-park worker w; no-op when it is not stalled (safe from the
  /// Aggregator's watchdog callback even after the worker finished).
  void resume_worker(std::size_t worker_index);

  /// Health-transition log of stack k's supervisor (empty unless
  /// Config::supervise; valid after run()).
  [[nodiscard]] std::vector<core::HealthSupervisor::Transition> transitions(
      std::size_t stack) const;
  /// Final health state of every site of stack k (empty unless supervised).
  [[nodiscard]] std::vector<core::HealthState> health(
      std::size_t stack) const;

 private:
  struct Stack;
  struct StallGate {
    std::mutex mutex;
    std::condition_variable cv;
    bool stalled = false;
  };

  void worker(std::size_t worker_index);

  Config config_;
  /// One burst/idle period, borrowed by every stack's loop.
  thermal::Workload workload_;
  std::vector<std::unique_ptr<Stack>> stacks_;
  std::vector<std::unique_ptr<FrameRing>> rings_;
  std::vector<std::unique_ptr<StallGate>> gates_;
  std::vector<StackProduction> production_;
  std::atomic<std::uint64_t> unattributed_drops_{0};
  Second elapsed_{0.0};
  bool ran_ = false;
};

}  // namespace tsvpt::telemetry
