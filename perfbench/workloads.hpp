// The three perfbench workloads and the read-back step two of them share.
// See NOTES.md for why each workload exists and which layers it loads.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"
#include "ingest/fleet_view.hpp"
#include "ptsim/rng.hpp"
#include "store/store.hpp"
#include "telemetry/aggregator.hpp"

namespace perfbench {

Result run_physics_pipeline(const Options& options);
Result run_ingest_fanin(const Options& options);
Result run_dtm_chaos(const Options& options);

/// ingest_fanin's synthetic frames, generated on the fly: stack
/// `i % stacks`, sequence `i / stacks` for the i-th frame offered.  The
/// readings are a seeded random walk, so every frame is a pure function of
/// (seed, stack, sequence) given in-order generation.
class FanInGenerator {
 public:
  static constexpr std::size_t kStacks = 256;
  static constexpr std::size_t kDies = 4;
  static constexpr std::size_t kGrid = 4;  // 4x4 sites per die
  static constexpr std::size_t kSites = kDies * kGrid * kGrid;

  explicit FanInGenerator(std::uint64_t seed);

  /// The next frame in offer order (capture_ns left 0 for the caller).
  void next(tsvpt::telemetry::Frame& frame);

 private:
  struct SiteWalk {
    double truth_c = 0.0;
    double bias_c = 0.0;
  };
  struct StackWalk {
    double baseline_c = 0.0;
    std::vector<SiteWalk> sites;
  };

  tsvpt::Rng rng_;
  std::vector<StackWalk> stacks_;
  std::vector<tsvpt::process::Point> locations_;
  std::uint64_t generated_ = 0;
};

/// Build the historian index, run one time-window x stack-subset query and
/// replay the whole store through one Aggregator; each call is a span.
struct Readback {
  tsvpt::ingest::FleetView replayed;
  std::uint64_t replayed_frames = 0;
  tsvpt::store::StoreStats stats;
  double index_s = 0.0;
  double query_s = 0.0;
  double replay_s = 0.0;
};

[[nodiscard]] Readback read_back(const std::string& dir,
                                 const tsvpt::telemetry::Aggregator::Config&
                                     config,
                                 SpanLog* spans);

/// Fold of one aggregator's results into a finalized FleetView.
[[nodiscard]] tsvpt::ingest::FleetView view_of(
    const tsvpt::telemetry::Aggregator& aggregator,
    const std::vector<tsvpt::telemetry::Alert>& alerts);

/// Sum of |expected - ingested| over stacks plus decode errors: every frame
/// not ingested exactly once.
[[nodiscard]] std::uint64_t failed_frames(
    const tsvpt::ingest::FleetView& view,
    const std::vector<std::uint64_t>& expected_per_stack);

/// Per-layer metrics shared by the two workloads that cross TCP and write
/// the historian: publisher, server, wire and store histograms/counters.
void add_transport_layers(Result& result, const RegistryView& registry,
                          std::uint64_t frames);
void add_readback_layers(Result& result, const RegistryView& registry,
                         const Readback& readback);

}  // namespace perfbench
