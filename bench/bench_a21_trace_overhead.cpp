// A21 [R]: distributed observability overhead, clock alignment, stitching.
//
// PR 9's observability plane must be "cheap enough to leave on" end to end,
// not just on the in-process sampler hot path (A17 prices that).  This
// bench prices the distributed additions — v3 batch restamping, per-stage
// histograms, trace spans on the publisher/server paths — on the A18
// loopback ingest workload, interleaving obs-enabled and obs-disabled runs
// A/B/A/B and taking the best wall time per side.
//
// Three gates:
//   overhead    enabled wall time <= (1 + gate) x disabled wall time
//               (5% full, 25% under --smoke where scheduler noise on
//               shared CI runners dwarfs the real cost); each timed run
//               lasts >= 100 ms in smoke mode and >= 0.5 s in full mode on
//               a 4-core x86 box, so the ratio is not scheduler noise;
//   clock       the publisher's NTP-style offset estimate on loopback is
//               within +-2 ms of zero — both ends read the same
//               CLOCK_MONOTONIC, so any estimate beyond that is
//               filter/arithmetic breakage, not network asymmetry;
//   stitching   a FlightRecorder snapshot split into two category-
//               partitioned Chrome dumps and re-merged by TraceMerge
//               reconciles 1:1 in span counts.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "ingest/publisher.hpp"
#include "ingest/server.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_merge.hpp"
#include "ptsim/table.hpp"
#include "telemetry/codec_util.hpp"
#include "telemetry/frame.hpp"

namespace {

using namespace tsvpt;

// v2 frame-header offsets (frame.hpp), same re-stamp trick as A18.
constexpr std::size_t kSequenceOffset = 16;
constexpr std::size_t kSimTimeOffset = 24;
constexpr std::size_t kCaptureNsOffset = 32;

void poke_u64(std::vector<std::uint8_t>& buf, std::size_t at,
              std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf[at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (8 * i));
  }
}

void restamp(std::vector<std::uint8_t>& buf, std::uint64_t sequence,
             double sim_time, std::uint64_t capture_ns) {
  poke_u64(buf, kSequenceOffset, sequence);
  poke_u64(buf, kSimTimeOffset, std::bit_cast<std::uint64_t>(sim_time));
  poke_u64(buf, kCaptureNsOffset, capture_ns);
  const std::uint32_t crc =
      telemetry::crc32(buf.data(), buf.size() - sizeof(std::uint32_t));
  const std::size_t at = buf.size() - sizeof(std::uint32_t);
  buf[at] = static_cast<std::uint8_t>(crc);
  buf[at + 1] = static_cast<std::uint8_t>(crc >> 8);
  buf[at + 2] = static_cast<std::uint8_t>(crc >> 16);
  buf[at + 3] = static_cast<std::uint8_t>(crc >> 24);
}

std::vector<std::uint8_t> make_template(std::uint32_t stack,
                                        std::size_t sites) {
  telemetry::Frame frame;
  frame.stack_id = stack;
  frame.readings.resize(sites);
  for (std::size_t i = 0; i < sites; ++i) {
    auto& r = frame.readings[i];
    r.site_index = i;
    r.die = i / ((sites + 3) / 4);
    r.location = {static_cast<double>(i % 32) * 0.1,
                  static_cast<double>(i / 32) * 0.1};
    r.sensed = Celsius{45.0 + static_cast<double>(stack % 9)};
    r.truth = Celsius{r.sensed.value() - 0.3};
    r.energy = Joule{1.5e-9};
  }
  return telemetry::encode(frame);
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct RunResult {
  double seconds = 0.0;
  bool delivered = false;
  std::int64_t clock_offset_ns = 0;
  std::uint64_t clock_samples = 0;
};

/// One loopback publish-ingest pass over the pre-encoded corpus.
RunResult run_workload(std::vector<std::vector<std::uint8_t>>& templates,
                       std::size_t scans) {
  ingest::IngestServer::Config server_cfg;
  server_cfg.shard_count = 2;
  server_cfg.shard_ring_capacity = 1 << 16;
  server_cfg.aggregator.spatial_check = false;
  ingest::IngestServer server(server_cfg);
  server.start();

  ingest::FleetPublisher::Config pub_cfg;
  pub_cfg.host = "127.0.0.1";
  pub_cfg.port = server.port();
  pub_cfg.batch_max_frames = 64;
  pub_cfg.batch_max_bytes = std::size_t{4} << 20;
  pub_cfg.queue_max_batches = 1 << 16;
  ingest::FleetPublisher pub(pub_cfg);

  const std::size_t total = templates.size() * scans;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t scan = 0; scan < scans; ++scan) {
    for (auto& tmpl : templates) {
      restamp(tmpl, scan, 1e-3 * static_cast<double>(scan), now_ns());
      pub.offer(std::vector<std::uint8_t>(tmpl));
    }
    pub.flush();
    while (!pub.pump()) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  RunResult run;
  for (int i = 0; i < 60'000; ++i) {
    if (server.stats().frames >= total) {
      run.delivered = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  run.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  // Acks trail the data: keep pumping (outside the timed window) until the
  // clock filter has at least one sample, so the offset gate reads a real
  // estimate instead of the never-acked default.
  for (int i = 0; i < 2'000 && pub.stats().clock_samples == 0; ++i) {
    (void)pub.pump();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const ingest::FleetPublisher::Stats st = pub.stats();
  run.clock_offset_ns = st.clock_offset_ns;
  run.clock_samples = st.clock_samples;
  pub.disconnect();
  server.stop();
  return run;
}

/// Split the flight recorder's events into two category-partitioned Chrome
/// dumps, re-merge them, and check the span counts reconcile exactly.
bool stitch_reconciles(std::size_t& merged_events) {
  const std::vector<obs::TraceEvent> events =
      obs::FlightRecorder::instance().snapshot();
  std::vector<obs::TraceEvent> pub_events;
  std::vector<obs::TraceEvent> other_events;
  for (const obs::TraceEvent& e : events) {
    (std::strcmp(e.category, "pub") == 0 ? pub_events : other_events)
        .push_back(e);
  }
  obs::TraceMerge merge;
  merge.add(obs::to_chrome_trace(pub_events), 0, "publisher");
  merge.add(obs::to_chrome_trace(other_events), 2'500'000, "server");
  const obs::TraceMerge::Result merged = merge.merge();
  merged_events = merged.total_events;
  return merged.events_per_input.size() == 2 &&
         merged.events_per_input[0] == pub_events.size() &&
         merged.events_per_input[1] == other_events.size() &&
         merged.total_events == events.size() && !events.empty();
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const std::size_t stacks = smoke ? 32 : 256;
  const std::size_t sites = smoke ? 32 : 256;
  const std::size_t scans = smoke ? 600 : 48;
  const int reps = smoke ? 3 : 5;
  const double gate = smoke ? 0.25 : 0.05;
  constexpr std::int64_t kOffsetGateNs = 2'000'000;  // +-2 ms on loopback

  bench::banner("A21", "distributed observability overhead + stitching");
  std::printf("mode: %s (%zu stacks x %zu sites x %zu scans, best-of-%d)\n\n",
              smoke ? "smoke" : "full", stacks, sites, scans, reps);

  std::vector<std::vector<std::uint8_t>> templates;
  templates.reserve(stacks);
  for (std::uint32_t s = 0; s < stacks; ++s) {
    templates.push_back(make_template(s, sites));
  }

  bool delivered = true;
  double best_on = 1e300;
  double best_off = 1e300;
  std::int64_t offset_ns = 0;
  std::uint64_t offset_samples = 0;
  for (int r = 0; r < reps; ++r) {
    for (const bool enabled : {true, false}) {
      obs::set_enabled(enabled);
      obs::Registry::instance().reset_values();
      if (enabled) obs::FlightRecorder::instance().clear();
      const RunResult run = run_workload(templates, scans);
      delivered = delivered && run.delivered;
      (enabled ? best_on : best_off) =
          std::min(enabled ? best_on : best_off, run.seconds);
      if (enabled) {
        // Keep the last enabled run's clock estimate (and its trace, for
        // the stitching check below).
        offset_ns = run.clock_offset_ns;
        offset_samples = run.clock_samples;
      }
    }
  }
  obs::set_enabled(true);

  const double overhead = best_on / best_off - 1.0;
  const bool overhead_ok = overhead <= gate;
  const bool clock_ok =
      offset_samples > 0 && offset_ns >= -kOffsetGateNs &&
      offset_ns <= kOffsetGateNs;
  std::size_t merged_events = 0;
  const bool stitch_ok = stitch_reconciles(merged_events);

  const double frames = static_cast<double>(stacks * scans);
  Table table{"loopback ingest, obs on vs off, 2 shards"};
  table.add_column("obs", 0);
  table.add_column("wall s", 4);
  table.add_column("frames/s", 1);
  table.add_row({1.0, best_on, frames / best_on});
  table.add_row({0.0, best_off, frames / best_off});
  bench::emit(table, "a21_trace_overhead");

  std::printf("overhead: %.2f%% (gate %.0f%%) %s\n", overhead * 100.0,
              gate * 100.0, overhead_ok ? "ok" : "FAILED");
  std::printf("clock offset: %lld ns over %llu samples (gate +-%lld ns) %s\n",
              static_cast<long long>(offset_ns),
              static_cast<unsigned long long>(offset_samples),
              static_cast<long long>(kOffsetGateNs),
              clock_ok ? "ok" : "FAILED");
  std::printf("trace stitch: %zu spans reconciled %s\n", merged_events,
              stitch_ok ? "ok" : "FAILED");

  return (delivered && overhead_ok && clock_ok && stitch_ok) ? 0 : 1;
}
