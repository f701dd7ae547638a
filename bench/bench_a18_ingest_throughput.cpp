// A18 [R]: sharded ingest service throughput and merge exactness.
//
// The distributed-ingestion claim is twofold: the TCP service sustains
// fleet-scale frame rates on loopback, and the cross-shard merge is *exact*
// — FleetView::digest() over the sharded run equals the digest of one big
// Aggregator fed the identical frames.  Each row replays the same synthetic
// corpus (full: 1024 stacks x 1024 sites x 4 scans = 4M site readings,
// >1M sites per scan) through an IngestServer with a different shard count
// and reports sustained frames/s, Msites/s, wire MB/s, and the p99
// end-to-end latency (producer encode -> shard aggregator) from the
// tsvpt_agg_e2e_latency_seconds histogram.
//
// Frames are pre-encoded once per stack and re-stamped per scan (sequence,
// sim_time, capture_ns + trailing CRC), so the producer side costs one CRC
// pass per frame — the bench measures the transport + shard pipeline, not
// readout simulation.  The baseline Aggregator ingests byte-identical
// frames modulo capture_ns, which the canonical serialization excludes, so
// digest equality is a real end-to-end check, not a tautology.
//
// --smoke shrinks the corpus (64 x 64 x 4) and the shard sweep for the CI
// gate; the acceptance bar is digest equality with zero loss on every row
// (full mode additionally demands the >=1k stacks / >=1M sites scale).
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/stack_monitor.hpp"
#include "ingest/fleet_view.hpp"
#include "ingest/publisher.hpp"
#include "ingest/server.hpp"
#include "obs/metrics.hpp"
#include "ptsim/table.hpp"
#include "telemetry/aggregator.hpp"
#include "telemetry/codec_util.hpp"
#include "telemetry/frame.hpp"

namespace {

using namespace tsvpt;

// Header offsets from the v2 wire layout (frame.hpp): the three fields a
// re-stamped scan changes, plus the trailing CRC.
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

/// Re-stamp a pre-encoded frame for one scan and fix its trailing CRC.
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

/// One deterministic template frame per stack; scans only re-stamp it.
/// A sparse set of stacks runs hot (over the 85C default threshold) so the
/// digest also covers alert merge, not just Welford stats.
std::vector<std::uint8_t> make_template(std::uint32_t stack,
                                        std::size_t sites) {
  telemetry::Frame frame;
  frame.stack_id = stack;
  frame.readings.resize(sites);
  const bool hot = stack % 97 == 3;
  for (std::size_t i = 0; i < sites; ++i) {
    auto& r = frame.readings[i];
    r.site_index = i;
    r.die = i / ((sites + 3) / 4);
    r.location = {static_cast<double>(i % 32) * 0.1,
                  static_cast<double>(i / 32) * 0.1};
    const double base = hot ? 86.5 : 45.0;
    r.sensed = Celsius{base + static_cast<double>(stack % 9) +
                       0.05 * static_cast<double>(i % 32)};
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

struct Corpus {
  std::size_t stacks = 0;
  std::size_t sites = 0;
  std::size_t scans = 0;
  std::vector<std::vector<std::uint8_t>> templates;  // one per stack

  [[nodiscard]] std::size_t frames() const { return stacks * scans; }
  [[nodiscard]] std::size_t wire_bytes() const {
    return frames() * templates.front().size();
  }
};

Corpus build_corpus(std::size_t stacks, std::size_t sites,
                    std::size_t scans) {
  Corpus c;
  c.stacks = stacks;
  c.sites = sites;
  c.scans = scans;
  c.templates.reserve(stacks);
  for (std::uint32_t s = 0; s < stacks; ++s) {
    c.templates.push_back(make_template(s, sites));
  }
  return c;
}

telemetry::Aggregator::Config agg_config() {
  telemetry::Aggregator::Config cfg;
  // Leave-one-out spatial checks are O(sites^2) per frame; this bench
  // measures the transport + merge pipeline, so keep the detector out of
  // the hot path (over-temperature alerts still exercise the alert merge).
  cfg.spatial_check = false;
  return cfg;
}

/// The ground truth every sharded row must reproduce byte for byte.
ingest::FleetView baseline_view(Corpus& corpus) {
  std::vector<telemetry::Alert> alerts;
  telemetry::Aggregator agg(
      agg_config(),
      [&](const telemetry::Alert& alert) { alerts.push_back(alert); });
  for (std::size_t scan = 0; scan < corpus.scans; ++scan) {
    for (auto& tmpl : corpus.templates) {
      restamp(tmpl, scan, 1e-3 * static_cast<double>(scan), 0);
      agg.ingest(tmpl);
    }
  }
  ingest::FleetView view;
  view.add_shard(agg.summary(), alerts);
  view.finalize();
  return view;
}

struct RowResult {
  double seconds = 0.0;
  double p99_ms = 0.0;
  std::uint64_t ring_drops = 0;
  std::uint64_t missed = 0;
  bool digest_ok = false;
  bool delivered = false;
};

RowResult run_row(Corpus& corpus, std::size_t shard_count,
                  std::uint32_t baseline_digest) {
  // Isolate this row's latency histogram from previous rows.
  obs::Registry::instance().reset_values();

  ingest::IngestServer::Config server_cfg;
  server_cfg.shard_count = shard_count;
  // Generous ring: loss would break the digest bar, and backpressure
  // behavior has its own tests — here we measure sustained throughput.
  server_cfg.shard_ring_capacity = 1 << 16;
  server_cfg.aggregator = agg_config();
  ingest::IngestServer server(server_cfg);
  server.start();

  ingest::FleetPublisher::Config pub_cfg;
  pub_cfg.host = "127.0.0.1";
  pub_cfg.port = server.port();
  pub_cfg.batch_max_frames = 64;
  pub_cfg.batch_max_bytes = std::size_t{4} << 20;
  pub_cfg.queue_max_batches = 1 << 16;  // never shed: exactness bar
  ingest::FleetPublisher pub(pub_cfg);

  const std::size_t total = corpus.frames();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t scan = 0; scan < corpus.scans; ++scan) {
    for (auto& tmpl : corpus.templates) {
      restamp(tmpl, scan, 1e-3 * static_cast<double>(scan), now_ns());
      pub.offer(std::vector<std::uint8_t>(tmpl));
    }
    pub.flush();
    while (!pub.pump()) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  RowResult row;
  for (int i = 0; i < 60'000; ++i) {
    if (server.stats().frames >= total) {
      row.delivered = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pub.disconnect();
  server.stop();  // drains the shard rings before returning
  row.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const ingest::IngestServer::Stats stats = server.stats();
  row.ring_drops = stats.ring_drops;
  ingest::FleetView view = server.fleet_view();
  row.missed = view.missed();
  row.digest_ok = row.delivered && view.digest() == baseline_digest &&
                  stats.ring_drops == 0 && view.missed() == 0;

  for (const auto& h : obs::Registry::instance().snapshot().histograms) {
    if (h.name == "tsvpt_agg_e2e_latency_seconds") row.p99_ms = h.p99 * 1e3;
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const std::size_t stacks = smoke ? 64 : 1024;
  const std::size_t sites = smoke ? 64 : 1024;
  const std::size_t scans = 4;
  const std::vector<std::size_t> shard_counts =
      smoke ? std::vector<std::size_t>{1, 2}
            : std::vector<std::size_t>{1, 2, 4, 8};

  bench::banner("A18", "sharded ingest throughput and merge exactness");
  std::printf("mode: %s (%zu stacks x %zu sites x %zu scans)\n\n",
              smoke ? "smoke" : "full", stacks, sites, scans);

  Corpus corpus = build_corpus(stacks, sites, scans);
  const ingest::FleetView baseline = baseline_view(corpus);
  const std::uint32_t want = baseline.digest();

  Table table{"loopback TCP, batched frames, digest vs single Aggregator"};
  table.add_column("shards", 0);
  table.add_column("frames", 0);
  table.add_column("Msites", 2);
  table.add_column("wire MB", 1);
  table.add_column("seconds", 3);
  table.add_column("frames/s", 0);
  table.add_column("Msites/s", 2);
  table.add_column("MB/s", 1);
  table.add_column("p99 ms", 3);
  table.add_column("digest", 3);

  bool all_ok = true;
  const double msites =
      static_cast<double>(corpus.frames() * sites) / 1e6;
  const double wire_mb = static_cast<double>(corpus.wire_bytes()) / 1e6;
  for (const std::size_t shard_count : shard_counts) {
    const RowResult row = run_row(corpus, shard_count, want);
    all_ok = all_ok && row.digest_ok;
    table.add_row({static_cast<double>(shard_count),
                   static_cast<double>(corpus.frames()), msites, wire_mb,
                   row.seconds,
                   static_cast<double>(corpus.frames()) / row.seconds,
                   msites / row.seconds, wire_mb / row.seconds, row.p99_ms,
                   std::string{row.digest_ok ? "match" : "MISMATCH"}});
  }
  bench::emit(table, "a18_ingest_throughput");

  // Full mode must demonstrate the paper-scale claim: >=1k stacks with
  // >=1M sites in flight per scan, merged exactly.
  const bool scale_ok = smoke || (stacks >= 1024 && stacks * sites >= 1'000'000);
  std::printf("acceptance: digest %s, scale %s\n",
              all_ok ? "ok" : "FAILED", scale_ok ? "ok" : "FAILED");
  return (all_ok && scale_ok) ? 0 : 1;
}
