// tsvpt_perfbench: one workload per process.
//
//   tsvpt_perfbench --workload physics_pipeline|ingest_fanin|dtm_chaos
//                   --seed N --seconds S --trace 0|1 [--smoke 1]
//                   [--work-dir DIR]
//   tsvpt_perfbench --corpus-crc N --seed S
//       CRC-32 of the first N ingest_fanin frames (the tests' purity probe).
//
// --trace 0 prints the end-to-end metrics of untraced runs (obs off);
// --trace 1 prints the per-layer table of a traced run plus the tracing
// overhead.  Human-readable lines come first; the last line of stdout is
// the JSON result {"correct", "attempted", "failed", "metrics"}.  Exit 0
// whenever a result was printed (correct or not), 1 on a usage or runtime
// error.
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <sstream>

#include "ptsim/args.hpp"
#include "telemetry/frame.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Metric;
using perfbench::Result;

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// What a user of the pipeline sees: reported by every workload.
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"frames_per_s", "frames/s"},
    {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"},
    {"peak_rss_mb", "MB"},
    {"sense_err_3sigma_c", "degC"},
    {"conv_energy_pj", "pJ"},
};

/// The layer table of a traced run.  A workload that bypasses a layer
/// reports 0 there, marked n/a in the printed table.
const std::vector<MetricSpec> kPerLayer = {
    {"setup.build_s", "s"},
    {"setup.rss_per_stack_mb", "MB"},
    {"proc.involuntary_switches", "count"},
    {"proc.threads", "count"},
    {"gen.lateness_ms_p99", "ms"},
    {"thermal.advance_s", "s"},
    {"core.convert_s", "s"},
    {"core.convert_us", "us"},
    {"core.scan_us_p99", "us"},
    {"sampler.scan_us_p50", "us"},
    {"sampler.scan_us_p99", "us"},
    {"sampler.advance_sample_s", "s"},
    {"core.supervise_decide_s", "s"},
    {"core.sampled_ratio", "ratio"},
    {"core.health_transitions", "count"},
    {"control.decisions", "count"},
    {"control.actuations", "count"},
    {"control.migrations", "count"},
    {"control.energy_j", "J"},
    {"control.violation_s", "s"},
    {"inject.faults", "count"},
    {"telemetry.encode_s", "s"},
    {"telemetry.ring_push_s", "s"},
    {"telemetry.ring_drops", "count"},
    {"telemetry.agg_ingest_s", "s"},
    {"telemetry.agg_ingest_us_p99", "us"},
    {"telemetry.alerts", "count"},
    {"ingest.ring_to_seal_ms_p50", "ms"},
    {"ingest.seal_to_wire_ms_p99", "ms"},
    {"ingest.shard_to_ingest_ms_p99", "ms"},
    {"ingest.send_s", "s"},
    {"ingest.frames_per_batch", "frames"},
    {"ingest.offer_us_p99", "us"},
    {"ingest.pump_us_p99", "us"},
    {"ingest.backpressure_stalls", "count"},
    {"ingest.queue_drops", "count"},
    {"ingest.retransmits", "count"},
    {"ingest.duplicates", "count"},
    {"ingest.shard_ring_drops", "count"},
    {"net.wire_to_shard_ms_p50", "ms"},
    {"net.wire_to_shard_ms_p99", "ms"},
    {"net.bytes_per_frame", "B"},
    {"store.seal_s", "s"},
    {"store.seal_ms_p99", "ms"},
    {"store.fsyncs", "count"},
    {"store.fsync_ms_p99", "ms"},
    {"store.compression_ratio", "ratio"},
    {"store.index_s", "s"},
    {"store.query_s", "s"},
    {"store.replay_s", "s"},
    {"store.replay_frames_per_s", "frames/s"},
    {"store.block_decode_s", "s"},
    {"store.blocks_skipped_ratio", "ratio"},
    {"obs.overhead_ratio", "ratio"},
};

std::string json_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// The workload's metrics in `specs` order.  A per-layer row the workload
/// never reported is n/a; a missing end-to-end metric or a unit mismatch
/// is a bug in the workload and throws.
std::vector<Metric> select(const Result& result,
                           const std::vector<MetricSpec>& specs,
                           bool missing_is_na) {
  std::map<std::string, Metric> by_name;
  for (const Metric& m : result.metrics) by_name[m.name] = m;
  std::vector<Metric> out;
  for (const MetricSpec& spec : specs) {
    const auto it = by_name.find(spec.name);
    if (it == by_name.end()) {
      if (!missing_is_na) {
        throw std::logic_error{std::string{"workload did not report "} +
                               spec.name};
      }
      out.push_back(Metric{spec.name, 0.0, spec.unit,
                           "n/a: the workload does not run this layer"});
      continue;
    }
    if (it->second.unit != spec.unit) {
      throw std::logic_error{std::string{"unit mismatch for "} + spec.name};
    }
    out.push_back(it->second);
    by_name.erase(it);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const tsvpt::Args args{argc - 1, argv + 1};
    args.check_known({"workload", "seed", "seconds", "trace", "smoke",
                      "work-dir", "corpus-crc"});
    if (args.has("corpus-crc")) {
      // Test hook: CRC-32 of the first N ingest_fanin frames for --seed.
      perfbench::FanInGenerator generator{
          static_cast<std::uint64_t>(args.get("seed", 1LL))};
      std::vector<std::uint8_t> bytes;
      tsvpt::telemetry::Frame frame;
      for (long long i = 0; i < args.get("corpus-crc", 0LL); ++i) {
        generator.next(frame);
        const std::vector<std::uint8_t> wire = tsvpt::telemetry::encode(frame);
        // Each frame ends in its own CRC, and a CRC run over data followed
        // by its CRC ends in a fixed state: hash the bodies only.
        bytes.insert(bytes.end(), wire.begin(), wire.end() - 4);
      }
      std::printf("%08x\n", tsvpt::telemetry::crc32(bytes.data(), bytes.size()));
      return 0;
    }
    perfbench::Options options;
    options.workload = args.get("workload", std::string{});
    options.seed = static_cast<std::uint64_t>(args.get("seed", 1LL));
    options.seconds = args.get("seconds", 10.0);
    options.trace = args.get("trace", 0LL) != 0;
    options.smoke = args.get("smoke", 0LL) != 0;
    options.work_dir = args.get("work-dir", std::string{"."});
    if (options.seconds <= 0.0) {
      throw std::invalid_argument{"--seconds must be positive"};
    }
    std::filesystem::create_directories(options.work_dir);

    Result result;
    if (options.workload == "physics_pipeline") {
      result = perfbench::run_physics_pipeline(options);
    } else if (options.workload == "ingest_fanin") {
      result = perfbench::run_ingest_fanin(options);
    } else if (options.workload == "dtm_chaos") {
      result = perfbench::run_dtm_chaos(options);
    } else {
      throw std::invalid_argument{"unknown --workload '" + options.workload +
                                  "'"};
    }

    const std::vector<Metric> metrics =
        options.trace ? select(result, kPerLayer, true)
                      : select(result, kEndToEnd, false);
    for (const std::string& line : result.notes) std::cout << line << "\n";
    std::cout << "\n| metric | value | unit | source |\n|---|---|---|---|\n";
    for (const Metric& m : metrics) {
      const bool na = m.source.rfind("n/a", 0) == 0;
      std::cout << "| " << m.name << " | "
                << (na ? std::string{"n/a"} : json_number(m.value)) << " | "
                << m.unit << " | " << m.source << " |\n";
    }
    std::ostringstream json;
    json << "{\"correct\": " << (result.correct ? "true" : "false")
         << ", \"attempted\": " << result.attempted
         << ", \"failed\": " << result.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      json << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
           << "\": {\"value\": " << json_number(metrics[i].value)
           << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
    json << "}}";
    std::cout << "\n" << json.str() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "tsvpt_perfbench: " << e.what() << "\n";
    return 1;
  }
}
