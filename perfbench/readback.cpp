// Pieces physics_pipeline and ingest_fanin share: the historian read-back
// step, FleetView folding and failure counting, and the per-layer rows of
// the transport and store layers both workloads cross.
#include <optional>

#include "obs/stages.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace tsvpt;

ingest::FleetView view_of(const telemetry::Aggregator& aggregator,
                          const std::vector<telemetry::Alert>& alerts) {
  ingest::FleetView view;
  view.add_shard(aggregator.summary(), alerts);
  view.finalize();
  return view;
}

std::uint64_t failed_frames(const ingest::FleetView& view,
                            const std::vector<std::uint64_t>& expected) {
  std::uint64_t failed = view.decode_errors();
  for (std::size_t k = 0; k < expected.size(); ++k) {
    const auto it = view.stacks().find(static_cast<std::uint32_t>(k));
    const std::uint64_t got = it == view.stacks().end() ? 0 : it->second.frames;
    failed += got > expected[k] ? got - expected[k] : expected[k] - got;
  }
  return failed;
}

Readback read_back(const std::string& dir,
                   const telemetry::Aggregator::Config& config,
                   SpanLog* spans) {
  Readback out;
  std::uint64_t t = now_ns();
  std::optional<store::StoreReader> reader;
  {
    const ScopedSpan span{spans, "store", "index"};
    reader.emplace(dir);
  }
  out.index_s = seconds_between(t, now_ns());
  out.stats = reader->stats();

  // Middle half of the stored time span, every fourth stack.
  store::StoreReader::Query query;
  const double width = out.stats.t_max - out.stats.t_min;
  query.t_min = out.stats.t_min + 0.25 * width;
  query.t_max = out.stats.t_min + 0.75 * width;
  for (std::size_t i = 0; i < out.stats.stack_ids.size(); i += 4) {
    query.stack_ids.push_back(out.stats.stack_ids[i]);
  }
  t = now_ns();
  {
    const ScopedSpan span{spans, "store", "query"};
    (void)reader->query(query);
  }
  out.query_s = seconds_between(t, now_ns());

  std::vector<telemetry::Alert> alerts;
  telemetry::Aggregator aggregator{
      config, [&alerts](const telemetry::Alert& a) { alerts.push_back(a); }};
  t = now_ns();
  {
    const ScopedSpan span{spans, "store", "replay"};
    out.replayed_frames =
        reader->replay(store::StoreReader::Query{}, aggregator).frames_replayed;
  }
  out.replay_s = seconds_between(t, now_ns());
  out.replayed = view_of(aggregator, alerts);
  return out;
}

void add_transport_layers(Result& result, const RegistryView& reg,
                          std::uint64_t frames) {
  const auto ms = [](double s) { return s * 1e3; };
  const auto count = [&reg](const char* name) {
    return static_cast<double>(reg.counter(name));
  };
  const auto& agg = reg.histogram("tsvpt_agg_ingest_seconds");
  result.add("telemetry.agg_ingest_s", agg.sum, "s",
             "tsvpt_agg_ingest_seconds sum");
  result.add("telemetry.agg_ingest_us_p99", agg.p99 * 1e6, "us",
             "tsvpt_agg_ingest_seconds p99");
  result.add("telemetry.alerts", count("tsvpt_agg_alerts_total"), "count",
             "tsvpt_agg_alerts_total");
  result.add("ingest.ring_to_seal_ms_p50",
             ms(reg.stage(obs::kStageRingToSeal).p50), "ms",
             "tsvpt_stage_latency_seconds{stage=ring_to_seal} p50");
  result.add("ingest.seal_to_wire_ms_p99",
             ms(reg.stage(obs::kStageSealToWire).p99), "ms",
             "tsvpt_stage_latency_seconds{stage=seal_to_wire} p99");
  result.add("ingest.shard_to_ingest_ms_p99",
             ms(reg.stage(obs::kStageShardToIngest).p99), "ms",
             "tsvpt_stage_latency_seconds{stage=shard_to_ingest} p99");
  result.add("ingest.send_s", reg.histogram("tsvpt_pub_send_seconds").sum,
             "s", "tsvpt_pub_send_seconds sum");
  const double batches = count("tsvpt_pub_batches_total");
  result.add("ingest.frames_per_batch",
             batches == 0.0 ? 0.0 : count("tsvpt_pub_frames_total") / batches,
             "frames", "tsvpt_pub_frames_total / tsvpt_pub_batches_total");
  result.add("ingest.backpressure_stalls",
             count("tsvpt_pub_backpressure_stalls_total"), "count",
             "tsvpt_pub_backpressure_stalls_total");
  result.add("ingest.queue_drops", count("tsvpt_pub_queue_drops_total"),
             "count", "tsvpt_pub_queue_drops_total");
  result.add("ingest.retransmits", count("tsvpt_pub_retransmits_total"),
             "count", "tsvpt_pub_retransmits_total");
  result.add("ingest.duplicates", count("tsvpt_ingest_duplicates_total"),
             "count", "tsvpt_ingest_duplicates_total");
  result.add("ingest.shard_ring_drops", count("tsvpt_ingest_ring_drops_total"),
             "count", "tsvpt_ingest_ring_drops_total");
  const auto& wire = reg.stage(obs::kStageWireToShard);
  result.add("net.wire_to_shard_ms_p50", ms(wire.p50), "ms",
             "tsvpt_stage_latency_seconds{stage=wire_to_shard} p50");
  result.add("net.wire_to_shard_ms_p99", ms(wire.p99), "ms",
             "tsvpt_stage_latency_seconds{stage=wire_to_shard} p99");
  result.add("net.bytes_per_frame",
             frames == 0 ? 0.0
                         : count("tsvpt_ingest_bytes_total") /
                               static_cast<double>(frames),
             "B", "tsvpt_ingest_bytes_total / frames");
  const auto& seal = reg.histogram("tsvpt_store_block_seal_seconds");
  result.add("store.seal_s", seal.sum, "s",
             "tsvpt_store_block_seal_seconds sum (server IO thread)");
  result.add("store.seal_ms_p99", ms(seal.p99), "ms",
             "tsvpt_store_block_seal_seconds p99");
  result.add("store.fsyncs", count("tsvpt_store_fsyncs_total"), "count",
             "tsvpt_store_fsyncs_total");
  result.add("store.fsync_ms_p99",
             ms(reg.histogram("tsvpt_store_fsync_seconds").p99), "ms",
             "tsvpt_store_fsync_seconds p99");
}

void add_readback_layers(Result& result, const RegistryView& reg,
                         const Readback& rb) {
  result.add("store.compression_ratio", rb.stats.compression_ratio(), "ratio",
             "StoreStats bytes_raw / bytes_on_disk");
  result.add("store.index_s", rb.index_s, "s", "span: StoreReader construction");
  result.add("store.query_s", rb.query_s, "s", "span: StoreReader::query");
  result.add("store.replay_s", rb.replay_s, "s", "span: StoreReader::replay");
  result.add("store.replay_frames_per_s",
             static_cast<double>(rb.replayed_frames) / rb.replay_s, "frames/s",
             "replayed frames / span: StoreReader::replay");
  result.add("store.block_decode_s",
             reg.histogram("tsvpt_store_block_decode_seconds").sum, "s",
             "tsvpt_store_block_decode_seconds sum");
  const double decoded =
      static_cast<double>(reg.counter("tsvpt_store_blocks_decoded_total"));
  const double skipped =
      static_cast<double>(reg.counter("tsvpt_store_blocks_skipped_total"));
  result.add("store.blocks_skipped_ratio",
             decoded + skipped == 0.0 ? 0.0 : skipped / (decoded + skipped),
             "ratio",
             "tsvpt_store_blocks_skipped_total / blocks visited");
}

}  // namespace perfbench
