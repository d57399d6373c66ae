//! The benchmark's registry: workloads, end-to-end metrics (tracing off)
//! and per-layer metrics (traced run), each with the reason it exists.
//! `BENCHMARK.json` is printed from this table (`--manifest`), so the
//! two cannot drift apart.

use std::collections::BTreeMap;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 3] = [
    WorkloadDef {
        name: "train-replica",
        why: "FB15K-like, ComplEx r64, 2 ranks, paper's combined DRS+RS+1-bit EF+RP+SS: kernels, kge-compress, RP and \
              simgrid collectives do the work; shard and kge-serve idle",
    },
    WorkloadDef {
        name: "train-sharded",
        why: "FB250K-like x0.05, ComplEx r32, 2 ranks, sharded all-gather with hot cache and Dynamic prefetch: same \
              kernels behind p2p pull/push; kge-compress idle",
    },
    WorkloadDef {
        name: "serve",
        why: "131072x128 ComplEx table, Zipf queries, open-loop Poisson arrivals, a snapshot published every simulated \
              second: top-k sweep reads and publish writes on one layer",
    },
];

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
    pub why: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    why: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        why,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    why: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        why,
    }
}

/// Reported by every workload with tracing off. Each names the quantity a
/// user of that workload waits on or pays for, in one unit across the
/// three workloads. Ranking and sweep throughput (eval_candidates_per_s)
/// stays out of this gated table: its short single-thread passes spread
/// past any allowed bound across runs on a shared host; the result files
/// and the per-layer table report it.
pub const END_TO_END: [MetricDef; 3] = [
    e2e(
        "setup_s",
        "s",
        "lower",
        0.25,
        "median of 3 set-ups: input generation and filter indexes (train-*); tables, arrival schedules, first \
         snapshot and a warm-up drain (serve). Largest bound, so work moved into set-up shows",
    ),
    e2e(
        "work_per_s",
        "1/s",
        "higher",
        0.24,
        "train-*: positive triples trained per host second of kge_train::train; serve: queries answered per host \
         second of drain+publish work at the reference rate",
    ),
    e2e(
        "peak_rss_mb",
        "MB",
        "lower",
        0.15,
        "VmHWM of the process after one pass of the workload (train-*: set-ups, one train call and the \
         ranking; serve: set-ups and the rate ladder), before any timing repeats",
    ),
];

/// Reported by the traced run. A layer that does no work on a workload
/// reports 0 there (its busy time and counts are zero).
#[rustfmt::skip]
pub const PER_LAYER: [MetricDef; 60] = [
    layer("kge-data.generate_s", "s", "lower", "synthetic input generation; moves setup_s (train-sharded most)"),
    layer("kge-data.filter_build_s", "s", "lower", "FilterIndex::build; moves setup_s and train() start-up"),
    layer("kge-partition.split_ms", "ms", "lower", "partition_for (RP on train-replica); moves train() start-up"),
    layer("kge-partition.shard_imbalance", "ratio", "lower", "max/mean triples per rank; idle time in sim_epoch_s"),
    layer("kge-partition.owners_ms", "ms", "lower", "entity_owners on train-sharded"),
    layer("kge-core.batch_grad_p50_ms", "ms", "lower", "BatchWorkspace::batch_gradients_into per batch, median"),
    layer("kge-core.batch_grad_p90_ms", "ms", "lower", "BatchWorkspace::batch_gradients_into per batch, p90"),
    layer("kge-core.examples_per_s", "1/s", "higher", "positives+negatives through the fused kernel per host s"),
    layer("kge-core.adam_step_ms", "ms", "lower", "AdamOptimizer::step_lazy (entity+relation) per batch, median"),
    layer("kge-compress.select_us", "us", "lower", "select_rows (RS) per batch, median"),
    layer("kge-compress.quantize_us", "us", "lower", "quantize_row_into over a batch's rows, median"),
    layer("kge-compress.encode_us", "us", "lower", "encode_rows per batch, median"),
    layer("kge-compress.decode_us", "us", "lower", "decode_rows + accumulate of both ranks' payloads, median"),
    layer("kge-compress.rows_kept_ratio", "ratio", "lower", "rows sent over nonzero gradient rows (RS)"),
    layer("kge-compress.wire_bytes_per_row", "B", "lower", "encoded bytes per entity row on the wire"),
    layer("simgrid.allreduce_us", "us", "lower", "host time of a dense 2-rank allreduce_sum_f32 per batch"),
    layer("simgrid.allgather_us", "us", "lower", "host time of a 2-rank allgatherv_bytes_into per batch"),
    layer("simgrid.p2p_us", "us", "lower", "host time of send/recv at the sharded pull+push payload per batch"),
    layer("simgrid.sim_compute_s", "sim_s", "lower", "rank 0 simulated compute seconds per epoch"),
    layer("simgrid.sim_comm_s", "sim_s", "lower", "rank 0 simulated visible communication seconds per epoch"),
    layer("simgrid.sim_idle_s", "sim_s", "lower", "rank 0 simulated idle seconds per epoch"),
    layer("simgrid.sim_hidden_comm_s", "sim_s", "higher", "communication seconds hidden behind compute per epoch"),
    layer("simgrid.wire_bytes_per_epoch", "B", "lower", "collective wire bytes sent, all ranks, per epoch"),
    layer("kge-train.sim_epoch_s", "sim_s", "lower", "sim_total_seconds / epochs, the paper's epoch time"),
    layer("kge-train.traced_work_per_s", "1/s", "higher", "work_per_s of the traced run's own train() call"),
    layer("kge-train.valid_probe_ms", "ms", "lower", "fast_valid_accuracy once per epoch"),
    layer("kge-train.allgather_epoch_share", "ratio", "higher", "epochs DRS ran on all-gather"),
    layer("kge-train.unattributed_share", "ratio", "lower", "1 - replayed layer time per epoch / measured epoch wall"),
    layer("kge-train.shard.cache_hit_rate", "ratio", "higher", "hot-cache hits over lookups"),
    layer("kge-train.shard.pull_bytes_per_epoch", "B", "lower", "ShardPull wire bytes per epoch, all ranks"),
    layer("kge-train.shard.push_bytes_per_epoch", "B", "lower", "ShardPush wire bytes per epoch, all ranks"),
    layer("kge-train.shard.pull_lane_s", "sim_s", "lower", "slowest rank's pull-lane occupancy per epoch"),
    layer("kge-train.shard.hidden_pull_share", "ratio", "higher", "pull-lane seconds hidden by the prefetch ring"),
    layer("kge-train.shard.hidden_push_share", "ratio", "higher", "push-lane seconds hidden by the prefetch ring"),
    layer("kge-train.shard.prefetch_epoch_share", "ratio", "higher", "epochs the Dynamic arm ran on the ring"),
    layer("kge-train.shard.resident_fraction", "ratio", "lower", "per-rank resident model bytes over the replica's"),
    layer("kge-train.shard.rank_state_mb", "MB", "lower", "largest per-rank resident model + optimizer state"),
    layer("kge-train.shard.unattributed_share", "ratio", "lower", "unattributed_share of the sharded replay"),
    layer("kge-eval.transpose_ms", "ms", "lower", "TransposedTable::build of the trained entity table"),
    layer("kge-eval.sweep_candidates_per_s", "1/s", "higher", "candidates per host s of the traced ranking sweep"),
    layer("kge-eval.final_mrr", "ratio", "higher", "filtered MRR of the trained model on the fixed test sample"),
    layer("kge-serve.p50_ms", "ms", "lower", "query latency from due time at the reference rate, median"),
    layer("kge-serve.p99_ms", "ms", "lower", "query latency from due time at the reference rate, p99"),
    layer("kge-serve.p99_samples", "count", "higher", "queries behind the reference-rate percentiles"),
    layer("kge-serve.slo_qps", "1/s", "higher", "highest ladder rate meeting the p99 limit without a growing backlog"),
    layer("kge-serve.drain_p50_ms", "ms", "lower", "ServeEngine::drain host time, median"),
    layer("kge-serve.drain_tail_ms", "ms", "lower", "drain host time at the highest percentile with 10 beyond"),
    layer("kge-serve.us_per_query_b1", "us", "lower", "drain time per query, batches of 1"),
    layer("kge-serve.us_per_query_b2_7", "us", "lower", "drain time per query, batches of 2-7"),
    layer("kge-serve.us_per_query_b8plus", "us", "lower", "drain time per query, batches of 8 or more"),
    layer("kge-serve.queue_wait_p50_ms", "ms", "lower", "latency minus the query's own drain, median"),
    layer("kge-serve.queue_wait_p99_ms", "ms", "lower", "latency minus the query's own drain, p99"),
    layer("kge-serve.mean_batch", "count", "higher", "queries per drain at the reference rate"),
    layer("kge-serve.publish_p50_ms", "ms", "lower", "SnapshotHub::publish_tables host time, median"),
    layer("kge-serve.publish_max_ms", "ms", "lower", "SnapshotHub::publish_tables host time, max"),
    layer("kge-serve.install_us", "us", "lower", "SnapshotHub::latest + ServeEngine::install, median"),
    layer("kge-serve.oracle_match_ratio", "ratio", "higher", "sampled answers equal to ServeEngine::oracle"),
    layer("bench.tracing_overhead_share", "ratio", "lower", "traced over untraced time of one call each, - 1; spans sit outside the calls, so mostly host noise"),
    layer("bench.failed_share", "ratio", "lower", "failed checks over attempted checks"),
    layer("bench.peak_rss_mb", "MB", "lower", "VmHWM of the whole traced run, repeats and replay included"),
];

/// Named values a run collects; only registered names are accepted.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .any(|m| m.name == name),
            "unregistered metric {name}"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The result object's `metrics` for one table: every registered name,
    /// 0 for a layer that did no work in this workload. A missing
    /// end-to-end metric is a bug in the workload.
    pub fn render(&self, table: &[MetricDef]) -> String {
        let mut parts = Vec::with_capacity(table.len());
        for m in table {
            let v = match (self.get(m.name), m.bound) {
                (Some(v), _) => v,
                (None, None) => 0.0,
                (None, Some(_)) => panic!("end-to-end metric {} not measured", m.name),
            };
            // `+ 0.0` turns the -0.0 of an empty float sum into 0.0.
            let v = if v.is_finite() { v + 0.0 } else { 0.0 };
            parts.push(format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                num(v),
                m.unit
            ));
        }
        format!("{{{}}}", parts.join(","))
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
pub fn num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// `BENCHMARK.json`, built from the tables above.
pub fn manifest(run_seconds: u64) -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quote(w.name),
                quote(w.why)
            )
        })
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better),
                m.bound.expect("end-to-end metrics carry a bound")
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \
         \"perfbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": {run_seconds},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn registry_obeys_the_manifest_rules() {
        let mut seen = std::collections::HashSet::new();
        for w in &WORKLOADS {
            assert!(
                valid_name(w.name) && w.why.len() <= 200 && seen.insert(w.name),
                "{}",
                w.name
            );
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(
                m.unit.len() <= 16 && matches!(m.better, "higher" | "lower"),
                "{}",
                m.name
            );
            assert!(m.bound.is_none_or(|b| b > 0.0 && b <= 0.25), "{}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .and_then(|m| m.bound);
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup),
            "setup_s has the largest bound"
        );
    }

    #[test]
    fn render_fills_idle_layers_with_zero() {
        let mut m = Metrics::default();
        m.set("kge-data.generate_s", 1.5);
        let out = m.render(&PER_LAYER);
        assert!(out.contains("\"kge-data.generate_s\":{\"value\":1.5,\"unit\":\"s\"}"));
        assert!(out.contains("\"kge-serve.p50_ms\":{\"value\":0.0,\"unit\":\"ms\"}"));
    }
}
