//! Diagnostic profile of the parallel IBWJ engine: where worker wall-clock
//! time goes (task acquisition, result generation, index update, propagation,
//! idle back-off, merging) as the number of threads grows, plus the lock-free
//! task ring's contention counters (claim-CAS retries, ingest-token and
//! drain-token collisions, idle back-off stage mix).
//!
//! This binary is not tied to a specific paper figure; it backs the
//! engine-scaling notes in `docs/ARCHITECTURE.md` and is the tool used to verify
//! that task distribution and edge-tuple bookkeeping stay off the per-tuple
//! critical path. Sweep the ring itself with `--ring-cap= --ingest-target=
//! --spin= --yield= --park-us=`, the batched CSS group probe's prefetch
//! lookahead with `--prefetch-dist=`, and the sharded ring layer with
//! `--shards= --steal-batch= --steal-threshold=` (shards > 1 routes
//! ingestion by key range and reports steal/remote-traffic counters).
//! `--partition-index=on` additionally partitions the index and window state
//! per shard (the `ShardStore` layer) and reports its probe fan-out and
//! simulated store-traffic counters. `--repartition=on` (with
//! `--migration-mode=epoch|incremental` and `--handoff-budget=`) turns on
//! drift-driven repartitioning and reports the migration columns (mode,
//! epochs, handoff steps, worst stall); `--arrival-rate=` paces ingestion
//! open-loop and reports the arrival-latency tail (p99).
//!
//! The engine flight recorder is always armed here (at least `counters`
//! mode; `--telemetry=full` adds phase histograms). After each CSV row the
//! binary renders the recorder's per-phase table (events, time, percent of
//! recorded time, mean) and a per-shard gauge table from the final sample
//! of a short-interval JSONL trace — ring occupancy per shard, unindexed
//! suffix and window sizes, drift imbalance — as `#`-prefixed comment lines
//! so CSV consumers are unaffected. `--telemetry-out=PATH` keeps the traces
//! (one per swept thread count, at `PATH.<threads>t`); without it the trace
//! goes to a scratch file that is removed after rendering.

use pimtree_bench::harness::*;
use pimtree_common::{IndexKind, JoinConfig, MigrationMode, TelemetryMode};
use pimtree_join::{ParallelIbwj, SharedIndexKind};
use pimtree_numa::RangePartitioner;
use pimtree_telemetry::{EnginePhase, TelemetryReport};
use pimtree_workload::KeyDistribution;

fn main() {
    let opts = RunOpts::parse(18, 18);
    let w = 1usize << opts.max_exp;
    let n = opts.tuples_for(w);
    let (tuples, predicate) = two_way_workload(
        n + 2 * w,
        w,
        2.0,
        KeyDistribution::uniform(),
        50.0,
        opts.seed,
    );

    print_header(
        "engine_profile",
        &format!(
            "parallel IBWJ phase breakdown and ring contention (w = 2^{}, {} tuples, task size {}, ring {:?}, probe {:?}, shard {:?})",
            opts.max_exp,
            tuples.len(),
            opts.task_size,
            opts.ring(),
            opts.probe(),
            opts.shard()
        ),
        &[
            "threads",
            "mtps",
            "acquire_pct",
            "generate_pct",
            "update_pct",
            "propagate_pct",
            "idle_pct",
            "merges",
            "merge_ms",
            "mean_latency_us",
            "loaded_mb",
            "recorder_events",
            "claim_retries_per_task",
            "mean_task_size",
            "ingest_contended",
            "drain_contended",
            "idle_spin",
            "idle_yield",
            "idle_park",
            "probe_batches",
            "mean_probe_batch",
            "probe_dedup_rate",
            "nodes_prefetched",
            "simd_search_rate",
            "shards",
            "steal_tasks",
            "stolen_tuples",
            "steal_fraction",
            "shard_remote_fraction",
            "shard_full_stalls",
            "partition_index",
            "store_shards",
            "mean_probe_fanout",
            "single_shard_probes",
            "store_remote_fraction",
            "simulated_store_cost",
            "migration_mode",
            "migration_epochs",
            "handoff_steps",
            "max_stall_us",
            "arrival_p99_us",
        ],
    );
    let mut sweep = vec![1, 2, 4, 8];
    if opts.threads > 0 && !sweep.contains(&opts.threads) {
        sweep.push(opts.threads);
    }
    // One partitioner for the whole sweep, from a bounded strided key
    // subsample — the partitioner only needs N − 1 quantiles, not every key.
    let partitioner = (opts.shards > 1).then(|| {
        let step = (tuples.len() / 4096).max(1);
        let sample: Vec<i64> = tuples.iter().step_by(step).map(|t| t.key).collect();
        RangePartitioner::from_key_sample(opts.shards, &sample)
    });
    // The profiler's whole point is attribution, so the flight recorder is
    // always at least in `counters` mode here; `--telemetry=full` upgrades.
    let telemetry_mode = if opts.telemetry == TelemetryMode::Off {
        TelemetryMode::Counters
    } else {
        opts.telemetry
    };
    let trace_base = telemetry_out_from_args();
    for threads in sweep {
        let mut config = JoinConfig::symmetric(w, IndexKind::PimTree)
            .with_threads(threads)
            .with_task_size(opts.task_size)
            .with_pim(pim_config(w))
            .with_ring(opts.ring())
            .with_probe(opts.probe())
            .with_shard(opts.shard())
            .with_drift(opts.drift())
            .with_telemetry(opts.telemetry().with_mode(telemetry_mode));
        config.window_r = w;
        config.window_s = w;
        let trace_path = match &trace_base {
            Some(base) => format!("{base}.{threads}t"),
            None => std::env::temp_dir()
                .join(format!("engine_profile_trace_{threads}t.jsonl"))
                .to_string_lossy()
                .into_owned(),
        };
        let mut op = ParallelIbwj::new(config, predicate, SharedIndexKind::PimTree, false)
            .with_telemetry_out(&trace_path);
        if let Some(p) = &partitioner {
            op = op.with_partitioner(p.clone());
        }
        if opts.arrival_rate > 0.0 {
            op = op.with_open_loop(opts.arrival_rate);
        }
        let (stats, _) = op.run_with_warmup(&tuples, (2 * w).min(tuples.len() / 2));
        let total = stats.phase.total().as_secs_f64().max(1e-12);
        let pct = |d: std::time::Duration| format!("{:.1}", 100.0 * d.as_secs_f64() / total);
        print_row(&[
            threads.to_string(),
            mtps(&stats),
            pct(stats.phase.acquire),
            pct(stats.phase.generate),
            pct(stats.phase.update),
            pct(stats.phase.propagate),
            pct(stats.phase.idle),
            stats.merges.to_string(),
            format!("{:.1}", stats.merge_time.as_secs_f64() * 1e3),
            format!("{:.1}", stats.latency.mean_micros()),
            format!("{:.1}", stats.bytes_loaded as f64 / 1e6),
            stats
                .telemetry
                .as_ref()
                .map_or(0, |r| r.totals.events)
                .to_string(),
            format!("{:.3}", stats.ring.claim_contention()),
            format!("{:.2}", stats.ring.mean_task_size()),
            stats.ring.ingest_token_contended.to_string(),
            stats.ring.drain_contended.to_string(),
            stats.ring.idle_spins.to_string(),
            stats.ring.idle_yields.to_string(),
            stats.ring.idle_parks.to_string(),
            stats.probe.batches.to_string(),
            format!("{:.2}", stats.probe.mean_batch_size()),
            format!("{:.3}", stats.probe.dedup_rate()),
            stats.probe.nodes_prefetched.to_string(),
            format!("{:.3}", stats.probe.simd_search_rate()),
            stats.shard.shards.to_string(),
            stats.shard.steal_tasks.to_string(),
            stats.shard.stolen_tuples.to_string(),
            format!("{:.3}", stats.shard.steal_fraction()),
            format!("{:.3}", stats.shard.remote_fraction()),
            stats.shard.shard_full_stalls.to_string(),
            stats.store.partitioned.to_string(),
            stats.store.store_shards.max(1).to_string(),
            format!("{:.3}", stats.store.mean_probe_fanout()),
            stats.store.single_shard_probes.to_string(),
            format!("{:.3}", stats.store.remote_fraction()),
            stats.store.simulated_store_cost.to_string(),
            match opts.migration_mode {
                MigrationMode::Epoch => "epoch".to_string(),
                MigrationMode::Incremental => "incremental".to_string(),
            },
            stats.migration.epochs.to_string(),
            stats.migration.handoff_steps.to_string(),
            format!("{:.1}", stats.migration.max_stall_micros()),
            format!(
                "{:.1}",
                stats
                    .arrival_latency
                    .as_ref()
                    .map_or(0.0, |h| h.p99_micros())
            ),
        ]);
        if let Some(report) = &stats.telemetry {
            render_phase_table(report, threads);
        }
        render_gauge_table(&trace_path);
        if trace_base.is_none() {
            let _ = std::fs::remove_file(&trace_path);
            let _ = std::fs::remove_file(format!("{trace_path}.prom"));
        }
    }
}

/// Renders the flight recorder's per-phase totals as `#`-prefixed comment
/// lines (CSV consumers skip them).
fn render_phase_table(report: &TelemetryReport, threads: usize) {
    let total = report.totals.total_nanos().max(1);
    println!(
        "# flight recorder ({threads} threads, mode {}): phase count time_ms pct mean_us",
        report.mode
    );
    for phase in EnginePhase::ALL {
        let nanos = report.totals.nanos(phase);
        let count = report.totals.count(phase);
        let mean_us = if count == 0 {
            0.0
        } else {
            nanos as f64 / count as f64 / 1_000.0
        };
        println!(
            "#   {:<6} {:>12} {:>10.2} {:>5.1} {:>9.3}",
            phase.label(),
            count,
            nanos as f64 / 1e6,
            100.0 * nanos as f64 / total as f64,
            mean_us
        );
    }
}

/// Renders the per-shard gauge table from the final sample of the run's
/// JSONL trace. The trace format is the flat one-line-per-sample JSON that
/// `pimtree_telemetry::GaugeSample::to_json` emits, so scalar fields can be
/// sliced out positionally without a JSON parser.
fn render_gauge_table(trace_path: &str) {
    let Ok(trace) = std::fs::read_to_string(trace_path) else {
        return;
    };
    let Some(last) = trace.lines().rev().find(|l| !l.trim().is_empty()) else {
        return;
    };
    let field = |key: &str| -> String {
        let pat = format!("\"{key}\": ");
        let Some(start) = last.find(&pat).map(|i| i + pat.len()) else {
            return "?".to_string();
        };
        let rest = &last[start..];
        match rest.find([',', '}']) {
            Some(end) => rest[..end].trim().to_string(),
            None => "?".to_string(),
        }
    };
    let occupancy: Vec<String> = last
        .find("\"shard_occupancy\": [")
        .and_then(|i| {
            let rest = &last[i + "\"shard_occupancy\": [".len()..];
            let close = rest.find(']')?;
            Some(
                rest[..close]
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect(),
            )
        })
        .unwrap_or_default();
    println!(
        "# final gauges (sample {} at {}us): in_flight {}, unindexed r/s {}/{}, \
         window r/s {}/{}, claims local/stolen {}/{}, drift imbalance {}, handoff {}/{}",
        field("seq"),
        field("elapsed_us"),
        field("in_flight"),
        field("unindexed_r"),
        field("unindexed_s"),
        field("window_r"),
        field("window_s"),
        field("local_claims"),
        field("stolen_claims"),
        field("drift_imbalance"),
        field("handoff_steps_done"),
        field("handoff_steps_total"),
    );
    for (shard, occ) in occupancy.iter().enumerate() {
        println!("#   shard {shard}: ring occupancy {occ}");
    }
}
