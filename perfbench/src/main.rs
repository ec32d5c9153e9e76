//! The repository benchmark: the parallel IBWJ engine end to end, and its
//! layers one at a time.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload uniform_w14 --seed 1 --seconds 40 --trace 0
//! ```
//!
//! With `--trace 0` the program makes timed engine runs for `--seconds`
//! (closed loop at 2 workers and at 1 worker, open loop at the workload's
//! fixed offer) and reports the end-to-end metrics. With `--trace 1` it
//! runs the layer microbenchmarks and traced engine runs, and reports the
//! per-layer metrics; its spans go to
//! `$CARGO_TARGET_DIR/perfbench/spans-<workload>-<seed>.jsonl`.
//!
//! Every engine run's result count is checked against an independent
//! oracle. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `attempted` counts the
//! engine runs, the layer benches and the open-loop backlog check; `failed`
//! counts runs with a wrong result count, a panic or a hang, layer benches
//! whose paths disagree, and an open-loop rate the engine did not sustain.
//! `failed / attempted` is the failed fraction.
//!
//! Every line before the last is for people: per-run figures, the open-loop
//! validity check, the layer → end-to-end mapping and the provenance
//! (workload, seed, `nproc`, SIMD level, rustc version).
//!
//! Noise: on a 2-vCPU x86-64 VM the machine's speed varied by about 25 %
//! from second to second and up to 1.7x over minutes, so compare two
//! commits by alternating their runs. Tune on any seeds, then confirm a
//! claim on [`CONFIRM_SEED`], which is kept out of tuning.

mod engine;
mod layers;
mod oracle;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pimtree_common::{JoinConfig, TelemetryMode};
use pimtree_join::JoinRunStats;
use pimtree_telemetry::StallCause;

use engine::{run_checked, Checked, Failure, RunKind};
use stats::{median, quantile};
use trace::Tracer;
use workload::{Stream, Workload, MEASURED};

/// A seed reserved for confirming a claimed gain after tuning on others.
const CONFIRM_SEED: u64 = 1_000_003;
/// Worker threads of the timed engine runs (the host has 2 cores).
const THREADS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag}: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::find(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Runs counted and failed, and the reason of each failure.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// A run outlived its deadline; its thread is still running.
    hung: bool,
    errors: Vec<String>,
}

impl Tally {
    fn record(&mut self, label: &str, outcome: Result<Checked, Failure>) -> Option<Checked> {
        self.attempted += 1;
        match outcome {
            Ok(checked) => Some(checked),
            Err(failure) => {
                self.failed += 1;
                let msg = match failure {
                    Failure::Failed(msg) => msg,
                    Failure::Hung => {
                        self.hung = true;
                        format!("no result after {:?}", engine::RUN_DEADLINE)
                    }
                };
                println!("# FAILED {label}: {msg}");
                self.errors.push(format!("{label}: {msg}"));
                None
            }
        }
    }
}

/// End-to-end metrics and their units, as `BENCHMARK.json` lists them.
const END_TO_END: &[(&str, &str)] = &[
    ("throughput_mtps", "Mtuples/s"),
    ("speedup_2t_over_1t", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

fn end_to_end(name: &'static str, value: f64) -> Metric {
    let &(_, unit) = END_TO_END
        .iter()
        .find(|(n, _)| *n == name)
        .expect("every reported end-to-end metric is listed");
    metric(name, unit, value)
}

fn mtps(stats: &JoinRunStats) -> f64 {
    stats.million_tuples_per_second()
}

/// A `kB` field of `/proc/self/status`, in MB.
fn proc_status_mb(field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no {field} in /proc/self/status"))
}

/// Resets this process's peak resident set size (`VmHWM`) to its current
/// size and returns that size in MB, so that a later `VmHWM` minus it is
/// what an engine run added on top of the generated input.
fn reset_peak_rss_mb() -> Result<f64, String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("resetting VmHWM: {e}"))?;
    proc_status_mb("VmRSS")
}

/// Timed runs: rounds of (closed loop 2 workers, closed loop 1 worker) while
/// another round and the open-loop run still fit in `seconds`, then one
/// open-loop run at 2 workers, which checks that the workload's fixed offer
/// is sustained.
///
/// On a 2-vCPU VM the host switched between speed regimes about 1.4x apart
/// every 20-40 s, paused the vCPUs for 2-13 ms at a time, and for spells of
/// minutes slowed 2-worker runs below the 1-worker rate. Interference only
/// ever makes a run slower, so each figure is taken from the fast end of its
/// runs: throughput is the upper quartile of the 2-worker runs' rates, the
/// speedup is the ratio of the 2-worker and 1-worker upper quartiles, and
/// set-up time is the lower quartile of the 2-worker runs' set-up times.
/// The 1-worker throughput and the open-loop latencies are printed but not
/// reported: the open-loop p50 moved 2x with the host's regime, and the p99
/// of a run fell inside the host's pauses or not and ranged over 10x between
/// runs of the same code.
///
/// Peak RSS is what the first 2-worker run added to the process's resident
/// memory at its peak, on top of the input. It is read once because memory
/// stays resident after a run ends: over six uniform_w14 runs the resident
/// size between runs grew from 27 to 60 MB while each run added about
/// 20 MB at its peak, so a later run's peak depends on what earlier runs
/// left behind.
fn timed(args: &Args, stream: &Arc<Stream>, expected: u64, tally: &mut Tally) -> Vec<Metric> {
    let wl = args.workload;
    let rss_baseline = reset_peak_rss_mb();
    let kind = |threads, open_loop| RunKind {
        threads,
        open_loop,
        telemetry: TelemetryMode::Off,
    };
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let (mut two, mut one, mut setups) = (Vec::new(), Vec::new(), Vec::new());
    let mut rss: Option<Result<f64, String>> = None;
    let mut longest_round = Duration::ZERO;
    'rounds: loop {
        let round_start = Instant::now();
        for (label, threads, rates) in
            [("closed_2t", THREADS, &mut two), ("closed_1t", 1, &mut one)]
        {
            let outcome = run_checked(wl, stream, expected, kind(threads, false));
            let Some(run) = tally.record(label, outcome) else {
                if tally.hung {
                    break 'rounds;
                }
                continue;
            };
            let setup = run.setup.as_secs_f64();
            println!(
                "# run {label}: {:.4} Mtuples/s, setup {setup:.4} s, {} results",
                mtps(&run.stats),
                run.stats.results
            );
            rates.push(mtps(&run.stats));
            if threads == THREADS {
                setups.push(setup);
                rss.get_or_insert_with(|| Ok(proc_status_mb("VmHWM")? - rss_baseline.clone()?));
            }
        }
        longest_round = longest_round.max(round_start.elapsed());
        let open_loop = Duration::from_secs_f64(
            MEASURED as f64 / wl.offered_tps + setups.iter().copied().fold(0.0, f64::max),
        );
        if Instant::now() + longest_round + open_loop > deadline {
            break;
        }
    }
    if !tally.hung {
        open_loop_check(wl, stream, expected, kind(THREADS, true), tally);
    }
    let mut out = Vec::new();
    if !two.is_empty() {
        out.push(end_to_end("throughput_mtps", quantile(&two, 0.75)));
    }
    if !one.is_empty() {
        println!(
            "# 1-worker throughput (not reported): upper quartile {:.4} Mtuples/s of {} runs",
            quantile(&one, 0.75),
            one.len()
        );
    }
    if !two.is_empty() && !one.is_empty() {
        out.push(end_to_end(
            "speedup_2t_over_1t",
            quantile(&two, 0.75) / quantile(&one, 0.75),
        ));
    }
    if !setups.is_empty() {
        out.push(end_to_end("setup_s", quantile(&setups, 0.25)));
    }
    match rss {
        Some(Ok(mb)) => out.push(end_to_end("peak_rss_mb", mb)),
        Some(Err(e)) => tally.errors.push(format!("peak_rss_mb: {e}")),
        None => {}
    }
    out
}

/// One open-loop run at the workload's fixed offer. Besides the run itself,
/// the check that it achieved the offered rate (no growing backlog) counts
/// as one attempted operation.
fn open_loop_check(
    wl: Workload,
    stream: &Arc<Stream>,
    expected: u64,
    kind: RunKind,
    tally: &mut Tally,
) {
    let Some(run) = tally.record("open_2t", run_checked(wl, stream, expected, kind)) else {
        return;
    };
    let stats = &run.stats;
    let hist = stats
        .arrival_latency
        .as_ref()
        .expect("checked open-loop run");
    let achieved = mtps(stats) * 1e6;
    // How far the last propagation trailed the last arrival.
    let lag = stats.elapsed.as_secs_f64() - stats.tuples as f64 / wl.offered_tps;
    let quantiles: Vec<String> = [0.5, 0.9, 0.99, 0.999]
        .iter()
        .map(|&q| format!("p{}={:.1}", q * 100.0, hist.percentile_micros(q)))
        .collect();
    println!(
        "# run open_2t: setup {:.4} s, {} results; offered {:.0}/s, achieved {achieved:.0}/s, generator lag {:.3} ms",
        run.setup.as_secs_f64(),
        stats.results,
        wl.offered_tps,
        lag * 1e3
    );
    println!(
        "# open-loop latency (not reported) from {} samples, us: {} max={:.1}",
        hist.len(),
        quantiles.join(" "),
        hist.max_micros()
    );
    tally.attempted += 1;
    if achieved < engine::MIN_ACHIEVED_SHARE * wl.offered_tps {
        tally.failed += 1;
        tally.errors.push(format!(
            "open loop achieved {achieved:.0} of {:.0} tuples/s: the backlog grew",
            wl.offered_tps
        ));
    }
}

/// When a per-layer metric must be non-zero: a zero there means the
/// feature it measures ran and the number was lost.
#[derive(Clone, Copy, PartialEq)]
enum Guard {
    Always,
    /// Only when the partitioned store ran (drift workload).
    Partitioned,
    /// Only when a repartition was adopted mid-run (drift workload).
    Migrating,
    /// Only when the AVX2 node search is active.
    Simd,
    /// An event count; zero events is a valid reading.
    Never,
}

/// Per-layer metrics: name, unit, guard, and the end-to-end metric and
/// workload each one should move.
#[rustfmt::skip]
const LAYER_METRICS: &[(&str, &str, Guard, &str)] = &[
    ("cssbtree.descent_ns", "ns", Guard::Always, "throughput_mtps on uniform_w18; flat on uniform_w14"),
    ("cssbtree.descent_interleaved_ns", "ns", Guard::Always, "throughput_mtps on uniform_w18; flat on uniform_w14"),
    ("cssbtree.descent_scalar_ns", "ns", Guard::Always, "throughput_mtps on uniform_w18; flat on uniform_w14"),
    ("core.insert_ns", "ns", Guard::Always, "throughput_mtps on uniform_w14"),
    ("core.probe_ns", "ns", Guard::Always, "throughput_mtps on uniform_w18"),
    ("core.merge_ms", "ms", Guard::Always, "printed open-loop p99 on uniform_w18, p50 unchanged"),
    ("window.append_ns", "ns", Guard::Always, "throughput_mtps on uniform_w14"),
    ("window.scan_ns", "ns", Guard::Always, "throughput_mtps on uniform_w14"),
    ("window.expire_ns", "ns", Guard::Always, "printed open-loop p99 and throughput_mtps on drift_w16_migrate"),
    ("window.snapshot_ms", "ms", Guard::Always, "printed open-loop p99 and throughput_mtps on drift_w16_migrate only"),
    ("window.rebuild_ms", "ms", Guard::Always, "printed open-loop p99 and throughput_mtps on drift_w16_migrate only"),
    ("ring.cycle_ns_1t", "ns", Guard::Always, "printed 1-worker throughput on uniform_w14"),
    ("ring.cycle_ns_2t", "ns", Guard::Always, "throughput_mtps and speedup_2t_over_1t on uniform_w14, not uniform_w18"),
    ("ring.claim_retries_per_task", "count", Guard::Never, "throughput_mtps on uniform_w14"),
    ("ring.ingest_stalls", "count", Guard::Never, "throughput_mtps on uniform_w14"),
    ("ring.idle_parks", "count", Guard::Never, "throughput_mtps on uniform_w14"),
    ("store.mean_probe_fanout", "count", Guard::Partitioned, "throughput_mtps on drift_w16_migrate"),
    ("store.remote_fraction", "ratio", Guard::Partitioned, "throughput_mtps on drift_w16_migrate"),
    ("engine.acquire_share", "ratio", Guard::Always, "speedup_2t_over_1t on uniform_w14"),
    ("engine.generate_share", "ratio", Guard::Always, "throughput_mtps on uniform_w18"),
    ("engine.update_share", "ratio", Guard::Always, "throughput_mtps on uniform_w14"),
    ("engine.propagate_share", "ratio", Guard::Always, "throughput_mtps on uniform_w14"),
    ("engine.idle_share", "ratio", Guard::Never, "speedup_2t_over_1t on uniform_w14"),
    ("engine.merges", "count", Guard::Always, "printed open-loop p99 on uniform_w18"),
    ("engine.merge_ms", "ms", Guard::Always, "printed open-loop p99 on uniform_w18"),
    ("engine.loaded_mb", "MB", Guard::Always, "throughput_mtps on uniform_w18"),
    ("engine.migration_stall_ms", "ms", Guard::Migrating, "printed open-loop p99 and throughput_mtps on drift_w16_migrate"),
    ("engine.migration_max_stall_ms", "ms", Guard::Migrating, "printed open-loop p99 and throughput_mtps on drift_w16_migrate"),
    ("engine.handoff_steps", "count", Guard::Migrating, "printed open-loop p99 and throughput_mtps on drift_w16_migrate"),
    ("engine.stall_rebuild_ms", "ms", Guard::Migrating, "printed open-loop p99 and throughput_mtps on drift_w16_migrate"),
    ("engine.stall_snapshot_ms", "ms", Guard::Migrating, "printed open-loop p99 and throughput_mtps on drift_w16_migrate"),
    ("engine.simd_search_rate", "ratio", Guard::Simd, "throughput_mtps on uniform_w18"),
    ("telemetry.overhead", "ratio", Guard::Always, "none: untraced over traced (counters telemetry) throughput"),
    ("model.layer_coverage", "ratio", Guard::Always, "none: share of worker time the layer model explains"),
];

/// Engine-counter metrics of one traced run.
fn engine_metrics(stats: &JoinRunStats, threads: usize, out: &mut layers::Metrics) {
    let worker_ns = threads as f64 * stats.elapsed.as_nanos() as f64;
    let share = |d: Duration| d.as_nanos() as f64 / worker_ns;
    let ms = |ns: u64| ns as f64 / 1e6;
    let m = &stats.migration;
    out.extend([
        ("ring.claim_retries_per_task", stats.ring.claim_contention()),
        ("ring.ingest_stalls", stats.ring.ingest_stalls as f64),
        ("ring.idle_parks", stats.ring.idle_parks as f64),
        ("store.mean_probe_fanout", stats.store.mean_probe_fanout()),
        ("store.remote_fraction", stats.store.remote_fraction()),
        ("engine.acquire_share", share(stats.phase.acquire)),
        ("engine.generate_share", share(stats.phase.generate)),
        ("engine.update_share", share(stats.phase.update)),
        ("engine.propagate_share", share(stats.phase.propagate)),
        ("engine.idle_share", share(stats.phase.idle)),
        ("engine.merges", stats.merges as f64),
        (
            "engine.merge_ms",
            stats.merge_time.as_secs_f64() * 1e3 / stats.merges.max(1) as f64,
        ),
        ("engine.loaded_mb", stats.bytes_loaded as f64 / 1e6),
        ("engine.migration_stall_ms", ms(m.stall_nanos)),
        ("engine.migration_max_stall_ms", ms(m.max_stall_nanos)),
        ("engine.handoff_steps", m.handoff_steps as f64),
        (
            "engine.stall_rebuild_ms",
            ms(m.stall_cause_nanos(StallCause::Rebuild)),
        ),
        (
            "engine.stall_snapshot_ms",
            ms(m.stall_cause_nanos(StallCause::WindowSnapshot)),
        ),
        ("engine.simd_search_rate", stats.probe.simd_search_rate()),
    ]);
}

/// Share of the workers' measured time that layer cost × the engine's
/// operation counts accounts for: every measured tuple is one window
/// append, one index insert and one probe; every `task_size` claimed tuples
/// are one ring cycle; every merge is one PIM merge.
fn layer_coverage(
    layer: &layers::Metrics,
    stats: &JoinRunStats,
    threads: usize,
    task_size: usize,
) -> f64 {
    let get = |name: &str| {
        layer
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let per_tuple = get("window.append_ns") + get("core.insert_ns") + get("core.probe_ns");
    let cycle = if threads > 1 {
        get("ring.cycle_ns_2t")
    } else {
        get("ring.cycle_ns_1t")
    };
    let modelled = stats.tuples as f64 * per_tuple
        + stats.ring.tuples_acquired as f64 / task_size as f64 * cycle
        + stats.merges as f64 * get("core.merge_ms") * 1e6;
    modelled / (threads as f64 * stats.elapsed.as_nanos() as f64)
}

/// Traced run: layer microbenchmarks, then untraced and traced engine runs
/// in alternation until `seconds` have passed (at least one of each).
fn traced(
    args: &Args,
    stream: &Arc<Stream>,
    expected: u64,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> Vec<Metric> {
    let wl = args.workload;
    let config = JoinConfig::symmetric(wl.window, pimtree_common::IndexKind::PimTree);
    let input = layers::LayerInput {
        window: wl.window,
        shard_slice: wl.window / wl.shards,
        threads: THREADS,
        task_size: config.task_size,
        probe: config.probe,
        predicate: stream.predicate,
        tuples: &stream.tuples,
    };
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut layer = layers::Metrics::new();
    let benches: [(&str, layers::Bench); 4] = [
        ("layer.cssbtree", layers::cssbtree),
        ("layer.core", layers::core),
        ("layer.window", layers::window),
        ("layer.ring", layers::ring),
    ];
    for (span, bench) in benches {
        tally.attempted += 1;
        if let Err(e) = tracer.span(span, 0, |t| bench(t, &input, &mut layer)) {
            tally.failed += 1;
            println!("# FAILED {span}: {e}");
            tally.errors.push(format!("{span}: {e}"));
        }
    }
    let kind = |telemetry| RunKind {
        threads: THREADS,
        open_loop: false,
        telemetry,
    };
    let (mut plain, mut counted) = (Vec::new(), Vec::<JoinRunStats>::new());
    let measured = MEASURED as u64;
    tracer.span("layer.engine", 0, |t| loop {
        let round_start = Instant::now();
        for (span, mode) in [
            ("engine.run", TelemetryMode::Off),
            ("engine.run_traced", TelemetryMode::Counters),
        ] {
            let outcome = t.span(span, measured, |_| {
                run_checked(wl, stream, expected, kind(mode))
            });
            if let Some(run) = tally.record(span, outcome) {
                println!("# run {span}: {:.4} Mtuples/s", mtps(&run.stats));
                if mode == TelemetryMode::Off {
                    plain.push(mtps(&run.stats));
                } else {
                    counted.push(run.stats);
                }
            }
            if tally.hung {
                return;
            }
        }
        if Instant::now() + round_start.elapsed() > deadline {
            return;
        }
    });
    if counted.is_empty() || plain.is_empty() {
        return Vec::new();
    }
    counted.sort_by(|a, b| mtps(a).total_cmp(&mtps(b)));
    let typical = &counted[counted.len() / 2];
    let traced_mtps = median(&counted.iter().map(mtps).collect::<Vec<_>>());
    engine_metrics(typical, THREADS, &mut layer);
    layer.push(("telemetry.overhead", median(&plain) / traced_mtps));
    layer.push((
        "model.layer_coverage",
        layer_coverage(&layer, typical, THREADS, config.task_size),
    ));

    let feature_ran = |guard: Guard| match guard {
        Guard::Always => true,
        Guard::Never => false,
        Guard::Partitioned => typical.store.partitioned == 1,
        Guard::Migrating => typical.migration.epochs >= 1,
        Guard::Simd => pimtree_common::simd::simd_active(),
    };
    let mut out = Vec::new();
    for &(name, unit, guard, moves) in LAYER_METRICS {
        let Some(&(_, value)) = layer.iter().find(|(n, _)| *n == name) else {
            tally.errors.push(format!("{name}: not measured"));
            continue;
        };
        if !value.is_finite() || (value == 0.0 && feature_ran(guard)) {
            tally
                .errors
                .push(format!("{name} reads {value} although its feature ran"));
            continue;
        }
        println!("# layer {name} = {value:.6} {unit}  (moves {moves})");
        out.push(metric(name, unit, value));
    }
    for (name, ns) in tracer.self_time_ns() {
        println!("# self time {name}: {:.3} ms", ns as f64 / 1e6);
    }
    out
}

fn provenance(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"confirm_seed\": {CONFIRM_SEED}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \"simd\": \"{}\", \"rustc\": \"{}\"}}",
        args.workload.name,
        args.seed,
        args.seconds,
        args.trace as u8,
        pimtree_common::simd::active_level().label(),
        env!("PERFBENCH_RUSTC"),
    )
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let wl = args.workload;
    let provenance = provenance(&args);
    println!("# provenance {provenance}");
    let stream = Arc::new(wl.generate(args.seed));
    let expected = oracle::count_results(
        &stream.tuples,
        stream.predicate,
        wl.window,
        wl.window,
        stream.warmup,
    );
    println!(
        "# oracle: {expected} result pairs from {} measured tuples (window {} per side)",
        stream.tuples.len() - stream.warmup,
        wl.window
    );
    let mut tally = Tally::default();
    let mut tracer = Tracer::new();
    let metrics = if args.trace {
        traced(&args, &stream, expected, &mut tally, &mut tracer)
    } else {
        timed(&args, &stream, expected, &mut tally)
    };
    if args.trace {
        let dir =
            std::env::var_os("CARGO_TARGET_DIR").map_or(PathBuf::from("target"), PathBuf::from);
        let path = dir
            .join("perfbench")
            .join(format!("spans-{}-{}.jsonl", wl.name, args.seed));
        match tracer.write_jsonl(&path, &provenance) {
            Ok(()) => println!(
                "# spans: {} written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => tally
                .errors
                .push(format!("writing {}: {e}", path.display())),
        }
    }
    println!(
        "# failed_fraction {:.4} ({} of {} runs)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    for e in &tally.errors {
        println!("# error {e}");
    }
    let correct = tally.failed == 0 && tally.errors.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    // Returning from `main` ends the process, and with it a hung run's
    // thread, which cannot be joined.
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one top-level section of `BENCHMARK.json`.
    fn listed(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let value = |line: &str, key: &str| {
            let rest = line.trim().strip_prefix(&format!("\"{key}\": \""))?;
            Some(rest.split('"').next()?.to_string())
        };
        let mut in_section = false;
        let mut out = Vec::new();
        for line in text.lines() {
            if let Some(key) = line.strip_prefix("  \"") {
                in_section = key.starts_with(&format!("{section}\""));
            } else if in_section {
                if let Some(name) = value(line, "name") {
                    out.push((name, String::new()));
                } else if let Some(unit) = value(line, "unit") {
                    out.last_mut().expect("unit follows name").1 = unit;
                }
            }
        }
        out
    }

    fn owned(table: impl Iterator<Item = (&'static str, &'static str)>) -> Vec<(String, String)> {
        table.map(|(n, u)| (n.to_string(), u.to_string())).collect()
    }

    #[test]
    fn benchmark_json_lists_the_reported_metrics() {
        assert_eq!(listed("end_to_end"), owned(END_TO_END.iter().copied()));
        assert_eq!(
            listed("per_layer"),
            owned(LAYER_METRICS.iter().map(|&(n, u, _, _)| (n, u)))
        );
        let workloads: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
        let known: Vec<String> = workload::WORKLOADS
            .iter()
            .map(|w| w.name.to_string())
            .collect();
        assert_eq!(workloads, known);
    }
}
