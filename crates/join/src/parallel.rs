//! The parallel shared-index window join engine (§4 of the paper), built on a
//! lock-free ring buffer for work distribution.
//!
//! Worker threads share both sliding windows and both indexes. Incoming
//! tuples are arranged in arrival order in a fixed-capacity MPMC task ring
//! ([`crate::ring::TaskRing`]); each worker repeatedly
//!
//! 1. **acquires a task** (up to `task_size` tuples) with a single bounded
//!    ticket-claim CAS — each slot carries the boundaries of the opposite
//!    window captured at ingestion,
//! 2. **generates results** by probing the opposite index for the already
//!    indexed window prefix and linearly scanning the window suffix past the
//!    *edge tuple* (the earliest non-indexed tuple) — the task's probe keys
//!    are sorted, deduplicated and answered with one software-prefetched
//!    CSS-Tree group descent per side ([`ProbeConfig`] tunes the prefetch),
//! 3. **publishes results** with one release store per slot (no lock), and
//!    **updates the index** with its tuples, trying to advance the edge, and
//! 4. **propagates results** of the completed ring prefix in arrival order:
//!    a try-token elects one draining worker which advances the cursor
//!    without ever blocking result generation.
//!
//! # How the ring replaces the shared work queue
//!
//! The original engine funnelled ingestion, acquisition, publication,
//! propagation and merge-horizon computation through one global mutex —
//! exactly the coordination cost the paper's shared-queue design is meant to
//! avoid. The ring splits those five concerns into independent lock-free
//! coordination points:
//!
//! * **Ingestion** happens behind a try-lock *ingest token*. Whichever
//!   worker finds the ring running low and wins the token batch-fills it:
//!   per tuple it checks admission control (the non-indexed window suffix
//!   stays bounded so probe scans stay short while merges defer index
//!   updates), snapshots the opposite window's bounds, appends to the own
//!   window, and publishes the slot. Losing the token means someone else is
//!   already supplying work, so the loser goes straight to claiming.
//! * **Acquisition** is a `compare_exchange` ticket claim over the ingested
//!   prefix — the only inter-worker contention on the fast path, measured by
//!   [`crate::stats::RingCounters::claim_retries`].
//! * **Propagation** advances a completed-prefix cursor. Ordering is
//!   structural: the cursor cannot pass an uncompleted slot, so results
//!   always leave in arrival order of the probing tuple.
//! * **The merge horizon** is folded from per-shard, per-side monotone
//!   counters maintained at claim time (see `merge_horizon`), instead of
//!   scanning every queued task under the queue lock.
//! * **Idle back-off** is adaptive (spin → yield → short park,
//!   [`crate::ring::Backoff`]) instead of a fixed 20µs sleep, so a worker
//!   that just missed work re-checks within nanoseconds.
//!
//! With `ShardConfig::shards > 1` the single ring becomes a
//! [`crate::shard::ShardedRing`]: per-NUMA-node ring shards behind a
//! key-range router ([`ParallelIbwj::with_partitioner`]), home-shard
//! claiming with bounded cross-shard stealing (charged to a simulated NUMA
//! traffic account), and a cross-shard merge cursor that preserves global
//! arrival-order propagation. One shard short-circuits to the plain ring.
//!
//! With `ShardConfig::partition_index` on top, the *index and window state*
//! is partitioned as well ([`crate::store::ShardStore`]): each shard owns one
//! index plus one window slice per side covering only its key range, inserts
//! route to the owning shard, and probes fan out across exactly the shards
//! whose ranges overlap the band-join range — the paper's §7 NUMA design,
//! where each socket serves its key range from local memory. The same
//! partitioner drives ring routing and store placement, so a worker's home
//! ring shard and home store shard coincide.
//!
//! # Invariants
//!
//! * Claimed slot ids are strictly increasing per the ticket counter; a slot
//!   is owned by exactly one worker between claim and publication.
//! * A task's probe sees every opposite-window tuple inside its bounds
//!   snapshot: tuples before the edge snapshot via the index, the rest via
//!   the linear window scan (an outdated edge only lengthens the scan).
//! * The engine's gate/in-flight handshake (`SeqCst` store-then-load on both
//!   sides) guarantees a merging thread observes either the gate stopping a
//!   worker's claim or that worker's task in `in_flight` — never neither.
//! * Merging with `merge_horizon` never drops an index entry that any
//!   claimed or future task may still probe: unclaimed tasks of a side have
//!   bounds at least as large as the last claimed one (windows only grow and
//!   ingestion is in arrival order), and the horizon additionally floors at
//!   the side's earliest live tuple.
//!
//! Index maintenance (the PIM-Tree merge) is coordinated by whichever worker
//! notices that the merge threshold has been reached: the two-phase
//! *non-blocking merge* of §4.2 lets the other workers keep joining (without
//! index updates) while the new `TS` is being built, whereas the blocking
//! variant (kept for the Figure 13c ablation) stalls all workers for the
//! duration of the merge.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use pimtree_btree::Entry;
use pimtree_common::{
    BandPredicate, DriftConfig, JoinConfig, JoinResult, Key, KeyRange, LatencyHistogram,
    LatencyRecorder, MergePolicy, MigrationMode, ProbeConfig, Seq, StreamSide, Tuple,
};
use pimtree_numa::{handoff_steps, DriftMonitor, HandoffStep, RangePartitioner};
use pimtree_telemetry::{
    EnginePhase, GaugeSample, JsonlSink, StallCause, StallLap, TelemetryMode, TelemetryRegistry,
    WorkerRecorder,
};
use pimtree_window::WindowBounds;

use crate::gate::QuiesceGate;
use crate::ring::{Backoff, ClaimedTask, IdleKind};
use crate::shard::ShardedRing;
use crate::stats::{JoinRunStats, MigrationCounters};
use crate::store::{ShardStore, StoreParams};

/// Local drift observations a worker buffers while another worker holds the
/// drift-monitor lock; bounded because the monitor is a sampling window
/// anyway — dropping overflow under contention only thins the sample.
const DRIFT_BACKLOG_CAP: usize = 1024;

/// Which shared index the parallel engine maintains over each window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharedIndexKind {
    /// The PIM-Tree with the configured merge policy.
    PimTree,
    /// The Bw-Tree-style general-purpose concurrent index (no merges; expired
    /// tuples are deleted eagerly with a small lag).
    BwTree,
}

/// Per-shard, per-probe-side bookkeeping that makes the merge horizon a
/// handful of atomic reads.
///
/// `last_claimed_bound` is a running maximum over the bounds of every claimed
/// task of one shard and side. Because both window heads only grow and tuples
/// are ingested in arrival order, the bounds stored in a shard's slots are
/// non-decreasing in slot id per side (each shard receives a subsequence of
/// the global arrival order); a shard's claims take its slot ids in order, so
/// every *unclaimed* task of the side on that shard has bounds at least this
/// large — which makes the value a safe (conservative) stand-in for "the
/// oldest sequence number any pending task of this side on this shard may
/// still probe". Claims across shards are not ordered, so the counters must
/// stay per shard and the global horizon is their fold (minimum).
#[derive(Debug, Default)]
struct ClaimMeta {
    /// Tuples ingested whose probe targets this side.
    ingested: AtomicU64,
    /// Tuples claimed whose probe targets this side.
    claimed: AtomicU64,
    /// Maximum `bounds.earliest` over claimed tuples of this side.
    last_claimed_bound: AtomicU64,
}

/// Shared drift-monitoring state of the live-repartition path, behind one
/// mutex: workers flush `(key, match count)` observations through a
/// *try*-lock (contended flushes fall back to a bounded per-worker backlog),
/// and the periodic drift check turns a triggering sample into a `pending`
/// plan that whichever worker next passes the maintenance point adopts.
struct DriftState {
    monitor: DriftMonitor,
    /// The partitioner currently driving ring routing and store placement —
    /// what `should_repartition` measures drift against.
    partitioner: RangePartitioner,
    /// A plan that cleared the trigger and the cost gate, awaiting adoption
    /// at the next quiesce point.
    pending: Option<RangePartitioner>,
    /// Observations since the last drift check (the O(window) imbalance fold
    /// runs every `effective_check_interval`, not per task).
    since_check: usize,
    /// Total observations fed into the monitor (folded into
    /// `MigrationCounters` at the end of the run; kept here so the flush
    /// path never touches a second global lock).
    observations: u64,
    /// Plans rejected by the cost gate (or as no-ops), folded likewise.
    plans_rejected: u64,
}

/// The frontier of an in-flight incremental handoff (`--migration-mode
/// incremental`): the adopted plan decomposed into per-sub-range steps, plus
/// how far the handoff has progressed.
///
/// Invariants (all transitions run quiesced under the maintenance claim):
///
/// * Steps complete strictly in order; `next` is the first incomplete step.
/// * At most one step is *active* at a time — only its sub-range is ever
///   dual-owned in the store ([`crate::store`] tracks the moved-prefix cut
///   inside the active step).
/// * The routing swap to `new_partitioner` (and the bump of the store
///   epoch) happens only after every step completed, so an interrupted
///   handoff can always resume from `next` — including after the workers
///   exit with the handoff unfinished (see `complete_handoff`).
struct HandoffState {
    /// The partitioner adopted once every step has completed.
    new_partitioner: RangePartitioner,
    /// Disjoint key sub-ranges whose owner changes, in ascending key order.
    steps: Vec<HandoffStep>,
    /// Index of the first incomplete step.
    next: usize,
    /// Whether `steps[next]` has begun (its remainder is dual-owned).
    step_active: bool,
}

/// Open-loop arrival pacing for the SLO harness: tuple `measured_from + i`
/// of the input becomes *available* at `base + i * nanos_per_tuple`, and its
/// end-to-end latency is measured from that virtual arrival to the moment
/// the propagating worker drains its slot — so queueing delay behind a
/// stalled engine counts, unlike the closed-loop task latency.
struct OpenLoopPacing {
    base: Instant,
    nanos_per_tuple: u64,
    measured_from: usize,
}

struct Shared<'a> {
    input: &'a [Tuple],
    /// Exclusive upper bound on the input positions this batch may ingest.
    /// The warmup phase of a measured run processes a prefix of the input
    /// under the same engine state, then the limit is raised to the full
    /// length for the measured phase.
    ingest_limit: usize,
    predicate: BandPredicate,
    task_size: usize,
    /// How many available (not yet claimed) tuples an acquiring worker tries
    /// to keep in the ring: ingesting in bulk keeps every worker supplied
    /// without re-contending on the ingest token for every task.
    ingest_target: usize,
    /// Upper bound on the non-indexed window suffix (head minus edge tuple)
    /// admitted per side. Without a bound, the tuples processed while a merge
    /// defers index updates pile up un-indexed and every probe's linear scan
    /// grows with them — quadratic work that flattens multithreaded scaling
    /// and blows up latency. Ingestion stalls briefly once the bound is hit;
    /// the backlog drains as soon as the merge finishes replaying its pending
    /// updates.
    max_unindexed: usize,
    self_join: bool,
    /// Per-side index and window state: one shared pair per side, or — with
    /// `partition_index` on and several shards — one pair per shard behind a
    /// key-range partitioner (see [`crate::store`]).
    store: ShardStore,
    merge_policy: MergePolicy,
    collect_results: bool,
    backoff: pimtree_common::RingConfig,
    probe: ProbeConfig,

    ring: ShardedRing,
    /// Next input position to ingest; written only under the ingest token.
    next_ingest: AtomicUsize,
    /// Per-shard, per-probe-side claim progress for the O(shards) merge
    /// horizon (see [`merge_horizon`]): claims within one shard take slot ids
    /// in order, so the per-shard running maxima stay safe stand-ins for
    /// that shard's unclaimed bounds even though claims across shards are
    /// not globally ordered.
    claim_meta: Vec<[ClaimMeta; 2]>,
    /// The migration quiesce gate: stops task acquisition while a merge
    /// phase transition or repartition is pending and drains the in-flight
    /// count (see [`QuiesceGate`] for the handshake).
    gate: QuiesceGate,
    /// Set per side while a non-blocking merge is in phase 1: workers buffer
    /// their index updates instead of applying them.
    no_index_updates: [AtomicBool; 2],
    pending: [Mutex<Vec<(Key, Seq)>>; 2],
    merge_claimed: AtomicBool,
    merge_stats: Mutex<(u64, Duration)>,
    /// Drift monitoring for live repartition adoption; `None` when the
    /// feature is off (or the engine runs unsharded / unrouted), in which
    /// case the whole path costs one branch per task.
    drift: Option<Mutex<DriftState>>,
    drift_cfg: DriftConfig,
    /// Test/bench hook: adopt this partitioner once the ingest cursor passes
    /// the given input position, regardless of observed drift.
    forced_repartition: Option<(usize, RangePartitioner)>,
    forced_done: AtomicBool,
    /// Mirrors `DriftState::pending.is_some()` so the workers' per-loop
    /// "anything to adopt?" peek is one relaxed load instead of a try-lock
    /// that would contend with (and starve) the observation flush path.
    repartition_pending: AtomicBool,
    /// Run-level migration totals (epochs, moved entries, stall), filled by
    /// whichever workers performed the epochs.
    migration_totals: Mutex<MigrationCounters>,
    /// In-flight incremental handoff (`--migration-mode incremental`); only
    /// touched under the maintenance claim with the engine quiesced.
    handoff: Mutex<Option<HandoffState>>,
    /// Mirrors `handoff.is_some()` so the workers' per-loop peek is one
    /// relaxed load; while raised, `record_drift` stops staging new plans
    /// (they would be measured against the partitioner being replaced).
    handoff_active: AtomicBool,
    /// Open-loop arrival pacing; `None` runs closed-loop (as fast as the
    /// engine admits). Armed for the measured phase only.
    open_loop: Option<OpenLoopPacing>,
    /// Measured-phase slots drained so far, in global arrival order; pairs
    /// each drained slot with its virtual arrival time under open-loop
    /// pacing. Only advanced when `open_loop` is armed (the drain token
    /// makes the increment uncontended).
    drained_pos: AtomicUsize,
    /// End-to-end arrival→drain latency histogram (open-loop runs only).
    arrival_latency: Mutex<LatencyHistogram>,
    /// Result sink `(count, collected results)`. Its try-lock doubles as the
    /// election of the propagating worker, exactly like the paper's
    /// test-and-set scheme; the ring's internal drain token additionally
    /// protects the cursor, so the two can never disagree.
    sink: Mutex<(u64, Vec<JoinResult>)>,
    worker_stats: Mutex<Vec<JoinRunStats>>,
    /// The engine flight recorder: per-worker phase recorders, the
    /// stall-cause totals and (in full mode) their histograms, plus the
    /// aggregate event counter the live sampler reads. In `off` mode every
    /// instrumentation point degrades to one relaxed counter increment.
    telemetry: TelemetryRegistry,
}

impl<'a> Shared<'a> {
    #[inline]
    fn own_idx(&self, side: StreamSide) -> usize {
        if self.self_join {
            0
        } else {
            side.index()
        }
    }

    #[inline]
    fn probe_idx(&self, side: StreamSide) -> usize {
        if self.self_join {
            0
        } else {
            side.opposite().index()
        }
    }

    #[inline]
    fn matched_side(&self, side: StreamSide) -> StreamSide {
        if self.self_join {
            StreamSide::R
        } else {
            side.opposite()
        }
    }
}

/// The parallel index-based window join operator.
#[derive(Debug, Clone)]
pub struct ParallelIbwj {
    config: JoinConfig,
    predicate: BandPredicate,
    kind: SharedIndexKind,
    self_join: bool,
    collect_results: bool,
    partitioner: Option<RangePartitioner>,
    forced_repartition: Option<(usize, RangePartitioner)>,
    open_loop_rate: Option<f64>,
    telemetry_out: Option<String>,
}

impl ParallelIbwj {
    /// Creates the operator. `config.threads` worker threads are used,
    /// `config.pim` configures the PIM-Tree (including its merge policy),
    /// `config.ring` tunes the task ring and idle back-off, and
    /// `config.shard` shards the ring across simulated NUMA nodes.
    pub fn new(
        config: JoinConfig,
        predicate: BandPredicate,
        kind: SharedIndexKind,
        self_join: bool,
    ) -> Self {
        config.validate().expect("invalid join configuration");
        ParallelIbwj {
            config,
            predicate,
            kind,
            self_join,
            collect_results: false,
            partitioner: None,
            forced_repartition: None,
            open_loop_rate: None,
            telemetry_out: None,
        }
    }

    /// Streams periodic gauge samples (ring occupancy per shard, in-flight
    /// count, window sizes, steal counters, drift imbalance, handoff
    /// frontier) as JSON Lines to `path` during the measured phase, sampled
    /// every `config.telemetry.sample_interval_ms`, and dumps the end-of-run
    /// telemetry report in the Prometheus text format to `path` + `.prom`.
    /// Requires a telemetry mode other than `off` to be useful, but works in
    /// every mode (gauges do not depend on phase timing).
    pub fn with_telemetry_out(mut self, path: impl Into<String>) -> Self {
        self.telemetry_out = Some(path.into());
        self
    }

    /// Selects how an adopted repartition plan is applied: one wholesale
    /// migration epoch ([`MigrationMode::Epoch`]) or a sequence of bounded
    /// per-sub-range handoff steps ([`MigrationMode::Incremental`]).
    /// Shorthand for setting `config.drift.migration_mode`.
    pub fn with_migration_mode(mut self, mode: MigrationMode) -> Self {
        self.config.drift.migration_mode = mode;
        self
    }

    /// Paces ingestion as an open-loop arrival process at `rate` tuples per
    /// second: measured-phase tuple `i` only becomes available for ingestion
    /// at its virtual arrival time `i / rate`, and the reported
    /// [`JoinRunStats::arrival_latency`] histogram measures arrival →
    /// propagation per tuple — so time spent queued behind a stalled or
    /// saturated engine counts toward the tail, which a closed-loop run
    /// hides (coordinated omission).
    pub fn with_open_loop(mut self, rate: f64) -> Self {
        assert!(
            rate.is_finite() && rate > 0.0,
            "open-loop arrival rate must be positive"
        );
        self.open_loop_rate = Some(rate);
        self
    }

    /// Collect result tuples (for tests); by default only counts are kept.
    pub fn with_collected_results(mut self, collect: bool) -> Self {
        self.collect_results = collect;
        self
    }

    /// Routes ingestion by key range: each tuple is ingested on the ring
    /// shard owning its key interval instead of round-robin. The
    /// partitioner's node count must equal `config.shard.shards`.
    pub fn with_partitioner(mut self, partitioner: RangePartitioner) -> Self {
        assert_eq!(
            partitioner.nodes(),
            self.config.shard.shards,
            "partitioner and shard config disagree on the shard count"
        );
        self.partitioner = Some(partitioner);
        self
    }

    /// Forces a repartition epoch mid-run: once ingestion passes input
    /// position `at`, the engine quiesces, adopts `partitioner` (ring
    /// routing plus, under the partitioned store, a full shard-state
    /// migration) and resumes — regardless of observed drift. The test and
    /// bench hook behind the `PIMTREE_TEST_REPARTITION` differential sweep:
    /// it exercises the exact epoch protocol the drift trigger uses, at a
    /// deterministic point. The partitioner's node count must equal
    /// `config.shard.shards`.
    pub fn with_forced_repartition(mut self, at: usize, partitioner: RangePartitioner) -> Self {
        assert_eq!(
            partitioner.nodes(),
            self.config.shard.shards,
            "partitioner and shard config disagree on the shard count"
        );
        self.forced_repartition = Some((at, partitioner));
        self
    }

    /// Runs the join over a tuple sequence, returning statistics and (when
    /// enabled) the results in arrival order of the probing tuple.
    pub fn run(&self, tuples: &[Tuple]) -> (JoinRunStats, Vec<JoinResult>) {
        self.run_with_warmup(tuples, 0)
    }

    /// Runs the join over a tuple sequence, excluding the first `warmup`
    /// tuples from the reported statistics.
    ///
    /// The warmup prefix is processed by the same engine state (windows fill
    /// up, the PIM-Tree goes through its first merge and gains its partition
    /// structure), mirroring how the single-threaded operators are measured
    /// after their windows are warm. Timing, throughput and per-phase counters
    /// cover only the remaining tuples; the result stream (when collection is
    /// enabled) still contains every match, including those produced during
    /// warmup, so correctness checks can cover the whole sequence.
    pub fn run_with_warmup(
        &self,
        tuples: &[Tuple],
        warmup: usize,
    ) -> (JoinRunStats, Vec<JoinResult>) {
        self.run_inner(tuples, warmup, None)
    }

    /// Runs the join like [`ParallelIbwj::run_with_warmup`] and hands the
    /// engine's [`ShardStore`] to `inspect` after the run, before teardown —
    /// the hook the per-shard footprint tests use to assert that a shard's
    /// index and window never hold a key outside its range.
    pub fn run_with_store_inspector(
        &self,
        tuples: &[Tuple],
        warmup: usize,
        inspect: impl FnOnce(&ShardStore),
    ) -> (JoinRunStats, Vec<JoinResult>) {
        let mut inspect = Some(inspect);
        self.run_inner(
            tuples,
            warmup,
            Some(&mut |store: &ShardStore| {
                if let Some(f) = inspect.take() {
                    f(store);
                }
            }),
        )
    }

    fn run_inner(
        &self,
        tuples: &[Tuple],
        warmup: usize,
        inspect: Option<&mut dyn FnMut(&ShardStore)>,
    ) -> (JoinRunStats, Vec<JoinResult>) {
        let warmup = warmup.min(tuples.len());
        let threads = self.config.threads;
        let task_size = self.config.task_size;
        let shards = self.config.shard.shards;
        let ring_cap = if self.config.ring.capacity > 0 {
            self.config.ring.capacity
        } else {
            (threads * task_size * 64).max(4096)
        };
        // `ring.capacity` configures the *total* capacity; each shard gets an
        // equal slice, floored so even a deliberately tiny ring leaves every
        // shard room for a whole task.
        let per_shard_cap = (ring_cap / shards)
            .max(2 * task_size)
            .max(4)
            .next_power_of_two();
        // One partitioner drives both layers: ring-shard routing and (with
        // `partition_index` on) the per-shard index/window placement, so a
        // worker's home ring shard and home store shard coincide. When the
        // partitioned store is requested without an explicit partitioner,
        // one is derived from the input's key sample (the same policy the
        // bench harness applies to ring routing). Drift-driven repartitioning
        // needs a key-range router to measure drift against, so `--repartition
        // on` derives one too.
        let partitioned = self.config.shard.partition_index && shards > 1;
        let drift_on = self.config.drift.repartition && shards > 1;
        let partitioner = match (&self.partitioner, partitioned || drift_on) {
            (Some(p), _) => Some(p.clone()),
            (None, true) => {
                // A bounded strided subsample picks (nearly) the same
                // boundaries as the full key set at O(1) memory — the
                // partitioner only needs N − 1 quantiles, not every key.
                let step = (tuples.len() / 4096).max(1);
                let sample: Vec<Key> = tuples.iter().step_by(step).map(|t| t.key).collect();
                Some(RangePartitioner::from_key_sample(shards, &sample))
            }
            (None, false) => None,
        };
        let ring = ShardedRing::new(
            &self.config.shard,
            task_size,
            per_shard_cap,
            partitioner.clone(),
        );
        // Total capacity across shards: the bound on how far any in-flight
        // task can lag the ingest frontier.
        let ring_cap = ring.capacity();
        let max_unindexed = (8 * threads * task_size).max(1024);
        // The window must keep slots readable well past expiry: in-flight
        // tasks reach back up to one ring capacity of ingests, and the
        // Bw-Tree's eager expiry deletion reads keys of tuples that can lag
        // the head by the admission bound plus a window plus a ring lap —
        // so the slack budgets for both the ring and the admission bound.
        let slack = 2 * ring_cap + max_unindexed + 1024;
        let ingest_target = if self.config.ring.ingest_target > 0 {
            self.config.ring.ingest_target.min(ring_cap)
        } else {
            // Upper bound floors at task_size so a deliberately tiny ring
            // (capacity down to 2 * task_size) cannot invert the clamp.
            (threads * task_size).clamp(task_size, (ring_cap / 4).max(task_size))
        };

        let window_sizes = if self.self_join {
            [self.config.window_r, 1]
        } else {
            [self.config.window_r, self.config.window_s]
        };
        let mut pim_cfg = self.config.pim;
        pim_cfg.window_size = self.config.max_window();
        let store = ShardStore::new(
            StoreParams {
                kind: self.kind,
                pim: pim_cfg,
                window_sizes,
                slack,
                deletion_lag: ring_cap as u64,
            },
            partitioned.then(|| {
                partitioner
                    .clone()
                    .expect("partitioned store needs a partitioner")
            }),
        );

        let mut shared = Shared {
            input: tuples,
            ingest_limit: if warmup > 0 { warmup } else { tuples.len() },
            predicate: self.predicate,
            task_size,
            self_join: self.self_join,
            ingest_target,
            max_unindexed,
            store,
            merge_policy: self.config.pim.merge_policy,
            collect_results: self.collect_results,
            backoff: self.config.ring,
            probe: self.config.probe,
            ring,
            next_ingest: AtomicUsize::new(0),
            claim_meta: (0..shards).map(|_| Default::default()).collect(),
            gate: QuiesceGate::new(),
            no_index_updates: [AtomicBool::new(false), AtomicBool::new(false)],
            pending: [Mutex::new(Vec::new()), Mutex::new(Vec::new())],
            merge_claimed: AtomicBool::new(false),
            merge_stats: Mutex::new((0, Duration::ZERO)),
            drift: if drift_on {
                partitioner.clone().map(|p| {
                    Mutex::new(DriftState {
                        monitor: DriftMonitor::new(
                            self.config.drift.window,
                            self.config.drift.imbalance_trigger,
                        ),
                        partitioner: p,
                        pending: None,
                        since_check: 0,
                        observations: 0,
                        plans_rejected: 0,
                    })
                })
            } else {
                None
            },
            drift_cfg: self.config.drift,
            forced_repartition: self.forced_repartition.clone(),
            forced_done: AtomicBool::new(false),
            repartition_pending: AtomicBool::new(false),
            migration_totals: Mutex::new(MigrationCounters::default()),
            handoff: Mutex::new(None),
            handoff_active: AtomicBool::new(false),
            open_loop: None,
            drained_pos: AtomicUsize::new(0),
            arrival_latency: Mutex::new(LatencyHistogram::new()),
            sink: Mutex::new((0, Vec::new())),
            worker_stats: Mutex::new(Vec::new()),
            telemetry: TelemetryRegistry::new(self.config.telemetry.mode, threads),
        };

        // Warmup phase: process the prefix with the same engine state, then
        // discard the counters it accumulated (results are kept).
        let mut warmup_results = Vec::new();
        if warmup > 0 {
            std::thread::scope(|scope| {
                let shared = &shared;
                for worker in 0..threads {
                    scope.spawn(move || worker_loop(shared, worker));
                }
            });
            shared.worker_stats.lock().clear();
            *shared.merge_stats.lock() = (0, Duration::ZERO);
            // Migration totals follow the same convention as the merge
            // stats: epochs adopted during warmup keep their effect (the
            // partitioner stays adopted) but only measured-phase counters
            // are reported.
            *shared.migration_totals.lock() = MigrationCounters::default();
            if let Some(drift) = &shared.drift {
                let mut st = drift.lock();
                st.observations = 0;
                st.plans_rejected = 0;
            }
            shared.telemetry.reset();
            let (_, results) = std::mem::take(&mut *shared.sink.lock());
            warmup_results = results;
            shared.ingest_limit = tuples.len();
        }
        // The ring's and store's traffic accounts span both phases; remember
        // the warmup baselines so the reported counters cover only the
        // measured tuples.
        let (warm_local, warm_remote) = (
            shared.ring.traffic().local(),
            shared.ring.traffic().remote(),
        );
        let (warm_store_local, warm_store_remote) = match shared.store.traffic() {
            Some(t) => (t.local(), t.remote()),
            None => (0, 0),
        };

        let measured = (tuples.len() - warmup) as u64;
        let start = Instant::now();
        // Open-loop pacing covers the measured phase only: warmup fills the
        // windows as fast as the engine admits, then the arrival clock
        // starts with the measurement.
        shared.open_loop = self.open_loop_rate.map(|rate| OpenLoopPacing {
            base: start,
            nanos_per_tuple: (1.0e9 / rate).round().max(0.0) as u64,
            measured_from: warmup,
        });
        // Live gauge export: a sampler thread runs alongside the measured
        // phase, appending one JSONL record per interval; the stop flag is
        // raised once every worker has exited so the sampler never outlives
        // the engine state it reads.
        let sampler_stop = AtomicBool::new(false);
        let sampler_sink = self.telemetry_out.as_deref().and_then(|path| {
            JsonlSink::create(path)
                .map_err(|e| eprintln!("telemetry: cannot create {path}: {e}"))
                .ok()
        });
        std::thread::scope(|scope| {
            let shared = &shared;
            let workers: Vec<_> = (0..threads)
                .map(|worker| scope.spawn(move || worker_loop(shared, worker)))
                .collect();
            let sampler = sampler_sink.map(|sink| {
                let stop = &sampler_stop;
                let interval = Duration::from_millis(self.config.telemetry.sample_interval_ms);
                scope.spawn(move || run_sampler(shared, sink, interval, start, stop))
            });
            for handle in workers {
                handle.join().expect("worker thread panicked");
            }
            sampler_stop.store(true, Ordering::Release);
            if let Some(handle) = sampler {
                handle.join().expect("telemetry sampler panicked");
            }
        });
        let elapsed = start.elapsed();
        // An incremental handoff interrupted by input exhaustion resumes
        // from its frontier and runs to completion before the store is
        // inspected, so post-run state always respects the adopted
        // ownership (its remaining stalls still land in the counters).
        complete_handoff(&shared);

        let mut stats = JoinRunStats {
            tuples: measured,
            elapsed,
            ..Default::default()
        };
        for w in shared.worker_stats.lock().iter() {
            stats.absorb(w);
        }
        stats.tuples = measured;
        stats.shard.shards = shared.ring.shards() as u64;
        stats.shard.local_accesses = shared.ring.traffic().local() - warm_local;
        stats.shard.remote_accesses = shared.ring.traffic().remote() - warm_remote;
        stats.shard.simulated_numa_cost = stats.shard.local_accesses
            * shared.ring.topology().local_cost
            + stats.shard.remote_accesses * shared.ring.topology().remote_cost;
        if shared.store.is_partitioned() {
            stats.store.partitioned = 1;
            stats.store.store_shards = shared.store.shards() as u64;
            let (traffic, topology) = (
                shared
                    .store
                    .traffic()
                    .expect("partitioned store has traffic"),
                shared
                    .store
                    .topology()
                    .expect("partitioned store has topology"),
            );
            stats.store.simulated_store_cost = (traffic.local() - warm_store_local)
                * topology.local_cost
                + (traffic.remote() - warm_store_remote) * topology.remote_cost;
        }
        if shared.open_loop.is_some() {
            stats.arrival_latency = Some(std::mem::take(&mut *shared.arrival_latency.lock()));
        }
        stats.migration = *shared.migration_totals.lock();
        if let Some(drift) = &shared.drift {
            let st = drift.lock();
            stats.migration.observations += st.observations;
            stats.migration.plans_rejected += st.plans_rejected;
        }
        stats.migration.enabled =
            (shared.drift.is_some() || shared.forced_repartition.is_some()) as u64;
        let report = shared.telemetry.report();
        if let Some(path) = self.telemetry_out.as_deref() {
            // The Prometheus text dump rides on the JSONL path: one scrape-
            // style snapshot at drain, next to the live samples.
            let prom_path = format!("{path}.prom");
            if let Err(e) = std::fs::write(&prom_path, report.to_prometheus()) {
                eprintln!("telemetry: cannot write {prom_path}: {e}");
            }
        }
        if shared.telemetry.mode() != TelemetryMode::Off {
            stats.telemetry = Some(report);
        }
        if let Some(inspect) = inspect {
            inspect(&shared.store);
        }
        let (merges, merge_time) = *shared.merge_stats.lock();
        stats.merges = merges;
        stats.merge_time = merge_time;
        let (count, results) = std::mem::take(&mut *shared.sink.lock());
        stats.results = count;
        if self.collect_results {
            warmup_results.extend(results);
            (stats, warmup_results)
        } else {
            (stats, results)
        }
    }
}

// ------------------------------------------------------------------ worker

/// Buffers reused across tasks by one worker so that the steady-state path
/// performs no heap allocation per tuple.
struct WorkerScratch {
    /// Tuples of the current task, straight out of the ring claim.
    items: Vec<ClaimedTask>,
    /// The ring shard the current task was claimed from (home or victim);
    /// slot completion must go back to the same shard.
    task_shard: usize,
    /// Tuples destined for each side's index, inserted as one batch per task.
    inserts: [Vec<(Key, Seq)>; 2],
    /// This task's probe ranges, grouped per probe-side index.
    probe_ranges: [Vec<KeyRange>; 2],
    /// The opposite-window bounds snapshot behind each entry of
    /// `probe_ranges`.
    probe_bounds: [Vec<WindowBounds>; 2],
    /// The item index behind each entry of `probe_ranges`.
    probe_items: [Vec<usize>; 2],
    /// Per-item match counts.
    counts: Vec<u64>,
    /// Per-item collected results (moved into the ring slot when the item
    /// completes).
    collected: Vec<Vec<JoinResult>>,
    /// Drift observations buffered while the monitor lock was contended
    /// (bounded; overflow is dropped — the monitor samples anyway).
    drift_backlog: Vec<(Key, u64)>,
}

impl WorkerScratch {
    fn new() -> Self {
        WorkerScratch {
            items: Vec::new(),
            task_shard: 0,
            inserts: [Vec::new(), Vec::new()],
            probe_ranges: [Vec::new(), Vec::new()],
            probe_bounds: [Vec::new(), Vec::new()],
            probe_items: [Vec::new(), Vec::new()],
            counts: Vec::new(),
            collected: Vec::new(),
            drift_backlog: Vec::new(),
        }
    }
}

fn worker_loop(shared: &Shared<'_>, worker: usize) {
    let mut local = JoinRunStats::default();
    let mut latency = LatencyRecorder::new();
    let mut scratch = WorkerScratch::new();
    let mut backoff = Backoff::new(&shared.backoff);
    let mut recorder = shared.telemetry.recorder(worker);
    // Workers are pinned round-robin to a home shard; on a real NUMA host
    // this is where the worker's thread would also be pinned to the shard's
    // socket.
    let home = worker % shared.ring.shards();
    loop {
        maybe_repartition(shared);
        maybe_merge(shared, home, &mut local, &mut recorder);
        let acquire_start = Instant::now();
        let acquired = acquire_task(shared, home, &mut scratch, &mut local, &mut recorder);
        let acquire_span = acquire_start.elapsed();
        local.phase.acquire += acquire_span;
        recorder.record_nanos(EnginePhase::Claim, acquire_span.as_nanos() as u64);
        if acquired {
            let acquired_at = Instant::now();
            process_task(
                shared,
                home,
                acquired_at,
                &mut scratch,
                &mut local,
                &mut latency,
                &mut recorder,
            );
            shared.gate.exit();
            backoff.reset();
            let propagate_start = Instant::now();
            propagate(shared, &mut local);
            local.phase.propagate += propagate_start.elapsed();
        } else {
            let propagate_start = Instant::now();
            propagate(shared, &mut local);
            local.phase.propagate += propagate_start.elapsed();
            if is_finished(shared) {
                break;
            }
            // Nothing to do right now (gate closed, ring momentarily empty,
            // or ingestion paused by admission control). Retry the edge
            // advancement — a lost try-lock race must not leave the edge
            // stale with no indexing work left to trigger another attempt —
            // then back off adaptively instead of hammering the shared
            // counters that the productive workers need.
            shared.store.try_advance_edge(0);
            if !shared.self_join {
                shared.store.try_advance_edge(1);
            }
            let idle_start = Instant::now();
            match backoff.idle() {
                IdleKind::Spin => local.ring.idle_spins += 1,
                IdleKind::Yield => local.ring.idle_yields += 1,
                IdleKind::Park => local.ring.idle_parks += 1,
            }
            local.phase.idle += idle_start.elapsed();
        }
    }
    recorder.finish();
    local.latency = latency;
    shared.worker_stats.lock().push(local);
}

fn is_finished(shared: &Shared<'_>) -> bool {
    shared.next_ingest.load(Ordering::Acquire) == shared.ingest_limit && shared.ring.is_empty()
}

// --------------------------------------------------------------- telemetry

/// The live gauge sampler: snapshots the engine's observable state every
/// `interval` and appends one JSON line per snapshot (the schema is pinned
/// by `docs/telemetry-schema.json`). Reads are relaxed loads and try-locks
/// only — the sampler never blocks a worker; a contended drift or handoff
/// lock simply reports the idle value for that round. One final sample is
/// taken after the stop flag rises, so the drained end state is always in
/// the trace.
fn run_sampler(
    shared: &Shared<'_>,
    mut sink: JsonlSink,
    interval: Duration,
    start: Instant,
    stop: &AtomicBool,
) {
    let mut seq = 0u64;
    loop {
        let stopping = stop.load(Ordering::Acquire);
        let sample = gauge_sample(shared, seq, start);
        if let Err(e) = sink.append(&sample) {
            eprintln!("telemetry: sample write failed: {e}");
            return;
        }
        seq += 1;
        if stopping {
            break;
        }
        std::thread::sleep(interval);
    }
    if let Err(e) = sink.finish() {
        eprintln!("telemetry: sink flush failed: {e}");
    }
}

/// Snapshots the engine gauges for one sampler round. Counters read here are
/// individually monotone but not mutually consistent — the sample is a
/// statistical observation, not a transaction.
fn gauge_sample(shared: &Shared<'_>, seq: u64, start: Instant) -> GaugeSample {
    let window = |side: usize| {
        let b = shared.store.bounds(side);
        b.latest_exclusive.saturating_sub(b.earliest)
    };
    let drift_imbalance = shared
        .drift
        .as_ref()
        .and_then(|d| d.try_lock().map(|st| st.monitor.imbalance(&st.partitioner)))
        .unwrap_or(0.0);
    let (handoff_steps_done, handoff_steps_total) = shared
        .handoff
        .try_lock()
        .and_then(|slot| {
            slot.as_ref()
                .map(|st| (st.next as u64, st.steps.len() as u64))
        })
        .unwrap_or((0, 0));
    GaugeSample {
        seq,
        elapsed_us: start.elapsed().as_micros() as u64,
        in_flight: shared.gate.in_flight() as u64,
        shard_occupancy: (0..shared.ring.shards())
            .map(|s| shared.ring.shard_available(s) as u64)
            .collect(),
        unindexed_r: shared.store.unindexed_len(0),
        unindexed_s: shared.store.unindexed_len(1),
        window_r: window(0),
        window_s: window(1),
        local_claims: shared.ring.traffic().local(),
        stolen_claims: shared.ring.traffic().remote(),
        drift_imbalance,
        handoff_steps_done,
        handoff_steps_total,
        events: shared.telemetry.events(),
    }
}

/// Tries to acquire a task from the ring, topping the ring up through the
/// ingest token when it runs low.
///
/// The `in_flight` increment happens *before* the gate check while the
/// merging thread stores the gate *before* reading `in_flight` (both
/// `SeqCst`): in every interleaving the merger either sees this worker's
/// increment and waits, or the worker sees the closed gate and backs out —
/// a claim can never slip past a closing gate unnoticed.
fn acquire_task(
    shared: &Shared<'_>,
    home: usize,
    scratch: &mut WorkerScratch,
    local: &mut JoinRunStats,
    recorder: &mut WorkerRecorder,
) -> bool {
    if !shared.gate.try_enter() {
        return false;
    }
    if shared.ring.available() < shared.ingest_target {
        let clock = recorder.clock();
        try_ingest(shared, local);
        recorder.commit(EnginePhase::Ingest, clock);
    }
    scratch.items.clear();
    let Some(claim) = shared.ring.claim(
        home,
        shared.task_size,
        &mut scratch.items,
        &mut local.ring,
        &mut local.shard,
    ) else {
        shared.gate.exit();
        return false;
    };
    scratch.task_shard = claim.shard;
    // Record claim progress per (shard, probe side) for the O(shards) merge
    // horizon. This happens while the task is counted in `in_flight`, so a
    // merger that observed quiescence is guaranteed to see it.
    for task in &scratch.items {
        let probe = shared.probe_idx(task.tuple.side);
        let meta = &shared.claim_meta[claim.shard][probe];
        meta.last_claimed_bound
            .fetch_max(task.bounds.earliest, Ordering::AcqRel);
        meta.claimed.fetch_add(1, Ordering::Release);
    }
    true
}

/// Batch-fills the ring through the ingest token (no-op when another worker
/// holds it). Admission control and window appends keep the exact semantics
/// of the mutex-based engine: the opposite window's bounds are snapshotted
/// *before* the tuple is appended to its own window (which matters for
/// self-joins), and ingestion stalls while a window's non-indexed suffix
/// exceeds its bound. Each tuple is routed to the ring shard owning its key
/// range (round-robin without a partitioner); a full *routed* shard stalls
/// ingestion entirely, because admitting later arrivals on other shards
/// would break the global arrival order the merge cursor relies on.
fn try_ingest(shared: &Shared<'_>, local: &mut JoinRunStats) {
    let Some(guard) = shared.ring.try_ingest() else {
        local.ring.ingest_token_contended += 1;
        return;
    };
    let mut pos = shared.next_ingest.load(Ordering::Relaxed);
    let mut ingested_any = false;
    while pos < shared.ingest_limit && shared.ring.available() < shared.ingest_target {
        // Open-loop pacing: a tuple whose virtual arrival time has not come
        // yet is simply not available — the worker goes back to draining
        // whatever is queued (arrival order is preserved because ingestion
        // is sequential in `pos`).
        if let Some(ol) = &shared.open_loop {
            if pos >= ol.measured_from {
                let due =
                    ((pos - ol.measured_from) as u64).saturating_mul(ol.nanos_per_tuple) as u128;
                if ol.base.elapsed().as_nanos() < due {
                    break;
                }
            }
        }
        let t = shared.input[pos];
        // Capacity of the routed shard is checked before the window append so
        // that a published window tuple is always matched by a published ring
        // slot.
        let shard = guard.route(t.key);
        if !guard.can_push(shard) {
            if shared.ring.shards() > 1 {
                local.shard.shard_full_stalls += 1;
            }
            break;
        }
        let own = shared.own_idx(t.side);
        if shared.store.unindexed_len(own) as usize >= shared.max_unindexed {
            local.ring.ingest_stalls += 1;
            break;
        }
        let probe = shared.probe_idx(t.side);
        let bounds = shared.store.bounds(probe);
        let seq = shared
            .store
            .append(own, t.key)
            .expect("sliding window slack exhausted");
        debug_assert_eq!(
            seq, t.seq,
            "input sequence numbers must match arrival order"
        );
        guard.push(shard, t, bounds);
        shared.claim_meta[shard][probe]
            .ingested
            .fetch_add(1, Ordering::Release);
        pos += 1;
        shared.next_ingest.store(pos, Ordering::Release);
        ingested_any = true;
    }
    if ingested_any {
        local.ring.ingest_batches += 1;
    }
}

fn process_task(
    shared: &Shared<'_>,
    home: usize,
    acquired_at: Instant,
    scratch: &mut WorkerScratch,
    local: &mut JoinRunStats,
    latency: &mut LatencyRecorder,
    recorder: &mut WorkerRecorder,
) {
    let entry_bytes = std::mem::size_of::<Entry>() as u64;
    // Step 2: result generation. Each tuple's results are published to its
    // ring slot with a single release store the moment they are ready, so
    // the draining worker can start propagating the prefix while this task
    // is still working on its remaining tuples.
    let generate_start = Instant::now();
    generate(shared, home, scratch, local);
    let generate_span = generate_start.elapsed();
    local.phase.generate += generate_span;
    recorder.record_nanos(EnginePhase::Probe, generate_span.as_nanos() as u64);
    // Feed the drift monitor with this task's `(key, match count)` pairs —
    // the paper's combined insert+output load signal per key interval.
    if shared.drift.is_some() {
        record_drift(shared, scratch);
    }
    // Latency is the task processing time (§5): acquisition to results ready.
    let task_latency = acquired_at.elapsed();
    for _ in 0..scratch.items.len() {
        latency.record(task_latency);
    }
    // Step 3: index update, batched per side so the generation lock and the
    // shared counters are touched once per task instead of once per tuple.
    // The store routes each entry to the shard owning its key, retires newly
    // expired entries of eager-deletion backends, marks the inserted tuples
    // indexed and advances the edge(s).
    let update_start = Instant::now();
    scratch.inserts[0].clear();
    scratch.inserts[1].clear();
    for &ClaimedTask { tuple, .. } in &scratch.items {
        let own = shared.own_idx(tuple.side);
        if shared.no_index_updates[own].load(Ordering::Acquire) {
            shared.pending[own].lock().push((tuple.key, tuple.seq));
        } else {
            scratch.inserts[own].push((tuple.key, tuple.seq));
        }
    }
    for own in 0..2 {
        if scratch.inserts[own].is_empty() {
            continue;
        }
        shared
            .store
            .insert_batch(own, &scratch.inserts[own], home, local);
        local.bytes_stored += scratch.inserts[own].len() as u64 * entry_bytes;
    }
    let update_span = update_start.elapsed();
    local.phase.update += update_span;
    recorder.record_nanos(EnginePhase::Expiry, update_span.as_nanos() as u64);
}

/// Result generation: the whole task's probes are gathered per probe side and
/// answered through the store with one batched CSS group descent, against the
/// shared index/window pair or fanned out across the store shards
/// overlapping each band-join range.
///
/// Each tuple's edge snapshot is taken inside the store *before* the index
/// probe it covers and used for both the index filter and the window-scan
/// start, which keeps the two sides of the edge split consistent per tuple —
/// a snapshot that is a little stale only lengthens the linear scan, never
/// changes the result set (§4.1). Ring slots are still completed per tuple,
/// so ordered propagation is unaffected.
fn generate(
    shared: &Shared<'_>,
    home: usize,
    scratch: &mut WorkerScratch,
    local: &mut JoinRunStats,
) {
    let n = scratch.items.len();
    let collect = shared.collect_results;
    scratch.counts.clear();
    scratch.counts.resize(n, 0);
    scratch.collected.clear();
    scratch.collected.resize_with(n, Vec::new);
    for side in 0..2 {
        scratch.probe_ranges[side].clear();
        scratch.probe_bounds[side].clear();
        scratch.probe_items[side].clear();
    }
    for (i, &ClaimedTask { tuple, bounds, .. }) in scratch.items.iter().enumerate() {
        let probe = shared.probe_idx(tuple.side);
        scratch.probe_ranges[probe].push(shared.predicate.probe_range(tuple.key));
        scratch.probe_bounds[probe].push(bounds);
        scratch.probe_items[probe].push(i);
    }
    for side in 0..2 {
        if scratch.probe_ranges[side].is_empty() {
            continue;
        }
        let items = &scratch.items;
        let idxs = &scratch.probe_items[side];
        let counts = &mut scratch.counts;
        let collected = &mut scratch.collected;
        shared.store.generate(
            side,
            &scratch.probe_ranges[side],
            &scratch.probe_bounds[side],
            &shared.probe,
            home,
            local,
            &mut |j, seq, key| {
                let i = idxs[j];
                counts[i] += 1;
                if collect {
                    let item = &items[i];
                    let matched = shared.matched_side(item.tuple.side);
                    collected[i].push(JoinResult::new(item.tuple, Tuple::new(matched, seq, key)));
                }
            },
        );
    }
    // Slot publication, per tuple, in task order.
    let task_shard = scratch.task_shard;
    for (i, &ClaimedTask { gid, .. }) in scratch.items.iter().enumerate() {
        let count = scratch.counts[i];
        let results = std::mem::take(&mut scratch.collected[i]);
        local.bytes_stored += count * std::mem::size_of::<JoinResult>() as u64;
        local.results += count;
        local.tuples += 1;
        local.breakdown.tuples += 1;
        shared.ring.complete(task_shard, gid, count, results);
    }
}

/// Propagates the completed ring prefix into the sink in arrival order.
///
/// The paper's test-and-set scheme: the sink try-lock elects at most one
/// propagating worker; everyone else goes straight back to useful work. The
/// elected worker drains directly from the ring cursor into the sink — no
/// intermediate buffer, no lock held across result generation.
fn propagate(shared: &Shared<'_>, local: &mut JoinRunStats) {
    let Some(mut sink) = shared.sink.try_lock() else {
        local.ring.drain_contended += 1;
        return;
    };
    let collect = shared.collect_results;
    // Under open-loop pacing, stamp each drained slot's end-to-end latency:
    // drain time minus the slot's virtual arrival time. Slots drain in
    // global arrival order (a structural ring invariant), so the drain
    // cursor position *is* the arrival index.
    let mut arrivals = shared
        .open_loop
        .as_ref()
        .map(|ol| (ol, shared.arrival_latency.lock(), Instant::now()));
    let drained = shared.ring.try_drain(collect, |count, results| {
        sink.0 += count;
        if collect {
            sink.1.extend(results);
        }
        if let Some((ol, hist, now)) = arrivals.as_mut() {
            let i = shared.drained_pos.fetch_add(1, Ordering::Relaxed) as u64;
            let due_nanos = i.saturating_mul(ol.nanos_per_tuple);
            let elapsed = now.saturating_duration_since(ol.base).as_nanos() as u64;
            hist.record_nanos(elapsed.saturating_sub(due_nanos));
        }
    });
    if let Some(n) = drained {
        if n > 0 {
            local.ring.drain_batches += 1;
            local.ring.slots_drained += n;
        }
    }
}

// ------------------------------------------------------------- repartition

/// Flushes a task's `(key, match count)` observations into the drift
/// monitor and, every `effective_check_interval` observations, turns a
/// triggering sample into a pending repartition plan.
///
/// The monitor lock is only ever *try*-acquired here: a contended flush
/// stashes the observations in the worker's bounded backlog instead of
/// blocking the hot path. Plans that fail the cost gate (or that reproduce
/// the current boundaries) are rejected and the monitor cools down, so the
/// same stale sample can neither oscillate nor re-plan every check.
fn record_drift(shared: &Shared<'_>, scratch: &mut WorkerScratch) {
    let Some(drift) = &shared.drift else { return };
    let Some(mut st) = drift.try_lock() else {
        let room = DRIFT_BACKLOG_CAP.saturating_sub(scratch.drift_backlog.len());
        for (i, task) in scratch.items.iter().enumerate().take(room) {
            scratch
                .drift_backlog
                .push((task.tuple.key, scratch.counts[i]));
        }
        return;
    };
    let mut observed = 0u64;
    for (key, weight) in scratch.drift_backlog.drain(..) {
        st.monitor.observe(key, weight);
        observed += 1;
    }
    for (i, task) in scratch.items.iter().enumerate() {
        st.monitor.observe(task.tuple.key, scratch.counts[i]);
        observed += 1;
    }
    st.since_check += observed as usize;
    st.observations += observed;
    // While an incremental handoff is in flight no new plan is staged: it
    // would be measured against the partitioner currently being replaced
    // (observations keep flowing — the sample stays warm for the next
    // check after the handoff finalizes).
    if st.pending.is_none()
        && !shared.handoff_active.load(Ordering::Relaxed)
        && st.since_check >= shared.drift_cfg.effective_check_interval()
    {
        st.since_check = 0;
        if st.monitor.should_repartition(&st.partitioner) {
            let plan = st.monitor.plan(&st.partitioner);
            if plan.moved_fraction <= shared.drift_cfg.cost_gate
                && plan.new_partitioner != st.partitioner
            {
                st.pending = Some(plan.new_partitioner);
                shared.repartition_pending.store(true, Ordering::Release);
            } else {
                // Too costly (or a no-op): not worth a migration epoch. The
                // cooldown makes the next decision wait for a fresh window
                // instead of re-planning from the same sample every check.
                st.plans_rejected += 1;
                st.monitor.note_adoption();
            }
        }
    }
}

/// Adopts a pending (or forced) repartition plan through a migration epoch.
/// Called outside the `in_flight` window, like [`maybe_merge`]: the epoch
/// closes the same gate a blocking merge does, so it must not count itself
/// as an in-flight task.
///
/// The epoch protocol — quiesce → swap → migrate → resume:
///
/// 1. **Claim.** The engine's single maintenance claim (`merge_claimed`)
///    serialises epochs against merges: a migration never swaps a tree out
///    from under a running merge, and never observes a half-merged side
///    (phase-1 pending buffers are always drained before the claim is
///    released).
/// 2. **Quiesce.** The gate stops task acquisition *and* ingestion (workers
///    only ingest behind the gate check), then the epoch waits for
///    `in_flight == 0`. Tuples not yet ingested simply wait in the input —
///    the "staging buffer" needs no copy. Tuples already in the ring keep
///    the shard the old routing chose; home claims and the unconditional
///    steal pass drain them, and arrival stamps keep propagation in global
///    order regardless of which shard holds them.
/// 3. **Swap + migrate.** The ring router swaps to the new partitioner, and
///    the store re-homes every index entry and window tuple whose key
///    changed shards (see `ShardStore::adopt_partitioner`), charging each
///    move to the simulated traffic account.
/// 4. **Resume.** The gate reopens; stalled ingestion re-routes subsequent
///    input under the new partitioner.
fn maybe_repartition(shared: &Shared<'_>) {
    // Incremental handoff (requires shard state to hand off — without the
    // partitioned store a "migration" is just the ring router swap, for
    // which the epoch path below is already minimal).
    let incremental = shared.drift_cfg.migration_mode == MigrationMode::Incremental
        && shared.store.is_partitioned();
    if incremental && shared.handoff_active.load(Ordering::Acquire) {
        // A handoff is in flight: perform its next bounded transition. New
        // plan peeks wait until it finalizes.
        handoff_visit(shared, None);
        return;
    }
    // Forced adoption (deterministic test/bench hook).
    let forced = match &shared.forced_repartition {
        Some((at, p))
            if !shared.forced_done.load(Ordering::Acquire)
                && shared.next_ingest.load(Ordering::Acquire) >= *at =>
        {
            Some(p.clone())
        }
        _ => None,
    };
    // Drift-driven adoption: anything pending? One relaxed load — a
    // try-lock peek here would contend with record_drift's flush try-lock
    // on every worker-loop iteration and thin the drift sample.
    let drift_pending = forced.is_none() && shared.repartition_pending.load(Ordering::Acquire);
    if forced.is_none() && !drift_pending {
        return;
    }
    if incremental {
        handoff_visit(shared, forced);
        return;
    }
    if shared.merge_claimed.swap(true, Ordering::AcqRel) {
        return; // a merge or another epoch is in progress; retry later
    }
    let mut lap = StallLap::start();
    close_gate_and_wait_attributed(shared, &mut lap);
    // Re-resolve the plan under the claim: the forced flag and the pending
    // plan may have been consumed by a racing epoch between the peek above
    // and the claim.
    let new_partitioner = if let Some(p) = forced {
        if shared.forced_done.swap(true, Ordering::SeqCst) {
            None
        } else {
            Some(p)
        }
    } else {
        shared.drift.as_ref().and_then(|d| d.lock().pending.take())
    };
    let Some(new_partitioner) = new_partitioner else {
        open_gate(shared);
        shared.merge_claimed.store(false, Ordering::Release);
        return;
    };
    shared.ring.set_partitioner(new_partitioner.clone());
    lap.lap(StallCause::RouterSwap);
    let migrated = shared.store.adopt_partitioner(&new_partitioner);
    // Split the wholesale migration over its measured sub-phases; any
    // bookkeeping slack between the outer lap and the store's inner clocks
    // is attributed to the dominant rebuild phase.
    if let Some(m) = &migrated {
        lap.lap_split(
            &[
                (StallCause::WindowSnapshot, m.snapshot_nanos),
                (StallCause::Rebuild, m.rebuild_nanos),
                (StallCause::IndexSwap, m.swap_nanos),
            ],
            StallCause::Rebuild,
        );
    } else {
        lap.lap(StallCause::Rebuild);
    }
    if let Some(drift) = &shared.drift {
        let mut st = drift.lock();
        st.partitioner = new_partitioner;
        // Drop any plan computed against the *previous* partitioner — after
        // a forced adoption it would otherwise survive and migrate the
        // freshly adopted state right back in the next epoch — then clear
        // the stale pre-migration sample and cool down, so adoption cannot
        // oscillate (the satellite regression). The pending flag is lowered
        // *while the lock is held*: lowering it after release could clobber
        // a flusher that staged (and flagged) a fresh plan in between,
        // leaving that plan invisible to every future peek.
        st.pending = None;
        st.monitor.note_adoption();
        shared.repartition_pending.store(false, Ordering::Release);
    } else {
        shared.repartition_pending.store(false, Ordering::Release);
    }
    open_gate(shared);
    shared.merge_claimed.store(false, Ordering::Release);
    // The tail (drift bookkeeping + gate reopen) rides on the gate cause:
    // it is the cost of operating the gate, not of moving state.
    lap.lap(StallCause::GateClose);
    let breakdown = lap.finish();
    shared.telemetry.record_stall(&breakdown);
    let remote_cost = shared
        .store
        .topology()
        .unwrap_or_else(|| shared.ring.topology())
        .remote_cost;
    let mut totals = shared.migration_totals.lock();
    totals.epochs += 1;
    totals.record_stall_breakdown(&breakdown);
    if let Some(m) = migrated {
        totals.index_entries_moved += m.index_entries_moved;
        totals.window_tuples_moved += m.window_tuples_moved;
        totals.simulated_move_cost += (m.index_entries_moved + m.window_tuples_moved) * remote_cost;
    }
}

/// What one quiesced visit of the incremental handoff protocol did.
enum HandoffTransition {
    /// Began the next step: its sub-range became dual-owned (new appends
    /// re-routed to the destination; probes fan out to both homes).
    Begun,
    /// Moved one budgeted chunk of the active step between its shard pair.
    Advanced(crate::store::StoreMigration),
    /// Every step done: routing and ownership swapped to the new
    /// partitioner, handoff dismantled.
    Finalized,
}

/// Performs one bounded transition of an incremental handoff under the
/// maintenance claim — the incremental counterpart of the epoch body in
/// [`maybe_repartition`]. Each visit quiesces the engine only for its own
/// short transition (consume a plan and begin its first step, move one
/// budgeted chunk, or finalize); ingestion and probing resume in between,
/// which is exactly what bounds the per-stall tail (the epoch path pays for
/// the whole migration in one quiesce).
fn handoff_visit(shared: &Shared<'_>, forced: Option<RangePartitioner>) {
    if shared.merge_claimed.swap(true, Ordering::AcqRel) {
        return; // a merge or another maintenance visit is in progress
    }
    let mut lap = StallLap::start();
    close_gate_and_wait_attributed(shared, &mut lap);
    let outcome = handoff_transition(shared, forced, &mut lap);
    open_gate(shared);
    shared.merge_claimed.store(false, Ordering::Release);
    // Residual transition bookkeeping + gate reopen, as in the epoch path.
    lap.lap(StallCause::GateClose);
    let Some(outcome) = outcome else { return };
    let breakdown = lap.finish();
    shared.telemetry.record_stall(&breakdown);
    let remote_cost = shared
        .store
        .topology()
        .unwrap_or_else(|| shared.ring.topology())
        .remote_cost;
    let mut totals = shared.migration_totals.lock();
    totals.record_stall_breakdown(&breakdown);
    match outcome {
        HandoffTransition::Begun => {}
        HandoffTransition::Advanced(m) => {
            totals.handoff_steps += 1;
            totals.index_entries_moved += m.index_entries_moved;
            totals.window_tuples_moved += m.window_tuples_moved;
            totals.simulated_move_cost +=
                (m.index_entries_moved + m.window_tuples_moved) * remote_cost;
        }
        HandoffTransition::Finalized => totals.epochs += 1,
    }
}

/// The transition body of [`handoff_visit`]; runs with the gate closed, the
/// engine quiescent and the maintenance claim held. Returns `None` when
/// there was nothing to do (the staged plan was consumed by a racing visit
/// between the caller's peek and the claim).
fn handoff_transition(
    shared: &Shared<'_>,
    forced: Option<RangePartitioner>,
    lap: &mut StallLap,
) -> Option<HandoffTransition> {
    let mut slot = shared.handoff.lock();
    if slot.is_none() {
        // Re-resolve the plan under the claim, exactly like the epoch path.
        let new = if let Some(p) = forced {
            (!shared.forced_done.swap(true, Ordering::SeqCst)).then_some(p)
        } else {
            shared.drift.as_ref().and_then(|d| {
                let mut st = d.lock();
                let p = st.pending.take();
                if p.is_some() {
                    // Lowered while the lock is held, for the same reason as
                    // in the epoch path.
                    shared.repartition_pending.store(false, Ordering::Release);
                }
                p
            })
        };
        let new = new?;
        let current = shared
            .store
            .partitioner()
            .expect("incremental handoff requires a partitioned store");
        let steps = handoff_steps(&current, &new);
        *slot = Some(HandoffState {
            new_partitioner: new,
            steps,
            next: 0,
            step_active: false,
        });
        shared.handoff_active.store(true, Ordering::Release);
        // Fall through: a no-op plan (no steps) finalizes right away, a
        // real one begins its first step in this same quiesce.
    }
    let st = slot.as_mut().expect("handoff state ensured above");
    if st.step_active {
        let adv = shared
            .store
            .advance_handoff_step(shared.drift_cfg.effective_handoff_budget());
        // The frontier cut never leaves the active step's sub-range.
        debug_assert!(
            (st.steps[st.next].lo..=st.steps[st.next].hi).contains(&adv.cut),
            "handoff frontier left its step range"
        );
        if adv.done {
            st.step_active = false;
            st.next += 1;
        }
        // Split the budgeted chunk move over the store's measured sub-phases
        // (cut selection counts as the snapshot share).
        lap.lap_split(
            &[
                (StallCause::WindowSnapshot, adv.migration.snapshot_nanos),
                (StallCause::Rebuild, adv.migration.rebuild_nanos),
                (StallCause::IndexSwap, adv.migration.swap_nanos),
            ],
            StallCause::Rebuild,
        );
        return Some(HandoffTransition::Advanced(adv.migration));
    }
    if let Some(&step) = st.steps.get(st.next) {
        shared
            .store
            .begin_handoff_step(step.lo, step.hi, step.src, step.dst);
        // New arrivals of the whole step range go to the destination ring
        // shard immediately (store appends follow suit), so the sub-range
        // stops accumulating state at the source while it drains.
        shared.ring.add_route_override(step.lo, step.hi, step.dst);
        st.step_active = true;
        // Beginning a step is a routing change: the override install is the
        // whole cost of this quiesce.
        lap.lap(StallCause::RouterSwap);
        return Some(HandoffTransition::Begun);
    }
    // Every sub-range is fully moved: swap the routing wholesale (this
    // clears the per-step overrides), retire the handoff overlay, and do
    // the same drift bookkeeping as an epoch adoption so staged-but-stale
    // plans cannot replay against the freshly adopted partitioner.
    let new = st.new_partitioner.clone();
    shared.ring.set_partitioner(new.clone());
    shared.store.finish_handoff(&new);
    if let Some(drift) = &shared.drift {
        let mut d = drift.lock();
        d.partitioner = new;
        d.pending = None;
        d.monitor.note_adoption();
        shared.repartition_pending.store(false, Ordering::Release);
    }
    *slot = None;
    shared.handoff_active.store(false, Ordering::Release);
    // Finalization swaps the wholesale routing: a router change end to end.
    lap.lap(StallCause::RouterSwap);
    Some(HandoffTransition::Finalized)
}

/// Drives an incremental handoff left in flight by input exhaustion to
/// completion. The workers have exited, so the remaining transitions run
/// back to back on the coordinating thread; resumability from the frontier
/// is exactly what makes this a plain loop.
fn complete_handoff(shared: &Shared<'_>) {
    // The forced-repartition hook is a deterministic contract: once its
    // trigger point has been ingested, the plan is adopted. Workers check
    // the trigger on their loop, but when the trigger sits in the input's
    // tail every worker can drain its remaining tasks and exit between the
    // final ingest and its next maintenance visit — so an armed,
    // unconsumed trigger is consumed here (epoch adoption runs inline;
    // incremental begins the handoff the loop below then drains).
    let forced_armed = matches!(
        &shared.forced_repartition,
        Some((at, _)) if !shared.forced_done.load(Ordering::Acquire)
            && shared.next_ingest.load(Ordering::Acquire) >= *at
    );
    if forced_armed {
        maybe_repartition(shared);
    }
    while shared.handoff_active.load(Ordering::Acquire) {
        handoff_visit(shared, None);
    }
}

// ------------------------------------------------------------------- merge

fn close_gate_and_wait(shared: &Shared<'_>) {
    shared.gate.close();
    shared.gate.await_quiesce();
}

/// [`close_gate_and_wait`] with stall-cause attribution: the gate store and
/// the in-flight drain spin become the first two laps of the quiesce, so the
/// per-cause segments tile the stall exactly from its first instruction.
fn close_gate_and_wait_attributed(shared: &Shared<'_>, lap: &mut StallLap) {
    shared.gate.close();
    lap.lap(StallCause::GateClose);
    shared.gate.await_quiesce();
    lap.lap(StallCause::InFlightDrain);
}

fn open_gate(shared: &Shared<'_>) {
    shared.gate.open();
}

/// The oldest sequence number (per merged side) that any queued or future
/// task may still probe; merging with this horizon guarantees that no
/// in-flight task loses index entries it relies on.
///
/// Called with the gate closed and the engine quiescent (`in_flight == 0`),
/// so the only tasks that still need old entries are the ingested-but-
/// unclaimed ones. Per shard, their bounds are at least that shard's
/// `last_claimed_bound` (bounds are non-decreasing in slot id per side —
/// each shard receives a subsequence of the globally ordered ingest — and a
/// shard's claims take its slot ids in order). Claims across shards are
/// *not* globally ordered, which is exactly why the counters are kept per
/// shard: the global horizon is the fold (minimum) of the per-shard monotone
/// counters, a handful of atomic reads instead of a ring scan. The result is
/// never larger than the true minimum, which keeps it safe — at worst a few
/// already-expired tuples survive one extra merge.
fn merge_horizon(shared: &Shared<'_>, side: usize) -> Seq {
    let mut horizon = shared.store.earliest_live(side);
    for shard_meta in &shared.claim_meta {
        let meta = &shard_meta[side];
        if meta.ingested.load(Ordering::Acquire) > meta.claimed.load(Ordering::Acquire) {
            horizon = horizon.min(meta.last_claimed_bound.load(Ordering::Acquire));
        }
    }
    horizon
}

fn maybe_merge(
    shared: &Shared<'_>,
    home: usize,
    local: &mut JoinRunStats,
    recorder: &mut WorkerRecorder,
) {
    for side in 0..if shared.self_join { 1 } else { 2 } {
        if shared.store.merge_candidate(side).is_none() {
            continue;
        }
        if shared.merge_claimed.swap(true, Ordering::AcqRel) {
            return; // another thread is already merging
        }
        // Re-check under the claim; under the partitioned store each shard's
        // tree merges independently, one shard per claim (a subsequent claim
        // picks up the next shard over the threshold).
        let Some(shard) = shared.store.merge_candidate(side) else {
            shared.merge_claimed.store(false, Ordering::Release);
            return;
        };
        let Some(pim) = shared.store.pim(side, shard) else {
            shared.merge_claimed.store(false, Ordering::Release);
            return;
        };
        let merge_start = Instant::now();
        let report = match shared.merge_policy {
            MergePolicy::Blocking => {
                close_gate_and_wait(shared);
                let horizon = merge_horizon(shared, side);
                let report = pim.merge(horizon);
                open_gate(shared);
                report
            }
            MergePolicy::NonBlocking => {
                // Phase 1: stop index updates for this side, then build the
                // next generation while the other workers keep joining.
                close_gate_and_wait(shared);
                shared.no_index_updates[side].store(true, Ordering::Release);
                let horizon = merge_horizon(shared, side);
                open_gate(shared);
                let prepared = pim.begin_merge(horizon);
                // Phase 2: swap the tree under a closed gate, then re-open it
                // *before* replaying the updates buffered during phase 1 — the
                // paper's workers resume joining (with index updates) while the
                // merging thread drains the pending list. Pending tuples stay
                // reachable through the linear window scan until they are
                // marked indexed, so probes remain correct throughout. The
                // replay goes through the store, which routes each buffered
                // tuple back to the shard owning its key (phase 1 buffered the
                // whole side, not just the merging shard).
                close_gate_and_wait(shared);
                let report = pim.install_merge(prepared);
                let pending = std::mem::take(&mut *shared.pending[side].lock());
                shared.no_index_updates[side].store(false, Ordering::Release);
                open_gate(shared);
                for chunk in pending.chunks(4096) {
                    shared.store.insert_batch(side, chunk, home, local);
                }
                report
            }
        };
        local.breakdown.record_nanos(
            pimtree_common::Step::Merge,
            report.duration.as_nanos() as u64,
        );
        recorder.record_nanos(EnginePhase::Merge, report.duration.as_nanos() as u64);
        {
            let mut ms = shared.merge_stats.lock();
            ms.0 += 1;
            ms.1 += merge_start.elapsed();
        }
        shared.merge_claimed.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{canonical, reference_join};
    use pimtree_common::{IndexKind, PimConfig, RingConfig, ShardConfig, Step};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_tuples(n: usize, domain: i64, seed: u64) -> Vec<Tuple> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut seqs = [0u64, 0u64];
        (0..n)
            .map(|_| {
                let side = if rng.gen::<bool>() {
                    StreamSide::R
                } else {
                    StreamSide::S
                };
                let seq = seqs[side.index()];
                seqs[side.index()] += 1;
                Tuple::new(side, seq, rng.gen_range(0..domain))
            })
            .collect()
    }

    fn self_join_tuples(n: usize, domain: i64, seed: u64) -> Vec<Tuple> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n as u64)
            .map(|i| Tuple::r(i, rng.gen_range(0..domain)))
            .collect()
    }

    fn config(
        w: usize,
        threads: usize,
        task: usize,
        merge_ratio: f64,
        policy: MergePolicy,
    ) -> JoinConfig {
        let mut pim = PimConfig::for_window(w)
            .with_merge_ratio(merge_ratio)
            .with_insertion_depth(2)
            .with_merge_policy(policy);
        pim.css_fanout = 8;
        pim.css_leaf_size = 8;
        pim.btree_fanout = 8;
        JoinConfig::symmetric(w, IndexKind::PimTree)
            .with_threads(threads)
            .with_task_size(task)
            .with_pim(pim)
    }

    #[test]
    fn single_thread_matches_reference() {
        let tuples = random_tuples(3000, 400, 31);
        let predicate = BandPredicate::new(2);
        let expected = canonical(&reference_join(&tuples, predicate, 128, 128, false));
        assert!(!expected.is_empty());
        let op = ParallelIbwj::new(
            config(128, 1, 4, 0.5, MergePolicy::NonBlocking),
            predicate,
            SharedIndexKind::PimTree,
            false,
        )
        .with_collected_results(true);
        let (stats, results) = op.run(&tuples);
        assert_eq!(canonical(&results), expected);
        assert_eq!(stats.results as usize, expected.len());
        assert!(
            stats.merges > 0,
            "merge ratio 0.5 over 3000 tuples must merge"
        );
    }

    #[test]
    fn multi_thread_matches_reference_nonblocking() {
        let tuples = random_tuples(6000, 600, 32);
        let predicate = BandPredicate::new(2);
        let expected = canonical(&reference_join(&tuples, predicate, 256, 256, false));
        assert!(!expected.is_empty());
        for threads in [2, 4, 8] {
            let op = ParallelIbwj::new(
                config(256, threads, 4, 0.5, MergePolicy::NonBlocking),
                predicate,
                SharedIndexKind::PimTree,
                false,
            )
            .with_collected_results(true);
            let (_, results) = op.run(&tuples);
            assert_eq!(canonical(&results), expected, "threads = {threads}");
        }
    }

    #[test]
    fn multi_thread_matches_reference_blocking_merge() {
        let tuples = random_tuples(5000, 500, 33);
        let predicate = BandPredicate::new(2);
        let expected = canonical(&reference_join(&tuples, predicate, 200, 200, false));
        let op = ParallelIbwj::new(
            config(200, 4, 3, 0.25, MergePolicy::Blocking),
            predicate,
            SharedIndexKind::PimTree,
            false,
        )
        .with_collected_results(true);
        let (stats, results) = op.run(&tuples);
        assert_eq!(canonical(&results), expected);
        assert!(stats.merges > 0);
    }

    #[test]
    fn bwtree_backend_matches_reference() {
        let tuples = random_tuples(4000, 500, 34);
        let predicate = BandPredicate::new(2);
        let expected = canonical(&reference_join(&tuples, predicate, 128, 128, false));
        for threads in [1, 4] {
            let op = ParallelIbwj::new(
                config(128, threads, 4, 1.0, MergePolicy::NonBlocking),
                predicate,
                SharedIndexKind::BwTree,
                false,
            )
            .with_collected_results(true);
            let (_, results) = op.run(&tuples);
            assert_eq!(canonical(&results), expected, "threads = {threads}");
        }
    }

    #[test]
    fn self_join_matches_reference() {
        let tuples = self_join_tuples(4000, 300, 35);
        let predicate = BandPredicate::new(1);
        let expected = canonical(&reference_join(&tuples, predicate, 128, 128, true));
        assert!(!expected.is_empty());
        for threads in [1, 4] {
            let op = ParallelIbwj::new(
                config(128, threads, 4, 0.5, MergePolicy::NonBlocking),
                predicate,
                SharedIndexKind::PimTree,
                true,
            )
            .with_collected_results(true);
            let (_, results) = op.run(&tuples);
            assert_eq!(canonical(&results), expected, "threads = {threads}");
        }
    }

    #[test]
    fn warmup_run_produces_identical_results_and_reduced_counters() {
        let tuples = random_tuples(4000, 400, 39);
        let predicate = BandPredicate::new(2);
        let op = ParallelIbwj::new(
            config(128, 4, 4, 0.5, MergePolicy::NonBlocking),
            predicate,
            SharedIndexKind::PimTree,
            false,
        )
        .with_collected_results(true);
        let (full_stats, full_results) = op.run(&tuples);
        let (warm_stats, warm_results) = op.run_with_warmup(&tuples, 1000);
        // The result stream is the same whether or not a warmup prefix is
        // excluded from the statistics.
        assert_eq!(canonical(&warm_results), canonical(&full_results));
        // Only the post-warmup tuples are counted.
        assert_eq!(warm_stats.tuples, full_stats.tuples - 1000);
        assert!(warm_stats.results <= full_stats.results);
        // Warmup longer than the input degenerates to an empty measurement.
        let (empty_stats, all_results) = op.run_with_warmup(&tuples, tuples.len() + 10);
        assert_eq!(empty_stats.tuples, 0);
        assert_eq!(canonical(&all_results), canonical(&full_results));
    }

    #[test]
    fn results_are_propagated_in_arrival_order() {
        let tuples = random_tuples(3000, 200, 36);
        let predicate = BandPredicate::new(2);
        let op = ParallelIbwj::new(
            config(128, 6, 2, 1.0, MergePolicy::NonBlocking),
            predicate,
            SharedIndexKind::PimTree,
            false,
        )
        .with_collected_results(true);
        let (_, results) = op.run(&tuples);
        assert!(!results.is_empty());
        // The probing tuple's position in the input must be non-decreasing
        // across the propagated result stream.
        let mut pos_of = std::collections::HashMap::new();
        for (i, t) in tuples.iter().enumerate() {
            pos_of.insert((t.side, t.seq), i);
        }
        let positions: Vec<usize> = results
            .iter()
            .map(|r| pos_of[&(r.probe.side, r.probe.seq)])
            .collect();
        assert!(
            positions.windows(2).all(|w| w[0] <= w[1]),
            "result propagation must preserve arrival order"
        );
    }

    #[test]
    fn asymmetric_windows_match_reference() {
        let tuples = random_tuples(4000, 300, 37);
        let predicate = BandPredicate::new(1);
        let expected = canonical(&reference_join(&tuples, predicate, 64, 512, false));
        let mut cfg = config(512, 4, 4, 1.0, MergePolicy::NonBlocking);
        cfg.window_r = 64;
        cfg.window_s = 512;
        let op = ParallelIbwj::new(cfg, predicate, SharedIndexKind::PimTree, false)
            .with_collected_results(true);
        let (_, results) = op.run(&tuples);
        assert_eq!(canonical(&results), expected);
    }

    #[test]
    fn empty_input_and_tiny_input() {
        let predicate = BandPredicate::new(1);
        let op = ParallelIbwj::new(
            config(64, 4, 8, 1.0, MergePolicy::NonBlocking),
            predicate,
            SharedIndexKind::PimTree,
            false,
        )
        .with_collected_results(true);
        let (stats, results) = op.run(&[]);
        assert_eq!(stats.results, 0);
        assert!(results.is_empty());
        let (stats, _) = op.run(&[Tuple::r(0, 5)]);
        assert_eq!(stats.tuples, 1);
        assert_eq!(stats.results, 0);
    }

    #[test]
    fn latency_and_traffic_are_recorded() {
        let tuples = random_tuples(2000, 400, 38);
        let predicate = BandPredicate::new(2);
        let op = ParallelIbwj::new(
            config(128, 4, 4, 1.0, MergePolicy::NonBlocking),
            predicate,
            SharedIndexKind::PimTree,
            false,
        );
        let (stats, _) = op.run(&tuples);
        assert_eq!(stats.latency.len() as u64, stats.tuples);
        assert!(stats.latency.mean_micros() > 0.0);
        assert!(stats.bytes_loaded > 0);
        assert!(stats.bytes_stored > 0);
    }

    #[test]
    fn ring_counters_reflect_the_run() {
        let tuples = random_tuples(3000, 300, 40);
        let predicate = BandPredicate::new(2);
        let op = ParallelIbwj::new(
            config(128, 4, 4, 1.0, MergePolicy::NonBlocking),
            predicate,
            SharedIndexKind::PimTree,
            false,
        );
        let (stats, _) = op.run(&tuples);
        assert_eq!(
            stats.ring.tuples_acquired, 3000,
            "every tuple claimed exactly once"
        );
        assert_eq!(
            stats.ring.slots_drained, 3000,
            "every slot propagated exactly once"
        );
        assert!(
            stats.ring.tasks_acquired >= 3000 / 4,
            "tasks hold at most task_size tuples"
        );
        assert!(stats.ring.ingest_batches > 0);
        assert!(stats.ring.mean_task_size() > 0.0);
    }

    /// The batched group probe (PIM-Tree backend) and the per-range scalar
    /// fallback (Bw-Tree backend, which has no group descent) must produce
    /// the oracle's result set under both merge policies, and each path must
    /// record itself in the probe counters. The per-tuple step costs are
    /// normalised by the tuples the run processed, so the index search and
    /// the window scan of the §4.1 edge split both read non-zero.
    #[test]
    fn batched_probe_matches_scalar_and_reference() {
        let tuples = random_tuples(5000, 400, 81);
        let predicate = BandPredicate::new(2);
        let expected = canonical(&reference_join(&tuples, predicate, 128, 128, false));
        assert!(!expected.is_empty());
        for policy in [MergePolicy::NonBlocking, MergePolicy::Blocking] {
            for kind in [SharedIndexKind::PimTree, SharedIndexKind::BwTree] {
                for threads in [1usize, 4] {
                    let op = ParallelIbwj::new(
                        config(128, threads, 4, 0.5, policy),
                        predicate,
                        kind,
                        false,
                    )
                    .with_collected_results(true);
                    let (stats, results) = op.run(&tuples);
                    let label = format!("{policy:?}/{kind:?}/{threads}T");
                    assert_eq!(canonical(&results), expected, "{label}");
                    assert_eq!(stats.breakdown.tuples, 5000, "{label}");
                    assert!(
                        stats.breakdown.per_tuple_nanos(Step::Search) > 0.0,
                        "{label}"
                    );
                    assert!(stats.breakdown.per_tuple_nanos(Step::Scan) > 0.0, "{label}");
                    if kind == SharedIndexKind::PimTree {
                        assert!(stats.probe.batches > 0, "{label}");
                        assert_eq!(stats.probe.scalar_probes, 0, "{label}");
                        assert!(
                            stats.probe.ti_partition_locks <= stats.probe.ti_range_visits,
                            "TI partition locks are shared per task ({label})"
                        );
                    } else {
                        // Every probe of the Bw-Tree falls back to the
                        // scalar per-range probe.
                        assert_eq!(stats.probe.batches, 0, "{label}");
                        assert!(stats.probe.scalar_probes > 0, "{label}");
                        assert_eq!(stats.probe.ti_partition_locks, 0, "{label}");
                    }
                }
            }
        }
    }

    /// Duplicate-heavy keys: a tiny key domain makes many probe ranges in a
    /// task identical, exercising the sort/dedup path of the group probe.
    #[test]
    fn batched_probe_with_duplicate_keys_matches_reference() {
        let tuples = random_tuples(5000, 12, 82);
        let predicate = BandPredicate::new(1);
        let expected = canonical(&reference_join(&tuples, predicate, 128, 128, false));
        assert!(!expected.is_empty());
        for policy in [MergePolicy::NonBlocking, MergePolicy::Blocking] {
            let op = ParallelIbwj::new(
                config(128, 4, 8, 0.5, policy),
                predicate,
                SharedIndexKind::PimTree,
                false,
            )
            .with_collected_results(true);
            let (stats, results) = op.run(&tuples);
            assert_eq!(canonical(&results), expected, "{policy:?}");
            assert!(
                stats.probe.dedup_hits > 0,
                "a 12-key domain must produce duplicate probe ranges in a task of 8"
            );
        }
    }

    /// Window-edge case: probe ranges reaching past both ends of the key
    /// domain, plus a window as large as the whole input (nothing ever
    /// expires) and a window of 1 (everything expires immediately).
    #[test]
    fn batched_probe_at_window_and_domain_edges() {
        let tuples = random_tuples(2000, 50, 83);
        let predicate = BandPredicate::new(100); // ranges always overflow the domain
        for w in [1usize, 4096] {
            let expected = canonical(&reference_join(&tuples, predicate, w, w, false));
            for kind in [SharedIndexKind::PimTree, SharedIndexKind::BwTree] {
                let op = ParallelIbwj::new(
                    config(w, 2, 4, 1.0, MergePolicy::NonBlocking),
                    predicate,
                    kind,
                    false,
                )
                .with_collected_results(true);
                let (_, results) = op.run(&tuples);
                assert_eq!(canonical(&results), expected, "w={w}, {kind:?}");
            }
        }
    }

    /// Self-join through the batched probe, with prefetching disabled and at
    /// a large distance (the knob must never change results).
    #[test]
    fn batched_probe_prefetch_distance_is_result_invariant() {
        let tuples = self_join_tuples(3000, 200, 84);
        let predicate = BandPredicate::new(1);
        let expected = canonical(&reference_join(&tuples, predicate, 128, 128, true));
        assert!(!expected.is_empty());
        for dist in [0usize, 1, 64] {
            let cfg = config(128, 4, 4, 0.5, MergePolicy::NonBlocking)
                .with_probe(ProbeConfig::default().with_prefetch_dist(dist));
            let op = ParallelIbwj::new(cfg, predicate, SharedIndexKind::PimTree, true)
                .with_collected_results(true);
            let (_, results) = op.run(&tuples);
            assert_eq!(canonical(&results), expected, "prefetch_dist {dist}");
        }
    }

    /// The ISSUE's stress configuration: many threads, tiny tasks, and a ring
    /// small enough that every slot is recycled dozens of times, under both
    /// merge policies.
    #[test]
    fn ring_stress_tiny_capacity_both_policies() {
        let tuples = random_tuples(6000, 500, 91);
        let predicate = BandPredicate::new(2);
        let expected = canonical(&reference_join(&tuples, predicate, 128, 128, false));
        assert!(!expected.is_empty());
        for policy in [MergePolicy::NonBlocking, MergePolicy::Blocking] {
            for (threads, task) in [(8, 1), (16, 2)] {
                // Capacity 64 over 6000 tuples: ~94 wraparounds per run.
                let cfg = config(128, threads, task, 0.5, policy).with_ring(
                    RingConfig::default()
                        .with_capacity(64)
                        .with_backoff(2, 4, 10),
                );
                let op = ParallelIbwj::new(cfg, predicate, SharedIndexKind::PimTree, false)
                    .with_collected_results(true);
                let (stats, results) = op.run(&tuples);
                assert_eq!(
                    canonical(&results),
                    expected,
                    "policy {policy:?}, threads {threads}, task_size {task}"
                );
                assert_eq!(stats.ring.tuples_acquired, 6000);
                assert_eq!(stats.ring.slots_drained, 6000);
            }
        }
    }

    #[test]
    fn ring_stress_self_join_tiny_capacity() {
        let tuples = self_join_tuples(5000, 250, 92);
        let predicate = BandPredicate::new(1);
        let expected = canonical(&reference_join(&tuples, predicate, 128, 128, true));
        assert!(!expected.is_empty());
        for policy in [MergePolicy::NonBlocking, MergePolicy::Blocking] {
            let cfg = config(128, 8, 1, 0.5, policy).with_ring(
                RingConfig::default()
                    .with_capacity(32)
                    .with_backoff(2, 4, 10),
            );
            let op = ParallelIbwj::new(cfg, predicate, SharedIndexKind::PimTree, true)
                .with_collected_results(true);
            let (_, results) = op.run(&tuples);
            assert_eq!(canonical(&results), expected, "policy {policy:?}");
        }
    }

    #[test]
    fn ring_stress_asymmetric_windows_tiny_capacity() {
        let tuples = random_tuples(5000, 300, 93);
        let predicate = BandPredicate::new(1);
        let expected = canonical(&reference_join(&tuples, predicate, 64, 512, false));
        assert!(!expected.is_empty());
        let mut cfg = config(512, 12, 2, 0.5, MergePolicy::NonBlocking).with_ring(
            RingConfig::default()
                .with_capacity(64)
                .with_backoff(2, 4, 10),
        );
        cfg.window_r = 64;
        cfg.window_s = 512;
        let op = ParallelIbwj::new(cfg, predicate, SharedIndexKind::PimTree, false)
            .with_collected_results(true);
        let (_, results) = op.run(&tuples);
        assert_eq!(canonical(&results), expected);
    }

    #[test]
    fn tiny_explicit_capacity_with_large_task_size_runs() {
        // Regression: capacity 16 with the default task size 8 used to panic
        // in the auto ingest-target clamp (`min > max`). The configuration
        // passes validation, so the engine must accept it.
        let tuples = random_tuples(1500, 150, 95);
        let predicate = BandPredicate::new(2);
        let expected = canonical(&reference_join(&tuples, predicate, 64, 64, false));
        for cap in [16, 32] {
            let cfg = config(64, 2, 8, 1.0, MergePolicy::NonBlocking)
                .with_ring(RingConfig::default().with_capacity(cap));
            let op = ParallelIbwj::new(cfg, predicate, SharedIndexKind::PimTree, false)
                .with_collected_results(true);
            let (_, results) = op.run(&tuples);
            assert_eq!(canonical(&results), expected, "capacity {cap}");
        }
    }

    #[test]
    fn bwtree_with_tiny_ring_and_many_threads_matches_reference() {
        // Regression: with a small explicit ring, many threads and the
        // Bw-Tree backend, the eager expiry deletion reads window slots that
        // lag the head by up to max_unindexed + w + ring capacity; the
        // window slack must budget for that (debug builds assert inside
        // `key_of` when it does not).
        let tuples = random_tuples(6000, 400, 96);
        let predicate = BandPredicate::new(2);
        let expected = canonical(&reference_join(&tuples, predicate, 128, 128, false));
        let cfg = config(128, 16, 16, 1.0, MergePolicy::NonBlocking).with_ring(
            RingConfig::default()
                .with_capacity(64)
                .with_backoff(2, 4, 10),
        );
        let op = ParallelIbwj::new(cfg, predicate, SharedIndexKind::BwTree, false)
            .with_collected_results(true);
        let (_, results) = op.run(&tuples);
        assert_eq!(canonical(&results), expected);
    }

    /// The shard counts the sharded differential tests sweep. CI's shard
    /// matrix pins a single count via `PIMTREE_TEST_SHARDS`; local runs sweep
    /// the interesting shapes (off, even split, more shards than threads).
    fn shard_sweep() -> Vec<usize> {
        match std::env::var("PIMTREE_TEST_SHARDS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
        {
            Some(n) => vec![n],
            None => vec![1, 2, 4],
        }
    }

    /// The tentpole differential: the sharded engine must produce the exact
    /// same results as the single-ring engine and the brute-force oracle,
    /// across shard counts, merge policies and index backends, and its
    /// claim accounting must cover every tuple.
    #[test]
    fn sharded_engine_matches_single_ring_and_reference() {
        let tuples = random_tuples(5000, 400, 101);
        let predicate = BandPredicate::new(2);
        let expected = canonical(&reference_join(&tuples, predicate, 128, 128, false));
        assert!(!expected.is_empty());
        for policy in [MergePolicy::NonBlocking, MergePolicy::Blocking] {
            for kind in [SharedIndexKind::PimTree, SharedIndexKind::BwTree] {
                for shards in shard_sweep() {
                    let cfg = config(128, 4, 4, 0.5, policy)
                        .with_shard(ShardConfig::default().with_shards(shards));
                    let op =
                        ParallelIbwj::new(cfg, predicate, kind, false).with_collected_results(true);
                    // Under the repartition sweep this arm also exercises the
                    // round-robin → key-range router upgrade mid-run.
                    let op = with_env_repartition(op, &tuples, shards);
                    let (stats, results) = op.run(&tuples);
                    let label = format!("{policy:?}/{kind:?}/{shards} shards");
                    assert_eq!(canonical(&results), expected, "{label}");
                    assert_eq!(stats.ring.tuples_acquired, 5000, "{label}");
                    assert_eq!(stats.ring.slots_drained, 5000, "{label}");
                    assert_eq!(stats.shard.shards, shards as u64, "{label}");
                    assert_eq!(
                        stats.shard.local_tuples + stats.shard.stolen_tuples,
                        5000,
                        "every tuple claimed home or stolen ({label})"
                    );
                    assert_eq!(
                        stats.shard.local_accesses + stats.shard.remote_accesses,
                        5000,
                        "every claim charged to the traffic account ({label})"
                    );
                    if shards == 1 {
                        assert_eq!(stats.shard.stolen_tuples, 0, "{label}");
                        assert_eq!(stats.shard.remote_accesses, 0, "{label}");
                        assert_eq!(stats.shard.shard_full_stalls, 0, "{label}");
                    }
                }
            }
        }
    }

    /// Key-range routing through a real `RangePartitioner`: results are
    /// identical and the traffic account stays consistent.
    #[test]
    fn sharded_engine_with_range_partitioner_matches_reference() {
        let tuples = random_tuples(5000, 600, 102);
        let predicate = BandPredicate::new(2);
        let expected = canonical(&reference_join(&tuples, predicate, 128, 128, false));
        assert!(!expected.is_empty());
        let sample: Vec<i64> = tuples.iter().map(|t| t.key).collect();
        for shards in shard_sweep() {
            let partitioner = RangePartitioner::from_key_sample(shards, &sample);
            let cfg = config(128, 4, 4, 0.5, MergePolicy::NonBlocking)
                .with_shard(ShardConfig::default().with_shards(shards));
            let op = ParallelIbwj::new(cfg, predicate, SharedIndexKind::PimTree, false)
                .with_partitioner(partitioner)
                .with_collected_results(true);
            let (stats, results) = op.run(&tuples);
            assert_eq!(canonical(&results), expected, "{shards} shards");
            assert_eq!(
                stats.shard.local_accesses + stats.shard.remote_accesses,
                5000,
                "{shards} shards"
            );
            assert!(
                stats.shard.simulated_numa_cost >= 5000 * 90,
                "{shards} shards"
            );
        }
    }

    /// Duplicate-heavy keys and domain-overflowing probe ranges under
    /// sharding, with a window that never expires and one that expires
    /// immediately.
    #[test]
    fn sharded_engine_duplicate_keys_and_window_edges() {
        let predicate = BandPredicate::new(100);
        let tuples = random_tuples(2000, 50, 103);
        for shards in shard_sweep() {
            for w in [1usize, 4096] {
                let expected = canonical(&reference_join(&tuples, predicate, w, w, false));
                let sample: Vec<i64> = tuples.iter().map(|t| t.key).collect();
                let cfg = config(w, 3, 4, 1.0, MergePolicy::NonBlocking)
                    .with_shard(ShardConfig::default().with_shards(shards));
                let op = ParallelIbwj::new(cfg, predicate, SharedIndexKind::PimTree, false)
                    .with_partitioner(RangePartitioner::from_key_sample(shards, &sample))
                    .with_collected_results(true);
                let (_, results) = op.run(&tuples);
                assert_eq!(canonical(&results), expected, "shards {shards}, w {w}");
            }
        }
    }

    /// Sharded self-join with tiny per-shard rings: every slot is recycled
    /// many times and the cross-shard merge cursor interleaves constantly.
    #[test]
    fn sharded_engine_self_join_tiny_rings() {
        let tuples = self_join_tuples(4000, 250, 104);
        let predicate = BandPredicate::new(1);
        let expected = canonical(&reference_join(&tuples, predicate, 128, 128, true));
        assert!(!expected.is_empty());
        for shards in shard_sweep() {
            let cfg = config(128, 6, 2, 0.5, MergePolicy::NonBlocking)
                .with_ring(
                    RingConfig::default()
                        .with_capacity(64)
                        .with_backoff(2, 4, 10),
                )
                .with_shard(
                    ShardConfig::default()
                        .with_shards(shards)
                        .with_steal_batch(1),
                );
            let op = ParallelIbwj::new(cfg, predicate, SharedIndexKind::PimTree, true)
                .with_collected_results(true);
            let (_, results) = op.run(&tuples);
            assert_eq!(canonical(&results), expected, "shards {shards}");
        }
    }

    /// Steals must never break the ordering contract: the propagated result
    /// stream follows the probing tuples' global arrival order even when a
    /// skewed partitioner forces most claims to be steals.
    #[test]
    fn sharded_steals_preserve_arrival_order() {
        let tuples = random_tuples(3000, 200, 105);
        let predicate = BandPredicate::new(2);
        for shards in shard_sweep() {
            // An empty-sample partitioner routes every key to shard 0, so
            // with several shards the workers homed elsewhere can only steal.
            let partitioner = RangePartitioner::from_key_sample(shards, &[]);
            let cfg = config(128, 6, 2, 1.0, MergePolicy::NonBlocking).with_shard(
                ShardConfig::default()
                    .with_shards(shards)
                    .with_steal_batch(2),
            );
            let op = ParallelIbwj::new(cfg, predicate, SharedIndexKind::PimTree, false)
                .with_partitioner(partitioner)
                .with_collected_results(true);
            let (stats, results) = op.run(&tuples);
            assert!(!results.is_empty());
            let mut pos_of = std::collections::HashMap::new();
            for (i, t) in tuples.iter().enumerate() {
                pos_of.insert((t.side, t.seq), i);
            }
            let positions: Vec<usize> = results
                .iter()
                .map(|r| pos_of[&(r.probe.side, r.probe.seq)])
                .collect();
            assert!(
                positions.windows(2).all(|w| w[0] <= w[1]),
                "steals must not reorder result propagation ({shards} shards)"
            );
            assert_eq!(
                stats.shard.local_tuples + stats.shard.stolen_tuples,
                3000,
                "{shards} shards"
            );
        }
    }

    /// Whether the partitioned-store differential tests run with the store
    /// on, off, or both. CI's shard matrix pins it via
    /// `PIMTREE_TEST_PARTITION_INDEX`; local runs sweep both arms.
    fn partition_sweep() -> Vec<bool> {
        match std::env::var("PIMTREE_TEST_PARTITION_INDEX")
            .ok()
            .as_deref()
        {
            Some("on") | Some("true") | Some("1") => vec![true],
            Some("off") | Some("false") | Some("0") => vec![false],
            _ => vec![false, true],
        }
    }

    /// Whether the differential tests additionally force a mid-run
    /// repartition epoch. CI's repartition legs pin it via
    /// `PIMTREE_TEST_REPARTITION`; the dedicated repartition tests below run
    /// the epoch protocol unconditionally.
    fn repartition_forced() -> bool {
        matches!(
            std::env::var("PIMTREE_TEST_REPARTITION").ok().as_deref(),
            Some("on") | Some("true") | Some("1")
        )
    }

    /// Which migration mode the env-gated differential sweeps force.
    /// CI's incremental legs pin `PIMTREE_TEST_MIGRATION=incremental`; the
    /// default keeps the wholesale epoch protocol.
    fn env_migration_mode() -> MigrationMode {
        match std::env::var("PIMTREE_TEST_MIGRATION").ok().as_deref() {
            Some("incremental") => MigrationMode::Incremental,
            _ => MigrationMode::Epoch,
        }
    }

    /// Under `PIMTREE_TEST_REPARTITION=on`, arms `op` with a forced
    /// migration epoch at the stream midpoint, adopting a partitioner
    /// rebalanced for the second half of the input (applied through the
    /// `PIMTREE_TEST_MIGRATION` protocol — one wholesale epoch or an
    /// incremental handoff).
    fn with_env_repartition(op: ParallelIbwj, tuples: &[Tuple], shards: usize) -> ParallelIbwj {
        if !repartition_forced() {
            return op;
        }
        let at = tuples.len() / 2;
        let sample: Vec<Key> = tuples[at..].iter().map(|t| t.key).collect();
        op.with_forced_repartition(at, RangePartitioner::from_key_sample(shards, &sample))
            .with_migration_mode(env_migration_mode())
    }

    /// The tentpole differential: with the per-shard index/window store the
    /// engine must produce the exact same results as the shared-store engine
    /// and the brute-force oracle, across shard counts, merge policies and
    /// index backends, and its insert/probe routing must account for every
    /// tuple.
    #[test]
    fn partitioned_store_matches_shared_store_and_reference() {
        let tuples = random_tuples(5000, 400, 111);
        let predicate = BandPredicate::new(2);
        let expected = canonical(&reference_join(&tuples, predicate, 128, 128, false));
        assert!(!expected.is_empty());
        for policy in [MergePolicy::NonBlocking, MergePolicy::Blocking] {
            for kind in [SharedIndexKind::PimTree, SharedIndexKind::BwTree] {
                for shards in shard_sweep() {
                    for partition in partition_sweep() {
                        let cfg = config(128, 4, 4, 0.5, policy).with_shard(
                            ShardConfig::default()
                                .with_shards(shards)
                                .with_partition_index(partition),
                        );
                        let op = ParallelIbwj::new(cfg, predicate, kind, false)
                            .with_collected_results(true);
                        let op = with_env_repartition(op, &tuples, shards);
                        let (stats, results) = op.run(&tuples);
                        let label =
                            format!("{policy:?}/{kind:?}/{shards} shards/partition={partition}");
                        assert_eq!(canonical(&results), expected, "{label}");
                        assert_eq!(stats.ring.tuples_acquired, 5000, "{label}");
                        assert_eq!(stats.ring.slots_drained, 5000, "{label}");
                        if kind == SharedIndexKind::PimTree {
                            // Per-shard trees are provisioned for their key
                            // slice, so merges fire at the same cadence as
                            // the shared engine (regression: a global-window
                            // threshold left partitioned shards merge-less).
                            assert!(stats.merges > 0, "{label}");
                        }
                        if partition && shards > 1 {
                            assert_eq!(stats.store.partitioned, 1, "{label}");
                            assert_eq!(stats.store.store_shards, shards as u64, "{label}");
                            assert_eq!(
                                stats.store.local_inserts + stats.store.remote_inserts,
                                5000,
                                "every tuple routed to exactly one store shard ({label})"
                            );
                            assert_eq!(
                                stats.store.probes, 5000,
                                "every tuple's probe routed through the fan-out query ({label})"
                            );
                            assert!(
                                stats.store.probe_shard_visits >= stats.store.probes,
                                "{label}"
                            );
                            assert!(stats.store.max_probe_fanout <= shards as u64, "{label}");
                            assert!(stats.store.simulated_store_cost > 0, "{label}");
                        } else {
                            // Shared store (partitioning off, or one shard):
                            // the store counters must stay untouched.
                            assert_eq!(stats.store, Default::default(), "{label}");
                        }
                    }
                }
            }
        }
    }

    /// The tentpole invariant: with `--partition-index on`, each shard's
    /// index and window hold only tuples inside its key range (inspected via
    /// per-shard footprints), and probe fan-out visits only the shards whose
    /// ranges overlap the band-join range.
    #[test]
    fn partitioned_store_shards_hold_only_their_key_range() {
        let tuples = random_tuples(4000, 800, 112);
        // A band of ±2 over an 800-key domain split 4 ways: most probes must
        // stay on a single shard.
        let predicate = BandPredicate::new(2);
        let expected = canonical(&reference_join(&tuples, predicate, 128, 128, false));
        let cfg = config(128, 4, 4, 0.5, MergePolicy::NonBlocking).with_shard(
            ShardConfig::default()
                .with_shards(4)
                .with_partition_index(true),
        );
        let op = ParallelIbwj::new(cfg, predicate, SharedIndexKind::PimTree, false)
            .with_collected_results(true);
        let (stats, results) = op.run_with_store_inspector(&tuples, 0, |store| {
            assert!(store.is_partitioned());
            assert_eq!(store.shards(), 4);
            let partitioner = store.partitioner().expect("partitioned store").clone();
            let footprints = store.shard_footprints();
            assert_eq!(footprints.len(), 4);
            let mut window_total = 0;
            let mut index_total = 0;
            for fp in &footprints {
                for side in &fp.sides {
                    window_total += side.window_live;
                    index_total += side.index_entries;
                    // node_of is monotone in the key, so span containment
                    // proves every key of the shard lies in its range.
                    if let Some((lo, hi)) = side.window_key_span {
                        assert_eq!(partitioner.node_of(lo), fp.shard, "window lo");
                        assert_eq!(partitioner.node_of(hi), fp.shard, "window hi");
                    }
                    if let Some((lo, hi)) = side.index_key_span {
                        assert_eq!(partitioner.node_of(lo), fp.shard, "index lo");
                        assert_eq!(partitioner.node_of(hi), fp.shard, "index hi");
                    }
                }
            }
            assert_eq!(window_total, 128 + 128, "both live windows, sharded");
            assert!(index_total > 0);
        });
        assert_eq!(canonical(&results), expected);
        // Fan-out: a ±2 band over ~200 keys per shard overwhelmingly stays on
        // one shard; visiting every shard for every probe would be 4x.
        assert!(stats.store.single_shard_probes > 0);
        assert!(
            stats.store.probe_shard_visits < stats.store.probes * 2,
            "narrow-band probes must not fan out broadly: {} visits / {} probes",
            stats.store.probe_shard_visits,
            stats.store.probes
        );
        assert!(stats.store.max_probe_fanout <= 2);
    }

    /// Duplicate-heavy keys and domain-overflowing probe ranges under the
    /// partitioned store, with a window that never expires and one that
    /// expires immediately. Domain-overflowing ranges force full fan-out.
    #[test]
    fn partitioned_store_duplicate_keys_and_window_edges() {
        let predicate = BandPredicate::new(100);
        let tuples = random_tuples(2000, 50, 113);
        for shards in shard_sweep() {
            for w in [1usize, 4096] {
                let expected = canonical(&reference_join(&tuples, predicate, w, w, false));
                let cfg = config(w, 3, 4, 1.0, MergePolicy::NonBlocking).with_shard(
                    ShardConfig::default()
                        .with_shards(shards)
                        .with_partition_index(true),
                );
                let op = ParallelIbwj::new(cfg, predicate, SharedIndexKind::PimTree, false)
                    .with_collected_results(true);
                let (stats, results) = op.run(&tuples);
                assert_eq!(canonical(&results), expected, "shards {shards}, w {w}");
                if shards > 1 {
                    // A ±100 band over a 50-key domain overlaps every shard.
                    assert_eq!(
                        stats.store.probe_shard_visits,
                        stats.store.probes * shards as u64,
                        "domain-covering ranges fan out to every shard"
                    );
                }
            }
        }
    }

    /// Self-join through both probe paths — the PIM-Tree's group descent and
    /// the Bw-Tree's per-range fallback — across shard counts and both store
    /// layouts, with tiny per-shard rings: partitioned stores split each
    /// batch into per-shard sub-batches without changing a single result.
    #[test]
    fn partitioned_store_self_join_both_probe_paths() {
        let tuples = self_join_tuples(4000, 250, 114);
        let predicate = BandPredicate::new(1);
        let expected = canonical(&reference_join(&tuples, predicate, 128, 128, true));
        assert!(!expected.is_empty());
        for shards in shard_sweep() {
            for partition_index in [false, true] {
                for kind in [SharedIndexKind::PimTree, SharedIndexKind::BwTree] {
                    let cfg = config(128, 6, 2, 0.5, MergePolicy::NonBlocking)
                        .with_ring(
                            RingConfig::default()
                                .with_capacity(64)
                                .with_backoff(2, 4, 10),
                        )
                        .with_shard(
                            ShardConfig::default()
                                .with_shards(shards)
                                .with_partition_index(partition_index),
                        );
                    let op =
                        ParallelIbwj::new(cfg, predicate, kind, true).with_collected_results(true);
                    let (_, results) = op.run(&tuples);
                    assert_eq!(
                        canonical(&results),
                        expected,
                        "shards {shards}, partitioned {partition_index}, {kind:?}"
                    );
                }
            }
        }
    }

    /// A skewed partitioner under the partitioned store: every key routes to
    /// shard 0, so all index/window state lives there and all claims by
    /// workers homed elsewhere are steals — results must still be exact and
    /// in arrival order.
    #[test]
    fn partitioned_store_with_skewed_partitioner_matches_reference() {
        let tuples = random_tuples(3000, 200, 115);
        let predicate = BandPredicate::new(2);
        let expected = canonical(&reference_join(&tuples, predicate, 128, 128, false));
        for shards in shard_sweep() {
            if shards == 1 {
                continue;
            }
            let partitioner = RangePartitioner::from_key_sample(shards, &[]);
            let cfg = config(128, 4, 2, 1.0, MergePolicy::NonBlocking).with_shard(
                ShardConfig::default()
                    .with_shards(shards)
                    .with_partition_index(true),
            );
            let op = ParallelIbwj::new(cfg, predicate, SharedIndexKind::PimTree, false)
                .with_partitioner(partitioner)
                .with_collected_results(true);
            let (stats, results) = op.run_with_store_inspector(&tuples, 0, |store| {
                for fp in store.shard_footprints() {
                    if fp.shard == 0 {
                        continue;
                    }
                    for side in &fp.sides {
                        assert_eq!(side.window_live, 0, "shard {} window", fp.shard);
                        assert_eq!(side.index_entries, 0, "shard {} index", fp.shard);
                    }
                }
            });
            assert_eq!(canonical(&results), expected, "{shards} shards");
            assert_eq!(
                stats.store.probe_shard_visits, stats.store.probes,
                "all probes land on the single populated shard"
            );
        }
    }

    /// Warmup runs under the partitioned store keep the result stream
    /// identical and exclude the warmup prefix from the store counters.
    #[test]
    fn partitioned_store_warmup_produces_identical_results() {
        let tuples = random_tuples(4000, 400, 116);
        let predicate = BandPredicate::new(2);
        let cfg = config(128, 4, 4, 0.5, MergePolicy::NonBlocking).with_shard(
            ShardConfig::default()
                .with_shards(2)
                .with_partition_index(true),
        );
        let op = ParallelIbwj::new(cfg, predicate, SharedIndexKind::PimTree, false)
            .with_collected_results(true);
        let (full_stats, full_results) = op.run(&tuples);
        let (warm_stats, warm_results) = op.run_with_warmup(&tuples, 1000);
        assert_eq!(canonical(&warm_results), canonical(&full_results));
        assert_eq!(warm_stats.tuples, full_stats.tuples - 1000);
        assert_eq!(
            warm_stats.store.local_inserts + warm_stats.store.remote_inserts,
            3000,
            "warmup inserts are excluded from the measured counters"
        );
        assert!(warm_stats.store.simulated_store_cost < full_stats.store.simulated_store_cost);
    }

    /// A drifting-skew workload: the first half draws keys from one range,
    /// the second half from a disjoint range, so a partitioner fitted to the
    /// prefix becomes maximally imbalanced halfway through.
    fn drifting_tuples(n: usize, domain: i64, shift: i64, seed: u64) -> Vec<Tuple> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut seqs = [0u64, 0u64];
        (0..n)
            .map(|i| {
                let side = if rng.gen::<bool>() {
                    StreamSide::R
                } else {
                    StreamSide::S
                };
                let seq = seqs[side.index()];
                seqs[side.index()] += 1;
                let base = rng.gen_range(0..domain);
                let key = if i < n / 2 { base } else { base + shift };
                Tuple::new(side, seq, key)
            })
            .collect()
    }

    /// The tentpole acceptance test: under a drifting-skew workload with
    /// `--repartition on`, the engine adopts at least one repartition plan
    /// mid-run (quiesce → swap → migrate → resume), the migrated-tuple and
    /// stall counters fill in, the result stream stays byte-identical to the
    /// shared-store oracle — and adoption does not oscillate. With the flag
    /// off, behavior and counters are exactly the PR 4 engine's.
    #[test]
    fn drifting_workload_adopts_a_repartition_plan_mid_run() {
        let tuples = drifting_tuples(8000, 400, 10_000, 121);
        let predicate = BandPredicate::new(2);
        let expected = canonical(&reference_join(&tuples, predicate, 128, 128, false));
        assert!(!expected.is_empty());
        for shards in [2usize, 4] {
            // The initial partitioner fits the first half only, so the
            // second half's disjoint key range drifts it out of balance.
            let first: Vec<Key> = tuples[..tuples.len() / 2].iter().map(|t| t.key).collect();
            let partitioner = RangePartitioner::from_key_sample(shards, &first);
            let shard_cfg = ShardConfig::default()
                .with_shards(shards)
                .with_partition_index(true);
            let drift = pimtree_common::DriftConfig::default()
                .with_repartition(true)
                .with_window(512)
                .with_imbalance_trigger(1.5);
            let on = ParallelIbwj::new(
                config(128, 4, 4, 0.5, MergePolicy::NonBlocking)
                    .with_shard(shard_cfg)
                    .with_drift(drift),
                predicate,
                SharedIndexKind::PimTree,
                false,
            )
            .with_partitioner(partitioner.clone())
            .with_collected_results(true);
            let (stats, results) = on.run(&tuples);
            assert_eq!(canonical(&results), expected, "{shards} shards");
            assert_eq!(stats.migration.enabled, 1, "{shards} shards");
            assert!(
                stats.migration.epochs >= 1,
                "the drifted load must adopt a plan ({shards} shards)"
            );
            // While the drift monitor's window still mixes pre- and
            // post-drift keys, a couple of corrective epochs are legitimate;
            // without the clear-and-cooldown fix every post-adoption check
            // (each `window / 8` observations) would re-trigger against the
            // stale sample — dozens of epochs over this tail.
            assert!(
                stats.migration.epochs <= 8,
                "adoption must not oscillate: {} epochs ({shards} shards)",
                stats.migration.epochs
            );
            assert!(stats.migration.observations > 0, "{shards} shards");
            assert!(
                stats.migration.window_tuples_moved > 0,
                "a full key-range shift must migrate window tuples ({shards} shards)"
            );
            assert!(stats.migration.index_entries_moved > 0, "{shards} shards");
            assert!(stats.migration.simulated_move_cost > 0, "{shards} shards");
            assert!(stats.migration.stall_nanos > 0, "{shards} shards");
            // Flag off: identical results, untouched counters — the PR 4
            // engine bit for bit.
            let off = ParallelIbwj::new(
                config(128, 4, 4, 0.5, MergePolicy::NonBlocking).with_shard(shard_cfg),
                predicate,
                SharedIndexKind::PimTree,
                false,
            )
            .with_partitioner(partitioner)
            .with_collected_results(true);
            let (off_stats, off_results) = off.run(&tuples);
            assert_eq!(canonical(&off_results), expected, "{shards} shards");
            assert_eq!(
                off_stats.migration,
                Default::default(),
                "repartition off must leave the migration counters untouched"
            );
        }
    }

    /// A forced epoch adopting the worst-case partitioner (everything to
    /// shard 0) mid-run: the migration collapses every shard's index and
    /// window state onto one shard while the ring drains tuples routed under
    /// the old policy — across both backends and merge policies, the results
    /// must stay exact and post-migration state must respect the new
    /// ownership.
    #[test]
    fn forced_skewed_repartition_epoch_preserves_results() {
        let tuples = random_tuples(4000, 400, 122);
        let predicate = BandPredicate::new(2);
        let expected = canonical(&reference_join(&tuples, predicate, 128, 128, false));
        assert!(!expected.is_empty());
        for policy in [MergePolicy::NonBlocking, MergePolicy::Blocking] {
            for kind in [SharedIndexKind::PimTree, SharedIndexKind::BwTree] {
                let skewed = RangePartitioner::from_key_sample(4, &[]);
                let cfg = config(128, 4, 4, 0.5, policy).with_shard(
                    ShardConfig::default()
                        .with_shards(4)
                        .with_partition_index(true),
                );
                let op = ParallelIbwj::new(cfg, predicate, kind, false)
                    .with_forced_repartition(tuples.len() / 2, skewed)
                    .with_collected_results(true);
                let label = format!("{policy:?}/{kind:?}");
                let (stats, results) = op.run_with_store_inspector(&tuples, 0, |store| {
                    // Post-migration ownership: all state on shard 0.
                    for fp in store.shard_footprints() {
                        if fp.shard == 0 {
                            continue;
                        }
                        for side in &fp.sides {
                            assert_eq!(side.window_live, 0, "shard {}", fp.shard);
                            assert_eq!(side.index_entries, 0, "shard {}", fp.shard);
                        }
                    }
                    assert_eq!(store.epoch(), 1);
                });
                assert_eq!(canonical(&results), expected, "{label}");
                assert_eq!(stats.migration.enabled, 1, "{label}");
                assert_eq!(stats.migration.epochs, 1, "{label}");
                assert!(
                    stats.migration.window_tuples_moved > 0,
                    "collapsing 4 shards onto one must move window tuples ({label})"
                );
                assert!(stats.migration.stall_nanos > 0, "{label}");
            }
        }
    }

    /// Drift monitoring and a forced epoch armed together: the forced
    /// adoption drops any drift plan staged against the pre-forced
    /// partitioner (regression: the stale plan used to survive the forced
    /// epoch and migrate the freshly adopted state right back), results
    /// stay exact, and the combined path neither livelocks nor oscillates.
    #[test]
    fn forced_epoch_with_drift_armed_stays_exact() {
        let tuples = drifting_tuples(6000, 400, 10_000, 124);
        let predicate = BandPredicate::new(2);
        let expected = canonical(&reference_join(&tuples, predicate, 128, 128, false));
        assert!(!expected.is_empty());
        let first: Vec<Key> = tuples[..tuples.len() / 2].iter().map(|t| t.key).collect();
        let drift = pimtree_common::DriftConfig::default()
            .with_repartition(true)
            .with_window(512)
            .with_imbalance_trigger(1.5);
        let cfg = config(128, 4, 4, 0.5, MergePolicy::NonBlocking)
            .with_shard(
                ShardConfig::default()
                    .with_shards(2)
                    .with_partition_index(true),
            )
            .with_drift(drift);
        let op = ParallelIbwj::new(cfg, predicate, SharedIndexKind::PimTree, false)
            .with_partitioner(RangePartitioner::from_key_sample(2, &first))
            .with_forced_repartition(
                3 * tuples.len() / 4,
                RangePartitioner::from_key_sample(2, &[]),
            )
            .with_collected_results(true);
        let (stats, results) = op.run(&tuples);
        assert_eq!(canonical(&results), expected);
        assert!(stats.migration.epochs >= 1, "the forced epoch must fire");
        assert!(
            stats.migration.epochs <= 8,
            "stale drift plans must not replay after the forced adoption: {} epochs",
            stats.migration.epochs
        );
    }

    /// The tentpole differential: a drift-adopted plan applied through the
    /// incremental handoff protocol (small per-step budget, so the handoff
    /// spans many bounded quiesces) produces results byte-identical to the
    /// wholesale epoch protocol and the shared-store oracle, completes at
    /// least one full handoff, and its worst single stall never exceeds the
    /// cumulative stall (sanity of the max/total split).
    #[test]
    fn incremental_handoff_matches_epoch_and_oracle() {
        let tuples = drifting_tuples(8000, 400, 10_000, 125);
        let predicate = BandPredicate::new(2);
        let expected = canonical(&reference_join(&tuples, predicate, 128, 128, false));
        assert!(!expected.is_empty());
        for shards in [2usize, 4] {
            let first: Vec<Key> = tuples[..tuples.len() / 2].iter().map(|t| t.key).collect();
            let partitioner = RangePartitioner::from_key_sample(shards, &first);
            let shard_cfg = ShardConfig::default()
                .with_shards(shards)
                .with_partition_index(true);
            let drift = pimtree_common::DriftConfig::default()
                .with_repartition(true)
                .with_window(512)
                .with_imbalance_trigger(1.5)
                .with_migration_mode(MigrationMode::Incremental)
                .with_handoff_budget(64);
            let op = ParallelIbwj::new(
                config(128, 4, 4, 0.5, MergePolicy::NonBlocking)
                    .with_shard(shard_cfg)
                    .with_drift(drift),
                predicate,
                SharedIndexKind::PimTree,
                false,
            )
            .with_partitioner(partitioner)
            .with_collected_results(true);
            let (stats, results) = op.run_with_store_inspector(&tuples, 0, |store| {
                assert!(
                    store.handoff_dual().is_none(),
                    "no sub-range stays dual-owned after the run"
                );
            });
            assert_eq!(canonical(&results), expected, "{shards} shards");
            assert!(
                stats.migration.epochs >= 1,
                "the drifted load must complete a handoff ({shards} shards)"
            );
            assert!(stats.migration.epochs <= 8, "{shards} shards");
            assert!(
                stats.migration.handoff_steps >= 1,
                "a full key-range shift must take budgeted steps ({shards} shards)"
            );
            assert!(stats.migration.window_tuples_moved > 0, "{shards} shards");
            assert!(stats.migration.max_stall_nanos > 0, "{shards} shards");
            assert!(
                stats.migration.max_stall_nanos <= stats.migration.stall_nanos,
                "{shards} shards"
            );
        }
    }

    /// A forced worst-case handoff (collapse 4 shards onto one) through the
    /// incremental protocol, across both backends and merge policies: exact
    /// results, post-handoff state entirely on shard 0, nothing dual-owned,
    /// and the store epoch bumped exactly once at finalization.
    #[test]
    fn forced_incremental_collapse_preserves_results() {
        let tuples = random_tuples(4000, 400, 126);
        let predicate = BandPredicate::new(2);
        let expected = canonical(&reference_join(&tuples, predicate, 128, 128, false));
        assert!(!expected.is_empty());
        for policy in [MergePolicy::NonBlocking, MergePolicy::Blocking] {
            for kind in [SharedIndexKind::PimTree, SharedIndexKind::BwTree] {
                let skewed = RangePartitioner::from_key_sample(4, &[]);
                let cfg = config(128, 4, 4, 0.5, policy)
                    .with_shard(
                        ShardConfig::default()
                            .with_shards(4)
                            .with_partition_index(true),
                    )
                    .with_drift(
                        pimtree_common::DriftConfig::default()
                            .with_migration_mode(MigrationMode::Incremental)
                            .with_handoff_budget(128),
                    );
                let op = ParallelIbwj::new(cfg, predicate, kind, false)
                    .with_forced_repartition(tuples.len() / 2, skewed)
                    .with_collected_results(true);
                let label = format!("{policy:?}/{kind:?}");
                let (stats, results) = op.run_with_store_inspector(&tuples, 0, |store| {
                    assert!(store.handoff_dual().is_none());
                    for fp in store.shard_footprints() {
                        if fp.shard == 0 {
                            continue;
                        }
                        for side in &fp.sides {
                            assert_eq!(side.window_live, 0, "shard {}", fp.shard);
                            assert_eq!(side.index_entries, 0, "shard {}", fp.shard);
                        }
                    }
                    assert_eq!(store.epoch(), 1);
                });
                assert_eq!(canonical(&results), expected, "{label}");
                assert_eq!(stats.migration.epochs, 1, "{label}");
                assert!(stats.migration.handoff_steps >= 1, "{label}");
                assert!(stats.migration.window_tuples_moved > 0, "{label}");
                assert!(stats.migration.max_stall_nanos > 0, "{label}");
            }
        }
    }

    /// A handoff forced so late (and with so small a budget) that the input
    /// ends while sub-ranges are still in flight: the run-end completion
    /// path must resume from the frontier and finish the handoff, leaving
    /// ownership fully swapped and nothing dual-owned.
    #[test]
    fn incremental_handoff_interrupted_by_input_end_completes() {
        let tuples = random_tuples(3000, 300, 127);
        let predicate = BandPredicate::new(2);
        let expected = canonical(&reference_join(&tuples, predicate, 128, 128, false));
        let cfg = config(128, 4, 4, 0.5, MergePolicy::NonBlocking)
            .with_shard(
                ShardConfig::default()
                    .with_shards(4)
                    .with_partition_index(true),
            )
            .with_drift(
                pimtree_common::DriftConfig::default()
                    .with_migration_mode(MigrationMode::Incremental)
                    .with_handoff_budget(1),
            );
        let op = ParallelIbwj::new(cfg, predicate, SharedIndexKind::PimTree, false)
            .with_forced_repartition(tuples.len() - 50, RangePartitioner::from_key_sample(4, &[]))
            .with_collected_results(true);
        let (stats, results) = op.run_with_store_inspector(&tuples, 0, |store| {
            assert!(store.handoff_dual().is_none());
            for fp in store.shard_footprints() {
                if fp.shard == 0 {
                    continue;
                }
                for side in &fp.sides {
                    assert_eq!(side.window_live, 0, "shard {}", fp.shard);
                    assert_eq!(side.index_entries, 0, "shard {}", fp.shard);
                }
            }
        });
        assert_eq!(canonical(&results), expected);
        assert_eq!(stats.migration.epochs, 1, "completion must finalize");
        assert!(stats.migration.handoff_steps >= 1);
    }

    /// Open-loop pacing: arrival-rate runs report one arrival→drain sample
    /// per measured tuple through the log-bucketed histogram, keep results
    /// exact, and closed-loop runs report no histogram at all.
    #[test]
    fn open_loop_run_records_arrival_latency() {
        let tuples = random_tuples(2000, 300, 128);
        let predicate = BandPredicate::new(2);
        let expected = canonical(&reference_join(&tuples, predicate, 128, 128, false));
        let op = ParallelIbwj::new(
            config(128, 4, 4, 0.5, MergePolicy::NonBlocking),
            predicate,
            SharedIndexKind::PimTree,
            false,
        )
        .with_collected_results(true);
        let (closed_stats, _) = op.run(&tuples);
        assert!(closed_stats.arrival_latency.is_none());
        let paced = op.clone().with_open_loop(400_000.0);
        let (stats, results) = paced.run_with_warmup(&tuples, 500);
        assert_eq!(canonical(&results), expected);
        let hist = stats
            .arrival_latency
            .expect("open-loop run records latency");
        assert_eq!(hist.len(), 1500, "one sample per measured tuple");
        assert!(hist.p99_micros() >= hist.p50_micros());
        assert!(hist.max_micros() >= hist.p999_micros());
    }

    /// Domain-edge keys under the partitioned store: key clusters at
    /// `Key::MIN` and `Key::MAX` put partition boundaries (and probe ranges)
    /// at the integer domain edges, where the per-shard sub-range clipping
    /// must use checked arithmetic instead of wrapping (the `boundary + 1`
    /// satellite bug), including across a forced migration epoch.
    #[test]
    fn partitioned_store_domain_edge_keys_match_reference() {
        let mut rng = StdRng::seed_from_u64(123);
        let mut seqs = [0u64, 0u64];
        let tuples: Vec<Tuple> = (0..3000)
            .map(|i| {
                let side = if rng.gen::<bool>() {
                    StreamSide::R
                } else {
                    StreamSide::S
                };
                let seq = seqs[side.index()];
                seqs[side.index()] += 1;
                // Two clusters hugging the domain edges.
                let key = if i % 2 == 0 {
                    Key::MIN + rng.gen_range(0i64..200)
                } else {
                    Key::MAX - rng.gen_range(0i64..200)
                };
                Tuple::new(side, seq, key)
            })
            .collect();
        let predicate = BandPredicate::new(100);
        let expected = canonical(&reference_join(&tuples, predicate, 128, 128, false));
        assert!(!expected.is_empty());
        for shards in shard_sweep() {
            for forced in [false, true] {
                let cfg = config(128, 4, 4, 1.0, MergePolicy::NonBlocking).with_shard(
                    ShardConfig::default()
                        .with_shards(shards)
                        .with_partition_index(true),
                );
                let mut op = ParallelIbwj::new(cfg, predicate, SharedIndexKind::PimTree, false)
                    .with_collected_results(true);
                if forced {
                    let sample: Vec<Key> =
                        tuples[tuples.len() / 2..].iter().map(|t| t.key).collect();
                    op = op.with_forced_repartition(
                        tuples.len() / 2,
                        RangePartitioner::from_key_sample(shards, &sample),
                    );
                }
                let (_, results) = op.run(&tuples);
                assert_eq!(
                    canonical(&results),
                    expected,
                    "shards {shards}, forced {forced}"
                );
            }
        }
    }

    mod repartition_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]

            /// The satellite property: a migration epoch forced at a random
            /// point in the stream — with either a rebalanced or a
            /// maximally skewed target partitioner — yields output identical
            /// to the shared-store oracle across both backends and merge
            /// policies, and no unexpired tuple is dropped by the migration
            /// (the live window census after the run is exactly the
            /// unexpired suffix of each side).
            #[test]
            fn forced_migration_matches_oracle_and_drops_no_live_tuple(
                seed in 0u64..1_000,
                n in 1_000usize..2_500,
                at_pct in 0usize..101,
                shards in 2usize..5,
                blocking in prop::bool::ANY,
                bw in prop::bool::ANY,
                skew in prop::bool::ANY,
            ) {
                let tuples = random_tuples(n, 300, seed);
                let predicate = BandPredicate::new(2);
                let w = 64usize;
                let expected = canonical(&reference_join(&tuples, predicate, w, w, false));
                let at = n * at_pct / 100;
                let forced = if skew {
                    RangePartitioner::from_key_sample(shards, &[])
                } else {
                    let sample: Vec<Key> = tuples[at.min(n - 1)..].iter().map(|t| t.key).collect();
                    RangePartitioner::from_key_sample(shards, &sample)
                };
                let policy = if blocking {
                    MergePolicy::Blocking
                } else {
                    MergePolicy::NonBlocking
                };
                let kind = if bw {
                    SharedIndexKind::BwTree
                } else {
                    SharedIndexKind::PimTree
                };
                let cfg = config(w, 4, 4, 0.5, policy).with_shard(
                    ShardConfig::default()
                        .with_shards(shards)
                        .with_partition_index(true),
                );
                let op = ParallelIbwj::new(cfg, predicate, kind, false)
                    .with_forced_repartition(at, forced)
                    .with_collected_results(true);
                let mut live_census = [0usize; 2];
                let (stats, results) = op.run_with_store_inspector(&tuples, 0, |store| {
                    for fp in store.shard_footprints() {
                        for (side, counts) in fp.sides.iter().zip(live_census.iter_mut()) {
                            *counts += side.window_live;
                        }
                    }
                });
                prop_assert_eq!(canonical(&results), expected);
                prop_assert_eq!(stats.migration.epochs, 1);
                // No unexpired tuple dropped (or duplicated): per side the
                // live census equals the unexpired suffix of the stream.
                let r_count = tuples.iter().filter(|t| t.side == StreamSide::R).count();
                let s_count = tuples.len() - r_count;
                prop_assert_eq!(live_census[0], r_count.min(w), "side R census");
                prop_assert_eq!(live_census[1], s_count.min(w), "side S census");
            }

            /// The incremental counterpart: the same randomly placed forced
            /// migration applied as a budgeted handoff — interrupted and
            /// resumed at every sub-range boundary by design, possibly cut
            /// short by input exhaustion and finished by the run-end
            /// completion path — equals the shared-store oracle across both
            /// backends and merge policies, leaves nothing dual-owned, and
            /// drops/duplicates no unexpired tuple.
            #[test]
            fn incremental_handoff_matches_oracle_and_drops_no_live_tuple(
                seed in 1_000u64..2_000,
                n in 1_000usize..2_500,
                at_pct in 0usize..101,
                shards in 2usize..5,
                budget in 1usize..97,
                blocking in prop::bool::ANY,
                bw in prop::bool::ANY,
                skew in prop::bool::ANY,
            ) {
                let tuples = random_tuples(n, 300, seed);
                let predicate = BandPredicate::new(2);
                let w = 64usize;
                let expected = canonical(&reference_join(&tuples, predicate, w, w, false));
                let at = n * at_pct / 100;
                let forced = if skew {
                    RangePartitioner::from_key_sample(shards, &[])
                } else {
                    let sample: Vec<Key> = tuples[at.min(n - 1)..].iter().map(|t| t.key).collect();
                    RangePartitioner::from_key_sample(shards, &sample)
                };
                let policy = if blocking {
                    MergePolicy::Blocking
                } else {
                    MergePolicy::NonBlocking
                };
                let kind = if bw {
                    SharedIndexKind::BwTree
                } else {
                    SharedIndexKind::PimTree
                };
                let cfg = config(w, 4, 4, 0.5, policy)
                    .with_shard(
                        ShardConfig::default()
                            .with_shards(shards)
                            .with_partition_index(true),
                    )
                    .with_drift(
                        pimtree_common::DriftConfig::default()
                            .with_migration_mode(MigrationMode::Incremental)
                            .with_handoff_budget(budget),
                    );
                let op = ParallelIbwj::new(cfg, predicate, kind, false)
                    .with_forced_repartition(at, forced)
                    .with_collected_results(true);
                let mut live_census = [0usize; 2];
                let mut dual = None;
                let (stats, results) = op.run_with_store_inspector(&tuples, 0, |store| {
                    dual = store.handoff_dual();
                    for fp in store.shard_footprints() {
                        for (side, counts) in fp.sides.iter().zip(live_census.iter_mut()) {
                            *counts += side.window_live;
                        }
                    }
                });
                prop_assert_eq!(canonical(&results), expected);
                prop_assert_eq!(stats.migration.epochs, 1);
                prop_assert!(dual.is_none(), "handoff fully finalized");
                if stats.migration.window_tuples_moved > 0 {
                    prop_assert!(stats.migration.handoff_steps >= 1);
                }
                let r_count = tuples.iter().filter(|t| t.side == StreamSide::R).count();
                let s_count = tuples.len() - r_count;
                prop_assert_eq!(live_census[0], r_count.min(w), "side R census");
                prop_assert_eq!(live_census[1], s_count.min(w), "side S census");
            }
        }
    }

    #[test]
    #[should_panic(expected = "disagree on the shard count")]
    fn sharded_engine_rejects_mismatched_partitioner() {
        let cfg = config(64, 2, 4, 1.0, MergePolicy::NonBlocking)
            .with_shard(ShardConfig::default().with_shards(2));
        let _ = ParallelIbwj::new(cfg, BandPredicate::new(1), SharedIndexKind::PimTree, false)
            .with_partitioner(RangePartitioner::from_key_sample(4, &[1, 2, 3]));
    }

    #[test]
    fn explicit_ring_configuration_is_honoured() {
        // A run with an explicit tiny ring and yield-only back-off still
        // matches the reference (sanity check for the config plumbing).
        let tuples = random_tuples(2000, 200, 94);
        let predicate = BandPredicate::new(2);
        let expected = canonical(&reference_join(&tuples, predicate, 64, 64, false));
        let cfg = config(64, 3, 2, 1.0, MergePolicy::NonBlocking).with_ring(
            RingConfig::default()
                .with_capacity(16)
                .with_ingest_target(4)
                .with_backoff(1, 2, 0),
        );
        let op = ParallelIbwj::new(cfg, predicate, SharedIndexKind::PimTree, false)
            .with_collected_results(true);
        let (stats, results) = op.run(&tuples);
        assert_eq!(canonical(&results), expected);
        assert_eq!(stats.ring.idle_parks, 0, "park_micros = 0 never parks");
    }

    /// With the flight recorder in `full` mode, a forced mid-run migration's
    /// stall decomposes into named causes whose sum reproduces the engine's
    /// total migration stall within 1% (exactly, by lap-timer construction) —
    /// under both the wholesale epoch and the incremental handoff protocol —
    /// and the end-of-run report carries per-phase time for every worker.
    #[test]
    fn telemetry_full_attributes_stalls_and_phases() {
        let tuples = drifting_tuples(6000, 400, 10_000, 131);
        let predicate = BandPredicate::new(2);
        let expected = canonical(&reference_join(&tuples, predicate, 128, 128, false));
        assert!(!expected.is_empty());
        for mode in [MigrationMode::Epoch, MigrationMode::Incremental] {
            let first: Vec<Key> = tuples[..tuples.len() / 2].iter().map(|t| t.key).collect();
            let cfg = config(128, 4, 4, 0.5, MergePolicy::NonBlocking)
                .with_shard(
                    ShardConfig::default()
                        .with_shards(2)
                        .with_partition_index(true),
                )
                .with_drift(
                    pimtree_common::DriftConfig::default()
                        .with_migration_mode(mode)
                        .with_handoff_budget(64),
                )
                .with_telemetry(
                    pimtree_common::TelemetryConfig::default().with_mode(TelemetryMode::Full),
                );
            let op = ParallelIbwj::new(cfg, predicate, SharedIndexKind::PimTree, false)
                .with_partitioner(RangePartitioner::from_key_sample(2, &first))
                .with_forced_repartition(
                    tuples.len() / 2,
                    RangePartitioner::from_key_sample(2, &[]),
                )
                .with_collected_results(true);
            let (stats, results) = op.run(&tuples);
            assert_eq!(canonical(&results), expected, "{mode:?}");
            assert!(stats.migration.epochs >= 1, "{mode:?}");
            assert!(stats.migration.stall_nanos > 0, "{mode:?}");
            let cause_sum = stats.migration.stall_causes.total_nanos();
            let total = stats.migration.stall_nanos;
            assert!(
                (cause_sum as f64 - total as f64).abs() <= total as f64 * 0.01,
                "{mode:?}: causes sum {cause_sum} vs total {total}"
            );
            // Both protocols quiesce through the gate, so the gate causes
            // must carry weight; a migration must attribute state movement.
            assert!(
                stats.migration.stall_cause_nanos(StallCause::GateClose) > 0,
                "{mode:?}"
            );
            if stats.migration.window_tuples_moved > 0 {
                let moved = stats
                    .migration
                    .stall_cause_nanos(StallCause::WindowSnapshot)
                    + stats.migration.stall_cause_nanos(StallCause::Rebuild)
                    + stats.migration.stall_cause_nanos(StallCause::IndexSwap);
                assert!(moved > 0, "{mode:?}: moved state must attribute sub-phases");
            }
            let report = stats
                .telemetry
                .as_ref()
                .expect("full mode fills the report");
            assert_eq!(report.mode, TelemetryMode::Full);
            assert_eq!(report.per_worker.len(), 4);
            assert_eq!(report.stall.total_nanos(), total, "{mode:?}");
            for phase in [EnginePhase::Claim, EnginePhase::Probe, EnginePhase::Expiry] {
                assert!(report.totals.nanos(phase) > 0, "{mode:?} {phase:?}");
            }
            assert!(
                report.phase_histograms.is_some() && report.stall_histograms.is_some(),
                "{mode:?}: full mode records histograms"
            );
            assert!(report.to_prometheus().contains("pimtree_phase_nanos"));
        }
    }

    /// The default (off) mode leaves the report unset and the results exact —
    /// the recorder's hot path is a single relaxed counter bump.
    #[test]
    fn telemetry_off_leaves_report_unset() {
        let tuples = random_tuples(3000, 300, 132);
        let predicate = BandPredicate::new(2);
        let expected = canonical(&reference_join(&tuples, predicate, 64, 64, false));
        let cfg = config(64, 2, 4, 1.0, MergePolicy::NonBlocking);
        let op = ParallelIbwj::new(cfg, predicate, SharedIndexKind::PimTree, false)
            .with_collected_results(true);
        let (stats, results) = op.run(&tuples);
        assert_eq!(canonical(&results), expected);
        assert!(stats.telemetry.is_none(), "off mode reports nothing");
    }

    /// `with_telemetry_out` streams gauge samples as JSONL during the
    /// measured phase and leaves a Prometheus-style dump at drain: every
    /// line is one flat JSON object with the schema's required keys and a
    /// strictly increasing `seq`.
    #[test]
    fn telemetry_out_writes_jsonl_trace_and_prometheus_dump() {
        let tuples = random_tuples(4000, 300, 133);
        let predicate = BandPredicate::new(2);
        let expected = canonical(&reference_join(&tuples, predicate, 64, 64, false));
        let dir = std::env::temp_dir();
        let path = dir
            .join(format!(
                "pimtree_telemetry_test_{}.jsonl",
                std::process::id()
            ))
            .to_string_lossy()
            .into_owned();
        let cfg = config(64, 2, 4, 1.0, MergePolicy::NonBlocking).with_telemetry(
            pimtree_common::TelemetryConfig::default()
                .with_mode(TelemetryMode::Counters)
                .with_sample_interval_ms(1),
        );
        let op = ParallelIbwj::new(cfg, predicate, SharedIndexKind::PimTree, false)
            .with_telemetry_out(&path)
            .with_collected_results(true);
        let (_, results) = op.run(&tuples);
        assert_eq!(canonical(&results), expected);
        let trace = std::fs::read_to_string(&path).expect("trace written");
        let mut last_seq = None;
        let mut lines = 0usize;
        for line in trace.lines().filter(|l| !l.trim().is_empty()) {
            lines += 1;
            assert!(
                line.starts_with('{') && line.ends_with('}'),
                "flat JSON: {line}"
            );
            for key in [
                "\"seq\":",
                "\"elapsed_us\":",
                "\"in_flight\":",
                "\"shard_occupancy\":",
                "\"unindexed_r\":",
                "\"unindexed_s\":",
                "\"window_r\":",
                "\"window_s\":",
                "\"local_claims\":",
                "\"stolen_claims\":",
                "\"drift_imbalance\":",
                "\"handoff_steps_done\":",
                "\"handoff_steps_total\":",
                "\"events\":",
            ] {
                assert!(line.contains(key), "missing {key} in {line}");
            }
            let seq: u64 = line["{\"seq\": ".len()..]
                .split(',')
                .next()
                .unwrap()
                .trim()
                .parse()
                .expect("numeric seq");
            if let Some(prev) = last_seq {
                assert!(seq > prev, "seq must increase");
            }
            last_seq = Some(seq);
        }
        assert!(lines >= 1, "the sampler takes at least the final sample");
        let prom = std::fs::read_to_string(format!("{path}.prom")).expect("prom dump");
        assert!(
            prom.contains("pimtree_phase_nanos"),
            "prom dump has metrics"
        );
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(format!("{path}.prom"));
    }
}
