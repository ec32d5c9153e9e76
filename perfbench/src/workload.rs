//! The benchmark's workloads and the engine configuration each one runs.
//!
//! All three are two-way joins with 50/50 R/S arrivals, uniform keys and a
//! band calibrated to about two matches per probe. They differ in the
//! property that moves cost between layers: window size relative to the
//! caches, and key drift that forces a live repartition.

use pimtree_common::{
    BandPredicate, DriftConfig, IndexKind, JoinConfig, MigrationMode, ShardConfig, TelemetryMode,
    Tuple,
};
use pimtree_join::{ParallelIbwj, SharedIndexKind};
use pimtree_numa::RangePartitioner;
use pimtree_workload::{calibrate_diff, KeyDistribution, StreamGenerator, StreamMix};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Results per probe the band predicate is calibrated for.
const MATCH_RATE: f64 = 2.0;
/// Offset added to every key of the drifting workload's second half: far
/// outside the uniform domain, so the fitted plan re-homes every live tuple.
const DRIFT_SHIFT: i64 = 2_000_000_000;
/// Window tuples moved per incremental handoff step on the drift workload.
const HANDOFF_BUDGET: usize = 512;
/// Measured tuples per run (after the window-fill warmup).
pub const MEASURED: usize = 1_000_000;

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Tuples per window, per side.
    pub window: usize,
    /// Fixed open-loop offer in tuples per second; the same on every commit.
    /// Low enough that the slowest spells seen on a 2-vCPU VM, with 2-worker
    /// throughput down to a third of its usual rate for minutes, did not
    /// build a backlog.
    pub offered_tps: f64,
    /// Store shards; more than one means the partitioned store with a
    /// forced, incremental repartition at the stream's midpoint.
    pub shards: usize,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "uniform_w14",
        window: 1 << 14,
        offered_tps: 300_000.0,
        shards: 1,
    },
    Workload {
        name: "uniform_w18",
        window: 1 << 18,
        offered_tps: 200_000.0,
        shards: 1,
    },
    Workload {
        name: "drift_w16_migrate",
        window: 1 << 16,
        offered_tps: 200_000.0,
        shards: 2,
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// The generated input of one workload and seed, with its expected output.
pub struct Stream {
    pub tuples: Vec<Tuple>,
    pub predicate: BandPredicate,
    /// Leading tuples that fill both windows before measurement starts.
    pub warmup: usize,
    /// Ring/store partitioner fitted to the first half (drift workload only).
    pub initial: Option<RangePartitioner>,
    /// Partitioner fitted to the drifted second half, force-adopted at the
    /// midpoint (drift workload only).
    pub target: Option<RangePartitioner>,
}

impl Workload {
    pub fn drifts(&self) -> bool {
        self.shards > 1
    }

    pub fn generate(&self, seed: u64) -> Stream {
        let warmup = 2 * self.window;
        let n = warmup + MEASURED;
        let dist = KeyDistribution::uniform();
        let diff = calibrate_diff(dist, self.window, MATCH_RATE, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tuples =
            StreamGenerator::new(dist, StreamMix::with_s_percent(50.0)).generate(&mut rng, n);
        let (mut initial, mut target) = (None, None);
        if self.drifts() {
            let mid = n / 2;
            for t in &mut tuples[mid..] {
                t.key += DRIFT_SHIFT;
            }
            let fit = |part: &[Tuple]| {
                let step = (part.len() / 8192).max(1);
                let sample: Vec<i64> = part.iter().step_by(step).map(|t| t.key).collect();
                RangePartitioner::from_key_sample(self.shards, &sample)
            };
            initial = Some(fit(&tuples[..mid]));
            target = Some(fit(&tuples[mid..]));
        }
        Stream {
            tuples,
            predicate: BandPredicate::new(diff),
            warmup,
            initial,
            target,
        }
    }

    /// The engine for one run: shipped defaults except the window, the
    /// worker count, the telemetry mode, and (on the drift workload) the
    /// partitioned store with its forced incremental repartition.
    pub fn engine(
        &self,
        stream: &Stream,
        threads: usize,
        open_loop: bool,
        telemetry: TelemetryMode,
    ) -> ParallelIbwj {
        let mut config =
            JoinConfig::symmetric(self.window, IndexKind::PimTree).with_threads(threads);
        config.telemetry.mode = telemetry;
        if self.drifts() {
            config = config
                .with_shard(
                    ShardConfig::default()
                        .with_shards(self.shards)
                        .with_partition_index(true),
                )
                .with_drift(
                    DriftConfig::default()
                        .with_migration_mode(MigrationMode::Incremental)
                        .with_handoff_budget(HANDOFF_BUDGET),
                );
        }
        let mut op = ParallelIbwj::new(config, stream.predicate, SharedIndexKind::PimTree, false);
        if let (Some(initial), Some(target)) = (&stream.initial, &stream.target) {
            op = op
                .with_partitioner(initial.clone())
                .with_forced_repartition(stream.tuples.len() / 2, target.clone());
        }
        if open_loop {
            op = op.with_open_loop(self.offered_tps);
        }
        op
    }
}
