//! Single-threaded index-based window join (IBWJ).
//!
//! Processing a tuple `r` arriving on stream `R` follows the three steps of
//! §2.1: (1) probe the index of the opposite window for matches, (2) remove
//! the tuple that expires from `R`'s window (how — eagerly, lazily or in bulk
//! — is the index adapter's business), and (3) insert `r` into `R`'s window
//! and index. The operator is generic over the index through
//! [`WindowIndexAdapter`], which is how the paper's single-threaded comparison
//! (Figures 8b, 9, 10a/10b) is produced from one code path.

use std::time::Instant;

use pimtree_common::{
    BandPredicate, IndexKind, JoinConfig, JoinResult, ProbeConfig, ProbeCounters, Step, StepTimer,
    StreamSide, Tuple,
};
use pimtree_window::SlidingWindow;

use crate::adapter::{
    BTreeAdapter, BwTreeAdapter, ChainedAdapter, ImTreeAdapter, PimTreeAdapter, WindowIndexAdapter,
};
use crate::stats::JoinRunStats;
use pimtree_chained::ChainVariant;

/// A single-threaded stream-join operator processing one tuple at a time.
pub trait SingleThreadJoin {
    /// Operator name for benchmark output.
    fn name(&self) -> String;

    /// Processes one arriving tuple, appending its results (ordered by the
    /// matched tuple's arrival) to `out`.
    fn process(&mut self, tuple: Tuple, out: &mut Vec<JoinResult>);

    /// Statistics accumulated so far (merge counts, per-step costs). The
    /// default implementation reports nothing.
    fn stats(&self) -> JoinRunStats {
        JoinRunStats::default()
    }

    /// Runs the operator over a tuple sequence, returning run statistics and —
    /// when `collect` is true — the produced results.
    fn run(&mut self, tuples: &[Tuple], collect: bool) -> (JoinRunStats, Vec<JoinResult>) {
        let mut out = Vec::new();
        let mut kept = Vec::new();
        let start = Instant::now();
        for &t in tuples {
            self.process(t, &mut out);
            if collect {
                kept.append(&mut out);
            } else {
                out.clear();
            }
        }
        let elapsed = start.elapsed();
        let mut stats = self.stats();
        stats.tuples = tuples.len() as u64;
        stats.results = if collect {
            kept.len() as u64
        } else {
            stats.results
        };
        stats.elapsed = elapsed;
        (stats, kept)
    }
}

/// The single-threaded IBWJ operator, generic over the window index.
#[derive(Debug)]
pub struct IbwjOperator<A: WindowIndexAdapter> {
    windows: [SlidingWindow; 2],
    window_sizes: [usize; 2],
    indexes: [A; 2],
    predicate: BandPredicate,
    self_join: bool,
    instrument: bool,
    probe: ProbeConfig,
    probe_counters: ProbeCounters,
    results_count: u64,
    merges: u64,
    merge_time: std::time::Duration,
    breakdown: pimtree_common::CostBreakdown,
}

impl<A: WindowIndexAdapter> IbwjOperator<A> {
    /// Creates a two-way IBWJ with one index per window, built by `make_index`.
    pub fn new(
        window_r: usize,
        window_s: usize,
        predicate: BandPredicate,
        mut make_index: impl FnMut() -> A,
    ) -> Self {
        IbwjOperator {
            windows: [
                SlidingWindow::with_default_slack(window_r),
                SlidingWindow::with_default_slack(window_s),
            ],
            window_sizes: [window_r, window_s],
            indexes: [make_index(), make_index()],
            predicate,
            self_join: false,
            instrument: false,
            probe: ProbeConfig::default(),
            probe_counters: ProbeCounters::default(),
            results_count: 0,
            merges: 0,
            merge_time: std::time::Duration::ZERO,
            breakdown: pimtree_common::CostBreakdown::new(),
        }
    }

    /// Creates a self-join IBWJ: a single window and index probed and updated
    /// by every tuple.
    pub fn new_self_join(
        window: usize,
        predicate: BandPredicate,
        mut make_index: impl FnMut() -> A,
    ) -> Self {
        IbwjOperator {
            windows: [
                SlidingWindow::with_default_slack(window),
                SlidingWindow::with_default_slack(1),
            ],
            window_sizes: [window, 1],
            indexes: [make_index(), make_index()],
            predicate,
            self_join: true,
            instrument: false,
            probe: ProbeConfig::default(),
            probe_counters: ProbeCounters::default(),
            results_count: 0,
            merges: 0,
            merge_time: std::time::Duration::ZERO,
            breakdown: pimtree_common::CostBreakdown::new(),
        }
    }

    /// Enables per-step cost instrumentation (Figure 9b). Instrumentation adds
    /// two clock reads per step and is off by default. The instrumented probe
    /// always takes the scalar path (its purpose is the per-step cost split).
    pub fn with_instrumentation(mut self) -> Self {
        self.instrument = true;
        self
    }

    /// Overrides the probe tuning. Each tuple's probe goes through the
    /// index's batched API as a group of one — which degenerates to the
    /// single-range descent (no sort/dedup/prefetch overhead) but keeps the
    /// probe counters and exercises the exact entry point the parallel
    /// engine batches across a whole task.
    pub fn with_probe_config(mut self, probe: ProbeConfig) -> Self {
        probe.validate().expect("invalid probe configuration");
        self.probe = probe;
        self
    }

    /// Access to the index of stream `R`'s window (for stats).
    pub fn index_r(&self) -> &A {
        &self.indexes[0]
    }

    /// Access to the index of stream `S`'s window (for stats).
    pub fn index_s(&self) -> &A {
        &self.indexes[1]
    }
}

impl<A: WindowIndexAdapter> SingleThreadJoin for IbwjOperator<A> {
    fn name(&self) -> String {
        format!("ibwj/{}", self.indexes[0].name())
    }

    fn stats(&self) -> JoinRunStats {
        JoinRunStats {
            results: self.results_count,
            merges: self.merges,
            merge_time: self.merge_time,
            breakdown: self.breakdown.clone(),
            probe: self.probe_counters,
            ..Default::default()
        }
    }

    fn process(&mut self, tuple: Tuple, out: &mut Vec<JoinResult>) {
        let (probe_idx, own_idx, matched_side) = if self.self_join {
            (0, 0, StreamSide::R)
        } else {
            (
                tuple.side.opposite().index(),
                tuple.side.index(),
                tuple.side.opposite(),
            )
        };
        let range = self.predicate.probe_range(tuple.key);
        let probe_bounds = self.windows[probe_idx].bounds();

        // Step 1: probe the opposite index and filter to the live window.
        let before = out.len();
        if self.instrument {
            let matches = self.indexes[probe_idx].probe_instrumented(
                range,
                probe_bounds.earliest,
                &mut self.breakdown,
            );
            for e in matches {
                if probe_bounds.contains(e.seq) {
                    out.push(JoinResult::new(
                        tuple,
                        Tuple::new(matched_side, e.seq, e.key),
                    ));
                }
            }
        } else {
            // A group of one through the batched entry point: the PIM-Tree
            // answers it with its single-range fast path, but the
            // single-threaded engine stays on the same API the parallel
            // engine batches across a whole task.
            let indexes = &self.indexes;
            indexes[probe_idx].probe_batch(
                std::slice::from_ref(&range),
                &self.probe,
                &mut self.probe_counters,
                &mut |_, e| {
                    if probe_bounds.contains(e.seq) {
                        out.push(JoinResult::new(
                            tuple,
                            Tuple::new(matched_side, e.seq, e.key),
                        ));
                    }
                },
            );
        }
        self.results_count += (out.len() - before) as u64;

        // Step 2: handle the tuple expiring from the own window.
        let own_window_size = self.window_sizes[own_idx];
        let next_seq = self.windows[own_idx].head();
        if next_seq >= own_window_size as u64 {
            let expired_seq = next_seq - own_window_size as u64;
            let expired_key = self.windows[own_idx].key_of(expired_seq);
            if self.instrument {
                let timer = StepTimer::start(Step::Delete);
                self.indexes[own_idx].on_expire(expired_key, expired_seq);
                timer.finish(&mut self.breakdown);
            } else {
                self.indexes[own_idx].on_expire(expired_key, expired_seq);
            }
        }

        // Step 3: insert the new tuple into its window and index.
        let seq = self.windows[own_idx]
            .append(tuple.key)
            .expect("sliding window slack exhausted");
        debug_assert_eq!(
            seq, tuple.seq,
            "input sequence numbers must match arrival order"
        );
        if self.instrument {
            let timer = StepTimer::start(Step::Insert);
            self.indexes[own_idx].insert(tuple.key, seq);
            timer.finish(&mut self.breakdown);
        } else {
            self.indexes[own_idx].insert(tuple.key, seq);
        }

        // Maintenance (merge) if the index asks for it.
        let earliest_live = self.windows[own_idx].earliest_live();
        if let Some(report) = self.indexes[own_idx].maintain(earliest_live) {
            self.merges += 1;
            self.merge_time += report.duration;
            self.breakdown
                .record_nanos(Step::Merge, report.duration.as_nanos() as u64);
        }
        self.breakdown.tuples += 1;
    }
}

/// Builds a boxed single-threaded join operator for the given configuration.
/// This is the factory the benchmark harness uses to sweep index kinds.
pub fn build_single_threaded(
    config: &JoinConfig,
    predicate: BandPredicate,
    self_join: bool,
) -> Box<dyn SingleThreadJoin> {
    let (wr, ws) = (config.window_r, config.window_s);
    let pim = config.pim;
    let probe = config.probe;
    match config.index {
        IndexKind::None => {
            if self_join {
                Box::new(crate::nlwj::NlwjOperator::new_self_join(wr, predicate))
            } else {
                Box::new(crate::nlwj::NlwjOperator::new(wr, ws, predicate))
            }
        }
        IndexKind::BTree => boxed(wr, ws, predicate, self_join, probe, move || {
            BTreeAdapter::with_fanout(pim.btree_fanout)
        }),
        IndexKind::BChain => {
            let chain = config.chain_length;
            boxed(wr, ws, predicate, self_join, probe, move || {
                ChainedAdapter::new(ChainVariant::BChain, wr, chain)
            })
        }
        IndexKind::IbChain => {
            let chain = config.chain_length;
            boxed(wr, ws, predicate, self_join, probe, move || {
                ChainedAdapter::new(ChainVariant::IbChain, wr, chain)
            })
        }
        IndexKind::ImTree => boxed(wr, ws, predicate, self_join, probe, move || {
            ImTreeAdapter::new(pim)
        }),
        IndexKind::PimTree => boxed(wr, ws, predicate, self_join, probe, move || {
            PimTreeAdapter::new(pim)
        }),
        IndexKind::BwTree => boxed(wr, ws, predicate, self_join, probe, BwTreeAdapter::new),
    }
}

fn boxed<A: WindowIndexAdapter + 'static>(
    wr: usize,
    ws: usize,
    predicate: BandPredicate,
    self_join: bool,
    probe: ProbeConfig,
    make_index: impl FnMut() -> A,
) -> Box<dyn SingleThreadJoin> {
    if self_join {
        Box::new(IbwjOperator::new_self_join(wr, predicate, make_index).with_probe_config(probe))
    } else {
        Box::new(IbwjOperator::new(wr, ws, predicate, make_index).with_probe_config(probe))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{canonical, reference_join};
    use pimtree_common::PimConfig;
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

    fn config_with(index: IndexKind, w: usize) -> JoinConfig {
        let mut pim = PimConfig::for_window(w)
            .with_merge_ratio(0.25)
            .with_insertion_depth(2);
        pim.css_fanout = 8;
        pim.css_leaf_size = 8;
        pim.btree_fanout = 8;
        JoinConfig::symmetric(w, index)
            .with_chain_length(3)
            .with_pim(pim)
    }

    #[test]
    fn every_index_kind_matches_the_reference_two_way() {
        let tuples = random_tuples(3000, 400, 10);
        let predicate = BandPredicate::new(2);
        let w = 128;
        let expected = canonical(&reference_join(&tuples, predicate, w, w, false));
        assert!(!expected.is_empty());
        for kind in [
            IndexKind::None,
            IndexKind::BTree,
            IndexKind::BChain,
            IndexKind::IbChain,
            IndexKind::ImTree,
            IndexKind::PimTree,
            IndexKind::BwTree,
        ] {
            let mut op = build_single_threaded(&config_with(kind, w), predicate, false);
            let (_, results) = op.run(&tuples, true);
            assert_eq!(canonical(&results), expected, "index kind {kind}");
        }
    }

    #[test]
    fn every_index_kind_matches_the_reference_self_join() {
        let tuples: Vec<Tuple> = {
            let mut rng = StdRng::seed_from_u64(11);
            (0..2000u64)
                .map(|i| Tuple::r(i, rng.gen_range(0..300)))
                .collect()
        };
        let predicate = BandPredicate::new(1);
        let w = 96;
        let expected = canonical(&reference_join(&tuples, predicate, w, w, true));
        assert!(!expected.is_empty());
        for kind in [
            IndexKind::BTree,
            IndexKind::ImTree,
            IndexKind::PimTree,
            IndexKind::BwTree,
        ] {
            let mut op = build_single_threaded(&config_with(kind, w), predicate, true);
            let (_, results) = op.run(&tuples, true);
            assert_eq!(canonical(&results), expected, "index kind {kind}");
        }
    }

    #[test]
    fn asymmetric_window_sizes_are_respected() {
        let tuples = random_tuples(4000, 200, 12);
        let predicate = BandPredicate::new(1);
        let (wr, ws) = (32, 256);
        let expected = canonical(&reference_join(&tuples, predicate, wr, ws, false));
        let mut config = config_with(IndexKind::PimTree, ws);
        config.window_r = wr;
        config.window_s = ws;
        let mut op = build_single_threaded(&config, predicate, false);
        let (_, results) = op.run(&tuples, true);
        assert_eq!(canonical(&results), expected);
    }

    /// The PIM-Tree's batched probe and the per-range scalar fallback of
    /// every other index agree with the oracle on a duplicate-heavy stream,
    /// and each path records itself in the probe counters.
    #[test]
    fn batched_and_scalar_probe_paths_agree_for_every_index_kind() {
        let tuples = random_tuples(2500, 60, 15); // small domain: many dup keys
        let predicate = BandPredicate::new(2);
        let w = 96;
        let expected = canonical(&reference_join(&tuples, predicate, w, w, false));
        assert!(!expected.is_empty());
        for kind in [
            IndexKind::BTree,
            IndexKind::ImTree,
            IndexKind::PimTree,
            IndexKind::BwTree,
        ] {
            let mut op = build_single_threaded(&config_with(kind, w), predicate, false);
            let (stats, results) = op.run(&tuples, true);
            assert_eq!(canonical(&results), expected, "{kind}");
            match kind {
                IndexKind::PimTree => {
                    assert_eq!(stats.probe.batches, tuples.len() as u64);
                    assert_eq!(stats.probe.scalar_probes, 0);
                }
                _ => assert_eq!(
                    stats.probe.scalar_probes,
                    tuples.len() as u64,
                    "{kind} has no batched path and falls back per probe"
                ),
            }
        }
    }

    #[test]
    fn operator_reports_merges_and_breakdown() {
        let tuples = random_tuples(4000, 10_000, 13);
        let predicate = BandPredicate::new(5);
        let pim = PimConfig::for_window(256)
            .with_merge_ratio(0.25)
            .with_insertion_depth(2);
        let mut op = IbwjOperator::new(256, 256, predicate, || PimTreeAdapter::new(pim))
            .with_instrumentation();
        let (stats, _) = op.run(&tuples, false);
        assert!(
            stats.merges > 0,
            "merge ratio 0.25 over 4000 tuples must merge"
        );
        assert!(stats.merge_time.as_nanos() > 0);
        assert!(stats.breakdown.count(Step::Insert) > 0);
        assert!(stats.breakdown.count(Step::Search) > 0);
        assert!(stats.breakdown.count(Step::Merge) == stats.merges);
    }

    #[test]
    fn results_count_matches_collected_results() {
        let tuples = random_tuples(1500, 150, 14);
        let predicate = BandPredicate::new(2);
        let mut op = IbwjOperator::new(64, 64, predicate, BTreeAdapter::new);
        let (stats, results) = op.run(&tuples, true);
        assert_eq!(stats.results, results.len() as u64);
        assert!(stats.observed_match_rate() > 0.0);
    }
}
