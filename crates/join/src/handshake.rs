//! Multithreaded window join based on round-robin (context-insensitive)
//! window partitioning (§2.2.3).
//!
//! This models the family of low-latency handshake join / SplitJoin /
//! BiStream operators: the sliding window is split across `P` join cores by
//! arrival order (tuple `seq` is *owned* by core `seq mod P`), every core
//! keeps a local window partition (and, in the indexed variant, a local
//! B+-Tree over it), and producing the join result of a single tuple requires
//! **all** cores to probe their local partition, while only the owning core
//! updates its partition. The redundant probing across all cores is exactly
//! the inefficiency the paper's Equation 4 attributes to context-insensitive
//! partitioning for index-based joins.
//!
//! The implementation exchanges batches over channels rather than modelling
//! the linear chain of the original handshake join; the fast-forwarding
//! variant the paper compares against has the same computational structure
//! (every tuple meets every core once, and is indexed by exactly one core),
//! which is what the throughput figures measure.

use std::time::Instant;

use crossbeam::channel;
use pimtree_btree::BTreeIndex;
use pimtree_common::{BandPredicate, JoinResult, Seq, StreamSide, Tuple};

use crate::stats::JoinRunStats;

/// Whether join cores keep a local index over their partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandshakeMode {
    /// Nested-loop probing of the local partitions.
    Nlwj,
    /// Each core maintains a local B+-Tree over its partition (indexed
    /// round-robin join).
    Ibwj,
}

/// The round-robin partitioned parallel join operator.
#[derive(Debug, Clone)]
pub struct HandshakeJoin {
    threads: usize,
    window_r: usize,
    window_s: usize,
    predicate: BandPredicate,
    mode: HandshakeMode,
    batch_size: usize,
    collect_results: bool,
}

/// A tuple along with the size of the opposite window at its arrival
/// (pre-computed by the driver so that workers can filter expired tuples with
/// exact arrival semantics).
#[derive(Debug, Clone, Copy)]
struct Enriched {
    tuple: Tuple,
    opposite_head: Seq,
}

impl HandshakeJoin {
    /// Creates the operator.
    pub fn new(
        threads: usize,
        window_r: usize,
        window_s: usize,
        predicate: BandPredicate,
        mode: HandshakeMode,
    ) -> Self {
        assert!(threads >= 1, "at least one join core is required");
        HandshakeJoin {
            threads,
            window_r,
            window_s,
            predicate,
            mode,
            batch_size: 256,
            collect_results: false,
        }
    }

    /// Collect result tuples (for tests); by default only counts are kept.
    pub fn with_collected_results(mut self, collect: bool) -> Self {
        self.collect_results = collect;
        self
    }

    /// Runs the join over a tuple sequence.
    pub fn run(&self, tuples: &[Tuple]) -> (JoinRunStats, Vec<JoinResult>) {
        let start = Instant::now();
        // Pre-compute, for every tuple, the number of opposite-stream tuples
        // that arrived before it (its probe horizon).
        let mut heads = [0u64, 0u64];
        let enriched: Vec<Enriched> = tuples
            .iter()
            .map(|&t| {
                let e = Enriched {
                    tuple: t,
                    opposite_head: heads[t.side.opposite().index()],
                };
                heads[t.side.index()] += 1;
                e
            })
            .collect();

        let (result_tx, result_rx) = channel::unbounded::<(u64, Vec<JoinResult>)>();
        let mut batch_txs = Vec::with_capacity(self.threads);
        std::thread::scope(|scope| {
            for core in 0..self.threads {
                let (tx, rx) = channel::bounded::<std::sync::Arc<Vec<Enriched>>>(4);
                batch_txs.push(tx);
                let result_tx = result_tx.clone();
                let op = self.clone();
                scope.spawn(move || {
                    let out = op.run_core(core, rx);
                    let _ = result_tx.send(out);
                });
            }
            drop(result_tx);
            for chunk in enriched.chunks(self.batch_size) {
                let batch = std::sync::Arc::new(chunk.to_vec());
                for tx in &batch_txs {
                    tx.send(std::sync::Arc::clone(&batch))
                        .expect("worker alive");
                }
            }
            drop(batch_txs);
        });

        let mut results = Vec::new();
        let mut count = 0u64;
        for (c, rs) in result_rx.iter() {
            count += c;
            results.extend(rs);
        }
        let stats = JoinRunStats {
            tuples: tuples.len() as u64,
            results: count,
            elapsed: start.elapsed(),
            ..Default::default()
        };
        (stats, results)
    }

    fn run_core(
        &self,
        core: usize,
        rx: channel::Receiver<std::sync::Arc<Vec<Enriched>>>,
    ) -> (u64, Vec<JoinResult>) {
        // Local state per stream side: the owned partition (seq, key) in
        // arrival order, plus an optional local index over it.
        let mut partitions: [std::collections::VecDeque<(Seq, i64)>; 2] =
            [Default::default(), Default::default()];
        let mut indexes: [BTreeIndex; 2] = [BTreeIndex::new(), BTreeIndex::new()];
        let window_of = |side: StreamSide| match side {
            StreamSide::R => self.window_r,
            StreamSide::S => self.window_s,
        };
        let mut matches = 0u64;
        let mut collected = Vec::new();

        for batch in rx.iter() {
            for item in batch.iter() {
                let t = item.tuple;
                let probe_idx = t.side.opposite().index();
                let range = self.predicate.probe_range(t.key);
                // Every core probes its local partition of the opposite side.
                let live_from = item
                    .opposite_head
                    .saturating_sub(window_of(t.side.opposite()) as u64);
                match self.mode {
                    HandshakeMode::Nlwj => {
                        for &(seq, key) in &partitions[probe_idx] {
                            if seq >= live_from && seq < item.opposite_head && range.contains(key) {
                                matches += 1;
                                if self.collect_results {
                                    collected.push(JoinResult::new(
                                        t,
                                        Tuple::new(t.side.opposite(), seq, key),
                                    ));
                                }
                            }
                        }
                    }
                    HandshakeMode::Ibwj => {
                        indexes[probe_idx].range_for_each(range, |e| {
                            if e.seq >= live_from && e.seq < item.opposite_head {
                                matches += 1;
                                if self.collect_results {
                                    collected.push(JoinResult::new(
                                        t,
                                        Tuple::new(t.side.opposite(), e.seq, e.key),
                                    ));
                                }
                            }
                        });
                    }
                }
                // Only the owning core stores and indexes the tuple.
                if t.seq as usize % self.threads == core {
                    let own_idx = t.side.index();
                    partitions[own_idx].push_back((t.seq, t.key));
                    if self.mode == HandshakeMode::Ibwj {
                        indexes[own_idx].insert(t.key, t.seq);
                    }
                    // Evict tuples this core owns that have expired from the
                    // global window.
                    let horizon = (t.seq + 1).saturating_sub(window_of(t.side) as u64);
                    while let Some(&(seq, key)) = partitions[own_idx].front() {
                        if seq < horizon {
                            partitions[own_idx].pop_front();
                            if self.mode == HandshakeMode::Ibwj {
                                let removed = indexes[own_idx].remove(key, seq);
                                debug_assert!(removed);
                            }
                        } else {
                            break;
                        }
                    }
                }
            }
        }
        (matches, collected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{canonical, reference_join};
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

    #[test]
    fn nlwj_mode_matches_reference() {
        let tuples = random_tuples(2000, 250, 21);
        let predicate = BandPredicate::new(2);
        let expected = canonical(&reference_join(&tuples, predicate, 128, 128, false));
        assert!(!expected.is_empty());
        for threads in [1, 2, 4] {
            let op = HandshakeJoin::new(threads, 128, 128, predicate, HandshakeMode::Nlwj)
                .with_collected_results(true);
            let (stats, results) = op.run(&tuples);
            assert_eq!(canonical(&results), expected, "threads = {threads}");
            assert_eq!(stats.results as usize, expected.len());
        }
    }

    #[test]
    fn ibwj_mode_matches_reference() {
        let tuples = random_tuples(3000, 400, 22);
        let predicate = BandPredicate::new(3);
        let expected = canonical(&reference_join(&tuples, predicate, 256, 256, false));
        assert!(!expected.is_empty());
        for threads in [1, 3, 8] {
            let op = HandshakeJoin::new(threads, 256, 256, predicate, HandshakeMode::Ibwj)
                .with_collected_results(true);
            let (_, results) = op.run(&tuples);
            assert_eq!(canonical(&results), expected, "threads = {threads}");
        }
    }

    #[test]
    fn asymmetric_windows() {
        let tuples = random_tuples(2500, 200, 23);
        let predicate = BandPredicate::new(1);
        let expected = canonical(&reference_join(&tuples, predicate, 32, 512, false));
        let op = HandshakeJoin::new(4, 32, 512, predicate, HandshakeMode::Ibwj)
            .with_collected_results(true);
        let (_, results) = op.run(&tuples);
        assert_eq!(canonical(&results), expected);
    }

    #[test]
    fn counting_mode_reports_same_totals() {
        let tuples = random_tuples(2000, 300, 24);
        let predicate = BandPredicate::new(2);
        let counting = HandshakeJoin::new(4, 128, 128, predicate, HandshakeMode::Ibwj);
        let (stats, results) = counting.run(&tuples);
        assert!(results.is_empty(), "counting mode keeps no result tuples");
        let expected = reference_join(&tuples, predicate, 128, 128, false).len() as u64;
        assert_eq!(stats.results, expected);
        assert!(stats.million_tuples_per_second() > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one join core")]
    fn zero_threads_rejected() {
        let _ = HandshakeJoin::new(0, 8, 8, BandPredicate::new(1), HandshakeMode::Nlwj);
    }
}
