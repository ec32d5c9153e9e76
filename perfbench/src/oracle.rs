//! Result-count oracle for the two-way band join.
//!
//! The engine reports only how many result pairs it produced. This module
//! counts the same pairs independently with `reference_join`'s exact window
//! semantics — each arriving tuple is probed against the last `w` tuples of
//! the opposite stream, then enters its own window — but keeps each window as
//! an ordered multiset, so counting costs O(log w) per tuple instead of O(w).

use std::collections::{BTreeMap, VecDeque};

use pimtree_common::{BandPredicate, Key, Tuple};

/// One stream's sliding window: arrival order for expiry plus a key-ordered
/// multiset (key → occurrences) for range counting.
#[derive(Default)]
struct Window {
    order: VecDeque<Key>,
    keys: BTreeMap<Key, u64>,
}

impl Window {
    fn count_in(&self, lo: Key, hi: Key) -> u64 {
        self.keys.range(lo..=hi).map(|(_, &c)| c).sum()
    }

    fn push(&mut self, key: Key, capacity: usize) {
        self.order.push_back(key);
        *self.keys.entry(key).or_insert(0) += 1;
        if self.order.len() > capacity {
            let old = self.order.pop_front().expect("window is non-empty");
            let count = self.keys.get_mut(&old).expect("expired key is present");
            *count -= 1;
            if *count == 0 {
                self.keys.remove(&old);
            }
        }
    }
}

/// Number of result pairs produced by the probes of `tuples[from..]` in a
/// two-way join with windows of `window_r` / `window_s` tuples. Tuples before
/// `from` still fill the windows; only their own matches are not counted.
pub fn count_results(
    tuples: &[Tuple],
    predicate: BandPredicate,
    window_r: usize,
    window_s: usize,
    from: usize,
) -> u64 {
    let mut windows = [Window::default(), Window::default()];
    let capacity = [window_r, window_s];
    let mut total = 0;
    for (i, t) in tuples.iter().enumerate() {
        let own = t.side.index();
        if i >= from {
            let range = predicate.probe_range(t.key);
            total += windows[1 - own].count_in(range.lo, range.hi);
        }
        windows[own].push(t.key, capacity[own]);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimtree_join::reference_join;
    use pimtree_workload::{KeyDistribution, StreamGenerator, StreamMix};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn stream(n: usize, seed: u64, scale: f64) -> Vec<Tuple> {
        let mut rng = StdRng::seed_from_u64(seed);
        StreamGenerator::new(
            KeyDistribution::Uniform { scale },
            StreamMix::with_s_percent(50.0),
        )
        .generate(&mut rng, n)
    }

    #[test]
    fn matches_reference_join_on_a_prefix() {
        // A small key domain forces duplicate keys and many matches per
        // probe, which is where an off-by-one in expiry would show.
        for (seed, w, diff) in [(1, 64, 3), (2, 257, 0), (3, 1000, 40)] {
            let tuples = stream(6_000, seed, 2_000.0);
            let predicate = BandPredicate::new(diff);
            let expected = reference_join(&tuples, predicate, w, w, false).len() as u64;
            assert_eq!(count_results(&tuples, predicate, w, w, 0), expected);
        }
    }

    #[test]
    fn counts_only_probes_after_the_warmup_prefix() {
        let tuples = stream(4_000, 9, 5_000.0);
        let predicate = BandPredicate::new(5);
        let (w, from) = (300, 1_200);
        let all = reference_join(&tuples, predicate, w, w, false);
        let measured = all
            .iter()
            .filter(|r| {
                // Results are attributed to the probing tuple's arrival.
                let pos = tuples
                    .iter()
                    .position(|t| t.side == r.probe.side && t.seq == r.probe.seq)
                    .expect("probe tuple is in the stream");
                pos >= from
            })
            .count() as u64;
        assert_eq!(count_results(&tuples, predicate, w, w, from), measured);
    }

    #[test]
    fn unequal_windows_expire_per_side() {
        let tuples = stream(3_000, 5, 1_000.0);
        let predicate = BandPredicate::new(2);
        let expected = reference_join(&tuples, predicate, 50, 400, false).len() as u64;
        assert_eq!(count_results(&tuples, predicate, 50, 400, 0), expected);
    }
}
