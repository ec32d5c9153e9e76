//! The Partitioned In-memory Merge-Tree (PIM-Tree, §3.3): the paper's
//! concurrent sliding-window index.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use parking_lot::{Mutex, RwLock};
use pimtree_btree::{BTreeIndex, Entry};
use pimtree_common::{
    CostBreakdown, Key, KeyRange, PimConfig, ProbeConfig, ProbeCounters, Seq, Step,
};
use pimtree_css::CssTree;

use crate::footprint::PimFootprint;
use crate::merge::{build_ts, merge_live, MergeReport};

/// One mutable partition: a sub-B+-Tree guarded by its own lock, plus an
/// insert counter used by the skew experiments (Figure 13a).
#[derive(Debug)]
struct Partition {
    tree: Mutex<BTreeIndex>,
    inserts: AtomicU64,
}

impl Partition {
    fn new(fanout: usize) -> Self {
        Partition {
            tree: Mutex::new(BTreeIndex::with_fanout(fanout)),
            inserts: AtomicU64::new(0),
        }
    }
}

/// One generation of the two-stage structure: an immutable `TS` plus the
/// mutable partitions attached to its inner nodes at the insertion depth.
/// A merge replaces the whole generation.
#[derive(Debug)]
struct Generation {
    ts: CssTree,
    /// Effective insertion depth (the configured `DI`, clamped to the number
    /// of inner levels actually present in `TS`).
    depth: usize,
    partitions: Vec<Partition>,
    ti_len: AtomicUsize,
}

impl Generation {
    fn new(config: &PimConfig, ts: CssTree) -> Self {
        let depth = config.insertion_depth.min(ts.inner_levels());
        let count = if ts.is_empty() {
            1
        } else {
            ts.nodes_at_depth(depth)
        };
        let partitions = (0..count)
            .map(|_| Partition::new(config.btree_fanout))
            .collect();
        Generation {
            ts,
            depth,
            partitions,
            ti_len: AtomicUsize::new(0),
        }
    }

    #[inline]
    fn route(&self, entry: Entry) -> usize {
        if self.ts.is_empty() {
            0
        } else {
            self.ts.descend_to_depth(entry, self.depth)
        }
    }

    /// Sorted snapshot of the mutable component (partitions are disjoint,
    /// ascending key ranges, so concatenation preserves order).
    fn ti_snapshot(&self) -> Vec<Entry> {
        let mut out = Vec::with_capacity(self.ti_len.load(Ordering::Relaxed));
        for p in &self.partitions {
            let tree = p.tree.lock();
            tree.for_each(|e| out.push(e));
        }
        debug_assert!(
            out.windows(2).all(|w| w[0] <= w[1]),
            "TI snapshot must be sorted"
        );
        out
    }
}

/// Probes one generation for `range`: the immutable component without locks,
/// then the overlapping mutable partitions one lock at a time (Algorithm 2).
/// Shared by the scalar probe and the batch-of-one fast path.
fn probe_generation(gen: &Generation, range: KeyRange, f: &mut dyn FnMut(Entry)) {
    gen.ts.range_for_each(range, &mut *f);
    if gen.ti_len.load(Ordering::Relaxed) == 0 {
        return;
    }
    let p_lo = gen.route(Entry::min_for_key(range.lo));
    let p_hi = gen.route(Entry::max_for_key(range.hi));
    for p in p_lo..=p_hi {
        let tree = gen.partitions[p].tree.lock();
        tree.range_for_each(range, &mut *f);
    }
}

/// Sort/dedup bookkeeping and group-descent cursors of
/// [`PimTree::probe_batch`], kept per thread so the hot path reuses its
/// buffers instead of allocating five vectors per task.
#[derive(Default)]
struct ProbeScratch {
    order: Vec<usize>,
    uniq: Vec<KeyRange>,
    starts: Vec<usize>,
    targets: Vec<Entry>,
    positions: Vec<usize>,
    groups: Vec<usize>,
    ends: Vec<usize>,
    partition_ranges: Vec<(usize, usize)>,
    pairs: Vec<(usize, usize)>,
}

thread_local! {
    static PROBE_SCRATCH: std::cell::RefCell<ProbeScratch> =
        std::cell::RefCell::new(ProbeScratch::default());
}

/// A merge that has been prepared (phase 1 of the non-blocking merge) but not
/// yet installed. Produced by [`PimTree::begin_merge`], consumed by
/// [`PimTree::install_merge`].
#[derive(Debug)]
pub struct PreparedMerge {
    generation: Generation,
    report: MergeReport,
    started: Instant,
}

impl PreparedMerge {
    /// Number of entries the new immutable component will hold.
    pub fn new_len(&self) -> usize {
        self.report.new_len
    }
}

/// The Partitioned In-memory Merge-Tree.
///
/// All operations take `&self`; concurrent inserts and range lookups from any
/// number of threads are coordinated by per-partition locks, while the
/// immutable component is traversed without any synchronisation. Merges are
/// either blocking ([`PimTree::merge`]) or split into the two phases of the
/// paper's non-blocking scheme ([`PimTree::begin_merge`] /
/// [`PimTree::install_merge`]); in the latter case the caller must guarantee
/// that no inserts happen between the two calls (the parallel join engine does
/// so by having workers join *without index updates* during phase 1).
#[derive(Debug)]
pub struct PimTree {
    config: PimConfig,
    current: RwLock<Generation>,
    /// Insert counters of retired generations, folded in at merge time so the
    /// drift experiment can observe a cumulative histogram.
    retired_inserts: Mutex<Vec<u64>>,
}

impl PimTree {
    /// Creates an empty PIM-Tree.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: PimConfig) -> Self {
        config.validate().expect("invalid PIM-Tree configuration");
        let generation = Generation::new(&config, build_ts(&config, Vec::new()));
        PimTree {
            config,
            current: RwLock::new(generation),
            retired_inserts: Mutex::new(Vec::new()),
        }
    }

    /// The configuration this tree was created with.
    pub fn config(&self) -> &PimConfig {
        &self.config
    }

    /// Entries currently held by the mutable component.
    pub fn ti_len(&self) -> usize {
        self.current.read().ti_len.load(Ordering::Relaxed)
    }

    /// Entries currently held by the immutable component (live and expired).
    pub fn ts_len(&self) -> usize {
        self.current.read().ts.len()
    }

    /// Total indexed entries (live and expired).
    pub fn len(&self) -> usize {
        let gen = self.current.read();
        gen.ts.len() + gen.ti_len.load(Ordering::Relaxed)
    }

    /// Whether no entries are indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of mutable partitions in the current generation.
    pub fn partition_count(&self) -> usize {
        self.current.read().partitions.len()
    }

    /// Effective insertion depth of the current generation.
    pub fn effective_depth(&self) -> usize {
        self.current.read().depth
    }

    /// Inserts a newly arrived tuple: route through `TS` to the insertion
    /// depth, then insert into the corresponding partition under its lock
    /// (Algorithm 1).
    pub fn insert(&self, key: Key, seq: Seq) {
        let entry = Entry::new(key, seq);
        let gen = self.current.read();
        let p = gen.route(entry);
        gen.partitions[p].inserts.fetch_add(1, Ordering::Relaxed);
        {
            let mut tree = gen.partitions[p].tree.lock();
            tree.insert_entry(entry);
        }
        gen.ti_len.fetch_add(1, Ordering::Relaxed);
    }

    /// Inserts a batch of newly arrived tuples under a single acquisition of
    /// the generation lock.
    ///
    /// The parallel join engine inserts one task's worth of tuples at a time;
    /// batching keeps the per-tuple cost down to the partition routing and the
    /// partition lock instead of adding a generation-lock acquisition and a
    /// shared counter update for every tuple.
    pub fn insert_batch(&self, entries: &[(Key, Seq)]) {
        if entries.is_empty() {
            return;
        }
        let gen = self.current.read();
        for &(key, seq) in entries {
            let entry = Entry::new(key, seq);
            let p = gen.route(entry);
            gen.partitions[p].inserts.fetch_add(1, Ordering::Relaxed);
            let mut tree = gen.partitions[p].tree.lock();
            tree.insert_entry(entry);
        }
        gen.ti_len.fetch_add(entries.len(), Ordering::Relaxed);
    }

    /// Calls `f` for every indexed entry whose key lies in `range`, including
    /// entries of expired tuples (callers filter by sequence number). `TS` is
    /// scanned without locks; only the partitions overlapping the range are
    /// locked, one at a time (Algorithm 2).
    pub fn range_for_each<F: FnMut(Entry)>(&self, range: KeyRange, mut f: F) {
        let gen = self.current.read();
        probe_generation(&gen, range, &mut f);
    }

    /// Batched range probe: calls `f(i, entry)` for every indexed entry whose
    /// key lies in `ranges[i]`, including entries of expired tuples (callers
    /// filter by sequence number). Per range, entries arrive exactly as the
    /// scalar [`PimTree::range_for_each`] would deliver them: the immutable
    /// component's entries in ascending order, then the overlapping mutable
    /// partitions.
    ///
    /// The batch is sorted and deduplicated (identical ranges share one
    /// descent), then the immutable component is descended level-by-level for
    /// the whole group with software prefetching
    /// (`CssTree::lower_bound_batch_groups`), all under a single acquisition
    /// of the generation lock — one lock round-trip per task instead of one
    /// per tuple. The mutable component is batched too: each range's
    /// overlapping partition interval is derived *arithmetically* from the
    /// group descent's leaf group (the routing node at the insertion depth is
    /// an ancestor of it — no second root-to-leaf walk), and the partitions
    /// are then visited partition-major, so a partition overlapped by many
    /// ranges is locked once per batch instead of once per range.
    /// `probe.prefetch_dist` is the per-level prefetch lookahead (0 = no
    /// prefetching). `counters` records batch sizes, dedup hits, nodes
    /// prefetched, SIMD work and the mutable-side lock grouping. A batch of
    /// one degenerates to the scalar descent (there is nothing to group,
    /// dedup or prefetch ahead of), skipping the batch bookkeeping entirely;
    /// the sort/dedup/cursor buffers of larger batches are reused through a
    /// per-thread scratch, so the steady state allocates nothing.
    pub fn probe_batch<F: FnMut(usize, Entry)>(
        &self,
        ranges: &[KeyRange],
        probe: &ProbeConfig,
        counters: &mut ProbeCounters,
        mut f: F,
    ) {
        let n = ranges.len();
        if n == 0 {
            return;
        }
        counters.batches += 1;
        counters.batched_keys += n as u64;
        counters.max_batch = counters.max_batch.max(n as u64);

        let gen = self.current.read();
        if n == 1 {
            probe_generation(&gen, ranges[0], &mut |e| f(0, e));
            return;
        }
        // Taking the scratch out (instead of borrowing it in place) keeps a
        // re-entrant callback from panicking: an inner call simply starts
        // from an empty default and the outer buffers win the put-back.
        let mut s = PROBE_SCRATCH.with(|cell| cell.take());
        // Sort the batch so equal ranges are adjacent (deduplicated below)
        // and the group descent visits nodes left to right.
        s.order.clear();
        s.order.extend(0..n);
        s.order
            .sort_unstable_by_key(|&i| (ranges[i].lo, ranges[i].hi));
        s.uniq.clear();
        s.starts.clear();
        for (pos, &i) in s.order.iter().enumerate() {
            if s.uniq.last() != Some(&ranges[i]) {
                s.uniq.push(ranges[i]);
                s.starts.push(pos);
            }
        }
        s.starts.push(n);
        counters.dedup_hits += (n - s.uniq.len()) as u64;

        // One level-wise group descent resolves every unique range's start
        // position in the immutable component and records the leaf group the
        // descent landed in — the partition-routing node at the insertion
        // depth is an arithmetic ancestor of that group, so the mutable-side
        // routing below never re-descends from the root.
        s.positions.clear();
        s.groups.clear();
        if !gen.ts.is_empty() {
            s.targets.clear();
            s.targets
                .extend(s.uniq.iter().map(|r| Entry::min_for_key(r.lo)));
            gen.ts.lower_bound_batch_groups_counted(
                &s.targets,
                probe.prefetch_dist,
                &mut s.positions,
                &mut s.groups,
                counters,
            );
        }
        let ti_populated = gen.ti_len.load(Ordering::Relaxed) > 0;

        // Immutable component first: per unique range, every `TS` entry is
        // emitted before any `TI` entry, exactly like the scalar probe. The
        // scan's end position doubles as the upper routing bound for the
        // mutable side (it lies in, or one short of, the leaf group holding
        // the first entry past the range).
        s.ends.clear();
        for (j, &range) in s.uniq.iter().enumerate() {
            let group = &s.order[s.starts[j]..s.starts[j + 1]];
            let mut pos = if gen.ts.is_empty() { 0 } else { s.positions[j] };
            if !gen.ts.is_empty() {
                while pos < gen.ts.len() {
                    let e = gen.ts.entry_at(pos);
                    if e.key > range.hi {
                        break;
                    }
                    for &i in group {
                        f(i, e);
                    }
                    pos += 1;
                }
            }
            s.ends.push(pos);
        }

        // Mutable component, batched: each unique range's overlapping
        // partition interval is derived arithmetically, then the partitions
        // are visited in ascending order with every overlapping range
        // answered under a single lock acquisition — one lock round-trip per
        // (batch, partition) instead of one per (range, partition).
        if ti_populated {
            s.partition_ranges.clear();
            let leaf_size = gen.ts.leaf_size().max(1);
            let last_group = gen.ts.leaf_groups().saturating_sub(1);
            for (j, &range) in s.uniq.iter().enumerate() {
                let (p_lo, p_hi) = if gen.ts.is_empty() {
                    (0, 0)
                } else {
                    // `p_lo` is exact (the descent group's ancestor); `p_hi`
                    // derived from the scan end is conservative — it can
                    // overshoot the true routing node by at most one leaf
                    // group's ancestor, never undershoot it.
                    let p_lo = gen.ts.ancestor_at_depth(s.groups[j], gen.depth);
                    let end_group = (s.ends[j] / leaf_size).min(last_group);
                    let p_hi = gen.ts.ancestor_at_depth(end_group, gen.depth).max(p_lo);
                    (p_lo, p_hi)
                };
                debug_assert!(p_hi < gen.partitions.len());
                debug_assert_eq!(p_lo, gen.route(Entry::min_for_key(range.lo)));
                debug_assert!(p_hi >= gen.route(Entry::max_for_key(range.hi)));
                s.partition_ranges.push((p_lo, p_hi));
            }
            s.pairs.clear();
            for (j, &(p_lo, p_hi)) in s.partition_ranges.iter().enumerate() {
                for p in p_lo..=p_hi {
                    s.pairs.push((p, j));
                }
            }
            s.pairs.sort_unstable();
            counters.ti_range_visits += s.pairs.len() as u64;
            let mut k = 0;
            while k < s.pairs.len() {
                let p = s.pairs[k].0;
                let tree = gen.partitions[p].tree.lock();
                counters.ti_partition_locks += 1;
                while k < s.pairs.len() && s.pairs[k].0 == p {
                    let j = s.pairs[k].1;
                    let range = s.uniq[j];
                    let group = &s.order[s.starts[j]..s.starts[j + 1]];
                    tree.range_for_each(range, |e| {
                        for &i in group {
                            f(i, e);
                        }
                    });
                    k += 1;
                }
            }
        }
        PROBE_SCRATCH.with(|cell| cell.replace(s));
    }

    /// Calls `f` for every *live* entry (sequence number at or after
    /// `earliest_live`) whose key lies in `range`.
    pub fn range_live<F: FnMut(Entry)>(&self, range: KeyRange, earliest_live: Seq, mut f: F) {
        self.range_for_each(range, |e| {
            if e.seq >= earliest_live {
                f(e);
            }
        });
    }

    /// Collects every live entry whose key lies in `range`.
    pub fn range_collect_live(&self, range: KeyRange, earliest_live: Seq) -> Vec<Entry> {
        let mut out = Vec::new();
        self.range_live(range, earliest_live, |e| out.push(e));
        out
    }

    /// Instrumented probe separating index traversal ("search") from leaf
    /// scanning ("scan"), used by the Figure 9b experiment.
    pub fn probe_with_breakdown(
        &self,
        range: KeyRange,
        earliest_live: Seq,
        breakdown: &mut CostBreakdown,
    ) -> Vec<Entry> {
        let gen = self.current.read();

        let search_start = Instant::now();
        let ts_pos = gen.ts.lower_bound_key(range.lo);
        let p_lo = gen.route(Entry::min_for_key(range.lo));
        let p_hi = gen.route(Entry::max_for_key(range.hi));
        breakdown.record(Step::Search, search_start.elapsed());

        let scan_start = Instant::now();
        let mut out = Vec::new();
        let mut pos = ts_pos;
        while pos < gen.ts.len() {
            let e = gen.ts.entry_at(pos);
            if e.key > range.hi {
                break;
            }
            if e.seq >= earliest_live {
                out.push(e);
            }
            pos += 1;
        }
        if gen.ti_len.load(Ordering::Relaxed) > 0 {
            for p in p_lo..=p_hi {
                let tree = gen.partitions[p].tree.lock();
                tree.range_for_each(range, |e| {
                    if e.seq >= earliest_live {
                        out.push(e);
                    }
                });
            }
        }
        breakdown.record(Step::Scan, scan_start.elapsed());
        out
    }

    /// Whether the mutable component has reached the merge threshold `m · w`.
    pub fn needs_merge(&self) -> bool {
        self.ti_len() >= self.config.merge_threshold()
    }

    /// Blocking merge: waits for in-flight operations, then rebuilds `TS`
    /// from the live entries of both components and resets the partitions.
    pub fn merge(&self, earliest_live: Seq) -> MergeReport {
        let started = Instant::now();
        let mut guard = self.current.write();
        let ti = guard.ti_snapshot();
        let (merged, kept_from_ts, dropped_expired, from_ti) =
            merge_live(&guard.ts, &ti, earliest_live);
        let new_len = merged.len();
        let new_gen = Generation::new(&self.config, build_ts(&self.config, merged));
        let partitions = new_gen.partitions.len();
        let old = std::mem::replace(&mut *guard, new_gen);
        drop(guard);
        self.fold_retired_counters(&old);
        MergeReport {
            duration: started.elapsed(),
            kept_from_ts,
            dropped_expired,
            from_ti,
            new_len,
            partitions,
        }
    }

    /// Phase 1 of the non-blocking merge (§4.2): build the next generation
    /// from a snapshot of the current one, without modifying it. Lookups may
    /// proceed concurrently; the caller must ensure no inserts happen until
    /// [`PimTree::install_merge`] has returned.
    pub fn begin_merge(&self, earliest_live: Seq) -> PreparedMerge {
        let started = Instant::now();
        let gen = self.current.read();
        let ti = gen.ti_snapshot();
        let (merged, kept_from_ts, dropped_expired, from_ti) =
            merge_live(&gen.ts, &ti, earliest_live);
        let new_len = merged.len();
        drop(gen);
        let generation = Generation::new(&self.config, build_ts(&self.config, merged));
        let partitions = generation.partitions.len();
        PreparedMerge {
            generation,
            report: MergeReport {
                duration: started.elapsed(),
                kept_from_ts,
                dropped_expired,
                from_ti,
                new_len,
                partitions,
            },
            started,
        }
    }

    /// Phase 2 of the non-blocking merge: atomically swap in the prepared
    /// generation. Pending tuples buffered during phase 1 are re-inserted by
    /// the caller afterwards (they become ordinary inserts into the fresh
    /// partitions).
    pub fn install_merge(&self, prepared: PreparedMerge) -> MergeReport {
        let PreparedMerge {
            generation,
            mut report,
            started,
        } = prepared;
        let mut guard = self.current.write();
        let old = std::mem::replace(&mut *guard, generation);
        drop(guard);
        self.fold_retired_counters(&old);
        report.duration = started.elapsed();
        report
    }

    fn fold_retired_counters(&self, old: &Generation) {
        let mut retired = self.retired_inserts.lock();
        if retired.len() < old.partitions.len() {
            retired.resize(old.partitions.len(), 0);
        }
        for (i, p) in old.partitions.iter().enumerate() {
            retired[i] += p.inserts.load(Ordering::Relaxed);
        }
    }

    /// Cumulative per-partition insert counts (current generation plus all
    /// retired ones), used by the drift experiment of Figure 13a.
    pub fn insert_histogram(&self) -> Vec<u64> {
        let gen = self.current.read();
        let retired = self.retired_inserts.lock();
        let len = retired.len().max(gen.partitions.len());
        let mut hist = vec![0u64; len];
        for (i, &c) in retired.iter().enumerate() {
            hist[i] += c;
        }
        for (i, p) in gen.partitions.iter().enumerate() {
            hist[i] += p.inserts.load(Ordering::Relaxed);
        }
        hist
    }

    /// Clears the cumulative insert histogram (current generation counters
    /// included).
    pub fn reset_insert_histogram(&self) {
        self.retired_inserts.lock().clear();
        let gen = self.current.read();
        for p in &gen.partitions {
            p.inserts.store(0, Ordering::Relaxed);
        }
    }

    /// Memory footprint broken down by component (Figure 11a). The merge
    /// buffer is sized for the worst case: the sorted array built while the
    /// next `TS` is being constructed.
    pub fn footprint(&self) -> PimFootprint {
        let gen = self.current.read();
        let ts = gen.ts.stats();
        let mut ti_bytes = 0usize;
        let mut ti_entries = 0usize;
        for p in &gen.partitions {
            let tree = p.tree.lock();
            let s = tree.stats();
            ti_bytes += s.total_bytes();
            ti_entries += s.entries;
        }
        let entry = std::mem::size_of::<Entry>();
        PimFootprint {
            ts_leaf_bytes: ts.leaf_bytes,
            ts_inner_bytes: ts.inner_bytes,
            ti_bytes,
            merge_buffer_bytes: (ts.entries + ti_entries) * entry,
            entries: gen.ts.len() + ti_entries,
            partitions: gen.partitions.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn config(w: usize, m: f64, di: usize) -> PimConfig {
        let mut c = PimConfig::for_window(w)
            .with_merge_ratio(m)
            .with_insertion_depth(di);
        c.css_fanout = 8;
        c.css_leaf_size = 8;
        c.btree_fanout = 8;
        c
    }

    #[test]
    fn empty_tree_has_one_partition() {
        let t = PimTree::new(config(64, 1.0, 3));
        assert!(t.is_empty());
        assert_eq!(t.partition_count(), 1);
        assert_eq!(t.effective_depth(), 0);
        assert!(t.range_collect_live(KeyRange::new(0, 100), 0).is_empty());
    }

    #[test]
    fn inserts_accumulate_in_ti_and_merge_builds_partitions() {
        let t = PimTree::new(config(256, 1.0, 2));
        for i in 0..256i64 {
            t.insert(i * 10, i as Seq);
        }
        assert_eq!(t.ti_len(), 256);
        assert_eq!(t.ts_len(), 0);
        assert!(t.needs_merge());
        let report = t.merge(0);
        assert_eq!(report.from_ti, 256);
        assert_eq!(report.new_len, 256);
        assert_eq!(t.ti_len(), 0);
        assert_eq!(t.ts_len(), 256);
        assert!(
            t.partition_count() > 1,
            "a populated TS yields multiple partitions"
        );
        assert_eq!(report.partitions, t.partition_count());
    }

    #[test]
    fn lookups_see_both_components() {
        let t = PimTree::new(config(128, 1.0, 2));
        for i in 0..128i64 {
            t.insert(i, i as Seq);
        }
        t.merge(0);
        for i in 128..160i64 {
            t.insert(i, i as Seq);
        }
        let got = t.range_collect_live(KeyRange::new(100, 140), 0);
        assert_eq!(got.len(), 41);
        // Filtering by expiry removes old ones.
        let live = t.range_collect_live(KeyRange::new(100, 140), 120);
        assert!(live.iter().all(|e| e.seq >= 120));
        assert_eq!(live.len(), 41 - 20);
    }

    #[test]
    fn routing_spans_partitions_for_wide_ranges() {
        let t = PimTree::new(config(1024, 1.0, 3));
        for i in 0..1024i64 {
            t.insert(i, i as Seq);
        }
        t.merge(0);
        // New inserts are routed across many partitions.
        for i in 0..1024i64 {
            t.insert(i, (1024 + i) as Seq);
        }
        assert!(t.partition_count() >= 8);
        let all = t.range_collect_live(KeyRange::new(i64::MIN, i64::MAX), 0);
        assert_eq!(all.len(), 2048);
        // A narrow range returns exactly the matching entries from both
        // components.
        let narrow = t.range_collect_live(KeyRange::new(500, 509), 0);
        assert_eq!(narrow.len(), 20, "10 keys × 2 copies (TS + TI)");
    }

    #[test]
    fn merge_drops_expired_and_keeps_live() {
        let w = 128usize;
        let t = PimTree::new(config(w, 0.5, 2));
        let key_of = |i: i64| (i * 37) % 500;
        let n = 1024i64;
        for i in 0..n {
            t.insert(key_of(i), i as Seq);
            if t.needs_merge() {
                let earliest = (i as Seq + 1).saturating_sub(w as Seq);
                t.merge(earliest);
            }
        }
        let earliest = n as Seq - w as Seq;
        let live = t.range_collect_live(KeyRange::new(i64::MIN, i64::MAX), earliest);
        assert_eq!(live.len(), w);
        let mut seqs: Vec<Seq> = live.iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (earliest..n as Seq).collect::<Vec<_>>());
        for e in &live {
            assert_eq!(e.key, key_of(e.seq as i64));
        }
    }

    #[test]
    fn nonblocking_merge_phases_preserve_content() {
        let t = PimTree::new(config(256, 1.0, 2));
        for i in 0..256i64 {
            t.insert(i, i as Seq);
        }
        let before = t.range_collect_live(KeyRange::new(i64::MIN, i64::MAX), 0);
        // Phase 1: prepare. Lookups still work against the old generation.
        let prepared = t.begin_merge(0);
        assert_eq!(prepared.new_len(), 256);
        let during = t.range_collect_live(KeyRange::new(i64::MIN, i64::MAX), 0);
        assert_eq!(during.len(), before.len());
        assert_eq!(t.ts_len(), 0, "old generation still installed");
        // Phase 2: install.
        let report = t.install_merge(prepared);
        assert_eq!(report.new_len, 256);
        assert_eq!(t.ts_len(), 256);
        assert_eq!(t.ti_len(), 0);
        let after = t.range_collect_live(KeyRange::new(i64::MIN, i64::MAX), 0);
        let mut b = before;
        let mut a = after;
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn pending_inserts_after_install_are_visible() {
        let t = PimTree::new(config(64, 1.0, 2));
        for i in 0..64i64 {
            t.insert(i, i as Seq);
        }
        let prepared = t.begin_merge(0);
        // These two tuples arrive during phase 1; the engine buffers them and
        // re-applies them after installation.
        t.install_merge(prepared);
        t.insert(1000, 64);
        t.insert(1001, 65);
        let got = t.range_collect_live(KeyRange::new(1000, 1001), 0);
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn insert_histogram_tracks_partition_skew() {
        let t = PimTree::new(config(512, 1.0, 3));
        for i in 0..512i64 {
            t.insert(i, i as Seq);
        }
        t.merge(0);
        t.reset_insert_histogram();
        // Insert only small keys: the histogram must be heavily skewed toward
        // the first partitions.
        for i in 0..200i64 {
            t.insert(i % 10, (512 + i) as Seq);
        }
        let hist = t.insert_histogram();
        assert_eq!(hist.iter().sum::<u64>(), 200);
        assert!(hist[0] > 0);
        assert_eq!(
            *hist.last().unwrap(),
            0,
            "no inserts routed to the last partition"
        );
        // Histogram survives a merge (folded into the cumulative counters).
        t.merge(0);
        let hist_after = t.insert_histogram();
        assert_eq!(hist_after.iter().sum::<u64>(), 200);
    }

    #[test]
    fn concurrent_inserts_and_lookups() {
        let t = Arc::new(PimTree::new(config(1 << 14, 1.0, 3)));
        // Pre-populate and merge so that several partitions exist.
        for i in 0..(1 << 14) as i64 {
            t.insert(i * 64, i as Seq);
        }
        t.merge(0);
        let threads = 8;
        let per_thread = 4000i64;
        let mut handles = Vec::new();
        for tid in 0..threads {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for i in 0..per_thread {
                    let key = ((tid * per_thread + i) * 97) % (64 << 14);
                    t.insert(key, (1 << 14) + (tid * per_thread + i) as Seq);
                    if i % 13 == 0 {
                        let _ = t.range_collect_live(KeyRange::new(key - 100, key + 100), 0);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.ti_len(), (threads * per_thread) as usize);
        let all = t.range_collect_live(KeyRange::new(i64::MIN, i64::MAX), 0);
        assert_eq!(all.len(), (1 << 14) + (threads * per_thread) as usize);
    }

    #[test]
    fn batched_probe_matches_scalar_on_both_components() {
        let t = PimTree::new(config(512, 1.0, 2));
        // TS from the merge, TI from post-merge inserts, duplicates in both.
        for i in 0..512i64 {
            t.insert((i * 3) % 700, i as Seq);
        }
        t.merge(0);
        for i in 512..700i64 {
            t.insert((i * 3) % 700, i as Seq);
        }
        let ranges = [
            KeyRange::new(100, 160),
            KeyRange::new(100, 160),   // duplicate of the first
            KeyRange::new(-50, -1),    // below the domain
            KeyRange::new(5000, 6000), // above the domain
            KeyRange::new(0, 2000),    // everything
            KeyRange::point(300),
        ];
        let mut counters = ProbeCounters::default();
        let mut batched: Vec<Vec<Entry>> = vec![Vec::new(); ranges.len()];
        for dist in [0usize, 1, 4, 64] {
            for v in batched.iter_mut() {
                v.clear();
            }
            let probe = ProbeConfig::default().with_prefetch_dist(dist);
            t.probe_batch(&ranges, &probe, &mut counters, |i, e| batched[i].push(e));
            for (range, got) in ranges.iter().zip(&batched) {
                let mut scalar = Vec::new();
                t.range_for_each(*range, |e| scalar.push(e));
                assert_eq!(got, &scalar, "range {range:?}, prefetch_dist {dist}");
            }
        }
        assert_eq!(counters.batches, 4);
        assert_eq!(counters.batched_keys, 4 * ranges.len() as u64);
        assert_eq!(counters.max_batch, ranges.len() as u64);
        assert_eq!(counters.dedup_hits, 4, "one duplicate range per call");
        assert!(
            counters.nodes_prefetched > 0,
            "distances > 0 must prefetch nodes of the populated TS"
        );
        assert!(
            counters.simd_node_searches + counters.scalar_node_searches > 0,
            "the group descent records its intra-node searches"
        );
    }

    #[test]
    fn batched_ti_probe_locks_each_partition_once_per_batch() {
        // A populated TS (many partitions) plus a populated TI, probed with
        // several wide, overlapping ranges: the partition-major TI path must
        // lock every partition at most once per batch while producing the
        // exact scalar result per range.
        let t = PimTree::new(config(2048, 1.0, 3));
        for i in 0..2048i64 {
            t.insert(i, i as Seq);
        }
        t.merge(0);
        assert!(t.partition_count() > 4);
        for i in 2048..2560i64 {
            t.insert(i - 2048, i as Seq);
        }
        let ranges = [
            KeyRange::new(0, 600),
            KeyRange::new(100, 700), // overlaps the first range's partitions
            KeyRange::new(100, 700), // duplicate: shares the first's descent
            KeyRange::new(1500, 2047), // disjoint partition interval
            KeyRange::new(-50, -1),  // below the domain
            KeyRange::point(650),
        ];
        let mut counters = ProbeCounters::default();
        let mut batched: Vec<Vec<Entry>> = vec![Vec::new(); ranges.len()];
        t.probe_batch(&ranges, &ProbeConfig::default(), &mut counters, |i, e| {
            batched[i].push(e)
        });
        for (range, got) in ranges.iter().zip(&batched) {
            let mut scalar = Vec::new();
            t.range_for_each(*range, |e| scalar.push(e));
            assert_eq!(got, &scalar, "range {range:?}");
        }
        assert!(counters.ti_range_visits > 0);
        assert!(
            counters.ti_partition_locks <= t.partition_count() as u64,
            "each partition is locked at most once per batch: {} locks, {} partitions",
            counters.ti_partition_locks,
            t.partition_count()
        );
        assert!(
            counters.ti_partition_locks < counters.ti_range_visits,
            "overlapping ranges must share partition locks ({} locks / {} visits)",
            counters.ti_partition_locks,
            counters.ti_range_visits
        );
    }

    #[test]
    fn batched_probe_on_empty_tree_and_empty_batch() {
        let t = PimTree::new(config(64, 1.0, 2));
        let mut counters = ProbeCounters::default();
        t.probe_batch(&[], &ProbeConfig::default(), &mut counters, |_, _| {
            panic!("empty batch must not call back")
        });
        assert_eq!(counters.batches, 0, "empty batches are not counted");
        t.probe_batch(
            &[KeyRange::new(0, 100)],
            &ProbeConfig::default(),
            &mut counters,
            |_, _| panic!("empty tree must not call back"),
        );
        assert_eq!(counters.batches, 1);
        assert_eq!(counters.nodes_prefetched, 0);
    }

    #[test]
    fn batched_probe_before_first_merge_sees_only_ti() {
        // Everything still lives in the mutable component (TS is empty).
        let t = PimTree::new(config(256, 1.0, 2));
        for i in 0..100i64 {
            t.insert(i, i as Seq);
        }
        let ranges = [KeyRange::new(10, 20), KeyRange::new(95, 200)];
        let mut counters = ProbeCounters::default();
        let mut got: Vec<Vec<Entry>> = vec![Vec::new(); ranges.len()];
        t.probe_batch(&ranges, &ProbeConfig::default(), &mut counters, |i, e| {
            got[i].push(e)
        });
        assert_eq!(got[0].len(), 11);
        assert_eq!(got[1].len(), 5);
        for (range, entries) in ranges.iter().zip(&got) {
            let mut scalar = Vec::new();
            t.range_for_each(*range, |e| scalar.push(e));
            assert_eq!(entries, &scalar);
        }
        assert!(counters.ti_partition_locks > 0);
        // A batch of one takes the plain probe: nothing to group, so no
        // partition-lock batching is recorded.
        let mut counters = ProbeCounters::default();
        let mut single = Vec::new();
        t.probe_batch(
            &[KeyRange::new(10, 20)],
            &ProbeConfig::default(),
            &mut counters,
            |i, e| {
                assert_eq!(i, 0);
                single.push(e);
            },
        );
        assert_eq!(single.len(), 11);
        assert_eq!(counters.batches, 1);
        assert_eq!(counters.ti_partition_locks, 0, "batch of one is unbatched");
    }

    #[test]
    fn probe_with_breakdown_matches_plain_probe() {
        let t = PimTree::new(config(256, 1.0, 2));
        for i in 0..256i64 {
            t.insert(i * 3, i as Seq);
        }
        t.merge(0);
        for i in 256..300i64 {
            t.insert(i * 3, i as Seq);
        }
        let range = KeyRange::new(100, 800);
        let mut breakdown = CostBreakdown::new();
        let mut a = t.probe_with_breakdown(range, 10, &mut breakdown);
        let mut b = t.range_collect_live(range, 10);
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert!(breakdown.count(Step::Search) == 1 && breakdown.count(Step::Scan) == 1);
    }

    #[test]
    fn footprint_reports_all_components() {
        let t = PimTree::new(config(4096, 1.0, 3));
        for i in 0..4096i64 {
            t.insert(i, i as Seq);
        }
        t.merge(0);
        for i in 0..512i64 {
            t.insert(i, (4096 + i) as Seq);
        }
        let f = t.footprint();
        assert!(f.ts_leaf_bytes > 0);
        assert!(f.ts_inner_bytes > 0);
        assert!(f.ti_bytes > 0);
        assert_eq!(f.entries, 4096 + 512);
        assert_eq!(f.partitions, t.partition_count());
        assert!(f.total_bytes() > f.ts_bytes());
    }

    #[test]
    fn higher_insertion_depth_yields_more_partitions() {
        let make = |di: usize| {
            let t = PimTree::new(config(4096, 1.0, di));
            for i in 0..4096i64 {
                t.insert(i, i as Seq);
            }
            t.merge(0);
            t.partition_count()
        };
        let p1 = make(1);
        let p2 = make(2);
        let p3 = make(3);
        assert!(p1 < p2 && p2 <= p3, "partitions: {p1}, {p2}, {p3}");
    }

    #[test]
    #[should_panic(expected = "invalid PIM-Tree configuration")]
    fn invalid_config_rejected() {
        let _ = PimTree::new(PimConfig::for_window(16).with_merge_ratio(0.0));
    }
}
