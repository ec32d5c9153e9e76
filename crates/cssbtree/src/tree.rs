//! The immutable CSS-Tree structure and its search operations.

use pimtree_btree::Entry;
use pimtree_common::{prefetch_slice, simd, Key, KeyRange, ProbeCounters};

/// Lower bound of `target` inside one sorted entry block: a SIMD
/// compare-mask count over the keys (see `pimtree_common::simd`), then a
/// scalar walk over the (usually empty) equal-key run to honor the `seq`
/// tie-break. Returns exactly `block.partition_point(|&e| e < target)`.
#[inline]
fn node_lower_bound(block: &[Entry], target: Entry) -> usize {
    // SAFETY: `Entry` is `#[repr(C)] { key: i64, seq: u64 }` — 16 bytes with
    // 8-byte alignment, layout-identical to `[i64; 2]`; the second lane is
    // never interpreted as a value by the kernel.
    let pairs: &[[i64; 2]] =
        unsafe { core::slice::from_raw_parts(block.as_ptr().cast(), block.len()) };
    let mut i = simd::count_keys_below(pairs, target.key);
    while i < block.len() && block[i].key == target.key && block[i].seq < target.seq {
        i += 1;
    }
    i
}

/// Attributes `searches` intra-node lower bounds to the kernel that answered
/// them (the dispatch level is fixed process-wide).
#[inline]
fn count_node_searches(counters: &mut ProbeCounters, searches: u64) {
    if simd::simd_active() {
        counters.simd_node_searches += searches;
    } else {
        counters.scalar_node_searches += searches;
    }
}

/// One in-flight root-to-leaf descent of the interleaved probe engine:
/// which node of which level it sits at, what it searches for, and which
/// output slot (target index) it resolves.
#[derive(Debug, Clone, Copy)]
struct DescentState {
    node: usize,
    level: usize,
    target: Entry,
    slot: usize,
}

/// Sentinel `slot` marking a retired ring entry with no descent left to
/// refill it.
const RETIRED: usize = usize::MAX;

/// Structural statistics of a [`CssTree`], used for the memory-footprint
/// comparison of Figure 11a.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CssStats {
    /// Number of entries stored in the leaf array.
    pub entries: usize,
    /// Number of inner key slots (including right-edge padding).
    pub inner_slots: usize,
    /// Number of inner levels (0 when the tree fits in a single leaf level).
    pub inner_levels: usize,
    /// Payload bytes of the leaf array.
    pub leaf_bytes: usize,
    /// Payload bytes of the inner key array.
    pub inner_bytes: usize,
}

impl CssStats {
    /// Total payload bytes.
    pub fn total_bytes(&self) -> usize {
        self.leaf_bytes + self.inner_bytes
    }
}

/// An immutable B+-Tree over a sorted array of [`Entry`] values.
///
/// Construction goes through [`crate::CssBuilder`] (or the convenience
/// constructors below); after that the tree is strictly read-only.
#[derive(Debug, Clone)]
pub struct CssTree {
    /// All entries, sorted by `(key, seq)`, conceptually grouped into leaf
    /// nodes of `leaf_size` entries.
    pub(crate) leaves: Vec<Entry>,
    /// Breadth-first inner key array: level 0 (root) first, `fanout` key slots
    /// per node. Slot `k` of a node holds the maximum entry of its `k`-th
    /// child's subtree; slots past the last real child are padded with
    /// `Entry::max_for_key(Key::MAX)` so that slots stay monotonically
    /// non-decreasing.
    pub(crate) inner: Vec<Entry>,
    /// Node-index offset of each inner level inside `inner` (in nodes).
    pub(crate) level_offsets: Vec<usize>,
    /// Number of nodes per inner level, root level first.
    pub(crate) level_sizes: Vec<usize>,
    /// Maximum real entry of each node's subtree, per inner level.
    pub(crate) level_maxes: Vec<Vec<Entry>>,
    /// Keys (= children) per inner node.
    pub(crate) fanout: usize,
    /// Entries per leaf group.
    pub(crate) leaf_size: usize,
}

impl CssTree {
    /// Builds a tree from entries already sorted by `(key, seq)`, using the
    /// default fan-out and leaf size.
    pub fn from_sorted(entries: Vec<Entry>) -> Self {
        crate::CssBuilder::new().build(entries)
    }

    /// Builds an empty tree.
    pub fn empty() -> Self {
        Self::from_sorted(Vec::new())
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.leaves.len()
    }

    /// Whether the tree holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

    /// Inner-node fan-out.
    #[inline]
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// Entries per leaf group.
    #[inline]
    pub fn leaf_size(&self) -> usize {
        self.leaf_size
    }

    /// Number of inner levels (0 if the tree is a single leaf level).
    #[inline]
    pub fn inner_levels(&self) -> usize {
        self.level_sizes.len()
    }

    /// Number of leaf groups.
    #[inline]
    pub fn leaf_groups(&self) -> usize {
        if self.leaves.is_empty() {
            0
        } else {
            self.leaves.len().div_ceil(self.leaf_size)
        }
    }

    /// Number of inner nodes at `depth` (root = depth 0). Depths past the
    /// deepest inner level report the number of leaf groups; an empty tree
    /// reports 1 so that callers can always size a partition array.
    pub fn nodes_at_depth(&self, depth: usize) -> usize {
        if depth < self.level_sizes.len() {
            self.level_sizes[depth]
        } else {
            self.leaf_groups().max(1)
        }
    }

    /// Entry at leaf position `pos`.
    #[inline]
    pub fn entry_at(&self, pos: usize) -> Entry {
        self.leaves[pos]
    }

    /// The sorted leaf array.
    #[inline]
    pub fn entries(&self) -> &[Entry] {
        &self.leaves
    }

    /// Largest entry, if any.
    pub fn max_entry(&self) -> Option<Entry> {
        self.leaves.last().copied()
    }

    /// Smallest entry, if any.
    pub fn min_entry(&self) -> Option<Entry> {
        self.leaves.first().copied()
    }

    fn keys_of(&self, level: usize, node: usize) -> &[Entry] {
        let base = (self.level_offsets[level] + node) * self.fanout;
        &self.inner[base..base + self.fanout]
    }

    /// Number of real children of `node` at inner `level`.
    fn real_children(&self, level: usize, node: usize) -> usize {
        let below = if level + 1 < self.level_sizes.len() {
            self.level_sizes[level + 1]
        } else {
            self.leaf_groups()
        };
        let base = node * self.fanout;
        self.fanout.min(below.saturating_sub(base)).max(1)
    }

    /// Descends the inner levels for `target`, returning the node index at
    /// `stop_depth` (root = depth 0). Descending all `inner_levels()` levels
    /// returns a leaf-group index.
    pub fn descend_to_depth(&self, target: Entry, stop_depth: usize) -> usize {
        let depth = stop_depth.min(self.level_sizes.len());
        let mut node = 0usize;
        for level in 0..depth {
            let keys = self.keys_of(level, node);
            let mut k = node_lower_bound(keys, target);
            let real = self.real_children(level, node);
            if k >= real {
                k = real - 1;
            }
            node = node * self.fanout + k;
        }
        node
    }

    /// Position of the first entry `>= target` in the leaf array (equals
    /// `len()` when every entry is smaller).
    pub fn lower_bound(&self, target: Entry) -> usize {
        if self.leaves.is_empty() {
            return 0;
        }
        if self.level_sizes.is_empty() {
            return node_lower_bound(&self.leaves, target);
        }
        let group = self.descend_to_depth(target, self.level_sizes.len());
        let start = group * self.leaf_size;
        let end = (start + self.leaf_size).min(self.leaves.len());
        start + node_lower_bound(&self.leaves[start..end], target)
    }

    /// Position of the first entry with key `>= key`.
    #[inline]
    pub fn lower_bound_key(&self, key: Key) -> usize {
        self.lower_bound(Entry::min_for_key(key))
    }

    /// The entries of leaf group `group` (the last group may be short).
    #[inline]
    fn leaf_group_slice(&self, group: usize) -> &[Entry] {
        let start = group * self.leaf_size;
        let end = (start + self.leaf_size).min(self.leaves.len());
        &self.leaves[start..end]
    }

    /// Batched [`CssTree::lower_bound`]: resolves the leaf position of every
    /// target in one level-wise group descent, issuing software prefetches
    /// for the node key blocks the group is about to visit.
    ///
    /// Instead of walking root → leaf once per key (each level a dependent
    /// cache miss), the whole group advances one level at a time: while the
    /// descent resolves key `i` at a level, the key block that key `i +
    /// prefetch_dist` will binary-search at the same level is already being
    /// prefetched, and the first `prefetch_dist` children computed in a pass
    /// are prefetched immediately so the next level starts with its lookahead
    /// window in flight. This is the group-probe pattern the cache-sensitive
    /// breadth-first layout was designed for: node addresses are computed
    /// arithmetically, so the next level's blocks are known before any of
    /// them is touched. A `prefetch_dist` of 0 keeps the batch descent but
    /// issues no prefetches; sorting `targets` improves locality but is not
    /// required for correctness.
    ///
    /// `positions` is cleared and filled with one leaf position per target
    /// (same order, same values as scalar [`CssTree::lower_bound`]); the
    /// return value is the number of node blocks prefetched.
    pub fn lower_bound_batch(
        &self,
        targets: &[Entry],
        prefetch_dist: usize,
        positions: &mut Vec<usize>,
    ) -> u64 {
        let mut scratch = ProbeCounters::default();
        self.lower_bound_batch_inner(targets, prefetch_dist, positions, None, &mut scratch)
    }

    /// [`CssTree::lower_bound_batch`] that additionally records, per target,
    /// the leaf-group index the group descent landed in (always 0 when the
    /// tree has no inner levels). The group is captured *before* the final
    /// in-leaf search, so it is exactly the value
    /// [`CssTree::descend_to_depth`] would return for the full descent —
    /// callers can derive the routing node at any shallower depth
    /// arithmetically with [`CssTree::ancestor_at_depth`] instead of
    /// re-descending from the root.
    pub fn lower_bound_batch_groups(
        &self,
        targets: &[Entry],
        prefetch_dist: usize,
        positions: &mut Vec<usize>,
        groups: &mut Vec<usize>,
    ) -> u64 {
        let mut scratch = ProbeCounters::default();
        self.lower_bound_batch_inner(
            targets,
            prefetch_dist,
            positions,
            Some(groups),
            &mut scratch,
        )
    }

    /// [`CssTree::lower_bound_batch_groups`] that records its work —
    /// prefetched node blocks and SIMD/scalar intra-node searches — straight
    /// into `counters` instead of returning a bare prefetch count.
    pub fn lower_bound_batch_groups_counted(
        &self,
        targets: &[Entry],
        prefetch_dist: usize,
        positions: &mut Vec<usize>,
        groups: &mut Vec<usize>,
        counters: &mut ProbeCounters,
    ) {
        let prefetched =
            self.lower_bound_batch_inner(targets, prefetch_dist, positions, Some(groups), counters);
        counters.nodes_prefetched += prefetched;
    }

    /// Interleaved (AMAC-style) [`CssTree::lower_bound_batch_groups`]: the
    /// same outputs — one leaf position per target in `positions`, the
    /// descent's leaf group in `groups` — resolved by a fixed ring of
    /// `interleave` in-flight descents advanced round-robin.
    ///
    /// Where the level-wise group descent hides latency *across* a batch by
    /// prefetching `prefetch_dist` keys ahead within each level, the
    /// interleaved engine hides it *within* the ring: each step performs one
    /// node's lower-bound compare for one descent, issues the prefetch for
    /// the block that same descent will visit next, and immediately switches
    /// to the next ring slot. By the time the ring wraps around, the
    /// prefetched block has had `interleave - 1` other node searches' worth
    /// of time to arrive, so no descent blocks the pipeline on its own cache
    /// miss. Finished descents are refilled from the remaining targets until
    /// the batch is drained.
    ///
    /// The join engines do not call this: it is kept as a layer primitive
    /// for the per-layer descent benchmark, which measures it against the
    /// level-wise group descent. AMAC only pays off once the tree spills the
    /// last-level cache.
    ///
    /// `interleave` values below 2 are clamped to 2 (a single-slot ring
    /// cannot overlap anything); callers disable interleaving by calling the
    /// batch or scalar paths instead. Work is recorded into `counters`
    /// (descents, steps, the per-descent step histogram, prefetched blocks
    /// and SIMD/scalar searches).
    pub fn lower_bound_interleaved(
        &self,
        targets: &[Entry],
        interleave: usize,
        positions: &mut Vec<usize>,
        mut groups: Option<&mut Vec<usize>>,
        counters: &mut ProbeCounters,
    ) {
        positions.clear();
        if let Some(groups) = groups.as_deref_mut() {
            groups.clear();
        }
        let n = targets.len();
        if n == 0 {
            return;
        }
        counters.interleaved_batches += 1;
        counters.interleaved_descents += n as u64;
        if self.leaves.is_empty() || self.level_sizes.is_empty() {
            // Same degenerate handling as the batch descent: nothing to
            // interleave — an empty tree answers 0 everywhere, a single leaf
            // level is one direct search per target.
            if self.leaves.is_empty() {
                positions.resize(n, 0);
            } else {
                positions.extend(targets.iter().map(|&t| node_lower_bound(&self.leaves, t)));
                counters.interleave_steps += n as u64;
                counters.record_descent_steps(1, n as u64);
                count_node_searches(counters, n as u64);
            }
            if let Some(groups) = groups.as_deref_mut() {
                groups.resize(n, 0);
            }
            return;
        }
        positions.resize(n, 0);
        if let Some(groups) = groups.as_deref_mut() {
            groups.resize(n, 0);
        }
        let levels = self.level_sizes.len();
        let width = interleave.max(2).min(n);
        let mut ring: Vec<DescentState> = (0..width)
            .map(|slot| DescentState {
                node: 0,
                level: 0,
                target: targets[slot],
                slot,
            })
            .collect();
        let mut next = width; // next target to feed into a freed slot
        let mut live = width;
        let mut searches = 0u64;
        let mut r = 0usize;
        while live > 0 {
            let state = &mut ring[r];
            if state.slot != RETIRED {
                if state.level < levels {
                    // One inner-node step: search, compute the child, then
                    // prefetch the block this descent touches next and yield
                    // the pipeline to the other ring slots.
                    let keys = self.keys_of(state.level, state.node);
                    let mut k = node_lower_bound(keys, state.target);
                    searches += 1;
                    let real = self.real_children(state.level, state.node);
                    if k >= real {
                        k = real - 1;
                    }
                    let child = state.node * self.fanout + k;
                    state.node = child;
                    state.level += 1;
                    if state.level < levels {
                        prefetch_slice(self.keys_of(state.level, child));
                    } else {
                        prefetch_slice(self.leaf_group_slice(child));
                    }
                    counters.nodes_prefetched += 1;
                    counters.interleave_steps += 1;
                } else {
                    // Final leaf step: the cursor holds the leaf group.
                    let group = state.node;
                    if let Some(groups) = groups.as_deref_mut() {
                        groups[state.slot] = group;
                    }
                    let start = group * self.leaf_size;
                    positions[state.slot] =
                        start + node_lower_bound(self.leaf_group_slice(group), state.target);
                    searches += 1;
                    counters.interleave_steps += 1;
                    if next < n {
                        *state = DescentState {
                            node: 0,
                            level: 0,
                            target: targets[next],
                            slot: next,
                        };
                        next += 1;
                    } else {
                        state.slot = RETIRED;
                        live -= 1;
                    }
                }
            }
            r += 1;
            if r == width {
                r = 0;
            }
        }
        // Every descent in a balanced CSS-Tree takes `levels` inner visits
        // plus the leaf search.
        counters.record_descent_steps(levels + 1, n as u64);
        count_node_searches(counters, searches);
    }

    /// The ancestor node index at `depth` of a leaf group's descent path
    /// (root = depth 0). Because a descent step computes
    /// `child = node * fanout + k`, the node visited at `depth` is the
    /// repeated integer quotient of the leaf group by the fan-out — no
    /// re-descent needed. A tree without inner levels has a single root
    /// "node" (index 0); depths at or past the deepest inner level return the
    /// leaf group itself.
    pub fn ancestor_at_depth(&self, leaf_group: usize, depth: usize) -> usize {
        let levels = self.level_sizes.len();
        if levels == 0 {
            return 0;
        }
        let mut node = leaf_group;
        for _ in depth.min(levels)..levels {
            node /= self.fanout;
        }
        node
    }

    fn lower_bound_batch_inner(
        &self,
        targets: &[Entry],
        prefetch_dist: usize,
        positions: &mut Vec<usize>,
        groups: Option<&mut Vec<usize>>,
        counters: &mut ProbeCounters,
    ) -> u64 {
        positions.clear();
        let n = targets.len();
        if n == 0 {
            if let Some(groups) = groups {
                groups.clear();
            }
            return 0;
        }
        if self.leaves.is_empty() || self.level_sizes.is_empty() {
            // Empty tree, or a single leaf level: no inner nodes to descend
            // or prefetch, and no descent path — every "group" is the root.
            if self.leaves.is_empty() {
                positions.resize(n, 0);
            } else {
                positions.extend(targets.iter().map(|&t| node_lower_bound(&self.leaves, t)));
                count_node_searches(counters, n as u64);
            }
            if let Some(groups) = groups {
                groups.clear();
                groups.resize(n, 0);
            }
            return 0;
        }
        // `positions` doubles as the per-target node cursor while descending.
        positions.resize(n, 0);
        let d = prefetch_dist;
        let levels = self.level_sizes.len();
        let mut prefetched = 0u64;
        let mut searches = 0u64;
        for level in 0..levels {
            for i in 0..n {
                // Rolling lookahead within the level (skipped at the root,
                // where every key reads the same block).
                if level > 0 && d > 0 && i + d < n {
                    prefetch_slice(self.keys_of(level, positions[i + d]));
                    prefetched += 1;
                }
                let keys = self.keys_of(level, positions[i]);
                let mut k = node_lower_bound(keys, targets[i]);
                searches += 1;
                let real = self.real_children(level, positions[i]);
                if k >= real {
                    k = real - 1;
                }
                let child = positions[i] * self.fanout + k;
                positions[i] = child;
                // Seed the next level's lookahead window with the first `d`
                // children computed in this pass.
                if d > 0 && i < d {
                    if level + 1 < levels {
                        prefetch_slice(self.keys_of(level + 1, child));
                    } else {
                        prefetch_slice(self.leaf_group_slice(child));
                    }
                    prefetched += 1;
                }
            }
        }
        // The cursors now hold leaf-group indexes: snapshot them for callers
        // that derive partition-routing ancestors arithmetically.
        if let Some(groups) = groups {
            groups.clear();
            groups.extend_from_slice(positions);
        }
        // Leaf pass.
        for i in 0..n {
            if d > 0 && i + d < n {
                prefetch_slice(self.leaf_group_slice(positions[i + d]));
                prefetched += 1;
            }
            let group = self.leaf_group_slice(positions[i]);
            let start = positions[i] * self.leaf_size;
            positions[i] = start + node_lower_bound(group, targets[i]);
            searches += 1;
        }
        count_node_searches(counters, searches);
        prefetched
    }

    /// Batched range probe: calls `f(i, entry)` for every entry whose key
    /// lies in `ranges[i]` (bounds inclusive), entries of each range in
    /// ascending order. The positions of all range starts are resolved with
    /// one prefetched group descent ([`CssTree::lower_bound_batch`]); returns
    /// the number of node blocks prefetched.
    pub fn probe_batch<F: FnMut(usize, Entry)>(
        &self,
        ranges: &[KeyRange],
        prefetch_dist: usize,
        mut f: F,
    ) -> u64 {
        if ranges.is_empty() || self.leaves.is_empty() {
            return 0;
        }
        let targets: Vec<Entry> = ranges.iter().map(|r| Entry::min_for_key(r.lo)).collect();
        let mut positions = Vec::with_capacity(ranges.len());
        let prefetched = self.lower_bound_batch(&targets, prefetch_dist, &mut positions);
        for (i, (range, &start)) in ranges.iter().zip(positions.iter()).enumerate() {
            let mut pos = start;
            while pos < self.leaves.len() {
                let e = self.leaves[pos];
                if e.key > range.hi {
                    break;
                }
                f(i, e);
                pos += 1;
            }
        }
        prefetched
    }

    /// Calls `f` for every entry whose key lies in `range` (bounds inclusive),
    /// in ascending order. Returns the number of entries visited.
    pub fn range_for_each<F: FnMut(Entry)>(&self, range: KeyRange, mut f: F) -> usize {
        let mut pos = self.lower_bound_key(range.lo);
        let mut visited = 0;
        while pos < self.leaves.len() {
            let e = self.leaves[pos];
            if e.key > range.hi {
                break;
            }
            f(e);
            visited += 1;
            pos += 1;
        }
        visited
    }

    /// Collects every entry whose key lies in `range`.
    pub fn range_collect(&self, range: KeyRange) -> Vec<Entry> {
        let mut out = Vec::new();
        self.range_for_each(range, |e| out.push(e));
        out
    }

    /// The routing boundary of partition `p` at `depth`: the maximum entry of
    /// that subtree. Entries routed to partition `p` are `<=` this bound (the
    /// last partition's bound covers everything above as well).
    pub fn partition_upper_bound(&self, depth: usize, p: usize) -> Entry {
        if depth < self.level_maxes.len() {
            self.level_maxes[depth][p]
        } else if self.leaves.is_empty() {
            Entry::max_for_key(Key::MAX)
        } else {
            // Partitions are leaf groups.
            let start = p * self.leaf_size;
            let end = ((p + 1) * self.leaf_size).min(self.leaves.len());
            self.leaves[end.max(start + 1) - 1]
        }
    }

    /// Structural statistics.
    pub fn stats(&self) -> CssStats {
        CssStats {
            entries: self.leaves.len(),
            inner_slots: self.inner.len(),
            inner_levels: self.level_sizes.len(),
            leaf_bytes: self.leaves.len() * std::mem::size_of::<Entry>(),
            inner_bytes: self.inner.len() * std::mem::size_of::<Entry>(),
        }
    }

    /// Verifies the structural invariants (sortedness, routing consistency),
    /// panicking on the first violation. Intended for tests.
    pub fn check_invariants(&self) {
        assert!(
            self.leaves.windows(2).all(|w| w[0] <= w[1]),
            "leaf array is not sorted"
        );
        if self.level_sizes.is_empty() {
            return;
        }
        assert_eq!(self.level_sizes.len(), self.level_offsets.len());
        assert_eq!(self.level_sizes.len(), self.level_maxes.len());
        // Every entry must be found at its own position via the inner levels.
        for (i, &e) in self.leaves.iter().enumerate() {
            let pos = self.lower_bound(e);
            assert!(
                pos <= i && self.leaves[pos] == e,
                "lower_bound({e:?}) = {pos}, expected a position at or before {i} holding the entry"
            );
        }
        // Keys within each inner node must be non-decreasing.
        for level in 0..self.level_sizes.len() {
            for node in 0..self.level_sizes[level] {
                let keys = self.keys_of(level, node);
                assert!(
                    keys.windows(2).all(|w| w[0] <= w[1]),
                    "inner node ({level}, {node}) keys out of order"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries(n: usize) -> Vec<Entry> {
        (0..n as i64).map(|i| Entry::new(i * 2, i as u64)).collect()
    }

    fn tree(n: usize, fanout: usize, leaf: usize) -> CssTree {
        crate::CssBuilder::new()
            .fanout(fanout)
            .leaf_size(leaf)
            .build(entries(n))
    }

    #[test]
    fn empty_tree() {
        let t = CssTree::empty();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.lower_bound_key(5), 0);
        assert_eq!(t.leaf_groups(), 0);
        assert_eq!(t.nodes_at_depth(0), 1);
        assert!(t.range_collect(KeyRange::new(0, 100)).is_empty());
        t.check_invariants();
    }

    #[test]
    fn single_leaf_group_uses_no_inner_levels() {
        let t = tree(8, 4, 8);
        assert_eq!(t.inner_levels(), 0);
        assert_eq!(t.leaf_groups(), 1);
        assert_eq!(t.lower_bound_key(0), 0);
        assert_eq!(t.lower_bound_key(3), 2);
        assert_eq!(t.lower_bound_key(14), 7);
        assert_eq!(t.lower_bound_key(15), 8);
        t.check_invariants();
    }

    #[test]
    fn multi_level_lower_bound_matches_binary_search() {
        for n in [9, 64, 65, 100, 1000, 4096, 5000] {
            let t = tree(n, 4, 4);
            t.check_invariants();
            for probe in -1..(2 * n as i64 + 2) {
                let expected = t.entries().partition_point(|e| e.key < probe);
                assert_eq!(t.lower_bound_key(probe), expected, "n={n} probe={probe}");
            }
        }
    }

    #[test]
    fn range_scan_matches_filter() {
        let t = tree(500, 8, 8);
        let r = KeyRange::new(100, 200);
        let got = t.range_collect(r);
        let expected: Vec<Entry> = t
            .entries()
            .iter()
            .copied()
            .filter(|e| r.contains(e.key))
            .collect();
        assert_eq!(got, expected);
        // Out-of-domain ranges.
        assert!(t.range_collect(KeyRange::new(-50, -1)).is_empty());
        assert!(t.range_collect(KeyRange::new(10_000, 20_000)).is_empty());
    }

    #[test]
    fn nodes_at_depth_and_partition_bounds() {
        // 4096 entries, leaf groups of 32 -> 128 groups; fan-out 8 ->
        // level sizes (from deepest): 16, 2, 1 -> root at depth 0 has 2 real children.
        let t = tree(4096, 8, 32);
        assert_eq!(t.leaf_groups(), 128);
        assert_eq!(t.inner_levels(), 3);
        assert_eq!(t.nodes_at_depth(0), 1);
        assert_eq!(t.nodes_at_depth(1), 2);
        assert_eq!(t.nodes_at_depth(2), 16);
        assert_eq!(t.nodes_at_depth(3), 128);
        // Partition bounds at depth 2 are increasing and the last one covers
        // the maximum entry.
        let bounds: Vec<Entry> = (0..16).map(|p| t.partition_upper_bound(2, p)).collect();
        assert!(bounds.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(bounds[15], t.max_entry().unwrap());
        // Every entry routed to partition p at depth 2 is <= its bound.
        for &e in t.entries() {
            let p = t.descend_to_depth(e, 2);
            assert!(
                e <= t.partition_upper_bound(2, p),
                "entry {e:?} exceeds bound of partition {p}"
            );
        }
    }

    #[test]
    fn descend_to_depth_zero_is_root() {
        let t = tree(1000, 8, 8);
        assert_eq!(t.descend_to_depth(Entry::new(0, 0), 0), 0);
    }

    #[test]
    fn duplicates_lower_bound_finds_first() {
        let mut e: Vec<Entry> = Vec::new();
        for s in 0..100u64 {
            e.push(Entry::new(10, s));
        }
        for s in 0..100u64 {
            e.push(Entry::new(20, s));
        }
        let t = crate::CssBuilder::new().fanout(4).leaf_size(4).build(e);
        t.check_invariants();
        assert_eq!(t.lower_bound_key(10), 0);
        assert_eq!(t.lower_bound_key(11), 100);
        assert_eq!(t.lower_bound_key(20), 100);
        assert_eq!(t.lower_bound_key(21), 200);
        assert_eq!(t.range_collect(KeyRange::point(10)).len(), 100);
    }

    #[test]
    fn stats_report_sizes() {
        let t = tree(1000, 8, 8);
        let s = t.stats();
        assert_eq!(s.entries, 1000);
        assert!(s.inner_levels >= 2);
        assert_eq!(s.leaf_bytes, 1000 * std::mem::size_of::<Entry>());
        assert!(s.inner_bytes > 0);
        assert_eq!(s.total_bytes(), s.leaf_bytes + s.inner_bytes);
    }

    /// Scalar/batched parity over every target in `probes`, for every
    /// prefetch distance in `dists`.
    fn assert_batch_matches_scalar(t: &CssTree, probes: &[Entry], dists: &[usize]) {
        let expected: Vec<usize> = probes.iter().map(|&p| t.lower_bound(p)).collect();
        for &d in dists {
            let mut got = Vec::new();
            t.lower_bound_batch(probes, d, &mut got);
            assert_eq!(got, expected, "prefetch_dist = {d}");
        }
        // The interleaved engine must agree position-for-position and
        // group-for-group with the batch descent at every ring width.
        let mut batch_pos = Vec::new();
        let mut batch_groups = Vec::new();
        t.lower_bound_batch_groups(probes, 4, &mut batch_pos, &mut batch_groups);
        for k in [0, 1, 2, 3, 4, 8, 16, 64] {
            let mut pos = Vec::new();
            let mut groups = Vec::new();
            let mut counters = ProbeCounters::default();
            t.lower_bound_interleaved(probes, k, &mut pos, Some(&mut groups), &mut counters);
            assert_eq!(pos, expected, "interleave = {k}");
            assert_eq!(groups, batch_groups, "interleave = {k}");
            if !probes.is_empty() {
                assert_eq!(counters.interleaved_batches, 1);
                assert_eq!(counters.interleaved_descents, probes.len() as u64);
                if !t.is_empty() {
                    assert_eq!(
                        counters.descent_steps.iter().sum::<u64>(),
                        probes.len() as u64,
                        "every descent lands in exactly one histogram bucket"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_lower_bound_on_empty_tree() {
        let t = CssTree::empty();
        let probes = [Entry::min_for_key(0), Entry::min_for_key(100)];
        let mut got = Vec::new();
        let prefetched = t.lower_bound_batch(&probes, 4, &mut got);
        assert_eq!(got, vec![0, 0]);
        assert_eq!(prefetched, 0, "nothing to prefetch in an empty tree");
        t.probe_batch(&[KeyRange::new(0, 100)], 4, |_, _| {
            panic!("empty tree must produce no entries")
        });
    }

    #[test]
    fn batched_lower_bound_on_single_node_tree() {
        // One entry, and separately one leaf group (no inner levels).
        for n in [1usize, 7] {
            let t = tree(n, 4, 8);
            assert_eq!(t.inner_levels(), 0);
            let probes: Vec<Entry> = (-2..2 * n as i64 + 2).map(Entry::min_for_key).collect();
            assert_batch_matches_scalar(&t, &probes, &[0, 1, 4, 64]);
        }
    }

    #[test]
    fn batched_lower_bound_with_all_duplicate_keys() {
        let entries: Vec<Entry> = (0..200u64).map(|s| Entry::new(42, s)).collect();
        let t = crate::CssBuilder::new()
            .fanout(4)
            .leaf_size(4)
            .build(entries);
        let probes = vec![Entry::min_for_key(42); 16];
        assert_batch_matches_scalar(&t, &probes, &[0, 2, 16]);
        let mut per_range = vec![0usize; 3];
        let ranges = [
            KeyRange::point(42),
            KeyRange::new(0, 41),
            KeyRange::new(43, 100),
        ];
        t.probe_batch(&ranges, 4, |i, e| {
            assert_eq!(e.key, 42);
            per_range[i] += 1;
        });
        assert_eq!(per_range, vec![200, 0, 0]);
    }

    #[test]
    fn batched_lower_bound_outside_the_indexed_range() {
        let t = tree(1000, 8, 8); // keys 0, 2, ..., 1998
        let probes = [
            Entry::min_for_key(-500),
            Entry::min_for_key(i64::MIN),
            Entry::min_for_key(5000),
            Entry::min_for_key(i64::MAX),
            Entry::max_for_key(1998),
        ];
        assert_batch_matches_scalar(&t, &probes, &[0, 1, 3, 8]);
        let mut hits = 0;
        t.probe_batch(
            &[KeyRange::new(-100, -1), KeyRange::new(2000, 9000)],
            4,
            |_, _| hits += 1,
        );
        assert_eq!(hits, 0, "out-of-range probes must match nothing");
    }

    #[test]
    fn batched_lower_bound_matches_scalar_on_random_batches() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for (n, fanout, leaf) in [(9, 4, 4), (100, 4, 4), (1000, 8, 8), (5000, 32, 32)] {
            let t = tree(n, fanout, leaf);
            for batch in [1usize, 2, 8, 33] {
                let probes: Vec<Entry> = (0..batch)
                    .map(|_| Entry::new(rng.gen_range(-10..2 * n as i64 + 10), rng.gen()))
                    .collect();
                assert_batch_matches_scalar(&t, &probes, &[0, 1, 4, 7, 1024]);
            }
        }
    }

    #[test]
    fn batched_probe_matches_range_collect() {
        let t = tree(2000, 8, 8);
        let ranges = [
            KeyRange::new(100, 150),
            KeyRange::new(0, 0),
            KeyRange::new(3990, 4100),
            KeyRange::new(-5, 5),
            KeyRange::new(700, 700),
        ];
        let mut got: Vec<Vec<Entry>> = vec![Vec::new(); ranges.len()];
        let prefetched = t.probe_batch(&ranges, 2, |i, e| got[i].push(e));
        assert!(prefetched > 0, "a multi-level tree prefetches nodes");
        for (range, entries) in ranges.iter().zip(&got) {
            assert_eq!(entries, &t.range_collect(*range), "range {range:?}");
        }
    }

    #[test]
    fn ancestor_at_depth_matches_the_real_descent() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        for (n, fanout, leaf) in [(9, 4, 4), (257, 4, 4), (1000, 8, 8), (4096, 8, 32)] {
            let t = tree(n, fanout, leaf);
            let levels = t.inner_levels();
            let probes: Vec<Entry> = (0..64)
                .map(|_| Entry::new(rng.gen_range(-5..2 * n as i64 + 5), rng.gen()))
                .collect();
            for &p in &probes {
                let group = t.descend_to_depth(p, levels);
                for depth in 0..=levels {
                    assert_eq!(
                        t.ancestor_at_depth(group, depth),
                        t.descend_to_depth(p, depth),
                        "n={n} fanout={fanout} target={p:?} depth={depth}"
                    );
                }
            }
        }
        // Degenerate shapes: empty tree and single leaf level route to 0.
        assert_eq!(CssTree::empty().ancestor_at_depth(0, 0), 0);
        let flat = tree(7, 4, 8);
        assert_eq!(flat.inner_levels(), 0);
        assert_eq!(flat.ancestor_at_depth(0, 0), 0);
        assert_eq!(flat.ancestor_at_depth(3, 2), 0);
    }

    #[test]
    fn lower_bound_batch_groups_captures_the_descent_group() {
        let t = tree(4096, 8, 32);
        let levels = t.inner_levels();
        let targets: Vec<Entry> = (-2..50).map(|k| Entry::min_for_key(k * 173)).collect();
        let mut positions = Vec::new();
        let mut groups = Vec::new();
        for dist in [0usize, 1, 4] {
            let _ = t.lower_bound_batch_groups(&targets, dist, &mut positions, &mut groups);
            assert_eq!(positions.len(), targets.len());
            assert_eq!(groups.len(), targets.len());
            for (i, &target) in targets.iter().enumerate() {
                assert_eq!(positions[i], t.lower_bound(target), "dist {dist}");
                assert_eq!(
                    groups[i],
                    t.descend_to_depth(target, levels),
                    "dist {dist}, target {target:?}"
                );
            }
        }
        // Degenerate shapes report group 0 for every target.
        for degenerate in [CssTree::empty(), tree(7, 4, 8)] {
            let _ = degenerate.lower_bound_batch_groups(&targets, 4, &mut positions, &mut groups);
            assert_eq!(groups, vec![0; targets.len()]);
        }
        let _ = t.lower_bound_batch_groups(&[], 4, &mut positions, &mut groups);
        assert!(positions.is_empty() && groups.is_empty());
    }

    #[test]
    fn interleaved_descent_edge_cases_and_counter_accounting() {
        // Empty tree: every position and group is 0, nothing is stepped.
        let empty = CssTree::empty();
        let probes = [Entry::min_for_key(0), Entry::min_for_key(100)];
        let mut pos = Vec::new();
        let mut groups = Vec::new();
        let mut c = ProbeCounters::default();
        empty.lower_bound_interleaved(&probes, 8, &mut pos, Some(&mut groups), &mut c);
        assert_eq!(pos, vec![0, 0]);
        assert_eq!(groups, vec![0, 0]);
        assert_eq!((c.interleaved_batches, c.interleaved_descents), (1, 2));
        assert_eq!(c.interleave_steps, 0);

        // Empty batch: outputs cleared, nothing counted.
        let t = tree(4096, 8, 32);
        let mut c = ProbeCounters::default();
        t.lower_bound_interleaved(&[], 8, &mut pos, Some(&mut groups), &mut c);
        assert!(pos.is_empty() && groups.is_empty());
        assert_eq!(c, ProbeCounters::default());

        // Multi-level tree: exact step/prefetch/search accounting. Every
        // descent takes `levels` inner visits plus one leaf search.
        let levels = t.inner_levels() as u64;
        assert!(levels >= 2, "test tree must be multi-level");
        let targets: Vec<Entry> = (-3..61).map(|k| Entry::min_for_key(k * 131)).collect();
        let n = targets.len() as u64;
        for k in [1usize, 2, 5, 8, 64] {
            let mut c = ProbeCounters::default();
            t.lower_bound_interleaved(&targets, k, &mut pos, Some(&mut groups), &mut c);
            assert_eq!(c.interleave_steps, n * (levels + 1), "interleave {k}");
            assert_eq!(c.nodes_prefetched, n * levels, "interleave {k}");
            assert_eq!(
                c.simd_node_searches + c.scalar_node_searches,
                c.interleave_steps,
                "each step performs exactly one node search"
            );
            let bucket = (levels as usize).min(ProbeCounters::DESCENT_STEP_BUCKETS - 1);
            assert_eq!(c.descent_steps[bucket], n, "interleave {k}");
            assert_eq!(c.mean_descent_steps(), (levels + 1) as f64);
        }

        // The counted batch descent records the same prefetch count the
        // plain one returns, and positions/groups stay identical.
        let mut plain_pos = Vec::new();
        let mut plain_groups = Vec::new();
        let prefetched = t.lower_bound_batch_groups(&targets, 4, &mut plain_pos, &mut plain_groups);
        let mut c = ProbeCounters::default();
        t.lower_bound_batch_groups_counted(&targets, 4, &mut pos, &mut groups, &mut c);
        assert_eq!(pos, plain_pos);
        assert_eq!(groups, plain_groups);
        assert_eq!(c.nodes_prefetched, prefetched);
        assert!(c.simd_node_searches + c.scalar_node_searches > 0);
    }

    #[test]
    fn higher_fanout_means_fewer_levels() {
        let narrow = tree(100_000, 4, 16);
        let wide = tree(100_000, 64, 16);
        assert!(wide.inner_levels() < narrow.inner_levels());
    }
}
