//! Per-layer microbenchmarks on the real structures, sized from the
//! workload. Every timed pass is a span of the caller's [`Tracer`]; a
//! metric is the median over its passes of span time per operation.
//!
//! Each bench also cross-checks the outputs of the paths it times, so a
//! layer that got faster by answering wrongly fails the run.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

use pimtree_btree::Entry;
use pimtree_common::{BandPredicate, Key, PimConfig, ProbeConfig, ProbeCounters, Tuple};
use pimtree_core::PimTree;
use pimtree_css::CssTree;
use pimtree_join::TaskRing;
use pimtree_window::{ShardWindow, SlidingWindow, WindowBounds};

use crate::stats::median;
use crate::trace::Tracer;

/// Timed passes per measured operation.
const PASSES: usize = 5;
/// Probe keys per descent / probe pass.
const PROBES: usize = 1 << 16;
/// Ring width of the interleaved (AMAC) descent.
const INTERLEAVE: usize = 8;
/// Insert/probe/merge cycles of the PIM-Tree bench.
const MERGE_CYCLES: usize = 6;
/// Slots per linear window scan (about the engine's unindexed-suffix bound).
const SCAN_LEN: u64 = 1024;
/// Entries appended and then expired per `ShardWindow` expiry pass.
const EXPIRE_CHUNK: usize = 8192;
/// Task-sized batches of tuples claimed per task-ring pass.
const RING_TASKS: u64 = 200_000;

/// What the layer benches need from the workload.
pub struct LayerInput<'a> {
    pub window: usize,
    /// Tuples per `ShardWindow` slice: the window split over the store shards.
    pub shard_slice: usize,
    pub threads: usize,
    pub task_size: usize,
    pub probe: ProbeConfig,
    pub predicate: BandPredicate,
    /// The workload's keys; the first `window` fill the structures, the
    /// rest are probe keys (cycled when a bench needs more).
    pub tuples: &'a [Tuple],
}

impl LayerInput<'_> {
    fn key(&self, i: usize) -> Key {
        self.tuples[i % self.tuples.len()].key
    }

    fn probe_keys(&self) -> Vec<Key> {
        (0..PROBES).map(|i| self.key(self.window + i)).collect()
    }

    /// The engine's default task-ring capacity for this worker count.
    fn ring_capacity(&self) -> usize {
        (self.threads * self.task_size * 64).max(4096)
    }

    /// Slack the engine gives its windows for a single ring of its default
    /// capacity: two ring laps plus the unindexed-suffix bound plus 1024.
    fn engine_slack(&self) -> usize {
        let unindexed = (8 * self.threads * self.task_size).max(1024);
        2 * self.ring_capacity() + unindexed + 1024
    }
}

pub type Metrics = Vec<(&'static str, f64)>;

/// One layer's microbenchmark: records its spans and appends its metrics.
pub type Bench = fn(&mut Tracer, &LayerInput, &mut Metrics) -> Result<(), String>;

fn per_op(t: &Tracer, span: &str) -> f64 {
    median(&t.ns_per_op(span))
}

/// CSS-Tree descents: level-synchronous batched, AMAC interleaved and scalar,
/// in task-sized batches of sorted lower-bound targets.
pub fn cssbtree(t: &mut Tracer, inp: &LayerInput, out: &mut Metrics) -> Result<(), String> {
    let w = inp.window;
    let tree = t.span("cssbtree.build", w as u64, |_| {
        let mut entries: Vec<Entry> = (0..w).map(|i| Entry::new(inp.key(i), i as u64)).collect();
        entries.sort_unstable();
        CssTree::from_sorted(entries)
    });
    let batches: Vec<Vec<Entry>> = inp
        .probe_keys()
        .chunks(inp.task_size)
        .map(|chunk| {
            let mut b: Vec<Entry> = chunk
                .iter()
                .map(|&k| Entry::min_for_key(inp.predicate.probe_range(k).lo))
                .collect();
            b.sort_unstable();
            b
        })
        .collect();
    let n = PROBES as u64;
    let (mut pos, mut groups) = (Vec::new(), Vec::new());
    let mut counters = ProbeCounters::default();
    let mut sums = [0usize; 3];
    for _ in 0..PASSES {
        sums[0] = t.span("cssbtree.descent", n, |_| {
            let mut s = 0;
            for b in &batches {
                tree.lower_bound_batch_groups(b, inp.probe.prefetch_dist, &mut pos, &mut groups);
                s += pos.iter().sum::<usize>();
            }
            black_box(s)
        });
        sums[1] = t.span("cssbtree.descent_interleaved", n, |_| {
            let mut s = 0;
            for b in &batches {
                tree.lower_bound_interleaved(
                    b,
                    INTERLEAVE,
                    &mut pos,
                    Some(&mut groups),
                    &mut counters,
                );
                s += pos.iter().sum::<usize>();
            }
            black_box(s)
        });
        sums[2] = t.span("cssbtree.descent_scalar", n, |_| {
            let s: usize = batches.iter().flatten().map(|&e| tree.lower_bound(e)).sum();
            black_box(s)
        });
    }
    if sums[0] != sums[1] || sums[0] != sums[2] {
        return Err(format!("CSS descents disagree: {sums:?}"));
    }
    out.push(("cssbtree.descent_ns", per_op(t, "cssbtree.descent")));
    out.push((
        "cssbtree.descent_interleaved_ns",
        per_op(t, "cssbtree.descent_interleaved"),
    ));
    out.push((
        "cssbtree.descent_scalar_ns",
        per_op(t, "cssbtree.descent_scalar"),
    ));
    Ok(())
}

/// PIM-Tree: task-sized batch inserts, batched range probes at half-full
/// TI, and the two-phase merge of a full window.
pub fn core(t: &mut Tracer, inp: &LayerInput, out: &mut Metrics) -> Result<(), String> {
    let w = inp.window;
    let pim = PimTree::new(PimConfig::for_window(w));
    let entries = |from: usize, len: usize| -> Vec<(Key, u64)> {
        (from..from + len).map(|i| (inp.key(i), i as u64)).collect()
    };
    let insert = |batch: &[(Key, u64)]| {
        for task in batch.chunks(inp.task_size) {
            pim.insert_batch(task);
        }
    };
    t.span("core.fill", w as u64, |_| {
        insert(&entries(0, w));
        pim.merge(0);
    });
    let ranges: Vec<_> = inp
        .probe_keys()
        .iter()
        .map(|&k| inp.predicate.probe_range(k))
        .collect();
    let mut counters = ProbeCounters::default();
    let half = w / 2;
    for cycle in 0..MERGE_CYCLES {
        let next = (cycle + 1) * w;
        let (first, second) = (entries(next, half), entries(next + half, w - half));
        t.span("core.insert", half as u64, |_| insert(&first));
        let found = t.span("core.probe", ranges.len() as u64, |_| {
            let mut found = 0u64;
            for task in ranges.chunks(inp.task_size) {
                pim.probe_batch(task, &inp.probe, &mut counters, |_, _| found += 1);
            }
            black_box(found)
        });
        if cycle == 0 {
            let mut scalar = 0u64;
            for r in &ranges {
                pim.range_for_each(*r, |_| scalar += 1);
            }
            if scalar != found {
                return Err(format!("PIM batched probe found {found}, scalar {scalar}"));
            }
        }
        t.span("core.insert", (w - half) as u64, |_| insert(&second));
        let merged = t.span("core.merge", 1, |_| {
            let prepared = pim.begin_merge(next as u64);
            pim.install_merge(prepared).new_len
        });
        if merged != w {
            return Err(format!("PIM merge kept {merged} of {w} live entries"));
        }
    }
    out.push(("core.insert_ns", per_op(t, "core.insert")));
    out.push(("core.probe_ns", per_op(t, "core.probe")));
    out.push(("core.merge_ms", per_op(t, "core.merge") / 1e6));
    Ok(())
}

/// Shared `SlidingWindow` append and linear scan; per-shard `ShardWindow`
/// eager expiry, migration snapshot and in-place rebuild.
pub fn window(t: &mut Tracer, inp: &LayerInput, out: &mut Metrics) -> Result<(), String> {
    let w = inp.window;
    let slack = inp.engine_slack();
    let sliding = SlidingWindow::new(w, slack);
    let appends = (2 * w).max(PROBES);
    let mut next = 0usize;
    for _ in 0..PASSES {
        t.span("window.append", appends as u64, |_| {
            for _ in 0..appends {
                black_box(sliding.append(inp.key(next)).map_err(|e| e.to_string())?);
                next += 1;
            }
            Ok::<_, String>(())
        })?;
    }
    let head = sliding.head();
    let probes = inp.probe_keys();
    for pass in 0..PASSES {
        let keys = &probes[pass * 256..(pass + 1) * 256];
        let examined = t.span("window.scan", keys.len() as u64 * SCAN_LEN, |_| {
            let (mut examined, mut hits) = (0u64, 0u64);
            for &k in keys {
                let range = inp.predicate.probe_range(k);
                examined +=
                    sliding.scan_linear(head - SCAN_LEN, head, range, |_, _| hits += 1) as u64;
            }
            black_box(hits);
            examined
        });
        if examined != keys.len() as u64 * SCAN_LEN {
            return Err(format!("window scan examined {examined} slots"));
        }
    }

    let s = inp.shard_slice;
    let mut shard = ShardWindow::new(s, slack);
    // Dense global seqs: every tuple of the side lands in this slice, the
    // most a slice can hold.
    let mut seq = 0u64;
    let mut append_shard = |shard: &ShardWindow, count: usize| -> Result<u64, String> {
        for _ in 0..count {
            let keep = seq.saturating_sub(s as u64);
            shard
                .append(seq, inp.key(seq as usize), keep)
                .map_err(|e| e.to_string())?;
            seq += 1;
        }
        Ok(seq)
    };
    append_shard(&shard, s)?;
    for _ in 0..PASSES {
        let upto = append_shard(&shard, EXPIRE_CHUNK)? - s as u64;
        let expired = t.span("window.expire", EXPIRE_CHUNK as u64, |_| {
            let mut expired = 0u64;
            shard.expire_eager(upto, |k, _| {
                black_box(k);
                expired += 1;
            });
            expired
        });
        if expired != EXPIRE_CHUNK as u64 {
            return Err(format!("shard window expired {expired} of {EXPIRE_CHUNK}"));
        }
    }
    for _ in 0..PASSES {
        let snap = t.span("window.snapshot", 1, |_| shard.snapshot());
        t.span("window.rebuild", 1, |_| shard.rebuild_in_place(&snap));
        if shard.snapshot() != snap {
            return Err("shard window rebuild changed its contents".into());
        }
    }
    out.push(("window.append_ns", per_op(t, "window.append")));
    out.push(("window.scan_ns", per_op(t, "window.scan")));
    out.push(("window.expire_ns", per_op(t, "window.expire")));
    out.push(("window.snapshot_ms", per_op(t, "window.snapshot") / 1e6));
    out.push(("window.rebuild_ms", per_op(t, "window.rebuild") / 1e6));
    Ok(())
}

/// One worker's share of task-ring traffic: ingest a task when the ingest
/// token is free, claim up to a task, complete it, drain the completed
/// prefix; until `target` tuples have been claimed by all workers together.
fn ring_worker(ring: &TaskRing, task: usize, target: u64, claimed_tuples: &AtomicU64) {
    let mut claimed = Vec::with_capacity(task);
    let mut counters = Default::default();
    let mut seq = 0u64;
    while claimed_tuples.load(Ordering::Relaxed) < target {
        if let Some(ingest) = ring.try_ingest() {
            for _ in 0..task {
                if !ingest.can_push() {
                    break;
                }
                ingest.push(Tuple::r(seq, seq as Key), WindowBounds::new(0, seq));
                seq += 1;
            }
        }
        claimed.clear();
        // The tail is published tuple by tuple, so a claim can take part of
        // a task; counting tuples keeps 1 and 2 workers in the same unit.
        let n = ring.claim(task, &mut claimed, &mut counters);
        if n > 0 {
            for c in &claimed {
                ring.complete(c.gid, 1, Vec::new());
            }
            claimed_tuples.fetch_add(n as u64, Ordering::Relaxed);
        }
        ring.try_drain(false, |count, _| {
            black_box(count);
        });
    }
}

/// Task-ring push → claim → complete → drain cycles at one worker and at
/// the engine's worker count, as worker-nanoseconds per task's worth of
/// claimed tuples (`task_size` of them).
pub fn ring(t: &mut Tracer, inp: &LayerInput, out: &mut Metrics) -> Result<(), String> {
    let workers = inp.threads;
    for _ in 0..PASSES {
        for (span, threads) in [("ring.cycle_1t", 1), ("ring.cycle_2t", workers)] {
            let ring = TaskRing::with_capacity(inp.ring_capacity());
            let claimed = AtomicU64::new(0);
            let target = RING_TASKS * inp.task_size as u64;
            t.span(span, RING_TASKS, |_| {
                std::thread::scope(|scope| {
                    for _ in 0..threads {
                        scope.spawn(|| ring_worker(&ring, inp.task_size, target, &claimed));
                    }
                });
            });
            let done = claimed.load(Ordering::Relaxed);
            if done < target {
                return Err(format!("ring pass claimed {done} of {target} tuples"));
            }
        }
    }
    // A pass's span covers RING_TASKS tasks' worth of tuples spread over
    // `threads` workers; scale by the worker count to get worker time.
    out.push(("ring.cycle_ns_1t", per_op(t, "ring.cycle_1t")));
    out.push((
        "ring.cycle_ns_2t",
        per_op(t, "ring.cycle_2t") * workers as f64,
    ));
    Ok(())
}
