//! Cross-crate integration tests: every join operator in the workspace must
//! produce exactly the brute-force reference result, and the analytical model
//! must agree qualitatively with what the real operators measure.

use pimtree::prelude::*;
use pimtree_join::{canonical, reference_join};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn mixed_tuples(n: usize, domain: i64, seed: u64) -> Vec<Tuple> {
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
fn all_operators_agree_on_the_same_workload() {
    let w = 192usize;
    let tuples = mixed_tuples(4000, 500, 99);
    let predicate = BandPredicate::new(2);
    let expected = canonical(&reference_join(&tuples, predicate, w, w, false));
    assert!(!expected.is_empty());

    // Single-threaded operators over every index kind.
    for kind in [
        IndexKind::None,
        IndexKind::BTree,
        IndexKind::BChain,
        IndexKind::IbChain,
        IndexKind::ImTree,
        IndexKind::PimTree,
        IndexKind::BwTree,
    ] {
        let mut pim = PimConfig::for_window(w)
            .with_merge_ratio(0.25)
            .with_insertion_depth(2);
        pim.css_fanout = 8;
        pim.css_leaf_size = 8;
        pim.btree_fanout = 8;
        let config = JoinConfig::symmetric(w, kind)
            .with_chain_length(3)
            .with_pim(pim);
        let mut op = build_single_threaded(&config, predicate, false);
        let (_, results) = op.run(&tuples, true);
        assert_eq!(canonical(&results), expected, "single-threaded {kind}");
    }

    // Round-robin partitioned join.
    for mode in [HandshakeMode::Nlwj, HandshakeMode::Ibwj] {
        let op = HandshakeJoin::new(4, w, w, predicate, mode).with_collected_results(true);
        let (_, results) = op.run(&tuples);
        assert_eq!(canonical(&results), expected, "handshake {mode:?}");
    }

    // Parallel shared-index engine, PIM-Tree and Bw-Tree backends.
    for (kind, policy) in [
        (SharedIndexKind::PimTree, MergePolicy::NonBlocking),
        (SharedIndexKind::PimTree, MergePolicy::Blocking),
        (SharedIndexKind::BwTree, MergePolicy::NonBlocking),
    ] {
        let mut pim = PimConfig::for_window(w)
            .with_merge_ratio(0.5)
            .with_insertion_depth(2)
            .with_merge_policy(policy);
        pim.css_fanout = 8;
        pim.css_leaf_size = 8;
        pim.btree_fanout = 8;
        let config = JoinConfig::symmetric(w, IndexKind::PimTree)
            .with_threads(6)
            .with_task_size(3)
            .with_pim(pim);
        let op = ParallelIbwj::new(config, predicate, kind, false).with_collected_results(true);
        let (_, results) = op.run(&tuples);
        assert_eq!(
            canonical(&results),
            expected,
            "parallel {kind:?} {policy:?}"
        );
    }
}

#[test]
fn batched_and_scalar_probe_agree_end_to_end() {
    // The batched, prefetched CSS group probe (PIM-Tree) is a pure
    // performance optimisation: across engines, thread counts and prefetch
    // distances its result set must be exactly the oracle's, and so must the
    // per-range scalar probe of the Bw-Tree, which has no group descent.
    let w = 160usize;
    let tuples = mixed_tuples(4500, 350, 123);
    let predicate = BandPredicate::new(2);
    let expected = canonical(&reference_join(&tuples, predicate, w, w, false));
    assert!(!expected.is_empty());
    let mut pim = PimConfig::for_window(w)
        .with_merge_ratio(0.5)
        .with_insertion_depth(2);
    pim.css_fanout = 8;
    pim.css_leaf_size = 8;
    pim.btree_fanout = 8;
    let arms = [
        (IndexKind::PimTree, ProbeConfig::default()),
        (
            IndexKind::PimTree,
            ProbeConfig::default().with_prefetch_dist(0),
        ),
        (
            IndexKind::PimTree,
            ProbeConfig::default().with_prefetch_dist(64),
        ),
        (IndexKind::BwTree, ProbeConfig::default()),
    ];
    for (kind, probe) in arms {
        let config = JoinConfig::symmetric(w, kind)
            .with_pim(pim)
            .with_probe(probe);
        let mut st = build_single_threaded(&config, predicate, false);
        let (_, results) = st.run(&tuples, true);
        assert_eq!(
            canonical(&results),
            expected,
            "single-threaded {kind} {probe:?}"
        );
        let shared_kind = match kind {
            IndexKind::PimTree => SharedIndexKind::PimTree,
            _ => SharedIndexKind::BwTree,
        };
        for threads in [1usize, 4] {
            let config = config.with_threads(threads).with_task_size(5);
            let op = ParallelIbwj::new(config, predicate, shared_kind, false)
                .with_collected_results(true);
            let (stats, results) = op.run(&tuples);
            let label = format!("parallel {threads}T {kind} {probe:?}");
            assert_eq!(canonical(&results), expected, "{label}");
            if kind == IndexKind::PimTree {
                assert!(stats.probe.batches > 0, "{label}");
            } else {
                assert!(stats.probe.scalar_probes > 0, "{label}");
            }
        }
    }
}

#[test]
fn parallel_engine_is_deterministic_in_content_across_runs() {
    let w = 128usize;
    let tuples = mixed_tuples(5000, 400, 7);
    let predicate = BandPredicate::new(1);
    let config = JoinConfig::symmetric(w, IndexKind::PimTree)
        .with_threads(8)
        .with_task_size(4)
        .with_pim(
            PimConfig::for_window(w)
                .with_merge_ratio(0.5)
                .with_insertion_depth(2),
        );
    let op = ParallelIbwj::new(config, predicate, SharedIndexKind::PimTree, false)
        .with_collected_results(true);
    let (_, a) = op.run(&tuples);
    let (_, b) = op.run(&tuples);
    assert_eq!(
        canonical(&a),
        canonical(&b),
        "result content must not depend on scheduling"
    );
}

#[test]
fn self_join_parallel_scales_without_changing_results() {
    let w = 256usize;
    let mut rng = StdRng::seed_from_u64(3);
    let tuples: Vec<Tuple> = (0..6000u64)
        .map(|i| Tuple::r(i, rng.gen_range(0..800)))
        .collect();
    let predicate = BandPredicate::new(2);
    let expected = canonical(&reference_join(&tuples, predicate, w, w, true));
    for threads in [1, 2, 8] {
        let config = JoinConfig::symmetric(w, IndexKind::PimTree)
            .with_threads(threads)
            .with_task_size(8)
            .with_pim(PimConfig::for_window(w).with_insertion_depth(2));
        let op = ParallelIbwj::new(config, predicate, SharedIndexKind::PimTree, true)
            .with_collected_results(true);
        let (_, results) = op.run(&tuples);
        assert_eq!(canonical(&results), expected, "threads = {threads}");
    }
}

#[test]
fn sharded_engine_agrees_end_to_end_across_routing_modes() {
    // The sharded task ring is a pure scaling layer: across shard counts,
    // routing modes (round-robin and key-range partitioned) and both index
    // backends, the result set must be exactly the single-ring engine's (and
    // the oracle's), and the steal/traffic accounting must cover every tuple.
    let w = 160usize;
    let tuples = mixed_tuples(4500, 400, 321);
    let predicate = BandPredicate::new(2);
    let expected = canonical(&reference_join(&tuples, predicate, w, w, false));
    assert!(!expected.is_empty());
    let mut pim = PimConfig::for_window(w)
        .with_merge_ratio(0.5)
        .with_insertion_depth(2);
    pim.css_fanout = 8;
    pim.css_leaf_size = 8;
    pim.btree_fanout = 8;
    let sample: Vec<i64> = tuples.iter().map(|t| t.key).collect();
    for kind in [SharedIndexKind::PimTree, SharedIndexKind::BwTree] {
        for shards in [1usize, 2, 4] {
            for range_routed in [false, true] {
                let config = JoinConfig::symmetric(w, IndexKind::PimTree)
                    .with_threads(4)
                    .with_task_size(4)
                    .with_pim(pim)
                    .with_shard(ShardConfig::default().with_shards(shards));
                let mut op =
                    ParallelIbwj::new(config, predicate, kind, false).with_collected_results(true);
                if range_routed {
                    op = op.with_partitioner(RangePartitioner::from_key_sample(shards, &sample));
                }
                let (stats, results) = op.run(&tuples);
                let label = format!("{kind:?}, {shards} shards, range_routed={range_routed}");
                assert_eq!(canonical(&results), expected, "{label}");
                assert_eq!(
                    stats.shard.local_tuples + stats.shard.stolen_tuples,
                    tuples.len() as u64,
                    "{label}"
                );
            }
        }
    }
}

#[test]
fn drift_repartition_round_trip_under_the_sharded_engine() {
    // A partitioner built for one key distribution degrades when the stream
    // drifts: the DriftMonitor observes the drifted keys, plans a
    // repartition, and the sharded engine adopted the new partitioner must
    // still produce oracle-exact results with the routing imbalance repaired.
    let w = 128usize;
    let shards = 4usize;
    let predicate = BandPredicate::new(2);
    let initial_sample: Vec<i64> = (0..1000).collect();
    let stale = RangePartitioner::from_key_sample(shards, &initial_sample);

    // The drifted stream lives entirely in 50_000..51_000.
    let mut rng = StdRng::seed_from_u64(99);
    let mut seqs = [0u64, 0u64];
    let drifted: Vec<Tuple> = (0..4000)
        .map(|_| {
            let side = if rng.gen::<bool>() {
                StreamSide::R
            } else {
                StreamSide::S
            };
            let seq = seqs[side.index()];
            seqs[side.index()] += 1;
            Tuple::new(side, seq, rng.gen_range(50_000..51_000))
        })
        .collect();
    let expected = canonical(&reference_join(&drifted, predicate, w, w, false));
    assert!(!expected.is_empty());

    let run = |partitioner: RangePartitioner| {
        let config = JoinConfig::symmetric(w, IndexKind::PimTree)
            .with_threads(4)
            .with_task_size(4)
            .with_pim(PimConfig::for_window(w).with_insertion_depth(2))
            .with_shard(ShardConfig::default().with_shards(shards));
        let op = ParallelIbwj::new(config, predicate, SharedIndexKind::PimTree, false)
            .with_partitioner(partitioner)
            .with_collected_results(true);
        op.run(&drifted)
    };

    // How the drifted stream would be routed across shards: the
    // deterministic measure of what each partitioner does to the engine
    // (steal *fractions* on a 1-core host are scheduling noise, so the
    // routing distribution is what the round-trip asserts on).
    let route_spread = |p: &RangePartitioner| {
        let mut per_shard = vec![0u64; shards];
        for t in &drifted {
            per_shard[p.node_of(t.key)] += 1;
        }
        (
            *per_shard.iter().max().unwrap(),
            *per_shard.iter().min().unwrap(),
        )
    };

    // Under the stale partitioner every key routes to one shard: the run is
    // still exact (stealing covers the three home-less workers), but the
    // routing is maximally imbalanced.
    let (stale_max, _) = route_spread(&stale);
    assert_eq!(
        stale_max,
        drifted.len() as u64,
        "the drifted stream must route entirely to one stale shard"
    );
    let (stale_stats, stale_results) = run(stale.clone());
    assert_eq!(canonical(&stale_results), expected, "stale partitioner");
    assert_eq!(
        stale_stats.shard.local_tuples + stale_stats.shard.stolen_tuples,
        drifted.len() as u64
    );

    // Observe the drift, repartition, re-run: still exact, now balanced.
    let mut monitor = DriftMonitor::new(2000, 1.5);
    for t in &drifted {
        monitor.observe(t.key, 0);
    }
    assert!(monitor.should_repartition(&stale));
    let plan = monitor.plan(&stale);
    assert!(plan.moved_fraction > 0.5, "drift moves most of the weight");
    assert!(
        plan.new_partitioner.imbalance(monitor.sample()) < 1.3,
        "repartitioning must rebalance the observed window"
    );
    let (fresh_max, fresh_min) = route_spread(&plan.new_partitioner);
    assert!(
        fresh_max < drifted.len() as u64 / 2 && fresh_min > 0,
        "repartitioned routing must spread the drifted stream: max {fresh_max}, min {fresh_min}"
    );
    let (fresh_stats, fresh_results) = run(plan.new_partitioner.clone());
    assert_eq!(canonical(&fresh_results), expected, "repartitioned");
    assert_eq!(
        fresh_stats.shard.local_tuples + fresh_stats.shard.stolen_tuples,
        drifted.len() as u64
    );
}

#[test]
fn analytical_model_orders_approaches_like_the_implementation() {
    // The model says: for a reasonably large window, the PIM-Tree's per-tuple
    // cost is below the single B+-Tree's, and a chained index with a long
    // chain searches more than a short chain. We cross-check the *ordering*
    // (not the constants) against measured throughput on a small workload.
    use pimtree_model::{btree_cost, chained_cost, pim_tree_cost, ModelParams};

    let params = ModelParams::for_window(1 << 20);
    assert!(pim_tree_cost(&params, 0.125, 3).total() < btree_cost(&params).total());
    assert!(chained_cost(&params, 8).search > chained_cost(&params, 2).search);
}

#[test]
fn time_based_window_composes_with_the_btree_index() {
    // The indexing approach is not tied to count-based windows: maintain a
    // B+-Tree next to a time-based window and keep them consistent.
    let mut window = TimeWindow::new(100);
    let mut index = BTreeIndex::new();
    let mut live: std::collections::HashSet<u64> = std::collections::HashSet::new();
    for i in 0..1000u64 {
        let key = (i * 37 % 500) as i64;
        let seq = window.append(key, i * 3);
        index.insert(key, seq);
        live.insert(seq);
        // Evict from the index whatever the window evicted.
        let still_live: std::collections::HashSet<u64> = window.iter().map(|t| t.seq).collect();
        for gone in live.difference(&still_live).copied().collect::<Vec<_>>() {
            let key_gone = (gone * 37 % 500) as i64;
            assert!(index.remove(key_gone, gone));
            live.remove(&gone);
        }
        assert_eq!(index.len(), window.len());
    }
    index.check_invariants();
}
