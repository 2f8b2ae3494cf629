//! Property-based tests for the bucket list and the extended KL solver.

#![deny(clippy::unwrap_used)]

use kl::{BucketList, ExtendedKl, ExtendedKlConfig, KParam};
use proptest::prelude::*;
use rejection::{AugmentedGraph, AugmentedGraphBuilder, NodeId, Partition};

#[derive(Debug, Clone)]
enum Op {
    Insert(u32, i64),
    Remove(u32),
    Update(u32, i64),
    PopMax,
}

fn op_strategy(nodes: u32, bound: i64) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..nodes, -bound..=bound).prop_map(|(n, g)| Op::Insert(n, g)),
        (0..nodes).prop_map(Op::Remove),
        (0..nodes, -bound..=bound).prop_map(|(n, g)| Op::Update(n, g)),
        Just(Op::PopMax),
    ]
}

proptest! {
    /// The bucket list behaves exactly like a naive (gain, node) model
    /// under arbitrary operation sequences. Invalid operations are skipped
    /// on both sides.
    #[test]
    fn bucket_list_matches_reference_model(
        ops in proptest::collection::vec(op_strategy(12, 20), 1..200),
    ) {
        let mut bucket = BucketList::new(12, -20, 20);
        let mut model: Vec<(u32, i64)> = Vec::new(); // insertion order

        for op in ops {
            match op {
                Op::Insert(n, g) => {
                    if !bucket.contains(n) {
                        bucket.insert(n, g);
                        model.push((n, g));
                    }
                }
                Op::Remove(n) => {
                    if bucket.contains(n) {
                        bucket.remove(n);
                        model.retain(|&(m, _)| m != n);
                    }
                }
                Op::Update(n, g) => {
                    if bucket.contains(n) {
                        bucket.update(n, g);
                        model.retain(|&(m, _)| m != n);
                        model.push((n, g));
                    }
                }
                Op::PopMax => {
                    let got = bucket.pop_max();
                    let expect_gain = model.iter().map(|&(_, g)| g).max();
                    match (got, expect_gain) {
                        (None, None) => {}
                        (Some((n, g)), Some(eg)) => {
                            prop_assert_eq!(g, eg, "pop_max returned wrong gain");
                            // Ties break arbitrarily, but the popped entry
                            // must be the node the bucket returned.
                            let pos = model.iter().position(|&(m, _)| m == n)
                                .expect("model must contain the popped node");
                            prop_assert_eq!(model[pos].1, eg);
                            model.remove(pos);
                        }
                        (got, expect) => {
                            prop_assert!(false, "mismatch: {:?} vs {:?}", got, expect);
                        }
                    }
                }
            }
            prop_assert_eq!(bucket.len(), model.len());
            if let Some(max) = model.iter().map(|&(_, g)| g).max() {
                prop_assert_eq!(bucket.peek_max_gain(), Some(max));
            }
        }
    }
}

#[derive(Debug, Clone)]
enum AdjustOp {
    Insert(u32, i64),
    Adjust(u32, i64),
    PopMax,
}

fn adjust_op_strategy(nodes: u32, bound: i64) -> impl Strategy<Value = AdjustOp> {
    prop_oneof![
        (0..nodes, -bound..=bound).prop_map(|(n, g)| AdjustOp::Insert(n, g)),
        (0..nodes, -bound..=bound).prop_map(|(n, d)| AdjustOp::Adjust(n, d)),
        (0..nodes, -bound..=bound).prop_map(|(n, d)| AdjustOp::Adjust(n, d)),
        Just(AdjustOp::PopMax),
    ]
}

proptest! {
    /// The in-place `adjust` leaves every chain in the order `remove` then
    /// `insert` leaves it: under any insert/adjust/pop sequence both pop
    /// the same `(node, gain)` sequence, ties included. Adjusts that would
    /// leave the gain range are skipped on both sides.
    #[test]
    fn in_place_adjust_pops_like_remove_then_insert(
        ops in proptest::collection::vec(adjust_op_strategy(10, 12), 1..300),
    ) {
        let mut fast = BucketList::new(10, -12, 12);
        let mut reference = BucketList::new(10, -12, 12);
        for op in ops {
            match op {
                AdjustOp::Insert(n, g) => {
                    if !fast.contains(n) {
                        fast.insert(n, g);
                        reference.insert(n, g);
                    }
                }
                AdjustOp::Adjust(n, d) => {
                    if fast.contains(n) && (-12..=12).contains(&(fast.gain_of(n) + d)) {
                        fast.adjust(n, d);
                        if d != 0 {
                            let g = reference.gain_of(n) + d;
                            reference.remove(n);
                            reference.insert(n, g);
                        }
                    }
                }
                AdjustOp::PopMax => prop_assert_eq!(fast.pop_max(), reference.pop_max()),
            }
            prop_assert_eq!(fast.len(), reference.len());
        }
        let drain = |b: &mut BucketList| std::iter::from_fn(|| b.pop_max()).collect::<Vec<_>>();
        prop_assert_eq!(drain(&mut fast), drain(&mut reference));
    }
}

proptest! {
    /// `geometric_sequence` is strictly increasing under the exact
    /// rational order for any bounds, factor, and denominator resolution —
    /// including coarse denominators where rounding collapses many sweep
    /// points onto few rationals. Also: the sequence is non-empty, starts
    /// no higher than the rationalized `k_min`, and never exceeds the
    /// rationalized `k_max`.
    #[test]
    fn geometric_sequence_is_strictly_monotone(
        k_min in 0.01f64..5.0,
        span in 0.0f64..50.0,
        factor in 1.01f64..4.0,
        den in 1u64..200,
    ) {
        let k_max = k_min + span;
        let seq = KParam::geometric_sequence(k_min, k_max, factor, den);
        prop_assert!(!seq.is_empty());
        for w in seq.windows(2) {
            prop_assert!(
                w[0] < w[1],
                "sequence not strictly increasing: {} then {}", w[0], w[1]
            );
        }
        let lo = KParam::approximate(k_min, den);
        let hi = KParam::approximate(k_max, den);
        prop_assert!(seq[0] <= lo, "first member {} above rationalized k_min {}", seq[0], lo);
        prop_assert!(
            *seq.last().expect("sequence is non-empty") <= hi,
            "last member {} above rationalized k_max {}",
            seq.last().expect("sequence is non-empty"),
            hi
        );
    }
}

fn augmented_graph(n: usize) -> impl Strategy<Value = AugmentedGraph> {
    let nodes = 3..n;
    nodes.prop_flat_map(|n| {
        let friend = proptest::collection::vec((0..n as u32, 0..n as u32), 0..n * 2);
        let reject = proptest::collection::vec((0..n as u32, 0..n as u32), 0..n * 2);
        (Just(n), friend, reject).prop_map(|(n, friend, reject)| {
            let mut b = AugmentedGraphBuilder::new(n);
            for (u, v) in friend {
                b.add_friendship(NodeId(u), NodeId(v));
            }
            for (u, v) in reject {
                b.add_rejection(NodeId(u), NodeId(v));
            }
            b.build()
        })
    })
}

proptest! {
    /// The committed objective never worsens relative to the initial
    /// partition, for any graph and any k.
    #[test]
    fn extended_kl_never_worsens(
        g in augmented_graph(16),
        num in 1u64..12,
        den in 1u64..12,
    ) {
        let kl = ExtendedKl::new(&g, ExtendedKlConfig::new(KParam::new(num, den)));
        let init = Partition::all_legit(&g);
        let before = kl.objective(&init);
        let out = kl.run(init);
        prop_assert!(out.objective <= before,
            "objective worsened: {} > {}", out.objective, before);
        // And the reported objective matches the partition it returns.
        prop_assert_eq!(out.objective, kl.objective(&out.partition));
    }

    /// Locked nodes never move, regardless of graph or k.
    #[test]
    fn locked_nodes_never_move(
        g in augmented_graph(12),
        locked_bits in proptest::collection::vec(any::<bool>(), 12),
        num in 1u64..8,
    ) {
        let n = g.num_nodes();
        let mut kl = ExtendedKl::new(&g, ExtendedKlConfig::new(KParam::new(num, 2)));
        let locked: Vec<bool> = (0..n).map(|i| locked_bits[i % locked_bits.len()]).collect();
        for (i, &l) in locked.iter().enumerate() {
            if l {
                kl.lock(NodeId(i as u32));
            }
        }
        let init = Partition::all_legit(&g);
        let out = kl.run(init);
        for (i, &l) in locked.iter().enumerate() {
            if l {
                prop_assert_eq!(
                    out.partition.region(NodeId(i as u32)),
                    rejection::Region::Legit
                );
            }
        }
    }
}
