//! Hostile-input hardening of the augmented-graph loaders: arbitrary byte
//! streams, adversarially shaped edge mixes (self-loops, duplicates,
//! friend+rejection conflicts), and boundary-sized node declarations must
//! produce typed errors or counted skips — never a panic, and never an
//! allocation past an armed [`IngestGuards`] budget.

#![deny(clippy::unwrap_used)]

use proptest::prelude::*;
use rejection::io::{
    read_augmented, read_augmented_guarded, read_augmented_lenient,
    read_augmented_lenient_guarded, AugmentedIoError, IngestGuards,
};

const HEADER: &str = "# rejecto augmented graph v1: nodes=";

/// Reference classifier mirroring the loader's hostile-edge taxonomy: an
/// independent reimplementation the real one must agree with on both the
/// strict verdict and the lenient skip count.
fn hostile_count(n: u32, lines: &[(bool, u32, u32)], reject_conflicts: bool) -> usize {
    let mut friends: Vec<(u32, u32)> = Vec::new();
    let mut rejects: Vec<(u32, u32)> = Vec::new();
    let mut hostile = 0;
    for &(is_friend, u, v) in lines {
        if u >= n || v >= n {
            continue; // out-of-range, not part of this model
        }
        let fkey = (u.min(v), u.max(v));
        if u == v {
            hostile += 1;
        } else if is_friend {
            if friends.contains(&fkey)
                || (reject_conflicts && (rejects.contains(&(u, v)) || rejects.contains(&(v, u))))
            {
                hostile += 1;
            } else {
                friends.push(fkey);
            }
        } else if rejects.contains(&(u, v)) || (reject_conflicts && friends.contains(&fkey)) {
            hostile += 1;
        } else {
            rejects.push((u, v));
        }
    }
    hostile
}

fn render(n: u32, lines: &[(bool, u32, u32)]) -> String {
    let mut text = format!("{HEADER}{n}\n");
    for &(is_friend, u, v) in lines {
        let tag = if is_friend { 'F' } else { 'R' };
        text.push_str(&format!("{tag} {u} {v}\n"));
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every byte soup maps to `Ok` or a typed error in both modes — a
    /// panic anywhere in header parsing, edge parsing, or builder
    /// bookkeeping fails the test.
    #[test]
    fn arbitrary_bytes_never_panic_either_loader(
        bytes in proptest::collection::vec(any::<u8>(), 0..400),
    ) {
        let _ = read_augmented(bytes.as_slice());
        let _ = read_augmented_lenient(bytes.as_slice());
    }

    /// Arbitrary bytes *after a valid header* exercise the per-line paths:
    /// strict returns `Ok` or a typed error; lenient only ever fails on
    /// I/O (invalid UTF-8 from the line reader), and otherwise counts
    /// every dropped line.
    #[test]
    fn arbitrary_lines_after_a_valid_header_degrade_cleanly(
        bytes in proptest::collection::vec(any::<u8>(), 0..300),
        n in 1u32..50,
    ) {
        let mut input = format!("{HEADER}{n}\n").into_bytes();
        input.extend_from_slice(&bytes);
        let _ = read_augmented(input.as_slice());
        match read_augmented_lenient(input.as_slice()) {
            Ok((g, _stats)) => prop_assert_eq!(g.num_nodes(), n as usize),
            Err(AugmentedIoError::Io(_)) => {}
            Err(other) => {
                return Err(format!("lenient loader returned a non-I/O error: {other}"));
            }
        }
    }

    /// The loader's hostile-edge taxonomy agrees with an independent
    /// reference model: the strict loader accepts exactly the inputs with
    /// zero hostile edges, and the lenient loader's skip count matches the
    /// model — with conflicts counted only when `reject_conflicts` is on.
    #[test]
    fn hostile_edge_taxonomy_matches_the_reference_model(
        n in 2u32..8,
        lines in proptest::collection::vec((any::<bool>(), 0u32..8, 0u32..8), 0..30),
        reject_conflicts in any::<bool>(),
    ) {
        // Keep endpoints in range: out-of-range handling is separately
        // typed (strict) / counted (lenient) and would double-count here.
        let lines: Vec<(bool, u32, u32)> =
            lines.into_iter().map(|(f, u, v)| (f, u % n, v % n)).collect();
        let text = render(n, &lines);
        let guards = IngestGuards { reject_conflicts, ..IngestGuards::default() };
        let expected = hostile_count(n, &lines, reject_conflicts);

        match read_augmented_guarded(text.as_bytes(), guards) {
            Ok(_) => prop_assert_eq!(expected, 0, "strict accepted a hostile input"),
            Err(AugmentedIoError::HostileEdge { .. }) => {
                prop_assert!(expected > 0, "strict rejected a clean input");
            }
            Err(other) => {
                return Err(format!("unexpected strict error: {other}"));
            }
        }

        let (_, stats) = read_augmented_lenient_guarded(text.as_bytes(), guards)
            .map_err(|e| format!("lenient load failed: {e}"))?;
        prop_assert_eq!(stats.skipped_lines, expected);
    }

    /// Boundary-sized node declarations: anything past the `u32` id space
    /// is structurally rejected, and an armed node budget rejects a
    /// boundary-sized declaration *before* the per-node allocation — this
    /// test would exhaust memory if the gate ran after it.
    #[test]
    fn u32_boundary_node_declarations_are_gated_before_allocation(
        extra in 0u64..4,
    ) {
        let past = u64::from(u32::MAX) + 1 + extra;
        let input = format!("{HEADER}{past}\n");
        match read_augmented(input.as_bytes()) {
            Err(AugmentedIoError::ResourceExhausted { resource, .. }) => {
                prop_assert_eq!(resource, "node ids");
            }
            other => {
                return Err(format!("oversized header must be rejected, got {other:?}"));
            }
        }

        let at_boundary = format!("{HEADER}{}\n", u32::MAX);
        let guards = IngestGuards { max_nodes: Some(1000), ..IngestGuards::default() };
        match read_augmented_guarded(at_boundary.as_bytes(), guards) {
            Err(AugmentedIoError::ResourceExhausted { resource, limit, observed }) => {
                prop_assert_eq!(resource, "nodes");
                prop_assert_eq!(limit, 1000);
                prop_assert_eq!(observed, u64::from(u32::MAX));
            }
            other => {
                return Err(format!("budget must trip pre-allocation, got {other:?}"));
            }
        }
    }
}
