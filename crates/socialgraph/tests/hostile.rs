//! Hostile-input hardening of the edge-list loaders: arbitrary byte
//! streams and adversarially shaped edge lists must produce typed errors
//! (or clean skips in lenient mode) — never a panic, never unbounded
//! allocation past an armed [`EdgeListLimits`] budget.

#![deny(clippy::unwrap_used)]

use proptest::prelude::*;
use socialgraph::io::{
    read_edge_list, read_edge_list_bounded, read_edge_list_lenient,
    read_edge_list_lenient_bounded, EdgeListLimits,
};
use socialgraph::GraphError;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The strict loader maps every byte soup to `Ok` or a typed error.
    /// Running under `catch_unwind`-free test harness, a panic would fail
    /// the test outright — surviving all cases is the assertion.
    #[test]
    fn arbitrary_bytes_never_panic_the_strict_loader(
        bytes in proptest::collection::vec(any::<u8>(), 0..400),
    ) {
        let _ = read_edge_list(bytes.as_slice());
    }

    /// The lenient loader tolerates every malformed *line*; the only error
    /// it may return on arbitrary bytes is an I/O-level one (invalid
    /// UTF-8 surfaces through the buffered line reader).
    #[test]
    fn arbitrary_bytes_never_panic_the_lenient_loader(
        bytes in proptest::collection::vec(any::<u8>(), 0..400),
    ) {
        match read_edge_list_lenient(bytes.as_slice()) {
            Ok((g, labels, stats)) => {
                prop_assert_eq!(g.num_nodes(), labels.len());
                if stats.skipped_lines > 0 {
                    prop_assert!(stats.first_skipped.is_some());
                }
            }
            Err(GraphError::Io(_)) => {}
            Err(other) => {
                return Err(format!("lenient loader returned a non-I/O error: {other}"));
            }
        }
    }

    /// Budgets bound both loaders identically: a ceiling below the input's
    /// true node/edge demand yields `ResourceExhausted` from the strict
    /// *and* the lenient bounded reader (budget trips are fatal in both
    /// modes), while a ceiling at or above the demand changes nothing.
    #[test]
    fn budgets_trip_identically_in_strict_and_lenient_mode(
        edges in proptest::collection::vec((0u32..30, 0u32..30), 1..40),
        node_cap in 1u64..8,
    ) {
        let text: String =
            edges.iter().map(|(u, v)| format!("{u} {v}\n")).collect();
        let (g, _) = read_edge_list(text.as_bytes()).expect("well-formed fixture parses");
        let demand = g.num_nodes() as u64;

        let limits = EdgeListLimits { max_nodes: Some(node_cap), max_edges: None };
        let strict = read_edge_list_bounded(text.as_bytes(), limits);
        let lenient = read_edge_list_lenient_bounded(text.as_bytes(), limits);
        if node_cap >= demand {
            prop_assert!(strict.is_ok());
            prop_assert!(lenient.is_ok());
        } else {
            for result in [strict.map(|_| ()), lenient.map(|_| ())] {
                match result {
                    Err(GraphError::ResourceExhausted { resource, limit, observed }) => {
                        prop_assert_eq!(resource, "nodes");
                        prop_assert_eq!(limit, node_cap);
                        prop_assert!(observed > limit);
                    }
                    other => {
                        return Err(format!(
                            "expected ResourceExhausted(nodes), got {other:?}"
                        ));
                    }
                }
            }
        }
    }

    /// Raw labels anywhere in the `u64` space — including the `u32`
    /// boundary — intern cleanly to dense ids; the number of interned
    /// nodes equals the number of distinct labels, never the magnitude of
    /// any label.
    #[test]
    fn u64_boundary_labels_intern_without_ballooning(
        labels in proptest::collection::vec(
            prop_oneof![
                Just(0u64),
                Just(u64::from(u32::MAX)),
                Just(u64::from(u32::MAX) + 1),
                Just(u64::MAX),
                0u64..1000,
            ],
            2..20,
        ),
    ) {
        let text: String = labels
            .windows(2)
            .map(|w| format!("{} {}\n", w[0], w[1]))
            .collect();
        let (g, interned) =
            read_edge_list(text.as_bytes()).expect("well-formed fixture parses");
        // Every label is interned exactly once (self-loop lines drop the
        // edge but still intern the endpoint); magnitude is irrelevant.
        let mut distinct = labels.clone();
        distinct.sort_unstable();
        distinct.dedup();
        prop_assert_eq!(g.num_nodes(), distinct.len());
        prop_assert_eq!(interned.len(), distinct.len());
    }
}
