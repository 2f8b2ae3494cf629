//! Property-based tests for the graph substrate.

#![deny(clippy::unwrap_used)]

use proptest::prelude::*;
use socialgraph::{io, metrics, Graph, GraphBuilder, NodeId};

fn random_graph(n: usize) -> impl Strategy<Value = Graph> {
    let nodes = 1..n;
    nodes.prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..n * 3)
            .prop_map(move |edges| Graph::from_edges(n, edges))
    })
}

proptest! {
    /// Degree sum equals twice the edge count (handshake lemma), and
    /// adjacency is symmetric.
    #[test]
    fn handshake_and_symmetry(g in random_graph(32)) {
        let degree_sum: u64 = g.nodes().map(|u| g.degree(u) as u64).sum();
        prop_assert_eq!(degree_sum, 2 * g.num_edges());
        for u in g.nodes() {
            for &v in g.neighbors(u) {
                prop_assert!(g.has_edge(v, u), "asymmetric edge ({u}, {v})");
                prop_assert_ne!(u, v, "self-loop survived");
            }
        }
    }

    /// The edges iterator yields each undirected edge exactly once.
    #[test]
    fn edges_iterator_is_exact(g in random_graph(24)) {
        let listed: Vec<_> = g.edges().collect();
        prop_assert_eq!(listed.len() as u64, g.num_edges());
        for &(u, v) in &listed {
            prop_assert!(u < v);
            prop_assert!(g.has_edge(u, v));
        }
        let mut dedup = listed.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), listed.len());
    }

    /// Edge-list write/read round trips to an isomorphic graph (identical
    /// under the dense relabeling order, modulo isolated nodes which the
    /// text format cannot represent).
    #[test]
    fn edge_list_roundtrip(g in random_graph(24)) {
        let mut buf = Vec::new();
        io::write_edge_list(&g, &mut buf).expect("write to Vec cannot fail");
        let (g2, labels) = io::read_edge_list(buf.as_slice()).expect("roundtrip parses");
        prop_assert_eq!(g2.num_edges(), g.num_edges());
        for (u, v) in g2.edges() {
            let (ou, ov) = (labels[u.index()] as u32, labels[v.index()] as u32);
            prop_assert!(g.has_edge(NodeId(ou), NodeId(ov)));
        }
    }

    /// Clustering coefficient is a probability; triangle counts are
    /// symmetric in their computation.
    #[test]
    fn clustering_is_bounded(g in random_graph(20)) {
        let cc = metrics::average_clustering(&g);
        prop_assert!((0.0..=1.0).contains(&cc), "clustering {cc}");
    }

    /// BFS distances satisfy the triangle property along edges: adjacent
    /// nodes' distances differ by at most 1 (when both reachable).
    #[test]
    fn bfs_is_lipschitz_along_edges(g in random_graph(24)) {
        if g.num_nodes() == 0 { return Ok(()); }
        let dist = metrics::bfs_distances(&g, NodeId(0));
        for (u, v) in g.edges() {
            let (du, dv) = (dist[u.index()], dist[v.index()]);
            if du != u32::MAX && dv != u32::MAX {
                prop_assert!(du.abs_diff(dv) <= 1, "edge ({u},{v}): {du} vs {dv}");
            } else {
                prop_assert_eq!(du, dv, "edge with one endpoint unreachable");
            }
        }
    }

    /// Components partition the node set.
    #[test]
    fn components_partition_nodes(g in random_graph(24)) {
        let comps = metrics::connected_components(&g);
        let total: usize = comps.iter().map(Vec::len).sum();
        prop_assert_eq!(total, g.num_nodes());
        let mut seen = vec![false; g.num_nodes()];
        for c in &comps {
            for u in c {
                prop_assert!(!seen[u.index()], "node {u} in two components");
                seen[u.index()] = true;
            }
        }
    }

    /// The builder is idempotent under duplicate edge insertion.
    #[test]
    fn builder_dedupes(
        n in 2usize..16,
        edges in proptest::collection::vec((0u32..16, 0u32..16), 0..40),
    ) {
        let edges: Vec<(u32, u32)> = edges
            .into_iter()
            .map(|(u, v)| (u % n as u32, v % n as u32))
            .collect();
        let mut b1 = GraphBuilder::new(n);
        for &(u, v) in &edges {
            b1.add_edge(NodeId(u), NodeId(v));
        }
        let mut b2 = GraphBuilder::new(n);
        for &(u, v) in edges.iter().chain(edges.iter()) {
            b2.add_edge(NodeId(u), NodeId(v));
        }
        prop_assert_eq!(b1.build(), b2.build());
    }
}
