//! Structural analysis beyond the Table-I basics: power-law exponents,
//! degree assortativity, and k-core decomposition.
//!
//! These characterize how faithful a surrogate is to its original dataset
//! (degree skew and core structure shape how trust and cuts behave), and
//! they are the standard toolkit an OSN analyst runs before deploying a
//! graph-based defense.

use crate::{Graph, NodeId};

/// Maximum-likelihood estimate of a discrete power-law exponent `α` for
/// the degree tail `deg >= d_min` (Clauset–Shalizi–Newman continuous
/// approximation: `α = 1 + n / Σ ln(d_i / (d_min − ½))`).
///
/// Returns `None` if fewer than 10 nodes have degree `>= d_min`.
///
/// # Panics
///
/// Panics if `d_min < 1`.
pub fn power_law_alpha(g: &Graph, d_min: usize) -> Option<f64> {
    assert!(d_min >= 1, "d_min must be at least 1");
    let tail: Vec<f64> = g
        .nodes()
        .map(|u| g.degree(u))
        .filter(|&d| d >= d_min)
        .map(|d| d as f64)
        .collect();
    if tail.len() < 10 {
        return None;
    }
    let denom = crate::det::ordered_sum(tail.iter().map(|&d| (d / (d_min as f64 - 0.5)).ln()));
    Some(1.0 + tail.len() as f64 / denom)
}

/// Pearson degree assortativity: the correlation of endpoint degrees over
/// edges. Social networks are typically assortative (> 0); BA-style
/// synthetic graphs are neutral-to-disassortative.
///
/// Returns `None` for graphs with no edges or zero degree variance.
pub fn degree_assortativity(g: &Graph) -> Option<f64> {
    let m = g.num_edges();
    if m == 0 {
        return None;
    }
    // Standard formulation over undirected edges, counting each edge with
    // both orientations.
    let (mut sum_xy, mut sum_x, mut sum_x2) = (0.0f64, 0.0f64, 0.0f64);
    let count = (2 * m) as f64;
    for (u, v) in g.edges() {
        let (du, dv) = (g.degree(u) as f64, g.degree(v) as f64);
        sum_xy += 2.0 * du * dv;
        sum_x += du + dv;
        sum_x2 += du * du + dv * dv;
    }
    let mean = sum_x / count;
    let var = sum_x2 / count - mean * mean;
    if var <= 0.0 {
        return None;
    }
    let cov = sum_xy / count - mean * mean;
    Some(cov / var)
}

/// K-core decomposition: `core[u]` is the largest `k` such that `u`
/// belongs to a subgraph where every node has degree ≥ `k`
/// (Batagelj–Zaveršnik peeling, `O(V + E)`).
pub fn core_numbers(g: &Graph) -> Vec<u32> {
    let n = g.num_nodes();
    if n == 0 {
        return Vec::new();
    }
    let mut degree: Vec<usize> = g.nodes().map(|u| g.degree(u)).collect();
    let max_deg = degree.iter().copied().max().unwrap_or(0);

    // Bucket sort nodes by current degree.
    let mut bins = vec![0usize; max_deg + 2];
    for &d in &degree {
        bins[d] += 1;
    }
    let mut start = 0usize;
    for b in bins.iter_mut() {
        let count = *b;
        *b = start;
        start += count;
    }
    let mut pos = vec![0usize; n];
    let mut order = vec![0usize; n];
    {
        let mut next = bins.clone();
        for (i, &d) in degree.iter().enumerate() {
            pos[i] = next[d];
            order[next[d]] = i;
            next[d] += 1;
        }
    }

    let mut core = vec![0u32; n];
    for idx in 0..n {
        let u = order[idx];
        core[u] = degree[u] as u32;
        for &v in g.neighbors(NodeId::from_index(u)) {
            let v = v.index();
            if degree[v] > degree[u] {
                // Move v one bucket down: swap it with the first node of
                // its current bucket, then shrink the bucket boundary.
                let dv = degree[v];
                let pv = pos[v];
                let pw = bins[dv];
                let w = order[pw];
                if v != w {
                    order[pv] = w;
                    order[pw] = v;
                    pos[v] = pw;
                    pos[w] = pv;
                }
                bins[dv] += 1;
                degree[v] -= 1;
            }
        }
    }
    core
}

/// The maximum core number (graph degeneracy).
pub fn degeneracy(g: &Graph) -> u32 {
    core_numbers(g).into_iter().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{BarabasiAlbert, WattsStrogatz};
    use crate::Graph;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn ba_alpha_is_near_three() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let g = BarabasiAlbert::new(20_000, 4).generate(&mut rng);
        let alpha = power_law_alpha(&g, 8).expect("enough tail");
        assert!((2.2..4.0).contains(&alpha), "BA exponent {alpha} not ≈ 3");
    }

    #[test]
    fn lattice_has_no_power_law_tail() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let g = WattsStrogatz::new(200, 4, 0.0).generate(&mut rng);
        // Everyone has degree 4; a tail at d_min=5 is empty.
        assert!(power_law_alpha(&g, 5).is_none());
    }

    #[test]
    fn star_is_disassortative() {
        let g = Graph::from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]);
        let r = degree_assortativity(&g).expect("fixture has degree variance");
        assert!(r < -0.9, "star assortativity {r}");
    }

    #[test]
    fn regular_graph_has_no_defined_assortativity() {
        // A cycle: every node degree 2 ⇒ zero variance.
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert!(degree_assortativity(&g).is_none());
    }

    #[test]
    fn core_numbers_of_clique_plus_tail() {
        // Triangle {0,1,2} (2-core) with pendant 3 attached to 0 (1-core)
        // and isolated 4 (0-core).
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (0, 2), (0, 3)]);
        let core = core_numbers(&g);
        assert_eq!(core, vec![2, 2, 2, 1, 0]);
        assert_eq!(degeneracy(&g), 2);
    }

    #[test]
    fn ba_degeneracy_equals_m() {
        // BA with attachment m yields an m-degenerate graph (each arrival
        // has exactly m edges at insertion time).
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let g = BarabasiAlbert::new(500, 3).generate(&mut rng);
        assert_eq!(degeneracy(&g), 3);
    }

    #[test]
    fn core_numbers_respect_subgraph_property() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let g = BarabasiAlbert::new(300, 2).generate(&mut rng);
        let core = core_numbers(&g);
        // Every node's core number is at most its degree.
        for u in g.nodes() {
            assert!(core[u.index()] as usize <= g.degree(u));
        }
        // Nodes of the k-core have >= k neighbors inside the k-core.
        let k = degeneracy(&g);
        for u in g.nodes() {
            if core[u.index()] == k {
                let inside = g
                    .neighbors(u)
                    .iter()
                    .filter(|v| core[v.index()] >= k)
                    .count();
                assert!(inside >= k as usize, "node {u} has {inside} < {k}");
            }
        }
    }

    #[test]
    fn empty_graph_is_handled() {
        let g = Graph::from_edges(0, []);
        assert!(core_numbers(&g).is_empty());
        assert_eq!(degeneracy(&g), 0);
    }
}
