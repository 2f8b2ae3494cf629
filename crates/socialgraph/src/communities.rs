//! Community detection by synchronous label propagation.
//!
//! §IV-F: "To ensure sufficient seed coverage, one could employ the
//! community-based seed selection as in SybilRank." SybilRank detects
//! communities of the social graph and places trust seeds in each, so that
//! no legitimate community is left unseeded (an unseeded community is
//! exactly the "problematic legitimate-user cut" a spurious MAAR partition
//! could carve off). This module provides the community detector and
//! [`spread_seeds`], the coverage-aware seed picker.

use crate::{Graph, NodeId};
use rand::seq::SliceRandom;
use rand::Rng;

/// A community assignment: `label[u]` identifies `u`'s community; labels
/// are compacted to `0..num_communities`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Communities {
    label: Vec<u32>,
    sizes: Vec<usize>,
}

impl Communities {
    /// The community of node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn community_of(&self, u: NodeId) -> u32 {
        self.label[u.index()]
    }

    /// Number of communities.
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    /// Whether there are no communities (empty graph).
    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }

    /// Community sizes, indexed by label.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Members of community `c`, ascending.
    pub fn members(&self, c: u32) -> Vec<NodeId> {
        self.label
            .iter()
            .enumerate()
            .filter(|&(_, &l)| l == c)
            .map(|(i, _)| NodeId::from_index(i))
            .collect()
    }
}

/// Label propagation: every node starts in its own community; in each
/// round (asynchronous, random node order) a node adopts the most frequent
/// label among its neighbors. Ties keep the node's current label when it
/// is among the maxima, otherwise pick uniformly at random among the tied
/// labels — a *smallest-label* tie-break would let one label invade a
/// neighboring community across a single bridge edge while every
/// neighborhood is still all-singleton. Converges in a few rounds on
/// social graphs.
///
/// Label counts live in a `BTreeMap` so the scan order over candidate
/// labels is the label order itself, never allocator- or hash-seed
/// dependent: for a fixed `rng` seed the outcome is reproducible
/// byte-for-byte (`clippy.toml` bans `HashMap` for exactly this
/// reason).
///
/// `max_rounds` caps the iteration (label propagation can oscillate on
/// bipartite-ish structures).
pub fn label_propagation<R: Rng + ?Sized>(g: &Graph, max_rounds: usize, rng: &mut R) -> Communities {
    let n = g.num_nodes();
    let mut label: Vec<u32> = (0..n as u32).collect();
    let mut order: Vec<usize> = (0..n).collect();
    let mut counts: std::collections::BTreeMap<u32, usize> = std::collections::BTreeMap::new();
    let mut tied: Vec<u32> = Vec::new();

    for _ in 0..max_rounds {
        order.shuffle(rng);
        let mut changed = 0usize;
        for &i in &order {
            let u = NodeId::from_index(i);
            if g.degree(u) == 0 {
                continue;
            }
            counts.clear();
            for &v in g.neighbors(u) {
                *counts.entry(label[v.index()]).or_insert(0) += 1;
            }
            let top = *counts.values().max().expect("non-empty neighbor set");
            tied.clear();
            tied.extend(counts.iter().filter(|&(_, &c)| c == top).map(|(&l, _)| l));
            let current = label[i];
            let best = if tied.contains(&current) {
                current
            } else {
                *tied.choose(rng).expect("at least one maximal label")
            };
            if best != current {
                label[i] = best;
                changed += 1;
            }
        }
        if changed == 0 {
            break;
        }
    }

    // Compact labels (BTreeMap: relabeling is independent of insertion
    // history, so equal label vectors always compact identically).
    let mut remap: std::collections::BTreeMap<u32, u32> = std::collections::BTreeMap::new();
    let mut sizes: Vec<usize> = Vec::new();
    for l in &mut label {
        let next = remap.len() as u32;
        let id = *remap.entry(*l).or_insert(next);
        if id as usize == sizes.len() {
            sizes.push(0);
        }
        sizes[id as usize] += 1;
        *l = id;
    }
    Communities { label, sizes }
}

/// Picks up to `budget` seed nodes spread across communities, with seats
/// allocated **proportionally to community size** (largest-remainder
/// method): every community large enough to matter is anchored, and the
/// bulk of the seed budget stays inside the big communities where the
/// §IV-F spurious cuts could otherwise form. Label propagation on social
/// graphs typically yields a few giant communities plus singleton dust —
/// one-seat-per-community allocation would squander the budget on the
/// dust.
pub fn spread_seeds<R: Rng + ?Sized>(
    g: &Graph,
    communities: &Communities,
    budget: usize,
    rng: &mut R,
) -> Vec<NodeId> {
    let _ = g;
    if budget == 0 || communities.is_empty() {
        return Vec::new();
    }
    let mut per_community: Vec<Vec<NodeId>> = (0..communities.len() as u32)
        .map(|c| {
            let mut m = communities.members(c);
            m.shuffle(rng);
            m
        })
        .collect();
    per_community.sort_by_key(|m| std::cmp::Reverse(m.len()));
    let total: usize = per_community.iter().map(Vec::len).sum();
    let budget = budget.min(total);

    // Largest-remainder apportionment of `budget` seats by size.
    let mut seats: Vec<usize> = Vec::with_capacity(per_community.len());
    let mut remainders: Vec<(f64, usize)> = Vec::with_capacity(per_community.len());
    let mut assigned = 0usize;
    for (i, m) in per_community.iter().enumerate() {
        let exact = budget as f64 * m.len() as f64 / total as f64;
        let floor = (exact.floor() as usize).min(m.len());
        seats.push(floor);
        assigned += floor;
        remainders.push((exact - floor as f64, i));
    }
    remainders.sort_by(|a, b| b.0.total_cmp(&a.0));
    let mut ri = 0usize;
    while assigned < budget && ri < remainders.len() {
        let i = remainders[ri].1;
        if seats[i] < per_community[i].len() {
            seats[i] += 1;
            assigned += 1;
        }
        ri += 1;
        if ri == remainders.len() && assigned < budget {
            // Spill any leftover seats into communities with capacity.
            ri = 0;
        }
    }

    let mut seeds = Vec::with_capacity(budget);
    for (m, &s) in per_community.iter().zip(&seats) {
        seeds.extend(m.iter().copied().take(s));
    }
    seeds.sort_unstable();
    seeds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Two cliques joined by one bridge.
    fn two_cliques() -> Graph {
        let mut edges = Vec::new();
        for u in 0..5u32 {
            for v in (u + 1)..5 {
                edges.push((u, v));
                edges.push((u + 5, v + 5));
            }
        }
        edges.push((0, 5));
        Graph::from_edges(10, edges)
    }

    #[test]
    fn separates_two_cliques() {
        let g = two_cliques();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let c = label_propagation(&g, 16, &mut rng);
        assert_eq!(c.len(), 2, "expected two communities, got {}", c.len());
        // Each clique is uniform.
        for base in [0u32, 5] {
            let l = c.community_of(NodeId(base));
            for i in 1..5 {
                assert_eq!(c.community_of(NodeId(base + i)), l);
            }
        }
        assert_ne!(c.community_of(NodeId(0)), c.community_of(NodeId(5)));
    }

    #[test]
    fn sizes_partition_the_nodes() {
        let g = two_cliques();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let c = label_propagation(&g, 16, &mut rng);
        assert_eq!(c.sizes().iter().sum::<usize>(), 10);
        for label in 0..c.len() as u32 {
            assert_eq!(c.members(label).len(), c.sizes()[label as usize]);
        }
    }

    #[test]
    fn spread_seeds_anchors_equal_communities_evenly() {
        let g = two_cliques();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let c = label_propagation(&g, 16, &mut rng);
        // With a budget of 2 per community, allocation is proportional.
        let budget = 2 * c.len();
        let seeds = spread_seeds(&g, &c, budget, &mut rng);
        assert_eq!(seeds.len(), budget);
        let mut per: std::collections::BTreeMap<u32, usize> = Default::default();
        for &s in &seeds {
            *per.entry(c.community_of(s)).or_insert(0) += 1;
        }
        assert_eq!(per.len(), c.len(), "every community holds a seed");
        for (&label, &count) in &per {
            let size = c.sizes()[label as usize];
            // Proportional: seats ≈ budget·size/total, within one.
            let exact = budget as f64 * size as f64 / 10.0;
            assert!(
                (count as f64 - exact).abs() <= 1.0,
                "community {label}: {count} seats for size {size}"
            );
        }
    }

    #[test]
    fn spread_seeds_favors_large_communities() {
        // A 12-clique plus 4 isolated singletons: with budget 4, at least
        // 3 seeds land in the clique (proportional, not one-per-community).
        let mut edges = Vec::new();
        for u in 0..12u32 {
            for v in (u + 1)..12 {
                edges.push((u, v));
            }
        }
        let g = Graph::from_edges(16, edges);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let c = label_propagation(&g, 16, &mut rng);
        let seeds = spread_seeds(&g, &c, 4, &mut rng);
        let in_clique = seeds.iter().filter(|s| s.0 < 12).count();
        assert!(in_clique >= 3, "only {in_clique} seeds in the giant community");
    }

    #[test]
    fn spread_seeds_caps_at_population() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let c = label_propagation(&g, 8, &mut rng);
        let seeds = spread_seeds(&g, &c, 50, &mut rng);
        assert_eq!(seeds.len(), 3);
    }

    #[test]
    fn isolated_nodes_keep_singleton_communities() {
        let g = Graph::from_edges(4, [(0, 1)]);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let c = label_propagation(&g, 8, &mut rng);
        // 0-1 merge into one; 2 and 3 stand alone.
        assert_eq!(c.len(), 3);
    }
}
