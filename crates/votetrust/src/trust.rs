use crate::RequestGraph;
use socialgraph::NodeId;

/// Tunables of the VoteTrust pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoteTrustConfig {
    /// PageRank damping factor of the vote-assignment walk.
    pub damping: f64,
    /// Power-iteration steps for vote assignment.
    pub vote_iterations: usize,
    /// Uniform mass mixed into the restart vector (`0` = restart only at
    /// seeds). A small floor keeps votes strictly positive everywhere, as
    /// in production PageRank deployments, so the rating weights never
    /// degenerate to all-zero.
    pub restart_smoothing: f64,
    /// Fixed-point iterations for the rating aggregation.
    pub rating_iterations: usize,
    /// Rating assigned to users who never sent a request (their rating is
    /// undefined under vote aggregation). Defaulting to 1.0 treats them as
    /// legitimate — the design decision behind VoteTrust's blind spot for
    /// non-spamming fakes (Fig 10).
    pub default_rating: f64,
}

impl Default for VoteTrustConfig {
    fn default() -> Self {
        VoteTrustConfig {
            damping: 0.85,
            vote_iterations: 30,
            restart_smoothing: 0.1,
            rating_iterations: 20,
            default_rating: 1.0,
        }
    }
}

/// Result of [`VoteTrust::rank`].
#[derive(Debug, Clone, PartialEq)]
pub struct VoteTrustRanking {
    votes: Vec<f64>,
    ratings: Vec<f64>,
}

impl VoteTrustRanking {
    /// Per-user votes (trust mass from the seeded walk).
    pub fn votes(&self) -> &[f64] {
        &self.votes
    }

    /// Per-user ratings in `[0, 1]` (weighted acceptance of their
    /// requests); the detection score, lower = more suspicious.
    pub fn ratings(&self) -> &[f64] {
        &self.ratings
    }

    /// The `n` most suspicious users: ascending rating, ties by ascending
    /// votes, then by id (deterministic).
    pub fn bottom(&self, n: usize) -> Vec<NodeId> {
        let mut idx: Vec<usize> = (0..self.ratings.len()).collect();
        idx.sort_by(|&a, &b| {
            self.ratings[a]
                .total_cmp(&self.ratings[b])
                .then(self.votes[a].total_cmp(&self.votes[b]))
                .then(a.cmp(&b))
        });
        idx.into_iter().take(n).map(NodeId::from_index).collect()
    }
}

/// The VoteTrust ranking algorithm; see the crate docs for the model.
#[derive(Debug, Clone)]
pub struct VoteTrust {
    config: VoteTrustConfig,
}

impl VoteTrust {
    /// Creates a ranker.
    ///
    /// # Panics
    ///
    /// Panics if `damping` is outside `(0, 1)`.
    pub fn new(config: VoteTrustConfig) -> Self {
        assert!(
            config.damping > 0.0 && config.damping < 1.0,
            "damping must be in (0, 1), got {}",
            config.damping
        );
        assert!(
            (0.0..=1.0).contains(&config.restart_smoothing),
            "restart_smoothing must be in [0, 1], got {}",
            config.restart_smoothing
        );
        VoteTrust { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &VoteTrustConfig {
        &self.config
    }

    /// Vote assignment: PageRank with restart at `trusted_seeds` over the
    /// directed request graph (edges sender → recipient). With no seeds the
    /// restart is uniform. Votes sum to 1.
    ///
    /// # Panics
    ///
    /// Panics if a seed id is out of range.
    pub fn votes(&self, g: &RequestGraph, trusted_seeds: &[NodeId]) -> Vec<f64> {
        let n = g.num_nodes();
        if n == 0 {
            return Vec::new();
        }
        for s in trusted_seeds {
            assert!(s.index() < n, "seed {s} out of range");
        }
        let eps = self.config.restart_smoothing;
        #[expect(clippy::as_conversions, reason = "node and seed counts < 2^53 convert exactly")]
        let restart: Vec<f64> = if trusted_seeds.is_empty() {
            vec![1.0 / n as f64; n]
        } else {
            let mut r = vec![eps / n as f64; n];
            for s in trusted_seeds {
                r[s.index()] += (1.0 - eps) / trusted_seeds.len() as f64;
            }
            r
        };
        let d = self.config.damping;
        let mut v = restart.clone();
        for _ in 0..self.config.vote_iterations {
            let mut next = vec![0.0f64; n];
            let mut dangling = 0.0f64;
            for u in g.nodes() {
                let mass = v[u.index()];
                let outs = g.sent(u);
                if outs.is_empty() {
                    dangling += mass;
                } else {
                    #[expect(clippy::as_conversions, reason = "out-degree < 2^53 converts exactly")]
                    let share = mass / outs.len() as f64;
                    for &(t, _) in outs {
                        next[t.index()] += share;
                    }
                }
            }
            for i in 0..n {
                // Dangling mass re-enters through the restart vector.
                next[i] = (1.0 - d) * restart[i] + d * (next[i] + dangling * restart[i]);
            }
            v = next;
        }
        v
    }

    /// Vote aggregation: iterates
    /// `rating(u) = Σ votes(t)·rating(t)·accepted(u→t) / Σ votes(t)·rating(t)`
    /// over `u`'s sent requests. Users with no sent requests (or all-zero
    /// weights) hold `default_rating`.
    ///
    /// # Panics
    ///
    /// Panics if `votes.len() != g.num_nodes()`.
    pub fn ratings(&self, g: &RequestGraph, votes: &[f64]) -> Vec<f64> {
        let n = g.num_nodes();
        assert_eq!(votes.len(), n, "votes vector has wrong length");
        let mut rating = vec![self.config.default_rating; n];
        for _ in 0..self.config.rating_iterations {
            let mut next = rating.clone();
            for u in g.nodes() {
                let sent = g.sent(u);
                if sent.is_empty() {
                    continue;
                }
                let mut num = 0.0f64;
                let mut den = 0.0f64;
                for &(t, accepted) in sent {
                    let w = votes[t.index()] * rating[t.index()];
                    den += w;
                    if accepted {
                        num += w;
                    }
                }
                if den > 0.0 {
                    next[u.index()] = num / den;
                }
            }
            rating = next;
        }
        rating
    }

    /// Runs both steps and returns the full ranking.
    ///
    /// # Panics
    ///
    /// Panics if a seed id is out of range.
    pub fn rank(&self, g: &RequestGraph, trusted_seeds: &[NodeId]) -> VoteTrustRanking {
        let votes = self.votes(g, trusted_seeds);
        let ratings = self.ratings(g, &votes);
        VoteTrustRanking { votes, ratings }
    }
}

impl Default for VoteTrust {
    fn default() -> Self {
        VoteTrust::new(VoteTrustConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 3 legit users requesting each other (accepted); 2 fakes spamming the
    /// legit users (mostly rejected) and accepting each other.
    fn scenario() -> RequestGraph {
        RequestGraph::from_requests(
            5,
            [
                (NodeId(0), NodeId(1), true),
                (NodeId(1), NodeId(2), true),
                (NodeId(2), NodeId(0), true),
                // Fake 3 spams:
                (NodeId(3), NodeId(0), false),
                (NodeId(3), NodeId(1), false),
                (NodeId(3), NodeId(2), true),
                // Fake 4 spams:
                (NodeId(4), NodeId(0), false),
                (NodeId(4), NodeId(2), false),
                // Collusion:
                (NodeId(3), NodeId(4), true),
                (NodeId(4), NodeId(3), true),
            ],
        )
    }

    #[test]
    fn votes_sum_to_one() {
        let g = scenario();
        let vt = VoteTrust::default();
        let v = vt.votes(&g, &[NodeId(0)]);
        let sum: f64 = v.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "votes sum {sum}");
    }

    #[test]
    fn seeded_votes_favor_the_trusted_side() {
        let g = scenario();
        let vt = VoteTrust::default();
        let v = vt.votes(&g, &[NodeId(0), NodeId(1)]);
        let legit: f64 = v[..3].iter().sum();
        let fake: f64 = v[3..].iter().sum();
        assert!(legit > 2.0 * fake, "legit {legit} vs fake {fake}");
    }

    #[test]
    fn spammers_rate_below_legit_users() {
        let g = scenario();
        let vt = VoteTrust::default();
        let ranking = vt.rank(&g, &[NodeId(0)]);
        let r = ranking.ratings();
        assert!(r[3] < r[0] && r[3] < r[1] && r[3] < r[2], "{r:?}");
        assert!(r[4] < r[0], "{r:?}");
        let bottom = ranking.bottom(2);
        assert!(bottom.contains(&NodeId(3)) && bottom.contains(&NodeId(4)), "{bottom:?}");
    }

    #[test]
    fn silent_users_keep_default_rating() {
        let g = RequestGraph::from_requests(3, [(NodeId(0), NodeId(1), false)]);
        let vt = VoteTrust::default();
        let ranking = vt.rank(&g, &[NodeId(1)]);
        assert_eq!(ranking.ratings()[2], 1.0);
        // Node 0's single request was rejected: rating 0.
        assert!(ranking.ratings()[0] < 1e-9);
    }

    #[test]
    fn ratings_stay_within_unit_interval() {
        let g = scenario();
        let vt = VoteTrust::default();
        let ranking = vt.rank(&g, &[]);
        for &r in ranking.ratings() {
            assert!((0.0..=1.0).contains(&r), "rating {r}");
        }
    }

    #[test]
    fn bottom_is_deterministic_under_ties() {
        let g = RequestGraph::new(4);
        let vt = VoteTrust::default();
        let ranking = vt.rank(&g, &[]);
        // Everyone tied at default rating: ids ascending.
        assert_eq!(ranking.bottom(2), vec![NodeId(0), NodeId(1)]);
    }

    #[test]
    fn collusion_lifts_individual_ratings() {
        // Fake 3 with only rejections vs the same fake plus accepted
        // intra-fake requests: the latter must rate higher — the
        // manipulation Rejecto is immune to but VoteTrust is not.
        let lone = RequestGraph::from_requests(
            4,
            [(NodeId(3), NodeId(0), false), (NodeId(3), NodeId(1), false)],
        );
        let colluding = RequestGraph::from_requests(
            6,
            [
                (NodeId(3), NodeId(0), false),
                (NodeId(3), NodeId(1), false),
                (NodeId(3), NodeId(4), true),
                (NodeId(3), NodeId(5), true),
                (NodeId(4), NodeId(3), true),
                (NodeId(5), NodeId(3), true),
            ],
        );
        let vt = VoteTrust::default();
        let r_lone = vt.rank(&lone, &[NodeId(0)]).ratings()[3];
        let r_colluding = vt.rank(&colluding, &[NodeId(0)]).ratings()[3];
        assert!(r_colluding > r_lone, "{r_colluding} <= {r_lone}");
    }

    #[test]
    #[should_panic(expected = "damping")]
    fn rejects_bad_damping() {
        let _ = VoteTrust::new(VoteTrustConfig { damping: 1.0, ..Default::default() });
    }
}
