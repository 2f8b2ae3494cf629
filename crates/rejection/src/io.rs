//! Persistence for rejection-augmented graphs.
//!
//! A plain-text line format, one edge per line:
//!
//! ```text
//! # rejecto augmented graph v1: nodes=<n>
//! F <u> <v>     # undirected friendship
//! R <u> <v>     # u rejected v's request
//! ```
//!
//! OSN operators export their (friendship, rejection) logs in this shape
//! and run the detector offline; the CLI's `detect` subcommand consumes it.

// Hostile-input and cut-bookkeeping arithmetic: a silently wrapping
// counter is an adversarial primitive, so `as` casts are audited here.
#![cfg_attr(not(test), deny(clippy::as_conversions))]

use crate::{AugmentedGraph, AugmentedGraphBuilder, NodeId};
use std::fmt;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};

pub use socialgraph::io::LoadStats;

/// Errors from reading an augmented-graph file.
#[derive(Debug)]
#[non_exhaustive]
pub enum AugmentedIoError {
    /// The header line is missing or malformed.
    BadHeader {
        /// What was found instead.
        found: String,
    },
    /// An edge line could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// The offending token (or `"<end of line>"` for a truncated line).
        token: String,
        /// The unparsable content.
        content: String,
    },
    /// An edge referenced a node outside the declared node count.
    NodeOutOfRange {
        /// 1-based line number.
        line: usize,
        /// The offending id.
        node: u32,
    },
    /// A structurally valid edge line that a well-formed export never
    /// contains: a self-loop, an exact duplicate of an earlier edge, or
    /// (when [`IngestGuards::reject_conflicts`] is set) a friendship that
    /// contradicts an already-recorded rejection between the same pair.
    /// Strict loads fail here; lenient loads skip and count the line.
    HostileEdge {
        /// 1-based line number.
        line: usize,
        /// What made the edge hostile (`"self-loop"`, `"duplicate edge"`,
        /// `"conflicting friend+rejection pair"`).
        kind: &'static str,
        /// First endpoint as written.
        u: u32,
        /// Second endpoint as written.
        v: u32,
    },
    /// The input would grow a resource past an explicit budget (or past a
    /// structural ceiling such as the `u32` dense-id space), so the loader
    /// refused to keep allocating. Fatal even in lenient mode: an input
    /// over budget is over budget no matter how many lines are skipped.
    ResourceExhausted {
        /// Which resource ran out (`"nodes"`, `"friendships"`,
        /// `"rejections"`, `"node ids"`).
        resource: &'static str,
        /// The configured (or structural) limit.
        limit: u64,
        /// The observed demand that exceeded it.
        observed: u64,
    },
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// An error annotated with the path of the file it came from.
    InFile {
        /// Path of the file being read.
        file: String,
        /// The underlying error (carries the 1-based line and token for
        /// parse errors).
        source: Box<AugmentedIoError>,
    },
}

impl AugmentedIoError {
    /// Wraps the error with the path of the file it came from. Callers
    /// that open files themselves attach the path at the call site, since
    /// the readers only see an anonymous `Read`.
    #[must_use]
    pub fn in_file(self, file: impl Into<String>) -> AugmentedIoError {
        AugmentedIoError::InFile { file: file.into(), source: Box::new(self) }
    }
}

impl fmt::Display for AugmentedIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AugmentedIoError::BadHeader { found } => {
                write!(f, "missing or malformed header line, found {found:?}")
            }
            AugmentedIoError::Parse { line, token, content } => {
                write!(f, "cannot parse edge line {line}: bad token {token:?} in {content:?}")
            }
            AugmentedIoError::NodeOutOfRange { line, node } => {
                write!(f, "node id {node} out of range on line {line}")
            }
            AugmentedIoError::HostileEdge { line, kind, u, v } => {
                write!(f, "hostile edge on line {line}: {kind} ({u}, {v})")
            }
            AugmentedIoError::ResourceExhausted { resource, limit, observed } => write!(
                f,
                "resource budget exhausted: {resource}: observed {observed} exceeds limit {limit}"
            ),
            AugmentedIoError::Io(e) => write!(f, "augmented-graph i/o error: {e}"),
            AugmentedIoError::InFile { file, source } => write!(f, "{file}: {source}"),
        }
    }
}

impl std::error::Error for AugmentedIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AugmentedIoError::Io(e) => Some(e),
            AugmentedIoError::InFile { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

impl From<std::io::Error> for AugmentedIoError {
    fn from(e: std::io::Error) -> Self {
        AugmentedIoError::Io(e)
    }
}

const HEADER_PREFIX: &str = "# rejecto augmented graph v1: nodes=";

/// Ingest-time guards for hostile or over-sized augmented-graph files.
///
/// The default is fully permissive (no budgets, conflicts tolerated), which
/// matches the historical loader behaviour. Budgets are enforced *before*
/// allocation — a header declaring a trillion nodes fails fast instead of
/// ballooning memory — and remain fatal even in lenient mode.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestGuards {
    /// Maximum declared node count (`None` = unlimited).
    pub max_nodes: Option<u64>,
    /// Maximum accepted friendship lines (`None` = unlimited).
    pub max_friendships: Option<u64>,
    /// Maximum accepted rejection lines (`None` = unlimited).
    pub max_rejections: Option<u64>,
    /// Reject a friendship and a rejection between the same user pair as a
    /// [`AugmentedIoError::HostileEdge`]. Off by default: the simulator
    /// legitimately produces careless users who accept one request from a
    /// spammer and reject the next.
    pub reject_conflicts: bool,
}

impl IngestGuards {
    /// Guards that never trip: no budgets, conflicts tolerated.
    #[must_use]
    pub fn unlimited() -> Self {
        IngestGuards::default()
    }

    /// Whether any budget or conflict check is active.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.max_nodes.is_some()
            || self.max_friendships.is_some()
            || self.max_rejections.is_some()
            || self.reject_conflicts
    }
}

/// Writes `g` in the v1 text format.
///
/// # Errors
///
/// Returns [`AugmentedIoError::Io`] on write failures.
pub fn write_augmented<W: Write>(g: &AugmentedGraph, writer: W) -> Result<(), AugmentedIoError> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "{HEADER_PREFIX}{}", g.num_nodes())?;
    for u in g.nodes() {
        for &v in g.friends(u) {
            if u < v {
                writeln!(w, "F {u} {v}")?;
            }
        }
        for &v in g.rejected_by(u) {
            writeln!(w, "R {u} {v}")?;
        }
    }
    w.flush()?;
    Ok(())
}

/// Reads a v1 augmented-graph file.
///
/// # Errors
///
/// Returns a parse/header/range error as appropriate, or
/// [`AugmentedIoError::Io`] on read failures.
pub fn read_augmented<R: Read>(reader: R) -> Result<AugmentedGraph, AugmentedIoError> {
    let (g, _) = read_augmented_impl(reader, false, IngestGuards::default())?;
    Ok(g)
}

/// Like [`read_augmented`], with explicit [`IngestGuards`]: node/edge
/// budgets enforced before allocation and optional friend+rejection
/// conflict rejection.
///
/// # Errors
///
/// Everything [`read_augmented`] returns, plus
/// [`AugmentedIoError::ResourceExhausted`] when a guard trips.
pub fn read_augmented_guarded<R: Read>(
    reader: R,
    guards: IngestGuards,
) -> Result<AugmentedGraph, AugmentedIoError> {
    let (g, _) = read_augmented_impl(reader, false, guards)?;
    Ok(g)
}

/// Like [`read_augmented_lenient`], with explicit [`IngestGuards`].
/// Hostile edges are skipped and counted; budget trips stay fatal.
///
/// # Errors
///
/// Everything [`read_augmented_lenient`] returns, plus
/// [`AugmentedIoError::ResourceExhausted`] when a guard trips.
pub fn read_augmented_lenient_guarded<R: Read>(
    reader: R,
    guards: IngestGuards,
) -> Result<(AugmentedGraph, LoadStats), AugmentedIoError> {
    read_augmented_impl(reader, true, guards)
}

/// Like [`read_augmented`], but malformed and out-of-range edge lines are
/// skipped and counted instead of failing the whole load. The header stays
/// strict — without a trustworthy node count nothing downstream is
/// meaningful — and I/O errors remain fatal. The returned [`LoadStats`]
/// lets the caller report how much input was dropped.
///
/// # Errors
///
/// Returns [`AugmentedIoError::BadHeader`] on a missing/malformed header
/// and [`AugmentedIoError::Io`] on read failures.
pub fn read_augmented_lenient<R: Read>(
    reader: R,
) -> Result<(AugmentedGraph, LoadStats), AugmentedIoError> {
    read_augmented_impl(reader, true, IngestGuards::default())
}

enum EdgeKind {
    Friend,
    Reject,
}

/// Parses one non-comment edge line against the declared node count `n`,
/// naming the offending token on failure.
fn parse_augmented_line(
    trimmed: &str,
    lineno: usize,
    n: usize,
) -> Result<(EdgeKind, u32, u32), AugmentedIoError> {
    let bad = |token: &str| AugmentedIoError::Parse {
        line: lineno,
        token: token.to_string(),
        content: trimmed.to_string(),
    };
    let mut parts = trimmed.split_whitespace();
    let kind = match parts.next() {
        Some("F") => EdgeKind::Friend,
        Some("R") => EdgeKind::Reject,
        Some(other) => return Err(bad(other)),
        None => return Err(bad("<end of line>")),
    };
    let id = |tok: Option<&str>| -> Result<u32, AugmentedIoError> {
        match tok {
            Some(t) => t.parse().map_err(|_| bad(t)),
            None => Err(bad("<end of line>")),
        }
    };
    let u = id(parts.next())?;
    let v = id(parts.next())?;
    for x in [u, v] {
        if usize::try_from(x).map_or(true, |xi| xi >= n) {
            return Err(AugmentedIoError::NodeOutOfRange { line: lineno, node: x });
        }
    }
    Ok((kind, u, v))
}

/// Classifies a parsed edge against what the builder has already recorded.
/// Returns the hostile-edge `kind` or `None` for a clean, novel edge.
fn hostile_kind(
    b: &AugmentedGraphBuilder,
    kind: &EdgeKind,
    u: NodeId,
    v: NodeId,
    guards: IngestGuards,
) -> Option<&'static str> {
    if u == v {
        return Some("self-loop");
    }
    match kind {
        EdgeKind::Friend => {
            if b.contains_friendship(u, v) {
                Some("duplicate edge")
            } else if guards.reject_conflicts
                && (b.contains_rejection(u, v) || b.contains_rejection(v, u))
            {
                Some("conflicting friend+rejection pair")
            } else {
                None
            }
        }
        EdgeKind::Reject => {
            if b.contains_rejection(u, v) {
                Some("duplicate edge")
            } else if guards.reject_conflicts && b.contains_friendship(u, v) {
                Some("conflicting friend+rejection pair")
            } else {
                None
            }
        }
    }
}

fn read_augmented_impl<R: Read>(
    reader: R,
    lenient: bool,
    guards: IngestGuards,
) -> Result<(AugmentedGraph, LoadStats), AugmentedIoError> {
    let mut lines = BufReader::new(reader).lines();
    let header = lines
        .next()
        .transpose()?
        .ok_or_else(|| AugmentedIoError::BadHeader { found: "<empty file>".to_string() })?;
    let n: usize = header
        .strip_prefix(HEADER_PREFIX)
        .and_then(|rest| rest.trim().parse().ok())
        .ok_or_else(|| AugmentedIoError::BadHeader { found: header.clone() })?;

    // Gate the declared node count BEFORE the builder allocates three
    // `Vec`s of `n` lists: a hostile header is the cheapest way to demand
    // unbounded memory. The dense `u32` id space is a structural ceiling
    // even with no configured budget.
    let declared = u64::try_from(n).expect("declared node count fits in u64");
    if declared > u64::from(u32::MAX) {
        return Err(AugmentedIoError::ResourceExhausted {
            resource: "node ids",
            limit: u64::from(u32::MAX),
            observed: declared,
        });
    }
    if let Some(max) = guards.max_nodes {
        if declared > max {
            return Err(AugmentedIoError::ResourceExhausted {
                resource: "nodes",
                limit: max,
                observed: declared,
            });
        }
    }

    let mut b = AugmentedGraphBuilder::new(n);
    let mut stats = LoadStats::default();
    let mut friendships = 0u64;
    let mut rejections = 0u64;
    for (i, line) in lines.enumerate() {
        let lineno = i + 2;
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        // parse_augmented_line only yields Parse / NodeOutOfRange, both of
        // which lenient mode downgrades to a skip; Io stays fatal above,
        // and budget trips below stay fatal in both modes.
        match parse_augmented_line(trimmed, lineno, n) {
            Ok((kind, ur, vr)) => {
                let (u, v) = (NodeId(ur), NodeId(vr));
                if let Some(hostile) = hostile_kind(&b, &kind, u, v, guards) {
                    if lenient {
                        stats.record(lineno);
                        continue;
                    }
                    return Err(AugmentedIoError::HostileEdge {
                        line: lineno,
                        kind: hostile,
                        u: ur,
                        v: vr,
                    });
                }
                match kind {
                    EdgeKind::Friend => {
                        if let Some(max) = guards.max_friendships {
                            if friendships >= max {
                                return Err(AugmentedIoError::ResourceExhausted {
                                    resource: "friendships",
                                    limit: max,
                                    observed: friendships
                                        .checked_add(1)
                                        .expect("friendship count fits in u64"),
                                });
                            }
                        }
                        friendships =
                            friendships.checked_add(1).expect("friendship count fits in u64");
                        b.add_friendship(u, v);
                    }
                    EdgeKind::Reject => {
                        if let Some(max) = guards.max_rejections {
                            if rejections >= max {
                                return Err(AugmentedIoError::ResourceExhausted {
                                    resource: "rejections",
                                    limit: max,
                                    observed: rejections
                                        .checked_add(1)
                                        .expect("rejection count fits in u64"),
                                });
                            }
                        }
                        rejections =
                            rejections.checked_add(1).expect("rejection count fits in u64");
                        b.add_rejection(u, v);
                    }
                }
            }
            Err(e) => {
                if lenient {
                    stats.record(lineno);
                    continue;
                }
                return Err(e);
            }
        }
    }
    Ok((b.build(), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AugmentedGraphBuilder;

    fn sample() -> AugmentedGraph {
        let mut b = AugmentedGraphBuilder::new(4);
        b.add_friendship(NodeId(0), NodeId(1));
        b.add_friendship(NodeId(2), NodeId(3));
        b.add_rejection(NodeId(1), NodeId(2));
        b.add_rejection(NodeId(3), NodeId(0));
        b.build()
    }

    #[test]
    fn roundtrips_exactly() {
        let g = sample();
        let mut buf = Vec::new();
        write_augmented(&g, &mut buf).expect("write to Vec cannot fail");
        let g2 = read_augmented(buf.as_slice()).expect("roundtrip parses");
        assert_eq!(g, g2);
    }

    #[test]
    fn preserves_rejection_direction() {
        let g = sample();
        let mut buf = Vec::new();
        write_augmented(&g, &mut buf).expect("write to Vec cannot fail");
        let g2 = read_augmented(buf.as_slice()).expect("roundtrip parses");
        assert!(g2.has_rejection(NodeId(1), NodeId(2)));
        assert!(!g2.has_rejection(NodeId(2), NodeId(1)));
    }

    #[test]
    fn rejects_missing_header() {
        let err = read_augmented("F 0 1\n".as_bytes()).expect_err("must be rejected");
        assert!(matches!(err, AugmentedIoError::BadHeader { .. }));
    }

    #[test]
    fn rejects_unknown_edge_kind() {
        let data = format!("{HEADER_PREFIX}3\nX 0 1\n");
        let err = read_augmented(data.as_bytes()).expect_err("must be rejected");
        match err {
            AugmentedIoError::Parse { line, token, .. } => {
                assert_eq!(line, 2);
                assert_eq!(token, "X");
            }
            other => panic!("expected Parse, got {other}"),
        }
    }

    #[test]
    fn parse_error_names_the_bad_endpoint_token() {
        let data = format!("{HEADER_PREFIX}3\nF 0 1\nR 1 banana\n");
        let err = read_augmented(data.as_bytes()).expect_err("must be rejected");
        match err {
            AugmentedIoError::Parse { line, token, content } => {
                assert_eq!(line, 3);
                assert_eq!(token, "banana");
                assert_eq!(content, "R 1 banana");
            }
            other => panic!("expected Parse, got {other}"),
        }
    }

    #[test]
    fn truncated_line_reports_end_of_line() {
        let data = format!("{HEADER_PREFIX}3\nF 0\n");
        let err = read_augmented(data.as_bytes()).expect_err("must be rejected");
        match err {
            AugmentedIoError::Parse { token, .. } => assert_eq!(token, "<end of line>"),
            other => panic!("expected Parse, got {other}"),
        }
    }

    #[test]
    fn in_file_prepends_the_path_and_chains_the_source() {
        use std::error::Error;
        let data = format!("{HEADER_PREFIX}3\nX 0 1\n");
        let err = read_augmented(data.as_bytes()).expect_err("must be rejected").in_file("attack.rjg");
        let msg = err.to_string();
        assert!(msg.starts_with("attack.rjg: "), "{msg}");
        assert!(msg.contains("line 2"), "{msg}");
        assert!(err.source().is_some());
    }

    #[test]
    fn lenient_mode_skips_and_counts_bad_lines() {
        let data = format!("{HEADER_PREFIX}3\nF 0 1\nX 0 1\nR 1 2\nF 0 99\nR 9 bad\n");
        let (g, stats) = read_augmented_lenient(data.as_bytes()).expect("lenient load");
        assert_eq!(g.num_friendships(), 1);
        assert_eq!(g.num_rejections(), 1);
        assert_eq!(stats.skipped_lines, 3);
        assert_eq!(stats.first_skipped, Some(3));
    }

    #[test]
    fn lenient_mode_still_rejects_a_bad_header() {
        let err = read_augmented_lenient("F 0 1\n".as_bytes()).expect_err("must be rejected");
        assert!(matches!(err, AugmentedIoError::BadHeader { .. }));
    }

    #[test]
    fn lenient_mode_matches_strict_on_clean_input() {
        let g = sample();
        let mut buf = Vec::new();
        write_augmented(&g, &mut buf).expect("write to Vec cannot fail");
        let strict = read_augmented(buf.as_slice()).expect("strict load");
        let (lenient, stats) = read_augmented_lenient(buf.as_slice()).expect("lenient load");
        assert_eq!(strict, lenient);
        assert!(!stats.is_degraded());
    }

    #[test]
    fn rejects_out_of_range_nodes() {
        let data = format!("{HEADER_PREFIX}2\nF 0 5\n");
        let err = read_augmented(data.as_bytes()).expect_err("must be rejected");
        assert!(matches!(err, AugmentedIoError::NodeOutOfRange { node: 5, .. }));
    }

    #[test]
    fn tolerates_comments_and_blanks() {
        let data = format!("{HEADER_PREFIX}2\n\n# comment\nF 0 1\n");
        let g = read_augmented(data.as_bytes()).expect("fixture parses");
        assert_eq!(g.num_friendships(), 1);
    }

    #[test]
    fn empty_graph_roundtrips() {
        let g = AugmentedGraphBuilder::new(0).build();
        let mut buf = Vec::new();
        write_augmented(&g, &mut buf).expect("write to Vec cannot fail");
        let g2 = read_augmented(buf.as_slice()).expect("roundtrip parses");
        assert_eq!(g2.num_nodes(), 0);
    }

    #[test]
    fn strict_rejects_self_loops_with_a_typed_error() {
        let data = format!("{HEADER_PREFIX}3\nF 1 1\n");
        let err = read_augmented(data.as_bytes()).expect_err("must be rejected");
        assert!(
            matches!(err, AugmentedIoError::HostileEdge { line: 2, kind: "self-loop", u: 1, v: 1 }),
            "{err}"
        );
    }

    #[test]
    fn strict_rejects_duplicate_friendships_either_order() {
        let data = format!("{HEADER_PREFIX}3\nF 0 1\nF 1 0\n");
        let err = read_augmented(data.as_bytes()).expect_err("must be rejected");
        assert!(
            matches!(err, AugmentedIoError::HostileEdge { line: 3, kind: "duplicate edge", .. }),
            "{err}"
        );
    }

    #[test]
    fn strict_rejects_duplicate_rejections_but_not_the_reverse_direction() {
        let ok = format!("{HEADER_PREFIX}3\nR 0 1\nR 1 0\n");
        read_augmented(ok.as_bytes()).expect("opposite directions are distinct edges");
        let dup = format!("{HEADER_PREFIX}3\nR 0 1\nR 0 1\n");
        let err = read_augmented(dup.as_bytes()).expect_err("must be rejected");
        assert!(
            matches!(err, AugmentedIoError::HostileEdge { kind: "duplicate edge", .. }),
            "{err}"
        );
    }

    #[test]
    fn conflicts_are_tolerated_by_default_and_rejected_on_request() {
        // A careless user accepts one request from a spammer and rejects
        // the next — legitimate in simulator output.
        let data = format!("{HEADER_PREFIX}3\nF 0 1\nR 0 1\n");
        let g = read_augmented(data.as_bytes()).expect("conflicts allowed by default");
        assert_eq!(g.num_friendships(), 1);
        assert_eq!(g.num_rejections(), 1);

        let guards = IngestGuards { reject_conflicts: true, ..IngestGuards::default() };
        let err = read_augmented_guarded(data.as_bytes(), guards).expect_err("must be rejected");
        assert!(
            matches!(
                err,
                AugmentedIoError::HostileEdge {
                    kind: "conflicting friend+rejection pair",
                    ..
                }
            ),
            "{err}"
        );
        // Reversed order (rejection first, then friendship) trips too.
        let rev = format!("{HEADER_PREFIX}3\nR 1 0\nF 0 1\n");
        let err = read_augmented_guarded(rev.as_bytes(), guards).expect_err("must be rejected");
        assert!(
            matches!(
                err,
                AugmentedIoError::HostileEdge {
                    kind: "conflicting friend+rejection pair",
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn lenient_mode_skips_and_counts_hostile_edges() {
        let data = format!("{HEADER_PREFIX}3\nF 0 1\nF 0 1\nF 2 2\nR 1 2\nR 1 2\n");
        let (g, stats) = read_augmented_lenient(data.as_bytes()).expect("lenient load");
        assert_eq!(g.num_friendships(), 1);
        assert_eq!(g.num_rejections(), 1);
        assert_eq!(stats.skipped_lines, 3);
        assert_eq!(stats.first_skipped, Some(3));
    }

    #[test]
    fn oversized_header_fails_before_allocating() {
        let data = format!("{HEADER_PREFIX}4294967296\n");
        let err = read_augmented(data.as_bytes()).expect_err("must be rejected");
        assert!(
            matches!(
                err,
                AugmentedIoError::ResourceExhausted { resource: "node ids", .. }
            ),
            "{err}"
        );
    }

    #[test]
    fn node_budget_gates_the_declared_count() {
        let guards = IngestGuards { max_nodes: Some(10), ..IngestGuards::default() };
        let data = format!("{HEADER_PREFIX}11\n");
        let err = read_augmented_guarded(data.as_bytes(), guards).expect_err("must be rejected");
        assert!(
            matches!(
                err,
                AugmentedIoError::ResourceExhausted { resource: "nodes", limit: 10, observed: 11 }
            ),
            "{err}"
        );
        let ok = format!("{HEADER_PREFIX}10\n");
        read_augmented_guarded(ok.as_bytes(), guards).expect("at the budget is fine");
    }

    #[test]
    fn edge_budgets_trip_even_in_lenient_mode() {
        let guards = IngestGuards {
            max_friendships: Some(1),
            max_rejections: Some(1),
            ..IngestGuards::default()
        };
        let data = format!("{HEADER_PREFIX}4\nF 0 1\nF 2 3\n");
        let err = read_augmented_lenient_guarded(data.as_bytes(), guards).expect_err("must be rejected");
        assert!(
            matches!(
                err,
                AugmentedIoError::ResourceExhausted {
                    resource: "friendships",
                    limit: 1,
                    observed: 2
                }
            ),
            "{err}"
        );
        let data = format!("{HEADER_PREFIX}4\nR 0 1\nR 2 3\n");
        let err = read_augmented_guarded(data.as_bytes(), guards).expect_err("must be rejected");
        assert!(
            matches!(
                err,
                AugmentedIoError::ResourceExhausted {
                    resource: "rejections",
                    limit: 1,
                    observed: 2
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn default_guards_are_inactive() {
        assert!(!IngestGuards::default().is_active());
        assert!(!IngestGuards::unlimited().is_active());
        assert!(IngestGuards { max_nodes: Some(1), ..IngestGuards::default() }.is_active());
        assert!(IngestGuards { reject_conflicts: true, ..IngestGuards::default() }.is_active());
    }
}
