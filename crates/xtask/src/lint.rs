//! The residual source checks behind `cargo xtask check`.
//!
//! Every other rule of the determinism-and-robustness contract is a rustc
//! or clippy lint level: `[workspace.lints]`, crate- and module-root
//! attributes, and `clippy.toml` (DESIGN.md §12). These three have no
//! clippy equivalent, so they run here over the token stream of
//! [`crate::lexer`] (strings and comments are never code). They take no
//! suppression: fix the code instead.
//!
//! 1. **weak-expect** — in the [`LIBRARY_CRATES`], an
//!    `.expect("<message>")` must state the invariant that makes it
//!    infallible, in at least [`MIN_EXPECT_MESSAGE`] characters.
//! 2. **float-reduction** — in the runtime paths of the [`FLOAT_CRATES`],
//!    no float `.sum()`/`.product()`/`.fold(<float literal>, ..)`: the
//!    result depends on accumulation order. [`ORDERED_SUM_MODULE`], home
//!    of the sanctioned `ordered_sum`, is exempt by path. A `clippy.toml`
//!    ban on `Iterator::sum` would be workspace-wide and type-blind.
//! 3. **runtime-assert** — in the runtime paths of the
//!    [`NO_ASSERT_CRATES`], no `assert!`: they degrade through typed
//!    errors, and a release-mode abort inside a worker takes a whole sweep
//!    down. `debug_assert!` stays allowed, which `disallowed-macros`
//!    cannot express: banning `std::assert` bans `debug_assert!` too.
//!
//! A runtime path is a file under a crate's `src/`, up to its first
//! `#[cfg(test)] mod`; check 3 also skips `*invariants*` modules, whose
//! job is aborting on corrupted state.

use crate::lexer::{lex, Token, TokenKind};
use std::fmt;

/// The library crates (directory names under `crates/`). The binaries
/// (`rejecto` itself, `bench`, `xtask`) may exit through a panic.
pub const LIBRARY_CRATES: &[&str] = &[
    "socialgraph",
    "kl",
    "rejection",
    "core",
    "votetrust",
    "sybilrank",
    "eval",
    "dataflow",
    "obs",
];

/// The detection kernels, every ranking baseline whose scores are compared
/// across detectors, and `dataflow`, whose distributed sweep must stay
/// byte-identical to `core`'s local one.
pub const FLOAT_CRATES: &[&str] =
    &["socialgraph", "kl", "core", "sybilrank", "votetrust", "dataflow", "eval"];

/// `dataflow` must degrade through its `ClusterError`/`RuntimeError`
/// taxonomy; `kl` runs inside every sweep worker.
pub const NO_ASSERT_CRATES: &[&str] = &["dataflow", "kl"];

/// The one module allowed an order-silent float fold: it *is* the ordering
/// contract the rest of the workspace calls.
pub const ORDERED_SUM_MODULE: &str = "crates/socialgraph/src/det.rs";

/// Shortest `.expect` message that can plausibly state an invariant
/// ("sweep is non-empty", "fixture parses", ...).
pub const MIN_EXPECT_MESSAGE: usize = 8;

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Repo-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// The significant tokens of one file (no comments, no whitespace).
struct Stream<'a>(Vec<Token<'a>>);

impl Stream<'_> {
    fn ident(&self, i: usize) -> Option<&str> {
        self.0.get(i).filter(|t| t.kind == TokenKind::Ident).map(|t| t.text)
    }

    fn punct(&self, i: usize, ch: &str) -> bool {
        matches!(self.0.get(i), Some(t) if t.kind == TokenKind::Punct && t.text == ch)
    }

    /// The contents of a string literal at `i` (prefix, quotes and raw
    /// hashes stripped), or `None` if `i` is not a string literal.
    fn string_content(&self, i: usize) -> Option<&str> {
        let t = self.0.get(i)?;
        let body = match t.kind {
            TokenKind::Str => t.text.trim_start_matches(['b', 'c']),
            TokenKind::RawStr => t.text.trim_start_matches(['b', 'c', 'r']).trim_matches('#'),
            _ => return None,
        };
        let inner = body.strip_prefix('"')?;
        Some(inner.strip_suffix('"').unwrap_or(inner))
    }

    /// Line of the first `#[cfg(test)]` attribute that introduces a `mod`
    /// (a `#[cfg(test)]` on a lone helper does not end the runtime path).
    fn test_module_start(&self) -> usize {
        (0..self.0.len())
            .find(|&i| {
                ["#", "[", "cfg", "(", "test", ")", "]"].iter().enumerate().all(|(k, want)| {
                    self.punct(i + k, want) || self.ident(i + k) == Some(*want)
                }) && (self.ident(i + 7) == Some("mod")
                    || (self.ident(i + 7) == Some("pub") && self.ident(i + 8) == Some("mod")))
            })
            .map_or(usize::MAX, |i| self.0[i].line)
    }

    /// Whether `.sum`/`.product` at `i` reduces floats: an `f32`/`f64`
    /// turbofish, or no turbofish and a float type named earlier in the
    /// same statement (`let s: f64 = xs.iter().sum();`).
    fn reduces_floats(&self, i: usize) -> bool {
        if self.punct(i + 2, ":") {
            return self.punct(i + 3, ":")
                && self.punct(i + 4, "<")
                && matches!(self.ident(i + 5), Some("f32" | "f64"));
        }
        for t in self.0[..i].iter().rev() {
            match (t.kind, t.text) {
                (TokenKind::Punct, ";" | "{" | "}") => return false,
                (TokenKind::Ident, "f32" | "f64") => return true,
                _ => {}
            }
        }
        false
    }
}

/// Runs the three residual checks over one file at repo-relative
/// `rel_path`.
pub fn lint_file(rel_path: &str, text: &str) -> Vec<Violation> {
    let crate_name =
        rel_path.strip_prefix("crates/").and_then(|p| p.split('/').next()).unwrap_or_default();
    let in_src = rel_path.contains("/src/");
    let expects_checked = LIBRARY_CRATES.contains(&crate_name);
    let floats_checked =
        in_src && FLOAT_CRATES.contains(&crate_name) && rel_path != ORDERED_SUM_MODULE;
    let asserts_checked =
        in_src && NO_ASSERT_CRATES.contains(&crate_name) && !rel_path.contains("invariants");

    let s = Stream(lex(text).into_iter().filter(|t| t.kind.is_significant()).collect());
    let test_start = s.test_module_start();
    let mut out = Vec::new();
    let mut emit = |line: usize, rule: &'static str, message: String| {
        out.push(Violation { file: rel_path.to_string(), line, rule, message });
    };
    for (i, t) in s.0.iter().enumerate() {
        let runtime = t.line < test_start;
        let method = if s.punct(i, ".") { s.ident(i + 1) } else { None };

        if expects_checked && method == Some("expect") && s.punct(i + 2, "(") {
            if let Some(msg) = s.string_content(i + 3) {
                if msg.len() < MIN_EXPECT_MESSAGE {
                    emit(
                        t.line,
                        "weak-expect",
                        format!(
                            "`.expect(\"{msg}\")` is too short to state an invariant \
                             (< {MIN_EXPECT_MESSAGE} chars)"
                        ),
                    );
                }
            }
        }

        let float_fold = method == Some("fold")
            && s.punct(i + 2, "(")
            && s.0.get(i + 3).is_some_and(|t| t.kind == TokenKind::Float);
        let float_sum = matches!(method, Some("sum" | "product")) && s.reduces_floats(i);
        if floats_checked && runtime && (float_fold || float_sum) {
            emit(
                t.line,
                "float-reduction",
                "float reduction whose result depends on accumulation order; use \
                 `socialgraph::det::ordered_sum` or an explicit index-order loop"
                    .to_string(),
            );
        }

        if asserts_checked && runtime && s.ident(i) == Some("assert") && s.punct(i + 1, "!") {
            emit(
                t.line,
                "runtime-assert",
                "`assert!` aborts release builds; return a typed error, use \
                 `debug_assert!`, or make a cold contract an explicit \
                 `panic!` under `#[expect(clippy::panic, reason = ..)]`"
                    .to_string(),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(path: &str, src: &str) -> Vec<(usize, &'static str)> {
        lint_file(path, src).into_iter().map(|v| (v.line, v.rule)).collect()
    }

    #[test]
    fn weak_expect_message_fails() {
        let src = "fn f() { let x = opt.expect(\"oops\"); }\n";
        assert_eq!(rules("crates/rejection/src/io.rs", src), [(1, "weak-expect")]);
        // Split across lines, the finding lands on the `.expect` line.
        let split = "let x = opt\n    .expect(\n        \"oops\",\n    );\n";
        assert_eq!(rules("crates/core/tests/store.rs", split), [(2, "weak-expect")]);
    }

    #[test]
    fn invariant_expect_message_passes() {
        for src in [
            "let x = opt.expect(\"scenario admits a cut\");\n",
            "let x = opt.expect(&format!(\"no {u}\"));\n",
            "// a comment may say .expect(\"oops\")\nlet s = \".expect(\\\"oops\\\")\";\n",
        ] {
            assert!(lint_file("crates/rejection/src/io.rs", src).is_empty(), "{src:?}");
        }
        // Binaries may exit through a short expect.
        let src = "let x = opt.expect(\"oops\");\n";
        assert!(lint_file("crates/bench/src/bin/x.rs", src).is_empty());
    }

    #[test]
    fn float_reduction_in_runtime_path_fails() {
        let src = "fn f(xs: &[f64]) -> f64 {\n    let a = xs.iter().sum::<f64>();\n    \
                   let b: f64 = xs.iter().product();\n    a + xs.iter().fold(0.0, |s, x| s + x)\n}\n";
        assert_eq!(
            rules("crates/core/src/maar.rs", src),
            [(2, "float-reduction"), (3, "float-reduction"), (4, "float-reduction")]
        );
    }

    #[test]
    fn float_reduction_passes_in_det_rs_tests_and_integer_code() {
        let fold = "pub fn ordered_sum(v: &[f64]) -> f64 { v.iter().fold(0.0, |a, x| a + x) }\n";
        assert!(lint_file(ORDERED_SUM_MODULE, fold).is_empty());
        assert_eq!(rules("crates/socialgraph/src/graph.rs", fold), [(1, "float-reduction")]);

        let below_tests = "fn f() {}\n#[cfg(test)]\nmod tests {\n    \
                           fn g(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }\n}\n";
        assert!(lint_file("crates/core/src/maar.rs", below_tests).is_empty());
        let lone_helper = "#[cfg(test)]\nfn h() {}\nfn g(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }\n";
        assert_eq!(rules("crates/core/src/maar.rs", lone_helper), [(3, "float-reduction")]);

        let ints = "fn f(xs: &[u64], y: f64) -> u64 { let _ = y; xs.iter().sum::<u64>() }\n\
                    fn g(xs: &[u64]) -> u64 { xs.iter().fold(0, |a, b| a + b) }\n";
        assert!(lint_file("crates/core/src/maar.rs", ints).is_empty());
    }

    #[test]
    fn assert_next_to_debug_assert_fails_in_kl_runtime() {
        let src = "fn f(n: usize) {\n    debug_assert!(n > 1);\n    assert!(n > 0, \"n must be positive\");\n}\n";
        assert_eq!(rules("crates/kl/src/bucket.rs", src), [(3, "runtime-assert")]);
    }

    #[test]
    fn debug_assert_and_assert_outside_the_runtime_path_pass() {
        let src = "fn f(n: usize) { debug_assert!(n > 0); assert_eq!(n, 1); }\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { assert!(true); }\n}\n";
        assert!(lint_file("crates/dataflow/src/lru.rs", src).is_empty());
        let src = "fn f(n: usize) { assert!(n > 0); }\n";
        for path in ["crates/kl/src/invariants.rs", "crates/kl/tests/prop.rs", "crates/core/src/maar.rs"] {
            assert!(lint_file(path, src).is_empty(), "{path}");
        }
    }
}
