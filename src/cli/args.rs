//! A small, dependency-free argument parser for the CLI.
//!
//! Flags are `--key value` pairs (plus bare `--help`); each subcommand
//! declares which keys it understands and unknown keys are rejected with a
//! helpful message.

#[expect(
    clippy::disallowed_types,
    reason = "keyed flag lookup; only the choice among several unknown flags in `finish` depends on hash order"
)]
use std::collections::HashMap;

/// Parsed `--key value` arguments.
#[derive(Debug, Clone, Default)]
pub struct Args {
    #[expect(
        clippy::disallowed_types,
        reason = "keyed flag lookup; only the choice among several unknown flags in `finish` depends on hash order"
    )]
    values: HashMap<String, String>,
    /// Keys the caller has consumed (for unknown-flag detection).
    known: Vec<String>,
}

/// Argument-parsing errors, rendered to the user verbatim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses `--key value` pairs from raw arguments.
    ///
    /// # Errors
    ///
    /// Returns an error for positional arguments or a trailing flag with
    /// no value.
    pub fn parse<I, S>(raw: I) -> Result<Args, ArgError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        #[expect(
            clippy::disallowed_types,
            reason = "keyed flag lookup; only the choice among several unknown flags in `finish` depends on hash order"
        )]
        let mut values = HashMap::new();
        let mut iter = raw.into_iter().map(Into::into);
        while let Some(tok) = iter.next() {
            let Some(key) = tok.strip_prefix("--") else {
                return Err(ArgError(format!("unexpected positional argument {tok:?}")));
            };
            if key == "help" {
                values.insert("help".to_string(), "true".to_string());
                continue;
            }
            let value = iter
                .next()
                .ok_or_else(|| ArgError(format!("flag --{key} requires a value")))?;
            values.insert(key.to_string(), value);
        }
        Ok(Args { values, known: Vec::new() })
    }

    /// Whether `--help` was given.
    pub fn wants_help(&self) -> bool {
        self.values.contains_key("help")
    }

    /// A string flag.
    pub fn get(&mut self, key: &str) -> Option<String> {
        self.known.push(key.to_string());
        self.values.get(key).cloned()
    }

    /// A required string flag.
    ///
    /// # Errors
    ///
    /// Returns an error naming the missing flag.
    pub fn require(&mut self, key: &str) -> Result<String, ArgError> {
        self.get(key).ok_or_else(|| ArgError(format!("missing required flag --{key}")))
    }

    /// A parsed flag with a default.
    ///
    /// # Errors
    ///
    /// Returns an error if the value does not parse as `T`.
    pub fn get_or<T: std::str::FromStr>(&mut self, key: &str, default: T) -> Result<T, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("flag --{key}: cannot parse {v:?}"))),
        }
    }

    /// An optional parsed flag.
    ///
    /// # Errors
    ///
    /// Returns an error if present but unparsable.
    pub fn get_opt<T: std::str::FromStr>(&mut self, key: &str) -> Result<Option<T>, ArgError> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| ArgError(format!("flag --{key}: cannot parse {v:?}"))),
        }
    }

    /// Rejects any flag the subcommand did not consume.
    ///
    /// # Errors
    ///
    /// Returns an error naming the first unknown flag.
    pub fn finish(self) -> Result<(), ArgError> {
        for key in self.values.keys() {
            if key != "help" && !self.known.iter().any(|k| k == key) {
                return Err(ArgError(format!("unknown flag --{key}")));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_key_value_pairs() {
        let mut a = Args::parse(["--scale", "0.5", "--seed", "7"]).unwrap();
        assert_eq!(a.get_or("scale", 1.0).unwrap(), 0.5);
        assert_eq!(a.get_or("seed", 0u64).unwrap(), 7);
        a.finish().unwrap();
    }

    #[test]
    fn rejects_positional_arguments() {
        assert!(Args::parse(["oops"]).is_err());
    }

    #[test]
    fn rejects_dangling_flag() {
        assert!(Args::parse(["--graph"]).is_err());
    }

    #[test]
    fn requires_missing_flag() {
        let mut a = Args::parse([] as [&str; 0]).unwrap();
        assert!(a.require("graph").is_err());
    }

    #[test]
    fn flags_defaults_apply() {
        let mut a = Args::parse([] as [&str; 0]).unwrap();
        assert_eq!(a.get_or("budget", 10usize).unwrap(), 10);
        assert_eq!(a.get_opt::<f64>("threshold").unwrap(), None);
    }

    #[test]
    fn unknown_flags_are_rejected_at_finish() {
        let mut a = Args::parse(["--graph", "x", "--bogus", "1"]).unwrap();
        let _ = a.get("graph");
        assert!(a.finish().is_err());
    }

    #[test]
    fn bad_parse_is_reported() {
        let mut a = Args::parse(["--seed", "banana"]).unwrap();
        let err = a.get_or("seed", 0u64).unwrap_err();
        assert!(err.0.contains("banana"));
    }

    #[test]
    fn help_flag_needs_no_value() {
        let a = Args::parse(["--help"]).unwrap();
        assert!(a.wants_help());
    }
}
