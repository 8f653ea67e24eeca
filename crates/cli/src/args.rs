//! A small dependency-free argument parser: `--key value`, `--flag`, and
//! positional arguments. Only declared options and switches parse; any
//! other `--key` is an error.

use std::collections::HashMap;

/// Parsed command-line arguments.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    /// Arguments without a leading `--`.
    pub positional: Vec<String>,
    options: HashMap<String, String>,
    switches: Vec<String>,
}

/// Argument-parsing errors with user-facing messages.
#[derive(Debug, PartialEq, Eq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses a token stream. `known_switches` take no value, and each of
    /// `known_options` consumes the next token as its value.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] on a `--key` that is neither a known switch
    /// nor a known option, and when a value-taking option has no value.
    pub fn parse<I: IntoIterator<Item = String>>(
        tokens: I,
        known_switches: &[&str],
        known_options: &[&str],
    ) -> Result<Args, ArgError> {
        let mut args = Args::default();
        let mut iter = tokens.into_iter();
        while let Some(tok) = iter.next() {
            if let Some(key) = tok.strip_prefix("--") {
                if known_switches.contains(&key) {
                    args.switches.push(key.to_string());
                } else if known_options.contains(&key) {
                    let value = iter
                        .next()
                        .ok_or_else(|| ArgError(format!("option --{key} needs a value")))?;
                    args.options.insert(key.to_string(), value);
                } else {
                    return Err(ArgError(format!("unknown option --{key}")));
                }
            } else {
                args.positional.push(tok);
            }
        }
        Ok(args)
    }

    /// String option value.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// String option with a default.
    #[must_use]
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// Parsed numeric option with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] when the value does not parse.
    pub fn get_num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => {
                v.parse().map_err(|_| ArgError(format!("option --{key} has invalid value {v:?}")))
            }
        }
    }

    /// Whether a switch was given.
    #[must_use]
    pub fn switch(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn mixed_arguments() {
        let a = Args::parse(
            toks("align --config dna-edit --score-only q.fa r.fa"),
            &["score-only"],
            &["config"],
        )
        .unwrap();
        assert_eq!(a.positional, vec!["align", "q.fa", "r.fa"]);
        assert_eq!(a.get("config"), Some("dna-edit"));
        assert!(a.switch("score-only"));
        assert!(!a.switch("verbose"));
    }

    #[test]
    fn numeric_options() {
        let a = Args::parse(toks("--len 1000"), &[], &["len", "count"]).unwrap();
        assert_eq!(a.get_num("len", 0usize).unwrap(), 1000);
        assert_eq!(a.get_num("count", 7usize).unwrap(), 7);
        let bad = Args::parse(toks("--len abc"), &[], &["len"]).unwrap();
        assert!(bad.get_num::<usize>("len", 0).is_err());
    }

    #[test]
    fn missing_value_rejected() {
        assert!(Args::parse(toks("--config"), &[], &["config"]).is_err());
    }

    #[test]
    fn unknown_options_rejected() {
        // An unknown key neither swallows the next token nor is ignored,
        // whether it is a typo'd switch or a removed option.
        for argv in ["align --stirct q.fa r.fa", "align --baseline simd q.fa r.fa"] {
            let key = argv.split_whitespace().nth(1).unwrap();
            let err = Args::parse(toks(argv), &["strict"], &["config"]).unwrap_err();
            assert_eq!(err, ArgError(format!("unknown option {key}")), "{argv}");
        }
    }
}
