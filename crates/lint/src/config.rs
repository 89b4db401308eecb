//! `lint.toml` parsing: per-crate severity overrides and rule options.
//!
//! The workspace policy file is a deliberately small TOML subset —
//! sections, `key = "value"` and `key = ["a", "b"]` — parsed by hand
//! (the workspace has no serialisation dependency). Recognised
//! sections:
//!
//! ```toml
//! [default]              # severity per rule, workspace-wide
//! wallclock = "deny"
//!
//! [crate.sma-bench]      # per-crate overrides (highest precedence)
//! no-panic = "warn"
//!
//! [rule.env-read]        # per-rule sanctioned files
//! sanctioned = ["knobs.rs"]   # files where env reads are allowed
//!
//! [rule.wallclock]
//! sanctioned = ["crates/runtime/src/serve/live.rs"]
//! ```
//!
//! Every rule accepts a `sanctioned` list: entries are either bare
//! file names (any file so named, anywhere — how the one-knobs-module-
//! per-crate convention is spelled) or `/`-separated path suffixes
//! (pinning one exact module, as the wall-clock carve-out does).
//!
//! Unknown rule ids and malformed lines are hard errors: a typo in the
//! policy must fail the gate, not silently allow.

use crate::report::Severity;
use crate::rules::RULES;
use std::collections::BTreeMap;

/// The parsed workspace lint policy.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Workspace-wide severity overrides, by rule id.
    pub default: BTreeMap<String, Severity>,
    /// Per-crate severity overrides, by crate name then rule id.
    pub crates: BTreeMap<String, BTreeMap<String, Severity>>,
    /// Per-rule sanctioned files, by rule id. Each entry is a bare
    /// file name or a `/`-separated path suffix; a matching file is
    /// exempt from that one rule (and no other).
    pub sanctioned: BTreeMap<String, Vec<String>>,
}

impl Config {
    /// Effective severity of `rule` in `crate_name`: per-crate override,
    /// else `[default]`, else the rule's built-in default.
    #[must_use]
    pub(crate) fn severity(&self, crate_name: &str, rule: &str) -> Severity {
        if let Some(per_crate) = self.crates.get(crate_name) {
            if let Some(&severity) = per_crate.get(rule) {
                return severity;
            }
        }
        if let Some(&severity) = self.default.get(rule) {
            return severity;
        }
        RULES
            .iter()
            .find(|r| r.id == rule)
            .map_or(Severity::Deny, |r| r.default_severity)
    }

    /// Whether `rule` is waived for the file at `rel_path` (with file
    /// name `file_name`). An entry matches when it equals the bare
    /// file name, equals the whole relative path, or is a `/`-suffix
    /// of it — so `knobs.rs` sanctions every knobs module while
    /// `crates/runtime/src/serve/live.rs` pins exactly one file.
    #[must_use]
    pub(crate) fn is_sanctioned(&self, rule: &str, rel_path: &str, file_name: &str) -> bool {
        self.sanctioned.get(rule).is_some_and(|entries| {
            entries.iter().any(|entry| {
                entry == file_name
                    || rel_path == entry
                    || rel_path
                        .strip_suffix(entry.as_str())
                        .is_some_and(|prefix| prefix.ends_with('/'))
            })
        })
    }

    /// Parses the policy file, validating every rule id.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line, unknown rule
    /// id or unknown severity.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut config = Config::default();
        let mut section = String::new();
        for (index, raw) in text.lines().enumerate() {
            let line = strip_comment(raw).trim();
            let at = index + 1;
            if line.is_empty() {
                continue;
            }
            if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = header.trim().trim_matches('"').to_string();
                let known = section == "default"
                    || section.starts_with("crate.")
                    || section.starts_with("rule.");
                if !known {
                    return Err(format!("lint.toml:{at}: unknown section [{section}]"));
                }
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("lint.toml:{at}: expected `key = value`"))?;
            let key = key.trim().trim_matches('"').to_string();
            let value = value.trim();
            if section == "default" || section.starts_with("crate.") {
                let rule = key;
                if !RULES.iter().any(|r| r.id == rule) {
                    return Err(format!("lint.toml:{at}: unknown rule `{rule}`"));
                }
                let severity = parse_severity(value)
                    .ok_or_else(|| format!("lint.toml:{at}: unknown severity {value}"))?;
                if section == "default" {
                    config.default.insert(rule, severity);
                } else {
                    let crate_name = section["crate.".len()..].trim_matches('"').to_string();
                    config
                        .crates
                        .entry(crate_name)
                        .or_default()
                        .insert(rule, severity);
                }
            } else if let Some(rule) = section.strip_prefix("rule.") {
                let rule = rule.trim_matches('"');
                if !RULES.iter().any(|r| r.id == rule) {
                    return Err(format!(
                        "lint.toml:{at}: unknown rule `{rule}` in [{section}]"
                    ));
                }
                if key != "sanctioned" {
                    return Err(format!(
                        "lint.toml:{at}: unknown option `{key}` in [{section}]"
                    ));
                }
                let files = parse_string_list(value)
                    .ok_or_else(|| format!("lint.toml:{at}: expected a string list"))?;
                config.sanctioned.insert(rule.to_string(), files);
            } else {
                return Err(format!(
                    "lint.toml:{at}: unknown option `{key}` in [{section}]"
                ));
            }
        }
        Ok(config)
    }
}

/// Drops a trailing `# comment` (quote-aware: `#` inside quotes stays).
fn strip_comment(line: &str) -> &str {
    let mut in_quotes = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_quotes = !in_quotes,
            '#' if !in_quotes => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_severity(value: &str) -> Option<Severity> {
    match value.trim_matches('"') {
        "deny" => Some(Severity::Deny),
        "warn" => Some(Severity::Warn),
        "allow" => Some(Severity::Allow),
        _ => None,
    }
}

fn parse_string_list(value: &str) -> Option<Vec<String>> {
    let inner = value.strip_prefix('[')?.strip_suffix(']')?;
    Some(
        inner
            .split(',')
            .map(|s| s.trim().trim_matches('"').to_string())
            .filter(|s| !s.is_empty())
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precedence_is_crate_then_default_then_builtin() {
        let config = Config::parse(
            "[default]\nwallclock = \"warn\"\n[crate.sma-bench]\nwallclock = \"allow\"\n",
        )
        .expect("parses");
        assert_eq!(config.severity("sma-bench", "wallclock"), Severity::Allow);
        assert_eq!(config.severity("sma-core", "wallclock"), Severity::Warn);
        // Built-in default for a rule the file never names.
        assert_eq!(config.severity("sma-core", "unsafe-code"), Severity::Deny);
    }

    #[test]
    fn unknown_rule_and_severity_are_errors() {
        assert!(Config::parse("[default]\nno-such-rule = \"deny\"\n").is_err());
        assert!(Config::parse("[default]\nwallclock = \"fatal\"\n").is_err());
        assert!(Config::parse("[surprise]\n").is_err());
    }

    #[test]
    fn env_sanctioned_list_and_comments() {
        let config = Config::parse(
            "# policy\n[rule.env-read]\nsanctioned = [\"knobs.rs\", \"other.rs\"] # files\n",
        )
        .expect("parses");
        assert_eq!(
            config.sanctioned.get("env-read").map(Vec::as_slice),
            Some(["knobs.rs".to_string(), "other.rs".to_string()].as_slice())
        );
    }

    #[test]
    fn sanctioned_lists_are_per_rule() {
        let config = Config::parse(
            "[rule.env-read]\nsanctioned = [\"knobs.rs\"]\n\
             [rule.wallclock]\nsanctioned = [\"crates/runtime/src/serve/live.rs\"]\n",
        )
        .expect("parses");
        // Bare file name: matches any file so named.
        assert!(config.is_sanctioned("env-read", "crates/bench/src/knobs.rs", "knobs.rs"));
        assert!(config.is_sanctioned("env-read", "other/src/knobs.rs", "knobs.rs"));
        // A sanction for one rule never bleeds into another.
        assert!(!config.is_sanctioned("wallclock", "crates/bench/src/knobs.rs", "knobs.rs"));
        // Path suffix: pins exactly one module.
        assert!(config.is_sanctioned("wallclock", "crates/runtime/src/serve/live.rs", "live.rs"));
        assert!(!config.is_sanctioned("wallclock", "crates/bench/src/live.rs", "live.rs"));
        // A suffix must align on a path component, not a substring.
        assert!(!config.is_sanctioned(
            "wallclock",
            "crates/runtime/src/serve/not_live.rs",
            "not_live.rs"
        ));
    }

    #[test]
    fn sanctioned_for_unknown_rule_or_option_is_an_error() {
        assert!(Config::parse("[rule.no-such-rule]\nsanctioned = [\"x.rs\"]\n").is_err());
        assert!(Config::parse("[rule.wallclock]\nfiles = [\"x.rs\"]\n").is_err());
        assert!(Config::parse("[rule.wallclock]\nsanctioned = \"x.rs\"\n").is_err());
    }
}
