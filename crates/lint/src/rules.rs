//! The rule registry: eleven token-pattern rules in three families.
//!
//! | family | rule | guards |
//! |---|---|---|
//! | determinism | `wallclock` | no `Instant`/`SystemTime`/`std::time` in model code |
//! | determinism | `hash-collection` | no `HashMap`/`HashSet` (iteration order) — `BTreeMap` or a justified keyed-only use |
//! | determinism | `env-read` | `env::var` only inside the sanctioned `knobs` modules |
//! | determinism | `nondet-seed` | no `thread_rng`/`from_entropy`/`RandomState`/`rand::` seeding |
//! | determinism | `thread-spawn` | no `spawn(` outside the sanctioned threaded modules |
//! | float-order | `partial-cmp-unwrap` | `partial_cmp().unwrap*()` chains — use `total_cmp` |
//! | float-order | `float-eq` | `==`/`!=` against float literals — use `total_cmp`/`to_bits` |
//! | float-order | `float-cast` | `round()/floor()/ceil()/trunc() as <int>` and float-literal `as <int>` in cost paths |
//! | soundness | `unsafe-code` | `unsafe` / `static mut` anywhere (tests included) |
//! | soundness | `no-panic` | `.unwrap()`/`.expect()`/`panic!` in non-test library code (scoped to `sma-runtime` by `lint.toml`) |
//! | soundness | `nested-lock` | a second `.lock()`/`.read()`/`.write()` acquisition in one function |
//!
//! Two engine-level meta rules ride along: `suppression-justification`
//! (an inline `allow` without a reason, or a malformed marker) and
//! `unused-suppression` (a justified `allow` that silenced nothing).
//! `docs/DETERMINISM.md` maps each rule to the invariant it guards.

use crate::lexer::{Tok, TokKind};
use crate::report::Severity;

/// A rule violation before file/severity attribution.
#[derive(Debug, Clone)]
pub struct RawFinding {
    /// 1-based source line.
    pub line: u32,
    /// Human explanation, including the preferred alternative.
    pub message: String,
}

/// One lint rule: identity, default severity, and its token-pattern
/// check.
pub struct Rule {
    /// Kebab-case id used in `lint.toml` and suppressions.
    pub id: &'static str,
    /// Rule family (`determinism`, `float-order`, `soundness`).
    pub family: &'static str,
    /// One-line description for `--list` and the docs.
    pub summary: &'static str,
    /// Severity when neither `lint.toml` section names the rule.
    pub default_severity: Severity,
    /// Whether the rule also applies inside `#[cfg(test)]` items.
    pub applies_in_tests: bool,
    /// The token-pattern check.
    pub check: fn(&[Tok]) -> Vec<RawFinding>,
}

/// Rule id of the engine-level meta rule for blanket/malformed
/// suppressions.
pub(crate) const SUPPRESSION_RULE: &str = "suppression-justification";
/// Rule id of the engine-level meta rule for suppressions that
/// silenced nothing.
pub(crate) const UNUSED_SUPPRESSION_RULE: &str = "unused-suppression";

/// The registry, in documentation order.
pub static RULES: &[Rule] = &[
    Rule {
        id: "wallclock",
        family: "determinism",
        summary: "no Instant/SystemTime/std::time in model code — simulated clocks only",
        default_severity: Severity::Deny,
        applies_in_tests: false,
        check: check_wallclock,
    },
    Rule {
        id: "hash-collection",
        family: "determinism",
        summary: "no HashMap/HashSet in determinism-critical code — BTreeMap or justified keyed-only use",
        default_severity: Severity::Deny,
        applies_in_tests: false,
        check: check_hash_collection,
    },
    Rule {
        id: "env-read",
        family: "determinism",
        summary: "env::var only in the sanctioned knobs modules",
        default_severity: Severity::Deny,
        applies_in_tests: false,
        check: check_env_read,
    },
    Rule {
        id: "nondet-seed",
        family: "determinism",
        summary: "no thread_rng/from_entropy/RandomState — seeded RNG only",
        default_severity: Severity::Deny,
        applies_in_tests: false,
        check: check_nondet_seed,
    },
    Rule {
        id: "thread-spawn",
        family: "determinism",
        summary: "no spawn( outside the sanctioned threaded modules — OS scheduling is nondeterministic",
        default_severity: Severity::Deny,
        applies_in_tests: false,
        check: check_thread_spawn,
    },
    Rule {
        id: "partial-cmp-unwrap",
        family: "float-order",
        summary: "partial_cmp().unwrap*() — use total_cmp for a total float order",
        default_severity: Severity::Deny,
        applies_in_tests: false,
        check: check_partial_cmp_unwrap,
    },
    Rule {
        id: "float-eq",
        family: "float-order",
        summary: "==/!= against a float literal — use total_cmp/to_bits",
        default_severity: Severity::Deny,
        applies_in_tests: false,
        check: check_float_eq,
    },
    Rule {
        id: "float-cast",
        family: "float-order",
        summary: "float round()/floor()/ceil()/trunc() as <int> in cost paths — saturating semantics hide NaN",
        default_severity: Severity::Deny,
        applies_in_tests: false,
        check: check_float_cast,
    },
    Rule {
        id: "unsafe-code",
        family: "soundness",
        summary: "unsafe / static mut anywhere (compiler-enforced via #![forbid(unsafe_code)])",
        default_severity: Severity::Deny,
        applies_in_tests: true,
        check: check_unsafe,
    },
    Rule {
        id: "no-panic",
        family: "soundness",
        summary: "unwrap/expect/panic! in non-test library code (scoped per crate by lint.toml)",
        default_severity: Severity::Allow,
        applies_in_tests: false,
        check: check_no_panic,
    },
    Rule {
        id: "nested-lock",
        family: "soundness",
        summary: "second lock acquisition in one function — deadlock-prone over the sharded GemmCache",
        default_severity: Severity::Deny,
        applies_in_tests: false,
        check: check_nested_lock,
    },
];

fn check_wallclock(toks: &[Tok]) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.is_ident("Instant") || t.is_ident("SystemTime") || t.is_ident("UNIX_EPOCH") {
            out.push(RawFinding {
                line: t.line,
                message: format!(
                    "`{}` reads the wall clock; model/serve/sim code must use the simulated clock",
                    t.text
                ),
            });
        } else if t.is_ident("time")
            && i >= 2
            && toks[i - 1].is_punct("::")
            && toks[i - 2].is_ident("std")
        {
            out.push(RawFinding {
                line: t.line,
                message: "`std::time` import; model/serve/sim code must use the simulated clock"
                    .into(),
            });
        }
    }
    out
}

fn check_hash_collection(toks: &[Tok]) -> Vec<RawFinding> {
    toks.iter()
        .filter(|t| t.is_ident("HashMap") || t.is_ident("HashSet"))
        .map(|t| RawFinding {
            line: t.line,
            message: format!(
                "`{}` iteration order is unspecified; use BTreeMap/BTreeSet (or justify a keyed-only use)",
                t.text
            ),
        })
        .collect()
}

fn check_env_read(toks: &[Tok]) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let reader = t.is_ident("var") || t.is_ident("var_os") || t.is_ident("vars");
        if reader && i >= 2 && toks[i - 1].is_punct("::") && toks[i - 2].is_ident("env") {
            out.push(RawFinding {
                line: t.line,
                message: format!(
                    "`env::{}` outside a sanctioned knobs module; route SMA_* reads through knobs",
                    t.text
                ),
            });
        }
    }
    out
}

fn check_nondet_seed(toks: &[Tok]) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let hit = t.is_ident("thread_rng")
            || t.is_ident("from_entropy")
            || t.is_ident("getrandom")
            || t.is_ident("RandomState");
        let rand_path = t.is_ident("rand") && toks.get(i + 1).is_some_and(|n| n.is_punct("::"));
        if hit || rand_path {
            out.push(RawFinding {
                line: t.line,
                message: format!(
                    "`{}` is nondeterministically seeded; draw from the seeded splitmix64 generator",
                    t.text
                ),
            });
        }
    }
    out
}

fn check_thread_spawn(toks: &[Tok]) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.is_ident("spawn") && toks.get(i + 1).is_some_and(|n| n.is_punct("(")) {
            out.push(RawFinding {
                line: t.line,
                message: "`spawn(` introduces OS-scheduled interleaving; keep model code on the \
                          discrete-event engine (threaded modules are sanctioned in lint.toml)"
                    .into(),
            });
        }
    }
    out
}

fn check_partial_cmp_unwrap(toks: &[Tok]) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("partial_cmp") {
            continue;
        }
        // Skip trait-impl definitions (`fn partial_cmp(...)`).
        if i >= 1 && toks[i - 1].is_ident("fn") {
            continue;
        }
        // Call site: `.partial_cmp( … )` followed by `.unwrap*()` /
        // `.expect(…)` on the returned Option.
        if i == 0 || !toks[i - 1].is_punct(".") {
            continue;
        }
        let Some(close) = matching_paren(toks, i + 1) else {
            continue;
        };
        if toks.get(close + 1).is_some_and(|t| t.is_punct("."))
            && toks.get(close + 2).is_some_and(|t| {
                t.kind == TokKind::Ident
                    && (t.text == "unwrap" || t.text == "expect" || t.text.starts_with("unwrap_or"))
            })
        {
            out.push(RawFinding {
                line: t.line,
                message: format!(
                    "`partial_cmp(…).{}()` — event/sort order must not depend on NaN handling; use `total_cmp`",
                    toks[close + 2].text
                ),
            });
        }
    }
    out
}

fn check_float_eq(toks: &[Tok]) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !(t.is_punct("==") || t.is_punct("!=")) {
            continue;
        }
        let float_literal = |tok: Option<&Tok>| {
            tok.is_some_and(|t| matches!(t.kind, TokKind::Number { float: true }))
        };
        if float_literal(i.checked_sub(1).and_then(|p| toks.get(p)))
            || float_literal(toks.get(i + 1))
        {
            out.push(RawFinding {
                line: t.line,
                message: format!(
                    "float literal compared with `{}`; use `total_cmp`, `to_bits`, or an epsilon (or justify an exact-representable guard)",
                    t.text
                ),
            });
        }
    }
    out
}

fn check_float_cast(toks: &[Tok]) -> Vec<RawFinding> {
    const INT_TYPES: [&str; 12] = [
        "usize", "u8", "u16", "u32", "u64", "u128", "isize", "i8", "i16", "i32", "i64", "i128",
    ];
    const ROUNDERS: [&str; 4] = ["round", "floor", "ceil", "trunc"];
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("as") {
            continue;
        }
        let Some(target) = toks.get(i + 1) else {
            continue;
        };
        if !(target.kind == TokKind::Ident && INT_TYPES.contains(&target.text.as_str())) {
            continue;
        }
        let Some(prev) = i.checked_sub(1).and_then(|p| toks.get(p)) else {
            continue;
        };
        let rounder_call = prev.is_punct(")")
            && i >= 3
            && toks[i - 2].is_punct("(")
            && toks[i - 3].kind == TokKind::Ident
            && ROUNDERS.contains(&toks[i - 3].text.as_str());
        let float_literal = matches!(prev.kind, TokKind::Number { float: true });
        if rounder_call || float_literal {
            out.push(RawFinding {
                line: t.line,
                message: format!(
                    "float cast `as {}` saturates and silently maps NaN to 0; bound the value explicitly (or justify the clamp)",
                    target.text
                ),
            });
        }
    }
    out
}

fn check_unsafe(toks: &[Tok]) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.is_ident("unsafe") {
            out.push(RawFinding {
                line: t.line,
                message: "`unsafe` is banned workspace-wide (#![forbid(unsafe_code)])".into(),
            });
        } else if t.is_ident("static") && toks.get(i + 1).is_some_and(|n| n.is_ident("mut")) {
            out.push(RawFinding {
                line: t.line,
                message: "`static mut` is banned workspace-wide".into(),
            });
        }
    }
    out
}

fn check_no_panic(toks: &[Tok]) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let method_panic =
            (t.is_ident("unwrap") || t.is_ident("expect")) && i >= 1 && toks[i - 1].is_punct(".");
        let macro_panic = t.is_ident("panic") && toks.get(i + 1).is_some_and(|n| n.is_punct("!"));
        if method_panic || macro_panic {
            out.push(RawFinding {
                line: t.line,
                message: format!(
                    "`{}` can panic in library code; return a RuntimeError (or justify the invariant)",
                    t.text
                ),
            });
        }
    }
    out
}

fn check_nested_lock(toks: &[Tok]) -> Vec<RawFinding> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !toks[i].is_ident("fn") {
            i += 1;
            continue;
        }
        // Find the body's opening brace (skip the signature).
        let mut j = i + 1;
        let mut paren_depth = 0i32;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "(" => paren_depth += 1,
                ")" => paren_depth -= 1,
                "{" if paren_depth == 0 => break,
                ";" if paren_depth == 0 => break, // trait method, no body
                _ => {}
            }
            j += 1;
        }
        if j >= toks.len() || toks[j].is_punct(";") {
            i = j + 1;
            continue;
        }
        // Walk the body, counting lock acquisitions:
        // `.lock()` / `.read()` / `.write()` with empty parens.
        let mut depth = 0i32;
        let mut acquisitions = 0u32;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                "lock" | "read" | "write"
                    if toks[j].kind == TokKind::Ident
                        && j >= 1
                        && toks[j - 1].is_punct(".")
                        && toks.get(j + 1).is_some_and(|t| t.is_punct("("))
                        && toks.get(j + 2).is_some_and(|t| t.is_punct(")")) =>
                {
                    acquisitions += 1;
                    if acquisitions >= 2 {
                        out.push(RawFinding {
                            line: toks[j].line,
                            message: format!(
                                "second lock acquisition (`.{}()`)  in one function; drop the first guard in its own scope (or justify the hand-off)",
                                toks[j].text
                            ),
                        });
                    }
                }
                _ => {}
            }
            j += 1;
        }
        i = j + 1;
    }
    out
}

/// Index of the `)` matching the `(` at `open` (which must hold `(`);
/// `None` if unbalanced or not a paren.
fn matching_paren(toks: &[Tok], open: usize) -> Option<usize> {
    if !toks.get(open)?.is_punct("(") {
        return None;
    }
    let mut depth = 0i32;
    for (offset, t) in toks[open..].iter().enumerate() {
        if t.is_punct("(") {
            depth += 1;
        } else if t.is_punct(")") {
            depth -= 1;
            if depth == 0 {
                return Some(open + offset);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn fire(rule_id: &str, src: &str) -> Vec<RawFinding> {
        let rule = RULES.iter().find(|r| r.id == rule_id).expect("rule exists");
        (rule.check)(&lex(src).toks)
    }

    #[test]
    fn registry_ids_are_unique_and_kebab() {
        let mut seen = std::collections::BTreeSet::new();
        for r in RULES {
            assert!(seen.insert(r.id), "duplicate rule id {}", r.id);
            assert!(
                r.id.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "{} is not kebab-case",
                r.id
            );
        }
        assert_eq!(RULES.len(), 11, "eleven first-class rules");
    }

    #[test]
    fn partial_cmp_in_trait_impl_is_not_flagged() {
        let src = "impl PartialOrd for X { fn partial_cmp(&self, o: &X) -> Option<Ordering> { self.v.partial_cmp(&o.v) } }";
        assert!(fire("partial-cmp-unwrap", src).is_empty());
    }

    #[test]
    fn partial_cmp_unwrap_variants_fire() {
        for chain in ["unwrap()", "expect(\"m\")", "unwrap_or(Ordering::Equal)"] {
            let src = format!("v.sort_by(|a, b| a.partial_cmp(b).{chain});");
            assert_eq!(fire("partial-cmp-unwrap", &src).len(), 1, "{chain}");
        }
    }

    #[test]
    fn float_eq_only_flags_float_literals() {
        assert_eq!(fire("float-eq", "if x == 0.0 { }").len(), 1);
        assert_eq!(fire("float-eq", "if 1.5 != y { }").len(), 1);
        assert!(fire("float-eq", "if x == 0 { }").is_empty());
        assert!(fire("float-eq", "if x >= 0.0 { }").is_empty());
    }

    #[test]
    fn float_cast_needs_a_rounder_or_literal() {
        assert_eq!(fire("float-cast", "let r = x.round() as usize;").len(), 1);
        assert_eq!(fire("float-cast", "let r = 1.5 as u64;").len(), 1);
        assert!(fire("float-cast", "let r = n as usize;").is_empty());
        assert!(fire("float-cast", "let r = cfg.dim as usize;").is_empty());
    }

    #[test]
    fn nested_lock_fires_on_the_second_acquisition_only() {
        let two =
            "fn f(&self) { let a = self.m.read().unwrap(); let b = self.n.write().unwrap(); }";
        assert_eq!(fire("nested-lock", two).len(), 1);
        let one = "fn f(&self) { let a = self.m.lock().unwrap(); }";
        assert!(fire("nested-lock", one).is_empty());
        // io::Read-style calls with arguments are not acquisitions.
        let io = "fn f(&self) { s.read(&mut buf).unwrap(); t.read(&mut buf).unwrap(); }";
        assert!(fire("nested-lock", io).is_empty());
        // Separate functions each take one lock: clean.
        let split = "fn f(&self) { self.m.lock(); } fn g(&self) { self.m.lock(); }";
        assert!(fire("nested-lock", split).is_empty());
    }

    #[test]
    fn thread_spawn_requires_a_call_not_a_substring() {
        assert_eq!(fire("thread-spawn", "std::thread::spawn(|| {});").len(), 1);
        assert_eq!(
            fire("thread-spawn", "scope.spawn(move || work());").len(),
            1
        );
        assert!(fire("thread-spawn", "let spawn_budget = 2; respawn();").is_empty());
    }

    #[test]
    fn env_read_requires_the_env_path() {
        assert_eq!(
            fire("env-read", "let v = std::env::var(\"SMA_X\");").len(),
            1
        );
        assert_eq!(fire("env-read", "let v = env::var_os(\"SMA_X\");").len(), 1);
        assert!(fire("env-read", "let v = self.var;").is_empty());
    }

    #[test]
    fn wallclock_ignores_comments_and_strings() {
        assert!(fire("wallclock", "// Instant::now()\nlet s = \"SystemTime\";").is_empty());
        assert_eq!(fire("wallclock", "let t = Instant::now();").len(), 1);
        assert_eq!(fire("wallclock", "use std::time::Duration;").len(), 1);
    }
}
