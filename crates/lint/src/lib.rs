//! `sma-lint`: the workspace's determinism & soundness linter.
//!
//! Every artifact this repository ships — `tests/golden_profiles.txt`,
//! `BENCH_sweep.json`, `BENCH_serve.json` — is pinned bit-for-bit, and
//! the serving/sweep layers multiply the surface where one stray
//! `Instant::now()`, `HashMap` iteration or `partial_cmp().unwrap()`
//! silently breaks that contract. This crate turns the reviewers'
//! checklist into a static pass that runs *before* a golden ever
//! regenerates:
//!
//! * a hand-rolled, string/char-literal/comment-aware token scanner
//!   (`lexer`) — the container has no registry access, so no `syn`;
//! * a rule engine ([`rules`], [`engine`]) with per-crate severity
//!   configuration (`lint.toml`, parsed by [`config`]) and inline
//!   `// sma-lint: allow(<rule>) — <justification>` suppressions that
//!   must carry a justification;
//! * human-readable `file:line` output plus a machine-readable
//!   `LINT_report.json` ([`report`]);
//! * the workspace's public surface, one line per `pub` item, written
//!   to the committed `API_surface.txt` (`surface`).
//!
//! The rules come in three families — **determinism** (wall clock,
//! hash-ordered collections, env reads outside the sanctioned `knobs`
//! modules, nondeterministic seeding), **float ordering**
//! (`partial_cmp().unwrap()` sorts, float `==`, float→int casts in
//! cost paths) and **soundness** (`unsafe`, panicking calls in the
//! runtime's library code, nested lock acquisition). The authoritative
//! list, and which invariant each rule guards, is
//! `docs/DETERMINISM.md`.
//!
//! The binary is the CI gate:
//!
//! ```text
//! cargo run -p sma-lint -- --deny
//! ```
//!
//! exits non-zero if any deny-severity finding survives suppression.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod config;
pub mod engine;
pub(crate) mod lexer;
pub mod report;
pub mod rules;
mod surface;

pub use config::Config;
pub use engine::{lint_source, lint_workspace};
pub use report::{Finding, Report, Severity, SuppressedFinding};
pub use rules::{Rule, RULES};
