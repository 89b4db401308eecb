//! The `sma-lint` CLI: the workspace determinism & soundness gate.
//!
//! ```text
//! sma-lint [--deny] [--root <dir>] [--json <path>] [--list]
//! ```
//!
//! * `--deny` — exit non-zero if any deny-severity finding survives
//!   suppression (the CI gate mode). Without it the run is advisory.
//! * `--root` — workspace root (default: current directory).
//! * `--json` — machine-readable report path (default:
//!   `<root>/LINT_report.json`).
//!
//! Every run also writes the public surface to `<root>/API_surface.txt`.
//! * `--list` — print the rule registry and exit.
//!
//! The policy file is `<root>/lint.toml`; a missing policy file runs
//! every rule at its built-in default severity.

#![forbid(unsafe_code)]

use sma_lint::{lint_workspace, Config, RULES};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut deny = false;
    let mut list = false;
    let mut root = PathBuf::from(".");
    let mut json: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" => deny = true,
            "--list" => list = true,
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => return usage("--root needs a directory"),
            },
            "--json" => match args.next() {
                Some(path) => json = Some(PathBuf::from(path)),
                None => return usage("--json needs a path"),
            },
            other => return usage(&format!("unknown argument {other}")),
        }
    }

    if list {
        for rule in RULES {
            println!("{:<20} {:<12} {}", rule.id, rule.family, rule.summary);
        }
        return ExitCode::SUCCESS;
    }

    let config = match std::fs::read_to_string(root.join("lint.toml")) {
        Ok(text) => match Config::parse(&text) {
            Ok(config) => config,
            Err(e) => {
                eprintln!("sma-lint: {e}");
                return ExitCode::from(2);
            }
        },
        Err(_) => Config::default(),
    };

    let report = match lint_workspace(&root, &config) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("sma-lint: cannot scan workspace: {e}");
            return ExitCode::from(2);
        }
    };

    print!("{}", report.render_human());
    let json_path = json.unwrap_or_else(|| root.join("LINT_report.json"));
    if let Err(e) = report.write_json(&json_path) {
        eprintln!("sma-lint: cannot write {}: {e}", json_path.display());
        return ExitCode::from(2);
    }

    let surface_path = root.join("API_surface.txt");
    if let Err(e) = report.write_surface(&surface_path) {
        eprintln!("sma-lint: cannot write {}: {e}", surface_path.display());
        return ExitCode::from(2);
    }

    if deny && report.deny_count() > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("sma-lint: {problem}");
    eprintln!("usage: sma-lint [--deny] [--root <dir>] [--json <path>] [--list]");
    ExitCode::from(2)
}
