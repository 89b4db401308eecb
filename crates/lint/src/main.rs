//! `sma-lint`: writes the workspace's public surface to
//! `API_surface.txt`.
//!
//! ```text
//! sma-lint [--root <dir>]
//! ```
//!
//! `--root` is the workspace root (default: the current directory).
//! The file lists one sorted line per `pub` item outside test code and
//! `crates/shims/`, as `crate file kind name` (see `surface`). CI runs
//! this binary, then `git diff --exit-code API_surface.txt`, so every
//! change to the public surface is a reviewed diff.
//!
//! The determinism contract is enforced by rustc and clippy lints, not
//! here: see `docs/DETERMINISM.md`.

#![deny(missing_docs)]

mod lexer;
mod surface;

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match (arg.as_str(), args.next()) {
            ("--root", Some(dir)) => root = PathBuf::from(dir),
            _ => {
                eprintln!("usage: sma-lint [--root <dir>]");
                return ExitCode::from(2);
            }
        }
    }
    let path = root.join("API_surface.txt");
    let written = surface::workspace_surface(&root)
        .and_then(|lines| std::fs::write(&path, lines.join("\n") + "\n"));
    match written {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sma-lint: cannot write {}: {e}", path.display());
            ExitCode::FAILURE
        }
    }
}
