//! The workspace's public surface, one line per `pub` item.
//!
//! [`workspace_surface`] walks every member crate named in the root
//! `Cargo.toml` (sorted traversal, so the listing is machine
//! independent) and hands each `src/` file outside `crates/shims/` to
//! [`surface_lines`]. That reads one lexed file and lists every item
//! declared plain `pub` outside test code, as `crate file kind name`.
//! Items in an `impl` block are named `Type::name`; each name a
//! `pub use` re-exports gets its own `use` line. Restricted visibility
//! (`pub(crate)`, `pub(super)`, `pub(in …)`), struct fields and items
//! nested in function bodies are not part of the surface. The sorted
//! union over the workspace is `API_surface.txt`, a committed file, so
//! every change to the public surface shows up as a diff.

use crate::lexer::{lex, LexedFile, Tok, TokKind};
use std::io;
use std::path::{Path, PathBuf};

/// The surface of every member crate under `root`: sorted, one line
/// per `pub` item.
///
/// # Errors
///
/// Propagates filesystem errors (unreadable manifests or sources).
pub(crate) fn workspace_surface(root: &Path) -> io::Result<Vec<String>> {
    let manifest = std::fs::read_to_string(root.join("Cargo.toml"))?;
    let mut members = Vec::new();
    if let Some(name) = package_name(&manifest) {
        members.push((name, PathBuf::from("src")));
    }
    for dir in member_dirs(&manifest) {
        if dir.starts_with("crates/shims") {
            continue;
        }
        let member_manifest = std::fs::read_to_string(root.join(&dir).join("Cargo.toml"))?;
        if let Some(name) = package_name(&member_manifest) {
            members.push((name, PathBuf::from(dir).join("src")));
        }
    }
    let mut surface = Vec::new();
    for (name, src_dir) in members {
        let src_dir = root.join(src_dir);
        let mut files = Vec::new();
        collect_rs_files(&src_dir, &mut files)?;
        for path in files {
            let source = std::fs::read_to_string(&path)?;
            let file = path
                .strip_prefix(&src_dir)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            surface.extend(surface_lines(&name, &file, &lex(&source)));
        }
    }
    surface.sort();
    surface.dedup();
    Ok(surface)
}

/// The `[package] name` of one manifest.
fn package_name(manifest: &str) -> Option<String> {
    let mut in_package = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some(value) = line.strip_prefix("name") {
                let value = value.trim_start().strip_prefix('=')?.trim();
                return Some(value.trim_matches('"').to_string());
            }
        }
    }
    None
}

/// The quoted entries of the workspace `members = [...]` array.
fn member_dirs(manifest: &str) -> Vec<String> {
    let Some(start) = manifest.find("members") else {
        return Vec::new();
    };
    let Some(open) = manifest[start..].find('[') else {
        return Vec::new();
    };
    let Some(close) = manifest[start + open..].find(']') else {
        return Vec::new();
    };
    manifest[start + open + 1..start + open + close]
        .split(',')
        .map(|s| s.trim().trim_matches('"').to_string())
        .filter(|s| !s.is_empty())
        .collect()
}

/// Recursively collects `.rs` files, sorted by name at every level.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Keywords that name an item kind after `pub` and its qualifiers.
const KINDS: [&str; 10] = [
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "use", "union",
];

/// What a `{ … }` block is, as far as naming the items inside goes.
enum Block {
    /// A module body (or the file itself): items keep their own name.
    Module,
    /// An `impl` body: items are named `Type::name`.
    Impl(String),
    /// Anything else (function, trait, struct or enum body): `pub`
    /// inside declares no item of the crate's surface.
    Other,
}

/// The surface lines of one file: `crate file kind name` for every
/// `pub` item outside test code, in source order.
#[must_use]
pub(crate) fn surface_lines(crate_name: &str, file: &str, lexed: &LexedFile) -> Vec<String> {
    let toks = &lexed.toks;
    let mut lines = Vec::new();
    let mut blocks = vec![Block::Module];
    // The kind of block the next `{` opens, set by `impl` and `mod`.
    let mut next_block: Option<Block> = None;
    for (i, tok) in toks.iter().enumerate() {
        if tok.is_punct("{") {
            blocks.push(next_block.take().unwrap_or(Block::Other));
        } else if tok.is_punct("}") {
            blocks.pop();
        } else if tok.is_punct(";") {
            next_block = None;
        } else if tok.is_ident("impl") && item_start(toks, i) {
            next_block = Some(Block::Impl(impl_type(&toks[i + 1..])));
        } else if tok.is_ident("mod") {
            next_block = Some(Block::Module);
        } else if tok.is_ident("pub") && !lexed.in_test_code(tok.line) {
            if let Some(scope) = scope(&blocks) {
                if let Some((kind, at)) = item_kind(toks, i + 1) {
                    let names = if kind == "use" {
                        use_names(&toks[at + 1..])
                    } else {
                        toks.get(at + 1)
                            .filter(|t| t.kind == TokKind::Ident)
                            .map(|t| vec![t.text.clone()])
                            .unwrap_or_default()
                    };
                    for name in names {
                        lines.push(format!("{crate_name} {file} {kind} {scope}{name}"));
                    }
                }
            }
        }
    }
    lines
}

/// The name prefix of items declared in the innermost block: empty in
/// a module, `Type::` in an `impl`, `None` inside any other body.
fn scope(blocks: &[Block]) -> Option<String> {
    if blocks.iter().any(|b| matches!(b, Block::Other)) {
        return None;
    }
    match blocks.last() {
        Some(Block::Impl(ty)) => Some(format!("{ty}::")),
        _ => Some(String::new()),
    }
}

/// True if the `impl` at `i` starts an item (`impl … {`), not a type
/// position such as `-> impl Trait` or `x: impl Fn()`.
fn item_start(toks: &[Tok], i: usize) -> bool {
    i == 0
        || ["}", ";", "{", "]"].iter().any(|p| toks[i - 1].is_punct(p))
        || toks[i - 1].is_ident("unsafe")
}

/// The self type of an `impl` header: the last path segment of the type
/// after `for` (trait impls) or after the generics (inherent impls).
fn impl_type(header: &[Tok]) -> String {
    let mut depth = 0i32;
    let mut name = String::new();
    for tok in header {
        if tok.is_punct("{") || (depth == 0 && tok.is_ident("where")) {
            break;
        }
        if tok.is_punct("<") {
            depth += 1;
        } else if tok.is_punct(">") {
            depth -= 1;
        } else if depth == 0 && tok.is_ident("for") {
            name.clear();
        } else if depth == 0 && tok.kind == TokKind::Ident && !tok.is_ident("dyn") {
            name.clone_from(&tok.text);
        }
    }
    name
}

/// The kind keyword after `pub` at `i` and its index, skipping the
/// qualifiers `const`, `unsafe`, `async` and `extern "abi"`. `None` for
/// restricted visibility (`pub(…)`) and for fields (`pub name: T`).
fn item_kind(toks: &[Tok], mut i: usize) -> Option<(&'static str, usize)> {
    while let Some(tok) = toks.get(i) {
        let next_is_fn_qualifier = toks.get(i + 1).is_some_and(|n| {
            ["fn", "unsafe", "async", "extern"]
                .iter()
                .any(|q| n.is_ident(q))
        });
        if (tok.is_ident("const") && next_is_fn_qualifier)
            || tok.is_ident("unsafe")
            || tok.is_ident("async")
            || tok.is_ident("extern")
            || tok.kind == TokKind::Str
        {
            i += 1;
            continue;
        }
        return KINDS.iter().find(|k| tok.is_ident(k)).map(|k| (*k, i));
    }
    None
}

/// Every name a use tree (the tokens after `use`) brings into scope:
/// the last segment of each leaf, or its `as` alias. `path::{self}`
/// names the module and a glob names its path with `*`.
fn use_names(tree: &[Tok]) -> Vec<String> {
    let mut names = Vec::new();
    // Path segments leading to the current position, one prefix per
    // open brace.
    let mut prefixes: Vec<Vec<String>> = vec![Vec::new()];
    let mut path: Vec<String> = Vec::new();
    let mut i = 0;
    while let Some(tok) = tree.get(i) {
        if tok.is_punct(";") {
            break;
        }
        if tok.is_punct("{") {
            let mut prefix = prefixes.last().cloned().unwrap_or_default();
            prefix.append(&mut path);
            prefixes.push(prefix);
        } else if tok.is_punct(",") || tok.is_punct("}") {
            if let Some(leaf) = path.last() {
                names.push(leaf.clone());
            }
            path.clear();
            if tok.is_punct("}") {
                prefixes.pop();
            }
        } else if tok.is_ident("as") {
            if let Some(alias) = tree.get(i + 1) {
                path = vec![alias.text.clone()];
                i += 1;
            }
        } else if tok.is_ident("self") && path.is_empty() {
            path = prefixes
                .last()
                .and_then(|p| p.last())
                .into_iter()
                .cloned()
                .collect();
        } else if tok.is_punct("*") {
            let mut glob = prefixes.last().cloned().unwrap_or_default();
            glob.append(&mut path);
            glob.push("*".into());
            path = vec![glob.join("::")];
        } else if tok.kind == TokKind::Ident {
            path.push(tok.text.clone());
        }
        i += 1;
    }
    if let Some(leaf) = path.last() {
        names.push(leaf.clone());
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn member_parsing_reads_names_and_dirs() {
        let manifest = "[workspace]\nmembers = [\n  \"crates/a\",\n  \"crates/b\",\n]\n[package]\nname = \"root\"\n";
        assert_eq!(member_dirs(manifest), ["crates/a", "crates/b"]);
        assert_eq!(package_name(manifest).as_deref(), Some("root"));
    }

    #[test]
    fn extractor_lists_pub_items_and_skips_the_rest() {
        let src = "\
pub struct Grid {
    pub width: u32,
    height: u32,
}
impl<T: Copy> Grid<T> where T: Default {
    pub const fn new() -> Self { todo!() }
    pub(crate) fn hidden(&self) {}
    fn private(&self) {}
}
pub(crate) fn internal() {}
pub fn outside() -> impl Iterator<Item = u32> { std::iter::empty() }
pub use crate::shapes::{Square, circle::Circle as Round, lines::{self, Line}};
#[cfg(test)]
mod tests {
    pub fn helper() {}
}
";
        let lines = surface_lines("demo", "grid.rs", &lex(src));
        assert_eq!(
            lines,
            [
                "demo grid.rs struct Grid",
                "demo grid.rs fn Grid::new",
                "demo grid.rs fn outside",
                "demo grid.rs use Square",
                "demo grid.rs use Round",
                "demo grid.rs use lines",
                "demo grid.rs use Line",
            ]
        );
    }
}
