//! The workspace's public surface, one line per `pub` item.
//!
//! `surface_lines` reads one lexed file and lists every item declared
//! plain `pub` outside test code, as `crate file kind name`. Items in an
//! `impl` block are named `Type::name`; each name a `pub use`
//! re-exports gets its own `use` line. Restricted visibility
//! (`pub(crate)`, `pub(super)`, `pub(in …)`), struct fields and items
//! nested in function bodies are not part of the surface. The sorted
//! union over the workspace is `API_surface.txt`, a committed file, so
//! every change to the public surface shows up as a diff.

use crate::lexer::{LexedFile, Tok, TokKind};

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
    use crate::lexer::lex;

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
