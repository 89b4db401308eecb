//! A minimal Rust token scanner: comment-, string- and char-literal
//! aware, with no external parser dependency.
//!
//! The scanner produces a flat token stream ([`Tok`]) annotated with
//! 1-based line numbers, and as side products extracts:
//!
//! * inline suppression comments
//!   (`// sma-lint: allow(rule) — justification`, [`Suppression`]);
//! * `#[cfg(test)]` / `#[test]` item ranges ([`LexedFile::test_ranges`]),
//!   so rules that only police library code can skip test modules.
//!
//! It is deliberately *not* a parser: rules match short token patterns
//! (`.partial_cmp(…).unwrap()`, `env :: var`, …), which is exactly the
//! granularity the determinism rules need and keeps the whole linter
//! self-contained — the container has no crates-registry access, so
//! `syn` is not an option.

/// Token classes the rule engine distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `unsafe`, `HashMap`, …).
    Ident,
    /// Numeric literal; `float` is true for `1.5`, `2e3`, `1.0f64`, …
    Number {
        /// Whether the literal is a floating-point literal.
        float: bool,
    },
    /// String literal (regular, raw or byte), contents dropped.
    Str,
    /// Character literal (`'x'`, `'\n'`).
    Char,
    /// Lifetime (`'a`) — distinguished from [`TokKind::Char`].
    Lifetime,
    /// Punctuation; multi-char operators `==`, `!=`, `::`, `->`, `=>`,
    /// `..`, `<=`, `>=` are kept as one token.
    Punct,
}

/// One scanned token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Token class.
    pub kind: TokKind,
    /// Verbatim text (empty for [`TokKind::Str`] — contents are never
    /// matched, only the fact that a string sat there).
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
}

impl Tok {
    /// True if the token is the identifier `s`.
    #[must_use]
    pub(crate) fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// True if the token is the punctuation `s`.
    #[must_use]
    pub(crate) fn is_punct(&self, s: &str) -> bool {
        self.kind == TokKind::Punct && self.text == s
    }
}

/// One inline suppression comment.
///
/// Syntax (trailing on the offending line, or standalone on the line
/// directly above it):
///
/// ```text
/// // sma-lint: allow(rule-id, other-rule) — why this is sound
/// ```
///
/// The justification — any non-empty text after the closing paren
/// (leading `:`, `-`, `—` separators are stripped) — is **mandatory**;
/// a blanket `allow` with no reason is itself a deny-severity finding.
/// For standalone markers, plain `//` comment lines directly below the
/// marker are folded into the justification, so a long reason can wrap.
#[derive(Debug, Clone)]
pub(crate) struct Suppression {
    /// Line the comment sits on.
    pub comment_line: u32,
    /// Source line the suppression covers (its own line for trailing
    /// comments, the next token-bearing line for standalone ones).
    pub covers_line: u32,
    /// Rule ids named in `allow(...)`; empty means the marker was
    /// malformed.
    pub rules: Vec<String>,
    /// Justification text (may be empty — the engine rejects that).
    pub justification: String,
}

/// The scanner's full output for one file.
#[derive(Debug, Default)]
pub(crate) struct LexedFile {
    /// Token stream in source order.
    pub toks: Vec<Tok>,
    /// Inline suppressions, in source order.
    pub suppressions: Vec<Suppression>,
    /// Inclusive `(start_line, end_line)` ranges of `#[cfg(test)]` /
    /// `#[test]` items.
    pub test_ranges: Vec<(u32, u32)>,
}

impl LexedFile {
    /// True if `line` falls inside a test item.
    #[must_use]
    pub(crate) fn in_test_code(&self, line: u32) -> bool {
        self.test_ranges
            .iter()
            .any(|&(start, end)| (start..=end).contains(&line))
    }
}

/// Scans `src` into tokens, suppressions and test ranges.
#[must_use]
pub(crate) fn lex(src: &str) -> LexedFile {
    let mut out = LexedFile::default();
    let bytes: Vec<char> = src.chars().collect();
    let mut i = 0usize;
    let mut line: u32 = 1;
    // (comment_line, body) of standalone suppression comments waiting
    // for their next token-bearing line, and the line of the last
    // comment folded into the newest one (continuation lines extend
    // the justification).
    let mut pending: Vec<(u32, String)> = Vec::new();
    let mut pending_last: u32 = 0;

    while i < bytes.len() {
        let c = bytes[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if bytes.get(i + 1) == Some(&'/') => {
                let start = i;
                // Doc comments (`///`, `//!`) are prose, never
                // suppressions — only a plain `//` comment that *starts*
                // with the marker counts.
                let doc = matches!(bytes.get(i + 2), Some('/' | '!'));
                while i < bytes.len() && bytes[i] != '\n' {
                    i += 1;
                }
                let text: String = bytes[start..i].iter().collect();
                let body = text.trim_start_matches('/').trim_start();
                if !doc && body.starts_with("sma-lint") {
                    let trailing = out.toks.last().is_some_and(|t| t.line == line);
                    if trailing {
                        out.suppressions.push(parse_suppression(line, line, body));
                    } else {
                        pending.push((line, body.to_string()));
                        pending_last = line;
                    }
                } else if !doc && pending_last + 1 == line {
                    // A plain comment directly under a pending marker
                    // continues its justification across lines.
                    if let Some((_, text)) = pending.last_mut() {
                        text.push(' ');
                        text.push_str(body);
                        pending_last = line;
                    }
                }
            }
            '/' if bytes.get(i + 1) == Some(&'*') => {
                // Block comment, nesting-aware (Rust allows it).
                let mut depth = 1;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == '\n' {
                        line += 1;
                        i += 1;
                    } else if bytes[i] == '/' && bytes.get(i + 1) == Some(&'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == '*' && bytes.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            '"' => {
                push_tok(&mut out, &mut pending, TokKind::Str, String::new(), line);
                i += 1;
                line = skip_string(&bytes, &mut i, line);
            }
            'r' | 'b' if raw_string_hashes(&bytes, i).is_some() => {
                // r"…", r#"…"#, br#"…"#, b"…" — scan to the matching
                // closing quote + hashes.
                let (quote_at, hashes) = raw_string_hashes(&bytes, i).expect("checked above");
                push_tok(&mut out, &mut pending, TokKind::Str, String::new(), line);
                if hashes == usize::MAX {
                    // plain b"…": an escaped string body.
                    i = quote_at + 1;
                    line = skip_string(&bytes, &mut i, line);
                } else {
                    i = quote_at + 1;
                    loop {
                        if i >= bytes.len() {
                            break;
                        }
                        if bytes[i] == '\n' {
                            line += 1;
                            i += 1;
                            continue;
                        }
                        if bytes[i] == '"'
                            && bytes[i + 1..]
                                .iter()
                                .take(hashes)
                                .filter(|&&h| h == '#')
                                .count()
                                == hashes
                        {
                            i += 1 + hashes;
                            break;
                        }
                        i += 1;
                    }
                }
            }
            '\'' => {
                // Lifetime or char literal. `'a` / `'static` are
                // lifetimes; `'x'` / `'\n'` are chars.
                let next = bytes.get(i + 1).copied().unwrap_or(' ');
                let after = bytes.get(i + 2).copied().unwrap_or(' ');
                if (next.is_alphabetic() || next == '_') && after != '\'' {
                    let start = i;
                    i += 1;
                    while i < bytes.len() && (bytes[i].is_alphanumeric() || bytes[i] == '_') {
                        i += 1;
                    }
                    let text: String = bytes[start..i].iter().collect();
                    push_tok(&mut out, &mut pending, TokKind::Lifetime, text, line);
                } else {
                    // Char literal: consume to the closing quote,
                    // honouring `\'` and `\\` escapes.
                    i += 1;
                    while i < bytes.len() {
                        match bytes[i] {
                            '\\' => i += 2,
                            '\'' => {
                                i += 1;
                                break;
                            }
                            _ => i += 1,
                        }
                    }
                    push_tok(&mut out, &mut pending, TokKind::Char, String::new(), line);
                }
            }
            c if c.is_ascii_digit() => {
                let start = i;
                let hex = c == '0' && matches!(bytes.get(i + 1), Some('x' | 'X' | 'o' | 'b'));
                i += 1;
                let mut float = false;
                while i < bytes.len() {
                    let d = bytes[i];
                    if d.is_alphanumeric() || d == '_' {
                        if !hex && (d == 'e' || d == 'E') {
                            float = true;
                        }
                        i += 1;
                    } else if d == '.' && bytes.get(i + 1).is_some_and(|n| n.is_ascii_digit()) {
                        float = true;
                        i += 1;
                    } else {
                        break;
                    }
                }
                let text: String = bytes[start..i].iter().collect();
                let float = float || text.ends_with("f32") || text.ends_with("f64");
                push_tok(
                    &mut out,
                    &mut pending,
                    TokKind::Number { float },
                    text,
                    line,
                );
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_alphanumeric() || bytes[i] == '_') {
                    i += 1;
                }
                let text: String = bytes[start..i].iter().collect();
                push_tok(&mut out, &mut pending, TokKind::Ident, text, line);
            }
            _ => {
                let two: String = bytes[i..(i + 2).min(bytes.len())].iter().collect();
                let text = match two.as_str() {
                    "==" | "!=" | "::" | "->" | "=>" | ".." | "<=" | ">=" => {
                        i += 2;
                        two
                    }
                    _ => {
                        i += 1;
                        c.to_string()
                    }
                };
                push_tok(&mut out, &mut pending, TokKind::Punct, text, line);
            }
        }
    }
    // Standalone suppressions at EOF with no code after them: anchor to
    // their own line so they surface as unused rather than vanish.
    for (comment_line, body) in pending {
        out.suppressions
            .push(parse_suppression(comment_line, comment_line, &body));
    }
    out.test_ranges = test_ranges(&out.toks);
    out
}

/// Emits a token, resolving any standalone suppressions that were
/// waiting for the next token-bearing line.
fn push_tok(
    out: &mut LexedFile,
    pending: &mut Vec<(u32, String)>,
    kind: TokKind,
    text: String,
    line: u32,
) {
    for (comment_line, body) in pending.drain(..) {
        out.suppressions
            .push(parse_suppression(comment_line, line, &body));
    }
    out.toks.push(Tok { kind, text, line });
}

/// Consumes an escaped string body starting *after* the opening quote;
/// returns the updated line counter.
fn skip_string(bytes: &[char], i: &mut usize, mut line: u32) -> u32 {
    while *i < bytes.len() {
        match bytes[*i] {
            '\\' => {
                // An escaped newline (line continuation) is still a line.
                if bytes.get(*i + 1) == Some(&'\n') {
                    line += 1;
                }
                *i += 2;
            }
            '\n' => {
                line += 1;
                *i += 1;
            }
            '"' => {
                *i += 1;
                break;
            }
            _ => *i += 1,
        }
    }
    line
}

/// If position `i` starts a raw/byte string (`r"`, `r#`, `br#`, `b"`),
/// returns `(index of opening quote, hash count)`; `usize::MAX` hashes
/// flags a plain `b"…"` escaped body. `None` if this is an ordinary
/// identifier such as `rows` (or a raw identifier `r#match`).
fn raw_string_hashes(bytes: &[char], i: usize) -> Option<(usize, usize)> {
    let mut j = i;
    if bytes[j] == 'b' {
        j += 1;
        if bytes.get(j) == Some(&'"') {
            return Some((j, usize::MAX));
        }
    }
    if bytes.get(j) != Some(&'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0;
    while bytes.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    if bytes.get(j) == Some(&'"') {
        Some((j, hashes))
    } else {
        None // raw identifier (r#fn) or a plain ident starting with r/br
    }
}

/// Parses a `sma-lint` comment body (starting at the `sma-lint`
/// marker) into a [`Suppression`]. A body that does not match
/// `sma-lint: allow(rule, …)` yields empty `rules` — the engine
/// reports that as a malformed suppression.
fn parse_suppression(comment_line: u32, covers_line: u32, body: &str) -> Suppression {
    let mut rules = Vec::new();
    let mut justification = String::new();
    let rest = body
        .strip_prefix("sma-lint")
        .map(|r| r.trim_start_matches([':', ' ']))
        .unwrap_or("");
    if let Some(open) = rest.strip_prefix("allow").map(str::trim_start) {
        if let Some(args_start) = open.strip_prefix('(') {
            if let Some(close) = args_start.find(')') {
                rules = args_start[..close]
                    .split(',')
                    .map(|r| r.trim().to_string())
                    .filter(|r| !r.is_empty())
                    .collect();
                justification = args_start[close + 1..]
                    .trim_start_matches([':', '-', '—', '–', ' '])
                    .trim()
                    .to_string();
            }
        }
    }
    Suppression {
        comment_line,
        covers_line,
        rules,
        justification,
    }
}

/// Finds `#[cfg(test)]` / `#[test]`-attributed items and returns their
/// inclusive line ranges. An item is the attribute plus everything to
/// its closing brace (or terminating semicolon).
fn test_ranges(toks: &[Tok]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_punct("#") && toks.get(i + 1).is_some_and(|t| t.is_punct("[")) {
            let attr_start_line = toks[i].line;
            let (attr_end, is_test) = scan_attribute(toks, i + 1);
            let mut j = attr_end;
            // Skip any further attributes stacked on the same item.
            while toks.get(j).is_some_and(|t| t.is_punct("#"))
                && toks.get(j + 1).is_some_and(|t| t.is_punct("["))
            {
                let (next_end, _) = scan_attribute(toks, j + 1);
                j = next_end;
            }
            if is_test {
                let end_line = item_end_line(toks, j);
                ranges.push((attr_start_line, end_line));
                // Resume after the item so nested attributes inside it
                // are not double-counted.
                while j < toks.len() && toks[j].line <= end_line {
                    j += 1;
                }
            }
            i = j.max(i + 1);
        } else {
            i += 1;
        }
    }
    ranges
}

/// Scans one `[...]` attribute starting at its opening bracket; returns
/// `(index past the closing bracket, attribute names a bare `test`)`.
fn scan_attribute(toks: &[Tok], open: usize) -> (usize, bool) {
    let mut depth = 0usize;
    let mut is_test = false;
    let mut j = open;
    while j < toks.len() {
        if toks[j].is_punct("[") {
            depth += 1;
        } else if toks[j].is_punct("]") {
            depth -= 1;
            if depth == 0 {
                return (j + 1, is_test);
            }
        } else if toks[j].is_ident("test") {
            is_test = true;
        }
        j += 1;
    }
    (j, is_test)
}

/// Line on which the item starting at token `j` ends: the matching `}`
/// of its first brace, or the first top-level `;`.
fn item_end_line(toks: &[Tok], j: usize) -> u32 {
    let mut depth = 0usize;
    let mut k = j;
    while k < toks.len() {
        if toks[k].is_punct("{") {
            depth += 1;
        } else if toks[k].is_punct("}") {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return toks[k].line;
            }
        } else if toks[k].is_punct(";") && depth == 0 {
            return toks[k].line;
        }
        k += 1;
    }
    toks.last().map_or(0, |t| t.line)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_strings_and_chars_emit_no_pattern_idents() {
        let src = r##"
            // Instant::now() in a comment
            /* HashMap in a block /* nested */ comment */
            let s = "Instant SystemTime HashMap";
            let r = r#"env::var"#;
            let c = 'I';
            let lt: &'static str = s;
        "##;
        let lexed = lex(src);
        assert!(!lexed.toks.iter().any(|t| t.is_ident("Instant")));
        assert!(!lexed.toks.iter().any(|t| t.is_ident("HashMap")));
        assert!(lexed.toks.iter().any(|t| t.kind == TokKind::Lifetime));
    }

    #[test]
    fn float_literals_are_classified() {
        let lexed = lex("let a = 1.5; let b = 2e3; let c = 3f64; let d = 7; let e = 0xE0;");
        let floats: Vec<&str> = lexed
            .toks
            .iter()
            .filter(|t| matches!(t.kind, TokKind::Number { float: true }))
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(floats, ["1.5", "2e3", "3f64"]);
    }

    #[test]
    fn ranges_do_not_swallow_dots() {
        let lexed = lex("for i in 0..n { x(i); }");
        assert!(lexed.toks.iter().any(|t| t.is_punct("..")));
        assert!(lexed
            .toks
            .iter()
            .any(|t| matches!(t.kind, TokKind::Number { float: false }) && t.text == "0"));
    }

    #[test]
    fn trailing_and_standalone_suppressions_anchor_correctly() {
        let src = "\
let a = 1; // sma-lint: allow(float-eq) — same line
// sma-lint: allow(wallclock): next line
let b = 2;
";
        let lexed = lex(src);
        assert_eq!(lexed.suppressions.len(), 2);
        assert_eq!(lexed.suppressions[0].covers_line, 1);
        assert_eq!(lexed.suppressions[0].rules, ["float-eq"]);
        assert_eq!(lexed.suppressions[1].comment_line, 2);
        assert_eq!(lexed.suppressions[1].covers_line, 3);
        assert_eq!(lexed.suppressions[1].justification, "next line");
    }

    #[test]
    fn line_continuations_in_strings_keep_the_line_count() {
        let lexed = lex("let s = \"one \\\n two\";\nlet t = 1;\n");
        let t = lexed.toks.iter().find(|t| t.is_ident("t")).unwrap();
        assert_eq!(t.line, 3);
    }

    #[test]
    fn malformed_suppression_yields_empty_rules() {
        let lexed = lex("// sma-lint: allow everything\nlet x = 1;\n");
        assert_eq!(lexed.suppressions.len(), 1);
        assert!(lexed.suppressions[0].rules.is_empty());
    }

    #[test]
    fn cfg_test_mod_and_test_fn_ranges() {
        let src = "\
fn lib_code() {}
#[cfg(test)]
mod tests {
    #[test]
    fn inner() { let x = 1; }
}
fn more_lib() {}
";
        let lexed = lex(src);
        assert!(!lexed.in_test_code(1));
        assert!(lexed.in_test_code(3));
        assert!(lexed.in_test_code(5));
        assert!(!lexed.in_test_code(7));
    }

    #[test]
    fn continuation_comment_lines_extend_the_justification() {
        let src = "\
// sma-lint: allow(wallclock) — wall time IS the measurand;
// it lands in the report, never in model state.
use std::time::Instant;
";
        let lexed = lex(src);
        assert_eq!(lexed.suppressions.len(), 1);
        let s = &lexed.suppressions[0];
        assert_eq!(s.covers_line, 3);
        assert_eq!(
            s.justification,
            "wall time IS the measurand; it lands in the report, never in model state."
        );
    }

    #[test]
    fn detached_comment_does_not_extend_a_justification() {
        // A blank line breaks the block: the trailing comment is prose,
        // not part of the suppression.
        let src = "\
// sma-lint: allow(wallclock) — reason.

// unrelated comment
use std::time::Instant;
";
        let lexed = lex(src);
        assert_eq!(lexed.suppressions.len(), 1);
        assert_eq!(lexed.suppressions[0].justification, "reason.");
    }
}
