//! A minimal Rust token scanner: comment-, string- and char-literal
//! aware, with no external parser dependency.
//!
//! The scanner produces a flat token stream ([`Tok`]) annotated with
//! 1-based line numbers, plus the line ranges of `#[cfg(test)]` /
//! `#[test]` items ([`LexedFile::test_ranges`]), so the surface listing
//! can skip test code.
//!
//! It is deliberately *not* a parser: the surface extractor matches
//! short token patterns (`pub fn name`, `impl … for Type {`), and the
//! workspace builds offline, so `syn` is not an option.

/// Token classes the surface extractor distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TokKind {
    /// Identifier or keyword (`fn`, `pub`, `impl`, …).
    Ident,
    /// Numeric literal (`7`, `1.5`, `0xE0`, …).
    Number,
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
pub(crate) struct Tok {
    /// Token class.
    pub(crate) kind: TokKind,
    /// Verbatim text (empty for [`TokKind::Str`] — contents are never
    /// matched, only the fact that a string sat there).
    pub(crate) text: String,
    /// 1-based line of the token's first character.
    pub(crate) line: u32,
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

/// The scanner's full output for one file.
#[derive(Debug, Default)]
pub(crate) struct LexedFile {
    /// Token stream in source order.
    pub(crate) toks: Vec<Tok>,
    /// Inclusive `(start_line, end_line)` ranges of `#[cfg(test)]` /
    /// `#[test]` items.
    pub(crate) test_ranges: Vec<(u32, u32)>,
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

/// Scans `src` into tokens and test ranges.
#[must_use]
pub(crate) fn lex(src: &str) -> LexedFile {
    let mut out = LexedFile::default();
    let bytes: Vec<char> = src.chars().collect();
    let mut i = 0usize;
    let mut line: u32 = 1;

    while i < bytes.len() {
        let c = bytes[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if bytes.get(i + 1) == Some(&'/') => {
                while i < bytes.len() && bytes[i] != '\n' {
                    i += 1;
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
                push_tok(&mut out, TokKind::Str, String::new(), line);
                i += 1;
                line = skip_string(&bytes, &mut i, line);
            }
            'r' | 'b' if raw_string_hashes(&bytes, i).is_some() => {
                // r"…", r#"…"#, br#"…"#, b"…" — scan to the matching
                // closing quote + hashes.
                let (quote_at, hashes) = raw_string_hashes(&bytes, i).expect("checked above");
                push_tok(&mut out, TokKind::Str, String::new(), line);
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
                    push_tok(&mut out, TokKind::Lifetime, text, line);
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
                    push_tok(&mut out, TokKind::Char, String::new(), line);
                }
            }
            c if c.is_ascii_digit() => {
                let start = i;
                i += 1;
                while i < bytes.len() {
                    let d = bytes[i];
                    if d.is_alphanumeric()
                        || d == '_'
                        || (d == '.' && bytes.get(i + 1).is_some_and(|n| n.is_ascii_digit()))
                    {
                        i += 1;
                    } else {
                        break;
                    }
                }
                let text: String = bytes[start..i].iter().collect();
                push_tok(&mut out, TokKind::Number, text, line);
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_alphanumeric() || bytes[i] == '_') {
                    i += 1;
                }
                let text: String = bytes[start..i].iter().collect();
                push_tok(&mut out, TokKind::Ident, text, line);
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
                push_tok(&mut out, TokKind::Punct, text, line);
            }
        }
    }
    out.test_ranges = test_ranges(&out.toks);
    out
}

/// Emits a token.
fn push_tok(out: &mut LexedFile, kind: TokKind, text: String, line: u32) {
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
    fn ranges_do_not_swallow_dots() {
        let lexed = lex("for i in 0..n { x(i); }");
        assert!(lexed.toks.iter().any(|t| t.is_punct("..")));
        assert!(lexed
            .toks
            .iter()
            .any(|t| t.kind == TokKind::Number && t.text == "0"));
    }

    #[test]
    fn line_continuations_in_strings_keep_the_line_count() {
        let lexed = lex("let s = \"one \\\n two\";\nlet t = 1;\n");
        let t = lexed.toks.iter().find(|t| t.is_ident("t")).unwrap();
        assert_eq!(t.line, 3);
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
}
