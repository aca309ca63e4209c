//! A small purpose-built Rust lexer.
//!
//! The rules in this crate are lexical: they match tokens like `Vec::new`
//! or `.clone()` against source text. Doing that on raw source would
//! misfire on comments (`// the legacy Vec::new path`) and string
//! literals (`".to_vec()"`), so every file is first *scrubbed*: comment
//! and literal bytes are blanked to spaces (newlines preserved, so byte
//! offsets and line numbers stay true to the original file). Brace and
//! parenthesis matching on the scrubbed text is then reliable, which is
//! what the span-scoped `hot-alloc` rule builds on.
//!
//! The lexer deliberately does **not** build an AST: the suite builds
//! fully offline and must not grow a parser dependency. The trade-off is
//! that rules are approximate — which is fine, because every rule has an
//! explicit escape hatch (`// rtr-lint: allow(<rule>) -- <reason>`).

/// An `// rtr-lint: allow(<rule>) -- <reason>` annotation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// 1-based line the annotation sits on. It suppresses findings on its
    /// own line (trailing comment) and on the following line (standalone
    /// comment above the offending statement).
    pub line: usize,
    /// Rule identifier inside `allow(...)`, e.g. `hot-alloc`.
    pub rule: String,
    /// Justification after `--`. Empty when the author forgot one — the
    /// engine turns that into an un-allowable `allow-syntax` finding.
    pub reason: String,
}

/// A source file after comment/literal scrubbing.
#[derive(Debug, Clone)]
pub struct Scrubbed {
    /// Original text, kept for `SAFETY:` comment lookups and snippets.
    pub original: String,
    /// Same byte length as `original`: comments and string/char literal
    /// bytes replaced with spaces, newlines kept.
    pub text: String,
    /// Allow annotations harvested from the comments while scrubbing.
    pub allows: Vec<Allow>,
}

/// Scrubs `source`: blanks comments and literals, harvesting `rtr-lint:`
/// annotations from the comments as it goes.
pub fn scrub(source: &str) -> Scrubbed {
    let bytes = source.as_bytes();
    let mut out = bytes.to_vec();
    let mut allows = Vec::new();
    let mut i = 0usize;

    // Blank `out[from..to]` to spaces, preserving line breaks.
    let blank = |out: &mut [u8], from: usize, to: usize| {
        for b in &mut out[from..to] {
            if *b != b'\n' && *b != b'\r' {
                *b = b' ';
            }
        }
    };

    while i < bytes.len() {
        let b = bytes[i];
        let next = bytes.get(i + 1).copied();
        if b == b'/' && next == Some(b'/') {
            // Line comment: harvest an annotation, then blank it.
            let end = source[i..].find('\n').map(|n| i + n).unwrap_or(bytes.len());
            if let Some(allow) = parse_allow(&source[i + 2..end], line_of(source, i)) {
                allows.push(allow);
            }
            blank(&mut out, i, end);
            i = end;
        } else if b == b'/' && next == Some(b'*') {
            // Block comment (nesting, as in Rust).
            let mut depth = 1usize;
            let mut j = i + 2;
            while j < bytes.len() && depth > 0 {
                if bytes[j] == b'/' && bytes.get(j + 1) == Some(&b'*') {
                    depth += 1;
                    j += 2;
                } else if bytes[j] == b'*' && bytes.get(j + 1) == Some(&b'/') {
                    depth -= 1;
                    j += 2;
                } else {
                    j += 1;
                }
            }
            blank(&mut out, i, j);
            i = j;
        } else if b == b'"' {
            let end = skip_string(bytes, i);
            blank(&mut out, i, end);
            i = end;
        } else if (b == b'r' || b == b'b') && !is_ident_byte(bytes.get(i.wrapping_sub(1)).copied())
        {
            // Possible raw/byte string: r"..", r#".."#, b"..", br#".."#.
            if let Some(end) = skip_raw_or_byte_string(bytes, i) {
                blank(&mut out, i, end);
                i = end;
            } else {
                i += 1;
            }
        } else if b == b'\'' {
            // Char literal vs lifetime.
            if let Some(end) = skip_char_literal(bytes, i) {
                blank(&mut out, i, end);
                i = end;
            } else {
                i += 1; // Lifetime: leave as-is.
            }
        } else {
            i += 1;
        }
    }

    Scrubbed {
        original: source.to_owned(),
        text: String::from_utf8(out).expect("scrubbing preserves UTF-8: whole spans are blanked"),
        allows,
    }
}

fn is_ident_byte(b: Option<u8>) -> bool {
    matches!(b, Some(c) if c == b'_' || c.is_ascii_alphanumeric())
}

/// Skips a `"..."` literal starting at the opening quote; returns the
/// offset one past the closing quote.
fn skip_string(bytes: &[u8], start: usize) -> usize {
    let mut j = start + 1;
    while j < bytes.len() {
        match bytes[j] {
            b'\\' => j += 2,
            b'"' => return j + 1,
            _ => j += 1,
        }
    }
    bytes.len()
}

/// Skips `r"..."`, `r#"..."#`, `b"..."`, `br#"..."#`, `b'x'` starting at
/// the `r`/`b`; `None` when the position is not actually a literal.
fn skip_raw_or_byte_string(bytes: &[u8], start: usize) -> Option<usize> {
    let mut j = start + 1;
    if bytes[start] == b'b' {
        match bytes.get(j) {
            Some(b'\'') => return skip_char_literal(bytes, j),
            Some(b'"') => return Some(skip_string(bytes, j)),
            Some(b'r') => j += 1,
            _ => return None,
        }
    }
    // Raw string: count hashes.
    let mut hashes = 0usize;
    while bytes.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    if bytes.get(j) != Some(&b'"') {
        return None;
    }
    j += 1;
    // Scan for `"` followed by `hashes` hashes.
    while j < bytes.len() {
        if bytes[j] == b'"' {
            let mut k = j + 1;
            let mut seen = 0usize;
            while seen < hashes && bytes.get(k) == Some(&b'#') {
                seen += 1;
                k += 1;
            }
            if seen == hashes {
                return Some(k);
            }
        }
        j += 1;
    }
    Some(bytes.len())
}

/// Distinguishes `'x'` / `'\n'` char literals from `'a` lifetimes.
/// Returns the end offset for a literal, `None` for a lifetime.
fn skip_char_literal(bytes: &[u8], start: usize) -> Option<usize> {
    match bytes.get(start + 1) {
        Some(b'\\') => {
            // Escaped char: scan to the closing quote.
            let mut j = start + 2;
            while j < bytes.len() {
                match bytes[j] {
                    b'\\' => j += 2,
                    b'\'' => return Some(j + 1),
                    _ => j += 1,
                }
            }
            Some(bytes.len())
        }
        Some(_) => {
            // `'c'` where c may be multi-byte: find the closing quote
            // within the next handful of bytes; otherwise it's a lifetime.
            let limit = (start + 6).min(bytes.len());
            for (j, &b) in bytes.iter().enumerate().take(limit).skip(start + 2) {
                if b == b'\'' {
                    return Some(j + 1);
                }
                if b == b'\n' || b == b' ' {
                    return None;
                }
            }
            None
        }
        None => None,
    }
}

/// Parses one comment body for `rtr-lint: allow(<rule>) -- <reason>`.
fn parse_allow(comment: &str, line: usize) -> Option<Allow> {
    let t = comment.trim_start_matches(['/', '!']).trim_start();
    let rest = t.strip_prefix("rtr-lint:")?.trim_start();
    let rest = rest.strip_prefix("allow(")?;
    let close = rest.find(')')?;
    let rule = rest[..close].trim().to_owned();
    let tail = rest[close + 1..].trim_start();
    let reason = tail
        .strip_prefix("--")
        .map(|r| r.trim().to_owned())
        .unwrap_or_default();
    Some(Allow { line, rule, reason })
}

/// 1-based line number of byte `offset` in `text`.
pub fn line_of(text: &str, offset: usize) -> usize {
    text.as_bytes()[..offset.min(text.len())]
        .iter()
        .filter(|&&b| b == b'\n')
        .count()
        + 1
}

/// Byte offsets of every identifier-boundary occurrence of `token`.
///
/// A match requires that the bytes immediately before and after are not
/// identifier characters, so `HashMap` does not match `MyHashMapLike` and
/// `unsafe` does not match `unsafe_code`.
pub fn token_positions(text: &str, token: &str) -> Vec<usize> {
    let bytes = text.as_bytes();
    let first_ident = token
        .as_bytes()
        .first()
        .is_some_and(|&b| b == b'_' || b.is_ascii_alphanumeric());
    let last_ident = token
        .as_bytes()
        .last()
        .is_some_and(|&b| b == b'_' || b.is_ascii_alphanumeric());
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(pos) = text[from..].find(token) {
        let at = from + pos;
        let before_ok = !first_ident || !is_ident_byte(at.checked_sub(1).map(|p| bytes[p]));
        let after_ok = !last_ident || !is_ident_byte(bytes.get(at + token.len()).copied());
        if before_ok && after_ok {
            out.push(at);
        }
        from = at + token.len().max(1);
    }
    out
}

/// Given the offset of an opening delimiter in scrubbed text, returns the
/// offset of its matching closing delimiter.
pub fn matching_delim(text: &str, open_at: usize, open: u8, close: u8) -> Option<usize> {
    let bytes = text.as_bytes();
    debug_assert_eq!(bytes[open_at], open);
    let mut depth = 0usize;
    for (j, &b) in bytes.iter().enumerate().skip(open_at) {
        if b == open {
            depth += 1;
        } else if b == close {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// A brace-matched item span in scrubbed text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Byte offset of the item keyword (`fn` / `impl`).
    pub start: usize,
    /// Byte offset one past the closing brace.
    pub end: usize,
}

impl Span {
    /// Returns `true` when `offset` lies inside the span.
    pub fn contains(&self, offset: usize) -> bool {
        (self.start..self.end).contains(&offset)
    }
}

/// Reads the identifier starting at `at` (skipping leading whitespace).
fn ident_at(text: &str, at: usize) -> (String, usize) {
    let bytes = text.as_bytes();
    let mut j = at;
    while j < bytes.len() && (bytes[j] == b' ' || bytes[j] == b'\n' || bytes[j] == b'\r') {
        j += 1;
    }
    let start = j;
    while j < bytes.len() && is_ident_byte(Some(bytes[j])) {
        j += 1;
    }
    (text[start..j].to_owned(), j)
}

/// `true` when a parameter list's first token sequence is a `self`
/// receiver: `self`, `mut self`, `&self`, `&mut self`, `&'a self`,
/// `self: Pin<..>` — i.e. the function is a method.
fn first_param_is_self(params: &str) -> bool {
    let mut rest = params.trim_start();
    rest = rest.strip_prefix('&').unwrap_or(rest).trim_start();
    if let Some(tail) = rest.strip_prefix('\'') {
        // Skip the lifetime name.
        let end = tail
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or(tail.len());
        rest = tail[end..].trim_start();
    }
    rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
    rest.strip_prefix("self")
        .is_some_and(|t| t.is_empty() || t.starts_with([',', ':', ')', ' ']))
}

/// One `fn` item with a body, as enumerated by [`all_fns`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// Span from the `fn` keyword to one past the closing brace.
    pub span: Span,
    /// Byte offset of the body's opening `{` — call extraction and the
    /// needle scans start here so the signature never matches.
    pub body_start: usize,
    /// `true` when the first parameter is a `self` receiver (the index's
    /// method-vs-free-function distinction).
    pub has_self: bool,
}

/// One `impl` block, as enumerated by [`all_impls`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImplItem {
    /// Header text between `impl` and the opening brace (generics, the
    /// trait, the implemented type).
    pub header: String,
    /// Span from the `impl` keyword to one past the closing brace.
    pub span: Span,
}

/// Enumerates every `fn` item that has a body, in source order.
///
/// Signatures without bodies (trait method declarations) are skipped.
/// This is the single lex-derived item walk the whole rule engine
/// shares: the interprocedural index is built over its result.
pub fn all_fns(text: &str) -> Vec<FnItem> {
    let mut out = Vec::new();
    let bytes = text.as_bytes();
    for at in token_positions(text, "fn") {
        let (name, after) = ident_at(text, at + 2);
        if name.is_empty() {
            continue;
        }
        // Scan from the end of the name to the body's `{`, or `;` for a
        // bodiless declaration. Parens/brackets in the signature (args,
        // where-clauses) never contain braces, so the first `{` at this
        // level opens the body.
        let mut j = after;
        while j < bytes.len() && bytes[j] != b'{' && bytes[j] != b';' {
            j += 1;
        }
        if j >= bytes.len() || bytes[j] == b';' {
            continue;
        }
        let has_self = text[after..j]
            .find('(')
            .is_some_and(|p| first_param_is_self(&text[after + p + 1..j]));
        if let Some(close) = matching_delim(text, j, b'{', b'}') {
            out.push(FnItem {
                name,
                span: Span {
                    start: at,
                    end: close + 1,
                },
                body_start: j,
                has_self,
            });
        }
    }
    out
}

/// Enumerates every `impl` block, in source order.
pub fn all_impls(text: &str) -> Vec<ImplItem> {
    let mut out = Vec::new();
    let bytes = text.as_bytes();
    for at in token_positions(text, "impl") {
        let mut j = at + 4;
        while j < bytes.len() && bytes[j] != b'{' && bytes[j] != b';' {
            j += 1;
        }
        if j >= bytes.len() || bytes[j] == b';' {
            continue;
        }
        if let Some(close) = matching_delim(text, j, b'{', b'}') {
            out.push(ImplItem {
                header: text[at + 4..j].to_owned(),
                span: Span {
                    start: at,
                    end: close + 1,
                },
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_blanked() {
        let src = "let a = \"HashMap\"; // HashMap here\nlet b = 1; /* Instant::now */";
        let s = scrub(src);
        assert_eq!(s.text.len(), src.len());
        assert!(!s.text.contains("HashMap"));
        assert!(!s.text.contains("Instant"));
        assert!(s.text.contains("let b = 1;"));
    }

    #[test]
    fn raw_strings_and_chars_are_blanked_lifetimes_kept() {
        let src = "fn f<'a>(x: &'a str) { let c = '{'; let r = r#\"vec![\"#; }";
        let s = scrub(src);
        assert!(!s.text.contains("vec!"));
        assert!(s.text.contains('{'), "outer braces kept");
        assert!(s.text.contains("<'a>"), "lifetime preserved: {}", s.text);
        // The blanked char literal must not unbalance brace matching.
        let open = s.text.find('{').unwrap();
        assert!(matching_delim(&s.text, open, b'{', b'}').is_some());
    }

    #[test]
    fn allow_annotations_are_harvested() {
        let src = "// rtr-lint: allow(hot-alloc) -- warm-up growth only\nuse x;\n";
        let s = scrub(src);
        assert_eq!(s.allows.len(), 1);
        assert_eq!(s.allows[0].rule, "hot-alloc");
        assert_eq!(s.allows[0].reason, "warm-up growth only");
        assert_eq!(s.allows[0].line, 1);
    }

    #[test]
    fn allow_without_reason_has_empty_reason() {
        let s = scrub("let x = 1; // rtr-lint: allow(hot-alloc)\n");
        assert_eq!(s.allows.len(), 1);
        assert!(s.allows[0].reason.is_empty());
    }

    #[test]
    fn token_positions_respect_ident_boundaries() {
        let text = "HashMap MyHashMap HashMapx x.HashMap::new";
        let hits = token_positions(text, "HashMap");
        assert_eq!(hits.len(), 2);
        assert_eq!(line_of(text, hits[0]), 1);
    }

    #[test]
    fn fn_spans_end_at_the_closing_brace() {
        let text = "fn mul_into(a: &A) -> B { inner() } fn other() { vec![] }";
        let fns = all_fns(text);
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].name, "mul_into");
        assert!(text[fns[0].span.start..fns[0].span.end].contains("inner"));
        assert!(!text[fns[0].span.start..fns[0].span.end].contains("vec!"));
    }

    #[test]
    fn trait_declarations_without_bodies_are_skipped() {
        let text = "trait T { fn solve_into(&self, out: &mut V); } ";
        assert!(all_fns(text).is_empty());
    }

    #[test]
    fn impl_spans_carry_their_headers() {
        let text = "impl IcpScratch { fn step(&mut self) {} } impl Other { }";
        let impls = all_impls(text);
        assert_eq!(impls.len(), 2);
        assert_eq!(impls[0].header.trim(), "IcpScratch");
        assert!(text[impls[0].span.start..impls[0].span.end].contains("step"));
    }

    #[test]
    fn nested_block_comments_close_correctly() {
        let s = scrub("/* outer /* inner */ still comment */ let x = 1;");
        assert!(s.text.contains("let x = 1;"));
        assert!(!s.text.contains("inner"));
    }
}
