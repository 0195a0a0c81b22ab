//! A minimal Rust lexer with source spans.
//!
//! The lint rules (see `crate::rules`) work on token sequences, not a full
//! AST: the hazards they police (`partial_cmp` on floats, lossy casts,
//! nested float `Vec`s) are all visible at the token level, and a
//! hand-rolled lexer keeps the tool dependency-free (the build environment
//! vendors no `syn`). The lexer understands everything needed to avoid
//! false positives from non-code text: line and nested block comments,
//! (raw/byte) string literals, char literals vs. lifetimes, and numeric
//! literals with suffixes.

/// Kind of a lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`as`, `for`, `fn`, ... are plain idents here).
    /// Raw identifiers (`r#fn`) lex as one token whose text keeps the `r#`
    /// prefix, so an escaped keyword never looks like the keyword itself.
    Ident,
    /// Numeric literal (int or float, any base, with or without suffix).
    Num,
    /// String, raw-string, byte-string or char literal. `text` keeps the
    /// literal's source form (quotes included); rules never treat literal
    /// contents as code.
    Lit,
    /// Lifetime (`'a`, `'_`, `'static`).
    Lifetime,
    /// Punctuation. `::` is fused into a single token; everything else is a
    /// single character.
    Punct,
}

/// One token with its source position (1-based line and column).
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
    pub col: u32,
}

impl Tok {
    /// Whether this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// Whether this token is the punctuation `s`.
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokKind::Punct && self.text == s
    }

    /// Whether this numeric literal is written in float form (has a decimal
    /// point or a decimal exponent; hex/octal/binary literals never are).
    pub fn is_float_lit(&self) -> bool {
        if self.kind != TokKind::Num {
            return false;
        }
        let t = &self.text;
        if t.starts_with("0x") || t.starts_with("0X") {
            return false;
        }
        t.contains('.') || t.contains('e') || t.contains('E')
    }
}

/// An allowlist escape-hatch marker parsed from a comment.
///
/// `// lint:allow(L2, L4) -- reason` suppresses findings of the listed rules
/// on the marker's line and on the line directly below it (so a comment line
/// above the offending code works). The reason after `--` is for the
/// reader; the lexer does not keep it.
#[derive(Debug, Clone)]
pub struct AllowMarker {
    /// Rule names as written (`L2`, `L4`, `L5`).
    pub rules: Vec<String>,
    pub line: u32,
}

/// Result of lexing one file.
#[derive(Debug)]
pub struct Lexed {
    pub toks: Vec<Tok>,
    pub allows: Vec<AllowMarker>,
    /// Source split into lines, for rendering diagnostics.
    pub lines: Vec<String>,
}

/// Lexes `src` into tokens, allow markers and source lines.
pub fn lex(src: &str) -> Lexed {
    let chars: Vec<char> = src.chars().collect();
    let mut toks = Vec::new();
    let mut allows = Vec::new();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let mut col: u32 = 1;

    macro_rules! bump {
        () => {{
            if chars[i] == '\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
            i += 1;
        }};
    }

    while i < chars.len() {
        let c = chars[i];
        let (tline, tcol) = (line, col);
        if c.is_whitespace() {
            bump!();
            continue;
        }
        // Comments.
        if c == '/' && i + 1 < chars.len() && chars[i + 1] == '/' {
            let start = i;
            while i < chars.len() && chars[i] != '\n' {
                bump!();
            }
            let text: String = chars[start..i].iter().collect();
            parse_allow(&text, tline, &mut allows);
            continue;
        }
        if c == '/' && i + 1 < chars.len() && chars[i + 1] == '*' {
            let start = i;
            let mut depth = 0usize;
            while i < chars.len() {
                if chars[i] == '/' && i + 1 < chars.len() && chars[i + 1] == '*' {
                    depth += 1;
                    bump!();
                    bump!();
                } else if chars[i] == '*' && i + 1 < chars.len() && chars[i + 1] == '/' {
                    depth -= 1;
                    bump!();
                    bump!();
                    if depth == 0 {
                        break;
                    }
                } else {
                    bump!();
                }
            }
            let text: String = chars[start..i.min(chars.len())].iter().collect();
            parse_allow(&text, tline, &mut allows);
            continue;
        }
        // Raw strings: r"..." / r#"..."# / br#"..."# (any # count).
        if c == 'r' || (c == 'b' && i + 1 < chars.len() && chars[i + 1] == 'r') {
            let mut j = i + if c == 'b' { 2 } else { 1 };
            let mut hashes = 0usize;
            while j < chars.len() && chars[j] == '#' {
                hashes += 1;
                j += 1;
            }
            // Raw identifier (`r#fn`, `r#impl`): one Ident token keeping the
            // `r#` prefix, so an escaped keyword never reads as the keyword.
            if c == 'r'
                && hashes == 1
                && j < chars.len()
                && (chars[j].is_alphabetic() || chars[j] == '_')
            {
                let start = i;
                while i < j {
                    bump!();
                }
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    bump!();
                }
                toks.push(Tok {
                    kind: TokKind::Ident,
                    text: chars[start..i].iter().collect(),
                    line: tline,
                    col: tcol,
                });
                continue;
            }
            if j < chars.len() && chars[j] == '"' {
                let start = i;
                // Consume prefix up to and including the opening quote.
                while i <= j {
                    bump!();
                }
                // Scan to closing quote followed by `hashes` hashes.
                'raw: while i < chars.len() {
                    if chars[i] == '"' {
                        let mut k = 0usize;
                        while k < hashes && i + 1 + k < chars.len() && chars[i + 1 + k] == '#' {
                            k += 1;
                        }
                        if k == hashes {
                            for _ in 0..=hashes {
                                bump!();
                            }
                            break 'raw;
                        }
                    }
                    bump!();
                }
                toks.push(Tok {
                    kind: TokKind::Lit,
                    text: chars[start..i].iter().collect(),
                    line: tline,
                    col: tcol,
                });
                continue;
            }
            // Not a raw string: fall through to identifier lexing.
        }
        // Strings and byte strings.
        if c == '"' || (c == 'b' && i + 1 < chars.len() && chars[i + 1] == '"') {
            let start = i;
            if c == 'b' {
                bump!();
            }
            bump!(); // opening quote
            while i < chars.len() {
                if chars[i] == '\\' && i + 1 < chars.len() {
                    bump!();
                    bump!();
                } else if chars[i] == '"' {
                    bump!();
                    break;
                } else {
                    bump!();
                }
            }
            toks.push(Tok {
                kind: TokKind::Lit,
                text: chars[start..i].iter().collect(),
                line: tline,
                col: tcol,
            });
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' || (c == 'b' && i + 1 < chars.len() && chars[i + 1] == '\'') {
            let q = if c == 'b' { i + 1 } else { i };
            // Char literal if the quote closes after one (possibly escaped)
            // character; otherwise it's a lifetime. One recovery case: a
            // two-scalar content whose second scalar is non-ASCII (a
            // combining-mark sequence like `'é́'`, or an emoji + modifier)
            // is a char literal as far as the rest of the stream is
            // concerned — the old lookahead called it a lifetime and left
            // the closing quote to corrupt every token after it. ASCII at
            // `q + 2` (as in `<'a,'b>`, quote three ahead) stays a
            // lifetime.
            let is_char = (q + 1 < chars.len() && chars[q + 1] == '\\')
                || (q + 2 < chars.len() && chars[q + 2] == '\'')
                || (q + 3 < chars.len() && chars[q + 3] == '\'' && !chars[q + 2].is_ascii());
            if is_char {
                let start = i;
                if c == 'b' {
                    bump!();
                }
                bump!(); // quote
                while i < chars.len() {
                    if chars[i] == '\\' && i + 1 < chars.len() {
                        bump!();
                        bump!();
                    } else if chars[i] == '\'' {
                        bump!();
                        break;
                    } else {
                        bump!();
                    }
                }
                toks.push(Tok {
                    kind: TokKind::Lit,
                    text: chars[start..i].iter().collect(),
                    line: tline,
                    col: tcol,
                });
            } else {
                bump!(); // quote
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    bump!();
                }
                toks.push(Tok {
                    kind: TokKind::Lifetime,
                    text: chars[start..i].iter().collect(),
                    line: tline,
                    col: tcol,
                });
            }
            continue;
        }
        // Numbers.
        if c.is_ascii_digit() {
            let start = i;
            if c == '0' && i + 1 < chars.len() && matches!(chars[i + 1], 'x' | 'X' | 'o' | 'b') {
                bump!();
                bump!();
                while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                    bump!();
                }
            } else {
                while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '_') {
                    bump!();
                }
                // Decimal point: only if followed by a digit (so `1.max(2)`
                // and `0..n` lex the dot separately).
                if i + 1 < chars.len() && chars[i] == '.' && chars[i + 1].is_ascii_digit() {
                    bump!();
                    while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '_') {
                        bump!();
                    }
                }
                // Exponent.
                if i < chars.len() && matches!(chars[i], 'e' | 'E') {
                    let mut j = i + 1;
                    if j < chars.len() && matches!(chars[j], '+' | '-') {
                        j += 1;
                    }
                    if j < chars.len() && chars[j].is_ascii_digit() {
                        while i < j {
                            bump!();
                        }
                        while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '_') {
                            bump!();
                        }
                    }
                }
                // Type suffix (f64, u32, ...).
                while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                    bump!();
                }
            }
            toks.push(Tok {
                kind: TokKind::Num,
                text: chars[start..i].iter().collect(),
                line: tline,
                col: tcol,
            });
            continue;
        }
        // Identifiers and keywords.
        if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                bump!();
            }
            toks.push(Tok {
                kind: TokKind::Ident,
                text: chars[start..i].iter().collect(),
                line: tline,
                col: tcol,
            });
            continue;
        }
        // `::` fused; all other punctuation single-char.
        if c == ':' && i + 1 < chars.len() && chars[i + 1] == ':' {
            bump!();
            bump!();
            toks.push(Tok {
                kind: TokKind::Punct,
                text: "::".into(),
                line: tline,
                col: tcol,
            });
            continue;
        }
        bump!();
        toks.push(Tok {
            kind: TokKind::Punct,
            text: c.to_string(),
            line: tline,
            col: tcol,
        });
    }

    Lexed {
        toks,
        allows,
        lines: src.lines().map(str::to_string).collect(),
    }
}

/// Parses `lint:allow(...)` markers out of a comment's text. Multiline
/// block comments attribute each marker to the line it actually sits on
/// (not the comment's first line), so a marker in the middle of a long
/// `/* ... */` still suppresses the line below it.
fn parse_allow(comment: &str, line: u32, out: &mut Vec<AllowMarker>) {
    for (off, text) in comment.split('\n').enumerate() {
        let line = line + off as u32;
        let mut rest = text;
        while let Some(pos) = rest.find("lint:allow(") {
            rest = &rest[pos + "lint:allow(".len()..];
            let Some(close) = rest.find(')') else {
                break;
            };
            let rules: Vec<String> = rest[..close]
                .split(',')
                .map(str::trim)
                .filter(|r| !r.is_empty())
                .map(str::to_string)
                .collect();
            if !rules.is_empty() {
                out.push(AllowMarker { rules, line });
            }
            rest = &rest[close..];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_idents_numbers_and_spans() {
        let l = lex("let x = 1.5;\nfoo.bar()");
        let idents: Vec<&str> = l
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(idents, ["let", "x", "foo", "bar"]);
        let num = l.toks.iter().find(|t| t.kind == TokKind::Num).unwrap();
        assert!(num.is_float_lit());
        assert_eq!((num.line, num.col), (1, 9));
        let foo = l.toks.iter().find(|t| t.is_ident("foo")).unwrap();
        assert_eq!((foo.line, foo.col), (2, 1));
    }

    #[test]
    fn comments_and_strings_produce_no_idents() {
        let l = lex("// HashMap here\n/* partial_cmp /* nested */ */\nlet s = \"thread_rng\";");
        assert!(!l.toks.iter().any(|t| t.is_ident("HashMap")));
        assert!(!l.toks.iter().any(|t| t.is_ident("partial_cmp")));
        assert!(!l.toks.iter().any(|t| t.is_ident("thread_rng")));
    }

    #[test]
    fn raw_strings_and_chars_and_lifetimes() {
        let l = lex("let r = r#\"Instant::now\"#; let c = 'x'; fn f<'a>(v: &'a str) {}");
        assert!(!l.toks.iter().any(|t| t.is_ident("Instant")));
        assert!(l
            .toks
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "a"));
    }

    #[test]
    fn float_detection_excludes_hex_and_ints() {
        let l = lex("0x1e5 17 2.0 1e9 3f64");
        let floats: Vec<bool> = l.toks.iter().map(Tok::is_float_lit).collect();
        assert_eq!(floats, [false, false, true, true, false]);
    }

    #[test]
    fn allow_markers_parse() {
        let l = lex("// lint:allow(L2, L4) -- reason\nx();\n// lint:allow(L5)\n");
        assert_eq!(l.allows.len(), 2);
        assert_eq!(l.allows[0].rules, ["L2", "L4"]);
        assert_eq!(l.allows[0].line, 1);
        assert_eq!(l.allows[1].rules, ["L5"]);
        assert_eq!(l.allows[1].line, 3);
    }

    #[test]
    fn raw_identifiers_lex_as_single_tokens() {
        // `r#fn` must not leak a phantom `fn` keyword (or a stray `#`) into
        // the stream: L2 exempts `fn partial_cmp`, so `r#fn partial_cmp`
        // would pass for a definition.
        let l = lex("let r#fn = 1; r#impl::go(r#type)");
        assert!(l
            .toks
            .iter()
            .any(|t| t.kind == TokKind::Ident && t.text == "r#fn"));
        assert!(!l.toks.iter().any(|t| t.is_ident("fn")));
        assert!(!l.toks.iter().any(|t| t.is_ident("impl")));
        assert!(!l.toks.iter().any(|t| t.is_punct("#")));
        // A plain `r` binding still lexes as an identifier.
        let l = lex("let r = 1;");
        assert!(l.toks.iter().any(|t| t.is_ident("r")));
    }

    #[test]
    fn block_comment_allow_markers_keep_their_line() {
        // A marker inside a multiline block comment used to be attributed
        // to the comment's first line, so it suppressed the wrong lines.
        let l = lex("/* intro\n lint:allow(L4) -- reason\n */\nx();");
        assert_eq!(l.allows.len(), 1);
        assert_eq!(l.allows[0].line, 2);
    }

    #[test]
    fn multi_scalar_char_literal_does_not_corrupt_stream() {
        // 'é' + combining acute (two scalars) is invalid Rust, but the
        // lexer must consume it as one literal: the old lookahead called it
        // a lifetime and left the closing quote to corrupt what follows.
        let l = lex("let c = '\u{e9}\u{301}'; Instant::now()");
        assert!(l.toks.iter().any(|t| t.is_ident("Instant")));
        assert!(!l.toks.iter().any(|t| t.kind == TokKind::Lifetime));
    }

    #[test]
    fn adjacent_lifetimes_stay_lifetimes() {
        // `<'a,'b>` puts a quote three chars after `'a`; that must not be
        // mistaken for a char literal.
        let l = lex("fn f<'a,'b>(x: &'a u8, y: &'b u8) {}");
        let lts: Vec<&str> = l
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lts, ["a", "b", "a", "b"]);
    }

    #[test]
    fn nasty_raw_strings_and_nested_comments_hide_their_contents() {
        let l = lex("br##\"x \"# Instant\"## /* /* SystemTime */ thread_rng */ ok");
        assert!(!l.toks.iter().any(|t| t.is_ident("Instant")));
        assert!(!l.toks.iter().any(|t| t.is_ident("SystemTime")));
        assert!(!l.toks.iter().any(|t| t.is_ident("thread_rng")));
        assert!(l.toks.iter().any(|t| t.is_ident("ok")));
    }

    #[test]
    fn double_colon_fuses() {
        let l = lex("Instant::now()");
        assert!(l.toks[1].is_punct("::"));
        assert!(l.toks[0].is_ident("Instant") && l.toks[2].is_ident("now"));
    }
}
