//! A minimal, dependency-free Rust lexer.
//!
//! [`crate::parser`] builds its item tree on this stream: comments
//! stripped, string contents preserved, integer literals normalized to
//! values (what `cost-literals` compares), and line numbers for
//! reporting. A full parse (via `syn` or rustc) would be overkill and
//! would pull network dependencies into an offline build. A scan lexes
//! each file once, in [`crate::parser::FileIr::parse`]; only the rule
//! context lexes its two canonical modules on its own.
//!
//! Handled: line/doc comments, nested block comments, string / raw
//! string / byte-string literals, char literals vs. lifetimes, integer
//! literals in all radixes with `_` separators and type suffixes, float
//! literals (skipped), identifiers, and single-character punctuation.

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword.
    Ident(String),
    /// Integer literal, normalized (radix decoded, `_` and suffix
    /// stripped); saturates at `u64::MAX`.
    Int(u64),
    /// String literal contents (escapes left verbatim).
    Str(String),
    /// Any other single character of punctuation.
    Punct(char),
}

/// A token plus the 1-based source line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token.
    pub tok: Tok,
    /// 1-based line number.
    pub line: u32,
}

/// Lexes `src` into a token stream, discarding comments and whitespace.
pub fn lex(src: &str) -> Vec<Token> {
    let cs: Vec<char> = src.chars().collect();
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < cs.len() {
        let c = cs[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Comments (line, and nested block).
        if c == '/' && i + 1 < cs.len() && cs[i + 1] == '/' {
            while i < cs.len() && cs[i] != '\n' {
                i += 1;
            }
            continue;
        }
        if c == '/' && i + 1 < cs.len() && cs[i + 1] == '*' {
            let mut depth = 1u32;
            i += 2;
            while i < cs.len() && depth > 0 {
                if cs[i] == '/' && i + 1 < cs.len() && cs[i + 1] == '*' {
                    depth += 1;
                    i += 2;
                } else if cs[i] == '*' && i + 1 < cs.len() && cs[i + 1] == '/' {
                    depth -= 1;
                    i += 2;
                } else {
                    if cs[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
            continue;
        }
        if c == '"' {
            let start_line = line;
            let (s, ni, nl) = scan_string(&cs, i, line);
            out.push(Token {
                tok: Tok::Str(s),
                line: start_line,
            });
            i = ni;
            line = nl;
            continue;
        }
        if c == '\'' {
            i = skip_char_or_lifetime(&cs, i);
            continue;
        }
        if c.is_ascii_digit() {
            let (tok, ni) = scan_number(&cs, i);
            if let Some(t) = tok {
                out.push(Token { tok: t, line });
            }
            i = ni;
            continue;
        }
        if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < cs.len() && (cs[i].is_alphanumeric() || cs[i] == '_') {
                i += 1;
            }
            let ident: String = cs[start..i].iter().collect();
            // String-literal prefixes: r".."#, b"..", br"..", b'..'.
            if matches!(ident.as_str(), "r" | "b" | "br" | "rb") && i < cs.len() {
                if cs[i] == '"' && !ident.contains('r') {
                    let start_line = line;
                    let (s, ni, nl) = scan_string(&cs, i, line);
                    out.push(Token {
                        tok: Tok::Str(s),
                        line: start_line,
                    });
                    i = ni;
                    line = nl;
                    continue;
                }
                if (cs[i] == '"' || cs[i] == '#') && ident.contains('r') {
                    let start_line = line;
                    if let Some((s, ni, nl)) = scan_raw_string(&cs, i, line) {
                        out.push(Token {
                            tok: Tok::Str(s),
                            line: start_line,
                        });
                        i = ni;
                        line = nl;
                        continue;
                    }
                }
                if cs[i] == '\'' && ident == "b" {
                    i = skip_char_or_lifetime(&cs, i);
                    continue;
                }
            }
            out.push(Token {
                tok: Tok::Ident(ident),
                line,
            });
            continue;
        }
        out.push(Token {
            tok: Tok::Punct(c),
            line,
        });
        i += 1;
    }
    out
}

/// Scans a `"..."` literal starting at the opening quote; returns the
/// contents, the index past the closing quote, and the updated line.
fn scan_string(cs: &[char], mut i: usize, mut line: u32) -> (String, usize, u32) {
    let mut s = String::new();
    i += 1; // opening quote
    while i < cs.len() {
        match cs[i] {
            '\\' if i + 1 < cs.len() => {
                s.push(cs[i]);
                s.push(cs[i + 1]);
                if cs[i + 1] == '\n' {
                    line += 1;
                }
                i += 2;
            }
            '"' => {
                i += 1;
                break;
            }
            ch => {
                if ch == '\n' {
                    line += 1;
                }
                s.push(ch);
                i += 1;
            }
        }
    }
    (s, i, line)
}

/// Scans a raw string `#*"..."#*` starting at the first `#` or `"`.
fn scan_raw_string(cs: &[char], mut i: usize, mut line: u32) -> Option<(String, usize, u32)> {
    let mut hashes = 0usize;
    while i < cs.len() && cs[i] == '#' {
        hashes += 1;
        i += 1;
    }
    if i >= cs.len() || cs[i] != '"' {
        return None;
    }
    i += 1;
    let mut s = String::new();
    while i < cs.len() {
        if cs[i] == '"' {
            let mut j = i + 1;
            let mut seen = 0usize;
            while j < cs.len() && cs[j] == '#' && seen < hashes {
                seen += 1;
                j += 1;
            }
            if seen == hashes {
                return Some((s, j, line));
            }
        }
        if cs[i] == '\n' {
            line += 1;
        }
        s.push(cs[i]);
        i += 1;
    }
    Some((s, i, line))
}

/// Skips a char literal (`'a'`, `'\n'`, `b'x'`) or a lifetime
/// (`'static`, `'_`) starting at the quote; returns the index after it.
fn skip_char_or_lifetime(cs: &[char], i: usize) -> usize {
    if i + 1 < cs.len() && cs[i + 1] == '\\' {
        // Escaped char literal: skip to the closing quote.
        let mut j = i + 2;
        while j < cs.len() && cs[j] != '\'' {
            j += 1;
        }
        return (j + 1).min(cs.len());
    }
    if i + 2 < cs.len() && cs[i + 2] == '\'' && cs[i + 1] != '\'' {
        return i + 3; // plain 'a'
    }
    // Lifetime: consume the identifier after the quote.
    let mut j = i + 1;
    while j < cs.len() && (cs[j].is_alphanumeric() || cs[j] == '_') {
        j += 1;
    }
    j
}

/// Scans a numeric literal starting at a digit. Returns `None` as the
/// token for floats (the rules only care about integers) and the index
/// past the literal (including any fraction, exponent, or suffix).
fn scan_number(cs: &[char], mut i: usize) -> (Option<Tok>, usize) {
    let radix: u64 = if cs[i] == '0' && i + 1 < cs.len() {
        match cs[i + 1] {
            'x' | 'X' => {
                i += 2;
                16
            }
            'o' | 'O' => {
                i += 2;
                8
            }
            'b' | 'B' => {
                i += 2;
                2
            }
            _ => 10,
        }
    } else {
        10
    };
    let mut val: u64 = 0;
    let mut in_suffix = false;
    while i < cs.len() && (cs[i].is_ascii_alphanumeric() || cs[i] == '_') {
        let ch = cs[i];
        if ch == '_' {
            i += 1;
            continue;
        }
        if !in_suffix {
            match ch.to_digit(radix as u32) {
                Some(d) => val = val.saturating_mul(radix).saturating_add(d as u64),
                None => in_suffix = true,
            }
        }
        i += 1;
    }
    // Float: a fraction (`12.5`) or exponent suffix already consumed the
    // `e` digits above; detect the fraction here and skip it.
    if i < cs.len() && cs[i] == '.' && i + 1 < cs.len() && cs[i + 1].is_ascii_digit() {
        i += 1;
        while i < cs.len() && (cs[i].is_ascii_alphanumeric() || cs[i] == '_') {
            i += 1;
        }
        return (None, i);
    }
    (Some(Tok::Int(val)), i)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn strips_comments_and_strings_keep_contents() {
        let toks = lex("let x = \"12_000\"; // 12_000\n/* 17_000 */ y");
        assert!(toks.iter().all(|t| t.tok != Tok::Int(12_000)));
        assert!(toks.iter().any(|t| t.tok == Tok::Str("12_000".to_string())));
        assert_eq!(toks.last().unwrap().tok, Tok::Ident("y".into()));
        assert_eq!(toks.last().unwrap().line, 2);
    }

    #[test]
    fn normalizes_integer_literals() {
        let toks = lex("12_000u64 0x10 0b101 17_000");
        let ints: Vec<u64> = toks
            .iter()
            .filter_map(|t| match t.tok {
                Tok::Int(v) => Some(v),
                _ => None,
            })
            .collect();
        assert_eq!(ints, vec![12_000, 16, 5, 17_000]);
    }

    #[test]
    fn floats_and_ranges_do_not_confuse_ints() {
        let toks = lex("let r = 0..1.16 + x.0");
        let ints: Vec<u64> = toks
            .iter()
            .filter_map(|t| match t.tok {
                Tok::Int(v) => Some(v),
                _ => None,
            })
            .collect();
        // `0` from the range start and `0` from the tuple index; the
        // float 1.16 is dropped.
        assert_eq!(ints, vec![0, 0]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        // Lifetimes are skipped entirely; none becomes a char literal
        // that would swallow the following tokens.
        assert_eq!(
            idents("fn f<'a>(x: &'a str) -> &'a str { x }"),
            vec!["fn", "f", "x", "str", "str", "x"]
        );
    }

    #[test]
    fn raw_strings_are_opaque() {
        let toks = lex("r#\"evil 12_000 \"quote\" \"# tail");
        assert!(toks.iter().all(|t| t.tok != Tok::Int(12_000)));
        assert_eq!(toks.last().unwrap().tok, Tok::Ident("tail".into()));
    }
}
