//! A hand-rolled recursive-descent item parser over the [`crate::lexer`]
//! token stream.
//!
//! The semantic passes (see [`crate::passes`]) need more than a flat
//! token stream: which function a token belongs to, what type an `impl`
//! block targets, what names a file imports. This module builds exactly
//! that — a per-file item tree of functions (with body token spans and
//! `Type::name` qualification), flattened `use` declarations, and the
//! attribute-gated spans (`#[cfg(test)]`, `#[cfg(feature = "audit")]`,
//! `#[cfg(debug_assertions)]`) that the passes must skip.
//!
//! It is deliberately *not* a full Rust parser. Everything it recognizes
//! is item-shaped structure; expressions stay opaque token ranges. The
//! known approximations, which the passes inherit and DESIGN.md §13
//! documents:
//!
//! * Closure bodies are attributed to the enclosing `fn` (no separate
//!   nodes), so calls made through stored closures are edges out of the
//!   function that *defines* the closure, not the one that invokes it.
//! * `fn`-pointer types (`fn(u64) -> u64`) are distinguished from
//!   definitions by the missing name; higher-order calls through them
//!   are invisible to the call graph.
//! * Macro bodies are scanned as plain tokens; a call synthesized by
//!   `macro_rules!` expansion elsewhere is not seen.

use crate::lexer::{lex, Tok, Token};

/// One parsed function definition.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Bare function name.
    pub name: String,
    /// Qualified name: `Type::name` inside an `impl`/`trait` block,
    /// otherwise the bare name.
    pub qual: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token index of the `fn` keyword (start of the signature).
    pub sig: usize,
    /// Token span of the body, from the opening `{` to the closing `}`
    /// inclusive; `None` for bodyless trait method declarations.
    pub body: Option<(usize, usize)>,
    /// Whether the definition sits inside a `#[cfg(test)]`/`#[test]`
    /// span.
    pub in_test: bool,
}

/// One flattened `use` binding: `use a::b::{C as D};` yields
/// `name = "D"`, `path = "a::b::C"`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseDecl {
    /// The name the import binds in this file.
    pub name: String,
    /// The full `::`-joined source path.
    pub path: String,
}

/// The parsed representation of one source file.
#[derive(Debug, Clone)]
pub struct FileIr {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// The underlying token stream.
    pub tokens: Vec<Token>,
    /// Every function definition, in source order (nested `fn`s
    /// included).
    pub fns: Vec<FnDef>,
    /// Flattened `use` declarations.
    pub uses: Vec<UseDecl>,
    /// Token spans gated behind `#[cfg(test)]` / `#[test]`.
    pub test_spans: Vec<(usize, usize)>,
    /// Token spans gated behind `#[cfg(feature = "audit")]` or
    /// `#[cfg(debug_assertions)]` — compiled out of release builds, so
    /// the hot-path purity pass must not charge them.
    pub gated_spans: Vec<(usize, usize)>,
}

impl FileIr {
    /// Parses `src` into a file IR.
    pub fn parse(path: &str, src: &str) -> FileIr {
        let tokens = lex(src);
        let test_spans = attr_spans(&tokens, is_test_attr);
        let gated_spans = attr_spans(&tokens, is_gated_attr);
        let mut ir = FileIr {
            path: path.to_string(),
            tokens,
            fns: Vec::new(),
            uses: Vec::new(),
            test_spans,
            gated_spans,
        };
        let end = ir.tokens.len();
        parse_items(&mut ir, 0, end, None);
        ir
    }

    /// Whether token index `i` lies in a test-gated span.
    pub fn in_test(&self, i: usize) -> bool {
        self.test_spans.iter().any(|&(s, e)| i >= s && i <= e)
    }

    /// Whether token index `i` lies in an audit/debug-gated span.
    pub fn in_gated(&self, i: usize) -> bool {
        self.gated_spans.iter().any(|&(s, e)| i >= s && i <= e)
    }

    /// The token ranges belonging to `fns[idx]` itself: its body span
    /// minus the body spans of any function nested inside it, so a
    /// token is attributed to exactly one function.
    pub fn own_ranges(&self, idx: usize) -> Vec<(usize, usize)> {
        let Some((start, end)) = self.fns[idx].body else {
            return Vec::new();
        };
        // Bodies of other fns strictly inside this one, in order.
        let mut holes: Vec<(usize, usize)> = self
            .fns
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != idx)
            .filter_map(|(_, f)| f.body)
            .filter(|&(s, e)| s > start && e < end)
            .collect();
        holes.sort_unstable();
        let mut out = Vec::new();
        let mut cur = start;
        for (hs, he) in holes {
            if hs > cur {
                out.push((cur, hs - 1));
            }
            cur = cur.max(he + 1);
        }
        if cur <= end {
            out.push((cur, end));
        }
        out
    }

    /// The innermost function whose body contains token index `i`.
    pub fn fn_at(&self, i: usize) -> Option<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.body.is_some_and(|(s, e)| i >= s && i <= e))
            .min_by_key(|(_, f)| {
                let (s, e) = f.body.unwrap_or((0, usize::MAX));
                e - s
            })
            .map(|(j, _)| j)
    }
}

/// Parses the item-level structure of `toks[start..end)`, attributing
/// functions to `impl_ty` when inside an `impl`/`trait` block.
fn parse_items(ir: &mut FileIr, start: usize, end: usize, impl_ty: Option<&str>) {
    let mut i = start;
    while i < end {
        let Some(t) = ir.tokens.get(i) else { break };
        match &t.tok {
            Tok::Ident(kw) if kw == "impl" || kw == "trait" => {
                let (ty, body) = parse_impl_header(&ir.tokens, i + 1, end, kw == "trait");
                match body {
                    Some((open, close)) => {
                        parse_items(ir, open + 1, close, ty.as_deref());
                        i = close + 1;
                    }
                    None => i += 1,
                }
            }
            Tok::Ident(kw) if kw == "mod" => {
                // `mod name { ... }` — recurse without impl context;
                // `mod name;` — nothing to do.
                match find_open_or_semi(&ir.tokens, i + 1, end) {
                    Some(Delim::Brace(open)) => match match_close(&ir.tokens, open, '{', '}') {
                        Some(close) => {
                            parse_items(ir, open + 1, close, None);
                            i = close + 1;
                        }
                        None => i = open + 1,
                    },
                    Some(Delim::Semi(s)) => i = s + 1,
                    None => i += 1,
                }
            }
            Tok::Ident(kw) if kw == "fn" => {
                // Guard against `fn`-pointer types: a definition is
                // always followed by its name.
                let Some(Tok::Ident(name)) = ir.tokens.get(i + 1).map(|t| &t.tok) else {
                    i += 1;
                    continue;
                };
                let name = name.clone();
                let line = t.line;
                let qual = match impl_ty {
                    Some(ty) => format!("{ty}::{name}"),
                    None => name.clone(),
                };
                let in_test = ir.in_test(i);
                match find_open_or_semi(&ir.tokens, i + 2, end) {
                    Some(Delim::Brace(open)) => {
                        let close = match_close(&ir.tokens, open, '{', '}').unwrap_or(end - 1);
                        ir.fns.push(FnDef {
                            name,
                            qual,
                            line,
                            sig: i,
                            body: Some((open, close)),
                            in_test,
                        });
                        // Nested `fn`s get bare-name qualification.
                        parse_items(ir, open + 1, close, None);
                        i = close + 1;
                    }
                    Some(Delim::Semi(s)) => {
                        ir.fns.push(FnDef {
                            name,
                            qual,
                            line,
                            sig: i,
                            body: None,
                            in_test,
                        });
                        i = s + 1;
                    }
                    None => i += 1,
                }
            }
            Tok::Ident(kw) if kw == "use" => {
                let semi = parse_use(ir, i + 1, end);
                i = semi + 1;
            }
            _ => i += 1,
        }
    }
}

/// Where an item's header ends: at its body's `{` or at a `;`.
enum Delim {
    Brace(usize),
    Semi(usize),
}

/// Scans forward from `i` for the first `{` or `;` at top level — the
/// end of an item header. Parenthesized signatures are skipped wholesale
/// so a `;` inside them (none in valid Rust, but cheap to guard) cannot
/// cut the scan short.
fn find_open_or_semi(toks: &[Token], mut i: usize, end: usize) -> Option<Delim> {
    while i < end {
        match toks.get(i)?.tok {
            Tok::Punct('(') => i = match_close(toks, i, '(', ')')? + 1,
            Tok::Punct('{') => return Some(Delim::Brace(i)),
            Tok::Punct(';') => return Some(Delim::Semi(i)),
            _ => i += 1,
        }
    }
    None
}

/// Parses an `impl`/`trait` header starting after the keyword: skips
/// generic parameters, reads the target type (for `impl Trait for Type`,
/// the type after `for`), and finds the body braces.
fn parse_impl_header(
    toks: &[Token],
    mut i: usize,
    end: usize,
    is_trait: bool,
) -> (Option<String>, Option<(usize, usize)>) {
    // Generic parameter list.
    if toks.get(i).map(|t| &t.tok) == Some(&Tok::Punct('<')) {
        i = skip_angles(toks, i, end);
    }
    let mut ty: Option<String> = None;
    while i < end {
        match &toks[i].tok {
            Tok::Ident(s) if s == "for" && !is_trait => {
                ty = None; // `impl Trait for Type`: the type follows.
                i += 1;
            }
            Tok::Ident(s) if s == "where" => {
                // Bounds until the body; the type is already read.
                i += 1;
            }
            Tok::Ident(s) => {
                ty = Some(s.clone());
                i += 1;
                if is_trait {
                    // A trait's name is the single ident after `trait`.
                    break;
                }
            }
            Tok::Punct('<') => i = skip_angles(toks, i, end),
            Tok::Punct('{') => break,
            _ => i += 1,
        }
    }
    // Find the body (for traits we may not be at `{` yet: supertrait
    // bounds, where clauses).
    while i < end && toks[i].tok != Tok::Punct('{') {
        i += 1;
    }
    if i >= end {
        return (ty, None);
    }
    match match_close(toks, i, '{', '}') {
        Some(close) => (ty, Some((i, close))),
        None => (ty, None),
    }
}

/// Skips a balanced `<...>` starting at the `<` at `i`; `->` arrows
/// inside bounds do not close the angle bracket.
fn skip_angles(toks: &[Token], mut i: usize, end: usize) -> usize {
    let mut depth = 0i64;
    while i < end {
        match toks[i].tok {
            Tok::Punct('<') => depth += 1,
            Tok::Punct('>') => {
                let arrow = i > 0 && toks[i - 1].tok == Tok::Punct('-');
                if !arrow {
                    depth -= 1;
                    if depth == 0 {
                        return i + 1;
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    i
}

/// Parses a `use` declaration starting after the keyword; pushes the
/// flattened bindings and returns the index of the terminating `;`.
fn parse_use(ir: &mut FileIr, start: usize, end: usize) -> usize {
    // Find the `;` first (groups contain no semicolons).
    let mut semi = start;
    while semi < end && ir.tokens[semi].tok != Tok::Punct(';') {
        semi += 1;
    }
    let mut decls = Vec::new();
    flatten_use(&ir.tokens[start..semi], String::new(), &mut decls);
    ir.uses.extend(decls);
    semi
}

/// Recursively flattens a use tree (`a::b::{c, d as e, f::*}`) into
/// bindings, given the `prefix` path accumulated so far.
fn flatten_use(toks: &[Token], prefix: String, out: &mut Vec<UseDecl>) {
    // Split the token run on top-level commas.
    let mut depth = 0i64;
    let mut seg_start = 0usize;
    let mut groups: Vec<(usize, usize)> = Vec::new();
    for (k, t) in toks.iter().enumerate() {
        match t.tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => depth -= 1,
            Tok::Punct(',') if depth == 0 => {
                groups.push((seg_start, k));
                seg_start = k + 1;
            }
            _ => {}
        }
    }
    groups.push((seg_start, toks.len()));
    for (s, e) in groups {
        let part = &toks[s..e];
        if part.is_empty() {
            continue;
        }
        // Walk the path until a group `{`, an alias `as`, or the end.
        let mut path: Vec<String> = if prefix.is_empty() {
            Vec::new()
        } else {
            vec![prefix.clone()]
        };
        let mut k = 0usize;
        let mut alias: Option<String> = None;
        while k < part.len() {
            match &part[k].tok {
                Tok::Ident(seg) if seg == "as" => {
                    if let Some(Tok::Ident(a)) = part.get(k + 1).map(|t| &t.tok) {
                        alias = Some(a.clone());
                    }
                    break;
                }
                Tok::Ident(seg) => {
                    path.push(seg.clone());
                    k += 1;
                }
                Tok::Punct(':') => k += 1,
                Tok::Punct('{') => {
                    // Group: recurse with the accumulated prefix.
                    let inner_end = part.len() - 1; // its matching `}`
                    flatten_use(&part[k + 1..inner_end], path.join("::"), out);
                    path.clear();
                    break;
                }
                Tok::Punct('*') => {
                    // Glob: record under `*` so passes can at least see
                    // the source module.
                    out.push(UseDecl {
                        name: "*".to_string(),
                        path: format!("{}::*", path.join("::")),
                    });
                    path.clear();
                    break;
                }
                _ => k += 1,
            }
        }
        if let Some(last) = path.last().cloned() {
            out.push(UseDecl {
                name: alias.unwrap_or(last),
                path: path.join("::"),
            });
        }
    }
}

/// Token-index spans of items/statements behind attributes matching
/// `pred` (over the attribute's identifier list).
fn attr_spans(tokens: &[Token], pred: fn(&[&str]) -> bool) -> Vec<(usize, usize)> {
    let mut spans: Vec<(usize, usize)> = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        let Some(attr_end) = attr_end_if(tokens, i, pred) else {
            i += 1;
            continue;
        };
        // Skip further attributes on the same item.
        let mut j = attr_end + 1;
        while j + 1 < tokens.len()
            && tokens[j].tok == Tok::Punct('#')
            && tokens[j + 1].tok == Tok::Punct('[')
        {
            j = match match_close(tokens, j + 1, '[', ']') {
                Some(e) => e + 1,
                None => break,
            };
        }
        // The gated item/statement extends to its matching `}` or `;`.
        let mut end = tokens.len().saturating_sub(1);
        let mut k = j;
        while k < tokens.len() {
            match tokens[k].tok {
                Tok::Punct(';') => {
                    end = k;
                    break;
                }
                Tok::Punct('{') => {
                    end = match_close(tokens, k, '{', '}').unwrap_or(end);
                    // A trailing `;` (statement position) belongs to it.
                    if tokens.get(end + 1).map(|t| &t.tok) == Some(&Tok::Punct(';')) {
                        end += 1;
                    }
                    break;
                }
                _ => k += 1,
            }
        }
        spans.push((i, end));
        i = end + 1;
    }
    spans
}

/// If tokens at `i` start a `#[...]` attribute whose identifier list
/// satisfies `pred`, returns the index of its closing `]`.
fn attr_end_if(tokens: &[Token], i: usize, pred: fn(&[&str]) -> bool) -> Option<usize> {
    if tokens[i].tok != Tok::Punct('#') || tokens.get(i + 1)?.tok != Tok::Punct('[') {
        return None;
    }
    let close = match_close(tokens, i + 1, '[', ']')?;
    let idents: Vec<&str> = tokens[i + 2..close]
        .iter()
        .filter_map(|t| match &t.tok {
            Tok::Ident(s) => Some(s.as_str()),
            _ => None,
        })
        .collect();
    pred(&idents).then_some(close)
}

/// `#[test]` / `#[cfg(test)]`-style attributes (never `cfg(not(test))`).
fn is_test_attr(idents: &[&str]) -> bool {
    let Some(&first) = idents.first() else {
        return false;
    };
    first == "test" || (first == "cfg" && idents.contains(&"test") && !idents.contains(&"not"))
}

/// `#[cfg(feature = "audit")]` / `#[cfg(debug_assertions)]` — code
/// compiled out of release builds (never the `not(...)` forms).
fn is_gated_attr(idents: &[&str]) -> bool {
    let Some(&first) = idents.first() else {
        return false;
    };
    first == "cfg"
        && !idents.contains(&"not")
        && (idents.contains(&"debug_assertions") || idents.contains(&"feature"))
}

/// Index of the punctuation closing the `open` at `start` (handles
/// nesting); `None` when unbalanced.
pub(crate) fn match_close(toks: &[Token], start: usize, open: char, close: char) -> Option<usize> {
    let mut depth = 0i64;
    for (k, t) in toks.iter().enumerate().skip(start) {
        if t.tok == Tok::Punct(open) {
            depth += 1;
        } else if t.tok == Tok::Punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_free_and_impl_fns_with_qualification() {
        let ir = FileIr::parse(
            "x.rs",
            "fn free() { a(); }\n\
             impl Machine { pub fn access(&mut self) -> u64 { self.touch() } }\n\
             impl Emitter for Table { fn render(&self) -> String { body() } }",
        );
        let quals: Vec<&str> = ir.fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(quals, vec!["free", "Machine::access", "Table::render"]);
        assert!(ir.fns.iter().all(|f| f.body.is_some()));
    }

    #[test]
    fn trait_decls_and_default_methods() {
        let ir = FileIr::parse(
            "x.rs",
            "trait Emitter { fn format(&self) -> u8; fn emit(&self) { self.format(); } }",
        );
        assert_eq!(ir.fns.len(), 2);
        assert_eq!(ir.fns[0].qual, "Emitter::format");
        assert!(ir.fns[0].body.is_none());
        assert_eq!(ir.fns[1].qual, "Emitter::emit");
        assert!(ir.fns[1].body.is_some());
    }

    #[test]
    fn fn_pointer_types_are_not_definitions() {
        let ir = FileIr::parse("x.rs", "fn f(cb: fn(u64) -> u64) -> u64 { cb(1) }");
        assert_eq!(ir.fns.len(), 1);
        assert_eq!(ir.fns[0].name, "f");
    }

    #[test]
    fn nested_fns_get_own_ranges() {
        let ir = FileIr::parse(
            "x.rs",
            "fn outer() { fn inner() { danger(); } inner(); safe(); }",
        );
        assert_eq!(ir.fns.len(), 2);
        let outer = ir.fns.iter().position(|f| f.name == "outer").unwrap();
        let ranges = ir.own_ranges(outer);
        let own_idents: Vec<String> = ranges
            .iter()
            .flat_map(|&(s, e)| ir.tokens[s..=e].iter())
            .filter_map(|t| match &t.tok {
                Tok::Ident(s) => Some(s.clone()),
                _ => None,
            })
            .collect();
        assert!(own_idents.contains(&"safe".to_string()));
        assert!(own_idents.contains(&"inner".to_string()), "the call site");
        assert!(
            !own_idents.contains(&"danger".to_string()),
            "inner's body is excluded from outer's own range"
        );
    }

    #[test]
    fn generic_impl_with_fn_bound_parses() {
        let ir = FileIr::parse(
            "x.rs",
            "impl<T: Fn() -> u64> Holder<T> { fn call(&self) -> u64 { (self.f)() } }",
        );
        assert_eq!(ir.fns.len(), 1);
        assert_eq!(ir.fns[0].qual, "Holder::call");
    }

    #[test]
    fn impl_trait_for_type_uses_the_type() {
        let ir = FileIr::parse("x.rs", "impl Display for CellKey { fn fmt(&self) {} }");
        assert_eq!(ir.fns[0].qual, "CellKey::fmt");
    }

    #[test]
    fn use_decls_flatten_groups_and_aliases() {
        let ir = FileIr::parse(
            "x.rs",
            "use std::collections::{HashMap, BTreeMap as Sorted};\nuse crate::io::ArtifactIo;",
        );
        assert!(ir.uses.contains(&UseDecl {
            name: "HashMap".into(),
            path: "std::collections::HashMap".into()
        }));
        assert!(ir.uses.contains(&UseDecl {
            name: "Sorted".into(),
            path: "std::collections::BTreeMap".into()
        }));
        assert!(ir.uses.contains(&UseDecl {
            name: "ArtifactIo".into(),
            path: "crate::io::ArtifactIo".into()
        }));
    }

    #[test]
    fn audit_gated_statement_span_is_detected() {
        let src = "fn f() {\n#[cfg(feature = \"audit\")]\nlet c0 = self.counters;\n\
                   #[cfg(feature = \"audit\")]\n{ assert_eq!(a, b); }\nwork();\n}";
        let ir = FileIr::parse("x.rs", src);
        let assert_idx = ir
            .tokens
            .iter()
            .position(|t| t.tok == Tok::Ident("assert_eq".into()))
            .unwrap();
        let c0_idx = ir
            .tokens
            .iter()
            .position(|t| t.tok == Tok::Ident("c0".into()))
            .unwrap();
        let work_idx = ir
            .tokens
            .iter()
            .position(|t| t.tok == Tok::Ident("work".into()))
            .unwrap();
        assert!(ir.in_gated(assert_idx));
        assert!(ir.in_gated(c0_idx));
        assert!(!ir.in_gated(work_idx));
    }

    #[test]
    fn cfg_not_feature_is_not_gated() {
        let ir = FileIr::parse(
            "x.rs",
            "#[cfg(not(feature = \"audit\"))]\nfn always() { hot(); }",
        );
        let hot_idx = ir
            .tokens
            .iter()
            .position(|t| t.tok == Tok::Ident("hot".into()))
            .unwrap();
        assert!(!ir.in_gated(hot_idx));
    }

    #[test]
    fn cfg_test_mod_span_covers_body() {
        let ir = FileIr::parse(
            "x.rs",
            "fn a() { b(); }\n#[cfg(test)]\nmod tests { fn c() { d(); } }\nfn e() {}",
        );
        let in_test = |name: &str| {
            let i = ir
                .tokens
                .iter()
                .position(|t| t.tok == Tok::Ident(name.into()))
                .unwrap();
            ir.in_test(i)
        };
        assert!(in_test("d"));
        assert!(!in_test("b"));
        assert!(!in_test("e"));
    }

    #[test]
    fn test_attr_on_fn_is_excluded_but_cfg_not_test_is_not() {
        let ir = FileIr::parse(
            "x.rs",
            "#[test]\nfn t() { boom(); }\n#[cfg(not(test))]\nfn keep() { live(); }",
        );
        let idx = |name: &str| {
            ir.tokens
                .iter()
                .position(|t| t.tok == Tok::Ident(name.into()))
                .unwrap()
        };
        assert!(ir.in_test(idx("boom")));
        assert!(ir.fns[0].in_test);
        assert!(!ir.in_test(idx("live")));
        assert!(!ir.fns[1].in_test);
    }

    #[test]
    fn fn_at_picks_innermost() {
        let ir = FileIr::parse("x.rs", "fn outer() { fn inner() { x(); } }");
        let x_idx = ir
            .tokens
            .iter()
            .position(|t| t.tok == Tok::Ident("x".into()))
            .unwrap();
        let idx = ir.fn_at(x_idx).unwrap();
        assert_eq!(ir.fns[idx].name, "inner");
    }
}
