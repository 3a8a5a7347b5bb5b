//! The semantic passes: analyses that need the parsed item tree and the
//! workspace call graph rather than a flat token stream.
//!
//! Each pass owns one rule id:
//!
//! * [`determinism`] — `hash-iter`: hash-ordered iteration in functions
//!   that can reach an artifact emission or aggregation sink.
//! * [`cycles`] — `cycle-routing`: counter/cycle mutations outside the
//!   checked manifest and not routed through `sgx_sim::costs`.
//! * [`hotpath`] — `hot-path`: allocation, panics, locks, or I/O in
//!   functions reachable from the `access`/`access_stream` hot path.
//! * [`phase`] — `phase-balance`: `Env::phase`/`phase_end` spans that a
//!   single function body opens and closes unevenly.
//!
//! The passes share one [`Workspace`]: every scanned file parsed to
//! [`FileIr`] plus the [`CallGraph`] built over them. They run on *raw*
//! sources (test-gated spans are skipped internally); the caller applies
//! allowlists and the baseline afterwards, exactly as for the
//! `cost-literals` token rule, which reads the same parsed files.

pub mod cycles;
pub mod determinism;
pub mod hotpath;
pub mod phase;

use crate::callgraph::CallGraph;
use crate::lexer::Tok;
use crate::parser::FileIr;
use crate::rules::RuleContext;
use crate::Finding;

/// The parsed workspace: every scanned file, parsed once. The semantic
/// passes analyze [`Workspace::files`]; the `cost-literals` rule reads
/// those and [`Workspace::others`].
#[derive(Debug)]
pub struct Workspace {
    /// Parsed library/binary sources ([`semantic_scope`]), in the order
    /// given; the call graph's node ids index into this list.
    pub files: Vec<FileIr>,
    /// Every other parsed source (tests, benches, examples, ...), in
    /// the order given.
    pub others: Vec<FileIr>,
    /// The call graph over [`Workspace::files`].
    pub graph: CallGraph,
}

impl Workspace {
    /// Parses `(rel_path, source)` pairs and builds the call graph.
    /// Only `.rs` files under a `src/` tree participate in the graph
    /// (tests, benches and fixtures describe behavior, not the shipped
    /// model).
    pub fn build(sources: &[(String, String)]) -> Workspace {
        let (files, others): (Vec<FileIr>, Vec<FileIr>) = sources
            .iter()
            .map(|(rel, src)| FileIr::parse(rel, src))
            .partition(|f| semantic_scope(&f.path));
        let graph = CallGraph::build(&files);
        Workspace {
            files,
            others,
            graph,
        }
    }

    /// Runs all four semantic passes, returning raw findings in pass
    /// order (the caller applies allowlists and the baseline).
    pub fn run_passes(&self, ctx: &RuleContext, manifest: &cycles::CycleManifest) -> Vec<Finding> {
        let mut out = Vec::new();
        out.extend(determinism::run(self));
        out.extend(cycles::run(self, ctx, manifest));
        out.extend(hotpath::run(self));
        out.extend(phase::run(self));
        out
    }
}

/// Whether `rel` participates in semantic analysis: library/binary
/// source trees only.
pub fn semantic_scope(rel: &str) -> bool {
    rel.ends_with(".rs")
        && (rel.starts_with("src/") || (rel.starts_with("crates/") && rel.contains("/src/")))
}

/// Scans forward from token `i` to the end of the enclosing statement:
/// the first `;` at bracket depth zero, or the point where the
/// enclosing block closes. Returns an inclusive end index.
pub(crate) fn statement_end(file: &FileIr, i: usize) -> usize {
    let toks = &file.tokens;
    let mut depth = 0i64;
    let mut k = i;
    while k < toks.len() {
        match toks[k].tok {
            Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
            Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => {
                depth -= 1;
                if depth < 0 {
                    return k.saturating_sub(1).max(i);
                }
            }
            Tok::Punct(';') if depth == 0 => return k,
            _ => {}
        }
        k += 1;
    }
    toks.len() - 1
}

/// Collects the identifiers appearing in `[s, e]`.
pub(crate) fn idents_in(file: &FileIr, s: usize, e: usize) -> Vec<&str> {
    file.tokens[s..=e.min(file.tokens.len() - 1)]
        .iter()
        .filter_map(|t| match &t.tok {
            Tok::Ident(id) => Some(id.as_str()),
            _ => None,
        })
        .collect()
}
