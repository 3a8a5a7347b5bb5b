//! The rule registry `gauge-audit` enforces, the one token rule, and
//! the model-derived context (canonical cost values, counter field
//! names) the rules check against.
//!
//! [`COST_LITERALS`] is the only rule that reads tokens without the call
//! graph: a cycle cost restated as a literal outside `sgx-sim::costs`
//! silently decouples from recalibration (§2.2, §2.3, Appendix A all
//! cite exact costs). It runs on the same parsed [`FileIr`] as the four
//! semantic passes ([`crate::passes`]).
//!
//! Four lexical bans (wall clock, `unwrap`, `std::fs`, truncating casts)
//! are clippy lints instead (DESIGN.md §8.1): clippy runs with
//! `-D warnings`, and a stale `#[expect]` is a compile error.

use crate::lexer::Tok;
use crate::parser::FileIr;
use crate::Finding;
use std::collections::BTreeMap;
use std::collections::BTreeSet;

/// Rule id: duplicated canonical cycle-cost literals.
pub const COST_LITERALS: &str = "cost-literals";
/// Rule id (semantic): hash-ordered iteration in emission-reachable
/// functions. See [`crate::passes::determinism`].
pub const HASH_ITER: &str = "hash-iter";
/// Rule id (semantic): counter/cycle mutations outside the checked
/// manifest. See [`crate::passes::cycles`].
pub const CYCLE_ROUTING: &str = "cycle-routing";
/// Rule id (semantic): impurity reachable from the access hot path.
/// See [`crate::passes::hotpath`].
pub const HOT_PATH: &str = "hot-path";
/// Rule id (semantic): unbalanced `Env::phase`/`phase_end` spans.
/// See [`crate::passes::phase`].
pub const PHASE_BALANCE: &str = "phase-balance";

/// All rule ids, in reporting order: the token rule, then the four
/// semantic passes.
pub const ALL_RULES: &[&str] = &[
    COST_LITERALS,
    HASH_ITER,
    CYCLE_ROUTING,
    HOT_PATH,
    PHASE_BALANCE,
];

/// One rule's registry entry: id, one-line summary, and the long-form
/// text `gauge-audit --explain <RULE>` prints.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// The stable rule id.
    pub id: &'static str,
    /// One-line summary (used in SARIF `shortDescription` and `--help`).
    pub summary: &'static str,
    /// Long-form explanation: what fires, why it matters, how to fix
    /// or suppress.
    pub explain: &'static str,
}

/// The rule registry, in [`ALL_RULES`] order.
pub const RULE_INFO: &[RuleInfo] = &[
    RuleInfo {
        id: COST_LITERALS,
        summary: "canonical cycle-cost literal duplicated outside sgx-sim::costs",
        explain: "A cycle cost the paper cites (EWB, ECALL round trip, ...) appears as an \
integer literal outside crates/sgx-sim/src/costs.rs. Duplicated constants silently decouple \
from recalibration: the model changes, the copy does not, and every figure built from the \
copy is wrong without a test failing.\nFix: reference the sgx_sim::costs constant. \
Suppress: crates/audit/allowlists/cost-literals.allow with a recorded reason.",
    },
    RuleInfo {
        id: HASH_ITER,
        summary: "hash-ordered iteration in an emission-reachable function",
        explain: "A function from which an Emitter write, report aggregation, or checkpoint \
serialization is reachable (workspace call graph, name-matched over-approximation) iterates \
a HashMap/HashSet/FxHashMap/FxHashSet. Hash order varies across processes and insertion \
histories, so the iteration can leak nondeterministic order into committed artifact bytes — \
breaking the byte-identical-across-runs-and---jobs guarantee.\nExempt automatically: results \
routed through sort*/BTreeMap/BTreeSet or an order-insensitive reduction (sum, count, min, \
max, all, any, len) by the end of the same or next statement.\nFix: iterate a BTreeMap, or \
collect-and-sort. Suppress: allowlists/hash-iter.allow or the workspace baseline.",
    },
    RuleInfo {
        id: CYCLE_ROUTING,
        summary: "counter/cycle mutation outside the checked manifest",
        explain: "A `+=` on a counter field or cycle accumulator in crates/mem-sim or \
crates/sgx-sim is neither routed through sgx_sim::costs (RHS references `costs` or an \
ALL_CAPS *_CYCLES constant) nor inside a function declared in \
crates/audit/manifests/cycle-routing.manifest. The manifest is the reviewed list of \
functions allowed to account cycles; it is what makes the cycle-decomposition identity \
provable from source. Stale manifest entries (functions that no longer mutate counters) \
are also reported, so the manifest cannot rot into a blanket waiver.\nFix: route through \
costs, or add the function to the manifest with a reason comment.",
    },
    RuleInfo {
        id: HOT_PATH,
        summary: "allocation/panic/lock/I-O reachable from the access hot path",
        explain: "The function is transitively reachable from Machine::access/access_stream \
(mem-sim) or SgxMachine::access/access_stream (sgx-sim) — the per-simulated-access paths \
pinned by BENCH_hotpath.json — and contains an allocating call (Vec::new, .push, .collect, \
.clone, format!, ...), a panicking construct (unwrap/expect/panic!/assert!), a lock, or \
I/O. debug_assert! and #[cfg(feature = \"audit\")]-gated code are exempt (compiled out of \
release).\nFix: hoist the work off the hot path, or declare an intended scratch buffer in \
allowlists/hot-path.allow with the amortization argument recorded.",
    },
    RuleInfo {
        id: PHASE_BALANCE,
        summary: "Env::phase/phase_end spans unbalanced within one function body",
        explain: "A function opens a trace phase span (.phase(\"name\")) it never closes, or \
closes one it never opened. Unbalanced spans surface as WorkloadError::Trace only in traced \
runs — exactly how an instrumented workload ships broken while untraced tests pass. \
Non-literal span names pair by count; with_phase(..) is self-balancing and ignored.\nFix: \
balance within the body or use with_phase.",
    },
];

/// Looks up a rule's registry entry.
pub fn rule_info(id: &str) -> Option<&'static RuleInfo> {
    RULE_INFO.iter().find(|r| r.id == id)
}

/// Cost literals below this value are too common to claim as canonical
/// (e.g. the 16-page eviction batch); only the big cycle costs are.
const MIN_CANONICAL_COST: u64 = 500;

/// Model-derived context shared by all rules.
#[derive(Debug, Clone, Default)]
pub struct RuleContext {
    /// Canonical cycle-cost value → constant name, extracted from
    /// `sgx-sim::costs` (the single source of truth; this tool never
    /// hard-codes the values themselves).
    pub cost_values: BTreeMap<u64, String>,
    /// Counter field names extracted from `mem-sim::counters`: the
    /// counters whose `+=` the `cycle-routing` pass checks.
    pub counter_fields: BTreeSet<String>,
}

impl RuleContext {
    /// Builds the context from the sources of the two canonical modules.
    pub fn from_sources(costs_src: &str, counters_src: &str) -> RuleContext {
        RuleContext {
            cost_values: extract_cost_values(costs_src),
            counter_fields: extract_counter_fields(counters_src),
        }
    }
}

/// Extracts `pub const NAME: <ty> = <int>;` values ≥ [`MIN_CANONICAL_COST`]
/// from the canonical costs module. Derived constants (initialized by an
/// expression, not a literal) are intentionally skipped: their *source*
/// values are the canonical ones.
pub fn extract_cost_values(src: &str) -> BTreeMap<u64, String> {
    let toks = crate::lexer::lex(src);
    let mut out = BTreeMap::new();
    for w in toks.windows(7) {
        if let [a, b, name, colon, _ty, eq, val] = w {
            if a.tok == Tok::Ident("pub".into())
                && b.tok == Tok::Ident("const".into())
                && colon.tok == Tok::Punct(':')
                && eq.tok == Tok::Punct('=')
            {
                if let (Tok::Ident(n), Tok::Int(v)) = (&name.tok, &val.tok) {
                    if *v >= MIN_CANONICAL_COST {
                        out.insert(*v, n.clone());
                    }
                }
            }
        }
    }
    out
}

/// Extracts the `pub <field>: u64` names from the counters module.
pub fn extract_counter_fields(src: &str) -> BTreeSet<String> {
    let toks = crate::lexer::lex(src);
    let mut out = BTreeSet::new();
    for w in toks.windows(4) {
        if let [p, name, colon, ty] = w {
            if p.tok == Tok::Ident("pub".into())
                && colon.tok == Tok::Punct(':')
                && ty.tok == Tok::Ident("u64".into())
            {
                if let Tok::Ident(n) = &name.tok {
                    out.insert(n.clone());
                }
            }
        }
    }
    out
}

/// Runs [`COST_LITERALS`] over one parsed file: every integer literal
/// outside test-gated code that equals a canonical cost, unless the file
/// is out of the rule's scope.
pub fn cost_literals(file: &FileIr, ctx: &RuleContext) -> Vec<Finding> {
    if !cost_literal_scope(&file.path) {
        return Vec::new();
    }
    file.tokens
        .iter()
        .enumerate()
        .filter(|&(i, _)| !file.in_test(i))
        .filter_map(|(_, t)| match t.tok {
            Tok::Int(v) => ctx.cost_values.get(&v).map(|name| Finding {
                rule: COST_LITERALS,
                file: file.path.clone(),
                line: t.line,
                message: format!(
                    "cycle-cost literal {v} duplicates sgx_sim::costs::{name}; use the constant"
                ),
            }),
            _ => None,
        })
        .collect()
}

/// Whether `rel` is checked for duplicated cost literals: the whole
/// workspace minus the canonical module itself and test trees (vendored
/// stubs and build output are never scanned).
fn cost_literal_scope(rel: &str) -> bool {
    rel != "crates/sgx-sim/src/costs.rs" && !rel.starts_with("tests/") && !rel.contains("/tests/")
}
