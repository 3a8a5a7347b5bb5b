//! Rule `hot-path`: the hot-path purity pass.
//!
//! `Machine::access` (mem-sim) and `SgxMachine::access` (sgx-sim) are
//! executed per simulated access — they are the throughput ceiling of
//! every scenario, pinned by `BENCH_hotpath.json`. Any function transitively reachable
//! from them must stay *pure* in the systems sense:
//!
//! * **no allocation** — outside the declared scratch buffers
//!   (allowlisted in `crates/audit/allowlists/hot-path.allow` with a
//!   reason; the lazily grown page-table chunk map is the canonical
//!   example);
//! * **no panicking constructs** — `unwrap`/`expect`/`panic!`/`assert!`
//!   (`debug_assert!` and `#[cfg(feature = "audit")]`-gated checks are
//!   compiled out of release builds and exempt);
//! * **no locks** — `Mutex`/`RwLock`/`Condvar`/`.lock()`;
//! * **no I/O** — `println!`-family, `std::fs`, `File`, stdio handles.
//!
//! Reachability is the name-matched over-approximation of
//! [`crate::callgraph`], restricted to the simulator and trace crates
//! (the trace sink sits on the instrumented path). A finding therefore
//! names the offending *function*, which may be reached through any of
//! the two roots.

use super::Workspace;
use crate::callgraph::{CallSite, NodeId};
use crate::lexer::Tok;
use crate::parser::FileIr;
use crate::rules::HOT_PATH;
use crate::Finding;
use std::collections::BTreeSet;

/// Crates that participate in hot-path reachability.
const SCOPE: &[&str] = &[
    "crates/mem-sim/src/",
    "crates/sgx-sim/src/",
    "crates/trace/src/",
];

/// The hot-path roots: `(file suffix, qualified name)`.
const ROOTS: &[(&str, &str)] = &[
    ("crates/mem-sim/src/machine.rs", "Machine::access"),
    ("crates/sgx-sim/src/machine.rs", "SgxMachine::access"),
];

/// Allocating constructor paths: `Qual::name`.
const ALLOC_PATH_QUALS: &[&str] = &[
    "Vec", "Box", "String", "VecDeque", "HashMap", "HashSet", "BTreeMap", "BTreeSet", "Rc", "Arc",
];
const ALLOC_PATH_FNS: &[&str] = &["new", "with_capacity", "from", "default"];

/// Allocating (or growth-capable) method calls.
const ALLOC_METHODS: &[&str] = &[
    "to_string",
    "to_owned",
    "to_vec",
    "clone",
    "collect",
    "reserve",
    "reserve_exact",
    "push",
    "insert",
    "extend",
    "append",
    "split_off",
];

/// Allocating macros.
const ALLOC_MACROS: &[&str] = &["vec", "format"];

/// Panicking method calls and macros.
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];
const PANIC_MACROS: &[&str] = &[
    "panic",
    "assert",
    "assert_eq",
    "assert_ne",
    "unreachable",
    "todo",
    "unimplemented",
];

/// I/O macros and identifiers.
const IO_MACROS: &[&str] = &["println", "eprintln", "print", "eprint", "dbg"];
const IO_IDENTS: &[&str] = &["stdout", "stderr", "stdin", "File", "OpenOptions"];

/// Lock types.
const LOCK_IDENTS: &[&str] = &["Mutex", "RwLock", "Condvar"];

/// Computes the hot-path-reachable node set (for tests and coverage
/// assertions): the transitive closure of the four roots over the
/// simulator/trace crates.
pub fn reachable(ws: &Workspace) -> BTreeSet<NodeId> {
    let mut roots = Vec::new();
    for (fi, file) in ws.files.iter().enumerate() {
        for (ni, f) in file.fns.iter().enumerate() {
            if ROOTS
                .iter()
                .any(|(suf, qual)| file.path.ends_with(suf) && &f.qual == qual)
            {
                roots.push((fi, ni));
            }
        }
    }
    let accept = |n: NodeId| SCOPE.iter().any(|p| ws.files[n.0].path.starts_with(p));
    ws.graph.reachable_from(&roots, &accept)
}

/// Runs the pass over the workspace.
pub fn run(ws: &Workspace) -> Vec<Finding> {
    let mut out = Vec::new();
    for &(fi, ni) in &reachable(ws) {
        let file = &ws.files[fi];
        let f = &file.fns[ni];
        if f.in_test {
            continue;
        }
        for (s, e) in file.own_ranges(ni) {
            scan_range(file, s, e, &f.qual, &mut out);
        }
    }
    out.sort_by(|a, b| (&a.file, a.line, &a.message).cmp(&(&b.file, b.line, &b.message)));
    out.dedup();
    out
}

/// Scans `[s, e]` of a reachable function for purity violations.
fn scan_range(file: &FileIr, s: usize, e: usize, fn_qual: &str, out: &mut Vec<Finding>) {
    let toks = &file.tokens;
    let mut i = s;
    while i <= e {
        if file.in_test(i) || file.in_gated(i) {
            i += 1;
            continue;
        }
        let Tok::Ident(id) = &toks[i].tok else {
            i += 1;
            continue;
        };
        let next = toks.get(i + 1).map(|t| &t.tok);
        // Macro invocation `id!(..)`.
        if next == Some(&Tok::Punct('!'))
            && matches!(
                toks.get(i + 2).map(|t| &t.tok),
                Some(&Tok::Punct('(')) | Some(&Tok::Punct('[')) | Some(&Tok::Punct('{'))
            )
        {
            if ALLOC_MACROS.contains(&id.as_str()) {
                push(
                    out,
                    file,
                    i,
                    fn_qual,
                    &format!("allocating macro `{id}!`"),
                    "allocate",
                );
            } else if PANIC_MACROS.contains(&id.as_str()) {
                push(
                    out,
                    file,
                    i,
                    fn_qual,
                    &format!("panicking macro `{id}!`"),
                    "panic",
                );
            } else if IO_MACROS.contains(&id.as_str()) {
                push(
                    out,
                    file,
                    i,
                    fn_qual,
                    &format!("I/O macro `{id}!`"),
                    "do I/O",
                );
            }
            i += 2;
            continue;
        }
        // Method call `.id(`.
        let is_method_call =
            i >= 1 && toks[i - 1].tok == Tok::Punct('.') && next == Some(&Tok::Punct('('));
        if is_method_call {
            if PANIC_METHODS.contains(&id.as_str()) {
                push(out, file, i, fn_qual, &format!("`.{id}()`"), "panic");
            } else if id == "lock" {
                push(out, file, i, fn_qual, "`.lock()`", "lock");
            } else if ALLOC_METHODS.contains(&id.as_str()) {
                push(
                    out,
                    file,
                    i,
                    fn_qual,
                    &format!("allocating call `.{id}(..)`"),
                    "allocate",
                );
            }
            i += 1;
            continue;
        }
        // Path call `Qual::id(`.
        if next == Some(&Tok::Punct('(')) && i >= 3 {
            if let (Tok::Punct(':'), Tok::Punct(':'), Tok::Ident(q)) =
                (&toks[i - 1].tok, &toks[i - 2].tok, &toks[i - 3].tok)
            {
                if ALLOC_PATH_QUALS.contains(&q.as_str()) && ALLOC_PATH_FNS.contains(&id.as_str()) {
                    push(
                        out,
                        file,
                        i,
                        fn_qual,
                        &format!("allocating call `{q}::{id}(..)`"),
                        "allocate",
                    );
                }
            }
        }
        // Bare banned identifiers (lock types, stdio, fs paths).
        if LOCK_IDENTS.contains(&id.as_str()) {
            push(out, file, i, fn_qual, &format!("lock type `{id}`"), "lock");
        } else if IO_IDENTS.contains(&id.as_str()) {
            push(
                out,
                file,
                i,
                fn_qual,
                &format!("I/O handle `{id}`"),
                "do I/O",
            );
        } else if id == "fs"
            && toks.get(i + 1).map(|t| &t.tok) == Some(&Tok::Punct(':'))
            && toks.get(i + 2).map(|t| &t.tok) == Some(&Tok::Punct(':'))
        {
            push(out, file, i, fn_qual, "`fs::` filesystem access", "do I/O");
        }
        i += 1;
    }
}

fn push(out: &mut Vec<Finding>, file: &FileIr, i: usize, fn_qual: &str, what: &str, verb: &str) {
    out.push(Finding {
        rule: HOT_PATH,
        file: file.path.clone(),
        line: file.tokens[i].line,
        message: format!(
            "{what} in `{fn_qual}`, reachable from the access hot path; hot-path code must \
             not {verb} (declare intended scratch in hot-path.allow)"
        ),
    });
}

/// Names of the call sites a node makes (test hook used to assert
/// call-graph coverage of the real workspace).
pub fn call_names(ws: &Workspace, node: NodeId) -> Vec<CallSite> {
    ws.graph.calls.get(&node).cloned().unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(srcs: &[(&str, &str)]) -> Workspace {
        let sources: Vec<(String, String)> = srcs
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect();
        Workspace::build(&sources)
    }

    const MACHINE: &str = "crates/mem-sim/src/machine.rs";

    #[test]
    fn planted_allocation_in_reachable_helper_is_flagged() {
        let w = ws(&[
            (
                MACHINE,
                "impl Machine { pub fn access(&mut self) { self.helper(); } }",
            ),
            (
                "crates/mem-sim/src/paging.rs",
                "impl PageTable { fn helper(&mut self) { let v = Vec::new(); } }",
            ),
        ]);
        let f = run(&w);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("Vec::new"));
        assert!(f[0].message.contains("PageTable::helper"));
    }

    #[test]
    fn removing_the_allocation_changes_the_finding_set() {
        let dirty = ws(&[
            (
                MACHINE,
                "impl Machine { pub fn access(&mut self) { self.helper(); } }",
            ),
            (
                "crates/mem-sim/src/paging.rs",
                "impl PageTable { fn helper(&mut self) { let s = x.to_string(); } }",
            ),
        ]);
        let clean = ws(&[
            (
                MACHINE,
                "impl Machine { pub fn access(&mut self) { self.helper(); } }",
            ),
            (
                "crates/mem-sim/src/paging.rs",
                "impl PageTable { fn helper(&mut self) { let s = 1; } }",
            ),
        ]);
        assert_eq!(run(&dirty).len(), 1);
        assert!(run(&clean).is_empty());
    }

    #[test]
    fn unreachable_allocation_is_not_flagged() {
        let w = ws(&[(
            MACHINE,
            "impl Machine { pub fn access(&mut self) { self.probe(); } fn probe(&self) {} \
                 pub fn report(&self) -> String { format!(\"x\") } }",
        )]);
        assert!(
            run(&w).is_empty(),
            "report is not reachable from access; format! there is fine"
        );
    }

    #[test]
    fn panic_and_lock_and_io_are_flagged() {
        let w = ws(&[(
            MACHINE,
            "impl Machine { pub fn access(&mut self) {\n\
                 let x = opt.unwrap();\n\
                 let g = m.lock();\n\
                 println!(\"dbg\");\n\
             } }",
        )]);
        let msgs: Vec<String> = run(&w).into_iter().map(|f| f.message).collect();
        assert_eq!(msgs.len(), 3, "{msgs:?}");
        assert!(msgs[0].contains("unwrap"));
        assert!(msgs[1].contains("lock"));
        assert!(msgs[2].contains("println"));
    }

    #[test]
    fn audit_gated_assert_is_exempt() {
        let w = ws(&[(
            MACHINE,
            "impl Machine { pub fn access(&mut self) {\n\
                 #[cfg(feature = \"audit\")]\n\
                 assert_eq!(a, b);\n\
                 debug_assert!(ok);\n\
             } }",
        )]);
        assert!(
            run(&w).is_empty(),
            "audit/debug-gated checks are compiled out"
        );
    }

    #[test]
    fn cross_crate_reachability_via_sgx_root() {
        let w = ws(&[
            (
                "crates/sgx-sim/src/machine.rs",
                "impl SgxMachine { pub fn access(&mut self) { self.epc.touch(k); } }",
            ),
            (
                "crates/sgx-sim/src/epc.rs",
                "impl Epc { pub fn touch(&mut self, k: u64) -> bool { self.evicted.insert(k); true } }",
            ),
        ]);
        let f = run(&w);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("Epc::touch"));
        assert!(f[0].message.contains("insert"));
    }
}
