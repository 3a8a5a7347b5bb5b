//! The simulated-output gate.
//!
//! Host time is what the benchmark measures; simulated results are what
//! it holds fixed. Every cell's simulated output is folded into a digest
//! and compared with the digest the unmodified simulator produced,
//! shipped in `golden.txt`. A cell that errors or whose digest differs
//! counts as failed.

use crate::grid::GridRun;
use libos_sim::StartupStats;
use mem_sim::Counters;
use sgx_sim::SgxCounters;
use sgxgauge_core::{RunReport, WorkloadOutput};
use std::collections::BTreeMap;

/// The golden digests, `<workload>:<cell label> <hex digest>` per line.
const SHIPPED: &str = include_str!("../golden.txt");

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Digest of one cell's simulated output: the measured cycles, every
/// hardware and SGX counter, the LibOS start-up statistics and the
/// workload's output. The `Debug` forms list every field, so a counter
/// added later is covered without touching this function.
pub fn digest_parts(
    runtime_cycles: u64,
    counters: &Counters,
    sgx: &SgxCounters,
    libos_startup: &Option<StartupStats>,
    output: &WorkloadOutput,
) -> u64 {
    let text = format!(
        "{runtime_cycles}|{counters:?}|{sgx:?}|{libos_startup:?}|{}|{}|{:?}",
        output.ops, output.checksum, output.metrics
    );
    fnv1a(text.as_bytes())
}

/// [`digest_parts`] of a run report.
pub fn digest(r: &RunReport) -> u64 {
    digest_parts(
        r.runtime_cycles,
        &r.counters,
        &r.sgx,
        &r.libos_startup,
        &r.output,
    )
}

/// Expected digests by cell key.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Golden {
    digests: BTreeMap<String, u64>,
}

impl Golden {
    /// The digests shipped with the benchmark.
    pub fn shipped() -> Golden {
        Golden::parse(SHIPPED).expect("golden.txt is well formed")
    }

    /// Parses `key hexdigest` lines; blank lines and `#` comments are
    /// skipped.
    ///
    /// # Errors
    ///
    /// Names the first malformed line.
    pub fn parse(text: &str) -> Result<Golden, String> {
        let mut digests = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let parsed = line
                .split_once(' ')
                .and_then(|(k, v)| Some((k, u64::from_str_radix(v.trim(), 16).ok()?)));
            let Some((key, digest)) = parsed else {
                return Err(format!("golden line {}: `{line}`", n + 1));
            };
            digests.insert(key.to_string(), digest);
        }
        Ok(Golden { digests })
    }

    /// Records `digest` as the expected one for `key`.
    pub fn insert(&mut self, key: String, digest: u64) {
        self.digests.insert(key, digest);
    }

    /// Renders the digests in the format [`Golden::parse`] reads.
    pub fn render(&self) -> String {
        self.digests
            .iter()
            .map(|(k, d)| format!("{k} {d:016x}\n"))
            .collect()
    }

    /// Checks one cell.
    ///
    /// # Errors
    ///
    /// Describes the mismatch, or the missing golden entry.
    pub fn check(&self, key: &str, digest: u64) -> Result<(), String> {
        match self.digests.get(key) {
            Some(&want) if want == digest => Ok(()),
            Some(&want) => Err(format!(
                "{key}: simulated output digest {digest:016x}, golden {want:016x}"
            )),
            None => Err(format!("{key}: no golden digest")),
        }
    }

    /// Gates every cell of a grid pass: one message per failed cell
    /// (errored or mismatched), naming it.
    pub fn gate(&self, bench: &str, run: &GridRun) -> Vec<String> {
        run.cells
            .iter()
            .filter_map(|c| match &c.result {
                Err(e) => Some(format!("{bench}:{}: cell failed: {e}", c.label)),
                Ok(r) => self.check(&cell_key(bench, &c.label), digest(r)).err(),
            })
            .collect()
    }
}

/// The golden-file key of a cell.
pub fn cell_key(bench: &str, label: &str) -> String {
    format!("{bench}:{label}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_round_trips_and_checks() {
        let mut g = Golden::default();
        g.insert("w:A/Native/High".into(), 0xabc);
        let back = Golden::parse(&format!("# comment\n\n{}", g.render())).unwrap();
        assert_eq!(back, g);
        assert!(g.check("w:A/Native/High", 0xabc).is_ok());
        let miss = g.check("w:A/Native/High", 0xabd).unwrap_err();
        assert!(miss.starts_with("w:A/Native/High") && miss.contains("golden"));
        assert!(g
            .check("w:B/Native/High", 0xabc)
            .unwrap_err()
            .contains("no golden"));
        assert!(Golden::parse("key not-hex").unwrap_err().contains("line 1"));
    }
}
