//! Cycle decomposition of the one per-access path.
//!
//! Every cycle `Machine::access` charges must land in exactly one counter
//! bucket: STLB-hit penalties, OS minor faults, page walks, hierarchy
//! stalls, or the L1 baseline per line. The `audit` feature asserts that
//! identity inside every call; these properties check it over random
//! access sequences in every test run, with and without the feature,
//! including the top-of-address-space clamp.

use mem_sim::machine::STLB_HIT_CYCLES;
use mem_sim::{AccessAttrs, AccessKind, Machine, MachineConfig, PAGE_SIZE};
use proptest::prelude::*;

fn arb_access() -> impl Strategy<Value = (u64, u64, AccessKind)> {
    (
        0u64..(64 * PAGE_SIZE),
        0u64..512,
        prop_oneof![Just(AccessKind::Read), Just(AccessKind::Write)],
    )
}

/// Top-of-address-space accesses, including ones whose naive
/// `vaddr + len` wraps.
fn arb_edge_access() -> impl Strategy<Value = (u64, u64, AccessKind)> {
    (
        (u64::MAX - 4 * PAGE_SIZE)..u64::MAX,
        0u64..512,
        prop_oneof![Just(AccessKind::Read), Just(AccessKind::Write)],
    )
}

/// Issues `accesses` one call each on a fresh machine and checks that
/// the summed outcome cycles equal the counter-delta decomposition, and
/// that the thread clock advanced by exactly that sum.
fn assert_cycles_decompose(accesses: &[(u64, u64, AccessKind)], attrs: &AccessAttrs) {
    let mut m = Machine::new(MachineConfig::default());
    let t = m.add_thread();
    let lat = m.config().latency;
    let c0 = *m.counters();
    let mut cycles = 0u64;
    for &(vaddr, len, kind) in accesses {
        cycles += m.access(t, vaddr, len, kind, attrs).cycles;
    }
    let d = *m.counters() - c0;
    assert_eq!(
        cycles,
        STLB_HIT_CYCLES * d.stlb_hits
            + lat.minor_fault * d.page_faults
            + d.walk_cycles
            + d.stall_cycles
            + lat.l1_hit * (d.mem_reads + d.mem_writes),
        "access cycles must decompose exactly into counter buckets"
    );
    assert_eq!(
        m.cycles_of(t),
        cycles,
        "thread clock diverges from outcomes"
    );
}

proptest! {
    /// Plain memory: no EPCM check, unencrypted DRAM.
    #[test]
    fn access_cycles_decompose_plain(accesses in prop::collection::vec(arb_access(), 0..120)) {
        assert_cycles_decompose(&accesses, &AccessAttrs::PLAIN);
    }

    /// EPC attributes (MEE multiplier + EPCM check cycles on every walk)
    /// so the attribute-dependent arms stay covered.
    #[test]
    fn access_cycles_decompose_epc(accesses in prop::collection::vec(arb_access(), 0..120)) {
        assert_cycles_decompose(&accesses, &AccessAttrs::EPC);
    }

    /// Accesses hugging `u64::MAX` clamp instead of wrapping, mixed with
    /// low accesses so TLB/LLC state is shared.
    #[test]
    fn access_cycles_decompose_at_address_space_top(
        edge in prop::collection::vec(arb_edge_access(), 1..40),
        low in prop::collection::vec(arb_access(), 0..20),
    ) {
        let mut accesses = Vec::new();
        let mut lo = low.iter();
        for (i, e) in edge.iter().enumerate() {
            accesses.push(*e);
            if i % 2 == 0 {
                if let Some(l) = lo.next() {
                    accesses.push(*l);
                }
            }
        }
        assert_cycles_decompose(&accesses, &AccessAttrs::PLAIN);
    }
}

#[test]
fn top_of_address_space_run_touches_one_clamped_line() {
    // vaddr + len - 1 would be u64::MAX + 56 without the clamp; the
    // access must resolve to the single last line, not wrap to page zero.
    let mut m = Machine::new(MachineConfig::default());
    let t = m.add_thread();
    let out = m.access(t, u64::MAX - 7, 64, AccessKind::Read, &AccessAttrs::PLAIN);
    assert!(out.cycles > 0);
    assert_eq!(m.counters().mem_reads, 1, "exactly one clamped line");
    assert_eq!(m.counters().page_faults, 1, "top page demand-faults once");
}

#[test]
fn zero_length_runs_charge_nothing() {
    let mut m = Machine::new(MachineConfig::default());
    let t = m.add_thread();
    let a = m.access(t, 0, 0, AccessKind::Read, &AccessAttrs::PLAIN);
    let b = m.access(t, u64::MAX, 0, AccessKind::Write, &AccessAttrs::PLAIN);
    assert_eq!(a.cycles + b.cycles, 0);
    assert_eq!(*m.counters(), mem_sim::Counters::default());
    assert_eq!(m.cycles_of(t), 0);
}
