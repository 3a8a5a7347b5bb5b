//! Figure 2: crossing the EPC boundary causes an abrupt counter blow-up.
//!
//! Paper: "on crossing the EPC boundary the number of dTLB misses
//! increases by 91x, page walk cycles by more than 124x, and EPC
//! evictions by 100x as compared to when the amount of memory is less
//! than the EPC size" (§3.2.1). Baselines: Vanilla at the same input for
//! the overhead column; the Low setting for the EPC-eviction column.
//!
//! Fails unless Native Low evicts no EPC page and Native High does, so
//! a scaled run (`SGXGAUGE_SCALE`) also checks that the platform shrank
//! with the inputs.

use sgxgauge_bench::{banner, emit, fk, fx, paper_runner, scale};
use sgxgauge_core::report::ReportTable;
use sgxgauge_core::{ExecMode, InputSetting};
use sgxgauge_workloads::HashJoin;

fn main() {
    banner(
        "Figure 2 — stressing the EPC (HashJoin)",
        "crossing EPC: dTLB x91, walk cycles x124, EPC evictions x100 vs Low",
    );
    let wl = HashJoin::scaled(scale());
    let runner = paper_runner();

    let mut rows = Vec::new();
    for setting in InputSetting::ALL {
        let vanilla = runner
            .run_once(&wl, ExecMode::Vanilla, setting)
            .expect("vanilla run");
        let native = runner
            .run_once(&wl, ExecMode::Native, setting)
            .expect("native run");
        rows.push((setting, vanilla, native));
    }
    let low = &rows[0];

    let mut table = ReportTable::new(
        "Fig 2: HashJoin in Native mode (vs Vanilla; eviction ratio vs Low)",
        &[
            "setting",
            "overhead_vs_vanilla",
            "dtlb_miss_ratio_vs_low",
            "walk_cycle_ratio_vs_low",
            "evictions",
            "eviction_ratio_vs_low",
        ],
    );
    for (setting, vanilla, native) in &rows {
        let overhead = native.runtime_cycles as f64 / vanilla.runtime_cycles as f64;
        let dtlb = native.counters.dtlb_misses as f64 / low.2.counters.dtlb_misses.max(1) as f64;
        let walk = native.counters.walk_cycles as f64 / low.2.counters.walk_cycles.max(1) as f64;
        let ev_ratio = native.sgx.epc_evictions as f64 / low.2.sgx.epc_evictions.max(1) as f64;
        table.push_row(vec![
            setting.to_string(),
            fx(overhead),
            fx(dtlb),
            fx(walk),
            fk(native.sgx.epc_evictions),
            fx(ev_ratio),
        ]);
    }
    emit("fig02_epc_boundary", &table);

    let (low_ev, high_ev) = (low.2.sgx.epc_evictions, rows[2].2.sgx.epc_evictions);
    println!(
        "Shape check: High/Low eviction ratio = {:.1}x (paper: ~100x; any large jump across the boundary reproduces the claim)",
        high_ev as f64 / low_ev.max(1) as f64
    );
    // The cliff itself, at every scale: Low fits the EPC, High does not.
    assert_eq!(
        low_ev,
        0,
        "Native Low must fit the EPC (scale 1/{})",
        scale()
    );
    assert!(
        high_ev > 0,
        "Native High must overflow the EPC (scale 1/{})",
        scale()
    );
}
