//! Trace-plane overhead contract: tracing is observation, not
//! simulation — an instrumented run must charge exactly the same
//! simulated cycles as an uninstrumented one, and a disabled sink must
//! leave the golden cycle count untouched.
//!
//! The golden constant below is the B-Tree Native/Low runtime with 1/64
//! inputs on the unscaled paper platform (not `--scale 64`, which now
//! shrinks the platform too), captured before the trace plane landed;
//! the bench fails if the plane ever perturbs it by more than 2% (in
//! practice it must stay exact, and the traced-vs-untraced assertion
//! *is* exact).

use sgxgauge_bench::{banner, fk};
use sgxgauge_core::{EnvConfig, ExecMode, InputSetting, Runner, RunnerConfig, TraceConfig};
use sgxgauge_workloads::suite_scaled;

/// B-Tree, Native, Low, 1/64 inputs on the full paper platform —
/// captured at the seed commit, before the trace plane existed.
const GOLDEN_CYCLES: u64 = 31_279_725;

fn runner() -> Runner {
    Runner::new(RunnerConfig {
        env: EnvConfig::paper(ExecMode::Vanilla, 0),
        repetitions: 1,
    })
}

fn main() {
    banner(
        "Trace overhead — zero-cost contract of the tracing plane",
        "instrumentation reads the clocks, it never advances them",
    );
    let workloads = suite_scaled(64);
    let btree = workloads
        .iter()
        .find(|w| w.name().eq_ignore_ascii_case("btree"))
        .expect("btree workload");

    let untraced = runner()
        .run_once(btree.as_ref(), ExecMode::Native, InputSetting::Low)
        .expect("untraced run");
    let traced = runner()
        .tracing(TraceConfig::default())
        .run_once(btree.as_ref(), ExecMode::Native, InputSetting::Low)
        .expect("traced run");

    println!(
        "untraced {} cycles | traced {} cycles | golden {}",
        fk(untraced.runtime_cycles),
        fk(traced.runtime_cycles),
        fk(GOLDEN_CYCLES)
    );
    println!(
        "traced run: {} timeline points, {} phase rows",
        traced.timeline.len(),
        traced.phases.len()
    );

    assert_eq!(
        untraced.runtime_cycles, traced.runtime_cycles,
        "tracing must not charge simulated cycles"
    );
    assert_eq!(
        untraced.output.checksum, traced.output.checksum,
        "tracing must not perturb workload output"
    );
    let drift = untraced.runtime_cycles.abs_diff(GOLDEN_CYCLES);
    assert!(
        drift * 50 <= GOLDEN_CYCLES,
        "untraced runtime {} drifted more than 2% from golden {GOLDEN_CYCLES}",
        untraced.runtime_cycles
    );
    assert!(
        !traced.timeline.is_empty(),
        "traced run produced no timeline points"
    );
    assert!(
        traced.phases.iter().any(|p| p.phase == "run"),
        "traced run lost its implicit `run` span"
    );
    println!("PASS: zero-cost contract holds (drift {drift} cycles, bound 2%)");
}
