//! Integration: a LibOS launch leaves exactly the simulated state it
//! always did, although MRENCLAVE is only folded when attestation reads
//! it. The expected values are those of the eager per-page EEXTEND build.

use sgxgauge::crypto::sha256::to_hex;
use sgxgauge::libos::{LibosProcess, Manifest, StartupStats};
use sgxgauge::sgx::attest::{ereport, verify_report};
use sgxgauge::sgx::{DriverOp, InitStats, SgxConfig, SgxCounters, SgxMachine};

#[test]
fn launch_state_is_unchanged_and_attests_against_native() {
    let mut m = SgxMachine::new(SgxConfig::default());
    let t = m.add_thread();
    let manifest = Manifest::builder("app").enclave_size(256 << 20).build();
    let p = LibosProcess::launch(&mut m, t, &manifest).expect("launch");
    let libos = p.enclave();

    assert_eq!(
        p.startup(),
        StartupStats {
            ecalls: 300,
            ocalls: 1000,
            aex_exits: 972,
            epc_evictions: 44_032,
            epc_loadbacks: 716,
            cycles: 1_018_478_084,
        }
    );
    assert_eq!(
        m.init_stats(libos),
        InitStats {
            pages_measured: 65_536,
            evictions: 44_032,
            cycles: 967_452_054,
        }
    );
    assert_eq!(
        *m.sgx_counters(),
        SgxCounters {
            ecalls: 300,
            ocalls: 1000,
            switchless_ocalls: 0,
            aex_exits: 972,
            injected_aex: 0,
            epc_allocs: 65_792,
            epc_evictions: 44_032,
            epc_loadbacks: 716,
            epc_faults: 972,
            pages_measured: 65_536,
            transition_cycles: 22_100_000,
            fault_cycles: 21_408_550,
        }
    );
    // (op, count, total, min, max)
    let driver = [
        (DriverOp::AllocPage, 65_792, 348_732_841, 4969, 5630),
        (DriverOp::Ewb, 44_032, 528_360_854, 11_250, 12_749),
        (DriverOp::Eldu, 716, 7_415_317, 9699, 10_988),
        (DriverOp::DoFault, 972, 7_295_790, 6493, 7997),
    ];
    for (op, count, total, min, max) in driver {
        let s = m.driver_stats().stats(op);
        assert_eq!(
            (s.count, s.total_cycles, s.min_cycles, s.max_cycles),
            (count, total, min, max),
            "{op:?}"
        );
    }
    assert_eq!(m.mem().cycles_of(t), 1_018_478_084);

    // Attestation between the LibOS enclave and a Native-sized one.
    let native = m.create_enclave(64 << 20, 16 << 20).expect("native");
    let mut data = [0u8; 64];
    data[..6].copy_from_slice(b"libos!");
    m.ecall_enter(t, libos).expect("enter libos");
    let report = ereport(&mut m, t, libos, native, data).expect("ereport");
    m.ecall_exit(t, libos).expect("exit libos");
    m.ecall_enter(t, native).expect("enter native");
    assert!(verify_report(&mut m, t, native, &report).expect("verify"));
    m.ecall_exit(t, native).expect("exit native");
    assert_eq!(report.measurement, m.enclave(libos).measurement());
    assert_eq!(report.target, m.enclave(native).measurement());
    assert_eq!(
        to_hex(&report.measurement),
        "d7ce0e4355b5ef60026e8ed44d9a0d00e893294880949703540bbfdd64ccc518"
    );
}
