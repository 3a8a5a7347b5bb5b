//! Layer probes: one seeded access stream replayed through a single
//! layer at a time, so host cost per access can be split by layer.
//!
//! * `mem`: `mem_sim::Machine::access` alone, over a hot (32 KB), an
//!   LLC-sized (8 MB) and a DRAM-sized (64 MB) region.
//! * `sgx`: `SgxMachine::access` from a thread inside an enclave, over
//!   0.5× (resident) and 1.5× (thrashing) the platform's EPC.
//! * `core`: `Env::touch` on a Native-mode protected region of the same
//!   size, whose simulated cycles and counters must equal the `sgx`
//!   replay's exactly; its extra host time is the `Env` dispatch.
//!
//! Every replay runs the stream once unmeasured, so caches, TLBs and EPC
//! start warm, then [`TIMED_PASSES`] times measured; the reported figure
//! is the median pass. The `sgx` and `core` replays of a level alternate
//! their passes, so their difference is taken under the same conditions.

use crate::report::median;
use crate::spans::Tracer;
use mem_sim::{AccessAttrs, AccessKind, Machine, MachineConfig};
use sgx_sim::{EnclaveId, Host};
use sgxgauge_core::env::Placement;
use sgxgauge_core::{Env, EnvConfig, ExecMode};
use std::hint::black_box;
use std::time::Instant;

/// Measured passes over each probe stream.
pub const TIMED_PASSES: usize = 3;

/// One access of a probe stream: byte offset into the region, and
/// whether it writes.
pub type Access = (u64, bool);

/// splitmix64: the stream generator.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `n` uniformly random 8-byte accesses over `region` bytes, one in four
/// a write, drawn from `seed` and `salt` (one salt per probe level).
pub fn stream(seed: u64, salt: u64, region: u64, n: usize) -> Vec<Access> {
    let mut state = seed ^ salt.wrapping_mul(0xd1b5_4a32_d192_ed03);
    let words = region / 8;
    (0..n)
        .map(|_| {
            let r = splitmix(&mut state);
            ((r % words) * 8, r >> 62 == 0)
        })
        .collect()
}

fn kind(write: bool) -> AccessKind {
    if write {
        AccessKind::Write
    } else {
        AccessKind::Read
    }
}

/// Runs each pass once unmeasured, then [`TIMED_PASSES`] rounds that
/// time every pass in turn, so passes compared with each other share the
/// host's conditions; returns the median host ns per access of each.
fn timed<const N: usize>(n: usize, passes: &mut [&mut dyn FnMut(); N]) -> [f64; N] {
    for pass in passes.iter_mut() {
        pass();
    }
    let mut ns = [(); N].map(|()| Vec::with_capacity(TIMED_PASSES));
    for _ in 0..TIMED_PASSES {
        for (pass, ns) in passes.iter_mut().zip(&mut ns) {
            let start = Instant::now();
            pass();
            ns.push(start.elapsed().as_nanos() as f64 / n as f64);
        }
    }
    ns.map(|v| median(&v))
}

/// Host ns per access of `mem_sim::Machine::access` on `s` over a
/// plain region.
pub fn mem(s: &[Access]) -> f64 {
    let mut m = Machine::new(MachineConfig::default());
    let t = m.add_thread();
    let base = 1 << 32;
    let [ns] = timed(
        s.len(),
        &mut [&mut || {
            for &(off, w) in s {
                black_box(m.access(t, base + off, 8, kind(w), &AccessAttrs::PLAIN));
            }
        }],
    );
    ns
}

/// One `sgx`/`core` probe level.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SecureProbe {
    /// Host ns per access of `SgxMachine::access`.
    pub sgx_ns: f64,
    /// Host ns per access of `Env::touch` minus `sgx_ns`.
    pub env_ns: f64,
    /// EPC evictions during the replay (both replays agree).
    pub evictions: u64,
}

/// Replays `s` over a `region`-byte enclave region through `Env::touch`
/// in Native mode and through `SgxMachine::access` on a machine built
/// the way `Env::new` builds it, alternating the timed passes.
///
/// # Errors
///
/// Fails when a platform cannot be built, or when the two replays
/// disagree on any simulated cycle or counter.
pub fn secure(
    s: &[Access],
    region: u64,
    platform: &EnvConfig,
    tracer: &mut Tracer,
    level: &str,
) -> Result<SecureProbe, String> {
    let span = tracer.open(&format!("probe.secure.{level}"), None);
    let err = |e: &dyn std::fmt::Display| format!("{level} probe: {e}");
    let mut cfg = platform.clone();
    cfg.mode = ExecMode::Native;
    cfg.protected_hint = region;
    let mut env = Env::new(cfg).map_err(|e| err(&e))?;
    let r = env
        .alloc(region, Placement::Protected)
        .map_err(|e| err(&e))?;
    let enclave = env.machine().enclave(EnclaveId(0));
    let (size, content) = (enclave.size(), enclave.content_bytes());
    let mut m = Host::builder()
        .sgx(env.machine().config().clone())
        .build_machine();
    let t = m.add_thread();
    let e = m.create_enclave(size, content).map_err(|e| err(&e))?;
    let base = m.alloc_enclave_heap(e, region).map_err(|e| err(&e))?;
    m.ecall_enter(t, e).map_err(|e| err(&e))?;
    let [env_ns, sgx_ns] = env
        .secure_call(|env| {
            timed(
                s.len(),
                &mut [
                    &mut || {
                        for &(off, w) in s {
                            env.touch(r, off, 8, w);
                        }
                    },
                    &mut || {
                        for &(off, w) in s {
                            black_box(m.access(t, base + off, 8, kind(w)));
                        }
                    },
                ],
            )
        })
        .map_err(|e| err(&e))?;
    m.ecall_exit(t, e).map_err(|e| err(&e))?;
    tracer.close(span);

    let same = m.mem().cycles_of(t) == env.now()
        && m.mem().counters() == env.machine().mem().counters()
        && m.sgx_counters() == env.machine().sgx_counters();
    if !same {
        return Err(err(
            &"SgxMachine::access and Env::touch replays of the same stream disagree \
              on simulated cycles or counters",
        ));
    }
    Ok(SecureProbe {
        sgx_ns,
        env_ns: env_ns - sgx_ns,
        evictions: m.sgx_counters().epc_evictions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_stay_in_bounds() {
        let a = stream(7, 1, 1 << 20, 1000);
        assert_eq!(a, stream(7, 1, 1 << 20, 1000));
        assert_ne!(a, stream(8, 1, 1 << 20, 1000));
        assert_ne!(a, stream(7, 2, 1 << 20, 1000));
        assert!(a.iter().all(|&(off, _)| off % 8 == 0 && off + 8 <= 1 << 20));
        let writes = a.iter().filter(|&&(_, w)| w).count();
        assert!((150..350).contains(&writes), "{writes} writes");
    }

    #[test]
    fn env_and_sgx_replays_agree() {
        let s = stream(3, 4, 1 << 20, 2000);
        let mut tracer = Tracer::new();
        let platform = EnvConfig::quick_test(ExecMode::Vanilla);
        let p = secure(&s, 1 << 20, &platform, &mut tracer, "resident").unwrap();
        assert!(p.sgx_ns > 0.0);
        assert_eq!(tracer.spans().len(), 1);
    }
}
