//! A fixed reference kernel that gauges how fast the host runs at the
//! moment.
//!
//! The benchmark shares its host with other tenants, whose load changes
//! the speed of every memory-bound program by tens of percent over
//! minutes. The kernel does the same kind of work as the simulator's
//! access path — a direct-mapped L1 and a 16-way LLC tag array probed by
//! a mix of streaming and scattered line addresses — but it lives in the
//! benchmark, so a change to the simulator cannot change its speed. Its
//! host time, taken between cells, measures the host's speed; dividing
//! the simulator's host times by it removes the host's drift from them.

use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Lines of the L1 tag array (32 KiB of 64-byte lines).
const L1_LINES: usize = 512;
/// Sets of the LLC tag array (12 MiB, 16-way, 64-byte lines).
const LLC_SETS: usize = 12 << 10;
/// Ways per LLC set.
const LLC_WAYS: usize = 16;
/// Line addresses probed per sample.
const PROBES: u64 = 1 << 20;
/// Lines of the address space the scattered probes fall in (64 MiB).
const SPAN_LINES: u64 = 1 << 20;

/// The median of the kernel's host time per sample on the reference host
/// (a 2-vCPU 2.1 GHz Xeon VM) at a quiet time, so a host-speed factor of
/// 1 means "as fast as there".
pub const NOMINAL: Duration = Duration::from_micros(31_000);

/// The process's kernel: its tag arrays are allocated once, so only the
/// first sample of a process pays for faulting them in.
static SHARED: Mutex<Option<Kernel>> = Mutex::new(None);

/// Runs the process's kernel once and returns its host time.
pub fn sample() -> Duration {
    SHARED
        .lock()
        .expect("kernel lock is never held across a panic")
        .get_or_insert_with(Kernel::default)
        .sample()
}

/// The host-speed factor of a run: the median of its samples' host times
/// over [`NOMINAL`]. Above 1 the host ran slower than the reference host
/// did; 1 when there are no samples.
pub fn host_speed(samples: &[Duration]) -> f64 {
    if samples.is_empty() {
        return 1.0;
    }
    let secs: Vec<f64> = samples.iter().map(Duration::as_secs_f64).collect();
    crate::report::median(&secs) / NOMINAL.as_secs_f64()
}

/// The reference kernel's tag arrays and LRU clock.
struct Kernel {
    l1: Vec<u64>,
    llc: Vec<u64>,
    age: Vec<u32>,
    clock: u32,
}

impl Default for Kernel {
    fn default() -> Self {
        Kernel {
            l1: vec![u64::MAX; L1_LINES],
            llc: vec![u64::MAX; LLC_SETS * LLC_WAYS],
            age: vec![0; LLC_SETS * LLC_WAYS],
            clock: 0,
        }
    }
}

impl Kernel {
    /// Probes one line; returns 0 for an L1 hit, 1 for an LLC hit and 2
    /// for a miss, which fills the least recently used way.
    #[inline]
    fn probe(&mut self, line: u64) -> u64 {
        let s = line as usize & (L1_LINES - 1);
        if self.l1[s] == line {
            return 0;
        }
        self.l1[s] = line;
        self.clock = self.clock.wrapping_add(1);
        let base = (line as usize % LLC_SETS) * LLC_WAYS;
        let ways = &mut self.llc[base..base + LLC_WAYS];
        let ages = &mut self.age[base..base + LLC_WAYS];
        if let Some(w) = ways.iter().position(|&t| t == line) {
            ages[w] = self.clock;
            return 1;
        }
        let victim = (0..LLC_WAYS).min_by_key(|&w| ages[w]).unwrap_or(0);
        ways[victim] = line;
        ages[victim] = self.clock;
        2
    }

    /// Runs the kernel once and returns its host time.
    fn sample(&mut self) -> Duration {
        let start = Instant::now();
        let (mut x, mut seq, mut cost) = (0x9E37_79B9_7F4A_7C15u64, 0u64, 0u64);
        for i in 0..PROBES {
            let line = if i % 4 == 0 {
                seq += 1;
                SPAN_LINES + seq
            } else {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % SPAN_LINES
            };
            cost += self.probe(line);
        }
        black_box(cost);
        start.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_speed_is_the_median_over_nominal() {
        let ms =
            |v: &[u64]| -> Vec<Duration> { v.iter().map(|&m| Duration::from_millis(m)).collect() };
        assert_eq!(host_speed(&[]), 1.0);
        let f = host_speed(&ms(&[90, 66, 31, 200, 66]));
        assert!((f - 0.066 / NOMINAL.as_secs_f64()).abs() < 1e-9, "{f}");
        assert!(sample() > Duration::ZERO);
    }
}
