//! Structural performance model of a memory hierarchy.
//!
//! `mem-sim` is the bottom substrate of the SGXGauge reproduction. It models
//! the parts of the machine that the paper's measurements are sensitive to:
//!
//! * a two-level data TLB per hardware thread ([`tlb::Tlb`]),
//! * a 4-level page-walk cost model with a page-walk cache ([`paging`]),
//! * demand paging with minor-fault costs ([`paging::PageTable`]),
//! * a set-associative shared last-level cache ([`cache::Llc`]) with small
//!   per-thread L1 front-ends,
//! * per-thread cycle clocks and a global [`Counters`] snapshot.
//!
//! The central entry point is [`Machine::access`]: every simulated memory
//! access of every workload funnels through it, producing the performance
//! counters (dTLB misses, page-walk cycles, stall cycles, LLC misses, page
//! faults) that the SGXGauge paper reports. The SGX layer (`sgx-sim`) wraps
//! accesses with [`AccessAttrs`] to charge EPCM checks and MEE-encrypted
//! DRAM latency without `mem-sim` knowing anything about enclaves.
//!
//! # Example
//!
//! ```
//! use mem_sim::{Machine, MachineConfig, AccessKind, AccessAttrs};
//!
//! let mut m = Machine::new(MachineConfig::default());
//! let t = m.add_thread();
//! let out = m.access(t, 0x10_0000, 8, AccessKind::Read, &AccessAttrs::default());
//! assert!(out.cycles > 0);
//! assert_eq!(m.counters().mem_reads, 1);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::cast_possible_truncation,
        clippy::cast_possible_wrap,
        clippy::cast_precision_loss
    )
)]

pub mod cache;
pub mod counters;
mod fxhash;
pub mod latency;
pub mod machine;
pub mod paging;
mod setidx;
pub mod tlb;

pub use cache::Llc;
pub use counters::Counters;
pub use latency::{LatencyError, LatencyModel};
pub use machine::{
    AccessAttrs, AccessKind, AccessOutcome, Machine, MachineConfig, StreamRun, ThreadId,
};
pub use paging::PageTable;
pub use tlb::Tlb;

/// Size of a (small) memory page in bytes. Matches the 4 KiB pages that the
/// SGX EPC manages.
pub const PAGE_SIZE: u64 = 4096;

/// Base-2 logarithm of [`PAGE_SIZE`], used to convert addresses to page
/// numbers with a shift.
pub const PAGE_SHIFT: u32 = 12;

/// Size of a cache line in bytes.
pub const LINE_SIZE: u64 = 64;

/// Base-2 logarithm of [`LINE_SIZE`].
pub const LINE_SHIFT: u32 = 6;

/// Converts a virtual address to its virtual page number.
#[inline]
pub fn page_of(vaddr: u64) -> u64 {
    vaddr >> PAGE_SHIFT
}

/// Converts a virtual address to its cache-line number.
#[inline]
pub fn line_of(vaddr: u64) -> u64 {
    vaddr >> LINE_SHIFT
}
