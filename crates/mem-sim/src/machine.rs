//! The machine model: per-thread translation and L1 state, shared LLC and
//! page table, cycle clocks, and the single hot access path.

use crate::cache::{L1Cache, Llc};
use crate::counters::Counters;
use crate::latency::{LatencyError, LatencyModel};
use crate::paging::{PageStatus, PageTable, WalkCache};
use crate::tlb::{Tlb, TlbOutcome};
use crate::{LINE_SHIFT, PAGE_SHIFT};

/// Identifier of a simulated hardware thread, handed out by
/// [`Machine::add_thread`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ThreadId(pub usize);

/// Whether an access reads or writes memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// Cross-layer attributes of an access, set by the SGX layer.
///
/// `mem-sim` knows nothing about enclaves; the SGX model communicates the
/// cost consequences of an access targeting the Processor Reserved Memory
/// through this struct.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessAttrs {
    /// Charge an EPCM-verification cost on every TLB fill (paper §2.3).
    pub epcm_check: bool,
    /// The backing DRAM is inside the PRM: LLC misses pay the MEE
    /// multiplier.
    pub encrypted_dram: bool,
}

impl AccessAttrs {
    /// Attributes of an ordinary, non-enclave access.
    pub const PLAIN: AccessAttrs = AccessAttrs {
        epcm_check: false,
        encrypted_dram: false,
    };

    /// Attributes of an access to an EPC-resident enclave page.
    pub const EPC: AccessAttrs = AccessAttrs {
        epcm_check: true,
        encrypted_dram: true,
    };
}

/// One pre-decomposed run of a batched access stream: `len` contiguous
/// bytes at `vaddr`, read or written.
///
/// Workload inner loops that issue many accesses back to back describe
/// them as a slice of runs and hand the whole slice to
/// [`Machine::access_stream`], amortizing per-call dispatch (bounds
/// checks, latency-model loads, counter flushes) over the batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamRun {
    /// Starting virtual address of the run.
    pub vaddr: u64,
    /// Length in bytes; zero-length runs are skipped.
    pub len: u64,
    /// Whether the run loads or stores.
    pub kind: AccessKind,
}

impl StreamRun {
    /// Convenience constructor.
    #[inline]
    pub fn new(vaddr: u64, len: u64, kind: AccessKind) -> Self {
        StreamRun { vaddr, len, kind }
    }
}

/// What happened during one [`Machine::access`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Cycles charged to the issuing thread.
    pub cycles: u64,
    /// At least one line required a page walk.
    pub dtlb_miss: bool,
    /// At least one line missed the LLC.
    pub llc_miss: bool,
    /// At least one page was touched for the first time (OS minor fault).
    pub minor_fault: bool,
}

/// Sizing of the modeled machine; defaults follow Table 3 of the paper.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// L1 dTLB entries / associativity.
    pub l1_tlb_entries: usize,
    /// L1 dTLB associativity.
    pub l1_tlb_ways: usize,
    /// Second-level TLB entries.
    pub stlb_entries: usize,
    /// Second-level TLB associativity.
    pub stlb_ways: usize,
    /// Per-thread L1 data-cache lines.
    pub l1_cache_lines: usize,
    /// Shared LLC capacity in bytes.
    pub llc_bytes: usize,
    /// Shared LLC associativity.
    pub llc_ways: usize,
    /// Core clock frequency in Hz, for converting cycle counts to
    /// wall-clock time (Table 3: Xeon E-2186G @ 3.8 GHz).
    pub clock_hz: u64,
    /// Latency constants.
    pub latency: LatencyModel,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            l1_tlb_entries: 64,
            l1_tlb_ways: 4,
            stlb_entries: 1536,
            stlb_ways: 12,
            l1_cache_lines: 512,
            llc_bytes: 12 << 20,
            llc_ways: 16,
            clock_hz: 3_800_000_000,
            latency: LatencyModel::default(),
        }
    }
}

/// Extra cycles of a translation that misses the L1 dTLB but hits the
/// second-level TLB (Table 3 class platform; small and fixed, so not part
/// of the tunable [`LatencyModel`]).
const STLB_HIT_CYCLES: u64 = 7;

/// Per-thread microarchitectural state.
#[derive(Debug, Clone)]
struct ThreadCtx {
    tlb: Tlb,
    l1: L1Cache,
    walk_cache: WalkCache,
    cycles: u64,
}

/// The simulated machine.
///
/// Owns all shared structures and the per-thread contexts; see the crate
/// docs for an end-to-end example.
#[derive(Debug)]
pub struct Machine {
    cfg: MachineConfig,
    threads: Vec<ThreadCtx>,
    llc: Llc,
    page_table: PageTable,
    counters: Counters,
    /// The trace plane, when armed. Boxed so the disabled case is one
    /// null-pointer check; the per-line access loop never touches it.
    sink: Option<Box<trace::TraceSink>>,
    /// Conservative lower bound on the sink's next periodic-sample
    /// instant (`u64::MAX` when disarmed or sampling is off). The
    /// sink's schedule only moves forward, so `trace_sample_due` can
    /// answer "not yet" with a single integer compare — no pointer
    /// chase into the boxed sink — which is what keeps sampling off
    /// the batched hot path.
    sample_cache: u64,
}

impl Machine {
    /// Creates a machine with no threads; call [`Machine::add_thread`]
    /// before issuing accesses.
    ///
    /// # Panics
    ///
    /// Panics if the latency model is non-monotone (see
    /// [`LatencyModel::validate`]); use [`Machine::try_new`] to handle
    /// the error instead.
    pub fn new(cfg: MachineConfig) -> Self {
        match Machine::try_new(cfg) {
            Ok(m) => m,
            Err(e) => panic!("invalid MachineConfig: {e}"),
        }
    }

    /// Fallible constructor: rejects latency models whose orderings
    /// would underflow the stall/MEE decompositions in the access path.
    ///
    /// # Errors
    ///
    /// Returns the first violated latency ordering.
    pub fn try_new(cfg: MachineConfig) -> Result<Self, LatencyError> {
        cfg.latency.validate()?;
        let llc = Llc::new(cfg.llc_bytes, cfg.llc_ways);
        Ok(Machine {
            cfg,
            threads: Vec::new(),
            llc,
            page_table: PageTable::new(),
            counters: Counters::new(),
            sink: None,
            sample_cache: u64::MAX,
        })
    }

    /// Adds a hardware thread and returns its id. Thread ids are dense,
    /// starting at zero.
    pub fn add_thread(&mut self) -> ThreadId {
        let ctx = ThreadCtx {
            tlb: Tlb::new(
                self.cfg.l1_tlb_entries,
                self.cfg.l1_tlb_ways,
                self.cfg.stlb_entries,
                self.cfg.stlb_ways,
            ),
            l1: L1Cache::new(self.cfg.l1_cache_lines),
            walk_cache: WalkCache::default(),
            cycles: 0,
        };
        self.threads.push(ctx);
        ThreadId(self.threads.len() - 1)
    }

    /// Number of threads created so far.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// Issues a memory access of `len` bytes at `vaddr` on thread `tid`.
    ///
    /// The access is decomposed into 64-byte lines; each line is
    /// translated (per page), charged through the cache hierarchy, and
    /// accumulated into the thread clock and the global counters.
    /// Equivalent to [`Machine::access_stream`] with a single run.
    ///
    /// Accesses with `len == 0` are no-ops. Accesses extending past the
    /// top of the address space are clamped to its last byte.
    ///
    /// # Panics
    ///
    /// Panics if `tid` was not returned by [`Machine::add_thread`].
    #[inline]
    pub fn access(
        &mut self,
        tid: ThreadId,
        vaddr: u64,
        len: u64,
        kind: AccessKind,
        attrs: &AccessAttrs,
    ) -> AccessOutcome {
        self.access_stream(tid, &[StreamRun { vaddr, len, kind }], attrs)
    }

    /// Issues a batch of accesses on thread `tid` and returns the
    /// aggregate outcome: `cycles` summed over the batch, the boolean
    /// flags OR-ed across it.
    ///
    /// This is the hot path. Processing runs in a batch lets the machine
    /// load the latency model once, keep every counter in a register
    /// across the whole slice, and flush the totals a single time —
    /// per-access bookkeeping that dominated the old call-per-access
    /// profile. Each run is decomposed and charged exactly as
    /// [`Machine::access`] would, in order, so a stream of N runs is
    /// observably identical (outcome totals and counter snapshots) to N
    /// sequential `access` calls.
    ///
    /// # Panics
    ///
    /// Panics if `tid` was not returned by [`Machine::add_thread`].
    pub fn access_stream(
        &mut self,
        tid: ThreadId,
        runs: &[StreamRun],
        attrs: &AccessAttrs,
    ) -> AccessOutcome {
        let mut out = AccessOutcome::default();
        let lat = self.cfg.latency;
        #[cfg(feature = "audit")]
        let c0 = self.counters;
        let Machine {
            threads,
            llc,
            page_table,
            counters,
            ..
        } = self;
        let t = &mut threads[tid.0];
        // Batch-local accumulators: counters stay in registers across the
        // whole slice and are flushed to `self.counters` exactly once.
        let mut stlb_hits = 0u64;
        let mut dtlb_misses = 0u64;
        let mut page_faults = 0u64;
        let mut walk_cycles = 0u64;
        let mut mem_reads = 0u64;
        let mut mem_writes = 0u64;
        let mut llc_accesses = 0u64;
        let mut llc_misses = 0u64;
        let mut mee_cycles = 0u64;
        let mut stall_cycles = 0u64;
        let mut cycles = 0u64;
        for run in runs {
            if run.len == 0 {
                continue;
            }
            let first_line = run.vaddr >> LINE_SHIFT;
            // The last byte is computed with checked arithmetic: a run
            // reaching past the top of the address space clamps to its
            // final byte instead of wrapping (silent in release, panic in
            // debug) to line 0.
            let last_byte = run.vaddr.saturating_add(run.len - 1);
            let last_line = last_byte >> LINE_SHIFT;
            // As 0/1 so read/write counting is branchless: the kind of
            // successive runs is data-dependent, and a conditional here
            // mispredicts on every mixed stream.
            let is_read = matches!(run.kind, AccessKind::Read) as u64;
            // Translate once per page crossed.
            macro_rules! translate {
                ($page:expr) => {
                    match t.tlb.translate($page) {
                        TlbOutcome::L1Hit => {}
                        TlbOutcome::StlbHit => {
                            stlb_hits += 1;
                            cycles += STLB_HIT_CYCLES;
                        }
                        TlbOutcome::Miss => {
                            dtlb_misses += 1;
                            out.dtlb_miss = true;
                            // Demand paging: is this the first touch?
                            if page_table.touch($page) == PageStatus::MinorFault {
                                page_faults += 1;
                                out.minor_fault = true;
                                cycles += lat.minor_fault;
                                t.walk_cache.flush(); // the fault handler ran
                            }
                            let fast = t.walk_cache.walk($page);
                            let mut walk = if fast { lat.walk_fast } else { lat.walk_slow };
                            if attrs.epcm_check {
                                walk += lat.epcm_check;
                            }
                            walk_cycles += walk;
                            cycles += walk;
                        }
                    }
                };
            }
            // Charge one line through the cache hierarchy.
            macro_rules! touch_line {
                ($line:expr) => {
                    mem_reads += is_read;
                    mem_writes += 1 - is_read;
                    let mem_cycles = if t.l1.access($line) {
                        lat.l1_hit
                    } else {
                        llc_accesses += 1;
                        if llc.access($line) {
                            lat.llc_hit
                        } else {
                            llc_misses += 1;
                            out.llc_miss = true;
                            if attrs.encrypted_dram {
                                let enc = lat.dram_encrypted();
                                mee_cycles += enc - lat.dram.min(enc);
                                enc
                            } else {
                                lat.dram
                            }
                        }
                    };
                    // Safe subtraction: `Machine::try_new` rejected any
                    // model with `llc_hit < l1_hit` or `dram < llc_hit`.
                    stall_cycles += mem_cycles - lat.l1_hit;
                    cycles += mem_cycles;
                };
            }
            // The first line always translates its page, so the running
            // page needs no `None`/sentinel state (a sentinel value would
            // collide with the genuine top page of the address space);
            // single-line runs — the bulk of pointer-chase streams — take
            // exactly this prologue and skip the loop below entirely.
            let mut cur_page = first_line >> (PAGE_SHIFT - LINE_SHIFT);
            translate!(cur_page);
            touch_line!(first_line);
            for line in first_line + 1..=last_line {
                let page = line >> (PAGE_SHIFT - LINE_SHIFT);
                if page != cur_page {
                    cur_page = page;
                    translate!(page);
                }
                touch_line!(line);
            }
        }
        t.cycles += cycles;
        out.cycles = cycles;
        counters.stlb_hits += stlb_hits;
        counters.dtlb_misses += dtlb_misses;
        counters.page_faults += page_faults;
        counters.walk_cycles += walk_cycles;
        counters.mem_reads += mem_reads;
        counters.mem_writes += mem_writes;
        counters.llc_accesses += llc_accesses;
        counters.llc_misses += llc_misses;
        counters.mee_cycles += mee_cycles;
        counters.stall_cycles += stall_cycles;
        // Every cycle this batch charged must be accounted to exactly one
        // counter bucket: STLB-hit penalties, OS fault handling, page
        // walks, hierarchy stalls, or the L1 baseline per line. A drift
        // here means the perf-counter decomposition the reports print no
        // longer sums to the cycles the workloads observe.
        #[cfg(feature = "audit")]
        {
            let d = *counters - c0;
            assert_eq!(
                out.cycles,
                STLB_HIT_CYCLES * d.stlb_hits
                    + lat.minor_fault * d.page_faults
                    + d.walk_cycles
                    + d.stall_cycles
                    + lat.l1_hit * (d.mem_reads + d.mem_writes),
                "access cycles must decompose exactly into counter buckets"
            );
        }
        out
    }

    /// Charges `cycles` of pure computation to thread `tid`.
    pub fn compute(&mut self, tid: ThreadId, cycles: u64) {
        self.threads[tid.0].cycles += cycles;
        self.counters.compute_cycles += cycles;
    }

    /// Charges `cycles` of overhead (transition, fault handling, syscall)
    /// to thread `tid` without classifying them as computation.
    pub fn charge(&mut self, tid: ThreadId, cycles: u64) {
        self.threads[tid.0].cycles += cycles;
    }

    /// Flushes thread `tid`'s TLB (and walk cache), as happens on every
    /// enclave transition.
    pub fn flush_tlb(&mut self, tid: ThreadId) {
        let t = &mut self.threads[tid.0];
        t.tlb.flush();
        t.walk_cache.flush();
        self.counters.tlb_flushes += 1;
    }

    /// Current cycle clock of thread `tid`.
    pub fn cycles_of(&self, tid: ThreadId) -> u64 {
        self.threads[tid.0].cycles
    }

    /// Advances thread `tid`'s clock to at least `cycles` (synchronization
    /// point: a thread waiting on another simply observes the later time).
    pub fn sync_to(&mut self, tid: ThreadId, cycles: u64) {
        let t = &mut self.threads[tid.0];
        if t.cycles < cycles {
            t.cycles = cycles;
        }
    }

    /// Maximum clock across all threads: the elapsed wall-clock of the
    /// parallel execution so far.
    pub fn elapsed_cycles(&self) -> u64 {
        self.threads.iter().map(|t| t.cycles).max().unwrap_or(0)
    }

    /// Read-only view of the counter totals.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Mutable access to the counters, for layers (SGX, LibOS) that need
    /// to account events of their own into the same snapshot stream.
    pub fn counters_mut(&mut self) -> &mut Counters {
        &mut self.counters
    }

    /// Resets counters and clocks but keeps cache/TLB/page-table state.
    /// Used to exclude warm-up or LibOS start-up from measurements.
    pub fn reset_measurement(&mut self) {
        self.counters = Counters::new();
        for t in &mut self.threads {
            t.cycles = 0;
        }
    }

    /// The OS page table (resident-set queries, unmap).
    pub fn page_table(&self) -> &PageTable {
        &self.page_table
    }

    /// Mutable OS page table (pre-population by loaders).
    pub fn page_table_mut(&mut self) -> &mut PageTable {
        &mut self.page_table
    }

    /// The machine configuration this instance was built with.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    // --- trace plane -----------------------------------------------------
    //
    // The sink lives here because every simulation layer (SGX, LibOS, the
    // harness) already holds the machine; they emit through it without a
    // side channel. Tracing never charges simulated cycles: when disabled
    // every helper below is a single `Option` check, and the per-line
    // loop in `access` does not consult the sink at all.

    /// Arms the trace plane. Replaces (and discards) any previous sink;
    /// surviving [`Machine::reset_measurement`] is intentional so the
    /// harness can arm right after resetting.
    pub fn set_trace_sink(&mut self, sink: trace::TraceSink) {
        self.sample_cache = sink.next_sample_at();
        self.sink = Some(Box::new(sink));
    }

    /// Disarms the trace plane, returning the sink and its records.
    pub fn take_trace_sink(&mut self) -> Option<trace::TraceSink> {
        self.sample_cache = u64::MAX;
        self.sink.take().map(|b| *b)
    }

    /// Read-only view of the armed sink, if any.
    pub fn trace_sink(&self) -> Option<&trace::TraceSink> {
        self.sink.as_deref()
    }

    /// Mutable view of the armed sink, if any.
    pub fn trace_sink_mut(&mut self) -> Option<&mut trace::TraceSink> {
        self.sink.as_deref_mut()
    }

    /// Whether tracing is armed.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.sink.is_some()
    }

    /// Emits `event` stamped with thread `tid`'s current clock. No-op
    /// (one pointer check) when tracing is disabled.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "thread ids index the thread table, far below u32::MAX"
    )]
    pub fn trace_emit(&mut self, tid: ThreadId, event: trace::TraceEvent) {
        if let Some(sink) = self.sink.as_deref_mut() {
            let now = self.threads[tid.0].cycles;
            sink.emit(now, tid.0 as u32, event);
            // Recording a sample re-arms the sink's schedule; advance the
            // fast-path bound so polling goes back to one compare.
            self.sample_cache = sink.next_sample_at();
        }
    }

    /// Whether a periodic counter sample is due at thread `tid`'s clock.
    /// The SGX layer polls this and emits [`trace::TraceEvent::Sample`]
    /// with a snapshot it assembles.
    ///
    /// The common "not yet" answer is a single integer compare against a
    /// cached lower bound of the sink's schedule; the sink itself (which
    /// may have re-armed later via direct [`Machine::trace_sink_mut`]
    /// emission) is only consulted once that bound is reached.
    #[inline]
    pub fn trace_sample_due(&self, tid: ThreadId) -> bool {
        let now = self.threads[tid.0].cycles;
        if now < self.sample_cache {
            return false;
        }
        match self.sink.as_deref() {
            Some(sink) => sink.sample_due(now),
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> (Machine, ThreadId) {
        let mut m = Machine::new(MachineConfig::default());
        let t = m.add_thread();
        (m, t)
    }

    #[test]
    fn first_access_faults_and_misses() {
        let (mut m, t) = machine();
        let out = m.access(t, 0x4000, 8, AccessKind::Read, &AccessAttrs::PLAIN);
        assert!(out.dtlb_miss);
        assert!(out.llc_miss);
        assert!(out.minor_fault);
        assert_eq!(m.counters().page_faults, 1);
        assert_eq!(m.counters().dtlb_misses, 1);
    }

    #[test]
    fn repeat_access_is_cheap() {
        let (mut m, t) = machine();
        m.access(t, 0x4000, 8, AccessKind::Read, &AccessAttrs::PLAIN);
        let before = m.cycles_of(t);
        let out = m.access(t, 0x4000, 8, AccessKind::Read, &AccessAttrs::PLAIN);
        assert_eq!(out.cycles, m.config().latency.l1_hit);
        assert_eq!(m.cycles_of(t) - before, out.cycles);
        assert!(!out.dtlb_miss && !out.llc_miss && !out.minor_fault);
    }

    #[test]
    fn zero_len_is_noop() {
        let (mut m, t) = machine();
        let out = m.access(t, 0x4000, 0, AccessKind::Write, &AccessAttrs::PLAIN);
        assert_eq!(out, AccessOutcome::default());
        assert_eq!(m.counters().mem_writes, 0);
    }

    #[test]
    fn multi_line_access_counts_lines() {
        let (mut m, t) = machine();
        // 256 bytes starting line-aligned: 4 lines.
        m.access(t, 0x8000, 256, AccessKind::Read, &AccessAttrs::PLAIN);
        assert_eq!(m.counters().mem_reads, 4);
    }

    #[test]
    fn page_spanning_access_translates_twice() {
        let (mut m, t) = machine();
        m.access(t, 0x5000 - 32, 64, AccessKind::Read, &AccessAttrs::PLAIN);
        assert_eq!(m.counters().dtlb_misses, 2);
        assert_eq!(m.counters().page_faults, 2);
    }

    #[test]
    fn tlb_flush_forces_rewalk_without_fault() {
        let (mut m, t) = machine();
        m.access(t, 0x4000, 8, AccessKind::Read, &AccessAttrs::PLAIN);
        m.flush_tlb(t);
        let before = m.counters().page_faults;
        let out = m.access(t, 0x4000, 8, AccessKind::Read, &AccessAttrs::PLAIN);
        assert!(out.dtlb_miss);
        assert!(!out.minor_fault);
        assert_eq!(m.counters().page_faults, before);
        assert_eq!(m.counters().tlb_flushes, 1);
    }

    #[test]
    fn encrypted_dram_costs_more() {
        let (mut m, _) = machine();
        let t1 = m.add_thread();
        let t2 = m.add_thread();
        let plain = m.access(t1, 0x10_0000, 8, AccessKind::Read, &AccessAttrs::PLAIN);
        let epc = m.access(t2, 0x20_0000, 8, AccessKind::Read, &AccessAttrs::EPC);
        assert!(epc.cycles > plain.cycles);
    }

    #[test]
    fn threads_have_independent_clocks() {
        let mut m = Machine::new(MachineConfig::default());
        let a = m.add_thread();
        let b = m.add_thread();
        m.compute(a, 100);
        assert_eq!(m.cycles_of(a), 100);
        assert_eq!(m.cycles_of(b), 0);
        assert_eq!(m.elapsed_cycles(), 100);
        m.sync_to(b, 100);
        assert_eq!(m.cycles_of(b), 100);
    }

    #[test]
    fn reset_measurement_keeps_microarch_state() {
        let (mut m, t) = machine();
        m.access(t, 0x4000, 8, AccessKind::Read, &AccessAttrs::PLAIN);
        m.reset_measurement();
        assert_eq!(m.counters().dtlb_misses, 0);
        assert_eq!(m.cycles_of(t), 0);
        // The page is still mapped and cached: no fault, cheap access.
        let out = m.access(t, 0x4000, 8, AccessKind::Read, &AccessAttrs::PLAIN);
        assert!(!out.minor_fault);
    }

    #[test]
    fn stall_cycles_track_hierarchy_latency() {
        let (mut m, t) = machine();
        m.access(t, 0x4000, 8, AccessKind::Read, &AccessAttrs::PLAIN);
        let stalls = m.counters().stall_cycles;
        assert!(stalls >= m.config().latency.dram - m.config().latency.l1_hit);
    }

    #[test]
    fn access_at_top_of_address_space_clamps_instead_of_overflowing() {
        // Regression: `(vaddr + len - 1)` used to overflow (debug panic,
        // silent wrap to line 0 in release) for accesses reaching the top
        // of the address space. The run now clamps to the final byte.
        let (mut m, t) = machine();
        let out = m.access(t, u64::MAX - 7, 64, AccessKind::Read, &AccessAttrs::PLAIN);
        // Clamped run covers bytes [MAX-7, MAX]: exactly one line.
        assert_eq!(m.counters().mem_reads, 1);
        assert!(out.cycles > 0);
    }

    #[test]
    fn top_page_is_translated_not_skipped() {
        // Regression: a `cur_page = u64::MAX` sentinel would collide with
        // the genuine top page number and skip its translation entirely.
        let (mut m, t) = machine();
        let out = m.access(t, u64::MAX - 63, 64, AccessKind::Read, &AccessAttrs::PLAIN);
        assert!(out.dtlb_miss);
        assert_eq!(m.counters().dtlb_misses, 1);
        assert_eq!(m.counters().page_faults, 1);
    }

    #[test]
    fn non_monotone_latency_rejected_at_construction() {
        let cfg = MachineConfig {
            latency: LatencyModel {
                l1_hit: 50,
                llc_hit: 10,
                ..Default::default()
            },
            ..Default::default()
        };
        assert!(matches!(
            Machine::try_new(cfg),
            Err(LatencyError::LlcFasterThanL1 { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "invalid MachineConfig")]
    fn new_panics_on_non_monotone_latency() {
        let cfg = MachineConfig {
            latency: LatencyModel {
                mee_mult_x100: 10,
                ..Default::default()
            },
            ..Default::default()
        };
        let _ = Machine::new(cfg);
    }

    #[test]
    fn stream_matches_sequential_access_calls() {
        let runs: Vec<StreamRun> = (0..64)
            .map(|i| StreamRun::new(0x4000 + i * 192, 128, AccessKind::Read))
            .chain((0..64).map(|i| StreamRun::new(0x9_0000 + i * 64, 8, AccessKind::Write)))
            .collect();
        let (mut a, ta) = machine();
        let (mut b, tb) = machine();
        let batched = a.access_stream(ta, &runs, &AccessAttrs::EPC);
        let mut seq = AccessOutcome::default();
        for r in &runs {
            let o = b.access(tb, r.vaddr, r.len, r.kind, &AccessAttrs::EPC);
            seq.cycles += o.cycles;
            seq.dtlb_miss |= o.dtlb_miss;
            seq.llc_miss |= o.llc_miss;
            seq.minor_fault |= o.minor_fault;
        }
        assert_eq!(batched, seq);
        assert_eq!(a.counters(), b.counters());
        assert_eq!(a.cycles_of(ta), b.cycles_of(tb));
    }

    #[test]
    fn empty_stream_and_zero_runs_are_noops() {
        let (mut m, t) = machine();
        let out = m.access_stream(t, &[], &AccessAttrs::PLAIN);
        assert_eq!(out, AccessOutcome::default());
        let out = m.access_stream(
            t,
            &[StreamRun::new(0x4000, 0, AccessKind::Write)],
            &AccessAttrs::PLAIN,
        );
        assert_eq!(out, AccessOutcome::default());
        assert_eq!(m.counters().mem_writes, 0);
    }
}
