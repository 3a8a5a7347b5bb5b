//! The SGX machine: enclaves + EPC + transitions layered on the memory
//! model.
//!
//! All cycle costs are charged to the issuing thread's clock in the
//! underlying [`mem_sim::Machine`]; all SGX events land in
//! [`SgxCounters`]; all driver-visible paging operations are also sampled
//! into [`DriverStats`] the way the paper's instrumented driver does.

use crate::costs;
use crate::driver::{DriverOp, DriverStats};
use crate::enclave::{Enclave, EnclaveId, EnclaveState};
use crate::epc::{Epc, EpcFaultKind, PageKey};
use crate::switchless::SwitchlessPool;
use mem_sim::{
    AccessAttrs, AccessKind, AccessOutcome, Machine, MachineConfig, StreamRun, ThreadId,
    PAGE_SHIFT, PAGE_SIZE,
};
use std::error::Error;
use std::fmt;

/// Errors reported by [`SgxMachine`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SgxError {
    /// Enclave content is larger than the configured enclave size.
    ContentTooLarge,
    /// ECALL into an enclave that is not initialized (or destroyed).
    NotInitialized,
    /// The thread is already executing inside an enclave.
    AlreadyInEnclave,
    /// The operation requires the thread to be inside an enclave.
    NotInEnclave,
    /// All TCS slots of the enclave are in use (too many concurrent
    /// ECALLs; the paper's Graphene manifests configure 16).
    OutOfTcs,
    /// The enclave's ELRANGE cannot hold the requested heap allocation.
    OutOfEnclaveMemory,
}

impl fmt::Display for SgxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SgxError::ContentTooLarge => write!(f, "enclave content exceeds enclave size"),
            SgxError::NotInitialized => write!(f, "enclave is not initialized"),
            SgxError::AlreadyInEnclave => write!(f, "thread is already inside an enclave"),
            SgxError::NotInEnclave => write!(f, "thread is not inside an enclave"),
            SgxError::OutOfTcs => write!(f, "no free TCS slot for another concurrent ECALL"),
            SgxError::OutOfEnclaveMemory => write!(f, "enclave heap exhausted"),
        }
    }
}

impl Error for SgxError {}

/// Configuration of the SGX platform model. Defaults reproduce the
/// paper's platform (Table 3) and its cited costs (§2.2, §2.3, App. A).
#[derive(Debug, Clone)]
pub struct SgxConfig {
    /// The underlying machine model.
    pub mem: MachineConfig,
    /// Usable EPC bytes (92 MB on the paper's platform).
    pub epc_bytes: u64,
    /// EPC bytes lost to SGX structures and resident runtime pages:
    /// SECS/TCS/SSA frames, version-array pages for evicted content, and
    /// the measured binary's hot pages. Application data contends for
    /// `epc_bytes - epc_reserved_bytes` frames, which is why footprints
    /// "approximately at" the EPC size already page (paper §5.3).
    pub epc_reserved_bytes: u64,
    /// Pages evicted per EWB batch (the driver uses 16).
    pub evict_batch: usize,
    /// Cycles to evict one page: MAC + encrypt + write back (≈12 000).
    pub ewb_cycles: u64,
    /// Cycles to load one page back: decrypt + verify (EWB is "16 % more
    /// than loading back", Appendix A).
    pub eldu_cycles: u64,
    /// Cycles for `sgx_alloc_page` to hand out a free frame.
    pub alloc_page_cycles: u64,
    /// Fixed driver overhead of `sgx_do_fault` on top of the paging ops.
    pub fault_base_cycles: u64,
    /// Cycles for EENTER (half of the ≈17 k round trip of an ECALL).
    pub eenter_cycles: u64,
    /// Cycles for EEXIT.
    pub eexit_cycles: u64,
    /// Cycles for an asynchronous exit (AEX) on a fault.
    pub aex_cycles: u64,
    /// Cycles for ERESUME after a handled fault.
    pub eresume_cycles: u64,
    /// Cycles to EADD + EEXTEND (measure) one page at build time.
    pub eadd_cycles: u64,
    /// Concurrent TCS slots per enclave.
    pub tcs_per_enclave: usize,
    /// Proxy threads for switchless OCALLs; zero disables the feature.
    pub switchless_workers: usize,
    /// Shared-memory channel overhead per switchless call.
    pub switchless_channel_cycles: u64,
    /// SGX2 dynamic memory (EDMM): when true, only *content* pages are
    /// measured at build time; heap pages are EAUGed on first touch
    /// instead of streaming the whole ELRANGE through the EPC. This is
    /// the platform improvement that eliminates Graphene's ≈1 M start-up
    /// evictions (Appendix D discusses SGX v1 vs v2 heaps).
    pub sgx2_edmm: bool,
    /// Extra cycles for the in-enclave EACCEPT of an EAUGed page.
    pub eaccept_cycles: u64,
}

impl Default for SgxConfig {
    fn default() -> Self {
        SgxConfig {
            mem: MachineConfig::default(),
            epc_bytes: 92 << 20,
            epc_reserved_bytes: 8 << 20,
            evict_batch: costs::EVICT_BATCH_PAGES,
            ewb_cycles: costs::EWB_CYCLES,
            eldu_cycles: costs::ELDU_CYCLES,
            alloc_page_cycles: costs::ALLOC_PAGE_CYCLES,
            fault_base_cycles: costs::FAULT_BASE_CYCLES,
            eenter_cycles: costs::EENTER_CYCLES,
            eexit_cycles: costs::EEXIT_CYCLES,
            aex_cycles: costs::AEX_CYCLES,
            eresume_cycles: costs::ERESUME_CYCLES,
            eadd_cycles: costs::EADD_CYCLES,
            tcs_per_enclave: 16,
            switchless_workers: 0,
            switchless_channel_cycles: costs::SWITCHLESS_CHANNEL_CYCLES,
            sgx2_edmm: false,
            eaccept_cycles: costs::EACCEPT_CYCLES,
        }
    }
}

impl SgxConfig {
    /// A configuration with a tiny EPC, handy for tests that want to
    /// exercise eviction without touching megabytes.
    pub fn with_tiny_epc(epc_pages: usize, batch: usize) -> Self {
        SgxConfig {
            epc_bytes: (epc_pages as u64) * PAGE_SIZE,
            epc_reserved_bytes: 0,
            evict_batch: batch,
            ..Default::default()
        }
    }
}

/// SGX-specific event counters, complementing [`mem_sim::Counters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SgxCounters {
    /// ECALLs (enclave entries through EENTER).
    pub ecalls: u64,
    /// OCALLs taking the classic exit path (EEXIT + EENTER).
    pub ocalls: u64,
    /// OCALLs served switchlessly by proxy threads.
    pub switchless_ocalls: u64,
    /// Asynchronous enclave exits (faults, signals).
    pub aex_exits: u64,
    /// The subset of `aex_exits` injected by the fault plane
    /// ([`SgxMachine::inject_aex`]) rather than caused by EPC faults.
    pub injected_aex: u64,
    /// EPC frames allocated (`sgx_alloc_page`).
    pub epc_allocs: u64,
    /// EPC pages evicted (EWB).
    pub epc_evictions: u64,
    /// EPC pages loaded back (ELDU).
    pub epc_loadbacks: u64,
    /// EPC faults handled (`sgx_do_fault` invocations).
    pub epc_faults: u64,
    /// Pages measured at enclave build (EADD + EEXTEND).
    pub pages_measured: u64,
    /// Cycles spent in enclave transitions (EENTER/EEXIT/OCALL paths,
    /// including switchless waits).
    pub transition_cycles: u64,
    /// Cycles spent handling EPC faults (AEX + driver + EWB/ELDU +
    /// ERESUME).
    pub fault_cycles: u64,
}

/// Typed key for one [`SgxCounters`] field.
///
/// This replaces the old stringly `set_field(&str, u64)` accessor: report
/// and checkpoint code address counters through the enum, and a typo in a
/// counter name is now a compile error (or a `None` from
/// [`CounterField::parse`] on the deserialization path) instead of a
/// silently ignored write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CounterField {
    /// [`SgxCounters::ecalls`].
    Ecalls,
    /// [`SgxCounters::ocalls`].
    Ocalls,
    /// [`SgxCounters::switchless_ocalls`].
    SwitchlessOcalls,
    /// [`SgxCounters::aex_exits`].
    AexExits,
    /// [`SgxCounters::injected_aex`].
    InjectedAex,
    /// [`SgxCounters::epc_allocs`].
    EpcAllocs,
    /// [`SgxCounters::epc_evictions`].
    EpcEvictions,
    /// [`SgxCounters::epc_loadbacks`].
    EpcLoadbacks,
    /// [`SgxCounters::epc_faults`].
    EpcFaults,
    /// [`SgxCounters::pages_measured`].
    PagesMeasured,
    /// [`SgxCounters::transition_cycles`].
    TransitionCycles,
    /// [`SgxCounters::fault_cycles`].
    FaultCycles,
}

impl CounterField {
    /// Every field, in [`SgxCounters`] declaration order.
    pub const ALL: [CounterField; 12] = [
        CounterField::Ecalls,
        CounterField::Ocalls,
        CounterField::SwitchlessOcalls,
        CounterField::AexExits,
        CounterField::InjectedAex,
        CounterField::EpcAllocs,
        CounterField::EpcEvictions,
        CounterField::EpcLoadbacks,
        CounterField::EpcFaults,
        CounterField::PagesMeasured,
        CounterField::TransitionCycles,
        CounterField::FaultCycles,
    ];

    /// The snake_case field name, as reports and checkpoints spell it.
    pub fn name(self) -> &'static str {
        match self {
            CounterField::Ecalls => "ecalls",
            CounterField::Ocalls => "ocalls",
            CounterField::SwitchlessOcalls => "switchless_ocalls",
            CounterField::AexExits => "aex_exits",
            CounterField::InjectedAex => "injected_aex",
            CounterField::EpcAllocs => "epc_allocs",
            CounterField::EpcEvictions => "epc_evictions",
            CounterField::EpcLoadbacks => "epc_loadbacks",
            CounterField::EpcFaults => "epc_faults",
            CounterField::PagesMeasured => "pages_measured",
            CounterField::TransitionCycles => "transition_cycles",
            CounterField::FaultCycles => "fault_cycles",
        }
    }

    /// Inverse of [`CounterField::name`]; `None` for unknown names.
    pub fn parse(name: &str) -> Option<CounterField> {
        CounterField::ALL.into_iter().find(|f| f.name() == name)
    }
}

impl SgxCounters {
    /// Reads the counter addressed by `field`.
    pub fn get(&self, field: CounterField) -> u64 {
        match field {
            CounterField::Ecalls => self.ecalls,
            CounterField::Ocalls => self.ocalls,
            CounterField::SwitchlessOcalls => self.switchless_ocalls,
            CounterField::AexExits => self.aex_exits,
            CounterField::InjectedAex => self.injected_aex,
            CounterField::EpcAllocs => self.epc_allocs,
            CounterField::EpcEvictions => self.epc_evictions,
            CounterField::EpcLoadbacks => self.epc_loadbacks,
            CounterField::EpcFaults => self.epc_faults,
            CounterField::PagesMeasured => self.pages_measured,
            CounterField::TransitionCycles => self.transition_cycles,
            CounterField::FaultCycles => self.fault_cycles,
        }
    }

    /// Writes the counter addressed by `field`.
    pub fn set(&mut self, field: CounterField, value: u64) {
        let slot = match field {
            CounterField::Ecalls => &mut self.ecalls,
            CounterField::Ocalls => &mut self.ocalls,
            CounterField::SwitchlessOcalls => &mut self.switchless_ocalls,
            CounterField::AexExits => &mut self.aex_exits,
            CounterField::InjectedAex => &mut self.injected_aex,
            CounterField::EpcAllocs => &mut self.epc_allocs,
            CounterField::EpcEvictions => &mut self.epc_evictions,
            CounterField::EpcLoadbacks => &mut self.epc_loadbacks,
            CounterField::EpcFaults => &mut self.epc_faults,
            CounterField::PagesMeasured => &mut self.pages_measured,
            CounterField::TransitionCycles => &mut self.transition_cycles,
            CounterField::FaultCycles => &mut self.fault_cycles,
        };
        *slot = value;
    }

    /// `(name, value)` pairs in declaration order — a thin iterator over
    /// [`CounterField::ALL`], kept for report code.
    pub fn fields(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        CounterField::ALL
            .into_iter()
            .map(|f| (f.name(), self.get(f)))
    }
}

/// Statistics of one enclave build (ECREATE..EINIT), kept for the
/// start-up analyses (Fig 6a, Fig 9, Appendix D).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InitStats {
    /// Pages streamed through the EPC for measurement.
    pub pages_measured: u64,
    /// EPC evictions caused by the measurement pass.
    pub evictions: u64,
    /// Cycles the build took.
    pub cycles: u64,
}

/// Base of the untrusted heap in the simulated address space.
const UNTRUSTED_BASE: u64 = 0x0000_1000_0000;
/// Base of the first ELRANGE.
const ENCLAVE_BASE: u64 = 0x7000_0000_0000;

/// The SGX platform model. See the crate docs for an example.
#[derive(Debug)]
pub struct SgxMachine {
    cfg: SgxConfig,
    mem: Machine,
    epc: Epc,
    enclaves: Vec<Enclave>,
    active_tcs: Vec<usize>,
    in_enclave: Vec<Option<EnclaveId>>,
    counters: SgxCounters,
    driver: DriverStats,
    switchless: Option<SwitchlessPool>,
    untrusted_next: u64,
    enclave_next: u64,
    init_stats: Vec<InitStats>,
    jitter: u64,
    /// Memo of the last enclave page confirmed resident by
    /// [`SgxMachine::access`], so streaming accesses within one page skip
    /// the residency map entirely. Invariant: when set, the page is
    /// resident with its reference bit set and no eviction sweep has run
    /// since — every event that could break that (an EPC fault, an
    /// enclave build or teardown) clears or overwrites the memo.
    last_touched: Option<(EnclaveId, u64)>,
    /// Scratch queue reused across [`SgxMachine::access_stream`] calls so
    /// the batched path never allocates in steady state (its capacity
    /// ratchets up to the largest batch seen).
    stream_buf: Vec<StreamRun>,
}

impl SgxMachine {
    /// Builds the platform from a configuration.
    ///
    /// Kept as a thin shim over the co-tenant host's zero-tenant path
    /// (`Host::builder().sgx(cfg).build_machine()`), which is the
    /// preferred spelling going forward — see CHANGELOG. Both routes run
    /// the same constructor and produce bit-identical machines.
    pub fn new(cfg: SgxConfig) -> Self {
        crate::host::Host::builder().sgx(cfg).build_machine()
    }

    /// The one real constructor, shared by [`SgxMachine::new`] and the
    /// [`crate::host::HostBuilder`].
    pub(crate) fn from_config(cfg: SgxConfig) -> Self {
        let frames = (cfg.epc_bytes.saturating_sub(cfg.epc_reserved_bytes) >> PAGE_SHIFT) as usize;
        let epc = Epc::new(frames.max(1), cfg.evict_batch.max(1));
        let switchless = if cfg.switchless_workers > 0 {
            Some(SwitchlessPool::new(
                cfg.switchless_workers,
                cfg.switchless_channel_cycles,
            ))
        } else {
            None
        };
        let mem = Machine::new(cfg.mem.clone());
        SgxMachine {
            cfg,
            mem,
            epc,
            enclaves: Vec::new(),
            active_tcs: Vec::new(),
            in_enclave: Vec::new(),
            counters: SgxCounters::default(),
            driver: DriverStats::new(),
            switchless,
            untrusted_next: UNTRUSTED_BASE,
            enclave_next: ENCLAVE_BASE,
            init_stats: Vec::new(),
            jitter: 0x9e3779b97f4a7c15,
            last_touched: None,
            stream_buf: Vec::new(),
        }
    }

    /// Adds a hardware thread.
    pub fn add_thread(&mut self) -> ThreadId {
        self.in_enclave.push(None);
        self.mem.add_thread()
    }

    /// Assembles the flat counter snapshot the trace plane records at
    /// sample instants and phase boundaries: this layer is the only one
    /// that sees the memory counters, the SGX event counters and the EPC
    /// occupancy together.
    pub fn trace_snapshot(&self) -> trace::CounterSnapshot {
        let m = self.mem.counters();
        trace::CounterSnapshot {
            resident_pages: self.epc.resident_count() as u64,
            epc_faults: self.counters.epc_faults,
            epc_allocs: self.counters.epc_allocs,
            epc_evictions: self.counters.epc_evictions,
            epc_loadbacks: self.counters.epc_loadbacks,
            ecalls: self.counters.ecalls,
            ocalls: self.counters.ocalls + self.counters.switchless_ocalls,
            aex_exits: self.counters.aex_exits,
            dtlb_misses: m.dtlb_misses,
            llc_misses: m.llc_misses,
            page_faults: m.page_faults,
            compute_cycles: m.compute_cycles,
            stall_cycles: m.stall_cycles,
            walk_cycles: m.walk_cycles,
            mee_cycles: m.mee_cycles,
            transition_cycles: self.counters.transition_cycles,
            fault_cycles: self.counters.fault_cycles,
        }
    }

    /// Emits a periodic counter sample when one is due on `tid`'s clock.
    /// One `Option` check when tracing is disabled.
    #[inline]
    fn trace_tick(&mut self, tid: ThreadId) {
        if self.mem.trace_sample_due(tid) {
            let snap = self.trace_snapshot();
            self.mem.trace_emit(tid, trace::TraceEvent::Sample { snap });
        }
    }

    /// Opens a workload-declared phase span, recording the boundary
    /// counter snapshot. No-op when tracing is disabled.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "thread ids index the thread table, far below u32::MAX"
    )]
    pub fn trace_phase_begin(&mut self, tid: ThreadId, name: &str) {
        if self.mem.tracing() {
            let snap = self.trace_snapshot();
            let now = self.mem.cycles_of(tid);
            if let Some(sink) = self.mem.trace_sink_mut() {
                sink.begin_phase(name, now, tid.0 as u32, snap);
            }
        }
    }

    /// Closes the innermost phase span, which must be named `name`.
    ///
    /// # Errors
    ///
    /// Propagates the sink's typed [`trace::TraceError`] on span misuse;
    /// always `Ok` when tracing is disabled.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "thread ids index the thread table, far below u32::MAX"
    )]
    pub fn trace_phase_end(&mut self, tid: ThreadId, name: &str) -> Result<(), trace::TraceError> {
        if self.mem.tracing() {
            let snap = self.trace_snapshot();
            let now = self.mem.cycles_of(tid);
            if let Some(sink) = self.mem.trace_sink_mut() {
                sink.end_phase(name, now, tid.0 as u32, snap)?;
            }
        }
        Ok(())
    }

    /// Small deterministic jitter so driver latency samples have a
    /// realistic spread (xorshift over ±6 % of `base`).
    fn jittered(&mut self, base: u64) -> u64 {
        let mut x = self.jitter;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.jitter = x;
        let span = base / 16; // +-6.25 %
        if span == 0 {
            return base;
        }
        base - span + (x % (2 * span))
    }

    /// Allocates `bytes` of untrusted memory and returns its base
    /// address. The memory is demand-paged like ordinary anonymous mmap.
    pub fn alloc_untrusted(&mut self, bytes: u64) -> u64 {
        let base = self.untrusted_next;
        self.untrusted_next += bytes.next_multiple_of(PAGE_SIZE) + PAGE_SIZE; // guard gap
        base
    }

    /// Creates, measures (EADD/EEXTEND over the *whole* enclave size, as
    /// the paper observes in §3.2.1 and Appendix D) and initializes an
    /// enclave, charging the build to thread 0's clock if it exists.
    ///
    /// # Errors
    ///
    /// Returns [`SgxError::ContentTooLarge`] when `content_bytes`
    /// exceeds `size_bytes`.
    pub fn create_enclave(
        &mut self,
        size_bytes: u64,
        content_bytes: u64,
    ) -> Result<EnclaveId, SgxError> {
        if content_bytes > size_bytes {
            return Err(SgxError::ContentTooLarge);
        }
        let id = EnclaveId(self.enclaves.len());
        let size = size_bytes.next_multiple_of(PAGE_SIZE);
        let base = self.enclave_next;
        self.enclave_next += size + (1 << 30); // 1 GiB guard between ELRANGEs
        let mut enclave =
            Enclave::create(id, base, size, content_bytes.next_multiple_of(PAGE_SIZE));
        let mut init = InitStats::default();

        // Measurement pass: stream every page of the ELRANGE through the
        // EPC. This is what blows up Graphene's 4 GB enclaves. Under
        // SGX2/EDMM only the measured content streams; the heap is
        // EAUGed on demand.
        let first = enclave.first_page();
        let total = if self.cfg.sgx2_edmm {
            enclave.content_bytes() >> PAGE_SHIFT
        } else {
            enclave.total_pages()
        };
        for i in 0..total {
            let key = PageKey {
                enclave: id,
                page: first + i,
            };
            let ev = self.epc.ensure_resident(key);
            debug_assert!(ev.kind != EpcFaultKind::LoadBack, "build pages are fresh");
            init.pages_measured += 1;
            init.evictions += ev.evicted.len() as u64;
            self.counters.pages_measured += 1;
            self.counters.epc_allocs += 1;
            self.counters.epc_evictions += ev.evicted.len() as u64;
            let mut cycles = self.cfg.eadd_cycles + self.cfg.alloc_page_cycles;
            for _ in &ev.evicted {
                let c = self.jittered(self.cfg.ewb_cycles);
                self.driver.record(DriverOp::Ewb, c);
                cycles += c;
            }
            let ac = self.jittered(self.cfg.alloc_page_cycles);
            self.driver.record(DriverOp::AllocPage, ac);
            init.cycles += cycles;
        }
        // After verification the streamed pages are released; real
        // allocations happen on demand ("EPC pages are allocated after
        // the verification is done", Appendix D). Content pages keep
        // their EWB'd encrypted copies, so touching them later is an
        // ELDU load-back — which is why the paper sees only ≈700 pages
        // of the ≈1M evicted at Graphene start-up come back (Fig 6a).
        self.epc.remove_enclave(id);
        let content_pages = enclave.content_bytes() >> PAGE_SHIFT;
        for i in 0..content_pages {
            self.epc.mark_evicted(PageKey {
                enclave: id,
                page: first + i,
            });
        }
        if self.mem.thread_count() > 0 {
            self.mem.charge(ThreadId(0), init.cycles);
        }
        enclave.initialize(total);
        self.enclaves.push(enclave);
        self.active_tcs.push(0);
        self.init_stats.push(init);
        // The measurement pass churned the EPC behind secure_access's
        // back; the memoized page may have been evicted.
        self.last_touched = None;
        self.audit();
        Ok(id)
    }

    /// Tears down an enclave, EREMOVing its pages.
    ///
    /// Threads still executing inside `id` are forced out (the
    /// asynchronous analogue of EREMOVE'ing a live TCS): their in-enclave
    /// state clears and their TLBs flush, since stale ELRANGE mappings
    /// must not survive the enclave. The enclave's TCS accounting resets
    /// with them, so a mid-rotation co-tenant teardown cannot leak slots
    /// or leave a neighbour's thread pinned to a destroyed enclave.
    pub fn destroy_enclave(&mut self, id: EnclaveId) {
        for tid in 0..self.in_enclave.len() {
            if self.in_enclave[tid] == Some(id) {
                self.in_enclave[tid] = None;
                self.mem.flush_tlb(ThreadId(tid));
            }
        }
        self.active_tcs[id.0] = 0;
        self.epc.remove_enclave(id);
        self.enclaves[id.0].destroy();
        self.last_touched = None;
        self.audit();
    }

    /// Immutable view of an enclave.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown.
    pub fn enclave(&self, id: EnclaveId) -> &Enclave {
        &self.enclaves[id.0]
    }

    /// Build statistics for `id` (Appendix D analyses).
    pub fn init_stats(&self, id: EnclaveId) -> InitStats {
        self.init_stats[id.0]
    }

    /// Allocates enclave heap memory.
    ///
    /// # Errors
    ///
    /// Returns [`SgxError::OutOfEnclaveMemory`] when the ELRANGE is
    /// exhausted (the SGX v1 condition that forces generous enclave
    /// sizes).
    pub fn alloc_enclave_heap(&mut self, id: EnclaveId, bytes: u64) -> Result<u64, SgxError> {
        self.enclaves[id.0]
            .alloc_heap(bytes)
            .ok_or(SgxError::OutOfEnclaveMemory)
    }

    /// Performs an ECALL: EENTER plus the mandatory TLB flush.
    ///
    /// # Errors
    ///
    /// Fails when the enclave is not initialized, the thread is already
    /// inside an enclave, or no TCS slot is free.
    pub fn ecall_enter(&mut self, tid: ThreadId, id: EnclaveId) -> Result<(), SgxError> {
        if self.enclaves[id.0].state() != EnclaveState::Initialized {
            return Err(SgxError::NotInitialized);
        }
        if self.in_enclave[tid.0].is_some() {
            return Err(SgxError::AlreadyInEnclave);
        }
        if self.active_tcs[id.0] >= self.cfg.tcs_per_enclave {
            return Err(SgxError::OutOfTcs);
        }
        self.active_tcs[id.0] += 1;
        self.in_enclave[tid.0] = Some(id);
        self.counters.ecalls += 1;
        self.counters.transition_cycles += self.cfg.eenter_cycles;
        self.mem.charge(tid, self.cfg.eenter_cycles);
        #[cfg(feature = "audit")]
        let flushes = self.mem.counters().tlb_flushes;
        self.mem.flush_tlb(tid);
        #[cfg(feature = "audit")]
        assert_eq!(
            self.mem.counters().tlb_flushes,
            flushes + 1,
            "EENTER flushes the TLB exactly once (§2.3)"
        );
        self.mem.trace_emit(tid, trace::TraceEvent::EcallEnter);
        self.trace_tick(tid);
        Ok(())
    }

    /// Performs the EEXIT ending an ECALL.
    ///
    /// # Errors
    ///
    /// Fails when the thread is not inside `id`.
    pub fn ecall_exit(&mut self, tid: ThreadId, id: EnclaveId) -> Result<(), SgxError> {
        if self.in_enclave[tid.0] != Some(id) {
            return Err(SgxError::NotInEnclave);
        }
        self.in_enclave[tid.0] = None;
        self.active_tcs[id.0] -= 1;
        self.counters.transition_cycles += self.cfg.eexit_cycles;
        self.mem.charge(tid, self.cfg.eexit_cycles);
        #[cfg(feature = "audit")]
        let flushes = self.mem.counters().tlb_flushes;
        self.mem.flush_tlb(tid);
        #[cfg(feature = "audit")]
        assert_eq!(
            self.mem.counters().tlb_flushes,
            flushes + 1,
            "EEXIT flushes the TLB exactly once (§2.3)"
        );
        self.mem.trace_emit(tid, trace::TraceEvent::EcallExit);
        self.trace_tick(tid);
        Ok(())
    }

    /// Performs an OCALL whose untrusted work takes `work_cycles`.
    ///
    /// With switchless mode enabled the call is delegated to a proxy
    /// thread (no transition, no TLB flush); otherwise the thread pays
    /// EEXIT + work + EENTER with two TLB flushes (§2.3, §5.6).
    ///
    /// # Errors
    ///
    /// Fails when the thread is not inside an enclave.
    pub fn ocall(&mut self, tid: ThreadId, work_cycles: u64) -> Result<(), SgxError> {
        if self.in_enclave[tid.0].is_none() {
            return Err(SgxError::NotInEnclave);
        }
        #[cfg(feature = "audit")]
        let flushes = self.mem.counters().tlb_flushes;
        if let Some(pool) = self.switchless.as_mut() {
            let now = self.mem.cycles_of(tid);
            let done = pool.submit(now, work_cycles);
            self.counters.transition_cycles += done.saturating_sub(now).saturating_sub(work_cycles);
            self.mem.sync_to(tid, done);
            self.counters.switchless_ocalls += 1;
            #[cfg(feature = "audit")]
            assert_eq!(
                self.mem.counters().tlb_flushes,
                flushes,
                "switchless OCALLs are exit-less: no TLB flush (§5.6)"
            );
            self.mem
                .trace_emit(tid, trace::TraceEvent::Ocall { switchless: true });
            self.trace_tick(tid);
            return Ok(());
        }
        self.counters.ocalls += 1;
        self.counters.transition_cycles += self.cfg.eexit_cycles + self.cfg.eenter_cycles;
        self.mem.charge(tid, self.cfg.eexit_cycles);
        self.mem.flush_tlb(tid);
        self.mem.charge(tid, work_cycles);
        self.mem.charge(tid, self.cfg.eenter_cycles);
        self.mem.flush_tlb(tid);
        #[cfg(feature = "audit")]
        assert_eq!(
            self.mem.counters().tlb_flushes,
            flushes + 2,
            "a classic OCALL flushes on both EEXIT and EENTER (§2.3)"
        );
        self.mem
            .trace_emit(tid, trace::TraceEvent::Ocall { switchless: false });
        self.trace_tick(tid);
        Ok(())
    }

    /// Whether `tid` currently executes inside an enclave.
    pub fn current_enclave(&self, tid: ThreadId) -> Option<EnclaveId> {
        self.in_enclave[tid.0]
    }

    /// Issues a memory access, routing it through the EPC when the thread
    /// executes inside an enclave and targets its ELRANGE.
    ///
    /// # Panics
    ///
    /// Panics if a thread *outside* any enclave touches an ELRANGE — the
    /// hardware would return abort-page semantics; in the simulator this
    /// is always a harness bug worth failing loudly on.
    pub fn access(
        &mut self,
        tid: ThreadId,
        vaddr: u64,
        len: u64,
        kind: AccessKind,
    ) -> AccessOutcome {
        if len == 0 {
            return AccessOutcome::default();
        }
        match self.in_enclave[tid.0] {
            Some(eid) if self.enclaves[eid.0].contains(vaddr) => {
                self.secure_access(tid, eid, vaddr, len, kind)
            }
            _ => {
                debug_assert!(
                    !self
                        .enclaves
                        .iter()
                        .any(|e| e.state() == EnclaveState::Initialized
                            && e.contains(vaddr)
                            && self.in_enclave[tid.0].is_none_or(|c| c != e.id())),
                    "untrusted access to ELRANGE at {vaddr:#x}"
                );
                let out = self.mem.access(tid, vaddr, len, kind, &AccessAttrs::PLAIN);
                self.trace_tick(tid);
                out
            }
        }
    }

    /// Batched counterpart of [`SgxMachine::access`]: issues `runs` in
    /// order and returns the aggregate outcome (cycles summed, flags
    /// OR-ed across the batch).
    ///
    /// Consecutive runs sharing a routing class (plain vs. ELRANGE) are
    /// forwarded to [`mem_sim::Machine::access_stream`] as one batch.
    /// EPC residency is still established page by page and in order, and
    /// any batched memory work queued before an EPC fault is drained
    /// *before* the fault is serviced (the fault's AEX flushes the TLB),
    /// so counter totals and cycle charges are identical to issuing the
    /// runs one at a time. Only the trace sampling poll — which is
    /// simulated-time-triggered either way — runs once per batch rather
    /// than once per run.
    ///
    /// # Panics
    ///
    /// As for [`SgxMachine::access`], if a thread outside any enclave
    /// touches an ELRANGE (debug builds).
    pub fn access_stream(&mut self, tid: ThreadId, runs: &[StreamRun]) -> AccessOutcome {
        fn merge(agg: &mut AccessOutcome, out: AccessOutcome) {
            agg.cycles += out.cycles;
            agg.dtlb_miss |= out.dtlb_miss;
            agg.llc_miss |= out.llc_miss;
            agg.minor_fault |= out.minor_fault;
        }
        let mut agg = AccessOutcome::default();
        let mut extra = 0u64;
        // Steady-state zero-alloc: the queue is taken from (and returned
        // to) the machine so repeated batches reuse one ratcheting buffer.
        let mut pending: Vec<StreamRun> = std::mem::take(&mut self.stream_buf);
        pending.clear();
        pending.reserve(runs.len());
        let mut pending_epc = false;
        #[cfg(feature = "audit")]
        let mut faulted = false;
        for run in runs {
            if run.len == 0 {
                continue;
            }
            let enclave = match self.in_enclave[tid.0] {
                Some(eid) if self.enclaves[eid.0].contains(run.vaddr) => Some(eid),
                _ => None,
            };
            if (enclave.is_some()) != pending_epc && !pending.is_empty() {
                let attrs = if pending_epc {
                    AccessAttrs::EPC
                } else {
                    AccessAttrs::PLAIN
                };
                merge(&mut agg, self.mem.access_stream(tid, &pending, &attrs));
                pending.clear();
            }
            pending_epc = enclave.is_some();
            match enclave {
                None => {
                    debug_assert!(
                        !self
                            .enclaves
                            .iter()
                            .any(|e| e.state() == EnclaveState::Initialized
                                && e.contains(run.vaddr)
                                && self.in_enclave[tid.0].is_none_or(|c| c != e.id())),
                        "untrusted access to ELRANGE at {:#x}",
                        run.vaddr
                    );
                }
                Some(eid) => {
                    // Establish residency before queueing the run. A fault
                    // flushes the TLB, so memory work queued *before* the
                    // faulting page must be issued first to keep the
                    // sequential TLB-state ordering. Resident touches only
                    // mutate EPC replacement state, which batched memory
                    // accesses never observe, so reordering those across
                    // the queue is invisible.
                    let first_page = run.vaddr >> PAGE_SHIFT;
                    let last_byte = run.vaddr.saturating_add(run.len - 1);
                    let last_page = last_byte >> PAGE_SHIFT;
                    for page in first_page..=last_page {
                        if self.last_touched == Some((eid, page)) {
                            continue;
                        }
                        let key = PageKey { enclave: eid, page };
                        if self.epc.touch(key) {
                            self.last_touched = Some((eid, page));
                            continue;
                        }
                        if !pending.is_empty() {
                            merge(
                                &mut agg,
                                self.mem.access_stream(tid, &pending, &AccessAttrs::EPC),
                            );
                            pending.clear();
                        }
                        #[cfg(feature = "audit")]
                        {
                            faulted = true;
                        }
                        extra += self.epc_page_fault(tid, eid, page);
                    }
                }
            }
            pending.push(*run);
        }
        if !pending.is_empty() {
            let attrs = if pending_epc {
                AccessAttrs::EPC
            } else {
                AccessAttrs::PLAIN
            };
            merge(&mut agg, self.mem.access_stream(tid, &pending, &attrs));
        }
        self.stream_buf = pending;
        agg.cycles += extra;
        self.trace_tick(tid);
        #[cfg(feature = "audit")]
        if faulted {
            self.audit();
        }
        agg
    }

    fn secure_access(
        &mut self,
        tid: ThreadId,
        eid: EnclaveId,
        vaddr: u64,
        len: u64,
        kind: AccessKind,
    ) -> AccessOutcome {
        let mut extra = 0u64;
        // A resident hit mutates only reference bits and the streaming
        // memo; the full structural sweep is only due after a fault, and
        // charging it per access would make audit builds O(EPC) per touch.
        #[cfg(feature = "audit")]
        let mut faulted = false;
        self.epc_phase(
            tid,
            eid,
            vaddr,
            len,
            &mut extra,
            #[cfg(feature = "audit")]
            &mut faulted,
        );
        let mut out = self.mem.access(tid, vaddr, len, kind, &AccessAttrs::EPC);
        out.cycles += extra;
        self.trace_tick(tid);
        #[cfg(feature = "audit")]
        if faulted {
            self.audit();
        }
        out
    }

    /// Establishes EPC residency for every page of `len` bytes at
    /// `vaddr`, servicing faults (AEX + driver + ERESUME) as needed.
    /// Fault cycles are charged to `tid` and accumulated into `extra`.
    fn epc_phase(
        &mut self,
        tid: ThreadId,
        eid: EnclaveId,
        vaddr: u64,
        len: u64,
        extra: &mut u64,
        #[cfg(feature = "audit")] faulted: &mut bool,
    ) {
        let first_page = vaddr >> PAGE_SHIFT;
        // Checked: a run reaching the top of the address space clamps to
        // its last byte instead of wrapping to page 0.
        let last_byte = vaddr.saturating_add(len - 1);
        let last_page = last_byte >> PAGE_SHIFT;
        for page in first_page..=last_page {
            // Streaming fast path: repeated touches of the memoized page
            // skip the residency map entirely (its reference bit is
            // already set and no sweep has cleared it since).
            if self.last_touched == Some((eid, page)) {
                continue;
            }
            let key = PageKey { enclave: eid, page };
            if self.epc.touch(key) {
                // Resident path: exactly one residency-map probe, which
                // also refreshed the clock reference bit.
                self.last_touched = Some((eid, page));
                continue;
            }
            #[cfg(feature = "audit")]
            {
                *faulted = true;
            }
            *extra += self.epc_page_fault(tid, eid, page);
        }
    }

    /// Services one EPC fault for (`eid`, `page`): AEX exit, driver
    /// alloc/load-back with EWB evictions, ERESUME. Returns the cycles
    /// charged to `tid`.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a fault evicts at most one batch, far below u32::MAX pages"
    )]
    fn epc_page_fault(&mut self, tid: ThreadId, eid: EnclaveId, page: u64) -> u64 {
        let key = PageKey { enclave: eid, page };
        // EPC fault: AEX out, driver handles it, ERESUME back.
        #[cfg(feature = "audit")]
        let (c0, flushes0) = (self.counters, self.mem.counters().tlb_flushes);
        self.counters.epc_faults += 1;
        self.counters.aex_exits += 1;
        let resident_at_fault = self.epc.resident_count() as u64;
        self.mem.flush_tlb(tid);
        let mut fault_cycles = self.cfg.aex_cycles + self.cfg.fault_base_cycles;
        let ev = self.epc.ensure_resident(key);
        for _ in &ev.evicted {
            let c = self.jittered(self.cfg.ewb_cycles);
            self.driver.record(DriverOp::Ewb, c);
            self.counters.epc_evictions += 1;
            fault_cycles += c;
        }
        match ev.kind {
            EpcFaultKind::Alloc => {
                let mut c = self.jittered(self.cfg.alloc_page_cycles);
                if self.cfg.sgx2_edmm {
                    // EAUG by the driver + EACCEPT inside the enclave.
                    c += self.cfg.eaccept_cycles;
                }
                self.driver.record(DriverOp::AllocPage, c);
                self.counters.epc_allocs += 1;
                fault_cycles += c;
            }
            EpcFaultKind::LoadBack => {
                let c = self.jittered(self.cfg.eldu_cycles);
                self.driver.record(DriverOp::Eldu, c);
                self.counters.epc_loadbacks += 1;
                fault_cycles += c;
            }
            EpcFaultKind::Resident => unreachable!("page checked non-resident above"),
        }
        self.driver.record(
            DriverOp::DoFault,
            self.cfg.fault_base_cycles + fault_cycles / 4,
        );
        fault_cycles += self.cfg.eresume_cycles;
        self.counters.fault_cycles += fault_cycles;
        self.mem.charge(tid, fault_cycles);
        // The faulted page is now the only one known resident with a
        // fresh reference bit (the eviction sweep may have cleared
        // or evicted anything else, including the old memo).
        self.last_touched = Some((eid, page));
        // Eventwise conservation: one fault exits (AEX) and flushes
        // exactly once, is resolved by exactly one alloc or load-back,
        // and counts one eviction per EWB victim (§2.2/§2.3).
        #[cfg(feature = "audit")]
        {
            let c1 = &self.counters;
            assert_eq!(c1.epc_faults - c0.epc_faults, 1);
            assert_eq!(c1.aex_exits - c0.aex_exits, 1, "one AEX per fault");
            assert_eq!(
                (c1.epc_allocs + c1.epc_loadbacks) - (c0.epc_allocs + c0.epc_loadbacks),
                1,
                "a fault resolves via exactly one alloc or load-back"
            );
            assert_eq!(
                c1.epc_evictions - c0.epc_evictions,
                ev.evicted.len() as u64,
                "one eviction counted per EWB victim"
            );
            assert_eq!(
                self.mem.counters().tlb_flushes - flushes0,
                1,
                "the AEX flushes the TLB exactly once"
            );
        }
        // Trace only *paging* faults (the `sgx_do_fault`→EWB/ELDU
        // activity the paper instruments); demand-zero allocations
        // below the watermark are not paging and stay out of the
        // stream, which is what makes the EPC boundary cliff visible
        // as "fault events appear only past the watermark".
        if ev.kind == EpcFaultKind::LoadBack || !ev.evicted.is_empty() {
            self.mem.trace_emit(
                tid,
                trace::TraceEvent::EpcFault {
                    loadback: ev.kind == EpcFaultKind::LoadBack,
                    evicted: ev.evicted.len() as u32,
                    resident_pages: resident_at_fault,
                },
            );
        }
        fault_cycles
    }

    /// Charges pure computation to `tid`.
    pub fn compute(&mut self, tid: ThreadId, cycles: u64) {
        self.mem.compute(tid, cycles);
        self.trace_tick(tid);
    }

    /// Injects one asynchronous enclave exit on `tid` (the fault plane's
    /// AEX storm): AEX out with the mandatory TLB flush, ERESUME back,
    /// both charged from the canonical costs. Returns false (and does
    /// nothing) when the thread is not inside an enclave — real AEX only
    /// interrupts enclave execution.
    pub fn inject_aex(&mut self, tid: ThreadId) -> bool {
        if self.in_enclave[tid.0].is_none() {
            return false;
        }
        #[cfg(feature = "audit")]
        let flushes0 = self.mem.counters().tlb_flushes;
        self.counters.aex_exits += 1;
        self.counters.injected_aex += 1;
        self.mem.flush_tlb(tid);
        let cycles = self.cfg.aex_cycles + self.cfg.eresume_cycles;
        self.counters.fault_cycles += cycles;
        self.mem.charge(tid, cycles);
        #[cfg(feature = "audit")]
        assert_eq!(
            self.mem.counters().tlb_flushes - flushes0,
            1,
            "an injected AEX flushes the TLB exactly once"
        );
        self.mem
            .trace_emit(tid, trace::TraceEvent::Aex { injected: true });
        self.trace_tick(tid);
        self.audit();
        true
    }

    /// Applies an injected EPC pressure spike: reserves `frames` frames
    /// for a simulated co-tenant, writing back (EWB) whatever no longer
    /// fits and charging the write-backs to `tid`. Returns the number of
    /// pages evicted. Undo with [`SgxMachine::release_epc_pressure`].
    pub fn set_epc_pressure(&mut self, tid: ThreadId, frames: usize) -> usize {
        let victims = self.epc.set_reserved(frames);
        if !victims.is_empty() {
            // The shrink sweep may have evicted the memoized page.
            self.last_touched = None;
            let mut cycles = 0;
            for _ in &victims {
                let c = self.jittered(self.cfg.ewb_cycles);
                self.driver.record(DriverOp::Ewb, c);
                self.counters.epc_evictions += 1;
                cycles += c;
            }
            self.counters.fault_cycles += cycles;
            self.mem.charge(tid, cycles);
        }
        self.audit();
        victims.len()
    }

    /// Ends an injected EPC pressure spike: every reserved frame becomes
    /// usable again. Releasing evicts nothing, so it is free.
    pub fn release_epc_pressure(&mut self) {
        let victims = self.epc.set_reserved(0);
        debug_assert!(victims.is_empty(), "growing the pool cannot evict");
        self.audit();
    }

    /// The underlying machine (clocks, counters, page table).
    pub fn mem(&self) -> &Machine {
        &self.mem
    }

    /// Mutable access to the underlying machine (e.g. `sync_to`).
    pub fn mem_mut(&mut self) -> &mut Machine {
        &mut self.mem
    }

    /// SGX event counters.
    pub fn sgx_counters(&self) -> &SgxCounters {
        &self.counters
    }

    /// Driver latency statistics.
    pub fn driver_stats(&self) -> &DriverStats {
        &self.driver
    }

    /// EPC occupancy diagnostics.
    pub fn epc(&self) -> &Epc {
        &self.epc
    }

    /// The configuration this machine was built with.
    pub fn config(&self) -> &SgxConfig {
        &self.cfg
    }

    /// Verifies the cross-structure SGX invariants, returning a
    /// description of the first violation found:
    ///
    /// * the EPC's own structural invariants
    ///   ([`Epc::check_invariants`]),
    /// * **memo residency** — the streaming fast-path memo only ever
    ///   names a resident page,
    /// * **AEX accounting** — every EPC fault exits the enclave exactly
    ///   once, and the only other exits are injected by the fault plane,
    ///   so `aex_exits == epc_faults + injected_aex` (§2.3),
    /// * **fault resolution** — each fault was resolved by an alloc or a
    ///   load-back, so `epc_allocs + epc_loadbacks >= epc_faults` (build
    ///   passes allocate without faulting, hence `>=` rather than `==`;
    ///   the per-fault `==` is asserted eventwise in audit builds).
    ///
    /// Always compiled; the `audit` cargo feature additionally calls it
    /// after every enclave build, teardown, and secure access, and
    /// panics on violation.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.epc.check_invariants()?;
        if let Some((eid, page)) = self.last_touched {
            let key = PageKey { enclave: eid, page };
            if !self.epc.is_resident(key) {
                return Err(format!("fast-path memo names non-resident page {key:?}"));
            }
        }
        let c = &self.counters;
        if c.aex_exits != c.epc_faults + c.injected_aex {
            return Err(format!(
                "{} AEX exits for {} EPC faults + {} injected",
                c.aex_exits, c.epc_faults, c.injected_aex
            ));
        }
        if c.epc_allocs + c.epc_loadbacks < c.epc_faults {
            return Err(format!(
                "{} faults but only {} allocs + {} load-backs",
                c.epc_faults, c.epc_allocs, c.epc_loadbacks
            ));
        }
        Ok(())
    }

    /// Panics on the first violated invariant (audit builds only).
    #[cfg(feature = "audit")]
    fn audit(&self) {
        if let Err(e) = self.check_invariants() {
            panic!("SGX machine audit: {e}");
        }
    }

    /// No-op twin of the audit hook in non-audit builds.
    #[cfg(not(feature = "audit"))]
    #[inline(always)]
    fn audit(&self) {}

    /// Resets measurement state (memory counters, SGX counters, driver
    /// samples, thread clocks) while keeping all architectural state —
    /// the analogue of re-arming `perf` after start-up.
    pub fn reset_measurement(&mut self) {
        self.mem.reset_measurement();
        self.counters = SgxCounters::default();
        self.driver.reset();
        if let Some(p) = self.switchless.as_mut() {
            p.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_machine(epc_pages: usize) -> (SgxMachine, ThreadId) {
        let mut cfg = SgxConfig::with_tiny_epc(epc_pages, 2);
        cfg.mem = MachineConfig::default();
        let mut m = SgxMachine::new(cfg);
        let t = m.add_thread();
        (m, t)
    }

    #[test]
    fn ecall_flushes_tlb_and_counts() {
        let (mut m, t) = small_machine(64);
        let e = m.create_enclave(32 * PAGE_SIZE, 4 * PAGE_SIZE).unwrap();
        m.ecall_enter(t, e).unwrap();
        assert_eq!(m.sgx_counters().ecalls, 1);
        assert_eq!(m.current_enclave(t), Some(e));
        m.ecall_exit(t, e).unwrap();
        assert!(m.mem().counters().tlb_flushes >= 2);
        assert_eq!(m.current_enclave(t), None);
    }

    #[test]
    fn double_enter_rejected() {
        let (mut m, t) = small_machine(64);
        let e = m.create_enclave(32 * PAGE_SIZE, 4 * PAGE_SIZE).unwrap();
        m.ecall_enter(t, e).unwrap();
        assert_eq!(m.ecall_enter(t, e), Err(SgxError::AlreadyInEnclave));
    }

    #[test]
    fn tcs_limit_enforced() {
        let mut cfg = SgxConfig::with_tiny_epc(64, 2);
        cfg.tcs_per_enclave = 2;
        let mut m = SgxMachine::new(cfg);
        let t0 = m.add_thread();
        let t1 = m.add_thread();
        let t2 = m.add_thread();
        let e = m.create_enclave(32 * PAGE_SIZE, 4 * PAGE_SIZE).unwrap();
        m.ecall_enter(t0, e).unwrap();
        m.ecall_enter(t1, e).unwrap();
        assert_eq!(m.ecall_enter(t2, e), Err(SgxError::OutOfTcs));
        m.ecall_exit(t0, e).unwrap();
        m.ecall_enter(t2, e).unwrap();
    }

    #[test]
    fn enclave_access_allocates_epc() {
        let (mut m, t) = small_machine(64);
        let e = m.create_enclave(32 * PAGE_SIZE, 4 * PAGE_SIZE).unwrap();
        m.ecall_enter(t, e).unwrap();
        let heap = m.alloc_enclave_heap(e, 2 * PAGE_SIZE).unwrap();
        m.access(t, heap, 2 * PAGE_SIZE, AccessKind::Write);
        assert_eq!(m.sgx_counters().epc_allocs as usize, 32 + 2); // build + demand
        assert_eq!(m.sgx_counters().epc_faults, 2);
        assert_eq!(m.sgx_counters().aex_exits, 2);
    }

    #[test]
    fn stream_matches_sequential_accesses_under_epc_pressure() {
        // A small EPC forces faults and EWB evictions mid-stream; the
        // batched path must still charge identical cycles and counters.
        let build = |_| {
            let (mut m, t) = small_machine(24);
            let e = m.create_enclave(32 * PAGE_SIZE, 8 * PAGE_SIZE).unwrap();
            m.ecall_enter(t, e).unwrap();
            let heap = m.alloc_enclave_heap(e, 16 * PAGE_SIZE).unwrap();
            (m, t, heap)
        };
        let (mut a, ta, heap_a) = build(());
        let (mut b, tb, heap_b) = build(());
        assert_eq!(heap_a, heap_b);
        // Mix of enclave-heap runs (two sweeps so pages fault, evict and
        // load back) and untrusted runs (class switches mid-batch).
        let mut runs = Vec::new();
        for sweep in 0..2 {
            for p in 0..16u64 {
                runs.push(StreamRun::new(heap_a + p * PAGE_SIZE, 96, AccessKind::Read));
                if p % 5 == sweep {
                    runs.push(StreamRun::new(0x2000 + p * 64, 64, AccessKind::Write));
                }
            }
        }
        let batched = a.access_stream(ta, &runs);
        let mut seq_cycles = 0u64;
        for r in &runs {
            seq_cycles += b.access(tb, r.vaddr, r.len, r.kind).cycles;
        }
        assert!(
            a.sgx_counters().epc_evictions > 0,
            "the scenario must exercise eviction"
        );
        assert_eq!(batched.cycles, seq_cycles);
        assert_eq!(a.sgx_counters(), b.sgx_counters());
        assert_eq!(a.mem().counters(), b.mem().counters());
    }

    #[test]
    fn resident_access_probes_residency_map_once_per_page() {
        let (mut m, t) = small_machine(64);
        let e = m.create_enclave(32 * PAGE_SIZE, 4 * PAGE_SIZE).unwrap();
        m.ecall_enter(t, e).unwrap();
        let heap = m.alloc_enclave_heap(e, 2 * PAGE_SIZE).unwrap();
        // Warm both pages (faults; several probes each is fine).
        m.access(t, heap, 8, AccessKind::Write);
        m.access(t, heap + PAGE_SIZE, 8, AccessKind::Write);
        // Streaming within the memoized page: zero map probes.
        let p0 = m.epc().probe_count();
        for i in 0..16 {
            m.access(t, heap + PAGE_SIZE + i * 8, 8, AccessKind::Read);
        }
        assert_eq!(
            m.epc().probe_count(),
            p0,
            "same-page stream must skip the map"
        );
        // Alternating between warm pages defeats the memo: exactly one
        // probe per page touched, not two.
        let p1 = m.epc().probe_count();
        for i in 0..8u64 {
            m.access(t, heap + (i % 2) * PAGE_SIZE, 8, AccessKind::Read);
        }
        assert_eq!(
            m.epc().probe_count(),
            p1 + 8,
            "resident path is single-probe"
        );
        assert_eq!(m.sgx_counters().epc_faults, 2, "no spurious faults");
    }

    #[test]
    fn working_set_beyond_epc_thrashes() {
        let (mut m, t) = small_machine(8); // 8-frame EPC
        let e = m.create_enclave(64 * PAGE_SIZE, 0).unwrap();
        m.ecall_enter(t, e).unwrap();
        let heap = m.alloc_enclave_heap(e, 32 * PAGE_SIZE).unwrap();
        // Two sequential sweeps over 4x the EPC.
        for _ in 0..2 {
            for p in 0..32u64 {
                m.access(t, heap + p * PAGE_SIZE, 8, AccessKind::Read);
            }
        }
        let c = m.sgx_counters();
        assert!(c.epc_evictions > 32, "sweeps must evict: {c:?}");
        assert!(c.epc_loadbacks > 0, "second sweep must load back: {c:?}");
        assert!(m.epc().resident_count() <= 8);
    }

    #[test]
    fn fits_in_epc_no_faults_after_warmup() {
        let (mut m, t) = small_machine(64);
        let e = m.create_enclave(32 * PAGE_SIZE, 0).unwrap();
        m.ecall_enter(t, e).unwrap();
        let heap = m.alloc_enclave_heap(e, 16 * PAGE_SIZE).unwrap();
        for p in 0..16u64 {
            m.access(t, heap + p * PAGE_SIZE, 8, AccessKind::Write);
        }
        let faults = m.sgx_counters().epc_faults;
        for p in 0..16u64 {
            m.access(t, heap + p * PAGE_SIZE, 8, AccessKind::Read);
        }
        assert_eq!(m.sgx_counters().epc_faults, faults);
        assert_eq!(m.sgx_counters().epc_evictions, 0);
    }

    #[test]
    fn build_of_large_enclave_streams_through_epc() {
        let (mut m, _) = small_machine(16);
        let e = m.create_enclave(64 * PAGE_SIZE, 0).unwrap();
        let init = m.init_stats(e);
        assert_eq!(init.pages_measured, 64);
        // 64 pages through a 16-frame EPC must evict roughly 48.
        assert!(init.evictions >= 40, "init evictions {init:?}");
        // After build the EPC is released.
        assert_eq!(m.epc().resident_count(), 0);
    }

    #[test]
    fn ocall_costs_and_flushes() {
        let (mut m, t) = small_machine(64);
        let e = m.create_enclave(32 * PAGE_SIZE, 0).unwrap();
        m.ecall_enter(t, e).unwrap();
        let flushes = m.mem().counters().tlb_flushes;
        m.ocall(t, 1_000).unwrap();
        assert_eq!(m.sgx_counters().ocalls, 1);
        assert_eq!(m.mem().counters().tlb_flushes, flushes + 2);
    }

    #[test]
    fn switchless_ocall_avoids_flush() {
        let mut cfg = SgxConfig::with_tiny_epc(64, 2);
        cfg.switchless_workers = 4;
        let mut m = SgxMachine::new(cfg);
        let t = m.add_thread();
        let e = m.create_enclave(32 * PAGE_SIZE, 0).unwrap();
        m.ecall_enter(t, e).unwrap();
        let flushes = m.mem().counters().tlb_flushes;
        m.ocall(t, 1_000).unwrap();
        assert_eq!(m.sgx_counters().switchless_ocalls, 1);
        assert_eq!(m.sgx_counters().ocalls, 0);
        assert_eq!(m.mem().counters().tlb_flushes, flushes);
    }

    #[test]
    fn ocall_outside_enclave_rejected() {
        let (mut m, t) = small_machine(64);
        assert_eq!(m.ocall(t, 10), Err(SgxError::NotInEnclave));
    }

    #[test]
    fn untrusted_access_from_enclave_is_plain() {
        let (mut m, t) = small_machine(64);
        let e = m.create_enclave(32 * PAGE_SIZE, 0).unwrap();
        let buf = m.alloc_untrusted(PAGE_SIZE);
        m.ecall_enter(t, e).unwrap();
        let faults = m.sgx_counters().epc_faults;
        m.access(t, buf, 64, AccessKind::Read);
        assert_eq!(
            m.sgx_counters().epc_faults,
            faults,
            "untrusted access must not touch EPC"
        );
    }

    #[test]
    fn driver_records_paging_ops() {
        let (mut m, t) = small_machine(8);
        let e = m.create_enclave(64 * PAGE_SIZE, 0).unwrap();
        m.ecall_enter(t, e).unwrap();
        let heap = m.alloc_enclave_heap(e, 32 * PAGE_SIZE).unwrap();
        for _ in 0..3 {
            for p in 0..32u64 {
                m.access(t, heap + p * PAGE_SIZE, 8, AccessKind::Read);
            }
        }
        let d = m.driver_stats();
        assert!(d.stats(DriverOp::Ewb).count > 0);
        assert!(d.stats(DriverOp::Eldu).count > 0);
        assert!(d.stats(DriverOp::AllocPage).count > 0);
        assert!(d.stats(DriverOp::DoFault).count > 0);
        // EWB mean must exceed ELDU mean (paper: +16 %).
        assert!(d.stats(DriverOp::Ewb).mean_cycles() > d.stats(DriverOp::Eldu).mean_cycles());
    }

    #[test]
    fn ecall_into_destroyed_enclave_fails() {
        let (mut m, t) = small_machine(64);
        let e = m.create_enclave(32 * PAGE_SIZE, 0).unwrap();
        m.destroy_enclave(e);
        assert_eq!(m.ecall_enter(t, e), Err(SgxError::NotInitialized));
    }

    #[test]
    fn content_too_large_rejected() {
        let (mut m, _) = small_machine(64);
        assert_eq!(
            m.create_enclave(PAGE_SIZE, 2 * PAGE_SIZE).err(),
            Some(SgxError::ContentTooLarge)
        );
    }

    #[test]
    fn reset_measurement_keeps_epc_state() {
        let (mut m, t) = small_machine(64);
        let e = m.create_enclave(32 * PAGE_SIZE, 0).unwrap();
        m.ecall_enter(t, e).unwrap();
        let heap = m.alloc_enclave_heap(e, 4 * PAGE_SIZE).unwrap();
        m.access(t, heap, 4 * PAGE_SIZE, AccessKind::Write);
        m.reset_measurement();
        assert_eq!(m.sgx_counters().epc_faults, 0);
        let before = m.sgx_counters().epc_faults;
        m.access(t, heap, 8, AccessKind::Read);
        assert_eq!(
            m.sgx_counters().epc_faults,
            before,
            "page stayed resident across reset"
        );
    }

    #[test]
    fn sgx2_edmm_skips_heap_measurement() {
        let mut cfg = SgxConfig::with_tiny_epc(16, 2);
        cfg.sgx2_edmm = true;
        let mut m = SgxMachine::new(cfg);
        let t = m.add_thread();
        // 64-page enclave, 4 pages of content: only the content streams.
        let e = m.create_enclave(64 * PAGE_SIZE, 4 * PAGE_SIZE).unwrap();
        let init = m.init_stats(e);
        assert_eq!(init.pages_measured, 4);
        assert_eq!(init.evictions, 0, "content fits the EPC");
        // Heap pages still fault in on demand (EAUG + EACCEPT).
        m.ecall_enter(t, e).unwrap();
        let heap = m.alloc_enclave_heap(e, 4 * PAGE_SIZE).unwrap();
        m.access(t, heap, 8, AccessKind::Write);
        assert_eq!(m.sgx_counters().epc_allocs, 4 + 1);
    }

    /// MRENCLAVE of `create_enclave` under the default platform, pinned
    /// to digests of the eager per-page EEXTEND chain it replaced.
    #[test]
    fn measurement_matches_pinned_digests() {
        let golden = [
            (
                64 * PAGE_SIZE,
                16 * PAGE_SIZE,
                false,
                "a37cd960b7521b9e3a4a61f7fc6b558478a59a605a6e2266b835041c0aa0309c",
            ),
            (
                256 << 20,
                28 << 20,
                false,
                "d7ce0e4355b5ef60026e8ed44d9a0d00e893294880949703540bbfdd64ccc518",
            ),
            (
                4 << 30,
                28 << 20,
                true,
                "e9d3ed239722f53b935a816cf390c148b0980ea8cf36e3beabc5bf01bf4917fe",
            ),
        ];
        for (size, content, edmm, digest) in golden {
            assert_measures(size, content, edmm, digest);
        }
    }

    /// The Graphene-default geometry: 1 M pages measured. Cheap in plain
    /// test builds, but the `audit` feature checks the whole EPC after
    /// every eviction batch, which takes minutes at this size.
    #[test]
    #[cfg_attr(feature = "audit", ignore = "minutes of per-eviction EPC audits")]
    fn measurement_of_4gb_sgx1_build_matches_pinned_digest() {
        assert_measures(
            4 << 30,
            28 << 20,
            false,
            "dfc39e8cc64f8be8f57595661d2b213ff68a1b2bc769a9d09c201d764a636911",
        );
    }

    fn assert_measures(size: u64, content: u64, edmm: bool, digest: &str) {
        let mut m = SgxMachine::new(SgxConfig {
            sgx2_edmm: edmm,
            ..SgxConfig::default()
        });
        m.add_thread();
        let e = m.create_enclave(size, content).unwrap();
        let first = m.enclave(e).measurement();
        assert_eq!(
            sgx_crypto::sha256::to_hex(&first),
            digest,
            "size {size} content {content} edmm {edmm}"
        );
        assert_eq!(m.enclave(e).measurement(), first, "cached digest");
    }

    #[test]
    fn sgx1_vs_sgx2_startup_evictions() {
        let build = |edmm: bool| {
            let mut cfg = SgxConfig::with_tiny_epc(64, 4);
            cfg.sgx2_edmm = edmm;
            let mut m = SgxMachine::new(cfg);
            m.add_thread();
            let e = m.create_enclave(1024 * PAGE_SIZE, 8 * PAGE_SIZE).unwrap();
            m.init_stats(e).evictions
        };
        let sgx1 = build(false);
        let sgx2 = build(true);
        assert!(sgx1 > 900, "SGX1 streams the whole ELRANGE: {sgx1}");
        assert_eq!(sgx2, 0, "SGX2 measures only content");
    }

    #[test]
    fn injected_aex_counts_flushes_and_charges() {
        let (mut m, t) = small_machine(8);
        let e = m.create_enclave(4 * PAGE_SIZE, 0).unwrap();
        assert!(!m.inject_aex(t), "no AEX outside an enclave");
        m.ecall_enter(t, e).unwrap();
        let flushes0 = m.mem().counters().tlb_flushes;
        let cycles0 = m.mem().cycles_of(t);
        assert!(m.inject_aex(t));
        assert!(m.inject_aex(t));
        let c = m.sgx_counters();
        assert_eq!(c.injected_aex, 2);
        assert_eq!(c.aex_exits, 2);
        assert_eq!(c.epc_faults, 0, "injection is not a page fault");
        assert_eq!(m.mem().counters().tlb_flushes - flushes0, 2);
        assert!(m.mem().cycles_of(t) > cycles0, "AEX + ERESUME are charged");
        assert!(m.check_invariants().is_ok());
    }

    #[test]
    fn epc_pressure_spike_evicts_and_releases() {
        let (mut m, t) = small_machine(8);
        let e = m.create_enclave(64 * PAGE_SIZE, 0).unwrap();
        m.ecall_enter(t, e).unwrap();
        let heap = m.alloc_enclave_heap(e, 8 * PAGE_SIZE).unwrap();
        for p in 0..8u64 {
            m.access(t, heap + p * PAGE_SIZE, 8, AccessKind::Write);
        }
        let resident0 = m.epc().resident_count();
        let evictions0 = m.sgx_counters().epc_evictions;
        let evicted = m.set_epc_pressure(t, 6);
        assert!(evicted > 0, "shrinking a warm EPC must write back");
        assert_eq!(
            m.sgx_counters().epc_evictions - evictions0,
            evicted as u64,
            "one eviction counted per EWB victim"
        );
        assert!(m.epc().resident_count() <= m.epc().effective_capacity());
        assert!(m.check_invariants().is_ok());
        m.release_epc_pressure();
        assert_eq!(m.epc().effective_capacity(), m.epc().capacity());
        // Touching the victims again loads them back within full capacity.
        for p in 0..8u64 {
            m.access(t, heap + p * PAGE_SIZE, 8, AccessKind::Read);
        }
        assert!(m.epc().resident_count() >= resident0.min(8));
        assert!(m.check_invariants().is_ok());
    }

    #[test]
    fn trace_sink_records_paging_faults_past_the_watermark() {
        let (mut m, t) = small_machine(8);
        let e = m.create_enclave(64 * PAGE_SIZE, 0).unwrap();
        m.ecall_enter(t, e).unwrap();
        let heap = m.alloc_enclave_heap(e, 16 * PAGE_SIZE).unwrap();
        m.mem_mut()
            .set_trace_sink(trace::TraceSink::with_config(1024, 0));
        for p in 0..16u64 {
            m.access(t, heap + p * PAGE_SIZE, 8, AccessKind::Write);
        }
        let sink = m.mem_mut().take_trace_sink().expect("sink was armed");
        assert_eq!(sink.dropped(), 0);
        let faults: Vec<_> = sink
            .records()
            .filter_map(|r| match r.event {
                trace::TraceEvent::EpcFault { resident_pages, .. } => {
                    Some((r.cycles, resident_pages))
                }
                _ => None,
            })
            .collect();
        // The first 8 allocations are demand-zero and below the
        // watermark: no paging, no events. Every traced fault happens at
        // full residency (the 8-frame watermark).
        assert!(!faults.is_empty());
        assert!(faults.len() < 16, "below-watermark allocs are not traced");
        assert!(faults.iter().all(|&(_, resident)| resident == 8));
        assert!(faults.windows(2).all(|w| w[0].0 <= w[1].0));
        assert_eq!(m.sgx_counters().epc_faults, 16);
    }

    #[test]
    fn counter_field_round_trips_and_matches_fields() {
        let mut c = SgxCounters::default();
        for (i, f) in CounterField::ALL.into_iter().enumerate() {
            assert_eq!(CounterField::parse(f.name()), Some(f));
            c.set(f, i as u64 + 1);
            assert_eq!(c.get(f), i as u64 + 1);
        }
        assert_eq!(CounterField::parse("nope"), None);
        let listed: Vec<_> = c.fields().collect();
        assert_eq!(listed.len(), CounterField::ALL.len());
        assert_eq!(listed[0], ("ecalls", 1));
        assert_eq!(listed[11], ("fault_cycles", 12));
    }

    #[test]
    fn disabled_sink_changes_no_cycles() {
        let run = |traced: bool| {
            let (mut m, t) = small_machine(8);
            let e = m.create_enclave(64 * PAGE_SIZE, 0).unwrap();
            m.ecall_enter(t, e).unwrap();
            let heap = m.alloc_enclave_heap(e, 16 * PAGE_SIZE).unwrap();
            if traced {
                m.mem_mut().set_trace_sink(trace::TraceSink::new(256));
            }
            for p in 0..32u64 {
                m.access(t, heap + (p % 16) * PAGE_SIZE, 8, AccessKind::Write);
            }
            m.mem().cycles_of(t)
        };
        assert_eq!(run(false), run(true), "tracing never charges cycles");
    }
}
