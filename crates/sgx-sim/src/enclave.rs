//! Enclave objects: identity, address range, measurement, heap.
//!
//! An enclave occupies a contiguous virtual range (the ELRANGE). Before
//! EINIT the loader EADDs each content page and extends the measurement
//! (EEXTEND); the hardware then compares the result with the author's
//! signed value (paper §2.1). The enclave-size property — not the content
//! size — determines how many pages stream through the EPC at build time,
//! which is what makes GrapheneSGX's 4 GB enclaves cost ≈1 M evictions at
//! startup (Appendix D).
//!
//! The simulated cost of every EEXTEND is charged by the loader
//! ([`crate::SgxMachine::create_enclave`]) page by page. The digest
//! itself is a pure function of the ECREATE seed and the number of
//! measured pages, so the enclave records only those two and folds the
//! EEXTEND chain on the first [`Enclave::measurement`] read (attestation
//! is its only consumer); later reads return the cached value.

use mem_sim::{PAGE_SHIFT, PAGE_SIZE};
use sgx_crypto::Sha256;
use std::sync::OnceLock;

/// Identifier of an enclave, dense from zero per [`crate::SgxMachine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EnclaveId(pub usize);

/// Lifecycle state of an enclave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnclaveState {
    /// Created (ECREATE) but not yet initialized.
    Building,
    /// Measurement complete and EINIT executed; ECALLs are allowed.
    Initialized,
    /// Torn down; its EPC pages have been EREMOVEd.
    Destroyed,
}

/// A loaded enclave.
#[derive(Debug, Clone)]
pub struct Enclave {
    id: EnclaveId,
    base: u64,
    size: u64,
    content_bytes: u64,
    state: EnclaveState,
    /// MRENCLAVE after ECREATE, before any EEXTEND.
    seed: [u8; 32],
    /// Pages the loader EEXTENDed, fixed at EINIT.
    measured_pages: u64,
    /// `seed` extended over `0..measured_pages`, folded on first read.
    mrenclave: OnceLock<[u8; 32]>,
    heap_next: u64,
}

/// One EEXTEND: the measurement after extending `m` with `page`.
fn eextend(m: [u8; 32], page: u64) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(&m);
    h.update(&page.to_le_bytes());
    h.finalize()
}

impl Enclave {
    /// Creates the enclave object (ECREATE). `base` and `size` define the
    /// ELRANGE; `content_bytes` is the measured binary image (code +
    /// initial data), the rest of the range is heap/stack.
    ///
    /// # Panics
    ///
    /// Panics if `content_bytes > size` or the range is not page-aligned.
    pub fn create(id: EnclaveId, base: u64, size: u64, content_bytes: u64) -> Self {
        assert!(
            base.is_multiple_of(PAGE_SIZE) && size.is_multiple_of(PAGE_SIZE),
            "ELRANGE must be page aligned"
        );
        assert!(
            content_bytes <= size,
            "content cannot exceed the enclave size"
        );
        // MRENCLAVE starts from the ECREATE attributes (size, SSA layout,
        // ...); seed it with the geometry so differently-built enclaves
        // measure differently while identical binaries measure alike.
        let mut h = Sha256::new();
        h.update(b"ECREATE");
        h.update(&size.to_le_bytes());
        h.update(&content_bytes.to_le_bytes());
        Enclave {
            id,
            base,
            size,
            content_bytes,
            state: EnclaveState::Building,
            seed: h.finalize(),
            measured_pages: 0,
            mrenclave: OnceLock::new(),
            heap_next: base + content_bytes.next_multiple_of(PAGE_SIZE),
        }
    }

    /// The enclave id.
    pub fn id(&self) -> EnclaveId {
        self.id
    }

    /// Base virtual address of the ELRANGE.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Size of the ELRANGE in bytes (the "enclave size" property).
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Bytes of measured content (binary image).
    pub fn content_bytes(&self) -> u64 {
        self.content_bytes
    }

    /// Total pages in the ELRANGE.
    pub fn total_pages(&self) -> u64 {
        self.size >> PAGE_SHIFT
    }

    /// First virtual page number of the ELRANGE.
    pub fn first_page(&self) -> u64 {
        self.base >> PAGE_SHIFT
    }

    /// Whether `vaddr` falls inside the ELRANGE.
    pub fn contains(&self, vaddr: u64) -> bool {
        vaddr >= self.base && vaddr < self.base + self.size
    }

    /// Current lifecycle state.
    pub fn state(&self) -> EnclaveState {
        self.state
    }

    /// The measurement (MRENCLAVE analogue): the ECREATE seed extended
    /// with every page measured before EINIT. Folded on the first call
    /// and cached.
    pub fn measurement(&self) -> [u8; 32] {
        *self
            .mrenclave
            .get_or_init(|| (0..self.measured_pages).fold(self.seed, eextend))
    }

    /// Start of the heap region (just after the measured content).
    pub fn heap_base(&self) -> u64 {
        self.base + self.content_bytes.next_multiple_of(PAGE_SIZE)
    }

    /// Bump-allocates `bytes` of enclave heap, page-aligned, returning the
    /// base address.
    ///
    /// # Errors
    ///
    /// Returns `None` when the ELRANGE has no room left — the situation
    /// SGX v1 forbade and that forces Graphene to pick 4 GB enclaves.
    pub fn alloc_heap(&mut self, bytes: u64) -> Option<u64> {
        let aligned = bytes.next_multiple_of(PAGE_SIZE);
        if self.heap_next + aligned > self.base + self.size {
            return None;
        }
        let addr = self.heap_next;
        self.heap_next += aligned;
        Some(addr)
    }

    /// Remaining heap bytes.
    pub fn heap_remaining(&self) -> u64 {
        self.base + self.size - self.heap_next
    }

    /// Marks the enclave initialized (EINIT) after the loader EEXTENDed
    /// pages `0..measured_pages`.
    ///
    /// # Panics
    ///
    /// Panics if the enclave is not in the building state.
    pub(crate) fn initialize(&mut self, measured_pages: u64) {
        assert_eq!(
            self.state,
            EnclaveState::Building,
            "EINIT on non-building enclave"
        );
        self.measured_pages = measured_pages;
        // Drop a digest read while building: it predates the EEXTENDs.
        self.mrenclave = OnceLock::new();
        self.state = EnclaveState::Initialized;
    }

    /// Marks the enclave destroyed.
    pub(crate) fn destroy(&mut self) {
        self.state = EnclaveState::Destroyed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry() {
        let e = Enclave::create(EnclaveId(0), 0x1000_0000, 64 * PAGE_SIZE, 16 * PAGE_SIZE);
        assert_eq!(e.total_pages(), 64);
        assert_eq!(e.first_page(), 0x1000_0000 >> PAGE_SHIFT);
        assert!(e.contains(0x1000_0000));
        assert!(e.contains(0x1000_0000 + 64 * PAGE_SIZE - 1));
        assert!(!e.contains(0x1000_0000 + 64 * PAGE_SIZE));
        assert_eq!(e.heap_base(), 0x1000_0000 + 16 * PAGE_SIZE);
    }

    #[test]
    fn heap_allocation_bumps_and_exhausts() {
        let mut e = Enclave::create(EnclaveId(0), 0, 8 * PAGE_SIZE, 2 * PAGE_SIZE);
        let a = e.alloc_heap(PAGE_SIZE).unwrap();
        let b = e.alloc_heap(1).unwrap(); // rounds to a page
        assert_eq!(a, 2 * PAGE_SIZE);
        assert_eq!(b, 3 * PAGE_SIZE);
        assert_eq!(e.heap_remaining(), 4 * PAGE_SIZE);
        assert!(e.alloc_heap(5 * PAGE_SIZE).is_none());
        assert!(e.alloc_heap(4 * PAGE_SIZE).is_some());
        assert_eq!(e.heap_remaining(), 0);
    }

    #[test]
    fn measurement_changes_per_page() {
        let e = Enclave::create(EnclaveId(0), 0, 4 * PAGE_SIZE, 4 * PAGE_SIZE);
        let m0 = e.measurement();
        let m1 = eextend(m0, 0);
        let m2 = eextend(m1, 1);
        assert_ne!(m0, m1);
        assert_ne!(m1, m2);
    }

    #[test]
    fn measurement_is_order_sensitive() {
        let seed = Enclave::create(EnclaveId(0), 0, 4 * PAGE_SIZE, 4 * PAGE_SIZE).measurement();
        let a = eextend(eextend(seed, 0), 1);
        let b = eextend(eextend(seed, 1), 0);
        assert_ne!(a, b);
    }

    #[test]
    fn measurement_folds_the_pages_measured_at_einit() {
        let mut e = Enclave::create(EnclaveId(0), 0, 4 * PAGE_SIZE, 4 * PAGE_SIZE);
        let seed = e.measurement();
        e.initialize(2);
        let folded = eextend(eextend(seed, 0), 1);
        assert_eq!(e.measurement(), folded, "a pre-EINIT read must not stick");
        assert_eq!(e.clone().measurement(), folded);
    }

    #[test]
    fn measurement_distinguishes_neighbouring_sizes() {
        let m = |pages: u64| {
            let mut e = Enclave::create(EnclaveId(0), 0, pages * PAGE_SIZE, 0);
            let seed = e.measurement();
            e.initialize(pages);
            assert_eq!(e.measurement(), (0..pages).fold(seed, eextend));
            e.measurement()
        };
        let (a, b, c) = (m(63), m(64), m(65));
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic]
    fn misaligned_base_rejected() {
        let _ = Enclave::create(EnclaveId(0), 123, PAGE_SIZE, 0);
    }

    #[test]
    #[should_panic]
    fn oversized_content_rejected() {
        let _ = Enclave::create(EnclaveId(0), 0, PAGE_SIZE, 2 * PAGE_SIZE);
    }
}
