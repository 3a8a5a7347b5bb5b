//! Dense per-enclave page directories for the EPC hot path.
//!
//! [`crate::Epc`] used to key its residency map and evicted-page set on
//! [`crate::PageKey`] through `std` hash maps, paying a full SipHash per
//! [`crate::Epc::touch`] — once per simulated enclave access, the hottest
//! probe in the whole simulator. Enclave page numbers are anything but
//! adversarial: each enclave's pages cluster densely above its base
//! address, and enclave ids are dense small integers. Both structures
//! here exploit that shape: an enclave id indexes a vector of
//! directories, and a directory is a contiguous run of 512-page chunks
//! (2 MiB regions, the same granule the walk cache and OS page table
//! use), so a lookup is two bounds-checked array indexes and zero
//! hashing.
//!
//! Directories grow at either end on demand; pages far from the
//! enclave's cluster cost one `None` chunk slot per intervening 2 MiB
//! region, which is negligible for the bounded working sets the suite
//! simulates.

use crate::enclave::EnclaveId;
use crate::epc::PageKey;

/// Pages per directory chunk (one 2 MiB region).
const CHUNK_PAGES: u64 = 512;

/// Sentinel marking an empty slot in a [`FrameIndex`] chunk.
const EMPTY: u32 = u32::MAX;

/// One enclave's page-to-value run: chunks `base..base + chunks.len()`.
#[derive(Debug, Clone)]
struct Dir<C> {
    /// First chunk number covered by `chunks[0]`.
    base: u64,
    /// Lazily-allocated chunks; `None` = nothing in that 2 MiB region.
    chunks: Vec<Option<C>>,
    /// Live entries owned by this enclave.
    used: usize,
}

impl<C> Dir<C> {
    fn new(base: u64) -> Self {
        Dir {
            base,
            chunks: Vec::new(),
            used: 0,
        }
    }

    /// Index of `chunk` within `chunks`, growing the run to cover it.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "usize is 64 bits on every supported host, so a u64 chunk offset fits"
    )]
    fn slot_for(&mut self, chunk: u64) -> usize {
        if self.chunks.is_empty() {
            self.base = chunk;
        } else if chunk < self.base {
            let grow = (self.base - chunk) as usize;
            self.chunks
                .splice(0..0, std::iter::repeat_with(|| None).take(grow));
            self.base = chunk;
        }
        let ci = (chunk - self.base) as usize;
        if ci >= self.chunks.len() {
            self.chunks.resize_with(ci + 1, || None);
        }
        ci
    }

    /// Index of `chunk` if the run covers it.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "usize is 64 bits on every supported host, so a u64 chunk offset fits"
    )]
    fn slot_of(&self, chunk: u64) -> Option<usize> {
        if chunk < self.base {
            return None;
        }
        let ci = (chunk - self.base) as usize;
        if ci < self.chunks.len() {
            Some(ci)
        } else {
            None
        }
    }
}

/// Helper: vector of per-enclave directories, grown on demand.
fn dir_mut<C>(dirs: &mut Vec<Option<Dir<C>>>, enclave: EnclaveId) -> &mut Dir<C> {
    let e = enclave.0;
    if e >= dirs.len() {
        dirs.resize_with(e + 1, || None);
    }
    dirs[e].get_or_insert_with(|| Dir::new(0))
}

/// A `PageKey -> u32` map (page to EPC frame index) with no hashing.
///
/// Replaces the old `HashMap<PageKey, usize>` residency map; the frame
/// index fits `u32` because EPC capacities are tens of thousands of
/// frames ([`crate::Epc::new`] asserts it).
#[derive(Debug, Clone, Default)]
pub(crate) struct FrameIndex {
    dirs: Vec<Option<Dir<Box<[u32; 512]>>>>,
    len: usize,
}

impl FrameIndex {
    /// Value stored for `key`, if any.
    #[inline]
    pub(crate) fn get(&self, key: PageKey) -> Option<u32> {
        let dir = match self.dirs.get(key.enclave.0) {
            Some(Some(d)) => d,
            _ => return None,
        };
        let ci = dir.slot_of(key.page / CHUNK_PAGES)?;
        let chunk = dir.chunks[ci].as_ref()?;
        let v = chunk[(key.page % CHUNK_PAGES) as usize];
        if v == EMPTY {
            None
        } else {
            Some(v)
        }
    }

    /// Inserts or overwrites `key -> value`.
    ///
    /// # Panics
    ///
    /// Panics if `value` is `u32::MAX` (reserved as the empty sentinel).
    pub(crate) fn insert(&mut self, key: PageKey, value: u32) {
        assert!(value != EMPTY, "u32::MAX is reserved");
        let dir = dir_mut(&mut self.dirs, key.enclave);
        let ci = dir.slot_for(key.page / CHUNK_PAGES);
        let chunk = dir.chunks[ci].get_or_insert_with(|| Box::new([EMPTY; 512]));
        let slot = &mut chunk[(key.page % CHUNK_PAGES) as usize];
        if *slot == EMPTY {
            dir.used += 1;
            self.len += 1;
        }
        *slot = value;
    }

    /// Removes `key`, returning its value if it was present.
    pub(crate) fn remove(&mut self, key: PageKey) -> Option<u32> {
        let dir = match self.dirs.get_mut(key.enclave.0) {
            Some(Some(d)) => d,
            _ => return None,
        };
        let ci = dir.slot_of(key.page / CHUNK_PAGES)?;
        let chunk = dir.chunks[ci].as_mut()?;
        let slot = &mut chunk[(key.page % CHUNK_PAGES) as usize];
        if *slot == EMPTY {
            None
        } else {
            let v = *slot;
            *slot = EMPTY;
            dir.used -= 1;
            self.len -= 1;
            Some(v)
        }
    }

    /// Number of live entries.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Drops every entry owned by `enclave`.
    pub(crate) fn remove_enclave(&mut self, enclave: EnclaveId) {
        if let Some(slot) = self.dirs.get_mut(enclave.0) {
            if let Some(dir) = slot.take() {
                self.len -= dir.used;
            }
        }
    }
}

/// A `PageKey` set (one presence bit per page) with no hashing.
///
/// Replaces the old `HashMap<PageKey, ()>` evicted-page set.
#[derive(Debug, Clone, Default)]
pub(crate) struct PageSet {
    dirs: Vec<Option<Dir<Box<[u64; 8]>>>>,
    len: usize,
}

impl PageSet {
    #[inline]
    fn bit_of(page: u64) -> (usize, u64) {
        let offset = page % CHUNK_PAGES;
        ((offset >> 6) as usize, 1u64 << (offset & 63))
    }

    /// Whether `key` is in the set.
    #[inline]
    pub(crate) fn contains(&self, key: PageKey) -> bool {
        let dir = match self.dirs.get(key.enclave.0) {
            Some(Some(d)) => d,
            _ => return false,
        };
        match dir.slot_of(key.page / CHUNK_PAGES) {
            Some(ci) => match dir.chunks[ci].as_ref() {
                Some(chunk) => {
                    let (word, mask) = Self::bit_of(key.page);
                    chunk[word] & mask != 0
                }
                None => false,
            },
            None => false,
        }
    }

    /// Adds `key`; returns `true` if it was newly inserted.
    pub(crate) fn insert(&mut self, key: PageKey) -> bool {
        let dir = dir_mut(&mut self.dirs, key.enclave);
        let ci = dir.slot_for(key.page / CHUNK_PAGES);
        let chunk = dir.chunks[ci].get_or_insert_with(|| Box::new([0; 8]));
        let (word, mask) = Self::bit_of(key.page);
        if chunk[word] & mask != 0 {
            false
        } else {
            chunk[word] |= mask;
            dir.used += 1;
            self.len += 1;
            true
        }
    }

    /// Removes `key`; returns `true` if it was present.
    pub(crate) fn remove(&mut self, key: PageKey) -> bool {
        let dir = match self.dirs.get_mut(key.enclave.0) {
            Some(Some(d)) => d,
            _ => return false,
        };
        let ci = match dir.slot_of(key.page / CHUNK_PAGES) {
            Some(ci) => ci,
            None => return false,
        };
        let chunk = match dir.chunks[ci].as_mut() {
            Some(c) => c,
            None => return false,
        };
        let (word, mask) = Self::bit_of(key.page);
        if chunk[word] & mask != 0 {
            chunk[word] &= !mask;
            dir.used -= 1;
            self.len -= 1;
            true
        } else {
            false
        }
    }

    /// Number of pages in the set.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Drops every page owned by `enclave`.
    pub(crate) fn remove_enclave(&mut self, enclave: EnclaveId) {
        if let Some(slot) = self.dirs.get_mut(enclave.0) {
            if let Some(dir) = slot.take() {
                self.len -= dir.used;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(e: usize, p: u64) -> PageKey {
        PageKey {
            enclave: EnclaveId(e),
            page: p,
        }
    }

    #[test]
    fn frame_index_roundtrip() {
        let mut fi = FrameIndex::default();
        // Pages clustered near the enclave base plus a distant straggler,
        // across two enclaves.
        let base = 0x7000_0000_0000u64 >> 12;
        let pages = [base, base + 1, base + 511, base + 512, base - 3, 7];
        for (i, &p) in pages.iter().enumerate() {
            fi.insert(key(0, p), i as u32);
            fi.insert(key(1, p), (100 + i) as u32);
        }
        assert_eq!(fi.len(), pages.len() * 2);
        for (i, &p) in pages.iter().enumerate() {
            assert_eq!(fi.get(key(0, p)), Some(i as u32));
            assert_eq!(fi.get(key(1, p)), Some((100 + i) as u32));
        }
        assert_eq!(fi.get(key(0, base + 2)), None);
        assert_eq!(fi.get(key(2, base)), None);
        // Overwrite does not double-count.
        fi.insert(key(0, base), 42);
        assert_eq!(fi.get(key(0, base)), Some(42));
        assert_eq!(fi.len(), pages.len() * 2);
        // Remove.
        assert_eq!(fi.remove(key(0, base)), Some(42));
        assert_eq!(fi.remove(key(0, base)), None);
        assert_eq!(fi.get(key(0, base)), None);
        assert_eq!(fi.len(), pages.len() * 2 - 1);
    }

    #[test]
    fn frame_index_remove_enclave_only_hits_that_enclave() {
        let mut fi = FrameIndex::default();
        fi.insert(key(0, 10), 1);
        fi.insert(key(1, 10), 2);
        fi.remove_enclave(EnclaveId(0));
        assert_eq!(fi.get(key(0, 10)), None);
        assert_eq!(fi.get(key(1, 10)), Some(2));
        assert_eq!(fi.len(), 1);
        // Removing an enclave that never had pages is a no-op.
        fi.remove_enclave(EnclaveId(9));
        assert_eq!(fi.len(), 1);
    }

    #[test]
    fn page_set_roundtrip() {
        let mut ps = PageSet::default();
        let base = 0x7000_0000_0000u64 >> 12;
        assert!(ps.insert(key(0, base)));
        assert!(!ps.insert(key(0, base)), "double insert reports false");
        assert!(ps.insert(key(0, base + 513)));
        assert!(ps.insert(key(3, base)));
        assert_eq!(ps.len(), 3);
        assert!(ps.contains(key(0, base)));
        assert!(!ps.contains(key(0, base + 1)));
        assert!(ps.remove(key(0, base)));
        assert!(!ps.remove(key(0, base)));
        assert_eq!(ps.len(), 2);
        ps.remove_enclave(EnclaveId(0));
        assert_eq!(ps.len(), 1);
        assert!(ps.contains(key(3, base)));
    }

    #[test]
    fn dir_grows_downward_without_losing_entries() {
        let mut fi = FrameIndex::default();
        fi.insert(key(0, 5_000), 1);
        fi.insert(key(0, 100), 2); // forces a front splice
        fi.insert(key(0, 2_500), 3);
        assert_eq!(fi.get(key(0, 5_000)), Some(1));
        assert_eq!(fi.get(key(0, 100)), Some(2));
        assert_eq!(fi.get(key(0, 2_500)), Some(3));
        assert_eq!(fi.len(), 3);
    }
}
