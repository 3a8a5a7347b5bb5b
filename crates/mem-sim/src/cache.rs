//! Cache-hierarchy model: per-thread L1 front-ends and a shared,
//! set-associative last-level cache (LLC).
//!
//! Only the LLC is fully timed per the paper's counters ("LLC misses");
//! the L1 exists so that hot lines do not reach the LLC at all, which is
//! what makes LLC-miss counts meaningful for cache-friendly workloads.

use crate::setidx::SetIndex;
use crate::LINE_SHIFT;

/// Outcome of a cache access, naming the level that supplied the line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the per-thread L1.
    L1Hit,
    /// Served from the shared LLC.
    LlcHit,
    /// Missed the entire hierarchy; DRAM supplies the line.
    Miss,
}

/// A direct-mapped per-thread L1 data cache (tag array only).
#[derive(Debug, Clone)]
pub struct L1Cache {
    tags: Vec<u64>,
}

impl L1Cache {
    /// Creates an L1 with `lines` cache lines (rounded up to a power of
    /// two).
    pub fn new(lines: usize) -> Self {
        let n = lines.next_power_of_two().max(1);
        L1Cache {
            tags: vec![u64::MAX; n],
        }
    }

    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the slot is masked to the tag count, so dropped high bits cannot change it"
    )]
    fn slot(&self, line: u64) -> usize {
        (line as usize) & (self.tags.len() - 1)
    }

    /// Probes and fills in one step; returns `true` on hit.
    #[inline]
    pub fn access(&mut self, line: u64) -> bool {
        let s = self.slot(line);
        if self.tags[s] == line {
            true
        } else {
            self.tags[s] = line;
            false
        }
    }

    /// Invalidates every line (used when modeling cache pollution on
    /// enclave transitions is desired).
    pub fn flush(&mut self) {
        self.tags.fill(u64::MAX);
    }
}

impl Default for L1Cache {
    /// 32 KiB of 64-byte lines (512 lines), the usual L1D size.
    fn default() -> Self {
        L1Cache::new(512)
    }
}

/// The shared set-associative last-level cache.
///
/// Defaults model the 12 MB, 16-way LLC of the paper's Xeon E-2186G
/// (Table 3).
///
/// ```
/// use mem_sim::cache::Llc;
/// let mut llc = Llc::default();
/// assert!(!llc.access(0));  // cold miss
/// assert!(llc.access(0));   // now resident
/// ```
#[derive(Debug, Clone)]
pub struct Llc {
    tags: Vec<u64>,
    /// LRU stamps; u64 so the clock cannot wrap within a run (a u32
    /// clock wraps after 2^32 accesses — the run lengths the batched
    /// access path sustains — making ancient lines look freshly used).
    stamps: Vec<u64>,
    /// Division-free `line -> set` mapping, exact against `%` (the
    /// default 12 MB geometry has 12288 sets, which is not a power of
    /// two, so this is the multiply-high reciprocal path).
    set_index: SetIndex,
    ways: usize,
    clock: u64,
}

impl Llc {
    /// Creates an LLC with capacity `bytes`, associativity `ways` and
    /// 64-byte lines.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` does not describe at least one full set.
    pub fn new(bytes: usize, ways: usize) -> Self {
        let lines = bytes >> LINE_SHIFT;
        assert!(ways > 0 && lines >= ways, "LLC must hold at least one set");
        let sets = lines / ways;
        Llc {
            tags: vec![u64::MAX; sets * ways],
            stamps: vec![0; sets * ways],
            set_index: SetIndex::new(sets),
            ways,
            clock: 0,
        }
    }

    #[inline]
    fn set_of(&self, line: u64) -> usize {
        self.set_index.index(line)
    }

    /// Probes for `line`, filling it on a miss; returns `true` on hit.
    ///
    /// The hit scan runs first as a bare equality walk — most probes
    /// hit, and keeping victim bookkeeping out of that path lets it
    /// vectorize. The miss path then picks the victim exactly as the
    /// old combined scan did: the *last* invalid way if any exists,
    /// else the smallest stamp.
    #[inline]
    pub fn access(&mut self, line: u64) -> bool {
        let base = self.set_of(line) * self.ways;
        self.clock += 1;
        let clock = self.clock;
        let tags = &mut self.tags[base..base + self.ways];
        if let Some(w) = tags.iter().position(|&t| t == line) {
            self.stamps[base + w] = clock;
            return true;
        }
        let stamps = &mut self.stamps[base..base + self.ways];
        let mut victim = 0;
        let mut victim_stamp = u64::MAX;
        let mut have_invalid = false;
        for w in 0..tags.len() {
            if tags[w] == u64::MAX {
                // Prefer an invalid way over evicting a live line.
                victim = w;
                have_invalid = true;
            } else if !have_invalid && stamps[w] < victim_stamp {
                victim = w;
                victim_stamp = stamps[w];
            }
        }
        tags[victim] = line;
        stamps[victim] = clock;
        false
    }

    /// Reports residency without touching replacement state.
    pub fn contains(&self, line: u64) -> bool {
        let set = self.set_of(line);
        let base = set * self.ways;
        self.tags[base..base + self.ways].contains(&line)
    }

    /// Number of sets (exposed for tests and sizing diagnostics).
    pub fn sets(&self) -> usize {
        self.set_index.sets()
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }
}

impl Default for Llc {
    fn default() -> Self {
        Llc::new(12 << 20, 16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l1_direct_mapped_conflicts() {
        let mut l1 = L1Cache::new(2);
        assert!(!l1.access(0));
        assert!(l1.access(0));
        assert!(!l1.access(2)); // same slot as 0
        assert!(!l1.access(0)); // evicted by 2
    }

    #[test]
    fn llc_lru_within_set() {
        // 2 sets x 2 ways, 64B lines => 256 bytes.
        let mut llc = Llc::new(256, 2);
        assert_eq!(llc.sets(), 2);
        // Lines 0,2,4 all land in set 0.
        llc.access(0);
        llc.access(2);
        llc.access(0); // refresh 0
        llc.access(4); // evict 2 (LRU)
        assert!(llc.contains(0));
        assert!(!llc.contains(2));
        assert!(llc.contains(4));
    }

    #[test]
    fn llc_hit_after_fill() {
        let mut llc = Llc::default();
        assert!(!llc.access(1234));
        assert!(llc.access(1234));
    }

    #[test]
    fn default_llc_geometry_matches_xeon() {
        let llc = Llc::default();
        assert_eq!(llc.ways(), 16);
        assert_eq!(llc.sets() * llc.ways() * 64, 12 << 20);
    }

    #[test]
    fn llc_lru_survives_beyond_u32_clock() {
        // Companion to the TLB clock-width fix: stamps crossing the old
        // u32 wrap point must still compare in true age order.
        let mut llc = Llc::new(256, 2);
        llc.clock = u64::from(u32::MAX) - 1;
        llc.access(0);
        llc.access(2);
        llc.access(0); // refresh 0; 2 is LRU with a pre-wrap stamp
        llc.access(4); // must evict 2
        assert!(llc.contains(0));
        assert!(!llc.contains(2));
        assert!(llc.contains(4));
    }

    #[test]
    fn power_of_two_llc_uses_mask_indexing() {
        let llc = Llc::new(1 << 20, 16); // 1024 sets -> mask path
        assert!(llc.set_index.uses_mask());
        for line in (0..10_000u64).chain([u64::MAX - 5, u64::MAX]) {
            assert_eq!(llc.set_of(line), (line % llc.sets() as u64) as usize);
        }
        // Default geometry (12288 sets) takes the reciprocal path and
        // must still agree with division exactly.
        let llc = Llc::default();
        assert!(!llc.set_index.uses_mask());
        for line in (0..100_000u64).chain([u64::MAX - 5, u64::MAX, 1 << 58]) {
            assert_eq!(llc.set_of(line), (line % llc.sets() as u64) as usize);
        }
    }

    #[test]
    fn working_set_larger_than_llc_thrashes() {
        let mut llc = Llc::new(1 << 10, 4); // 1 KiB: 16 lines
        for line in 0..64 {
            llc.access(line);
        }
        // Re-touch the first lines: all must miss again.
        let mut misses = 0;
        for line in 0..16 {
            if !llc.access(line) {
                misses += 1;
            }
        }
        assert_eq!(misses, 16);
    }
}
