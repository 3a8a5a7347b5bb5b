//! Exact set-index computation without hardware division.
//!
//! Every set-associative structure in the model (LLC, both TLB levels)
//! maps a line or page number to a set with `n % sets`. The set count is
//! fixed at construction, so the hot path can replace the ~30-cycle
//! 64-bit `div` with either a mask (power-of-two set counts) or a
//! Granlund–Montgomery multiply-high reciprocal plus one conditional
//! correction (~5 cycles) — in both cases computing *exactly* `n % sets`
//! for every `u64`, so replacement behavior is bit-identical to the
//! division it replaces.
//!
//! Reciprocal correctness: let `d >= 2` be a non-power-of-two divisor
//! and `M = floor(2^64 / d)`, so `2^64 = M*d + e` with `0 < e < d`.
//! For any `n < 2^64`,
//!
//! ```text
//! q̂ = floor(n*M / 2^64) = floor(n/d - n*e / (d*2^64))
//! ```
//!
//! and since `n*e / (d*2^64) < n/2^64 < 1`, `q̂` is `floor(n/d)` or one
//! less. Hence `r̂ = n - q̂*d` is the true remainder or the remainder
//! plus `d`, fixed by a single conditional subtraction. The property
//! test below checks the full agreement with `%` over adversarial and
//! random inputs.

/// Precomputed strategy for `n % sets` with a construction-time divisor.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SetIndex {
    /// The divisor (number of sets).
    sets: u64,
    /// `sets - 1` when `sets` is a power of two, else `u64::MAX` as a
    /// "use the reciprocal" sentinel (set counts never get that large).
    mask: u64,
    /// `floor(2^64 / sets)` for the reciprocal path; unused under mask.
    magic: u64,
}

impl SetIndex {
    /// Builds the index function for `sets >= 1` sets.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "sets is not a power of two here, so 2^64 / sets < 2^64"
    )]
    pub(crate) fn new(sets: usize) -> Self {
        let d = sets as u64;
        assert!(d >= 1, "at least one set required");
        if d.is_power_of_two() {
            SetIndex {
                sets: d,
                mask: d - 1,
                magic: 0,
            }
        } else {
            SetIndex {
                sets: d,
                mask: u64::MAX,
                magic: ((1u128 << 64) / d as u128) as u64,
            }
        }
    }

    /// Exactly `n % sets`, division-free.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the result is below sets, which was built from a usize"
    )]
    pub(crate) fn index(&self, n: u64) -> usize {
        if self.mask != u64::MAX {
            (n & self.mask) as usize
        } else {
            let q = ((n as u128 * self.magic as u128) >> 64) as u64;
            let r = n - q * self.sets;
            let r = if r >= self.sets { r - self.sets } else { r };
            r as usize
        }
    }

    /// The divisor this index reduces by.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "sets was built from a usize"
    )]
    pub(crate) fn sets(&self) -> usize {
        self.sets as usize
    }

    /// Whether the power-of-two mask path is active (for tests).
    #[cfg(test)]
    pub(crate) fn uses_mask(&self) -> bool {
        self.mask != u64::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(sets: usize, n: u64) {
        let idx = SetIndex::new(sets);
        assert_eq!(
            idx.index(n),
            (n % sets as u64) as usize,
            "sets={sets} n={n}"
        );
    }

    #[test]
    fn agrees_with_division_on_edge_values() {
        for sets in [1usize, 2, 3, 5, 6, 7, 12, 16, 1024, 12288, 999_983] {
            for n in [
                0u64,
                1,
                2,
                sets as u64 - 1,
                sets as u64,
                sets as u64 + 1,
                u64::MAX - 1,
                u64::MAX,
                1 << 63,
                (1 << 63) - 1,
            ] {
                check(sets, n);
            }
        }
    }

    #[test]
    fn agrees_with_division_on_lcg_sweep() {
        let mut state = 0x1234_5678_9abc_def0u64;
        for sets in [3usize, 12288, 100, 48, 65_535] {
            for _ in 0..10_000 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                check(sets, state);
            }
        }
    }

    #[test]
    fn default_geometries_pick_expected_paths() {
        assert!(SetIndex::new(16).uses_mask()); // L1 dTLB
        assert!(SetIndex::new(128).uses_mask()); // STLB
        assert!(!SetIndex::new(12288).uses_mask()); // 12 MB / 16-way LLC
        assert_eq!(SetIndex::new(12288).sets(), 12288);
    }
}
