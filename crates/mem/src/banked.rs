//! Address-level bank-conflict engine.

/// Configuration of a banked scratchpad.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankedConfig {
    /// Number of banks.
    pub banks: u32,
    /// Bank word width in bytes (4 on NVIDIA GPUs).
    pub bank_width: u32,
    /// Total capacity in bytes (capacity is bookkeeping only; conflicts
    /// depend purely on addresses).
    pub capacity: u32,
}

impl BankedConfig {
    /// Volta shared memory: 32 banks × 4 B, up to 96 KiB per SM (Tbl. I).
    #[must_use]
    pub const fn volta_shared() -> Self {
        BankedConfig {
            banks: 32,
            bank_width: 4,
            capacity: 96 * 1024,
        }
    }

    /// The 8-bank slice Table I dedicates to the SMA units' `A` feeds
    /// ("32 banks (8 for all SMA units)").
    #[must_use]
    pub const fn sma_a_feed_slice() -> Self {
        BankedConfig {
            banks: 8,
            bank_width: 4,
            capacity: 24 * 1024,
        }
    }

    /// Bank index serving a byte address.
    #[must_use]
    pub(crate) const fn bank_of(&self, addr: u64) -> u32 {
        ((addr / self.bank_width as u64) % self.banks as u64) as u32
    }

    /// Word index within the bank (two lanes touching the same word
    /// broadcast rather than conflict).
    #[must_use]
    pub(crate) const fn word_of(&self, addr: u64) -> u64 {
        addr / self.bank_width as u64
    }
}

/// Result of presenting one warp-wide access to the banked memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankAccess {
    /// Serialised cycles needed (1 = conflict-free).
    pub cycles: u32,
    /// Accesses beyond the first per worst-case bank (cycles - 1).
    pub extra_conflict_cycles: u32,
    /// Distinct bank words actually read (after broadcast merging).
    pub unique_words: u32,
}

/// A banked scratchpad that counts conflicts from real addresses.
///
/// The model implements NVIDIA's documented semantics: lanes that touch the
/// *same word* of a bank broadcast (no conflict); lanes that touch
/// *different words* of the same bank serialise. The cost of a warp access
/// is the maximum number of distinct words requested from any single bank.
#[derive(Debug, Clone)]
pub struct BankedMemory {
    config: BankedConfig,
    // Scratch reused between calls to avoid per-access allocation.
    words_per_bank: Vec<Vec<u64>>,
    total_accesses: u64,
    total_cycles: u64,
    total_conflict_cycles: u64,
}

impl BankedMemory {
    /// Creates a banked memory with the given configuration.
    #[must_use]
    pub fn new(config: BankedConfig) -> Self {
        BankedMemory {
            config,
            words_per_bank: vec![Vec::new(); config.banks as usize],
            total_accesses: 0,
            total_cycles: 0,
            total_conflict_cycles: 0,
        }
    }

    /// Presents one warp-wide access (any number of lane addresses) and
    /// returns its serialisation cost. Statistics accumulate.
    pub fn access(&mut self, lane_addresses: &[u64]) -> BankAccess {
        for bucket in &mut self.words_per_bank {
            bucket.clear();
        }
        for &addr in lane_addresses {
            let bank = self.config.bank_of(addr) as usize;
            let word = self.config.word_of(addr);
            if !self.words_per_bank[bank].contains(&word) {
                self.words_per_bank[bank].push(word);
            }
        }
        let worst = self
            .words_per_bank
            .iter()
            .map(|w| w.len() as u32)
            .max()
            .unwrap_or(0)
            .max(if lane_addresses.is_empty() { 0 } else { 1 });
        let unique: u32 = self.words_per_bank.iter().map(|w| w.len() as u32).sum();
        let cycles = worst.max(1);
        self.total_accesses += 1;
        self.total_cycles += u64::from(cycles);
        self.total_conflict_cycles += u64::from(cycles - 1);
        BankAccess {
            cycles,
            extra_conflict_cycles: cycles - 1,
            unique_words: unique,
        }
    }

    /// Number of warp accesses presented so far.
    #[must_use]
    pub const fn accesses(&self) -> u64 {
        self.total_accesses
    }

    /// Cycles lost to conflicts (total - one per access).
    #[must_use]
    pub const fn conflict_cycles(&self) -> u64 {
        self.total_conflict_cycles
    }

    /// Average serialisation factor (1.0 = conflict-free).
    #[must_use]
    pub fn serialisation_factor(&self) -> f64 {
        if self.total_accesses == 0 {
            1.0
        } else {
            self.total_cycles as f64 / self.total_accesses as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared() -> BankedMemory {
        BankedMemory::new(BankedConfig::volta_shared())
    }

    #[test]
    fn unit_stride_is_conflict_free() {
        let mut m = shared();
        let addrs: Vec<u64> = (0..32).map(|i| i * 4).collect();
        let r = m.access(&addrs);
        assert_eq!(r.cycles, 1);
        assert_eq!(r.extra_conflict_cycles, 0);
        assert_eq!(r.unique_words, 32);
    }

    #[test]
    fn power_of_two_stride_conflicts() {
        let mut m = shared();
        // Stride 2 words: even banks get 2 lanes each -> 2-way conflict.
        let addrs: Vec<u64> = (0..32).map(|i| i * 8).collect();
        assert_eq!(m.access(&addrs).cycles, 2);
        // Stride 32 words: everything on bank 0 -> 32-way.
        let addrs: Vec<u64> = (0..32).map(|i| i * 128).collect();
        assert_eq!(m.access(&addrs).cycles, 32);
    }

    #[test]
    fn odd_stride_is_conflict_free() {
        let mut m = shared();
        // Stride 33 words: gcd(33, 32) = 1, so each lane lands on its own
        // bank — the classic padding trick.
        let addrs: Vec<u64> = (0..32).map(|i| i * 33 * 4).collect();
        assert_eq!(m.access(&addrs).cycles, 1);
    }

    #[test]
    fn broadcast_same_word_is_free() {
        let mut m = shared();
        let addrs = vec![0x40u64; 32];
        let r = m.access(&addrs);
        assert_eq!(r.cycles, 1);
        assert_eq!(r.unique_words, 1);
    }

    #[test]
    fn same_bank_different_words_serialise() {
        let mut m = shared();
        // Two words on bank 0: 0 and 128 bytes.
        let r = m.access(&[0, 128]);
        assert_eq!(r.cycles, 2);
    }

    #[test]
    fn sub_word_lanes_merge() {
        let mut m = shared();
        // Two FP16 lanes in the same 4-byte word broadcast.
        let r = m.access(&[0, 2]);
        assert_eq!(r.cycles, 1);
        assert_eq!(r.unique_words, 1);
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let mut m = shared();
        let conflict: Vec<u64> = (0..32).map(|i| i * 128).collect();
        m.access(&conflict);
        m.access(&conflict);
        assert_eq!(m.accesses(), 2);
        assert_eq!(m.total_cycles, 64);
        assert_eq!(m.conflict_cycles(), 62);
        assert!((m.serialisation_factor() - 32.0).abs() < 1e-12);
    }

    #[test]
    fn eight_bank_slice_semantics() {
        let mut m = BankedMemory::new(BankedConfig::sma_a_feed_slice());
        // The SMA A-feed pattern: 8 skewed addresses, one per bank
        // (§III-B: row-major Atile with pitch 8 floats).
        // Column c reads A[t-c][c] at byte (t-c)*32 + c*4.
        let t = 9u64;
        let addrs: Vec<u64> = (0..8).map(|c| (t - c) * 32 + c * 4).collect();
        assert_eq!(
            m.access(&addrs).cycles,
            1,
            "semi-broadcast feed is conflict-free"
        );
    }

    #[test]
    fn empty_access_costs_one_cycle() {
        let mut m = shared();
        assert_eq!(m.access(&[]).cycles, 1);
    }
}
