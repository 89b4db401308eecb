//! Global-memory access coalescing.
//!
//! Volta-class GPUs service a warp's global access as a set of 32-byte
//! sectors; a fully coalesced FP32 access touches 4 sectors, a fully
//! scattered one touches 32. The sector count drives both DRAM traffic and
//! the L1/L2 access energy, so the coalescer is the single place it is
//! computed.

/// Result of coalescing one warp-wide global access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoalesceResult {
    /// 32-byte sectors touched.
    pub sectors: u32,
    /// 128-byte cache lines touched.
    pub lines: u32,
    /// Bytes actually requested by lanes (useful bytes).
    pub useful_bytes: u32,
}

/// The warp coalescer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Coalescer;

impl Coalescer {
    /// Coalesces one warp access of `width` bytes per lane.
    #[must_use]
    pub fn probe(lane_addresses: &[u64], width: u32) -> CoalesceResult {
        let mut sectors: Vec<u64> = Vec::with_capacity(lane_addresses.len());
        let mut lines: Vec<u64> = Vec::with_capacity(lane_addresses.len());
        for &addr in lane_addresses {
            // A lane access may straddle a sector boundary when width > 1.
            let first = addr / 32;
            let last = (addr + u64::from(width) - 1) / 32;
            for s in first..=last {
                if !sectors.contains(&s) {
                    sectors.push(s);
                }
                let line = s / 4;
                if !lines.contains(&line) {
                    lines.push(line);
                }
            }
        }
        // Useful bytes are the *distinct* bytes lanes requested: lanes may
        // overlap (broadcasts, sub-width strides), and a byte fetched once
        // is useful once — otherwise efficiency could exceed 1.
        let mut ranges: Vec<(u64, u64)> = lane_addresses
            .iter()
            .map(|&a| (a, a + u64::from(width)))
            .collect();
        ranges.sort_unstable();
        let mut useful = 0u64;
        let mut covered_to = 0u64;
        for (start, end) in ranges {
            let from = start.max(covered_to);
            if end > from {
                useful += end - from;
                covered_to = end;
            }
        }
        CoalesceResult {
            sectors: sectors.len() as u32,
            lines: lines.len() as u32,
            useful_bytes: useful as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_stride_fp32_is_four_sectors() {
        let addrs: Vec<u64> = (0..32).map(|i| i * 4).collect();
        let r = Coalescer::probe(&addrs, 4);
        assert_eq!(r.sectors, 4);
        assert_eq!(r.lines, 1);
        assert_eq!(r.useful_bytes, 128);
        assert_eq!(r.useful_bytes, r.sectors * 32);
    }

    #[test]
    fn scattered_access_touches_32_sectors() {
        let addrs: Vec<u64> = (0..32).map(|i| i * 4096).collect();
        let r = Coalescer::probe(&addrs, 4);
        assert_eq!(r.sectors, 32);
        assert_eq!(r.lines, 32);
        // 128 useful bytes of 1,024 fetched.
        assert_eq!((r.useful_bytes, r.sectors * 32), (128, 1024));
    }

    #[test]
    fn stride_two_halves_efficiency() {
        let addrs: Vec<u64> = (0..32).map(|i| i * 8).collect();
        let r = Coalescer::probe(&addrs, 4);
        assert_eq!(r.sectors, 8);
        assert_eq!(2 * r.useful_bytes, r.sectors * 32);
    }

    #[test]
    fn broadcast_is_one_sector() {
        let addrs = vec![64u64; 32];
        let r = Coalescer::probe(&addrs, 4);
        assert_eq!(r.sectors, 1);
        assert_eq!(r.lines, 1);
    }

    #[test]
    fn straddling_access_counts_both_sectors() {
        // A 4-byte access at byte 30 straddles sectors 0 and 1.
        let r = Coalescer::probe(&[30], 4);
        assert_eq!(r.sectors, 2);
    }

    #[test]
    fn overlapping_lanes_do_not_double_count_useful_bytes() {
        // Broadcast: 32 lanes request the same 4 bytes — 4 useful bytes,
        // not 128, and efficiency stays physical.
        let r = Coalescer::probe(&vec![64u64; 32], 4);
        assert_eq!(r.useful_bytes, 4);
        assert!(r.useful_bytes <= r.sectors * 32);
        // Stride 2 under a 4-byte width: consecutive lanes overlap by
        // two bytes; the union is 31 * 2 + 4 bytes.
        let addrs: Vec<u64> = (0..32).map(|i| i * 2).collect();
        let r = Coalescer::probe(&addrs, 4);
        assert_eq!(r.useful_bytes, 31 * 2 + 4);
        assert!(r.useful_bytes <= r.sectors * 32);
    }

    #[test]
    fn vec4_loads_coalesce_to_same_traffic() {
        // 8 lanes × 16 B (float4) covers the same 128 B as 32 lanes × 4 B.
        let addrs: Vec<u64> = (0..8).map(|i| i * 16).collect();
        let r = Coalescer::probe(&addrs, 16);
        assert_eq!(r.sectors, 4);
        assert_eq!(r.useful_bytes, 128);
    }
}
