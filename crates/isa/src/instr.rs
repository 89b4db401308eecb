//! Warp-level instructions.

use std::fmt;

/// A virtual register within one warp's allocation.
///
/// Registers are warp-wide (one 32-lane vector value each), matching how
/// GPGPU-Sim scoreboards track dependencies. The timing simulator only
/// needs identity, not contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u16);

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Arithmetic/logic operation classes, grouped by latency/throughput
/// behaviour rather than full SASS fidelity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// FP32 fused multiply-add (the workhorse of SIMD GEMM).
    Ffma,
    /// FP32 add/sub.
    Fadd,
    /// FP32 multiply.
    Fmul,
    /// Integer add (address arithmetic, loop counters).
    Iadd,
    /// Integer multiply-add (index computation).
    Imad,
    /// Register move / select.
    Mov,
    /// Predicate-setting compare.
    Setp,
    /// FP16x2 paired operation (two FP16 MACs in one FP32 lane, §IV-A).
    Hfma2,
    /// Type conversion (F32<->F16 packing).
    Cvt,
    /// Special-function op (exp/rcp/sqrt — used by softmax/CRF kernels).
    Sfu,
}

impl AluOp {
    /// FP32-equivalent MAC lanes this op performs per thread.
    #[must_use]
    pub(crate) const fn macs_per_thread(self) -> u32 {
        match self {
            AluOp::Ffma => 1,
            AluOp::Hfma2 => 2,
            _ => 0,
        }
    }
}

/// Memory space targeted by a load/store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemSpace {
    /// Global memory through L1/L2/DRAM.
    Global,
    /// Shared memory (banked scratchpad).
    Shared,
    /// Constant cache.
    Const,
}

/// Per-lane address pattern of one warp-wide memory instruction.
///
/// The coalescer and the shared-memory bank model both consume this; it is
/// the ground truth from which transaction counts and bank conflicts are
/// computed (no shortcuts — conflicts fall out of real addresses).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AddressPattern {
    /// Lane `i` accesses `base + i * stride` (bytes). A stride equal to the
    /// access width is fully coalesced.
    Strided {
        /// Byte address accessed by lane 0.
        base: u64,
        /// Byte distance between consecutive lanes.
        stride: u32,
    },
    /// All lanes access the same address (broadcast).
    Broadcast(u64),
    /// Fully explicit per-lane byte addresses.
    Explicit(Box<[u64; 32]>),
    /// Lane `i` accesses `base + ((i * a + b) % m) * width` — the modular
    /// patterns produced by swizzled/skewed tile layouts (e.g. the diagonal
    /// feeds of systolic dataflows).
    Affine {
        /// Base byte address.
        base: u64,
        /// Lane multiplier.
        a: u32,
        /// Lane offset.
        b: u32,
        /// Modulus applied to the lane index expression.
        m: u32,
        /// Element width in bytes.
        width: u32,
    },
}

impl AddressPattern {
    /// Convenience constructor for the common strided case.
    #[must_use]
    pub const fn strided(base: u64, stride: u32) -> Self {
        AddressPattern::Strided { base, stride }
    }

    /// Materialises the 32 per-lane byte addresses.
    #[must_use]
    pub fn lane_addresses(&self) -> [u64; 32] {
        let mut out = [0u64; 32];
        match self {
            AddressPattern::Strided { base, stride } => {
                for (i, slot) in out.iter_mut().enumerate() {
                    *slot = base + (i as u64) * u64::from(*stride);
                }
            }
            AddressPattern::Broadcast(addr) => out = [*addr; 32],
            AddressPattern::Explicit(addrs) => out = **addrs,
            AddressPattern::Affine {
                base,
                a,
                b,
                m,
                width,
            } => {
                for (i, slot) in out.iter_mut().enumerate() {
                    let idx = (i as u64 * u64::from(*a) + u64::from(*b)) % u64::from(*m);
                    *slot = base + idx * u64::from(*width);
                }
            }
        }
        out
    }
}

/// One warp-level instruction.
///
/// `Instr` is deliberately small and `Clone`-cheap except for
/// [`AddressPattern::Explicit`]; kernels that need per-lane addresses pay
/// for them explicitly.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// ALU operation `dst = op(srcs…)`.
    Alu {
        /// Operation class.
        op: AluOp,
        /// Destination register.
        dst: Reg,
        /// Source registers (up to 3 used).
        srcs: Vec<Reg>,
    },
    /// Load: `dst = mem[pattern]` with `width` bytes per lane.
    Load {
        /// Target memory space.
        space: MemSpace,
        /// Destination register.
        dst: Reg,
        /// Per-lane addresses.
        pattern: AddressPattern,
        /// Access width per lane in bytes (4 = FP32, 2 = FP16, 16 = vec4).
        width: u32,
    },
    /// Store: `mem[pattern] = src`.
    Store {
        /// Target memory space.
        space: MemSpace,
        /// Source register.
        src: Reg,
        /// Per-lane addresses.
        pattern: AddressPattern,
        /// Access width per lane in bytes.
        width: u32,
    },
    /// TensorCore matrix macro-op: one 4×4×4 HMMA step (paper §II-A).
    /// A full `wmma` 16×16×16 fragment op issues a sequence of these.
    Hmma {
        /// Destination/accumulator fragment register.
        dst: Reg,
        /// A-fragment register.
        a: Reg,
        /// B-fragment register.
        b: Reg,
    },
    /// The paper's new instruction (§IV-B, Eq. 1):
    /// `C[out] ← A[in] × B + C[in]`, executed asynchronously by the
    /// systolic controller over a `k × 8 × 8` volume.
    Lsma {
        /// Which SMA unit within the SM executes the pass (0..=2).
        unit: u8,
        /// Shared-memory byte address of `A[0][0]` (uncoalesced feeds,
        /// served by the unit's 8 dedicated banks).
        a_base: u64,
        /// Register-file base of the `C` accumulator rows (coalesced
        /// vector accesses, 1 RF bank per unit).
        c_base: Reg,
        /// Height of `A` — the flexible K dimension.
        k: u32,
    },
    /// Block-wide barrier (`__syncthreads`).
    Bar {
        /// Barrier id (hardware supports 16).
        id: u32,
    },
    /// Cooperative-groups sync among a subset of warps — the fine-grained
    /// primitive the paper uses to hand off between the loader and
    /// computer warp sets (§IV-C).
    GroupSync {
        /// Logical group id (0 = loader set, 1 = computer set, …).
        group: u8,
    },
    /// Explicit wait for outstanding `LSMA` results on a unit (the paper's
    /// "threads need to issue an explicit synchronization to access the
    /// systolic computation results").
    LsmaWait {
        /// Unit to drain.
        unit: u8,
    },
    /// Kernel exit marker.
    Exit,
}

impl Instr {
    /// Builds an FFMA `dst = a*b + c`.
    #[must_use]
    pub fn ffma(dst: Reg, a: Reg, b: Reg, c: Reg) -> Self {
        Instr::Alu {
            op: AluOp::Ffma,
            dst,
            srcs: vec![a, b, c],
        }
    }

    /// Builds an integer add `dst = a + b`.
    #[must_use]
    pub fn iadd(dst: Reg, a: Reg, b: Reg) -> Self {
        Instr::Alu {
            op: AluOp::Iadd,
            dst,
            srcs: vec![a, b],
        }
    }

    /// Builds a global load of 4 bytes per lane.
    #[must_use]
    pub fn ldg(dst: Reg, pattern: AddressPattern) -> Self {
        Instr::Load {
            space: MemSpace::Global,
            dst,
            pattern,
            width: 4,
        }
    }

    /// Builds a shared-memory load of 4 bytes per lane.
    #[must_use]
    pub fn lds(dst: Reg, pattern: AddressPattern) -> Self {
        Instr::Load {
            space: MemSpace::Shared,
            dst,
            pattern,
            width: 4,
        }
    }

    /// Builds a shared-memory store of 4 bytes per lane.
    #[must_use]
    pub fn sts(src: Reg, pattern: AddressPattern) -> Self {
        Instr::Store {
            space: MemSpace::Shared,
            src,
            pattern,
            width: 4,
        }
    }

    /// Registers written by this instruction.
    #[must_use]
    pub fn dsts(&self) -> Vec<Reg> {
        match self {
            Instr::Alu { dst, .. } | Instr::Load { dst, .. } | Instr::Hmma { dst, .. } => {
                vec![*dst]
            }
            Instr::Lsma { c_base, .. } => vec![*c_base],
            _ => Vec::new(),
        }
    }

    /// Registers read by this instruction.
    #[must_use]
    pub fn srcs(&self) -> Vec<Reg> {
        match self {
            Instr::Alu { srcs, .. } => srcs.clone(),
            Instr::Store { src, .. } => vec![*src],
            Instr::Hmma { dst, a, b } => vec![*dst, *a, *b],
            Instr::Lsma { c_base, .. } => vec![*c_base],
            _ => Vec::new(),
        }
    }

    /// FP32-equivalent MACs this warp-instruction performs across 32 lanes.
    ///
    /// `Hmma` is one 4×4×4 step = 64 MACs; `Lsma` drives `k×8×8` MACs.
    #[must_use]
    pub fn warp_macs(&self) -> u64 {
        match self {
            Instr::Alu { op, .. } => u64::from(op.macs_per_thread()) * 32,
            Instr::Hmma { .. } => 64,
            Instr::Lsma { k, .. } => u64::from(*k) * 64,
            _ => 0,
        }
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::Alu { op, dst, srcs } => {
                write!(f, "{op:?} {dst}")?;
                for s in srcs {
                    write!(f, ", {s}")?;
                }
                Ok(())
            }
            Instr::Load {
                space, dst, width, ..
            } => {
                write!(f, "LD.{space:?}.{width} {dst}")
            }
            Instr::Store {
                space, src, width, ..
            } => {
                write!(f, "ST.{space:?}.{width} {src}")
            }
            Instr::Hmma { dst, a, b } => write!(f, "HMMA {dst}, {a}, {b}"),
            Instr::Lsma {
                unit,
                a_base,
                c_base,
                k,
            } => {
                write!(f, "LSMA u{unit}, A@{a_base:#x}, {c_base}, k={k}")
            }
            Instr::Bar { id } => write!(f, "BAR.SYNC {id}"),
            Instr::GroupSync { group } => write!(f, "GROUP.SYNC g{group}"),
            Instr::LsmaWait { unit } => write!(f, "LSMA.WAIT u{unit}"),
            Instr::Exit => write!(f, "EXIT"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strided_addresses() {
        let p = AddressPattern::strided(0x100, 4);
        let a = p.lane_addresses();
        assert_eq!(a[0], 0x100);
        assert_eq!(a[31], 0x100 + 31 * 4);
    }

    #[test]
    fn broadcast_addresses() {
        let a = AddressPattern::Broadcast(0x42).lane_addresses();
        assert!(a.iter().all(|&x| x == 0x42));
    }

    #[test]
    fn affine_addresses_wrap() {
        // lane i -> ((i*1 + 0) % 8) * 4: the 8-bank skewed feed pattern.
        let p = AddressPattern::Affine {
            base: 0,
            a: 1,
            b: 0,
            m: 8,
            width: 4,
        };
        let a = p.lane_addresses();
        assert_eq!(a[0], 0);
        assert_eq!(a[7], 28);
        assert_eq!(a[8], 0); // wrapped
    }

    #[test]
    fn dsts_and_srcs() {
        let i = Instr::ffma(Reg(3), Reg(0), Reg(1), Reg(2));
        assert_eq!(i.dsts(), vec![Reg(3)]);
        assert_eq!(i.srcs(), vec![Reg(0), Reg(1), Reg(2)]);
    }

    #[test]
    fn warp_mac_counts() {
        assert_eq!(Instr::ffma(Reg(0), Reg(1), Reg(2), Reg(0)).warp_macs(), 32);
        let hfma2 = Instr::Alu {
            op: AluOp::Hfma2,
            dst: Reg(0),
            srcs: vec![Reg(1), Reg(2), Reg(0)],
        };
        assert_eq!(hfma2.warp_macs(), 64);
        assert_eq!(
            Instr::Hmma {
                dst: Reg(0),
                a: Reg(1),
                b: Reg(2)
            }
            .warp_macs(),
            64
        );
        let lsma = Instr::Lsma {
            unit: 0,
            a_base: 0,
            c_base: Reg(0),
            k: 128,
        };
        assert_eq!(lsma.warp_macs(), 128 * 64);
    }

    #[test]
    fn display_forms() {
        let lsma = Instr::Lsma {
            unit: 1,
            a_base: 0x80,
            c_base: Reg(8),
            k: 16,
        };
        assert_eq!(lsma.to_string(), "LSMA u1, A@0x80, r8, k=16");
        assert_eq!(Instr::Bar { id: 0 }.to_string(), "BAR.SYNC 0");
    }
}
