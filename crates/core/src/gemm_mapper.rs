//! The Fig.-6 GEMM mapping: partition, tiling, double buffering, and
//! `LSMA` issue.
//!
//! The output matrix is divided across a 2-D grid of thread blocks
//! (128×128 `Csub` each, held in the register file). Each block marches
//! over 8-deep `Atile`/`Btile` slices; 64 warps split into two sets that
//! alternate between *loading* the next tiles (SIMD mode) and *computing*
//! the current ones (systolic mode via `LSMA`), synchronised with
//! cooperative groups. At FP16 each unit is an 8×16 array, so a 128-wide
//! `Btile` yields 8 `Bsubtile` passes shared across the SM's units.

use crate::config::SmaConfig;
use crate::unit::SmaUnit;
use crate::SmaError;
use sma_isa::{AddressPattern, Instr, Kernel, Reg, WarpProgram, WarpRole};
use sma_tensor::{GemmShape, Matrix, TileConfig};

/// Result of functionally executing a mapped GEMM.
#[derive(Debug, Clone)]
pub struct MappedGemm {
    /// The computed product.
    pub result: Matrix<f32>,
    /// Total `LSMA` operations issued.
    pub lsma_ops: u64,
    /// Thread-block tiles processed.
    pub tiles: u64,
}

/// Maps GEMMs onto the SMA units.
#[derive(Debug)]
pub struct GemmMapper {
    cfg: SmaConfig,
    tile: TileConfig,
}

impl GemmMapper {
    /// Creates a mapper with the paper's 128×128×8 tiling.
    #[must_use]
    pub fn new(cfg: SmaConfig) -> Self {
        GemmMapper {
            cfg,
            tile: TileConfig::paper(),
        }
    }

    /// Output columns one `LSMA` pass covers: 8 at FP32, 16 with FP16
    /// pairing (the 8×16 array of §IV-A).
    #[must_use]
    pub(crate) const fn pass_width(&self) -> usize {
        (self.cfg.dim as usize) * if self.cfg.fp16 { 2 } else { 1 }
    }

    /// `LSMA` ops per `Btile` (`block_n / pass_width`).
    #[must_use]
    pub(crate) const fn lsma_per_btile(&self) -> usize {
        self.tile.block_n.div_ceil(self.pass_width())
    }

    /// Functionally executes `C = A·B` through the full mapping, moving
    /// real values through the units' systolic engines tile by tile.
    ///
    /// # Errors
    ///
    /// Returns [`SmaError::ShapeMismatch`] if `a.cols() != b.rows()`.
    pub fn execute(&self, a: &Matrix<f32>, b: &Matrix<f32>) -> Result<MappedGemm, SmaError> {
        if a.cols() != b.rows() {
            return Err(SmaError::ShapeMismatch {
                a: a.shape(),
                b: b.shape(),
            });
        }
        let shape = GemmShape::new(a.rows(), b.cols(), a.cols());
        let walk = self.tile.walk(shape);

        // The functional engines are dim×dim; FP16 pairing is a throughput
        // property, so functional execution always runs dim-wide passes.
        let dim = self.cfg.dim as usize;
        let mut units: Vec<SmaUnit> = (0..self.cfg.units)
            .map(|_| SmaUnit::new(&self.cfg))
            .collect();
        for u in &mut units {
            u.enter_systolic();
        }

        let mut c = Matrix::zeros(shape.m, shape.n);
        let mut lsma_ops = 0u64;
        let mut tiles = 0u64;

        for block in walk.iter() {
            tiles += 1;
            // Csub accumulator for this block (full tile, zero-padded).
            let mut csub = Matrix::zeros(self.tile.block_m, self.tile.block_n);
            for k0 in (0..shape.k).step_by(self.tile.block_k) {
                // Atile: block_m × block_k slice of A (zero-padded).
                let a_tile = a.block_padded(block.row0, k0, self.tile.block_m, self.tile.block_k);
                // Btile: block_k × block_n slice of B.
                for (si, n0) in (0..self.tile.block_n).step_by(dim).enumerate() {
                    let b_sub = b.block_padded(k0, block.col0 + n0, dim, dim);
                    // Skip passes entirely outside the live matrix.
                    if block.col0 + n0 >= shape.n {
                        continue;
                    }
                    let n_units = units_len(&units);
                    let unit = &mut units[si % n_units];
                    let mut c_cols = Matrix::zeros(self.tile.block_m, dim);
                    unit.execute_lsma(&a_tile, &b_sub, &mut c_cols)
                        .expect("systolic mode is on and shapes are padded");
                    csub.accumulate_block(0, n0, &c_cols);
                    lsma_ops += 1;
                }
            }
            c.accumulate_block(block.row0, block.col0, &csub);
        }

        Ok(MappedGemm {
            result: c,
            lsma_ops,
            tiles,
        })
    }

    /// Builds the double-buffered kernel of §IV-C for the SM simulator:
    /// one thread block iterating `k_iters` k-slices, with a loader set
    /// and a computer set of 32 warps each handing off through
    /// cooperative-group syncs.
    ///
    /// The returned kernel is *timing-shaped* (addresses and op counts are
    /// real; data values are not carried — the functional path is
    /// [`GemmMapper::execute`]).
    ///
    /// # Errors
    ///
    /// Propagates [`sma_isa::IsaError`] for degenerate launches.
    pub fn build_double_buffered_kernel(&self, k_iters: u32) -> Result<Kernel, sma_isa::IsaError> {
        let m = self.tile.block_m as u64; // 128-row stream per LSMA
        let n_lsma = self.lsma_per_btile() as u32;
        let units = self.cfg.units.max(1);

        // --- Loader set: fetch next Atile+Btile to shared --------------
        // 32 warps cooperatively load 128×8 + 8×128 FP16 values = 4 KiB:
        // each warp one 128 B LDG + one 128 B STS (vectorised), plus
        // address arithmetic.
        let mut loader = WarpProgram::builder();
        loader.loop_n(k_iters, |it| {
            it.push(Instr::iadd(Reg(2), Reg(2), Reg(3))); // advance A ptr
            it.push(Instr::ldg(Reg(4), AddressPattern::strided(0x1_0000, 4)));
            it.push(Instr::sts(Reg(4), AddressPattern::strided(0x100, 4)));
            it.push(Instr::iadd(Reg(5), Reg(5), Reg(3))); // advance B ptr
            it.push(Instr::ldg(Reg(6), AddressPattern::strided(0x2_0000, 4)));
            it.push(Instr::sts(Reg(6), AddressPattern::strided(0x900, 4)));
            it.push(Instr::GroupSync { group: 0 });
        });

        // --- Computer set ------------------------------------------------
        // Two warps carry each LSMA's B operands but exactly one warp per
        // set issues the ops (the instruction is warp-level); the other 31
        // warps of the set hold `Csub`/B fragments and only participate in
        // the hand-off sync.
        let mut issuer = WarpProgram::builder();
        issuer.loop_n(k_iters, |it| {
            for s in 0..n_lsma {
                it.push(Instr::Lsma {
                    unit: (s % units) as u8,
                    a_base: 0x100,
                    c_base: Reg(32 + (s % 16) as u16),
                    k: m as u32,
                });
            }
            for u in 0..units.min(3) {
                it.push(Instr::LsmaWait { unit: u as u8 });
            }
            it.push(Instr::GroupSync { group: 0 });
        });
        let mut holder = WarpProgram::builder();
        holder.loop_n(k_iters, |it| {
            it.push(Instr::GroupSync { group: 0 });
        });

        Kernel::new(vec![
            WarpRole::new("loader", 32, loader.build()),
            WarpRole::new("issuer", 1, issuer.build()),
            WarpRole::new("holder", 31, holder.build()),
        ])
    }
}

fn units_len(units: &[SmaUnit]) -> usize {
    units.len().max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sma_sim::{SchedulerKind, SmSim};
    use sma_tensor::gemm;

    #[test]
    fn mapped_gemm_matches_reference_small() {
        let mapper = GemmMapper::new(SmaConfig::iso_flop_2sma());
        let a = Matrix::<f32>::random(48, 24, 1);
        let b = Matrix::<f32>::random(24, 40, 2);
        let out = mapper.execute(&a, &b).unwrap();
        let expected = gemm::reference(&a, &b).unwrap();
        assert!(
            out.result.approx_eq(&expected, 1e-3),
            "err {}",
            out.result.max_abs_diff(&expected)
        );
        assert_eq!(out.tiles, 1);
    }

    #[test]
    fn mapped_gemm_matches_reference_multi_tile() {
        let mapper = GemmMapper::new(SmaConfig::iso_area_3sma());
        let a = Matrix::<f32>::random(200, 40, 3);
        let b = Matrix::<f32>::random(40, 150, 4);
        let out = mapper.execute(&a, &b).unwrap();
        let expected = gemm::reference(&a, &b).unwrap();
        assert!(out.result.approx_eq(&expected, 1e-3));
        assert_eq!(out.tiles, 4); // 2×2 grid of 128×128 tiles
    }

    #[test]
    fn ws_ablation_also_computes_correctly() {
        let mapper = GemmMapper::new(SmaConfig::tpu_dataflow_ablation());
        let a = Matrix::<f32>::random(64, 16, 5);
        let b = Matrix::<f32>::random(16, 32, 6);
        let out = mapper.execute(&a, &b).unwrap();
        assert!(out
            .result
            .approx_eq(&gemm::reference(&a, &b).unwrap(), 1e-3));
    }

    #[test]
    fn pass_width_and_op_counts() {
        let mapper = GemmMapper::new(SmaConfig::iso_flop_2sma());
        assert_eq!(mapper.pass_width(), 16); // 8×16 FP16 array
        assert_eq!(mapper.lsma_per_btile(), 8);
        let mut fp32 = SmaConfig::iso_flop_2sma();
        fp32.fp16 = false;
        assert_eq!(GemmMapper::new(fp32).pass_width(), 8);
        assert_eq!(GemmMapper::new(fp32).lsma_per_btile(), 16);
    }

    #[test]
    fn shape_mismatch_is_error() {
        let mapper = GemmMapper::new(SmaConfig::iso_flop_2sma());
        let a = Matrix::<f32>::zeros(8, 9);
        let b = Matrix::<f32>::zeros(8, 8);
        assert!(mapper.execute(&a, &b).is_err());
    }

    #[test]
    fn double_buffered_kernel_reaches_high_utilisation() {
        // The headline architecture claim: the double-buffered mapping
        // keeps the systolic units ~90% busy (calib SMA_GEMM_PEAK_FRACTION).
        let mapper = GemmMapper::new(SmaConfig::iso_flop_2sma());
        let k = mapper.build_double_buffered_kernel(16).unwrap();
        let mut sim = SmSim::new(
            SmaConfig::iso_flop_2sma().gpu_config(),
            SchedulerKind::SmaRoundRobin,
        );
        let r = sim.run_block(&k).unwrap();
        // Per iteration: 8 LSMA passes (8×16 FP16 each) on 2 units is 4
        // sequential 136-cycle passes; the MAC-rate ideal is 512 cycles at
        // 256 FP16 MACs/cycle. Wait + hand-off adds a small bubble.
        let ideal = 512.0;
        let steady = r.cycles as f64 / 16.0;
        let eff = ideal / steady;
        assert!(
            eff > 0.80 && eff <= 1.0,
            "utilisation {eff:.3} (steady {steady:.0} vs ideal {ideal:.0})"
        );
        assert_eq!(r.mem.systolic_macs, 16 * 8 * 128 * 64);
    }

    #[test]
    fn gto_starves_double_buffer_relative_to_sma_rr() {
        // §IV-C: GTO keeps reissuing one warp set; the SMA round-robin
        // scheduler balances the loader/computer sets. The RR policy must
        // not lose, and the pipeline must not deadlock under either.
        let mapper = GemmMapper::new(SmaConfig::iso_flop_2sma());
        let k = mapper.build_double_buffered_kernel(8).unwrap();
        let gpu = SmaConfig::iso_flop_2sma().gpu_config();
        let mut gto = SmSim::new(gpu, SchedulerKind::Gto);
        let mut srr = SmSim::new(gpu, SchedulerKind::SmaRoundRobin);
        let rg = gto.run_block(&k).unwrap();
        let rs = srr.run_block(&k).unwrap();
        // With hand-offs every k-slice, starvation is bounded; the policies
        // must land within a few percent of each other and neither may
        // deadlock (the failure mode §IV-C guards against).
        let ratio = rs.cycles as f64 / rg.cycles as f64;
        assert!(
            (0.95..=1.05).contains(&ratio),
            "sma-rr {} vs gto {}",
            rs.cycles,
            rg.cycles
        );
    }

    #[test]
    fn trace_volume_matches_shape() {
        let mapper = GemmMapper::new(SmaConfig::iso_flop_2sma());
        let a = Matrix::<f32>::random(128, 8, 7);
        let b = Matrix::<f32>::random(8, 128, 8);
        let out = mapper.execute(&a, &b).unwrap();
        // One block, one k-tile, 16 dim-wide functional passes.
        assert_eq!(out.lsma_ops, 16);
        // Issued MACs cover the padded tile: 128×8×(16×8), each op one
        // 128-row pass over a dim×dim (8×8) weight subtile, as the tile
        // walk counts them.
        let issued = TileConfig::paper().walk(GemmShape::new(128, 128, 8));
        assert_eq!(out.lsma_ops * 128 * 8 * 8, issued.issued_macs());
        assert_eq!(issued.issued_macs(), 128 * 8 * 128);
    }
}
