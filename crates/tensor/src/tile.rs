//! CUTLASS-style GEMM partitioning and tiling (paper Fig. 6).
//!
//! The paper divides the output matrix `C` across a 2-D grid of thread
//! blocks; each block owns a 128×128 `Csub` held in the register file and
//! marches over the reduction dimension in 8-deep `Atile`/`Btile` slices,
//! double-buffered between a loading warp-set (SIMD mode) and a computing
//! warp-set (systolic mode). Each 128×8 `Btile` further splits into sixteen
//! 8×8 `Bsubtile`s, one systolic-array pass each.

use crate::gemm::GemmShape;

/// Tiling parameters of the GEMM mapping.
///
/// Defaults reproduce the paper exactly: `NTBx = NTBy = 128`, `NS = 8`
/// (Fig. 6), 64 warps per thread block split into two double-buffer sets.
///
/// # Example
///
/// ```
/// use sma_tensor::{GemmShape, TileConfig};
///
/// let cfg = TileConfig::paper();
/// let walk = cfg.walk(GemmShape::new(256, 256, 64));
/// assert_eq!(walk.grid(), (2, 2));      // 256/128 in each dimension
/// assert_eq!(walk.k_tiles(), 8);        // 64/8
/// assert_eq!(cfg.block_n / cfg.array_dim, 16); // Bsubtiles per Btile
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TileConfig {
    /// Thread-block tile height (`NTBy`, rows of `Csub`).
    pub block_m: usize,
    /// Thread-block tile width (`NTBx`, cols of `Csub`).
    pub block_n: usize,
    /// Reduction-slice depth (`NS`).
    pub block_k: usize,
    /// Systolic array edge (8 for the 8×8 FP32 SMA unit).
    pub array_dim: usize,
    /// Warps per thread block (64 in the paper, 2048 threads).
    pub warps_per_block: usize,
    /// Number of double-buffer warp sets (2: one loads while one computes).
    pub buffer_sets: usize,
}

impl TileConfig {
    /// The exact configuration of paper Fig. 6 / §IV-C.
    #[must_use]
    pub const fn paper() -> Self {
        TileConfig {
            block_m: 128,
            block_n: 128,
            block_k: 8,
            array_dim: 8,
            warps_per_block: 64,
            buffer_sets: 2,
        }
    }

    /// Bytes of shared memory needed for one double-buffered pair of
    /// `Atile` + `Btile` at `elem_bytes` per element.
    #[must_use]
    pub const fn shared_bytes_per_block(&self, elem_bytes: usize) -> usize {
        // Two buffers, each holding Atile (block_m x block_k) and
        // Btile (block_k x block_n).
        self.buffer_sets * elem_bytes * self.block_k * (self.block_m + self.block_n)
    }

    /// Bytes of register file needed for `Csub` at `elem_bytes` per element.
    #[must_use]
    pub const fn csub_bytes(&self, elem_bytes: usize) -> usize {
        self.block_m * self.block_n * elem_bytes
    }

    /// Creates the tile walk for a specific GEMM shape.
    #[must_use]
    pub const fn walk(self, shape: GemmShape) -> TileWalk {
        TileWalk { cfg: self, shape }
    }
}

impl Default for TileConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// The iteration space of a tiled GEMM: which thread-block tiles exist and
/// how many k-slices and systolic passes each performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileWalk {
    cfg: TileConfig,
    shape: GemmShape,
}

impl TileWalk {
    /// Thread-block grid dimensions `(grid_m, grid_n)` (ceiling division).
    #[must_use]
    pub const fn grid(&self) -> (usize, usize) {
        (
            self.shape.m.div_ceil(self.cfg.block_m),
            self.shape.n.div_ceil(self.cfg.block_n),
        )
    }

    /// Total thread blocks.
    #[must_use]
    pub const fn blocks(&self) -> usize {
        let (gm, gn) = self.grid();
        gm * gn
    }

    /// Number of k-slices (`Atile`/`Btile` pairs) each block iterates.
    #[must_use]
    pub const fn k_tiles(&self) -> usize {
        self.shape.k.div_ceil(self.cfg.block_k)
    }

    /// MACs issued including padding waste at ragged edges: every tile is
    /// processed at full 128×128×8 occupancy even if the matrix edge only
    /// fills part of it. The ratio of useful (`shape.macs()`) to issued
    /// MACs is the *tile quantisation efficiency*, the dominant
    /// small-matrix effect in Fig. 1 and Fig. 7.
    #[must_use]
    pub const fn issued_macs(&self) -> u64 {
        let (gm, gn) = self.grid();
        let padded_m = (gm * self.cfg.block_m) as u64;
        let padded_n = (gn * self.cfg.block_n) as u64;
        let padded_k = (self.k_tiles() * self.cfg.block_k) as u64;
        padded_m * padded_n * padded_k
    }

    /// Iterates over the block tiles in row-major grid order.
    pub fn iter(&self) -> impl Iterator<Item = BlockTile> + '_ {
        let (gm, gn) = self.grid();
        let cfg = self.cfg;
        let shape = self.shape;
        (0..gm).flat_map(move |bm| {
            (0..gn).map(move |bn| {
                let row0 = bm * cfg.block_m;
                let col0 = bn * cfg.block_n;
                BlockTile {
                    grid_pos: (bm, bn),
                    row0,
                    col0,
                    rows: cfg.block_m.min(shape.m - row0),
                    cols: cfg.block_n.min(shape.n - col0),
                }
            })
        })
    }

    /// Global-memory bytes each block loads per k-slice (one `Atile` + one
    /// `Btile`) at `elem_bytes` per element.
    #[must_use]
    pub(crate) const fn bytes_per_k_tile(&self, elem_bytes: usize) -> u64 {
        (self.cfg.block_k * (self.cfg.block_m + self.cfg.block_n) * elem_bytes) as u64
    }

    /// Total DRAM traffic of the tiled GEMM: tile loads for A and B plus
    /// one write of C.
    #[must_use]
    pub const fn dram_bytes(&self, elem_bytes: usize) -> u64 {
        let tiles = (self.blocks() * self.k_tiles()) as u64;
        tiles * self.bytes_per_k_tile(elem_bytes)
            + (self.shape.m * self.shape.n * elem_bytes) as u64
    }
}

/// One thread-block tile of the output matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockTile {
    /// `(grid_m, grid_n)` position of the block.
    pub grid_pos: (usize, usize),
    /// First output row owned by this block.
    pub row0: usize,
    /// First output column owned by this block.
    pub col0: usize,
    /// Valid (unpadded) rows in this tile.
    pub rows: usize,
    /// Valid (unpadded) columns in this tile.
    pub cols: usize,
}

#[cfg(test)]
mod tests {
    // Exact float equality in these tests asserts bit-reproducibility
    // of exactly-representable values; an epsilon would weaken them.
    #![allow(clippy::float_cmp)]

    use super::*;

    #[test]
    fn paper_config_resources() {
        let cfg = TileConfig::paper();
        // 64 warps of 32 threads.
        assert_eq!(cfg.warps_per_block * 32, 2048);
        // FP32 Csub: 128*128*4 = 64 KiB of the 256 KiB RF.
        assert_eq!(cfg.csub_bytes(4), 65536);
        // Double-buffered tiles: 2 * 4B * 8 * 256 = 16 KiB of shared.
        assert_eq!(cfg.shared_bytes_per_block(4), 16384);
    }

    #[test]
    fn exact_multiple_walk() {
        let walk = TileConfig::paper().walk(GemmShape::new(512, 256, 128));
        assert_eq!(walk.grid(), (4, 2));
        assert_eq!(walk.blocks(), 8);
        assert_eq!(walk.k_tiles(), 16);
        assert_eq!(walk.issued_macs(), GemmShape::new(512, 256, 128).macs());
    }

    #[test]
    fn ragged_walk_quantisation() {
        let walk = TileConfig::paper().walk(GemmShape::new(130, 128, 8));
        assert_eq!(walk.grid(), (2, 1));
        // 130 useful rows vs 256 padded.
        let eff = GemmShape::new(130, 128, 8).macs() as f64 / walk.issued_macs() as f64;
        assert!((eff - 130.0 / 256.0).abs() < 1e-12);
    }

    #[test]
    fn tiles_cover_matrix_exactly_once() {
        let shape = GemmShape::new(300, 200, 64);
        let walk = TileConfig::paper().walk(shape);
        let mut covered = vec![false; shape.m * shape.n];
        for tile in walk.iter() {
            for r in 0..tile.rows {
                for c in 0..tile.cols {
                    let idx = (tile.row0 + r) * shape.n + (tile.col0 + c);
                    assert!(!covered[idx], "element covered twice");
                    covered[idx] = true;
                }
            }
        }
        assert!(covered.iter().all(|&x| x), "not all elements covered");
    }

    #[test]
    fn edge_tile_occupancy() {
        let walk = TileConfig::paper().walk(GemmShape::new(192, 128, 8));
        let tiles: Vec<_> = walk.iter().collect();
        assert_eq!(tiles.len(), 2);
        // The edge tile holds 64 of its 128 rows.
        assert_eq!((tiles[0].rows, tiles[0].cols), (128, 128));
        assert_eq!((tiles[1].rows, tiles[1].cols), (64, 128));
    }

    #[test]
    fn dram_traffic_accounts_tiles_and_c() {
        let walk = TileConfig::paper().walk(GemmShape::new(128, 128, 8));
        // One block, one k-tile: 8*(128+128)*4 bytes + C 128*128*4.
        assert_eq!(walk.dram_bytes(4), 8 * 256 * 4 + 128 * 128 * 4);
    }

    #[test]
    fn default_is_paper() {
        assert_eq!(TileConfig::default(), TileConfig::paper());
    }
}
