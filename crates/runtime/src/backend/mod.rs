//! The open execution API: one [`Backend`] trait, seven built-in
//! implementations, no platform special-cases anywhere downstream.
//!
//! The paper's thesis is that a single substrate serves both GEMM and
//! irregular work; the runtime mirrors that with a single object-safe
//! trait covering both paths plus the host-transfer cost model. The
//! [`Executor`](crate::Executor) and the autonomous-driving study
//! dispatch *only* through `dyn Backend` — a new architecture plugs in
//! without touching either. The two reconfigurable-systolic designs the
//! ROADMAP named ([`ArrayFlexBackend`], [`FlexSaBackend`]) landed
//! exactly this way; the step-by-step recipe they followed is written
//! down in `docs/ADDING_A_BACKEND.md`.
//!
//! # Adding an eighth backend
//!
//! A new backend is one struct and one `impl` — under 50 lines. Say you
//! want a ReDas-style fine-grained reshaping array (PAPERS.md):
//!
//! ```
//! use sma_runtime::backend::{
//!     gpu_irregular_estimate, Backend, GemmCache, IrregularEstimate, IrregularWork,
//!     RuntimeError,
//! };
//! use sma_core::model::GemmEstimate;
//! use sma_core::{SmaConfig, SmaGemmModel};
//! use sma_sim::GpuConfig;
//! use sma_tensor::GemmShape;
//!
//! #[derive(Debug)]
//! struct RedasBackend {
//!     gpu: GpuConfig,
//!     model: SmaGemmModel, // or your own latency model
//!     cache: GemmCache,
//! }
//!
//! impl Backend for RedasBackend {
//!     fn name(&self) -> &'static str {
//!         "ReDas"
//!     }
//!     fn gemm(&self, shape: GemmShape) -> Result<GemmEstimate, RuntimeError> {
//!         Ok(self.cache.get_or_compute(shape, || self.model.estimate(shape)))
//!     }
//!     fn irregular(&self, work: IrregularWork) -> IrregularEstimate {
//!         // Reshapable arrays fall back to SIMD lanes, like SMA.
//!         gpu_irregular_estimate(&self.gpu, &work)
//!     }
//!     fn transfer_ms(&self, _bytes: u64) -> f64 {
//!         0.0 // on-die: no host hand-off
//!     }
//!     fn simd_mode_boost(&self) -> f64 {
//!         2.0
//!     }
//! }
//!
//! let backend = RedasBackend {
//!     gpu: GpuConfig::volta(),
//!     model: SmaGemmModel::new(SmaConfig::iso_flop_2sma()),
//!     cache: GemmCache::default(),
//! };
//! assert!(backend.gemm(GemmShape::square(512)).unwrap().time_ms > 0.0);
//! ```
//!
//! Wire it to an [`Executor`](crate::Executor) with
//! [`ExecutorBuilder::backend`](crate::executor::ExecutorBuilder::backend)
//! — no enum to extend, no match arms to chase.
//!
//! The same backend joins the parallel experiment sweep unchanged —
//! `sma_bench::sweep::Sweep::grid` accepts any executor, custom backend
//! or not:
//!
//! ```text
//! let custom = Executor::builder(Platform::Sma2) // key used for labels
//!     .backend(Arc::new(RedasBackend { /* as above */ }))
//!     .build();
//! let run = Sweep::grid(&[custom], &zoo_networks()).run_parallel(threads);
//! ```
//!
//! (compiled and tested as the `sma_bench::sweep` module doctest; the
//! bench crate sits above this one, so the snippet cannot run here).
//! Prefer handing sweep workers a compiled plan
//! ([`Executor::try_plan`](crate::Executor::try_plan)): replays never call back
//! into the backend, so workers cannot contend on your [`GemmCache`] no
//! matter how many threads the sweep fans across.

mod arrayflex;
mod flexsa;
mod gpu;
mod tpu_host;

pub use arrayflex::{
    ArrayFlexBackend, ArrayFlexModel, PipelineConfig, ARRAYFLEX_COLS, ARRAYFLEX_ROWS,
};
pub use flexsa::{
    FlexSaBackend, FlexSaMode, FlexSaModel, FLEXSA_FULL_DIM, FLEXSA_PRUNE_FRACTION, FLEXSA_SUB_DIM,
};
pub use gpu::{
    gpu_irregular_estimate, gpu_irregular_ledger, gpu_irregular_ms, SimdBackend, SmaBackend,
    TensorCoreBackend,
};
pub use tpu_host::TpuHostBackend;

use crate::platform::Platform;
use sma_core::model::GemmEstimate;
use sma_mem::MemStats;
use sma_models::{Layer, LayerWork};
use sma_tensor::GemmShape;
// sma-lint: allow(hash-collection) — the GEMM cache is keyed-only
// (get/insert by GemmShape, never iterated), so hash order is unobservable.
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Bytes shipped to the host for the CRF stage: FP32 unaries (21×513²),
/// the softmax maps and the full-resolution guide image.
pub const CRF_HANDOFF_BYTES: u64 = 45 << 20;

/// Errors surfaced by the execution API.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RuntimeError {
    /// The backend cannot perform the requested operation — e.g. asking
    /// the TPU for a GPU-clock GEMM estimate, or a GEMM-only engine for
    /// irregular execution.
    UnsupportedOnBackend {
        /// The backend's [`Backend::name`].
        backend: &'static str,
        /// What was asked of it.
        operation: &'static str,
    },
    /// A serving [`Placement`](crate::serve::Placement) routed a
    /// request to a shard the cluster does not have.
    PlacementOutOfRange {
        /// The routed request's id.
        request: u64,
        /// The shard the placement returned.
        shard: usize,
        /// The cluster's shard count.
        shard_count: usize,
    },
    /// A serving trace broke the id contract: the request at trace
    /// position `position` carries id `id`, but request ids must equal
    /// trace positions (the engine indexes per-request state by id).
    TraceIdMismatch {
        /// The request's position in the trace.
        position: usize,
        /// The id it carries.
        id: u64,
    },
    /// A [`FaultPlan`](crate::serve::FaultPlan) targets a shard the
    /// cluster does not have.
    FaultShardOutOfRange {
        /// The shard the fault names.
        shard: usize,
        /// The cluster's shard count.
        shard_count: usize,
    },
    /// A [`ServeCluster`](crate::serve::ServeCluster) was given no
    /// shards or no networks.
    EmptyCluster {
        /// The number of shards it was given.
        shards: usize,
        /// The number of networks it was given.
        networks: usize,
    },
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::UnsupportedOnBackend { backend, operation } => {
                write!(f, "backend {backend} does not support {operation}")
            }
            RuntimeError::PlacementOutOfRange {
                request,
                shard,
                shard_count,
            } => write!(
                f,
                "placement routed request {request} to shard {shard} of {shard_count}"
            ),
            RuntimeError::TraceIdMismatch { position, id } => write!(
                f,
                "trace request at position {position} has id {id}; ids must equal trace positions"
            ),
            RuntimeError::FaultShardOutOfRange { shard, shard_count } => {
                write!(f, "fault plan targets shard {shard} of {shard_count}")
            }
            RuntimeError::EmptyCluster { shards, networks } => write!(
                f,
                "a serving cluster needs at least one shard and one network \
                 (got {shards} shards, {networks} networks)"
            ),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Where a layer executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecPath {
    /// The backend's matrix engine (systolic array / TC / SIMD GEMM).
    MatrixEngine,
    /// GPU SIMD mode (programmable lanes).
    SimdMode,
    /// Lowered onto the TPU's native ops.
    TpuLowered,
    /// Shipped to the host CPU (with transfer cost).
    HostCpu,
}

/// The irregular (GEMM-incompatible) op kinds a backend may be handed.
///
/// Backends with native programmability ignore the kind and run the
/// FLOP/byte profile on their lanes; lowering backends (the TPU) pick a
/// rewrite per kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum IrregularOp {
    /// Region-proposal non-maximum suppression over `boxes` candidates.
    Nms {
        /// Candidate boxes.
        boxes: usize,
    },
    /// Bilinear crop-and-resize of `rois` regions.
    RoiAlign {
        /// Number of regions.
        rois: usize,
        /// Output bins per side.
        pooled: usize,
        /// Feature channels.
        channels: usize,
    },
    /// Per-pixel argmax over class maps.
    ArgMax {
        /// Pixels.
        pixels: usize,
        /// Classes.
        classes: usize,
    },
    /// Dense-CRF mean-field refinement (host-only on lowering backends).
    Crf,
    /// Streaming elementwise work (pooling, activations, custom stages).
    Streaming,
}

/// One irregular op characterised for a backend: what it is plus its
/// execution profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IrregularWork {
    /// The op kind (drives lowering decisions).
    pub op: IrregularOp,
    /// Useful FLOPs.
    pub flops: u64,
    /// Bytes moved.
    pub bytes: u64,
    /// Fraction of the op that parallelises across SIMD lanes.
    pub parallel_fraction: f64,
    /// Fraction of peak DRAM bandwidth the access pattern achieves.
    pub memory_efficiency: f64,
    /// Multiplier on baseline SIMD throughput available to this op
    /// (1.0 during dependent single-network inference; the autonomous
    /// scheduler raises it when SMA units fold back into SIMD lanes).
    pub simd_boost: f64,
}

impl IrregularWork {
    /// Characterises a layer's irregular work, or `None` for a
    /// GEMM-compatible layer.
    #[must_use]
    pub fn from_layer(layer: &Layer) -> Option<IrregularWork> {
        let LayerWork::Irregular {
            flops,
            bytes,
            parallel_fraction,
            memory_efficiency,
        } = layer.work()
        else {
            return None;
        };
        let op = match *layer {
            Layer::Nms { boxes } => IrregularOp::Nms { boxes },
            Layer::RoiAlign {
                rois,
                pooled,
                channels,
            } => IrregularOp::RoiAlign {
                rois,
                pooled,
                channels,
            },
            Layer::ArgMax { pixels, classes } => IrregularOp::ArgMax { pixels, classes },
            Layer::Crf { .. } => IrregularOp::Crf,
            _ => IrregularOp::Streaming,
        };
        Some(IrregularWork {
            op,
            flops,
            bytes,
            parallel_fraction,
            memory_efficiency,
            simd_boost: 1.0,
        })
    }

    /// The same work with a different SIMD-throughput multiplier.
    #[must_use]
    pub const fn with_boost(mut self, boost: f64) -> Self {
        self.simd_boost = boost;
        self
    }
}

/// A backend's answer for one irregular op.
#[derive(Debug, Clone)]
pub struct IrregularEstimate {
    /// Milliseconds end to end, including any transfer.
    pub time_ms: f64,
    /// Milliseconds of host transfer contained in `time_ms`.
    pub transfer_ms: f64,
    /// Access ledger for the energy model (empty where the GPU energy
    /// model does not apply).
    pub mem: MemStats,
    /// Occupied SM-cycles (constant-power accounting).
    pub sm_cycles: u64,
    /// Which execution path ran it.
    pub path: ExecPath,
}

/// Hit/miss counters of a backend's memoized GEMM cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Estimates served from the cache.
    pub hits: u64,
    /// Estimates computed and inserted.
    pub misses: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when never queried).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter deltas since an earlier snapshot.
    #[must_use]
    pub fn since(&self, earlier: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
        }
    }
}

/// Number of independent lock domains in a [`GemmCache`].
///
/// Shapes hash across shards, so concurrent executors contend only when
/// they touch the same shard *and* at least one of them is writing.
const CACHE_SHARDS: usize = 8;

/// Where a [`GemmCache`] takes its shard index in a [`ShapeHasher`]
/// hash: the three bits just below the top seven. Hashbrown takes a
/// table's bucket from the low bits and its 7-bit control tag from the
/// top seven, so the shard bits overlap neither.
const SHARD_SHIFT: u32 = 54;

/// [`ShapeHasher`]'s multiplier: the 64-bit golden ratio (odd, so the
/// multiply is a bijection).
const SHAPE_MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// The [`GemmCache`] hash: a fixed-key multiply-mix over a
/// [`GemmShape`]'s three words, then a fold of the product's high half
/// into its low half.
///
/// A product's low bits depend only on its inputs' low bits, and many
/// GEMM dimensions are multiples of a power of two (channel counts,
/// batch-stacked rows), so without the fold many shapes would share
/// their low bits: hashbrown, which takes the bucket from the low bits,
/// would pile them into a few buckets.
///
/// The key is fixed, not random like SipHash's: a lookup is the
/// estimate layer's hot path, where SipHash cost two ~20 ns passes
/// (shard, then map). The keys are the shapes of the caller's own
/// networks, never input from a peer, so shapes crafted to collide
/// could only slow their own author's lookups.
#[derive(Debug, Default, Clone, Copy)]
struct ShapeHasher(u64);

impl Hasher for ShapeHasher {
    fn write(&mut self, bytes: &[u8]) {
        // `GemmShape` hashes through `write_usize`; this only keeps the
        // hasher total.
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(SHAPE_MIX);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

// sma-lint: allow(hash-collection) — keyed-only; never iterated.
type ShapeMap = HashMap<GemmShape, GemmEstimate, BuildHasherDefault<ShapeHasher>>;

/// `shape`'s [`ShapeHasher`] hash, as the shard maps compute it.
fn shape_hash(shape: &GemmShape) -> u64 {
    let mut hasher = ShapeHasher::default();
    shape.hash(&mut hasher);
    hasher.finish()
}

/// The shard a [`ShapeHasher`] hash maps to.
fn shard_index(hash: u64) -> usize {
    (hash >> SHARD_SHIFT) as usize % CACHE_SHARDS
}

/// A memoized `GemmShape → GemmEstimate` map, sharded for readers.
///
/// The experiment zoo re-runs identical conv shapes thousands of times
/// across figures; analytical estimates are pure functions of the shape,
/// so every backend caches them. Shared across threads (the registry
/// hands out one backend instance per platform), which makes the read
/// path the hot path: the map is split into `CACHE_SHARDS` independent
/// `RwLock` shards so steady-state lookups from concurrent executors
/// never serialise on one global lock, and misses are computed *outside*
/// any lock with a recheck on insert (estimates are pure, so a lost race
/// costs one redundant computation, never a wrong answer).
///
/// Shards and maps share one cheap fixed-key hash (`ShapeHasher`): the
/// shard comes from its high bits and each map's bucket from its low
/// bits, which the hash's final fold mixes. Were the shard taken from
/// the low bits, every shape in a shard would share them and fill only
/// an eighth of its map's buckets. The maps are keyed-only and never
/// iterated, so the hash order is unobservable.
#[derive(Debug)]
pub struct GemmCache {
    shards: [RwLock<ShapeMap>; CACHE_SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for GemmCache {
    fn default() -> Self {
        GemmCache {
            shards: std::array::from_fn(|_| RwLock::new(ShapeMap::default())),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl GemmCache {
    fn shard(&self, shape: &GemmShape) -> &RwLock<ShapeMap> {
        &self.shards[shard_index(shape_hash(shape))]
    }

    /// Returns the cached estimate for `shape`, computing and inserting
    /// it on first sight.
    ///
    /// `compute` runs outside every lock. If two threads miss the same
    /// shape concurrently, both compute, the first inserts (one miss),
    /// and the loser is served the inserted value (a hit): `misses` is
    /// therefore exactly the number of shapes resident in the cache, and
    /// `hits + misses` the number of calls.
    pub fn get_or_compute(
        &self,
        shape: GemmShape,
        compute: impl FnOnce() -> GemmEstimate,
    ) -> GemmEstimate {
        let shard = self.shard(&shape);
        // sma-lint: allow(no-panic) — lock poisoning means a panic
        // already unwound another thread; propagating it is the only
        // sound response for a pure memo cache.
        if let Some(est) = shard.read().expect("GEMM cache poisoned").get(&shape) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return *est;
        }
        let est = compute();
        // sma-lint: allow(nested-lock) — the read guard above is a
        // temporary dropped at its own statement's end; read and write
        // are strictly sequential, never held together.
        // sma-lint: allow(no-panic) — poisoning propagation, as above.
        let mut map = shard.write().expect("GEMM cache poisoned");
        match map.entry(shape) {
            std::collections::hash_map::Entry::Occupied(raced) => {
                // Another thread inserted while we computed: serve the
                // resident value so every caller observes one estimate.
                self.hits.fetch_add(1, Ordering::Relaxed);
                *raced.get()
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                slot.insert(est);
                est
            }
        }
    }

    /// Number of shapes resident across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            // sma-lint: allow(no-panic) — poisoning propagation, as above.
            .map(|s| s.read().expect("GEMM cache poisoned").len())
            .sum()
    }

    /// True if no shape has been cached yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current hit/miss counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

/// An execution architecture the runtime can schedule networks onto.
///
/// Object-safe: the executor and the application studies hold
/// `Arc<dyn Backend>` and never inspect which architecture is behind it.
/// Implementations are constructed once and shared via
/// [`Platform::backend`]; they must therefore be internally synchronised
/// (`Send + Sync`), which the built-in ones get from [`GemmCache`].
pub trait Backend: std::fmt::Debug + Send + Sync {
    /// Short label used in experiment tables (paper nomenclature).
    fn name(&self) -> &'static str;

    /// Estimate of one GEMM on the backend's matrix engine.
    ///
    /// Implementations should memoize through a [`GemmCache`]: estimates
    /// are pure functions of the shape and sit on the hot path of every
    /// experiment binary.
    fn gemm(&self, shape: GemmShape) -> Result<GemmEstimate, RuntimeError>;

    /// Time and ledger for one irregular (GEMM-incompatible) op.
    fn irregular(&self, work: IrregularWork) -> IrregularEstimate;

    /// Milliseconds to move `bytes` between the backend and the host
    /// (0.0 for on-die architectures that never hand off).
    fn transfer_ms(&self, bytes: u64) -> f64;

    /// Multiplier on baseline SIMD throughput available for irregular
    /// work when the backend's matrix units reconfigure into lanes
    /// (1.0 = no reconfiguration, 0.0 = no programmable lanes at all).
    fn simd_mode_boost(&self) -> f64;

    /// Whether per-layer framework dispatch overhead applies to this
    /// backend's GEMM launches (false for pipelined offload engines that
    /// run whole graphs per dispatch).
    fn applies_framework_overhead(&self) -> bool {
        true
    }

    /// Hit/miss counters of the backend's GEMM memo cache (zeroes if the
    /// backend does not cache).
    fn gemm_cache_stats(&self) -> CacheStats {
        CacheStats::default()
    }

    /// Number of distinct shapes resident in the backend's GEMM memo
    /// cache (0 if the backend does not cache). Together with
    /// [`Backend::gemm_cache_stats`] this lets callers check the cache
    /// invariant `misses == resident shapes` end to end.
    fn gemm_cache_len(&self) -> usize {
        0
    }

    /// The backend's serve-time reconfiguration capability, if it has
    /// one (`None` for fixed-fabric architectures). Reconfigurable
    /// backends (ArrayFlex's pipeline span, FlexSA's tile mode)
    /// normally pick their best configuration *per GEMM shape*; the
    /// serving engine uses this capability to instead pin one
    /// configuration per observed traffic mix and price the pinned
    /// penalty — see `docs/AUTOSCALING.md`.
    fn as_reconfigurable(&self) -> Option<&dyn Reconfigurable> {
        None
    }
}

/// Serve-time reconfiguration: a backend whose fabric has a small,
/// enumerable set of configurations (pipeline spans, tile modes) that
/// normally get chosen per GEMM shape, exposed here so the serving
/// engine can pin one per observed traffic mix instead.
///
/// All quantities are pure-integer compute cycles — deterministic to
/// compare and free of float ties. `pinned_cycles` must dominate
/// `flexible_cycles` (pinning can never beat the per-shape best), so
/// the engine's pinned/flexible ratio is a well-defined latency
/// penalty `>= 1`.
pub trait Reconfigurable {
    /// Number of selectable configurations (`>= 1`).
    fn config_count(&self) -> usize;

    /// Report label of one configuration (e.g. `span4`, `sub-arrays`).
    fn config_label(&self, config: usize) -> String;

    /// Total compute cycles for `shapes` with the fabric pinned to
    /// `config`.
    fn pinned_cycles(&self, shapes: &[GemmShape], config: usize) -> u64;

    /// Total compute cycles for `shapes` with the fabric free to pick
    /// the best configuration per shape (the compile-time default).
    fn flexible_cycles(&self, shapes: &[GemmShape]) -> u64;
}

/// The seven built-in backends, constructed once on first use and
/// shared.
fn registry() -> &'static [Arc<dyn Backend>; 7] {
    static REGISTRY: OnceLock<[Arc<dyn Backend>; 7]> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        [
            Arc::new(SimdBackend::new()),
            Arc::new(TensorCoreBackend::new()),
            Arc::new(SmaBackend::iso_flop_2sma()),
            Arc::new(SmaBackend::iso_area_3sma()),
            Arc::new(TpuHostBackend::new()),
            Arc::new(ArrayFlexBackend::new()),
            Arc::new(FlexSaBackend::new()),
        ]
    })
}

/// The shared backend instance for a platform key.
pub(crate) fn backend_for(platform: Platform) -> Arc<dyn Backend> {
    let index = match platform {
        Platform::GpuSimd => 0,
        Platform::GpuTensorCore => 1,
        Platform::Sma2 => 2,
        Platform::Sma3 => 3,
        Platform::TpuHost => 4,
        Platform::ArrayFlex => 5,
        Platform::FlexSa => 6,
    };
    Arc::clone(&registry()[index])
}

#[cfg(test)]
mod tests {
    // Exact float equality in these tests asserts bit-reproducibility
    // of exactly-representable values; an epsilon would weaken them.
    #![allow(clippy::float_cmp)]

    use super::*;

    #[test]
    fn registry_hands_out_shared_instances() {
        let a = backend_for(Platform::Sma3);
        let b = backend_for(Platform::Sma3);
        assert!(Arc::ptr_eq(&a, &b), "backends must be constructed once");
        assert_eq!(a.name(), "3-SMA");
    }

    #[test]
    fn names_match_platform_labels() {
        for p in Platform::ALL {
            assert_eq!(backend_for(p).name(), p.label());
        }
    }

    #[test]
    fn gemm_cache_memoizes() {
        let cache = GemmCache::default();
        let shape = GemmShape::square(64);
        let make = || sma_core::SimdGemmModel::new(sma_sim::GpuConfig::volta()).estimate(shape);
        let first = cache.get_or_compute(shape, make);
        let again = cache.get_or_compute(shape, || panic!("must be served from cache"));
        assert_eq!(first.time_ms.to_bits(), again.time_ms.to_bits());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn gemm_cache_counters_exact_under_contention() {
        // 8 threads × 64 lookups over 16 shapes: misses must equal the
        // number of distinct shapes (one insert each, even when two
        // threads race the same shape) and every lookup must land in
        // exactly one counter.
        let cache = GemmCache::default();
        let model = sma_core::SimdGemmModel::new(sma_sim::GpuConfig::volta());
        const THREADS: u64 = 8;
        const LOOKUPS: u64 = 64;
        const SHAPES: u64 = 16;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (cache, model) = (&cache, &model);
                scope.spawn(move || {
                    for i in 0..LOOKUPS {
                        let size = 32 + 8 * ((i + t) % SHAPES) as usize;
                        let shape = GemmShape::square(size);
                        let est = cache.get_or_compute(shape, || model.estimate(shape));
                        assert!(est.time_ms > 0.0);
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.misses, SHAPES, "one insert per distinct shape");
        assert_eq!(stats.hits + stats.misses, THREADS * LOOKUPS);
        assert_eq!(cache.len() as u64, SHAPES);
    }

    #[test]
    fn dse_grid_shapes_spread_over_shards_and_buckets() {
        // The distinct GEMM shapes one pinned backend caches over the
        // DSE grid (`sma_bench::dse::DseGrid::full`): its seven networks
        // at its ten batch sizes.
        let executor = crate::Executor::new(Platform::ArrayFlex);
        let mut shapes = std::collections::BTreeSet::new();
        for network in sma_models::zoo::evaluation_networks() {
            let family = executor.plan_family(&network);
            for batch in [1, 2, 4, 8, 12, 16, 24, 32, 48, 64] {
                shapes.extend(family.gemm_shapes(batch).iter().map(|s| (s.m, s.n, s.k)));
            }
        }
        assert_eq!(shapes.len(), 1_104);

        let mut shards = vec![Vec::new(); CACHE_SHARDS];
        for &(m, n, k) in &shapes {
            let hash = shape_hash(&GemmShape::new(m, n, k));
            shards[shard_index(hash)].push(hash);
        }
        let mean = shapes.len() / CACHE_SHARDS;
        for (i, hashes) in shards.iter().enumerate() {
            assert!(
                !hashes.is_empty() && hashes.len() <= 2 * mean,
                "shard {i} holds {} of {} shapes",
                hashes.len(),
                shapes.len()
            );
            // Within a shard the map's bucket bits must spread too. A
            // uniform hash puts ~138 keys in ~107 distinct buckets of
            // the 256 a table that size grows to; shard bits that
            // overlap the bucket bits, or low bits left unmixed, leave
            // far fewer.
            let buckets: std::collections::BTreeSet<u64> =
                hashes.iter().map(|h| h & 0xff).collect();
            assert!(
                2 * buckets.len() >= hashes.len(),
                "shard {i}: {} keys in {} buckets",
                hashes.len(),
                buckets.len()
            );
        }
    }

    #[test]
    fn concurrent_readers_see_one_value_per_shape() {
        let cache = GemmCache::default();
        let model = sma_core::SimdGemmModel::new(sma_sim::GpuConfig::volta());
        let shape = GemmShape::square(96);
        let bits: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let (cache, model) = (&cache, &model);
                    scope.spawn(move || {
                        cache
                            .get_or_compute(shape, || model.estimate(shape))
                            .time_ms
                            .to_bits()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(bits.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn cache_stats_rate_and_delta() {
        let zero = CacheStats::default();
        assert_eq!(zero.hit_rate(), 0.0);
        let s = CacheStats { hits: 3, misses: 1 };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        let d = s.since(CacheStats { hits: 1, misses: 1 });
        assert_eq!((d.hits, d.misses), (2, 0));
    }

    #[test]
    fn irregular_work_classifies_layers() {
        let crf = Layer::Crf {
            pixels: 100,
            classes: 3,
            iterations: 2,
        };
        assert_eq!(
            IrregularWork::from_layer(&crf).unwrap().op,
            IrregularOp::Crf
        );
        let nms = Layer::Nms { boxes: 10 };
        assert_eq!(
            IrregularWork::from_layer(&nms).unwrap().op,
            IrregularOp::Nms { boxes: 10 }
        );
        let fc = Layer::Linear {
            in_features: 8,
            out_features: 8,
            batch: 1,
        };
        assert!(IrregularWork::from_layer(&fc).is_none());
    }

    #[test]
    fn boost_is_carried_not_baked_in() {
        let nms = Layer::Nms { boxes: 100 };
        let work = IrregularWork::from_layer(&nms).unwrap();
        assert_eq!(work.simd_boost, 1.0);
        assert_eq!(work.with_boost(3.0).simd_boost, 3.0);
    }
}
