//! Compile-once/replay-many execution plans.
//!
//! Resolving [`LayerWork`](sma_models::LayerWork) and estimating GEMM
//! latency is shape-determined and identical across invocations, so a
//! serving loop should pay it once.
//! [`Executor::try_plan`](crate::Executor::try_plan) does exactly that:
//! it walks the network once, applies the batch stacking, pre-warms the
//! backend's GEMM estimates, and freezes each layer's `(ms, path, mem,
//! sm_cycles)` contribution into a [`NetworkPlan`]. [`NetworkPlan::run`]
//! is then pure aggregation over the frozen steps: no locks, no
//! `layer.work()` recomputation, no backend dispatch, and a single
//! exactly-sized allocation for the per-layer records.
//! [`Executor::try_run`](crate::Executor::try_run) is a compile plus one
//! replay (pinned by `tests/golden_profiles.txt`).
//!
//! Every plan is built one way:
//!
//! * [`PlanFamily`] — incremental compilation. A family resolves the
//!   batch-*independent* work (layer lowering, irregular estimates, CRF
//!   hand-off) exactly once; [`PlanFamily::try_plan`] then derives a
//!   sibling plan for any batch size by rewriting only the
//!   batch-dependent GEMM steps ([`TemplateStep::instantiate`]).
//!   [`Executor::try_plan`](crate::Executor::try_plan) is a family
//!   derived at the executor's batch size, so sweeps that compile
//!   *thousands* of plans and one-off compiles run the same code.
//!
//! A derived plan lands in one of two stores, filled by the same
//! instantiate loop and read by the same step fold:
//!
//! * [`NetworkPlan`] — one plan owning its step table. The serving
//!   layer's plan caches hold these and charge [`NetworkPlan::mem_bytes`]
//!   per entry, so a plan's footprint is its own.
//! * [`PlanArena`] — a bump-allocated step table.
//!   [`PlanFamily::try_plan_into`] appends thousands of plans to one
//!   contiguous `Vec<PlannedStep>` instead of a `Vec` each;
//!   [`PlanArena::replay`] takes `&self`, so replay stays lock-free
//!   pure aggregation and scales across worker threads.
//!
//! ```
//! use sma_models::zoo;
//! use sma_runtime::{Executor, Platform};
//!
//! # fn main() -> Result<(), sma_runtime::RuntimeError> {
//! let exec = Executor::kernel_study(Platform::Sma3);
//! let net = zoo::vgg_a();
//! let plan = exec.try_plan(&net)?; // resolves work + warms the GEMM cache
//! let replay = plan.run(); // lock-free aggregation
//! assert_eq!(replay.layers.len(), plan.layer_count());
//! assert!(replay.total_ms > 0.0);
//! # Ok(())
//! # }
//! ```

use crate::backend::{Backend, ExecPath, RuntimeError};
use crate::executor::{LayerProfile, NetworkProfile};
use crate::platform::Platform;
use sma_mem::MemStats;
use sma_tensor::GemmShape;
use std::sync::Arc;

/// One frozen contribution of a [`NetworkPlan`].
///
/// Steps carry everything a replay needs; folding them into a
/// [`NetworkProfile`] in order is the whole of a replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlannedStep {
    /// A post-processing stage excluded from the profile whose host
    /// hand-off still bills (offload backends cannot finish without the
    /// host even when the CRF compute is reported separately).
    CrfHandoff {
        /// Milliseconds of host transfer.
        transfer_ms: f64,
    },
    /// A profiled layer.
    Layer {
        /// Index in the network's layer table.
        index: usize,
        /// Milliseconds on the platform (framework glue included).
        ms: f64,
        /// Which execution path runs it.
        path: ExecPath,
        /// Frozen access ledger contribution.
        mem: MemStats,
        /// Frozen occupied SM-cycles contribution.
        sm_cycles: u64,
        /// Milliseconds of host transfer contained in `ms`.
        transfer_ms: f64,
    },
}

impl PlannedStep {
    /// Folds this step into a profile (the one accumulation every
    /// replay path shares).
    pub(crate) fn apply(&self, profile: &mut NetworkProfile) {
        match *self {
            PlannedStep::CrfHandoff { transfer_ms } => {
                profile.transfer_ms += transfer_ms;
                profile.total_ms += transfer_ms;
                profile.irregular_ms += transfer_ms;
            }
            PlannedStep::Layer {
                index,
                ms,
                path,
                mem,
                sm_cycles,
                transfer_ms,
            } => {
                profile.mem += mem;
                profile.sm_cycles += sm_cycles;
                profile.transfer_ms += transfer_ms;
                match path {
                    ExecPath::MatrixEngine => profile.gemm_ms += ms,
                    ExecPath::SimdMode | ExecPath::TpuLowered | ExecPath::HostCpu => {
                        profile.irregular_ms += ms;
                    }
                }
                profile.total_ms += ms;
                profile.layers.push(LayerProfile { index, ms, path });
            }
        }
    }
}

/// A compiled execution of one network on one executor configuration.
///
/// Built by [`Executor::try_plan`](crate::Executor::try_plan) or
/// [`PlanFamily::try_plan`]. Construction
/// resolves every layer once (dispatching through the backend, which
/// pre-warms its GEMM cache); [`NetworkPlan::run`] replays the frozen
/// result without touching the backend at all, so replays take no locks
/// and record zero cache misses — the shape a high-traffic serving loop
/// or a parallel sweep wants.
#[derive(Debug, Clone)]
pub struct NetworkPlan {
    platform: Platform,
    network: Arc<str>,
    steps: Vec<PlannedStep>,
    profiled_layers: usize,
}

impl NetworkPlan {
    /// Replays the plan into a fresh profile.
    ///
    /// Pure aggregation over the frozen steps: no backend dispatch, no
    /// locking, no `layer.work()` recomputation, and the per-layer
    /// vector is allocated once at its exact final size.
    #[must_use]
    pub fn run(&self) -> NetworkProfile {
        fold_steps(
            self.platform,
            &self.network,
            &self.steps,
            self.profiled_layers,
        )
    }

    /// The platform key the plan was compiled for.
    #[must_use]
    pub const fn platform(&self) -> Platform {
        self.platform
    }

    /// The network name the plan was compiled from.
    #[must_use]
    pub fn network(&self) -> &str {
        &self.network
    }

    /// The frozen steps, in execution order.
    #[must_use]
    pub fn steps(&self) -> &[PlannedStep] {
        &self.steps
    }

    /// Number of profiled layers a replay will record.
    #[must_use]
    pub const fn layer_count(&self) -> usize {
        self.profiled_layers
    }

    /// Estimated resident size of the compiled plan in bytes: the plan
    /// header, the frozen step table, and the shared network-name
    /// buffer. A pure function of the step count and name length — the
    /// batch dimension scales `m` inside each step, not the step count,
    /// so plans of the same network cost the same bytes at every batch
    /// size. The serving layer's capacity-bounded plan cache charges
    /// and evicts by this estimate.
    #[must_use]
    pub fn mem_bytes(&self) -> u64 {
        (std::mem::size_of::<Self>()
            + self.steps.len() * std::mem::size_of::<PlannedStep>()
            + self.network.len()) as u64
    }
}

/// The one step-fold shared by every replay path.
///
/// [`NetworkPlan::run`] and [`PlanArena::replay`] both call this, so
/// heap-backed and arena-backed replays are bit-identical by
/// construction: same [`PlannedStep::apply`] calls, same order, same
/// pre-sized per-layer vector.
fn fold_steps(
    platform: Platform,
    network: &Arc<str>,
    steps: &[PlannedStep],
    profiled_layers: usize,
) -> NetworkProfile {
    let mut profile = NetworkProfile::empty(platform, Arc::clone(network), profiled_layers);
    for step in steps {
        step.apply(&mut profile);
    }
    profile
}

/// One template step of a [`PlanFamily`]: either a frozen
/// batch-independent [`PlannedStep`], or a symbolic GEMM awaiting its
/// batch dimension.
///
/// [`TemplateStep::instantiate`] is the one place a GEMM layer is
/// resolved at a batch size: every plan, from
/// [`Executor::try_plan`](crate::Executor::try_plan),
/// [`PlanFamily::try_plan`] or [`PlanFamily::try_plan_into`], is built
/// through it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TemplateStep {
    /// Batch-independent work, frozen verbatim at family-compile time
    /// (irregular layers, CRF hand-off transfers).
    Fixed(PlannedStep),
    /// A batch-dependent GEMM layer: the *unstacked* (batch-1) shape
    /// plus the framework glue the backend bills per layer. Each batch
    /// size rewrites `m` and re-queries the backend's memoised
    /// estimate.
    Gemm {
        /// Index in the network's layer table.
        index: usize,
        /// The batch-1 GEMM shape (im2col-lowered, unstacked).
        shape: GemmShape,
        /// Framework glue in ms (0.0 when the backend is glue-free).
        glue: f64,
    },
}

impl TemplateStep {
    /// Resolves the template at a batch size, dispatching GEMM steps
    /// through the backend (`shape.m *= batch`, then
    /// `est.time_ms + glue`).
    ///
    /// # Errors
    ///
    /// Propagates [`RuntimeError`] from [`Backend::gemm`].
    pub fn instantiate(
        &self,
        backend: &dyn Backend,
        batch: usize,
    ) -> Result<PlannedStep, RuntimeError> {
        match *self {
            TemplateStep::Fixed(step) => Ok(step),
            TemplateStep::Gemm {
                index,
                mut shape,
                glue,
            } => {
                // im2col GEMMs stack along `m`; callers clamp batch >= 1.
                shape.m *= batch;
                let est = backend.gemm(shape)?;
                Ok(PlannedStep::Layer {
                    index,
                    ms: est.time_ms + glue,
                    path: ExecPath::MatrixEngine,
                    mem: est.mem,
                    sm_cycles: est.sm_cycles,
                    transfer_ms: 0.0,
                })
            }
        }
    }
}

/// Incrementally-compiled plan family: one network on one executor
/// configuration, batch size left symbolic.
///
/// Built by [`Executor::plan_family`](crate::Executor::plan_family).
/// Construction resolves everything batch-*independent* exactly once —
/// layer lowering, irregular estimates, the CRF hand-off decision —
/// and records each GEMM layer as an unstacked [`TemplateStep::Gemm`].
/// [`PlanFamily::try_plan`] then derives the plan for any batch size by
/// rewriting only those GEMM steps, so compiling `B` batch variants
/// costs one full compile plus `B` sets of memoised GEMM lookups
/// instead of `B` full compiles.
///
/// [`Executor::try_plan`](crate::Executor::try_plan) is itself a family
/// derived at the executor's batch size, so family-derived and
/// from-scratch plans are one code path.
#[derive(Debug, Clone)]
pub struct PlanFamily {
    platform: Platform,
    backend: Arc<dyn Backend>,
    network: Arc<str>,
    template: Vec<TemplateStep>,
    profiled_layers: usize,
}

impl PlanFamily {
    pub(crate) fn new(
        platform: Platform,
        backend: Arc<dyn Backend>,
        network: Arc<str>,
        template: Vec<TemplateStep>,
    ) -> Self {
        // Every GEMM step instantiates to a profiled layer and every
        // fixed step is frozen as-is, so the profiled-layer count of a
        // derived plan is a property of the template: counted here, once
        // per family, for both stores.
        let profiled_layers = template
            .iter()
            .filter(|t| {
                matches!(
                    t,
                    TemplateStep::Gemm { .. } | TemplateStep::Fixed(PlannedStep::Layer { .. })
                )
            })
            .count();
        PlanFamily {
            platform,
            backend,
            network,
            template,
            profiled_layers,
        }
    }

    /// The platform key the family was compiled for.
    #[must_use]
    pub const fn platform(&self) -> Platform {
        self.platform
    }

    /// The network name the family was compiled from.
    #[must_use]
    pub fn network(&self) -> &str {
        &self.network
    }

    /// The frozen template steps, in execution order.
    #[must_use]
    pub fn template(&self) -> &[TemplateStep] {
        &self.template
    }

    /// Number of batch-dependent (GEMM) steps a batch derivation
    /// rewrites; the remaining steps are reused frozen.
    #[must_use]
    pub fn gemm_steps(&self) -> usize {
        self.template
            .iter()
            .filter(|t| matches!(t, TemplateStep::Gemm { .. }))
            .count()
    }

    /// The batch-stacked GEMM shapes this family dispatches at a batch
    /// size, in execution order. This is the family's matrix workload
    /// as a value — the DSE layer feeds it to
    /// [`sma_tensor::GemmShapeBatch`] for batched statistics kernels.
    #[must_use]
    pub fn gemm_shapes(&self, batch: usize) -> Vec<GemmShape> {
        let batch = batch.max(1);
        self.template
            .iter()
            .filter_map(|t| match *t {
                TemplateStep::Gemm { mut shape, .. } => {
                    shape.m *= batch;
                    Some(shape)
                }
                TemplateStep::Fixed(_) => None,
            })
            .collect()
    }

    /// Derives the [`NetworkPlan`] for a batch size (clamped to >= 1),
    /// rewriting only the batch-dependent GEMM steps.
    ///
    /// # Errors
    ///
    /// Propagates [`RuntimeError`] from the backend (e.g. a GEMM-only
    /// engine refusing a shape).
    pub fn try_plan(&self, batch: usize) -> Result<NetworkPlan, RuntimeError> {
        let mut steps = Vec::with_capacity(self.template.len());
        self.instantiate_into(batch, &mut steps)?;
        Ok(NetworkPlan {
            platform: self.platform,
            network: Arc::clone(&self.network),
            steps,
            profiled_layers: self.profiled_layers,
        })
    }

    /// Derives the plan for a batch size directly into an arena,
    /// returning the handle: the steps [`PlanFamily::try_plan`] would
    /// own, appended to the arena's shared region instead.
    ///
    /// # Errors
    ///
    /// Propagates [`RuntimeError`] from the backend; on error the arena
    /// is left exactly as it was (no partial plan is retained).
    pub fn try_plan_into(
        &self,
        batch: usize,
        arena: &mut PlanArena,
    ) -> Result<ArenaPlan, RuntimeError> {
        let start = arena.steps.len();
        self.instantiate_into(batch, &mut arena.steps)?;
        Ok(ArenaPlan {
            platform: self.platform,
            network: Arc::clone(&self.network),
            start,
            len: self.template.len(),
            profiled_layers: self.profiled_layers,
        })
    }

    /// The one instantiate loop: appends the template resolved at
    /// `batch` (clamped to >= 1) to `steps`, one step per template step.
    /// On error `steps` is truncated back to its length on entry.
    fn instantiate_into(
        &self,
        batch: usize,
        steps: &mut Vec<PlannedStep>,
    ) -> Result<(), RuntimeError> {
        let batch = batch.max(1);
        let start = steps.len();
        for template in &self.template {
            match template.instantiate(self.backend.as_ref(), batch) {
                Ok(step) => steps.push(step),
                Err(err) => {
                    steps.truncate(start);
                    return Err(err);
                }
            }
        }
        Ok(())
    }
}

/// A bump-allocated step table shared by many compiled plans.
///
/// [`PlanFamily::try_plan_into`] appends a plan's frozen steps to one
/// contiguous `Vec<PlannedStep>` and returns a lightweight [`ArenaPlan`]
/// handle (platform, name, offset, length). A 5,000-point sweep thus holds
/// *one* allocation region for every step table instead of one `Vec`
/// per plan, and replay walks a dense slice — cache-friendly and free
/// of per-plan allocator traffic.
///
/// The build phase takes `&mut self`; replay takes `&self` only, so
/// worker threads replay concurrently with no locks
/// ([`PlanArena::replay`] is the same pure fold as
/// [`NetworkPlan::run`], hence bit-identical to it).
#[derive(Debug, Clone, Default)]
pub struct PlanArena {
    steps: Vec<PlannedStep>,
}

impl PlanArena {
    /// An empty arena.
    #[must_use]
    pub fn new() -> Self {
        PlanArena::default()
    }

    /// An empty arena with room for `steps` frozen steps.
    #[must_use]
    pub fn with_capacity(steps: usize) -> Self {
        PlanArena {
            steps: Vec::with_capacity(steps),
        }
    }

    /// The frozen steps of one plan in the arena.
    ///
    /// # Panics
    ///
    /// Panics if `plan` was produced by a different (or shorter) arena;
    /// handles are only valid for the arena that produced them.
    #[must_use]
    pub fn steps(&self, plan: &ArenaPlan) -> &[PlannedStep] {
        &self.steps[plan.start..plan.start + plan.len]
    }

    /// Replays one plan in the arena into a fresh profile — the same
    /// lock-free pure aggregation as [`NetworkPlan::run`], and
    /// bit-identical to it (both call the one shared step fold).
    ///
    /// # Panics
    ///
    /// Panics if `plan` came from a different arena.
    #[must_use]
    pub fn replay(&self, plan: &ArenaPlan) -> NetworkProfile {
        fold_steps(
            plan.platform,
            &plan.network,
            self.steps(plan),
            plan.profiled_layers,
        )
    }

    /// Total frozen steps resident across all plans in the arena.
    #[must_use]
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the arena holds no steps.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Resident bytes of the shared step region (capacity, not just
    /// occupancy — this is what the allocator actually holds).
    #[must_use]
    pub fn mem_bytes(&self) -> u64 {
        (std::mem::size_of::<Self>() + self.steps.capacity() * std::mem::size_of::<PlannedStep>())
            as u64
    }
}

/// Replay handle for one plan stored in a [`PlanArena`]: platform
/// key, shared network name, and the step range. ~64 bytes regardless
/// of network depth — the steps live in the arena.
#[derive(Debug, Clone)]
pub struct ArenaPlan {
    platform: Platform,
    network: Arc<str>,
    start: usize,
    len: usize,
    profiled_layers: usize,
}

impl ArenaPlan {
    /// The platform key the plan was compiled for.
    #[must_use]
    pub const fn platform(&self) -> Platform {
        self.platform
    }

    /// The network name the plan was compiled from.
    #[must_use]
    pub fn network(&self) -> &str {
        &self.network
    }

    /// Number of frozen steps in the arena region.
    #[must_use]
    pub const fn step_count(&self) -> usize {
        self.len
    }

    /// Number of profiled layers a replay will record.
    #[must_use]
    pub const fn layer_count(&self) -> usize {
        self.profiled_layers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Executor;
    use sma_models::zoo;

    #[test]
    fn plan_metadata_is_frozen() {
        let exec = Executor::builder(Platform::Sma2).batch(16).build();
        let net = zoo::alexnet();
        let plan = exec.try_plan(&net).unwrap();
        assert_eq!(plan.platform(), Platform::Sma2);
        assert_eq!(plan.network(), "AlexNet");
        assert_eq!(plan.layer_count(), net.layers().len());
        assert_eq!(plan.layer_count(), plan.run().layers.len());
        assert!(plan.run().total_ms > 0.0);
    }

    #[test]
    fn skipped_crf_handoff_survives_planning() {
        // DeepLab without post-processing: on-die backends drop the CRF
        // entirely; the TPU still pays the hand-off transfer.
        let net = zoo::deeplab();
        let on_die = Executor::builder(Platform::Sma3)
            .postprocessing(false)
            .build()
            .try_plan(&net)
            .unwrap();
        assert!(on_die
            .steps()
            .iter()
            .all(|s| matches!(s, PlannedStep::Layer { .. })));
        let tpu = Executor::builder(Platform::TpuHost)
            .postprocessing(false)
            .build()
            .try_plan(&net)
            .unwrap();
        assert!(tpu
            .steps()
            .iter()
            .any(|s| matches!(s, PlannedStep::CrfHandoff { .. })));
        assert!(tpu.run().transfer_ms > 0.0);
    }

    #[test]
    fn mem_bytes_tracks_steps_not_batch() {
        let net = zoo::vgg_a();
        let b1 = Executor::builder(Platform::Sma3)
            .batch(1)
            .build()
            .try_plan(&net)
            .unwrap();
        let b16 = Executor::builder(Platform::Sma3)
            .batch(16)
            .build()
            .try_plan(&net)
            .unwrap();
        assert!(b1.mem_bytes() > 0);
        // Batch stacking scales shapes inside steps, not the step
        // count, so residency is batch-invariant.
        assert_eq!(b1.mem_bytes(), b16.mem_bytes());
        // More layers means more resident bytes.
        let small = Executor::new(Platform::Sma3)
            .try_plan(&zoo::alexnet())
            .unwrap();
        let large = Executor::new(Platform::Sma3)
            .try_plan(&zoo::googlenet())
            .unwrap();
        assert!(large.mem_bytes() > small.mem_bytes());
    }

    fn assert_profiles_bitwise(a: &NetworkProfile, b: &NetworkProfile) {
        assert_eq!(a.total_ms.to_bits(), b.total_ms.to_bits());
        assert_eq!(a.gemm_ms.to_bits(), b.gemm_ms.to_bits());
        assert_eq!(a.irregular_ms.to_bits(), b.irregular_ms.to_bits());
        assert_eq!(a.transfer_ms.to_bits(), b.transfer_ms.to_bits());
        assert_eq!(a.sm_cycles, b.sm_cycles);
        assert_eq!(a.mem, b.mem);
        assert_eq!(a.layers.len(), b.layers.len());
        for (x, y) in a.layers.iter().zip(&b.layers) {
            assert_eq!(x.index, y.index);
            assert_eq!(x.ms.to_bits(), y.ms.to_bits());
            assert_eq!(x.path, y.path);
        }
    }

    #[test]
    fn family_rewrites_only_gemm_steps() {
        let net = zoo::mask_rcnn();
        let family = Executor::new(Platform::Sma3).plan_family(&net);
        assert!(family.gemm_steps() > 0);
        assert!(family.gemm_steps() < family.template().len());
        let b1 = family.try_plan(1).unwrap();
        let b64 = family.try_plan(64).unwrap();
        for (t, (a, b)) in family
            .template()
            .iter()
            .zip(b1.steps().iter().zip(b64.steps()))
        {
            match t {
                TemplateStep::Fixed(_) => assert_eq!(a, b, "fixed step drifted across batches"),
                TemplateStep::Gemm { .. } => assert_ne!(a, b, "gemm step ignored the batch"),
            }
        }
        // The family's shape view stacks along m only.
        let s1 = family.gemm_shapes(1);
        let s16 = family.gemm_shapes(16);
        assert_eq!(s1.len(), family.gemm_steps());
        for (a, b) in s1.iter().zip(&s16) {
            assert_eq!(a.m * 16, b.m);
            assert_eq!(a.n, b.n);
            assert_eq!(a.k, b.k);
        }
    }

    #[test]
    fn family_batch_is_clamped_like_the_builder() {
        let net = zoo::alexnet();
        let family = Executor::new(Platform::Sma2).plan_family(&net);
        let a = family.try_plan(0).unwrap();
        let b = family.try_plan(1).unwrap();
        assert_eq!(a.steps(), b.steps());
    }

    #[test]
    fn arena_replay_matches_heap_replay_bitwise() {
        let mut arena = PlanArena::new();
        let mut pairs = Vec::new();
        for platform in [Platform::GpuSimd, Platform::Sma3, Platform::TpuHost] {
            for net in [zoo::alexnet(), zoo::deeplab(), zoo::mask_rcnn()] {
                let family = Executor::new(platform).plan_family(&net);
                let plan = family.try_plan(1).unwrap();
                let handle = family.try_plan_into(1, &mut arena).unwrap();
                pairs.push((plan, handle));
            }
        }
        assert_eq!(
            arena.len(),
            pairs.iter().map(|(p, _)| p.steps().len()).sum::<usize>()
        );
        for (plan, handle) in &pairs {
            assert_eq!(handle.platform(), plan.platform());
            assert_eq!(handle.network(), plan.network());
            assert_eq!(handle.step_count(), plan.steps().len());
            assert_eq!(handle.layer_count(), plan.layer_count());
            assert_eq!(arena.steps(handle), plan.steps());
            assert_profiles_bitwise(&arena.replay(handle), &plan.run());
        }
    }

    #[test]
    fn family_plans_directly_into_arena() {
        let net = zoo::googlenet();
        let family = Executor::kernel_study(Platform::Sma3).plan_family(&net);
        let mut arena = PlanArena::with_capacity(net.layers().len() * 4);
        for batch in [1usize, 4, 16, 64] {
            let handle = family.try_plan_into(batch, &mut arena).unwrap();
            let heap = family.try_plan(batch).unwrap();
            assert_eq!(arena.steps(&handle), heap.steps());
            assert_profiles_bitwise(&arena.replay(&handle), &heap.run());
        }
        assert!(arena.mem_bytes() > 0);
        assert!(!arena.is_empty());
    }

    #[test]
    fn replays_are_idempotent() {
        let plan = Executor::kernel_study(Platform::GpuTensorCore)
            .try_plan(&zoo::googlenet())
            .unwrap();
        let first = plan.run();
        for _ in 0..3 {
            let again = plan.run();
            assert_eq!(first.total_ms.to_bits(), again.total_ms.to_bits());
            assert_eq!(first.layers.len(), again.layers.len());
        }
    }
}
