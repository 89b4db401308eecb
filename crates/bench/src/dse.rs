//! Design-space exploration grid over the reconfigurable backends.
//!
//! The question the paper's §V only samples — *which* pipeline span or
//! tile mode wins for *which* network at *which* batch, and how much
//! on-chip cache that choice needs — is answered here exhaustively: a
//! pinned-configuration grid of
//!
//! * ArrayFlex **pipeline span** ∈ {1, 2, 4} ([`PipelineConfig::ALL`]),
//! * FlexSA **tile mode** ∈ {full 16×16, 4×8×8 sub-arrays}
//!   ([`FlexSaMode::ALL`]),
//! * **batch** ∈ {1, 2, 4, 8, 12, 16, 24, 32, 48, 64},
//! * **weight-cache budget** ∈ {4 … 96} KiB, and
//! * all seven evaluation **networks**,
//!
//! 5 040 points in all — ~50× the 98-task sweep grid — at the same
//! order of wall-clock, because every point is a table lookup instead
//! of a re-plan:
//!
//! 1. [`DseGrid::compile`] builds one [`PlanFamily`](sma_runtime::PlanFamily)
//!    per pinned backend × network (35 families). Each family task does
//!    its batch-independent work once — the sorted weight-panel
//!    footprints, shared by the family's outcomes, and the unstacked
//!    shape columns that [`GemmShapeBatch::stacked`] scales per batch —
//!    then derives the plan at every batch point (350 plans in all,
//!    only the GEMM steps re-estimated per batch), replays it once and
//!    drops it, so one plan is held at a time. Each outcome renders, on
//!    the worker that planned it, its candidate's JSON fragment and the
//!    winner/throughput tail of any row it wins: every float a row
//!    holds. The 35 families are independent, so they
//!    plan through the sweep module's [`run_ordered`] on as many
//!    workers as the host has cores (`available_parallelism`;
//!    `SMA_SWEEP_THREADS` sizes only the row fan-out). The tasks run
//!    backend-minor (the five pinned backends of one network, then the
//!    next network), so tasks running at the same time hit different
//!    backends' GEMM caches. The result does not depend on the worker
//!    count. Compile then builds one *cell* per span × mode × network ×
//!    batch (420 cells), serially: both candidates' outcomes, the
//!    winner, its throughput, and the row's JSON with everything that
//!    does not depend on the budget already rendered — the cell's head,
//!    the two fragments and the winner's tail concatenated into one
//!    exactly sized buffer, with no float left to format. Only the
//!    plans' step count survives ([`DseCompiled::arena_steps`]).
//! 2. [`DseCompiled::row`] is then a lookup: it decodes the index once,
//!    counts each candidate's budget-resident GEMM layers (a binary
//!    search over its sorted weight footprints) and shares the cell.
//!    [`DseRow::write_json`] splices the index, the budget, the two
//!    resident counts and the two `fits` flags into the cell's
//!    fragments — no planning, no replay, no float formatting.
//!    [`DseReport::from_rows`] walks the same fragments and values
//!    straight into its FNV chain, so the summary digest never renders
//!    a row.
//!
//! The budget axis is descriptive, not predictive: a GEMM layer is
//! *resident* when its full weight panel (`k × n` at f16) fits the
//! budget, so its B-tiles stream from cache instead of DRAM; a point
//! *fits* when every GEMM layer of the winning candidate is resident.
//! Modelled latencies are untouched — they stay bit-identical to
//! [`Executor::try_plan`] + replay, which is what the proptests pin.
//!
//! The `dse` binary fans [`DseCompiled::row`] across the sweep module's
//! work-stealing driver and streams rows through
//! [`StreamWriter`](crate::stream::StreamWriter); the committed
//! `BENCH_dse.json` carries only the deterministic summary (axes,
//! winner tallies, chained row digest), the gitignored
//! `BENCH_dse_rows.json` the full rows, and the gitignored
//! `BENCH_dse_timing.json` the wall-clock and the headline
//! **points/sec**.

use crate::stream::{fnv1a64_chain, fnv1a64_seed};
use crate::sweep::{escape_json, run_ordered};
use sma_models::{zoo, Network};
use sma_runtime::backend::{ArrayFlexBackend, FlexSaBackend, FlexSaMode, PipelineConfig};
use sma_runtime::{Executor, Platform};
use sma_tensor::{GemmShape, GemmShapeBatch};
use std::fmt::Write as _;
use std::num::NonZeroUsize;
use std::sync::Arc;

/// f16 bytes per element — the precision the weight-residency axis
/// assumes (the paper's FP16-pair GPU integration).
const WEIGHT_ELEM_BYTES: u64 = 2;

/// One grid point's coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DsePoint {
    /// ArrayFlex pipeline configuration (index into the grid's spans).
    pub span: PipelineConfig,
    /// FlexSA tile mode.
    pub mode: FlexSaMode,
    /// Inference batch size.
    pub batch: usize,
    /// Weight-cache budget in KiB.
    pub budget_kib: u64,
    /// Index into the grid's network list.
    pub network: usize,
}

/// The five-axis pinned-configuration grid (see the module docs).
#[derive(Debug)]
pub struct DseGrid {
    spans: Vec<PipelineConfig>,
    modes: Vec<FlexSaMode>,
    batches: Vec<usize>,
    budgets_kib: Vec<u64>,
    networks: Vec<Network>,
}

impl DseGrid {
    /// The full 5 040-point grid: every span × mode × ten batches ×
    /// twelve budgets × the seven evaluation networks.
    #[must_use]
    pub fn full() -> Self {
        DseGrid {
            spans: PipelineConfig::ALL.to_vec(),
            modes: FlexSaMode::ALL.to_vec(),
            batches: vec![1, 2, 4, 8, 12, 16, 24, 32, 48, 64],
            budgets_kib: vec![4, 6, 8, 10, 12, 16, 20, 24, 32, 48, 64, 96],
            networks: zoo::evaluation_networks(),
        }
    }

    /// A 48-point corner of the grid for CI smoke runs and tests: all
    /// spans and modes, batches {1, 16}, budgets {8, 64} KiB, two
    /// networks.
    #[must_use]
    pub fn smoke() -> Self {
        DseGrid {
            spans: PipelineConfig::ALL.to_vec(),
            modes: FlexSaMode::ALL.to_vec(),
            batches: vec![1, 16],
            budgets_kib: vec![8, 64],
            networks: vec![zoo::alexnet(), zoo::goturn()],
        }
    }

    /// Total points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.len()
            * self.modes.len()
            * self.batches.len()
            * self.budgets_kib.len()
            * self.networks.len()
    }

    /// True for a degenerate grid (an axis is empty).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The networks axis.
    #[must_use]
    pub fn networks(&self) -> &[Network] {
        &self.networks
    }

    /// Decodes point `index` under the documented axis nesting —
    /// span-major, then mode, batch, budget, with network innermost —
    /// so a `SMA_DSE_POINTS` prefix still varies the inner axes first.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[must_use]
    pub fn point(&self, index: usize) -> DsePoint {
        self.point_at(self.slots(index))
    }

    fn point_at(&self, slots: AxisSlots) -> DsePoint {
        DsePoint {
            span: self.spans[slots.span],
            mode: self.modes[slots.mode],
            batch: self.batches[slots.batch],
            budget_kib: self.budgets_kib[slots.budget],
            network: slots.network,
        }
    }

    /// Raw axis slots of point `index` under the documented nesting.
    fn slots(&self, index: usize) -> AxisSlots {
        // An out-of-range index is a driver bug; the work-stealing
        // cursor never exceeds the count it is given.
        assert!(index < self.len(), "point {index} out of range");
        let network = index % self.networks.len();
        let rest = index / self.networks.len();
        let budget = rest % self.budgets_kib.len();
        let rest = rest / self.budgets_kib.len();
        let batch = rest % self.batches.len();
        let rest = rest / self.batches.len();
        AxisSlots {
            network,
            budget,
            batch,
            mode: rest % self.modes.len(),
            span: rest / self.modes.len(),
        }
    }

    /// Index of the cell holding every point at these slots but the
    /// budget: the point nesting with the budget axis left out.
    fn cell_index(&self, slots: AxisSlots) -> usize {
        ((slots.span * self.modes.len() + slots.mode) * self.batches.len() + slots.batch)
            * self.networks.len()
            + slots.network
    }

    /// Plans and replays every candidate once, then builds the cell
    /// table (see the module docs); the result evaluates points with
    /// `&self` only. The 35 families plan on as many workers as the
    /// host has cores; the output does not depend on the count.
    #[must_use]
    pub fn compile(self) -> DseCompiled {
        let workers = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        self.compile_on(workers)
    }

    /// [`DseGrid::compile`] with the family fan-out on `workers`
    /// workers (the caller among them).
    fn compile_on(self, workers: usize) -> DseCompiled {
        let executors: Vec<Executor> = self
            .spans
            .iter()
            .map(|&span| {
                Executor::builder(Platform::ArrayFlex)
                    .backend(Arc::new(ArrayFlexBackend::pinned(span)))
                    .build()
            })
            .chain(self.modes.iter().map(|&mode| {
                Executor::builder(Platform::FlexSa)
                    .backend(Arc::new(FlexSaBackend::pinned(mode)))
                    .build()
            }))
            .collect();

        // Task `t` plans backend `t % backends` for network
        // `t / backends`, so tasks that run at the same time hit
        // different backends' GEMM caches.
        let backends = executors.len();
        let (families, _) = run_ordered(backends * self.networks.len(), workers, |t| {
            let (backend, network) = (t % backends, t / backends);
            self.plan_candidates(&executors[backend], backend, &self.networks[network])
        });
        let arena_steps = families.iter().map(|(_, steps)| steps).sum();
        // outcome(backend, network)[batch]; backends are the spans
        // followed by the modes.
        let outcome = |backend: usize, network: usize| &families[network * backends + backend].0;

        let mut cells = Vec::with_capacity(self.len() / self.budgets_kib.len().max(1));
        for (s, &span) in self.spans.iter().enumerate() {
            for (m, &mode) in self.modes.iter().enumerate() {
                for (b, &batch) in self.batches.iter().enumerate() {
                    for (n, net) in self.networks.iter().enumerate() {
                        let candidates = [
                            Arc::clone(&outcome(s, n)[b]),
                            Arc::clone(&outcome(self.spans.len() + m, n)[b]),
                        ];
                        let cell = DseCell::new(net.name_shared(), span, mode, batch, candidates);
                        cells.push(Arc::new(cell));
                    }
                }
            }
        }
        DseCompiled {
            arena_steps,
            grid: self,
            cells,
        }
    }

    /// Plans `exec`'s family for `net` at every batch point, replaying
    /// each plan once; returns the per-batch outcomes and the plan
    /// steps the family derived.
    fn plan_candidates(
        &self,
        exec: &Executor,
        backend: usize,
        net: &Network,
    ) -> (Vec<Arc<DseOutcome>>, usize) {
        let name = exec.backend().name();
        let family = exec.plan_family(net);
        // Weight panels (`k × n`) and the unstacked shape columns do not
        // depend on the batch: built once, shared by every outcome.
        let unstacked = family.gemm_shapes(1);
        let mut weight_bytes: Vec<u64> = unstacked.iter().map(weight_footprint).collect();
        weight_bytes.sort_unstable();
        let weight_bytes: Arc<[u64]> = weight_bytes.into();
        let columns = GemmShapeBatch::from_shapes(&unstacked);
        let mut steps = 0;
        let outcomes = self
            .batches
            .iter()
            .map(|&batch| {
                // Each plan is read once, so only one is held at a time.
                let total_ms = family
                    .try_plan(batch)
                    .map(|plan| {
                        steps += plan.steps().len();
                        plan.run().total_ms
                    })
                    .map_err(|e| e.to_string());
                let intensity_f16 = columns
                    .stacked(batch)
                    .arithmetic_intensity(WEIGHT_ELEM_BYTES as usize);
                Arc::new(DseOutcome::new(
                    name,
                    backend,
                    batch,
                    total_ms,
                    Arc::clone(&weight_bytes),
                    intensity_f16,
                ))
            })
            .collect();
        (outcomes, steps)
    }
}

/// Raw per-axis indices of one grid point.
#[derive(Debug, Clone, Copy)]
struct AxisSlots {
    span: usize,
    mode: usize,
    batch: usize,
    budget: usize,
    network: usize,
}

/// Bytes of one GEMM layer's full weight panel at f16 — the
/// batch-independent `k × n` operand the residency axis budgets for
/// (batch stacking multiplies `m`, never the weights).
const fn weight_footprint(shape: &GemmShape) -> u64 {
    (shape.k as u64) * (shape.n as u64) * WEIGHT_ELEM_BYTES
}

/// One pinned backend × network × batch, planned and replayed once at
/// compile. Nothing here depends on the budget.
#[derive(Debug)]
pub struct DseOutcome {
    name: &'static str,
    /// Position of the backend in the compile's list: the spans, then
    /// the modes. Summaries tally winners by it.
    backend: usize,
    total_ms: Result<f64, String>,
    /// Per-GEMM-layer weight-panel bytes, ascending; one allocation
    /// shared by every batch of the family.
    weight_bytes: Arc<[u64]>,
    intensity_f16: f64,
    /// Inferences per second when this candidate wins (`batch /
    /// total_ms`), 0 if it was rejected.
    throughput_ips: f64,
    /// `json[..tail_at]` is the candidate's JSON object after its
    /// opening brace, with the two per-row values cut out: `cuts[0]` is
    /// where the resident count goes, `cuts[1]` the `fits` flag.
    /// `json[tail_at..]` is the row's winner/throughput tail for a cell
    /// this candidate wins (empty if it was rejected).
    json: String,
    cuts: [usize; 2],
    tail_at: usize,
}

impl DseOutcome {
    /// Builds the outcome at `batch` and renders its JSON fragment and
    /// winner tail: the one place a row's floats are formatted.
    fn new(
        name: &'static str,
        backend: usize,
        batch: usize,
        total_ms: Result<f64, String>,
        weight_bytes: Arc<[u64]>,
        intensity_f16: f64,
    ) -> Self {
        let throughput_ips = match total_ms {
            Ok(ms) if ms > 0.0 => batch as f64 * 1e3 / ms,
            _ => 0.0,
        };
        let mut json = format!("\"backend\": \"{name}\", ");
        let _ = match &total_ms {
            Ok(ms) => write!(json, "\"total_ms\": {ms:.6}, "),
            Err(reason) => write!(json, "\"rejected\": \"{}\", ", escape_json(reason)),
        };
        json.push_str("\"resident_gemms\": ");
        let resident_cut = json.len();
        let _ = write!(json, ", \"gemms\": {}, \"fits\": ", weight_bytes.len());
        let fits_cut = json.len();
        let _ = write!(json, ", \"ai_f16\": {intensity_f16:.3}}}");
        let tail_at = json.len();
        if total_ms.is_ok() {
            let _ = write!(
                json,
                ", \"winner\": \"{name}\", \"throughput_ips\": {throughput_ips:.3}}}"
            );
        }
        DseOutcome {
            name,
            backend,
            total_ms,
            weight_bytes,
            intensity_f16,
            throughput_ips,
            json,
            cuts: [resident_cut, fits_cut],
            tail_at,
        }
    }

    /// Pinned backend name (e.g. `ArrayFlex-span2`, `FlexSA-sub`).
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The modelled latency, or the planning rejection.
    ///
    /// # Errors
    ///
    /// The rejection reason when the candidate failed to plan.
    pub fn total_ms(&self) -> Result<f64, &str> {
        self.total_ms.as_ref().copied().map_err(String::as_str)
    }

    /// Total GEMM layers.
    #[must_use]
    pub(crate) fn gemms(&self) -> usize {
        self.weight_bytes.len()
    }

    /// Aggregate f16 arithmetic intensity of the batch-stacked GEMMs.
    #[must_use]
    pub fn intensity_f16(&self) -> f64 {
        self.intensity_f16
    }

    /// GEMM layers whose weight panel fits `budget_bytes`.
    fn resident_gemms(&self, budget_bytes: u64) -> usize {
        self.weight_bytes.partition_point(|&w| w <= budget_bytes)
    }

    /// The candidate's JSON object, per-row values cut out.
    fn fragment(&self) -> &str {
        &self.json[..self.tail_at]
    }

    /// The row tail of a cell this candidate wins.
    fn winner_tail(&self) -> &str {
        &self.json[self.tail_at..]
    }
}

/// Everything the rows of one span × mode × network × batch share —
/// i.e. all but the budget (see the module docs).
#[derive(Debug)]
struct DseCell {
    network: Arc<str>,
    /// `[arrayflex, flexsa]`.
    candidates: [Arc<DseOutcome>; 2],
    /// Index into `candidates` of the lowest latency among those that
    /// planned (`None` if both were rejected).
    winner: Option<usize>,
    /// The row's JSON with the per-row values cut out; `cuts[k]` is the
    /// byte offset where value `k` of `DseRow::spliced` goes.
    json: String,
    cuts: [usize; 6],
}

/// The literal between the two candidates' fragments of a row.
const FLEXSA_KEY: &str = ", \"flexsa\": {";

/// The row tail of a cell whose candidates were both rejected.
const NO_WINNER_TAIL: &str = ", \"winner\": \"none\", \"throughput_ips\": 0.000}";

impl DseCell {
    /// Concatenates the cell's JSON into one exactly sized buffer: the
    /// head, both candidates' pre-rendered fragments, and the winner's
    /// pre-rendered tail. No float is formatted here.
    fn new(
        network: Arc<str>,
        span: PipelineConfig,
        mode: FlexSaMode,
        batch: usize,
        candidates: [Arc<DseOutcome>; 2],
    ) -> Self {
        let winner = match (&candidates[0].total_ms, &candidates[1].total_ms) {
            (Ok(a), Ok(f)) => Some(if *a <= *f { 0 } else { 1 }),
            (Ok(_), Err(_)) => Some(0),
            (Err(_), Ok(_)) => Some(1),
            (Err(_), Err(_)) => None,
        };

        let mut head = String::from("{\"i\": ");
        let index_cut = head.len();
        let _ = write!(
            head,
            ", \"span\": {}, \"mode\": \"{}\", \"batch\": {batch}, \"budget_kib\": ",
            span.span(),
            mode_label(mode),
        );
        let budget_cut = head.len();
        let _ = write!(
            head,
            ", \"network\": \"{}\", \"arrayflex\": {{",
            escape_json(&network)
        );

        let [arrayflex, flexsa] = [&candidates[0], &candidates[1]];
        let tail = winner.map_or(NO_WINNER_TAIL, |w| candidates[w].winner_tail());
        let (arrayflex_json, flexsa_json) = (arrayflex.fragment(), flexsa.fragment());
        let mut json = String::with_capacity(
            head.len() + arrayflex_json.len() + FLEXSA_KEY.len() + flexsa_json.len() + tail.len(),
        );
        json.push_str(&head);
        let arrayflex_at = json.len();
        json.push_str(arrayflex_json);
        json.push_str(FLEXSA_KEY);
        let flexsa_at = json.len();
        json.push_str(flexsa_json);
        json.push_str(tail);
        let cuts = [
            index_cut,
            budget_cut,
            arrayflex_at + arrayflex.cuts[0],
            arrayflex_at + arrayflex.cuts[1],
            flexsa_at + flexsa.cuts[0],
            flexsa_at + flexsa.cuts[1],
        ];
        DseCell {
            network,
            candidates,
            winner,
            json,
            cuts,
        }
    }
}

/// One evaluated grid point: its budget-dependent values plus a shared
/// handle on its cell.
#[derive(Debug, Clone)]
pub struct DseRow {
    index: usize,
    point: DsePoint,
    /// Budget-resident GEMM layers, `[arrayflex, flexsa]`.
    resident_gemms: [usize; 2],
    cell: Arc<DseCell>,
}

/// A value [`DseRow::write_json`] splices into a cell's fragments.
#[derive(Clone, Copy)]
enum Spliced {
    Uint(u64),
    Bool(bool),
}

const fn json_bool(b: bool) -> &'static str {
    if b {
        "true"
    } else {
        "false"
    }
}

impl Spliced {
    fn len(self) -> usize {
        match self {
            Spliced::Uint(n) => n.checked_ilog10().map_or(1, |d| d as usize + 1),
            Spliced::Bool(b) => json_bool(b).len(),
        }
    }

    /// Hands the value's JSON bytes to `byte`, most significant digit
    /// first.
    fn for_each_byte(self, mut byte: impl FnMut(u8)) {
        match self {
            Spliced::Uint(n) => {
                let mut unit = 10u64.pow(n.checked_ilog10().unwrap_or(0));
                while unit > 0 {
                    byte(b'0' + (n / unit % 10) as u8);
                    unit /= 10;
                }
            }
            Spliced::Bool(b) => json_bool(b).bytes().for_each(byte),
        }
    }
}

/// Where [`DseRow::splice`] sends a row's JSON: the cell's fragments as
/// text, the spliced values byte by byte.
trait RowSink {
    fn text(&mut self, text: &str);
    fn byte(&mut self, byte: u8);
}

impl RowSink for String {
    fn text(&mut self, text: &str) {
        self.push_str(text);
    }

    fn byte(&mut self, byte: u8) {
        self.push(char::from(byte));
    }
}

/// A chained FNV-1a 64 state fed a row's bytes without rendering them.
struct RowDigest(u64);

impl RowSink for RowDigest {
    fn text(&mut self, text: &str) {
        self.0 = fnv1a64_chain(self.0, text.as_bytes());
    }

    fn byte(&mut self, byte: u8) {
        self.0 = fnv1a64_chain(self.0, &[byte]);
    }
}

impl DseRow {
    /// The point's coordinates.
    #[must_use]
    pub fn point(&self) -> DsePoint {
        self.point
    }

    /// The ArrayFlex candidate at the point's span.
    #[must_use]
    pub fn arrayflex(&self) -> &DseOutcome {
        &self.cell.candidates[0]
    }

    /// The FlexSA candidate at the point's mode.
    #[must_use]
    pub fn flexsa(&self) -> &DseOutcome {
        &self.cell.candidates[1]
    }

    /// GEMM layers whose weight panel fits the point's budget,
    /// `[arrayflex, flexsa]`.
    #[must_use]
    pub fn resident_gemms(&self) -> [usize; 2] {
        self.resident_gemms
    }

    /// Whether each candidate is fully weight-resident,
    /// `[arrayflex, flexsa]`.
    fn fits(&self) -> [bool; 2] {
        [0, 1].map(|k| self.resident_gemms[k] == self.cell.candidates[k].gemms())
    }

    /// The winning candidate — lowest modelled latency among the
    /// candidates that planned successfully (`None` if both rejected).
    #[must_use]
    pub(crate) fn winner(&self) -> Option<&DseOutcome> {
        self.cell.winner.map(|w| &*self.cell.candidates[w])
    }

    /// True when the winner exists and is fully weight-resident.
    fn winner_fits(&self) -> bool {
        self.cell.winner.is_some_and(|w| self.fits()[w])
    }

    /// Winner inferences per second (`batch / total_ms`), 0 if both
    /// candidates were rejected.
    #[must_use]
    pub fn throughput_ips(&self) -> f64 {
        self.winner().map_or(0.0, |w| w.throughput_ips)
    }

    /// The per-row values in cut order: index, budget, then each
    /// candidate's resident count and `fits` flag.
    fn spliced(&self) -> [Spliced; 6] {
        let [resident_a, resident_f] = self.resident_gemms;
        let [fits_a, fits_f] = self.fits();
        [
            Spliced::Uint(self.index as u64),
            Spliced::Uint(self.point.budget_kib),
            Spliced::Uint(resident_a as u64),
            Spliced::Bool(fits_a),
            Spliced::Uint(resident_f as u64),
            Spliced::Bool(fits_f),
        ]
    }

    /// Bytes [`DseRow::write_json`] appends.
    #[must_use]
    pub fn json_len(&self) -> usize {
        self.cell.json.len() + self.spliced().iter().map(|v| v.len()).sum::<usize>()
    }

    /// Walks the row's JSON in byte order into `sink`: each cell
    /// fragment, then the value spliced after it. The one splice loop
    /// behind both [`DseRow::write_json`] and the summary digest.
    fn splice(&self, sink: &mut impl RowSink) {
        let json = &self.cell.json;
        let mut from = 0;
        for (value, &cut) in self.spliced().into_iter().zip(&self.cell.cuts) {
            sink.text(&json[from..cut]);
            value.for_each_byte(|b| sink.byte(b));
            from = cut;
        }
        sink.text(&json[from..]);
    }

    /// Appends the row as one JSON object (no trailing newline). Size
    /// `out` with [`DseRow::json_len`] to write without reallocating.
    pub fn write_json(&self, out: &mut String) {
        self.splice(out);
    }

    /// `fnv1a64_chain(seed, self.to_json())`, without rendering the
    /// row.
    fn chain_digest(&self, seed: u64) -> u64 {
        let mut digest = RowDigest(seed);
        self.splice(&mut digest);
        digest.0
    }

    /// Renders the row as one JSON object (no trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.json_len());
        self.write_json(&mut out);
        out
    }
}

/// Short label for a FlexSA mode in rows and summaries.
#[must_use]
pub(crate) fn mode_label(mode: FlexSaMode) -> &'static str {
    match mode {
        FlexSaMode::FullArray => "full",
        FlexSaMode::SubArrays => "sub",
    }
}

/// A compiled grid: the cell table. Point evaluation
/// ([`DseCompiled::row`]) takes `&self` and is thread-safe.
#[derive(Debug)]
pub struct DseCompiled {
    grid: DseGrid,
    /// One cell per span × mode × batch × network, in
    /// `DseGrid::cell_index` order.
    cells: Vec<Arc<DseCell>>,
    arena_steps: usize,
}

impl DseCompiled {
    /// The grid this table was compiled from.
    #[must_use]
    pub fn grid(&self) -> &DseGrid {
        &self.grid
    }

    /// Evaluates point `index`: looks up its cell and counts each
    /// candidate's GEMM layers resident at the point's budget. Pure and
    /// lock-free — safe to call from any number of threads.
    ///
    /// # Panics
    ///
    /// Panics if `index >= grid.len()` (driver bug; see
    /// [`DseGrid::point`]).
    #[must_use]
    pub fn row(&self, index: usize) -> DseRow {
        let slots = self.grid.slots(index);
        let point = self.grid.point_at(slots);
        let cell = &self.cells[self.grid.cell_index(slots)];
        let budget_bytes = point.budget_kib * 1024;
        DseRow {
            index,
            point,
            resident_gemms: [0, 1].map(|k| cell.candidates[k].resident_gemms(budget_bytes)),
            cell: Arc::clone(cell),
        }
    }

    /// Plan steps the compile derived, summed over all 350 plans of the
    /// full grid (18,200). Each plan is dropped after its one replay;
    /// no arena holds them.
    #[must_use]
    pub fn arena_steps(&self) -> usize {
        self.arena_steps
    }
}

/// The deterministic summary committed as `BENCH_dse.json`.
#[derive(Debug, Clone)]
pub struct DseReport {
    /// Points evaluated (the whole grid, or a `SMA_DSE_POINTS` prefix).
    pub points: usize,
    /// Chained FNV-1a 64 digest over every row's JSON, in index order.
    pub rows_digest: u64,
    /// `(backend name, points won)` in first-seen row order, plus a
    /// final `("none", …)` tally for doubly-rejected points.
    pub winners: Vec<(&'static str, usize)>,
    /// Points whose winner is fully weight-resident at the budget.
    pub resident_points: usize,
    /// `(network, arrayflex wins, flexsa wins)` in network-axis order.
    pub per_network: Vec<(Arc<str>, usize, usize)>,
}

impl DseReport {
    /// Aggregates rows (digesting their JSON in index order — rows must
    /// be passed sorted by index, as the streaming slots table yields
    /// them). The digest walks each row's fragments and values without
    /// rendering it; winners and networks are tallied by index.
    #[must_use]
    pub fn from_rows(rows: &[DseRow]) -> Self {
        let mut digest = fnv1a64_seed();
        let mut winners: Vec<(&'static str, usize)> = Vec::new();
        let mut resident_points = 0;
        let mut per_network: Vec<(Arc<str>, usize, usize)> = Vec::new();
        // Tally slots by key: a winner's key is its backend position
        // plus one (0 is "none"), a network's its axis position.
        let (mut winner_slots, mut network_slots) = (Vec::new(), Vec::new());
        for row in rows {
            digest = row.chain_digest(digest);
            let winner = row.winner();
            let key = winner.map_or(0, |w| w.backend + 1);
            let slot = first_seen(&mut winner_slots, &mut winners, key, || {
                (winner.map_or("none", |w| w.name), 0)
            });
            winners[slot].1 += 1;
            if row.winner_fits() {
                resident_points += 1;
            }
            let slot = first_seen(
                &mut network_slots,
                &mut per_network,
                row.point.network,
                || (Arc::clone(&row.cell.network), 0, 0),
            );
            // Candidate 0 is the ArrayFlex one, 1 the FlexSA one.
            match row.cell.winner {
                Some(0) => per_network[slot].1 += 1,
                Some(_) => per_network[slot].2 += 1,
                None => {}
            }
        }
        DseReport {
            points: rows.len(),
            rows_digest: digest,
            winners,
            resident_points,
            per_network,
        }
    }

    /// Renders the committed summary as JSON. Nothing wall-derived —
    /// CI byte-diffs this file across two runs.
    #[must_use]
    pub fn to_json(&self, grid: &DseGrid) -> String {
        let mut out = String::from("{\n  \"grid\": {\n");
        let _ = write!(
            out,
            "    \"spans\": [{}],\n    \"modes\": [{}],\n    \"batches\": [{}],\n    \"cache_budgets_kib\": [{}],\n    \"networks\": [{}]\n  }},\n",
            join_with(&grid.spans, |s| s.span().to_string()),
            join_with(&grid.modes, |&m| format!("\"{}\"", mode_label(m))),
            join_with(&grid.batches, ToString::to_string),
            join_with(&grid.budgets_kib, ToString::to_string),
            join_with(grid.networks(), |n| format!("\"{}\"", escape_json(n.name()))),
        );
        let _ = write!(
            out,
            "  \"points\": {},\n  \"rows_digest\": \"{:016x}\",\n  \"resident_points\": {},\n  \"winners\": {{\n",
            self.points, self.rows_digest, self.resident_points
        );
        for (i, (name, count)) in self.winners.iter().enumerate() {
            let comma = if i + 1 == self.winners.len() { "" } else { "," };
            let _ = writeln!(out, "    \"{name}\": {count}{comma}");
        }
        out.push_str("  },\n  \"per_network\": {\n");
        for (i, (name, af, fs)) in self.per_network.iter().enumerate() {
            let comma = if i + 1 == self.per_network.len() {
                ""
            } else {
                ","
            };
            let _ = writeln!(
                out,
                "    \"{}\": {{\"arrayflex_wins\": {af}, \"flexsa_wins\": {fs}}}{comma}",
                escape_json(name)
            );
        }
        out.push_str("  }\n}\n");
        out
    }
}

/// Position in `tally` of the entry keyed `key`, pushing `fresh()` the
/// first time the key shows up, so `tally` stays in first-seen order.
fn first_seen<T>(
    slots: &mut Vec<Option<usize>>,
    tally: &mut Vec<T>,
    key: usize,
    fresh: impl FnOnce() -> T,
) -> usize {
    if slots.len() <= key {
        slots.resize(key + 1, None);
    }
    *slots[key].get_or_insert_with(|| {
        tally.push(fresh());
        tally.len() - 1
    })
}

fn join_with<T>(items: &[T], f: impl Fn(&T) -> String) -> String {
    items.iter().map(f).collect::<Vec<_>>().join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The full grid, compiled once for every test that walks it.
    fn full() -> &'static DseCompiled {
        static FULL: OnceLock<DseCompiled> = OnceLock::new();
        FULL.get_or_init(|| DseGrid::full().compile())
    }

    /// The `write!`-based renderer the spliced rows replaced, kept as
    /// their oracle: it re-derives the winner and the throughput from
    /// the outcomes and formats every value at render time.
    fn reference_json(row: &DseRow) -> String {
        fn outcome(out: &mut String, key: &str, o: &DseOutcome, resident: usize) {
            let _ = write!(out, "\"{key}\": {{\"backend\": \"{}\", ", o.name());
            match o.total_ms() {
                Ok(ms) => {
                    let _ = write!(out, "\"total_ms\": {ms:.6}, ");
                }
                Err(reason) => {
                    let _ = write!(out, "\"rejected\": \"{}\", ", escape_json(reason));
                }
            }
            let _ = write!(
                out,
                "\"resident_gemms\": {}, \"gemms\": {}, \"fits\": {}, \"ai_f16\": {:.3}}}",
                resident,
                o.gemms(),
                resident == o.gemms(),
                o.intensity_f16()
            );
        }

        let (point, a, f) = (row.point(), row.arrayflex(), row.flexsa());
        let winner = match (a.total_ms(), f.total_ms()) {
            (Ok(x), Ok(y)) => Some(if x <= y { a } else { f }),
            (Ok(_), Err(_)) => Some(a),
            (Err(_), Ok(_)) => Some(f),
            (Err(_), Err(_)) => None,
        };
        let throughput = match winner.map(DseOutcome::total_ms) {
            Some(Ok(ms)) if ms > 0.0 => point.batch as f64 * 1e3 / ms,
            _ => 0.0,
        };
        let mut out = String::with_capacity(256);
        let _ = write!(
            out,
            "{{\"i\": {}, \"span\": {}, \"mode\": \"{}\", \"batch\": {}, \"budget_kib\": {}, \"network\": \"{}\", ",
            row.index,
            point.span.span(),
            mode_label(point.mode),
            point.batch,
            point.budget_kib,
            escape_json(&row.cell.network),
        );
        let [resident_a, resident_f] = row.resident_gemms();
        outcome(&mut out, "arrayflex", a, resident_a);
        out.push_str(", ");
        outcome(&mut out, "flexsa", f, resident_f);
        let _ = write!(
            out,
            ", \"winner\": \"{}\", \"throughput_ips\": {throughput:.3}}}",
            winner.map_or("none", DseOutcome::name),
        );
        out
    }

    /// Asserts the spliced row equals the oracle and fills an exactly
    /// sized buffer.
    fn assert_splices_like_the_oracle(row: &DseRow) {
        let json = row.to_json();
        assert_eq!(json, reference_json(row), "row {} diverged", row.index);
        assert_eq!(json.len(), row.json_len());
        assert_eq!(json.capacity(), json.len(), "row {} reallocated", row.index);
    }

    /// Asserts the render-free digest equals the hash of the rendered
    /// row, chained from `seed`, and returns it.
    fn assert_digests_like_the_render(row: &DseRow, seed: u64) -> u64 {
        let digest = row.chain_digest(seed);
        assert_eq!(
            digest,
            fnv1a64_chain(seed, row.to_json().as_bytes()),
            "row {} digest diverged",
            row.index
        );
        digest
    }

    /// An outcome built through the compile's own constructor, so its
    /// fragment comes from the one renderer.
    fn outcome(
        name: &'static str,
        backend: usize,
        batch: usize,
        total_ms: Result<f64, String>,
        weights: &[u64],
    ) -> DseOutcome {
        DseOutcome::new(name, backend, batch, total_ms, weights.into(), 12.3456)
    }

    #[test]
    fn full_grid_meets_the_issue_floor() {
        let grid = DseGrid::full();
        assert!(grid.len() >= 5_000, "grid has {} points", grid.len());
        assert_eq!(grid.len(), 3 * 2 * 10 * 12 * 7);
        assert!(!grid.is_empty());
    }

    #[test]
    fn point_decoding_round_trips_the_axes() {
        let grid = DseGrid::smoke();
        assert_eq!(grid.len(), 48);
        // Network is the innermost axis; the first points walk it.
        assert_eq!(grid.point(0).network, 0);
        assert_eq!(grid.point(1).network, 1);
        assert_eq!(grid.point(1).budget_kib, grid.point(0).budget_kib);
        // Every index decodes to a distinct coordinate tuple.
        let mut seen: Vec<DsePoint> = Vec::new();
        for i in 0..grid.len() {
            let p = grid.point(i);
            assert!(!seen.contains(&p), "duplicate point at {i}");
            seen.push(p);
        }
        // The last point sits at every axis maximum.
        let last = grid.point(grid.len() - 1);
        assert_eq!(last.batch, 16);
        assert_eq!(last.budget_kib, 64);
        assert_eq!(last.network, 1);
    }

    #[test]
    fn rows_replay_bit_identical_to_from_scratch_plans() {
        let compiled = DseGrid::smoke().compile();
        for index in [0, 7, 23, 47] {
            let row = compiled.row(index);
            let point = compiled.grid().point(index);
            assert_eq!(row.point(), point);
            let net = &compiled.grid().networks()[point.network];
            let arrayflex = Executor::builder(Platform::ArrayFlex)
                .backend(Arc::new(ArrayFlexBackend::pinned(point.span)))
                .batch(point.batch)
                .build();
            let flexsa = Executor::builder(Platform::FlexSa)
                .backend(Arc::new(FlexSaBackend::pinned(point.mode)))
                .batch(point.batch)
                .build();
            let expect_a = arrayflex.try_plan(net).expect("plans").run().total_ms;
            let expect_f = flexsa.try_plan(net).expect("plans").run().total_ms;
            assert_eq!(
                row.arrayflex().total_ms().expect("ok").to_bits(),
                expect_a.to_bits(),
                "point {index} arrayflex diverged"
            );
            assert_eq!(
                row.flexsa().total_ms().expect("ok").to_bits(),
                expect_f.to_bits(),
                "point {index} flexsa diverged"
            );
        }
    }

    #[test]
    fn residency_grows_with_the_budget() {
        let compiled = DseGrid::smoke().compile();
        // Points 0 and 0+len(networks) differ only in budget (8 → 64
        // KiB) under the axis nesting, so they share a cell.
        let nets = compiled.grid().networks().len();
        let small = compiled.row(0);
        let large = compiled.row(nets);
        assert!(Arc::ptr_eq(&small.cell, &large.cell));
        assert_eq!(small.point().batch, large.point().batch);
        assert!(small.point().budget_kib < large.point().budget_kib);
        let ([small_a, small_f], [large_a, large_f]) =
            (small.resident_gemms(), large.resident_gemms());
        assert!(large_a >= small_a);
        assert!(large_f >= small_f);
    }

    #[test]
    fn resident_count_is_the_layers_within_budget() {
        let o = outcome("x", 0, 1, Ok(1.0), &[512, 1024, 1024, 4096]);
        assert_eq!(o.resident_gemms(0), 0);
        assert_eq!(o.resident_gemms(1023), 1);
        assert_eq!(o.resident_gemms(1024), 3);
        assert_eq!(o.resident_gemms(u64::MAX), 4);
    }

    #[test]
    fn rows_render_and_summarise_deterministically() {
        let compiled = DseGrid::smoke().compile();
        let rows: Vec<DseRow> = (0..compiled.grid().len())
            .map(|i| compiled.row(i))
            .collect();
        for row in &rows {
            let json = row.to_json();
            for key in ["\"span\"", "\"winner\"", "\"throughput_ips\"", "\"fits\""] {
                assert!(json.contains(key), "missing {key} in {json}");
            }
            assert!(row.winner().is_some(), "smoke candidates must all plan");
            assert!(row.throughput_ips() > 0.0);
        }
        let report = DseReport::from_rows(&rows);
        assert_eq!(report.points, 48);
        assert_eq!(report.winners.iter().map(|(_, c)| c).sum::<usize>(), 48);
        let json = report.to_json(compiled.grid());
        for key in ["\"rows_digest\"", "\"winners\"", "\"per_network\""] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        for banned in ["wall_ms", "points_per_sec"] {
            assert!(!json.contains(banned), "wall-derived {banned} leaked");
        }
        // The summary digest is the chained hash of the rows.
        let again = DseReport::from_rows(&rows);
        assert_eq!(report.rows_digest, again.rows_digest);
    }

    #[test]
    fn spliced_rows_match_the_reference_renderer() {
        let smoke = DseGrid::smoke().compile();
        for i in 0..smoke.grid().len() {
            assert_splices_like_the_oracle(&smoke.row(i));
        }
        // A prime stride walks every axis of the full grid, and the
        // last point carries a four-digit index and the widest budget.
        let full = full();
        let last = full.grid().len() - 1;
        for i in (0..last).step_by(37).chain([last]) {
            assert_splices_like_the_oracle(&full.row(i));
        }
    }

    #[test]
    fn rejected_candidates_render_escaped_reasons() {
        let reason = "no \"fit\" for\tbatch \\ 64".to_string();
        let cases = [
            (Err(reason.clone()), Ok(2.5)),
            (Ok(2.5), Err(reason.clone())),
            (Err(reason.clone()), Err(reason)),
        ];
        for (a, f) in cases {
            let rejected = [a.is_err(), f.is_err()];
            let candidates = [
                Arc::new(outcome("ArrayFlex-span2", 1, 64, a, &[100, 5000])),
                Arc::new(outcome("FlexSA-sub", 4, 64, f, &[100, 200, 300])),
            ];
            let cell = DseCell::new(
                Arc::from("Net \"q\""),
                PipelineConfig::ALL[1],
                FlexSaMode::SubArrays,
                64,
                candidates,
            );
            let row = DseRow {
                index: 1234,
                point: DsePoint {
                    span: PipelineConfig::ALL[1],
                    mode: FlexSaMode::SubArrays,
                    batch: 64,
                    budget_kib: 4,
                    network: 0,
                },
                resident_gemms: [1, 3],
                cell: Arc::new(cell),
            };
            assert_splices_like_the_oracle(&row);
            assert_digests_like_the_render(&row, fnv1a64_seed());
            let json = row.to_json();
            assert!(json.contains(r#""rejected": "no \"fit\" for\u0009batch \\ 64""#));
            assert!(json.contains(r#""network": "Net \"q\"""#));
            match rejected {
                [true, true] => {
                    assert!(row.winner().is_none());
                    assert!(json.ends_with(r#""winner": "none", "throughput_ips": 0.000}"#));
                }
                [true, false] => assert_eq!(row.winner().map(DseOutcome::name), Some("FlexSA-sub")),
                _ => assert_eq!(row.winner().map(DseOutcome::name), Some("ArrayFlex-span2")),
            }
        }
    }

    #[test]
    fn digest_walk_hashes_every_row_like_its_render() {
        let full = full();
        let mut chain = fnv1a64_seed();
        for i in 0..full.grid().len() {
            chain = assert_digests_like_the_render(&full.row(i), chain);
        }
    }

    #[test]
    fn compile_does_not_depend_on_the_worker_count() {
        let one = DseGrid::full().compile_on(1);
        let three = DseGrid::full().compile_on(3);
        assert_eq!(one.arena_steps(), three.arena_steps());
        assert_eq!(one.cells.len(), three.cells.len());
        for i in 0..one.grid().len() {
            assert_eq!(one.row(i).to_json(), three.row(i).to_json(), "row {i}");
        }
    }

    #[test]
    fn full_grid_reproduces_the_committed_summary() {
        let full = full();
        let rows: Vec<DseRow> = (0..full.grid().len()).map(|i| full.row(i)).collect();
        let report = DseReport::from_rows(&rows).to_json(full.grid());
        assert_eq!(report, include_str!("../../../BENCH_dse.json"));
    }

    #[test]
    fn a_family_shares_one_weight_panel_allocation() {
        let full = full();
        let (batches, nets) = (full.grid().batches.len(), full.grid().networks().len());
        // Cells `b · nets` apart within one span × mode block hold the
        // outcomes of the same two families at consecutive batches.
        for block in (0..full.cells.len()).step_by(batches * nets) {
            for n in 0..nets {
                let first = &full.cells[block + n].candidates;
                for b in 1..batches {
                    let other = &full.cells[block + b * nets + n].candidates;
                    for k in 0..2 {
                        assert!(
                            Arc::ptr_eq(&first[k].weight_bytes, &other[k].weight_bytes),
                            "cell {} candidate {k} copied its panels",
                            block + b * nets + n
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn every_cell_json_is_sized_exactly() {
        for (c, cell) in full().cells.iter().enumerate() {
            assert_eq!(
                cell.json.capacity(),
                cell.json.len(),
                "cell {c} reallocated"
            );
        }
    }

    #[test]
    fn arena_holds_every_candidate_plan() {
        let compiled = DseGrid::smoke().compile();
        // 5 backends × 2 networks × 2 batches = 20 plans, each at
        // least one layer deep.
        assert!(compiled.arena_steps() >= 20);
        // One cell per span × mode × batch × network.
        assert_eq!(compiled.cells.len(), 3 * 2 * 2 * 2);
        assert_eq!(full().arena_steps(), 18_200);
    }
}
