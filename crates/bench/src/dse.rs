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
//!    per pinned backend × network (35 families), instantiates each at
//!    every batch point into a bump [`PlanArena`] that lives as long as
//!    the family (350 plans in all, only the GEMM steps re-estimated per
//!    batch) and replays each plan **once**. It then builds one *cell*
//!    per span × mode × network × batch (420 cells): both candidates'
//!    outcomes, the winner, its throughput, and the row's JSON with
//!    everything that does not depend on the budget already rendered.
//!    The arenas are compile-time scratch; only their step count
//!    survives ([`DseCompiled::arena_steps`]).
//! 2. [`DseCompiled::row`] is then a lookup: it decodes the index once,
//!    counts each candidate's budget-resident GEMM layers (a binary
//!    search over its sorted weight footprints) and shares the cell.
//!    [`DseRow::write_json`] splices the index, the budget, the two
//!    resident counts and the two `fits` flags into the cell's
//!    fragments — no planning, no replay, no float formatting.
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

use crate::stream::fnv1a64_chain;
use crate::sweep::escape_json;
use sma_models::{zoo, Network};
use sma_runtime::backend::{ArrayFlexBackend, FlexSaBackend, FlexSaMode, PipelineConfig};
use sma_runtime::{Executor, PlanArena, Platform};
use sma_tensor::{GemmShape, GemmShapeBatch};
use std::fmt::Write as _;
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
    /// `&self` only.
    #[must_use]
    pub fn compile(self) -> DseCompiled {
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

        let mut arena_steps = 0;
        // outcomes[backend][network][batch]; backends are the spans
        // followed by the modes.
        let mut outcomes = Vec::with_capacity(executors.len());
        for exec in &executors {
            let name = exec.backend().name();
            let mut per_network = Vec::with_capacity(self.networks.len());
            for net in &self.networks {
                let family = exec.plan_family(net);
                // Scratch for this family's plans only: each plan is
                // replayed right after it is planned, so a grid-wide
                // arena (megabytes, grown by doubling) would only raise
                // peak memory.
                let mut arena = PlanArena::new();
                let mut per_batch = Vec::with_capacity(self.batches.len());
                for &batch in &self.batches {
                    let shapes = family.gemm_shapes(batch);
                    let stats = GemmShapeBatch::from_shapes(&shapes);
                    let mut weight_bytes: Vec<u64> = shapes.iter().map(weight_footprint).collect();
                    weight_bytes.sort_unstable();
                    let total_ms = family
                        .try_plan_into(batch, &mut arena)
                        .map(|plan| arena.replay(&plan).total_ms)
                        .map_err(|e| e.to_string());
                    per_batch.push(Arc::new(DseOutcome {
                        name,
                        total_ms,
                        weight_bytes: weight_bytes.into(),
                        intensity_f16: stats.arithmetic_intensity(WEIGHT_ELEM_BYTES as usize),
                    }));
                }
                arena_steps += arena.len();
                per_network.push(per_batch);
            }
            outcomes.push(per_network);
        }

        let mut cells = Vec::with_capacity(self.len() / self.budgets_kib.len().max(1));
        for (s, &span) in self.spans.iter().enumerate() {
            for (m, &mode) in self.modes.iter().enumerate() {
                let flexsa = &outcomes[self.spans.len() + m];
                for (b, &batch) in self.batches.iter().enumerate() {
                    for (n, net) in self.networks.iter().enumerate() {
                        let candidates =
                            [Arc::clone(&outcomes[s][n][b]), Arc::clone(&flexsa[n][b])];
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
    total_ms: Result<f64, String>,
    /// Per-GEMM-layer weight-panel bytes, ascending.
    weight_bytes: Box<[u64]>,
    intensity_f16: f64,
}

impl DseOutcome {
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
    pub fn gemms(&self) -> usize {
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
    /// Winner inferences per second (`batch / total_ms`), 0 without one.
    throughput_ips: f64,
    /// The row's JSON with the per-row values cut out; `cuts[k]` is the
    /// byte offset where value `k` of `DseRow::spliced` goes.
    json: String,
    cuts: [usize; 6],
}

impl DseCell {
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
        let throughput_ips = match winner.map(|w| &candidates[w].total_ms) {
            Some(Ok(ms)) if *ms > 0.0 => batch as f64 * 1e3 / ms,
            _ => 0.0,
        };

        let mut json = String::from("{\"i\": ");
        let mut cuts = [0; 6];
        cuts[0] = json.len();
        let _ = write!(
            json,
            ", \"span\": {}, \"mode\": \"{}\", \"batch\": {batch}, \"budget_kib\": ",
            span.span(),
            mode_label(mode),
        );
        cuts[1] = json.len();
        let _ = write!(json, ", \"network\": \"{}\", ", escape_json(&network));
        for (k, (key, o)) in [("arrayflex", &candidates[0]), ("flexsa", &candidates[1])]
            .into_iter()
            .enumerate()
        {
            if k > 0 {
                json.push_str(", ");
            }
            let _ = write!(json, "\"{key}\": {{\"backend\": \"{}\", ", o.name);
            let _ = match &o.total_ms {
                Ok(ms) => write!(json, "\"total_ms\": {ms:.6}, "),
                Err(reason) => write!(json, "\"rejected\": \"{}\", ", escape_json(reason)),
            };
            json.push_str("\"resident_gemms\": ");
            cuts[2 + 2 * k] = json.len();
            let _ = write!(json, ", \"gemms\": {}, \"fits\": ", o.gemms());
            cuts[3 + 2 * k] = json.len();
            let _ = write!(json, ", \"ai_f16\": {:.3}}}", o.intensity_f16);
        }
        let _ = write!(
            json,
            ", \"winner\": \"{}\", \"throughput_ips\": {throughput_ips:.3}}}",
            winner.map_or("none", |w| candidates[w].name),
        );
        DseCell {
            network,
            candidates,
            winner,
            throughput_ips,
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

    fn write(self, out: &mut String) {
        match self {
            Spliced::Uint(n) => {
                let mut unit = 10u64.pow(n.checked_ilog10().unwrap_or(0));
                while unit > 0 {
                    out.push(char::from(b'0' + (n / unit % 10) as u8));
                    unit /= 10;
                }
            }
            Spliced::Bool(b) => out.push_str(json_bool(b)),
        }
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
    pub fn winner(&self) -> Option<&DseOutcome> {
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
        self.cell.throughput_ips
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

    /// Appends the row as one JSON object (no trailing newline). Size
    /// `out` with [`DseRow::json_len`] to write without reallocating.
    pub fn write_json(&self, out: &mut String) {
        let json = &self.cell.json;
        let mut from = 0;
        for (value, &cut) in self.spliced().into_iter().zip(&self.cell.cuts) {
            out.push_str(&json[from..cut]);
            value.write(out);
            from = cut;
        }
        out.push_str(&json[from..]);
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
pub fn mode_label(mode: FlexSaMode) -> &'static str {
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

    /// Arena steps the compile planned (all 350 plans of the full
    /// grid).
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
    /// them).
    #[must_use]
    pub fn from_rows(rows: &[DseRow]) -> Self {
        let mut digest = crate::stream::fnv1a64_seed();
        let mut winners: Vec<(&'static str, usize)> = Vec::new();
        let mut resident_points = 0;
        let mut per_network: Vec<(Arc<str>, usize, usize)> = Vec::new();
        for row in rows {
            digest = fnv1a64_chain(digest, row.to_json().as_bytes());
            let name = row.winner().map_or("none", |w| w.name);
            match winners.iter_mut().find(|(n, _)| *n == name) {
                Some((_, count)) => *count += 1,
                None => winners.push((name, 1)),
            }
            if row.winner_fits() {
                resident_points += 1;
            }
            let network = &row.cell.network;
            let net_slot = match per_network.iter().position(|(n, _, _)| n == network) {
                Some(slot) => slot,
                None => {
                    per_network.push((Arc::clone(network), 0, 0));
                    per_network.len() - 1
                }
            };
            if let Some(w) = row.winner() {
                if w.name.starts_with("ArrayFlex") {
                    per_network[net_slot].1 += 1;
                } else {
                    per_network[net_slot].2 += 1;
                }
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

    fn outcome(name: &'static str, total_ms: Result<f64, String>, weights: &[u64]) -> DseOutcome {
        DseOutcome {
            name,
            total_ms,
            weight_bytes: weights.into(),
            intensity_f16: 12.3456,
        }
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
        let o = outcome("x", Ok(1.0), &[512, 1024, 1024, 4096]);
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
                Arc::new(outcome("ArrayFlex-span2", a, &[100, 5000])),
                Arc::new(outcome("FlexSA-sub", f, &[100, 200, 300])),
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
    fn full_grid_reproduces_the_committed_summary() {
        let full = full();
        let rows: Vec<DseRow> = (0..full.grid().len()).map(|i| full.row(i)).collect();
        let report = DseReport::from_rows(&rows).to_json(full.grid());
        assert_eq!(report, include_str!("../../../BENCH_dse.json"));
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
