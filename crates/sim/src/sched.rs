//! Warp scheduling policies.
//!
//! §IV-C: "the architecture's throughput-oriented design … leads to its
//! greedy-then-oldest (GTO) warp scheduler. The scheduler tries to issue
//! the same set of warps over and over to maximize the throughput, which
//! may cause starvation in the double-buffered warps. To overcome such a
//! challenge, we add a SMA-specific scheduler that works in the
//! round-robin fashion. The new scheduler works only in the systolic mode
//! and does not affect the original scheduler."

/// A warp scheduling policy for one scheduler's warp partition.
///
/// `pick` receives, for each warp index in the partition, whether that
/// warp can issue this cycle, and returns the chosen index.
pub trait WarpScheduler: std::fmt::Debug {
    /// Chooses one of the ready warps, or `None` if none is ready.
    fn pick(&mut self, ready: &[bool]) -> Option<usize>;

    /// Informs the policy that systolic mode is active (only the
    /// SMA-specific policy cares).
    fn set_systolic_mode(&mut self, _active: bool) {}
}

/// Greedy-then-oldest: keep issuing the last warp while it stays ready,
/// otherwise fall back to the lowest-index (oldest) ready warp.
#[derive(Debug, Clone, Default)]
pub struct Gto {
    last: Option<usize>,
}

impl Gto {
    /// Creates a GTO scheduler.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl WarpScheduler for Gto {
    fn pick(&mut self, ready: &[bool]) -> Option<usize> {
        if let Some(last) = self.last {
            if ready.get(last).copied().unwrap_or(false) {
                return Some(last);
            }
        }
        let choice = ready.iter().position(|&r| r);
        self.last = choice;
        choice
    }
}

/// Loose round-robin: start searching after the last issued warp.
#[derive(Debug, Clone, Default)]
pub struct RoundRobin {
    next: usize,
}

impl RoundRobin {
    /// Creates a round-robin scheduler.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl WarpScheduler for RoundRobin {
    fn pick(&mut self, ready: &[bool]) -> Option<usize> {
        let n = ready.len();
        if n == 0 {
            return None;
        }
        for off in 0..n {
            let idx = (self.next + off) % n;
            if ready[idx] {
                self.next = (idx + 1) % n;
                return Some(idx);
            }
        }
        None
    }
}

/// The paper's SMA scheduler: GTO normally, switching to round-robin while
/// the SM is in systolic mode so the loading and computing warp sets make
/// balanced progress.
#[derive(Debug, Clone, Default)]
pub struct SmaRoundRobin {
    gto: Gto,
    rr: RoundRobin,
    systolic: bool,
}

impl SmaRoundRobin {
    /// Creates the hybrid scheduler (starting in SIMD mode).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the round-robin half is currently active.
    #[must_use]
    pub const fn in_systolic_mode(&self) -> bool {
        self.systolic
    }
}

impl WarpScheduler for SmaRoundRobin {
    fn pick(&mut self, ready: &[bool]) -> Option<usize> {
        if self.systolic {
            self.rr.pick(ready)
        } else {
            self.gto.pick(ready)
        }
    }

    fn set_systolic_mode(&mut self, active: bool) {
        self.systolic = active;
    }
}

/// Value-level scheduler selection (serialisable into experiment configs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// Greedy-then-oldest.
    Gto,
    /// Plain round-robin.
    RoundRobin,
    /// GTO + systolic-mode round-robin (the paper's addition).
    SmaRoundRobin,
}

impl SchedulerKind {
    /// Instantiates the policy.
    #[must_use]
    pub fn build(self) -> Box<dyn WarpScheduler> {
        match self {
            SchedulerKind::Gto => Box::new(Gto::new()),
            SchedulerKind::RoundRobin => Box::new(RoundRobin::new()),
            SchedulerKind::SmaRoundRobin => Box::new(SmaRoundRobin::new()),
        }
    }
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SchedulerKind::Gto => "gto",
            SchedulerKind::RoundRobin => "rr",
            SchedulerKind::SmaRoundRobin => "sma-rr",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gto_sticks_to_last_warp() {
        let mut g = Gto::new();
        assert_eq!(g.pick(&[true, true, true]), Some(0));
        assert_eq!(g.pick(&[true, true, true]), Some(0));
        // Warp 0 stalls: falls back to the oldest ready.
        assert_eq!(g.pick(&[false, true, true]), Some(1));
        // …and then greedily stays on it.
        assert_eq!(g.pick(&[true, true, true]), Some(1));
    }

    #[test]
    fn round_robin_rotates() {
        let mut r = RoundRobin::new();
        assert_eq!(r.pick(&[true, true, true]), Some(0));
        assert_eq!(r.pick(&[true, true, true]), Some(1));
        assert_eq!(r.pick(&[true, true, true]), Some(2));
        assert_eq!(r.pick(&[true, true, true]), Some(0));
    }

    #[test]
    fn round_robin_skips_stalled() {
        let mut r = RoundRobin::new();
        assert_eq!(r.pick(&[false, true, false]), Some(1));
        assert_eq!(r.pick(&[true, false, true]), Some(2));
        assert_eq!(r.pick(&[true, false, false]), Some(0));
    }

    #[test]
    fn nothing_ready_returns_none() {
        assert_eq!(Gto::new().pick(&[false, false]), None);
        assert_eq!(RoundRobin::new().pick(&[false; 4]), None);
        assert_eq!(Gto::new().pick(&[]), None);
        assert_eq!(RoundRobin::new().pick(&[]), None);
    }

    #[test]
    fn sma_scheduler_switches_policy_with_mode() {
        let mut s = SmaRoundRobin::new();
        // SIMD mode: greedy.
        assert_eq!(s.pick(&[true, true]), Some(0));
        assert_eq!(s.pick(&[true, true]), Some(0));
        // Systolic mode: fair rotation.
        s.set_systolic_mode(true);
        assert!(s.in_systolic_mode());
        assert_eq!(s.pick(&[true, true]), Some(0));
        assert_eq!(s.pick(&[true, true]), Some(1));
        // Back to SIMD: greedy resumes where GTO left off.
        s.set_systolic_mode(false);
        assert_eq!(s.pick(&[true, true]), Some(0));
    }

    #[test]
    fn kind_builds_and_displays() {
        for (kind, name) in [
            (SchedulerKind::Gto, "gto"),
            (SchedulerKind::RoundRobin, "rr"),
            (SchedulerKind::SmaRoundRobin, "sma-rr"),
        ] {
            assert_eq!(kind.to_string(), name);
            let mut policy = kind.build();
            assert_eq!(policy.pick(&[true]), Some(0));
        }
    }
}
