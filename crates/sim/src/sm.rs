//! The cycle-level SM core model.

use crate::config::GpuConfig;
use crate::sched::{SchedulerKind, WarpScheduler};
use sma_isa::{AluOp, Instr, Kernel, MemSpace, Reg};
use sma_mem::{BankedConfig, BankedMemory, Cache, CacheConfig, CacheOutcome, Coalescer, MemStats};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::error::Error;
use std::fmt;

/// Simulation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// No forward progress for an extended window — a barrier mismatch or
    /// scoreboard bug in the kernel under test.
    Deadlock {
        /// Cycle at which the deadlock was declared.
        cycle: u64,
    },
    /// The kernel exceeded the configured cycle budget.
    CycleBudgetExceeded {
        /// The budget that was exceeded.
        budget: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { cycle } => write!(f, "simulation deadlocked at cycle {cycle}"),
            SimError::CycleBudgetExceeded { budget } => {
                write!(f, "simulation exceeded cycle budget {budget}")
            }
        }
    }
}

impl Error for SimError {}

/// Why issue slots went unused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StallBreakdown {
    /// Operand not ready (scoreboard).
    pub scoreboard: u64,
    /// Execution resource or LSU busy.
    pub structural: u64,
    /// Waiting at a barrier / group sync.
    pub barrier: u64,
    /// Waiting for asynchronous LSMA results.
    pub lsma_wait: u64,
    /// Warp finished its program.
    pub drained: u64,
}

/// Result of simulating one thread block on one SM.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Cycles until every warp completed.
    pub cycles: u64,
    /// Warp-instructions issued.
    pub issued: u64,
    /// Stall accounting (per warp-cycle).
    pub stalls: StallBreakdown,
    /// Access ledger for the energy model.
    pub mem: MemStats,
    /// FP32-equivalent MACs performed.
    pub macs: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WaitState {
    None,
    Barrier(u32),
    Group(u8),
    Lsma(u8),
}

struct WarpCtx<'a> {
    walker: sma_isa::WarpWalker<'a>,
    next: Option<&'a Instr>,
    /// (reg, ready_cycle) pairs; small and scanned linearly.
    scoreboard: Vec<(Reg, u64)>,
    wait: WaitState,
    done: bool,
}

impl<'a> WarpCtx<'a> {
    fn fetch(&mut self) {
        if self.next.is_none() && !self.done {
            self.next = self.walker.next();
            if self.next.is_none() {
                self.done = true;
            }
        }
    }

    fn regs_ready(&self, instr: &Instr, now: u64) -> bool {
        let check = |r: &Reg| {
            self.scoreboard
                .iter()
                .all(|(reg, ready)| reg != r || *ready <= now)
        };
        instr.srcs().iter().all(check) && instr.dsts().iter().all(check)
    }

    fn set_pending(&mut self, reg: Reg, ready: u64) {
        self.scoreboard.retain(|(r, _)| *r != reg);
        self.scoreboard.push((reg, ready));
    }

    fn gc_scoreboard(&mut self, now: u64) {
        self.scoreboard.retain(|(_, ready)| *ready > now);
    }
}

/// The SM simulator. Create once per configuration and reuse across runs.
pub struct SmSim {
    cfg: GpuConfig,
    policy: SchedulerKind,
    /// Overlap LSMA weight loads with computation (double-buffered operand
    /// collectors). On by default, matching the paper's design.
    pub lsma_overlap_weights: bool,
    /// Whether concurrently active SMA units stream the same `Atile`
    /// (the coordinated 8×24 configuration of §IV-B). When false, each
    /// unit's pass serialises on the shared 8-bank feed port.
    pub sma_units_share_a: bool,
    /// Cycle budget before aborting.
    pub max_cycles: u64,
}

impl fmt::Debug for SmSim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SmSim")
            .field("policy", &self.policy)
            .field("max_cycles", &self.max_cycles)
            .finish()
    }
}

impl SmSim {
    /// Creates a simulator.
    #[must_use]
    pub fn new(cfg: GpuConfig, policy: SchedulerKind) -> Self {
        SmSim {
            cfg,
            policy,
            lsma_overlap_weights: true,
            sma_units_share_a: true,
            max_cycles: 50_000_000,
        }
    }

    /// Simulates one thread block of `kernel` resident alone on one SM and
    /// returns the timing/energy report.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] if the kernel stops making progress
    /// (e.g. mismatched barriers) or [`SimError::CycleBudgetExceeded`] if
    /// it runs past `max_cycles`.
    pub fn run_block(&mut self, kernel: &Kernel) -> Result<SimReport, SimError> {
        let lat = self.cfg.latencies;

        // --- Warp state ---------------------------------------------------
        let mut warps: Vec<WarpCtx<'_>> = Vec::new();
        for role in kernel.roles() {
            for _ in 0..role.warps {
                warps.push(WarpCtx {
                    walker: role.program.walk(),
                    next: None,
                    scoreboard: Vec::new(),
                    wait: WaitState::None,
                    done: false,
                });
            }
        }
        let n_warps = warps.len();

        // --- Schedulers: warp w belongs to scheduler w % n_sched ---------
        let n_sched = self.cfg.schedulers as usize;
        let mut policies: Vec<Box<dyn WarpScheduler>> =
            (0..n_sched).map(|_| self.policy.build()).collect();

        // --- Memory structures --------------------------------------------
        let mut shared = BankedMemory::new(BankedConfig {
            banks: self.cfg.shared_banks,
            bank_width: 4,
            capacity: self.cfg.shared_bytes,
        });
        let mut l1 = Cache::new(CacheConfig::volta_l1());
        let mut l2 = Cache::new(CacheConfig::volta_l2());
        let mut mem = MemStats::default();

        // --- Execution resources ------------------------------------------
        let mut lsu_free_at: u64 = 0;
        let mut dram_ready_at: f64 = 0.0;
        let n_units = self.cfg.sma_units.max(1) as usize;
        let mut unit_free_at: Vec<u64> = vec![0; n_units];
        let mut feed_port_free_at: u64 = 0;

        let mut stalls = StallBreakdown::default();
        let mut issued: u64 = 0;
        let mut macs: u64 = 0;
        let mut cycle: u64 = 0;
        let mut idle_streak: u64 = 0;

        // Writebacks: (ready_cycle, warp, reg).
        let mut writebacks: BinaryHeap<Reverse<(u64, usize, u16)>> = BinaryHeap::new();

        loop {
            if warps.iter().all(|w| w.done && w.wait == WaitState::None) {
                break;
            }
            if cycle >= self.max_cycles {
                return Err(SimError::CycleBudgetExceeded {
                    budget: self.max_cycles,
                });
            }

            // Retire writebacks due this cycle.
            while let Some(&Reverse((c, w, r))) = writebacks.peek() {
                if c > cycle {
                    break;
                }
                writebacks.pop();
                warps[w].gc_scoreboard(cycle);
                let _ = (w, r);
            }

            // Release LSMA waiters whose unit has drained.
            for w in warps.iter_mut() {
                if let WaitState::Lsma(u) = w.wait {
                    if unit_free_at[u as usize % n_units] <= cycle {
                        w.wait = WaitState::None;
                    }
                }
            }

            // Tell the schedulers whether systolic mode is active.
            let systolic_active = unit_free_at.iter().any(|&f| f > cycle);
            for p in &mut policies {
                p.set_systolic_mode(systolic_active);
            }

            // Per-cycle execution slot budgets.
            let mut fp32_slots = self.cfg.fp32_warp_slots();
            let mut int_slots = self.cfg.int_warp_slots();
            let mut tc_slots = self.cfg.tensor_cores;
            let mut sfu_slots = 1u32;

            let mut progressed = false;

            // Each scheduler issues at most one instruction.
            for (si, policy) in policies.iter_mut().enumerate() {
                // Build the ready mask for this scheduler's partition.
                let part: Vec<usize> = (si..n_warps).step_by(n_sched).collect();
                let mut ready = vec![false; part.len()];
                for (pi, &wi) in part.iter().enumerate() {
                    let w = &mut warps[wi];
                    // A waiting warp must not advance its walker: it is not
                    // finished, it is parked.
                    match w.wait {
                        WaitState::Barrier(_) | WaitState::Group(_) => {
                            stalls.barrier += 1;
                            continue;
                        }
                        WaitState::Lsma(_) => {
                            stalls.lsma_wait += 1;
                            continue;
                        }
                        WaitState::None => {}
                    }
                    w.fetch();
                    if w.done {
                        stalls.drained += 1;
                        continue;
                    }
                    let Some(instr) = w.next else { continue };
                    if !w.regs_ready(instr, cycle) {
                        stalls.scoreboard += 1;
                        continue;
                    }
                    // Structural check.
                    let structural_ok = match instr {
                        Instr::Alu { op, .. } => match op {
                            AluOp::Ffma | AluOp::Fadd | AluOp::Fmul | AluOp::Hfma2 | AluOp::Cvt => {
                                fp32_slots > 0
                            }
                            AluOp::Iadd | AluOp::Imad | AluOp::Mov | AluOp::Setp => int_slots > 0,
                            AluOp::Sfu => sfu_slots > 0,
                        },
                        Instr::Load { .. } | Instr::Store { .. } => lsu_free_at <= cycle,
                        Instr::Hmma { .. } => tc_slots > 0,
                        // LSMA queues on its controller; sync ops always
                        // issue.
                        _ => true,
                    };
                    if !structural_ok {
                        stalls.structural += 1;
                        continue;
                    }
                    ready[pi] = true;
                }

                let Some(pick) = policy.pick(&ready) else {
                    continue;
                };
                let wi = part[pick];

                // Take the instruction and execute its issue effects.
                let instr = warps[wi].next.take().expect("ready warp has instr");
                issued += 1;
                mem.instructions += 1;
                progressed = true;

                match instr {
                    Instr::Alu { op, dst, srcs } => {
                        match op {
                            AluOp::Ffma | AluOp::Fadd | AluOp::Fmul | AluOp::Hfma2 | AluOp::Cvt => {
                                fp32_slots -= 1
                            }
                            AluOp::Iadd | AluOp::Imad | AluOp::Mov | AluOp::Setp => int_slots -= 1,
                            AluOp::Sfu => sfu_slots -= 1,
                        }
                        let latency = if *op == AluOp::Sfu { lat.sfu } else { lat.alu };
                        warps[wi].set_pending(*dst, cycle + u64::from(latency));
                        writebacks.push(Reverse((cycle + u64::from(latency), wi, dst.0)));
                        mem.rf_reads += srcs.len() as u64;
                        mem.rf_writes += 1;
                        let op_macs = instr.warp_macs();
                        if op_macs > 0 {
                            mem.simd_macs += op_macs;
                            macs += op_macs;
                        } else {
                            mem.alu_ops += 32;
                        }
                    }
                    Instr::Load {
                        space,
                        dst,
                        pattern,
                        width,
                    } => {
                        let addrs = pattern.lane_addresses();
                        let ready_at = match space {
                            MemSpace::Shared => {
                                let acc = shared.access(&addrs);
                                lsu_free_at = cycle + u64::from(acc.cycles);
                                mem.shared_reads += 1;
                                mem.shared_conflict_cycles += u64::from(acc.extra_conflict_cycles);
                                cycle + u64::from(lat.shared) + u64::from(acc.cycles - 1)
                            }
                            MemSpace::Global => {
                                let r = Coalescer::probe(&addrs, *width);
                                lsu_free_at = cycle + u64::from(r.sectors.div_ceil(4)).max(1);
                                self.global_access(
                                    &mut l1,
                                    &mut l2,
                                    &mut mem,
                                    &mut dram_ready_at,
                                    cycle,
                                    &addrs,
                                    r.sectors,
                                )
                            }
                            MemSpace::Const => {
                                mem.const_reads += 1;
                                cycle + u64::from(lat.l1)
                            }
                        };
                        mem.rf_writes += 1;
                        warps[wi].set_pending(*dst, ready_at);
                        writebacks.push(Reverse((ready_at, wi, dst.0)));
                    }
                    Instr::Store {
                        space,
                        pattern,
                        width,
                        ..
                    } => {
                        let addrs = pattern.lane_addresses();
                        match space {
                            MemSpace::Shared => {
                                let acc = shared.access(&addrs);
                                lsu_free_at = cycle + u64::from(acc.cycles);
                                mem.shared_writes += 1;
                                mem.shared_conflict_cycles += u64::from(acc.extra_conflict_cycles);
                            }
                            MemSpace::Global => {
                                let r = Coalescer::probe(&addrs, *width);
                                lsu_free_at = cycle + u64::from(r.sectors.div_ceil(4)).max(1);
                                mem.dram_bytes += u64::from(r.sectors) * 32;
                            }
                            MemSpace::Const => {}
                        }
                        mem.rf_reads += 1;
                    }
                    Instr::Hmma { dst, .. } => {
                        tc_slots -= 1;
                        // Dot-product fragments come straight from the RF:
                        // two operand reads + one accumulator RMW per step —
                        // the low-reuse pattern of §II-A.
                        mem.rf_reads += 2;
                        mem.rf_writes += 1;
                        mem.tc_macs += 64;
                        macs += 64;
                        warps[wi].set_pending(*dst, cycle + u64::from(lat.hmma));
                        writebacks.push(Reverse((cycle + u64::from(lat.hmma), wi, dst.0)));
                    }
                    Instr::Lsma {
                        unit, c_base, k, ..
                    } => {
                        let u = (*unit as usize) % n_units;
                        let dim = u64::from(self.cfg.sma_dim);
                        let stream = u64::from(*k);
                        let reconfig = if self.lsma_overlap_weights { 1 } else { dim };
                        let pass = stream + dim - 1 + reconfig;
                        let start = if self.sma_units_share_a {
                            unit_free_at[u].max(cycle)
                        } else {
                            // Serialise on the shared A-feed port.
                            let s = unit_free_at[u].max(feed_port_free_at).max(cycle);
                            feed_port_free_at = s + pass;
                            s
                        };
                        unit_free_at[u] = start + pass;
                        // Ledger: per cycle of the pass the controller pulls
                        // dim words from its feed banks; per output row one
                        // coalesced RF read-modify-write drains C.
                        mem.shared_reads += stream;
                        mem.rf_reads += stream;
                        mem.rf_writes += stream;
                        mem.systolic_macs += stream * dim * dim;
                        mem.pe_transfers += stream * dim * dim + stream * dim;
                        macs += stream * dim * dim;
                        warps[wi].set_pending(*c_base, unit_free_at[u]);
                        writebacks.push(Reverse((unit_free_at[u], wi, c_base.0)));
                    }
                    Instr::Bar { id } => {
                        warps[wi].wait = WaitState::Barrier(*id);
                    }
                    Instr::GroupSync { group } => {
                        warps[wi].wait = WaitState::Group(*group);
                    }
                    Instr::LsmaWait { unit } => {
                        let u = (*unit as usize) % n_units;
                        if unit_free_at[u] > cycle {
                            warps[wi].wait = WaitState::Lsma(*unit);
                        }
                    }
                    Instr::Exit => {
                        warps[wi].done = true;
                    }
                }
            }

            // Barrier release: a channel opens when every live (not yet
            // exited) warp is waiting on it. Warps parked on a channel are
            // never `done`, so `alive` counts them.
            let alive = warps.iter().filter(|w| !w.done).count();
            let mut channels: Vec<WaitState> = Vec::new();
            for w in &warps {
                if w.wait != WaitState::None && !channels.contains(&w.wait) {
                    channels.push(w.wait);
                }
            }
            for ch in channels {
                if matches!(ch, WaitState::Lsma(_)) {
                    continue; // handled by the controller drain above
                }
                let waiting = warps.iter().filter(|w| w.wait == ch).count();
                if waiting == alive {
                    for w in warps.iter_mut() {
                        if w.wait == ch {
                            w.wait = WaitState::None;
                        }
                    }
                }
            }

            // Deadlock detection: nothing issued, nothing in flight.
            let in_flight = !writebacks.is_empty()
                || unit_free_at.iter().any(|&f| f > cycle)
                || lsu_free_at > cycle;
            if progressed || in_flight {
                idle_streak = 0;
            } else {
                idle_streak += 1;
                if idle_streak > 10_000 {
                    return Err(SimError::Deadlock { cycle });
                }
            }

            cycle += 1;
        }

        // The block finishes when the slowest in-flight work lands.
        let drain = writebacks
            .into_iter()
            .map(|Reverse((c, _, _))| c)
            .max()
            .unwrap_or(cycle)
            .max(unit_free_at.into_iter().max().unwrap_or(cycle));
        let cycles = drain.max(cycle);

        // Fold cache stats into the ledger.
        mem.l1_hits = l1.hits();
        mem.l1_misses = l1.misses();
        mem.l2_hits = l2.hits();
        mem.l2_misses = l2.misses();

        Ok(SimReport {
            cycles,
            issued,
            stalls,
            mem,
            macs,
        })
    }

    /// Timing of a global load: probe L1 per sector, L2 on miss, DRAM
    /// beyond, with a bandwidth bucket shared by the SM.
    #[allow(clippy::too_many_arguments)]
    fn global_access(
        &self,
        l1: &mut Cache,
        l2: &mut Cache,
        mem: &mut MemStats,
        dram_ready_at: &mut f64,
        cycle: u64,
        addrs: &[u64],
        sectors: u32,
    ) -> u64 {
        let lat = self.cfg.latencies;
        // Use the first address of each distinct sector as the probe.
        let mut seen: Vec<u64> = Vec::new();
        for &a in addrs {
            let sec = a / 32;
            if !seen.contains(&sec) {
                seen.push(sec);
            }
        }
        let mut worst = u64::from(lat.l1);
        let mut miss_bytes = 0u64;
        for &sec in &seen {
            match l1.access(sec * 32) {
                CacheOutcome::Hit => {}
                CacheOutcome::Miss => match l2.access(sec * 32) {
                    CacheOutcome::Hit => worst = worst.max(u64::from(lat.l2)),
                    CacheOutcome::Miss => {
                        worst = worst.max(u64::from(lat.dram));
                        miss_bytes += 32;
                    }
                },
            }
        }
        let _ = sectors;
        if miss_bytes > 0 {
            mem.dram_bytes += miss_bytes;
            let bw = self.cfg.dram_bytes_per_cycle_per_sm;
            let start = dram_ready_at.max(cycle as f64);
            *dram_ready_at = start + miss_bytes as f64 / bw;
            let bw_delay = sma_mem::ceil_u64(*dram_ready_at - cycle as f64);
            return cycle + worst.max(bw_delay);
        }
        cycle + worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sma_isa::{AddressPattern, WarpProgram, WarpRole};

    fn cfg() -> GpuConfig {
        GpuConfig::volta()
    }

    fn kernel_of(program: WarpProgram, warps: u32) -> Kernel {
        Kernel::new(vec![WarpRole::new("main", warps, program)]).unwrap()
    }

    #[test]
    fn independent_fmas_reach_full_throughput() {
        // 2 warps of back-to-back independent FMAs: 2 initiations/cycle.
        let mut b = WarpProgram::builder();
        b.loop_n(256, |l| {
            // Different dst each time would be ideal; a single dst with no
            // read-after-write also issues back to back in this model
            // because only *pending* regs block, and the dst is rewritten.
            l.push(Instr::ffma(Reg(1), Reg(0), Reg(0), Reg(2)));
        });
        let k = kernel_of(b.build(), 8);
        let mut sim = SmSim::new(cfg(), SchedulerKind::Gto);
        let r = sim.run_block(&k).unwrap();
        // 8 warps * 256 FMA = 2048 warp-ops at 2/cycle => >= 1024 cycles.
        assert!(r.cycles >= 1024, "cycles {}", r.cycles);
        assert!(r.cycles < 1400, "cycles {}", r.cycles);
        assert_eq!(r.mem.simd_macs, 2048 * 32);
    }

    #[test]
    fn raw_dependency_stalls_singleton_warp() {
        // One warp, chain of dependent FMAs: latency-bound, 4 cycles each.
        let mut b = WarpProgram::builder();
        b.loop_n(64, |l| {
            l.push(Instr::ffma(Reg(1), Reg(1), Reg(1), Reg(1)));
        });
        let k = kernel_of(b.build(), 1);
        let mut sim = SmSim::new(cfg(), SchedulerKind::Gto);
        let r = sim.run_block(&k).unwrap();
        assert!(r.cycles >= 64 * 4, "cycles {}", r.cycles);
        assert!(r.stalls.scoreboard > 100);
    }

    #[test]
    fn many_warps_hide_latency() {
        let chain = |n| {
            let mut b = WarpProgram::builder();
            b.loop_n(64, |l| {
                l.push(Instr::ffma(Reg(1), Reg(1), Reg(1), Reg(1)));
            });
            kernel_of(b.build(), n)
        };
        let mut sim = SmSim::new(cfg(), SchedulerKind::Gto);
        let one = sim.run_block(&chain(1)).unwrap();
        let eight = sim.run_block(&chain(8)).unwrap();
        // 8 warps do 8x the work in nearly the same time.
        assert!(eight.cycles < one.cycles * 2);
        let ipc = |r: &SimReport| r.issued as f64 / r.cycles as f64;
        assert!(ipc(&eight) > ipc(&one) * 3.0);
    }

    #[test]
    fn shared_bank_conflicts_slow_the_kernel() {
        let conflict_free = AddressPattern::strided(0, 4);
        let conflicting = AddressPattern::strided(0, 128); // all bank 0
        let build = |pat: AddressPattern| {
            let mut b = WarpProgram::builder();
            b.loop_n(64, |l| {
                // Rotate destinations so the kernel is LSU-throughput
                // bound, not latency bound.
                for r in 0..8 {
                    l.push(Instr::lds(Reg(r), pat.clone()));
                }
            });
            kernel_of(b.build(), 4)
        };
        let mut sim = SmSim::new(cfg(), SchedulerKind::Gto);
        let fast = sim.run_block(&build(conflict_free)).unwrap();
        let slow = sim.run_block(&build(conflicting)).unwrap();
        // A 32-way conflict serialises the LSU 32x; headline slowdown is
        // bounded by other overheads but must exceed 8x.
        assert!(
            slow.cycles > fast.cycles * 8,
            "conflicting {} vs free {}",
            slow.cycles,
            fast.cycles
        );
        assert!(slow.mem.shared_conflict_cycles > 0);
        assert_eq!(fast.mem.shared_conflict_cycles, 0);
    }

    #[test]
    fn barrier_joins_all_warps() {
        // Warp-asymmetric work before a barrier: total time is set by the
        // slowest warp, and nobody deadlocks.
        let mut b = WarpProgram::builder();
        b.loop_n(32, |l| {
            l.push(Instr::ffma(Reg(1), Reg(1), Reg(1), Reg(1)));
        });
        b.push(Instr::Bar { id: 0 });
        b.push(Instr::iadd(Reg(2), Reg(0), Reg(0)));
        let k = kernel_of(b.build(), 8);
        let mut sim = SmSim::new(cfg(), SchedulerKind::Gto);
        let r = sim.run_block(&k).unwrap();
        assert!(r.stalls.barrier > 0);
        assert_eq!(r.issued, 8 * (32 + 2));
    }

    #[test]
    fn lsma_is_asynchronous() {
        // A warp issues LSMA then keeps doing independent integer work;
        // the systolic pass overlaps with it.
        let mut with_overlap = WarpProgram::builder();
        with_overlap.push(Instr::Lsma {
            unit: 0,
            a_base: 0,
            c_base: Reg(30),
            k: 128,
        });
        // 25 dependent IADDs ≈ 100 cycles of SIMD work hidden under the
        // 136-cycle systolic pass.
        with_overlap.loop_n(25, |l| {
            l.push(Instr::iadd(Reg(1), Reg(0), Reg(0)));
        });
        with_overlap.push(Instr::LsmaWait { unit: 0 });
        let k = kernel_of(with_overlap.build(), 1);
        let mut sim = SmSim::new(GpuConfig::volta_sma(2), SchedulerKind::SmaRoundRobin);
        let r = sim.run_block(&k).unwrap();
        // Pass = 128 + 8 - 1 + 1 = 136 cycles; ALU work hides inside it.
        assert!(r.cycles >= 136, "cycles {}", r.cycles);
        assert!(r.cycles <= 150, "cycles {}", r.cycles);
        assert_eq!(r.mem.systolic_macs, 128 * 64);
    }

    #[test]
    fn lsma_wait_blocks_until_done() {
        let mut b = WarpProgram::builder();
        b.push(Instr::Lsma {
            unit: 0,
            a_base: 0,
            c_base: Reg(30),
            k: 256,
        });
        b.push(Instr::LsmaWait { unit: 0 });
        b.push(Instr::iadd(Reg(1), Reg(0), Reg(0)));
        let k = kernel_of(b.build(), 1);
        let mut sim = SmSim::new(GpuConfig::volta_sma(2), SchedulerKind::Gto);
        let r = sim.run_block(&k).unwrap();
        assert!(r.cycles >= 256 + 8, "cycles {}", r.cycles);
        assert!(r.stalls.lsma_wait > 0);
    }

    #[test]
    fn two_units_run_passes_concurrently() {
        let mut b = WarpProgram::builder();
        b.push(Instr::Lsma {
            unit: 0,
            a_base: 0,
            c_base: Reg(30),
            k: 512,
        });
        b.push(Instr::Lsma {
            unit: 1,
            a_base: 0,
            c_base: Reg(31),
            k: 512,
        });
        b.push(Instr::LsmaWait { unit: 0 });
        b.push(Instr::LsmaWait { unit: 1 });
        let k = kernel_of(b.build(), 1);
        let mut sim = SmSim::new(GpuConfig::volta_sma(2), SchedulerKind::Gto);
        let r = sim.run_block(&k).unwrap();
        // Concurrent: ~520 cycles, not ~1040.
        assert!(r.cycles < 700, "cycles {}", r.cycles);
        assert_eq!(r.mem.systolic_macs, 2 * 512 * 64);
    }

    #[test]
    fn serialised_feed_port_doubles_time() {
        let mut b = WarpProgram::builder();
        b.push(Instr::Lsma {
            unit: 0,
            a_base: 0,
            c_base: Reg(30),
            k: 512,
        });
        b.push(Instr::Lsma {
            unit: 1,
            a_base: 4096,
            c_base: Reg(31),
            k: 512,
        });
        b.push(Instr::LsmaWait { unit: 0 });
        b.push(Instr::LsmaWait { unit: 1 });
        let k = kernel_of(b.build(), 1);
        let mut sim = SmSim::new(GpuConfig::volta_sma(2), SchedulerKind::Gto);
        sim.sma_units_share_a = false;
        let r = sim.run_block(&k).unwrap();
        assert!(r.cycles >= 2 * 512, "cycles {}", r.cycles);
    }

    #[test]
    fn deadlock_is_detected() {
        // One role of 2 warps, but only 1 warp can ever reach the barrier
        // channel 7 twice — mismatched arrival counts hang forever.
        let mut a = WarpProgram::builder();
        a.push(Instr::Bar { id: 7 });
        let mut bprog = WarpProgram::builder();
        bprog.push(Instr::iadd(Reg(1), Reg(0), Reg(0)));
        // Role "b" never reaches the barrier but also never exits: it
        // finishes, so the barrier opens (alive count drops). To force a
        // real deadlock, make role b wait on a *different* channel.
        bprog.push(Instr::Bar { id: 3 });
        let k = Kernel::new(vec![
            WarpRole::new("a", 1, a.build()),
            WarpRole::new("b", 1, bprog.build()),
        ])
        .unwrap();
        let mut sim = SmSim::new(cfg(), SchedulerKind::Gto);
        let err = sim.run_block(&k).unwrap_err();
        assert!(matches!(err, SimError::Deadlock { .. }));
    }

    #[test]
    fn global_loads_hit_after_first_touch() {
        let mut b = WarpProgram::builder();
        b.loop_n(8, |l| {
            l.push(Instr::ldg(Reg(1), AddressPattern::strided(0, 4)));
        });
        let k = kernel_of(b.build(), 1);
        let mut sim = SmSim::new(cfg(), SchedulerKind::Gto);
        let r = sim.run_block(&k).unwrap();
        assert!(r.mem.l1_hits > 0);
        // The 4 sectors share one 128 B line: one line miss, then hits.
        assert!(r.mem.l1_misses >= 1);
        assert!(r.mem.dram_bytes >= 32);
    }

    #[test]
    fn gto_vs_rr_differ_on_balanced_groups() {
        // Two warp sets ping-ponging on group syncs: GTO keeps favouring
        // one set and pays more barrier stalls than round-robin.
        let build = || {
            let mut b = WarpProgram::builder();
            b.loop_n(16, |l| {
                l.push(Instr::ffma(Reg(1), Reg(1), Reg(1), Reg(1)));
                l.push(Instr::GroupSync { group: 0 });
            });
            b.build()
        };
        let k = Kernel::new(vec![
            WarpRole::new("set0", 8, build()),
            WarpRole::new("set1", 8, build()),
        ])
        .unwrap();
        let mut gto = SmSim::new(cfg(), SchedulerKind::Gto);
        let mut rr = SmSim::new(cfg(), SchedulerKind::RoundRobin);
        let rg = gto.run_block(&k).unwrap();
        let rr_ = rr.run_block(&k).unwrap();
        // Both complete the same work; neither policy may deadlock or blow
        // up. (The systematic GTO-starvation effect appears in the full
        // double-buffered GEMM, exercised in sma-core's mapper tests.)
        assert_eq!(rr_.issued, rg.issued);
        assert!(rr_.cycles < rg.cycles * 2);
        assert!(rg.cycles < rr_.cycles * 2);
    }
}
