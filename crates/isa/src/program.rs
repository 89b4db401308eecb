//! Structured warp programs and their lazy walker.

use crate::instr::Instr;

/// One node of a structured warp program.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Stmt {
    /// A single instruction.
    Instr(Instr),
    /// A counted loop. The body executes `trips` times.
    Loop {
        /// Trip count.
        trips: u32,
        /// Loop body.
        body: Vec<Stmt>,
    },
}

impl Stmt {
    fn dynamic_count(&self) -> u64 {
        match self {
            Stmt::Instr(_) => 1,
            Stmt::Loop { trips, body } => {
                u64::from(*trips) * body.iter().map(Stmt::dynamic_count).sum::<u64>()
            }
        }
    }
}

/// A complete warp program: structured statements plus metadata.
///
/// # Example
///
/// ```
/// use sma_isa::{Instr, Reg, WarpProgram};
///
/// let mut b = WarpProgram::builder();
/// b.push(Instr::iadd(Reg(0), Reg(1), Reg(2)));
/// b.loop_n(3, |inner| {
///     inner.push(Instr::ffma(Reg(4), Reg(0), Reg(0), Reg(4)));
/// });
/// let p = b.build();
/// assert_eq!(p.dynamic_instruction_count(), 4);
/// let trace: Vec<_> = p.walk().collect();
/// assert_eq!(trace.len(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WarpProgram {
    stmts: Vec<Stmt>,
}

impl WarpProgram {
    /// Starts building a program.
    #[must_use]
    pub fn builder() -> ProgramBuilder {
        ProgramBuilder { stmts: Vec::new() }
    }

    /// Total dynamic instructions (loops unrolled), excluding loop-control
    /// overhead.
    #[must_use]
    pub fn dynamic_instruction_count(&self) -> u64 {
        self.stmts.iter().map(Stmt::dynamic_count).sum()
    }

    /// Lazily walks the dynamic instruction stream without materialising
    /// it. Each item borrows the underlying instruction.
    #[must_use]
    pub fn walk(&self) -> WarpWalker<'_> {
        WarpWalker::new(&self.stmts)
    }
}

impl FromIterator<Instr> for WarpProgram {
    fn from_iter<I: IntoIterator<Item = Instr>>(iter: I) -> Self {
        WarpProgram {
            stmts: iter.into_iter().map(Stmt::Instr).collect(),
        }
    }
}

/// Builder for [`WarpProgram`] with nested-loop support.
#[derive(Debug)]
pub struct ProgramBuilder {
    stmts: Vec<Stmt>,
}

impl ProgramBuilder {
    /// Appends one instruction.
    pub fn push(&mut self, instr: Instr) -> &mut Self {
        self.stmts.push(Stmt::Instr(instr));
        self
    }

    /// Appends a counted loop whose body is built by `f`.
    pub fn loop_n(&mut self, trips: u32, f: impl FnOnce(&mut ProgramBuilder)) -> &mut Self {
        let mut inner = ProgramBuilder { stmts: Vec::new() };
        f(&mut inner);
        self.stmts.push(Stmt::Loop {
            trips,
            body: inner.stmts,
        });
        self
    }

    /// Finishes the program.
    #[must_use]
    pub fn build(&mut self) -> WarpProgram {
        WarpProgram {
            stmts: std::mem::take(&mut self.stmts),
        }
    }
}

/// Lazy program-counter walker over a structured program.
///
/// Maintains a stack of `(statement list, index, remaining trips)` frames,
/// so memory use is proportional to loop-nesting depth, not trace length.
pub struct WarpWalker<'a> {
    stack: Vec<Frame<'a>>,
}

struct Frame<'a> {
    stmts: &'a [Stmt],
    idx: usize,
    remaining_trips: u32,
}

impl<'a> WarpWalker<'a> {
    fn new(stmts: &'a [Stmt]) -> Self {
        WarpWalker {
            stack: vec![Frame {
                stmts,
                idx: 0,
                remaining_trips: 1,
            }],
        }
    }
}

impl<'a> Iterator for WarpWalker<'a> {
    type Item = &'a Instr;

    fn next(&mut self) -> Option<&'a Instr> {
        loop {
            let frame = self.stack.last_mut()?;
            if frame.idx >= frame.stmts.len() {
                // End of this statement list: loop back or pop.
                if frame.remaining_trips > 1 {
                    frame.remaining_trips -= 1;
                    frame.idx = 0;
                    continue;
                }
                self.stack.pop();
                continue;
            }
            let stmt = &frame.stmts[frame.idx];
            frame.idx += 1;
            match stmt {
                Stmt::Instr(i) => return Some(i),
                Stmt::Loop { trips, body } => {
                    if *trips > 0 && !body.is_empty() {
                        self.stack.push(Frame {
                            stmts: body,
                            idx: 0,
                            remaining_trips: *trips,
                        });
                    }
                }
            }
        }
    }
}

impl std::fmt::Debug for WarpWalker<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "WarpWalker(depth={})", self.stack.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Reg;

    fn nop() -> Instr {
        Instr::iadd(Reg(0), Reg(0), Reg(0))
    }

    #[test]
    fn empty_program() {
        let p = WarpProgram::builder().build();
        assert_eq!(p.dynamic_instruction_count(), 0);
        assert_eq!(p.walk().count(), 0);
    }

    #[test]
    fn nested_loops_unroll_correctly() {
        let mut b = WarpProgram::builder();
        b.loop_n(3, |outer| {
            outer.push(nop());
            outer.loop_n(4, |inner| {
                inner.push(nop());
                inner.push(nop());
            });
        });
        let p = b.build();
        // 3 * (1 + 4*2) = 27
        assert_eq!(p.dynamic_instruction_count(), 27);
        assert_eq!(p.walk().count(), 27);
    }

    #[test]
    fn zero_trip_loop_is_skipped() {
        let mut b = WarpProgram::builder();
        b.push(nop());
        b.loop_n(0, |inner| {
            inner.push(nop());
        });
        b.push(nop());
        let p = b.build();
        assert_eq!(p.walk().count(), 2);
        assert_eq!(p.dynamic_instruction_count(), 2);
    }

    #[test]
    fn walker_order_is_program_order() {
        let mut b = WarpProgram::builder();
        b.push(Instr::iadd(Reg(1), Reg(0), Reg(0)));
        b.loop_n(2, |inner| {
            inner.push(Instr::iadd(Reg(2), Reg(0), Reg(0)));
        });
        b.push(Instr::iadd(Reg(3), Reg(0), Reg(0)));
        let p = b.build();
        let dsts: Vec<u16> = p.walk().map(|i| i.dsts()[0].0).collect();
        assert_eq!(dsts, vec![1, 2, 2, 3]);
    }

    #[test]
    fn from_iterator_builds_straight_line() {
        let p: WarpProgram = (0..5).map(|_| nop()).collect();
        assert_eq!(p.dynamic_instruction_count(), 5);
    }
}
