//! Kernel launches: grids of thread blocks running warp roles.

use crate::program::WarpProgram;
use crate::IsaError;

/// A group of warps within a thread block that execute the same program.
///
/// The paper's double-buffered GEMM uses two roles per block: 32 warps
/// loading the next `Atile`/`Btile` in SIMD mode while 32 warps compute the
/// current tile in systolic mode, swapping every iteration (§IV-C).
#[derive(Debug, Clone, PartialEq)]
pub struct WarpRole {
    /// Human-readable role name (e.g. `"loader"`, `"computer"`).
    pub name: String,
    /// Number of warps executing this role per block.
    pub warps: u32,
    /// The program each warp runs.
    pub program: WarpProgram,
}

impl WarpRole {
    /// Creates a role.
    #[must_use]
    pub fn new(name: impl Into<String>, warps: u32, program: WarpProgram) -> Self {
        WarpRole {
            name: name.into(),
            warps,
            program,
        }
    }
}

/// One thread block of a kernel launch: every role's warps, run
/// together on one SM.
///
/// # Example
///
/// ```
/// use sma_isa::{Instr, Kernel, Reg, WarpProgram, WarpRole};
///
/// # fn main() -> Result<(), sma_isa::IsaError> {
/// let mut b = WarpProgram::builder();
/// b.push(Instr::ffma(Reg(1), Reg(0), Reg(0), Reg(1)));
/// let k = Kernel::new(vec![WarpRole::new("main", 8, b.build())])?;
/// assert_eq!(k.roles()[0].warps, 8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    roles: Vec<WarpRole>,
}

impl Kernel {
    /// Creates a kernel launch.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::EmptyLaunch`] if the role list is empty or
    /// any role has zero warps.
    pub fn new(roles: Vec<WarpRole>) -> Result<Self, IsaError> {
        if roles.is_empty() {
            return Err(IsaError::EmptyLaunch { what: "warp roles" });
        }
        if roles.iter().any(|r| r.warps == 0) {
            return Err(IsaError::EmptyLaunch {
                what: "warps in a role",
            });
        }
        Ok(Kernel { roles })
    }

    /// The warp roles of each block.
    #[must_use]
    pub fn roles(&self) -> &[WarpRole] {
        &self.roles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{Instr, Reg};

    fn one_instr_program(n: u64) -> WarpProgram {
        let mut b = WarpProgram::builder();
        for _ in 0..n {
            b.push(Instr::iadd(Reg(0), Reg(0), Reg(0)));
        }
        b.build()
    }

    #[test]
    fn rejects_empty_launches() {
        assert!(matches!(
            Kernel::new(vec![]),
            Err(IsaError::EmptyLaunch { what: "warp roles" })
        ));
        assert!(Kernel::new(vec![WarpRole::new("m", 0, one_instr_program(1))]).is_err());
    }

    #[test]
    fn counts_roles_and_instructions() {
        let k = Kernel::new(vec![
            WarpRole::new("loader", 32, one_instr_program(10)),
            WarpRole::new("computer", 32, one_instr_program(20)),
        ])
        .unwrap();
        assert_eq!(k.roles().iter().map(|r| r.warps).sum::<u32>(), 64);
        let per_block: u64 = k
            .roles()
            .iter()
            .map(|r| u64::from(r.warps) * r.program.dynamic_instruction_count())
            .sum();
        assert_eq!(per_block, 32 * 10 + 32 * 20);
        assert_eq!(k.roles().len(), 2);
    }
}
