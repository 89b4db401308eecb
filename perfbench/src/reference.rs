//! Reference digests of the serving rows at the recorded seed: FNV-1a 64
//! of each row's one-combo `ServeBenchReport` JSON over a
//! `serve::REF_REQUESTS`-request trace drawn from `serve::REF_SEED`.
//!
//! They pin the simulated statistics, which the host-time metrics leave
//! ungated. A change that moves them on purpose regenerates this table
//! with `perfbench --print-reference`.

use crate::serve::{Mix, ServeWorkload, REF_REQUESTS, REF_SEED};

/// `(row key, digest)` for every `serve-online` and `serve-chaos` row.
const DIGESTS: [(&str, u64); 27] = [
    (
        "immediate x round-robin @unbounded none/none/none",
        0xd29a32361d0ec12f,
    ),
    (
        "immediate x least-backlog @unbounded none/none/none",
        0xca30c7ff6cfaa5aa,
    ),
    (
        "size8 x round-robin @unbounded none/none/none",
        0xcc2f773c1339435c,
    ),
    (
        "size8 x least-backlog @unbounded none/none/none",
        0xa01b228633febb4d,
    ),
    (
        "deadline10.59ms-max16 x round-robin @unbounded none/none/none",
        0x9d654aacf206c80b,
    ),
    (
        "deadline10.59ms-max16 x least-backlog @unbounded none/none/none",
        0x80ed8619f90ed433,
    ),
    (
        "edf10.59ms-max16 x round-robin @unbounded none/none/none",
        0x99b03e8147e46378,
    ),
    (
        "edf10.59ms-max16 x least-backlog @unbounded none/none/none",
        0x3fabb97ed9bc2b1a,
    ),
    (
        "immediate x round-robin @13KiB none/none/none",
        0xddb439390f825cb0,
    ),
    (
        "immediate x least-backlog @13KiB none/none/none",
        0x0e69a36521527603,
    ),
    (
        "size8 x round-robin @13KiB none/none/none",
        0xc0fe3dbe842e7212,
    ),
    (
        "size8 x least-backlog @13KiB none/none/none",
        0xcb8e134e14cdb0d2,
    ),
    (
        "deadline10.59ms-max16 x round-robin @13KiB none/none/none",
        0xfeaf35b6271ce9d4,
    ),
    (
        "deadline10.59ms-max16 x least-backlog @13KiB none/none/none",
        0x855171ec84409537,
    ),
    (
        "edf10.59ms-max16 x round-robin @13KiB none/none/none",
        0x6b50c6a0d9b75ebd,
    ),
    (
        "edf10.59ms-max16 x least-backlog @13KiB none/none/none",
        0x342cc60c77e62873,
    ),
    (
        "edf10.59ms-max16 x health-weighted @unbounded crash-heavy/retry/none",
        0xfc635e64c0991926,
    ),
    (
        "edf10.59ms-max16 x health-weighted @unbounded crash-heavy/retry+hedge/none",
        0xa89b60a24b9bccbd,
    ),
    (
        "edf10.59ms-max16 x health-weighted @unbounded degrade-heavy/retry/none",
        0x95b5dff3268b9c6b,
    ),
    (
        "edf10.59ms-max16 x health-weighted @unbounded degrade-heavy/retry+hedge/none",
        0x7d1c86a6d5dd648a,
    ),
    (
        "edf10.59ms-max16 x health-weighted @unbounded none/none/static+preempt",
        0x232ac50402c5a8b0,
    ),
    (
        "edf10.59ms-max16 x health-weighted @unbounded none/none/static+mix",
        0x83e6cfc28a7d2d5f,
    ),
    (
        "edf10.59ms-max16 x health-weighted @unbounded none/none/static+preempt+mix",
        0xe9f1d3f351aa5de6,
    ),
    (
        "edf10.59ms-max16 x health-weighted @unbounded none/none/auto",
        0x15b2b75a3ca8dd71,
    ),
    (
        "edf10.59ms-max16 x health-weighted @unbounded none/none/auto+preempt",
        0x3826f26fb749ce15,
    ),
    (
        "edf10.59ms-max16 x health-weighted @unbounded none/none/auto+mix",
        0x645ee27e42939e7c,
    ),
    (
        "edf10.59ms-max16 x health-weighted @unbounded none/none/auto+preempt+mix",
        0xad9bfdb43ee54ee8,
    ),
];

/// The stored digest of a row, if there is one.
#[must_use]
pub fn digest(key: &str) -> Option<u64> {
    DIGESTS.iter().find(|(k, _)| *k == key).map(|&(_, d)| d)
}

/// Prints the table for this file at the recorded seed.
///
/// # Errors
///
/// A backend rejecting the default cluster, or a row failing to run.
pub fn print() -> Result<(), String> {
    for mix in [Mix::Online, Mix::Chaos] {
        let workload = ServeWorkload::new(mix, REF_REQUESTS, REF_SEED)?;
        for (key, digest) in workload.digests()? {
            println!("    ({key:?}, 0x{digest:016x}),");
        }
    }
    Ok(())
}
