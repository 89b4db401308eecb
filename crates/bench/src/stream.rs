//! Order-preserving streaming results writer.
//!
//! The DSE grid (`crates/bench/src/dse.rs`) evaluates thousands of
//! points on work-stealing workers, so rows complete out of order. The
//! committed artifacts must nevertheless be byte-identical across runs
//! and thread counts: [`StreamWriter`] writes each row the moment every
//! earlier row has been written, parking only the out-of-order suffix
//! in a [`BTreeMap`]. Peak parked rows is bounded by how far the fastest
//! worker runs ahead of the slowest, and the fan-out bounds that:
//! [`run_work_stealing`](crate::sweep::run_work_stealing) starts an index
//! only within 64 of the lowest one still in progress, so behind it the
//! writer parks fewer than 64 rows by construction, even while the
//! worker holding the next index is descheduled. (Without that window
//! the other workers ran on through the grid, and the 5 040-point DSE
//! grid parked up to 5 019 rows.) The peak is reported as
//! [`StreamStats::peak_pending`] so the bound is observed, not assumed.
//!
//! Rows are hashed and written in index order under one mutex, by the
//! worker whose push makes them next: its own row, then any parked
//! successors it unblocks. That critical section is short (~0.8 µs of
//! serial FNV for a ~411-byte DSE row), so a worker that finds the lock
//! held spins on `try_lock` for a bounded number of rounds
//! (`SPIN_ROUNDS`) before it falls back to a blocking `lock()`. Blocking
//! at once puts the waiter to sleep in the kernel for far longer than
//! the holder needs; with two workers that handoff made the grid's row
//! phase slower than one worker alone. The fallback keeps a descheduled
//! holder, or a host with more workers than cores, from costing the
//! waiter more than the bounded spin. A dedicated drainer thread that
//! hashes and writes every row was measured and rejected: it must read
//! each row from the producing core's cache, which left it only 4–9%
//! ahead, and copying parked rows into a staging buffer for it raised
//! peak memory by about a third. A combining drain (one worker hashes
//! and writes the rows others hand it) took 11 ms for the grid's row
//! phase, and separate locks for the parked rows and the sink took
//! 9 ms; both lost to the one lock (`docs/SWEEP.md`, "Tried and
//! dropped").
//!
//! The first sink error is remembered: every later [`StreamWriter::push`]
//! and [`StreamWriter::finish`] returns it, and no row parks after it.
//!
//! The writer is generic over its sink: the `dse` bin streams to a
//! buffered file, while tests and the benchmark harness collect the
//! same bytes in a `Vec<u8>`. The writer also chains an [`fnv1a64`]
//! digest over the rows it writes, in index order
//! ([`StreamStats::digest`]). The `dse` bin never reads it: its rows
//! carry the JSON array's brackets and separators, so that digest is not
//! the committed `rows_digest`, and CI's double runs byte-diff the files
//! instead. Its one reader is the benchmark's `dse-grid` output check,
//! which pushes bare rows and requires this digest to equal
//! `DseReport::rows_digest`. That loop thus hashes every row twice, at
//! ~1.8 ns/byte per pass, the FNV dependency chain's floor; the second
//! pass stays while the check pins both digests (`docs/SWEEP.md`).

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::{Mutex, MutexGuard, TryLockError};

/// `try_lock` rounds a pushing worker spins before it blocks: enough to
/// cover one row's write and hash, bounded so a descheduled holder
/// costs the waiter tens of microseconds at most, not a core.
const SPIN_ROUNDS: u32 = 1 << 10;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash of `bytes` continued from `seed`.
///
/// Pass [`fnv1a64_seed`] as the seed for a fresh hash; pass a previous
/// digest to chain multiple buffers as if they were one.
#[must_use]
pub(crate) fn fnv1a64_chain(seed: u64, bytes: &[u8]) -> u64 {
    let mut hash = seed;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The seed for a fresh [`fnv1a64_chain`] hash.
#[must_use]
pub(crate) const fn fnv1a64_seed() -> u64 {
    FNV_OFFSET
}

/// FNV-1a 64-bit hash of one buffer.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_chain(fnv1a64_seed(), bytes)
}

/// Counters describing a completed streaming pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamStats {
    /// Rows written.
    pub rows: usize,
    /// Chained FNV-1a 64 digest over the rows, in index order.
    pub digest: u64,
    /// Largest number of rows ever parked waiting for an earlier row —
    /// the writer's actual memory high-water mark, in rows.
    pub peak_pending: usize,
}

struct StreamInner<W: Write> {
    out: W,
    /// Index of the next row to write.
    next: usize,
    /// Completed rows whose predecessors have not all arrived yet.
    pending: BTreeMap<usize, String>,
    digest: u64,
    rows: usize,
    peak_pending: usize,
    /// The first sink error; once set, nothing more is written.
    failed: Option<io::Error>,
}

impl<W: Write> StreamInner<W> {
    /// Writes `row`, folding it into the digest.
    fn emit(&mut self, row: &str) -> io::Result<()> {
        self.out.write_all(row.as_bytes())?;
        self.digest = fnv1a64_chain(self.digest, row.as_bytes());
        self.rows += 1;
        self.next += 1;
        Ok(())
    }

    /// Writes `row` (index `next`) and every parked row it unblocks.
    fn emit_run(&mut self, row: &str) -> io::Result<()> {
        self.emit(row)?;
        loop {
            let next = self.next;
            let Some(parked) = self.pending.remove(&next) else {
                return Ok(());
            };
            self.emit(&parked)?;
        }
    }
}

/// A copy of `err` (`io::Error` is not `Clone`) with its kind and message.
fn copy_error(err: &io::Error) -> io::Error {
    io::Error::new(err.kind(), err.to_string())
}

/// An order-preserving row sink shared by work-stealing workers; it
/// parks out-of-order rows (see the module docs for how many).
pub struct StreamWriter<W: Write> {
    inner: Mutex<StreamInner<W>>,
}

impl<W: Write> StreamWriter<W> {
    /// A writer over `out`, expecting rows indexed from 0.
    pub fn new(out: W) -> Self {
        StreamWriter {
            inner: Mutex::new(StreamInner {
                out,
                next: 0,
                pending: BTreeMap::new(),
                digest: fnv1a64_seed(),
                rows: 0,
                peak_pending: 0,
                failed: None,
            }),
        }
    }

    /// Takes the lock, spinning briefly before blocking (see the module
    /// docs).
    #[expect(
        clippy::disallowed_methods,
        reason = "the writer's one lock; no caller holds another guard"
    )]
    fn lock(&self) -> MutexGuard<'_, StreamInner<W>> {
        for _ in 0..SPIN_ROUNDS {
            match self.inner.try_lock() {
                Ok(inner) => return inner,
                Err(TryLockError::WouldBlock) => std::hint::spin_loop(),
                Err(TryLockError::Poisoned(_)) => break,
            }
        }
        // Poisoning means a worker panicked mid-write; corrupting the
        // committed artifact would be worse than propagating it.
        self.inner.lock().expect("stream writer poisoned")
    }

    /// Accepts row `index`; writes it now if it is the next row in
    /// order, otherwise parks it until its predecessors arrive (and
    /// drains any parked successors that the write unblocks).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying sink. After the first
    /// one, every push returns a copy of it and drops its row.
    ///
    /// # Panics
    ///
    /// Panics if `index` was already pushed (each row has exactly one
    /// producer by construction of the work-stealing cursor) or the
    /// mutex was poisoned by a panicking worker.
    pub fn push(&self, index: usize, row: String) -> io::Result<()> {
        let mut inner = self.lock();
        if let Some(err) = &inner.failed {
            return Err(copy_error(err));
        }
        // A double push is a driver bug; corrupting the committed
        // artifact would be worse.
        assert!(
            index >= inner.next && !inner.pending.contains_key(&index),
            "row {index} pushed twice"
        );
        if index != inner.next {
            inner.pending.insert(index, row);
            inner.peak_pending = inner.peak_pending.max(inner.pending.len());
            return Ok(());
        }
        let written = inner.emit_run(&row);
        if let Err(err) = &written {
            inner.failed = Some(copy_error(err));
            inner.pending.clear();
        }
        written
    }

    /// Flushes the sink and returns the pass counters plus the sink
    /// itself (so a buffered caller can recover its `Vec<u8>`).
    ///
    /// # Errors
    ///
    /// Returns the first error any push met, else propagates flush
    /// errors.
    ///
    /// # Panics
    ///
    /// Panics if rows are still parked — i.e. some earlier index was
    /// never pushed, which means the driver lost a point.
    pub fn finish(self) -> io::Result<(StreamStats, W)> {
        // A lost row is a driver bug; see push.
        let mut inner = self.inner.into_inner().expect("stream writer poisoned");
        if let Some(err) = inner.failed.take() {
            return Err(err);
        }
        assert!(
            inner.pending.is_empty(),
            "stream writer finished with {} rows parked (first gap at index {})",
            inner.pending.len(),
            inner.next
        );
        inner.out.flush()?;
        Ok((
            StreamStats {
                rows: inner.rows,
                digest: inner.digest,
                peak_pending: inner.peak_pending,
            },
            inner.out,
        ))
    }
}

impl<W: Write> std::fmt::Debug for StreamWriter<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamWriter").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("row-{i}\n")).collect()
    }

    fn written(order: &[usize], n: usize) -> (StreamStats, Vec<u8>) {
        let all = rows(n);
        let writer = StreamWriter::new(Vec::new());
        for &i in order {
            writer.push(i, all[i].clone()).expect("vec write");
        }
        writer.finish().expect("finish")
    }

    #[test]
    fn in_order_rows_stream_straight_through() {
        let (stats, bytes) = written(&[0, 1, 2, 3], 4);
        assert_eq!(bytes, rows(4).concat().into_bytes());
        assert_eq!(stats.rows, 4);
        assert_eq!(stats.peak_pending, 0);
    }

    #[test]
    fn out_of_order_rows_land_in_index_order() {
        let (in_order, a) = written(&[0, 1, 2, 3, 4, 5], 6);
        let (scrambled, b) = written(&[3, 0, 5, 1, 2, 4], 6);
        assert_eq!(a, b, "bytes must not depend on completion order");
        assert_eq!(in_order.digest, scrambled.digest);
        assert!(scrambled.peak_pending >= 1);
    }

    #[test]
    fn reverse_order_bounds_pending_at_n_minus_one() {
        let (stats, bytes) = written(&[4, 3, 2, 1, 0], 5);
        assert_eq!(bytes, rows(5).concat().into_bytes());
        assert_eq!(stats.peak_pending, 4);
    }

    #[test]
    fn digest_matches_one_shot_hash_of_the_bytes() {
        let (stats, bytes) = written(&[2, 0, 1], 3);
        assert_eq!(stats.digest, fnv1a64(&bytes));
    }

    #[test]
    #[should_panic(expected = "pushed twice")]
    fn double_push_is_a_driver_bug() {
        let writer = StreamWriter::new(Vec::new());
        writer.push(0, "a".into()).expect("vec write");
        let _ = writer.push(0, "a".into());
    }

    #[test]
    #[should_panic(expected = "rows parked")]
    fn finishing_with_a_gap_is_a_driver_bug() {
        let writer = StreamWriter::new(Vec::new());
        writer.push(1, "b".into()).expect("vec write");
        let _ = writer.finish();
    }

    /// A sink that accepts `budget` bytes, then fails every write.
    #[derive(Debug)]
    struct FailAfter {
        budget: usize,
    }

    impl Write for FailAfter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.budget == 0 {
                return Err(io::Error::other("sink full"));
            }
            let n = buf.len().min(self.budget);
            self.budget -= n;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_sink_error_is_remembered_and_returned_by_finish() {
        let all = rows(6);
        let writer = StreamWriter::new(FailAfter {
            budget: all[0].len() + 2,
        });
        // Row 2 parks; row 0 writes; row 1 fails mid-row, taking the
        // parked row 2 down with it.
        writer.push(2, all[2].clone()).expect("parks");
        writer.push(0, all[0].clone()).expect("fits the budget");
        let first = writer.push(1, all[1].clone()).expect_err("sink is full");
        assert_eq!(first.to_string(), "sink full");
        // Later rows, in order or not, get the same error and never park.
        for i in [4, 3, 5] {
            let later = writer.push(i, all[i].clone()).expect_err("remembered");
            assert_eq!(later.kind(), first.kind());
            assert_eq!(later.to_string(), "sink full");
        }
        let err = writer.finish().expect_err("finish reports, not panics");
        assert_eq!(err.to_string(), "sink full");
    }

    #[test]
    fn a_failing_first_row_is_reported_by_finish() {
        let writer = StreamWriter::new(FailAfter { budget: 0 });
        writer.push(1, "b".into()).expect("parks");
        assert!(writer.push(0, "a".into()).is_err());
        assert!(writer.finish().is_err());
    }

    #[test]
    fn concurrent_workers_write_the_in_order_bytes() {
        // Four and eight workers oversubscribe a small host, so pushes
        // run out of spin and take the blocking fallback.
        const N: usize = 3000;
        let all: Vec<String> = (0..N)
            .map(|i| format!("{{\"index\": {i}, \"pad\": \"{}\"}}\n", "x".repeat(i % 97)))
            .collect();
        let expected = all.concat().into_bytes();
        for threads in [2, 4, 8] {
            let writer = StreamWriter::new(Vec::new());
            let workers = crate::sweep::run_work_stealing(N, threads, |i| {
                writer.push(i, all[i].clone()).expect("vec write");
            });
            assert_eq!(workers, threads);
            let (stats, bytes) = writer.finish().expect("finish");
            assert!(bytes == expected, "{threads} workers reordered bytes");
            assert_eq!(stats.digest, fnv1a64(&bytes));
            assert_eq!(stats.rows, N);
            assert!(
                stats.peak_pending <= crate::sweep::RUN_AHEAD,
                "{threads} workers parked {} rows",
                stats.peak_pending
            );
        }
    }

    #[test]
    fn fnv_vectors_pin_the_hash() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
