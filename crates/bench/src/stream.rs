//! Order-preserving streaming results writer.
//!
//! The DSE grid (`crates/bench/src/dse.rs`) evaluates thousands of
//! points on work-stealing workers, so rows complete out of order. The
//! committed artifacts must nevertheless be byte-identical across runs
//! and thread counts: [`StreamWriter`] writes each row the moment every
//! earlier row has been written, parking only the out-of-order suffix
//! in a [`BTreeMap`]. Peak parked rows is bounded by how far the fastest
//! worker runs ahead of the slowest. That is a few rows while every
//! worker keeps running, but up to every row but one while the worker
//! holding the next index is descheduled: the others run on through the
//! grid and every row they finish parks. On the 5 040-point DSE grid
//! with two workers on a 2-core host, measured peaks range from a few
//! dozen rows in most `dse` bin runs to 1 509 in one, and reach 5 019
//! in `perfbench` runs. The peak is reported as
//! [`StreamStats::peak_pending`] so the bound is observed, not assumed.
//!
//! The writer is generic over its sink: the `dse` bin streams to a
//! buffered file, while tests and the benchmark harness collect the
//! same bytes in a `Vec<u8>`. The chained [`fnv1a64`] digest over rows
//! (in index order) gives a cheap cross-run fingerprint for the CI
//! double-run diff.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::Mutex;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash of `bytes` continued from `seed`.
///
/// Pass [`fnv1a64_seed`] as the seed for a fresh hash; pass a previous
/// digest to chain multiple buffers as if they were one.
#[must_use]
pub fn fnv1a64_chain(seed: u64, bytes: &[u8]) -> u64 {
    let mut hash = seed;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The seed for a fresh [`fnv1a64_chain`] hash.
#[must_use]
pub const fn fnv1a64_seed() -> u64 {
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
            }),
        }
    }

    /// Accepts row `index`; writes it now if it is the next row in
    /// order, otherwise parks it until its predecessors arrive (and
    /// drains any parked successors that the write unblocks).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying sink.
    ///
    /// # Panics
    ///
    /// Panics if `index` was already pushed (each row has exactly one
    /// producer by construction of the work-stealing cursor) or the
    /// mutex was poisoned by a panicking worker.
    pub fn push(&self, index: usize, row: String) -> io::Result<()> {
        // Double-push and poisoning are driver bugs; corrupting the
        // committed artifact would be worse.
        let mut inner = self.inner.lock().expect("stream writer poisoned");
        assert!(
            index >= inner.next && !inner.pending.contains_key(&index),
            "row {index} pushed twice"
        );
        if index != inner.next {
            inner.pending.insert(index, row);
            inner.peak_pending = inner.peak_pending.max(inner.pending.len());
            return Ok(());
        }
        inner.emit(&row)?;
        loop {
            let next = inner.next;
            let Some(parked) = inner.pending.remove(&next) else {
                break;
            };
            inner.emit(&parked)?;
        }
        Ok(())
    }

    /// Flushes the sink and returns the pass counters plus the sink
    /// itself (so a buffered caller can recover its `Vec<u8>`).
    ///
    /// # Errors
    ///
    /// Propagates flush errors.
    ///
    /// # Panics
    ///
    /// Panics if rows are still parked — i.e. some earlier index was
    /// never pushed, which means the driver lost a point.
    pub fn finish(self) -> io::Result<(StreamStats, W)> {
        // A lost row is a driver bug; see push.
        let mut inner = self.inner.into_inner().expect("stream writer poisoned");
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

    #[test]
    fn fnv_vectors_pin_the_hash() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
