//! Pluggable batching policies.
//!
//! A shard forms batches from its per-network FIFO queues; the policy
//! decides *when* a queue is ready to dispatch and *how many* requests
//! the batch takes. Three built-ins cover the classic serving
//! trade-off: [`Immediate`] (lowest wait, worst amortisation),
//! [`SizeK`] (best amortisation, unbounded wait at low load), and
//! [`Deadline`] (dynamic batching with a wait bound — the policy real
//! serving stacks ship).

use super::load::Request;

/// A policy's answer for one non-empty queue at one simulated instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyDecision {
    /// Dispatch the first `take` queued requests as one batch now.
    Dispatch {
        /// How many requests the batch takes (`1..=queue.len()`).
        take: usize,
    },
    /// Not ready; becomes ready at this simulated millisecond even if
    /// nothing else arrives (a deadline expiry).
    WaitUntil(f64),
    /// Not ready; only a future arrival can make this queue ready.
    WaitForArrivals,
}

/// When and how a shard's queued requests coalesce into batches.
///
/// Implementations must be pure functions of their arguments — the
/// simulation replays decisions and expects byte-identical outcomes.
/// The event engine consults `decide` at every event that can change a
/// queue's readiness (an arrival, a batch-close timer it scheduled
/// from a [`PolicyDecision::WaitUntil`], a service completion); a
/// queue whose wait already exceeds its bound must therefore dispatch
/// *at that decision point*, never hold out for the next arrival.
pub trait BatchPolicy: std::fmt::Debug + Send + Sync {
    /// Short label used in reports (`immediate`, `size8`, …).
    fn label(&self) -> String;

    /// Decides for one non-empty same-network queue (FIFO order) at
    /// simulated time `now_ms`. `more_arrivals` is false once no future
    /// request for this queue's network can reach this shard — policies
    /// must eventually dispatch in that state or the drain would stall.
    fn decide(&self, queue: &[Request], now_ms: f64, more_arrivals: bool) -> PolicyDecision;

    /// Priority of a dispatch-ready queue when several queues on one
    /// shard are ready at the same event: the engine launches the queue
    /// with the **lowest** urgency, ties to the lowest network index.
    /// The default is the head request's arrival instant — FIFO across
    /// networks, exactly the pre-engine drain order. SLO-aware policies
    /// override this (EDF returns the head's deadline).
    fn urgency(&self, queue: &[Request], _now_ms: f64) -> f64 {
        queue[0].arrival_ms
    }
}

/// No batching: every request is dispatched alone, as soon as the
/// shard frees up. Minimises time-in-queue at the cost of paying the
/// full per-inference overhead per request.
#[derive(Debug, Clone, Copy, Default)]
pub struct Immediate;

impl BatchPolicy for Immediate {
    fn label(&self) -> String {
        "immediate".into()
    }

    fn decide(&self, _queue: &[Request], _now_ms: f64, _more_arrivals: bool) -> PolicyDecision {
        PolicyDecision::Dispatch { take: 1 }
    }
}

/// Fixed-size batching: wait until `k` same-network requests queue up,
/// then dispatch exactly `k`. The tail of the trace (fewer than `k`
/// stragglers with nothing more coming) is flushed undersized.
#[derive(Debug, Clone, Copy)]
pub struct SizeK {
    k: usize,
}

impl SizeK {
    /// A policy batching `k` requests at a time (`k` is clamped to 1+).
    #[must_use]
    pub fn new(k: usize) -> Self {
        SizeK { k: k.max(1) }
    }
}

impl BatchPolicy for SizeK {
    fn label(&self) -> String {
        format!("size{}", self.k)
    }

    fn decide(&self, queue: &[Request], _now_ms: f64, more_arrivals: bool) -> PolicyDecision {
        if queue.len() >= self.k {
            PolicyDecision::Dispatch { take: self.k }
        } else if more_arrivals {
            PolicyDecision::WaitForArrivals
        } else {
            PolicyDecision::Dispatch { take: queue.len() }
        }
    }
}

/// Deadline (timeout) dynamic batching: dispatch once `max_batch`
/// requests are queued **or** the oldest has waited `max_wait_ms`,
/// whichever comes first. Bounded added latency, opportunistic
/// amortisation — what production serving frontends do.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    max_wait_ms: f64,
    max_batch: usize,
}

impl Deadline {
    /// A policy dispatching after `max_wait_ms` or at `max_batch`
    /// queued requests, whichever is hit first.
    #[must_use]
    pub fn new(max_wait_ms: f64, max_batch: usize) -> Self {
        Deadline {
            max_wait_ms: max_wait_ms.max(0.0),
            max_batch: max_batch.max(1),
        }
    }
}

impl BatchPolicy for Deadline {
    fn label(&self) -> String {
        format!("deadline{:.2}ms-max{}", self.max_wait_ms, self.max_batch)
    }

    fn decide(&self, queue: &[Request], now_ms: f64, more_arrivals: bool) -> PolicyDecision {
        if queue.len() >= self.max_batch {
            return PolicyDecision::Dispatch {
                take: self.max_batch,
            };
        }
        // A ripe queue — the oldest request's wait is at or past the
        // bound — closes at this very decision point (the triggering
        // event), never at the next arrival. When the queue is not
        // ripe, the returned instant is the exact expiry so the engine
        // can schedule the batch-close event there; an engine that only
        // re-consulted policies on arrivals would hold an expired batch
        // open until the next request happened to arrive (the
        // off-by-one-event bug the serve-engine regression suite pins).
        let expiry = queue[0].arrival_ms + self.max_wait_ms;
        if now_ms >= expiry || !more_arrivals {
            PolicyDecision::Dispatch { take: queue.len() }
        } else {
            PolicyDecision::WaitUntil(expiry)
        }
    }
}

#[cfg(test)]
mod tests {
    // Exact float equality in these tests asserts bit-reproducibility
    // of exactly-representable values; an epsilon would weaken them.
    #![allow(clippy::float_cmp)]

    use super::*;

    fn queue(arrivals: &[f64]) -> Vec<Request> {
        arrivals
            .iter()
            .enumerate()
            .map(|(i, &arrival_ms)| Request {
                id: i as u32,
                network: 0,
                arrival_ms,
                deadline_ms: f64::INFINITY,
                class: 0,
            })
            .collect()
    }

    #[test]
    fn immediate_always_takes_one() {
        let q = queue(&[0.0, 1.0, 2.0]);
        assert_eq!(
            Immediate.decide(&q, 5.0, true),
            PolicyDecision::Dispatch { take: 1 }
        );
    }

    #[test]
    fn size_k_waits_then_fills_then_flushes() {
        let policy = SizeK::new(3);
        let q2 = queue(&[0.0, 1.0]);
        assert_eq!(
            policy.decide(&q2, 1.0, true),
            PolicyDecision::WaitForArrivals
        );
        assert_eq!(
            policy.decide(&q2, 1.0, false),
            PolicyDecision::Dispatch { take: 2 },
            "end of trace must flush the stragglers"
        );
        let q4 = queue(&[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(
            policy.decide(&q4, 3.0, true),
            PolicyDecision::Dispatch { take: 3 },
            "a full batch dispatches exactly k"
        );
    }

    #[test]
    fn deadline_trips_on_size_or_timeout() {
        let policy = Deadline::new(4.0, 2);
        let q1 = queue(&[10.0]);
        assert_eq!(
            policy.decide(&q1, 11.0, true),
            PolicyDecision::WaitUntil(14.0)
        );
        assert_eq!(
            policy.decide(&q1, 14.0, true),
            PolicyDecision::Dispatch { take: 1 },
            "oldest request hit its deadline"
        );
        let q2 = queue(&[10.0, 10.5]);
        assert_eq!(
            policy.decide(&q2, 10.5, true),
            PolicyDecision::Dispatch { take: 2 },
            "max_batch reached before the deadline"
        );
        assert_eq!(
            policy.decide(&q1, 11.0, false),
            PolicyDecision::Dispatch { take: 1 },
            "end of trace dispatches without waiting out the deadline"
        );
    }

    /// Regression (the latent off-by-one-event bug): a batch whose
    /// wait already exceeds the deadline must close at the decision
    /// point that observed it — a completion freeing a busy shard, a
    /// batch-close timer — and never survive until the next arrival.
    #[test]
    fn deadline_ripe_queue_closes_at_the_triggering_event() {
        let policy = Deadline::new(4.0, 16);
        let q = queue(&[10.0, 11.0]); // head expiry: 14.0
        for now in [14.0, 14.5, 100.0] {
            assert_eq!(
                policy.decide(&q, now, true),
                PolicyDecision::Dispatch { take: 2 },
                "wait exceeded at now={now}: the batch must close here"
            );
        }
        // Not ripe: the policy names the exact batch-close instant so
        // the engine can schedule the event (nothing vaguer — an
        // engine re-consulting only on arrivals would strand it).
        assert_eq!(
            policy.decide(&q, 13.9, true),
            PolicyDecision::WaitUntil(14.0)
        );
    }

    #[test]
    fn default_urgency_is_head_arrival_fifo() {
        let q = queue(&[3.0, 9.0]);
        assert_eq!(Immediate.urgency(&q, 50.0), 3.0);
        assert_eq!(SizeK::new(4).urgency(&q, 50.0), 3.0);
        assert_eq!(Deadline::new(1.0, 2).urgency(&q, 50.0), 3.0);
    }
}
