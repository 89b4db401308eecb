//! SLO-aware scheduling: earliest-deadline-first batching.
//!
//! The policies in [`policy`](super::policy) treat time as a batching
//! knob — wait bounds limit *added* latency but know nothing about the
//! request's service-level objective. [`EarliestDeadlineFirst`] closes
//! the loop with the [`Request::deadline_ms`] the
//! [`LoadGenerator`](super::LoadGenerator) stamps on every request
//! (see [`LoadGenerator::with_slo`](super::LoadGenerator::with_slo)):
//!
//! * **Within a shard**, dispatch-ready queues launch in deadline
//!   order, not arrival order — the policy overrides
//!   [`BatchPolicy::urgency`] with the head request's deadline, which
//!   is exactly EDF for a single server.
//! * **Per queue**, an undersized batch holds for more arrivals only
//!   while the head's deadline still has more than `slack_ms` of
//!   margin; the batch-close event fires at `deadline - slack` so the
//!   request leaves in time to (just) make its SLO if the shard is
//!   free. `slack_ms` should cover one expected service time.
//!
//! Deadline *misses* are accounted by the metrics layer
//! ([`ServeOutcome::deadline_misses`](super::ServeOutcome::deadline_misses),
//! [`ServeOutcome::goodput`](super::ServeOutcome::goodput)) for every
//! policy, so EDF's effect is directly comparable against the
//! SLO-blind policies in `BENCH_serve.json`.

use super::fault::{ClassFaultStats, IdSet};
use super::load::Request;
use super::policy::{BatchPolicy, PolicyDecision};

/// Strict-priority preemption between SLO classes.
///
/// Classes are ordinal: class 0 is the most urgent (see
/// [`LoadGenerator::with_classes`](super::LoadGenerator::with_classes)).
/// When enabled on the engine, an arriving request whose class is at
/// least `min_class_gap` *more urgent* (numerically smaller) than every
/// request in the shard's running batch evicts that batch's remainder:
/// the partial work already performed is billed to the shard via the
/// same epoch-guard machinery crash aborts use, and the victims are
/// re-queued ahead of their own class peers — never ahead of the more
/// urgent work that displaced them. Enabling preemption also switches
/// every queue to strict class order (FIFO within a class), so the
/// urgent arrival is actually first in line after the eviction.
///
/// The decision itself is a pure function of the two class labels
/// (`Preemption` holds it and the evicted ids for one run); timing
/// and billing live in the engine's `Preempt` event class (see
/// `docs/AUTOSCALING.md` for the full semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreemptPolicy {
    /// Minimum class gap (arriving strictly more urgent by at least
    /// this much) before eviction triggers. Never below 1: a class
    /// must not preempt itself.
    pub min_class_gap: u8,
}

impl Default for PreemptPolicy {
    fn default() -> Self {
        PreemptPolicy { min_class_gap: 1 }
    }
}

impl PreemptPolicy {
    /// A preemption policy requiring at least `min_class_gap` classes
    /// of urgency difference (clamped to >= 1).
    #[must_use]
    pub fn new(min_class_gap: u8) -> Self {
        PreemptPolicy {
            min_class_gap: min_class_gap.max(1),
        }
    }

    /// Whether an arrival of class `arriving` evicts a running batch
    /// whose most urgent member has class `running_min`.
    #[must_use]
    pub(crate) fn preempts(&self, arriving: u8, running_min: u8) -> bool {
        u16::from(arriving) + u16::from(self.min_class_gap) <= u16::from(running_min)
    }
}

/// Preemption's run state: the policy and the ids it evicted.
#[derive(Debug)]
pub(super) struct Preemption {
    policy: PreemptPolicy,
    evicted: IdSet,
}

impl Preemption {
    /// Preemption under `policy`, with nothing evicted yet.
    pub(super) fn new(policy: PreemptPolicy) -> Self {
        Preemption {
            policy,
            evicted: IdSet::default(),
        }
    }

    /// Whether an arrival of `class` evicts the batch `running`, whose
    /// most urgent member sets the victim class.
    #[inline]
    pub(super) fn evicts(&self, class: u8, running: &[Request]) -> bool {
        let victim_class = running.iter().map(|r| r.class).fold(u8::MAX, u8::min);
        self.policy.preempts(class, victim_class)
    }

    /// Records one eviction's victims, per class and per id.
    pub(super) fn note(&mut self, victims: &[Request], class_stats: &mut [ClassFaultStats]) {
        for victim in victims {
            class_stats[usize::from(victim.class)].preempted += 1;
            self.evicted.set(victim.id);
        }
    }

    /// The evicted ids.
    pub(super) fn into_ids(self) -> IdSet {
        self.evicted
    }
}

/// Earliest-deadline-first dynamic batching with an SLO slack bound.
///
/// Dispatches once `max_batch` requests are queued, once the head
/// request's deadline is within `slack_ms` (the batch-close event), or
/// once no more arrivals can reach the queue. Requests without a
/// finite deadline fall back to waiting for arrivals (they cannot miss
/// an SLO, so amortisation wins).
#[derive(Debug, Clone, Copy)]
pub struct EarliestDeadlineFirst {
    slack_ms: f64,
    max_batch: usize,
}

impl EarliestDeadlineFirst {
    /// An EDF policy closing batches `slack_ms` before the head
    /// deadline, at `max_batch` queued requests at the latest.
    #[must_use]
    pub fn new(slack_ms: f64, max_batch: usize) -> Self {
        EarliestDeadlineFirst {
            slack_ms: slack_ms.max(0.0),
            max_batch: max_batch.max(1),
        }
    }
}

impl BatchPolicy for EarliestDeadlineFirst {
    fn label(&self) -> String {
        format!("edf{:.2}ms-max{}", self.slack_ms, self.max_batch)
    }

    fn decide(&self, queue: &[Request], now_ms: f64, more_arrivals: bool) -> PolicyDecision {
        if queue.len() >= self.max_batch {
            return PolicyDecision::Dispatch {
                take: self.max_batch,
            };
        }
        if !more_arrivals {
            return PolicyDecision::Dispatch { take: queue.len() };
        }
        let close_at = queue[0].deadline_ms - self.slack_ms;
        if !close_at.is_finite() {
            // No SLO to protect: hold for amortisation.
            return PolicyDecision::WaitForArrivals;
        }
        if now_ms >= close_at {
            // The head's slack is spent — same contract as `Deadline`:
            // a ripe batch closes at the triggering event, never at
            // the next arrival.
            PolicyDecision::Dispatch { take: queue.len() }
        } else {
            PolicyDecision::WaitUntil(close_at)
        }
    }

    /// EDF proper: among dispatch-ready queues, the soonest head
    /// deadline launches first (infinite deadlines sort last).
    fn urgency(&self, queue: &[Request], _now_ms: f64) -> f64 {
        queue[0].deadline_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(arrival_ms: f64, deadline_ms: f64) -> Request {
        Request {
            id: 0,
            network: 0,
            arrival_ms,
            deadline_ms,
            class: 0,
        }
    }

    #[test]
    fn edf_trips_on_size_slack_or_tail() {
        let policy = EarliestDeadlineFirst::new(3.0, 2);
        let q1 = [request(10.0, 20.0)];
        assert_eq!(
            policy.decide(&q1, 11.0, true),
            PolicyDecision::WaitUntil(17.0),
            "batch-close event at deadline - slack"
        );
        assert_eq!(
            policy.decide(&q1, 17.0, true),
            PolicyDecision::Dispatch { take: 1 },
            "slack spent: dispatch at the triggering event"
        );
        assert_eq!(
            policy.decide(&q1, 18.5, true),
            PolicyDecision::Dispatch { take: 1 },
            "already past the close instant (shard was busy): still now"
        );
        assert_eq!(
            policy.decide(&q1, 11.0, false),
            PolicyDecision::Dispatch { take: 1 },
            "end of trace flushes"
        );
        let q2 = [request(10.0, 20.0), request(10.5, 20.5)];
        assert_eq!(
            policy.decide(&q2, 10.5, true),
            PolicyDecision::Dispatch { take: 2 },
            "max_batch reached"
        );
    }

    #[test]
    fn edf_urgency_is_head_deadline() {
        let policy = EarliestDeadlineFirst::new(1.0, 8);
        let urgent = [request(5.0, 9.0)];
        let lax = [request(1.0, 30.0)];
        // FIFO would launch `lax` first (older head); EDF launches
        // `urgent` (sooner deadline).
        assert!(policy.urgency(&urgent, 6.0) < policy.urgency(&lax, 6.0));
    }

    #[test]
    fn preemption_requires_the_configured_class_gap() {
        let gap1 = PreemptPolicy::default();
        assert!(gap1.preempts(0, 1), "class 0 evicts class 1");
        assert!(gap1.preempts(0, 2));
        assert!(!gap1.preempts(1, 1), "a class never preempts itself");
        assert!(!gap1.preempts(2, 1), "less urgent work never preempts");
        let gap2 = PreemptPolicy::new(2);
        assert!(!gap2.preempts(0, 1), "gap 2: adjacent classes coexist");
        assert!(gap2.preempts(0, 2));
        // The gap clamps to >= 1 so self-preemption is unrepresentable,
        // and the u16 arithmetic cannot wrap at the u8 extremes.
        assert_eq!(PreemptPolicy::new(0), PreemptPolicy::default());
        assert!(!PreemptPolicy::new(u8::MAX).preempts(u8::MAX, u8::MAX));
    }

    #[test]
    fn edf_without_slo_waits_for_amortisation() {
        let policy = EarliestDeadlineFirst::new(2.0, 4);
        let q = [request(0.0, f64::INFINITY)];
        assert_eq!(
            policy.decide(&q, 1e9, true),
            PolicyDecision::WaitForArrivals
        );
        assert_eq!(
            policy.decide(&q, 1e9, false),
            PolicyDecision::Dispatch { take: 1 }
        );
    }
}
