//! Plan-family parity: incremental batch-derived plans
//! ([`PlanFamily::try_plan`](sma::runtime::PlanFamily)) must be
//! `to_bits`-identical to from-scratch compilation
//! ([`Executor::try_plan`](sma::runtime::Executor)) for every platform ×
//! zoo network × batch point, and arena-backed replay
//! ([`PlanArena::replay`](sma::runtime::PlanArena)) must match
//! heap-plan replay bit-for-bit — including under concurrent replay
//! from eight threads, which is exactly how the `dse` grid uses it.

use proptest::prelude::*;
use sma::runtime::{Executor, PlanArena};

mod common;
use common::{assert_bit_identical, networks, platforms};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A family compiled once (at batch 1) and instantiated at an
    /// arbitrary batch replays bit-identically to an executor that
    /// compiled the plan from scratch at that batch.
    #[test]
    fn family_derived_plans_match_from_scratch(
        platform_slot in 0usize..7,
        network_slot in 0usize..7,
        batch in 1usize..=64,
    ) {
        let platform = platforms()[platform_slot];
        let network = &networks()[network_slot];
        let scratch = Executor::builder(platform).batch(batch).build();
        let family = Executor::builder(platform).build().plan_family(network);
        match (scratch.try_plan(network), family.try_plan(batch)) {
            (Ok(from_scratch), Ok(derived)) => {
                let context =
                    format!("{platform:?}/{}/b{batch}", network.name());
                assert_bit_identical(&context, &from_scratch.run(), &derived.run());
            }
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
            (scratch, derived) => {
                return Err(TestCaseError::fail(format!(
                    "divergent planability: from-scratch {:?} vs derived {:?}",
                    scratch.map(|p| p.steps().len()),
                    derived.map(|p| p.steps().len()),
                )));
            }
        }
    }

    /// Plans derived into an arena replay bit-identically to the heap
    /// plans the same family derives, for arbitrary batch points.
    #[test]
    fn arena_replay_matches_heap_replay(
        platform_slot in 0usize..7,
        network_slot in 0usize..7,
        batch in 1usize..=64,
    ) {
        let platform = platforms()[platform_slot];
        let network = &networks()[network_slot];
        let family = Executor::builder(platform).build().plan_family(network);
        let mut arena = PlanArena::new();
        if let (Ok(heap), Ok(interned)) = (
            family.try_plan(batch),
            family.try_plan_into(batch, &mut arena),
        ) {
            let context = format!("{platform:?}/{}/b{batch}", network.name());
            assert_bit_identical(&context, &heap.run(), &arena.replay(&interned));
        }
    }
}

/// The pinned grid: every platform × zoo network × batches
/// {1, 4, 16, 64}, family-derived vs from-scratch, exhaustively (the
/// proptests above sample; this enumerates).
#[test]
fn family_parity_holds_on_the_full_grid() {
    for network in networks() {
        for platform in platforms() {
            let family = Executor::builder(platform).build().plan_family(&network);
            for batch in [1usize, 4, 16, 64] {
                let scratch = Executor::builder(platform).batch(batch).build();
                let (Ok(from_scratch), Ok(derived)) =
                    (scratch.try_plan(&network), family.try_plan(batch))
                else {
                    continue;
                };
                let context = format!("{platform:?}/{}/b{batch}", network.name());
                assert_bit_identical(&context, &from_scratch.run(), &derived.run());
            }
        }
    }
}

/// Eight threads replaying every arena plan concurrently all see
/// bit-identical profiles — the arena is read-only after compilation,
/// and replay is pure aggregation (the `dse` hot-path contract).
#[test]
fn concurrent_arena_replay_is_bit_identical() {
    let mut arena = PlanArena::new();
    let mut entries = Vec::new();
    for network in networks() {
        for platform in platforms() {
            let family = Executor::builder(platform).build().plan_family(&network);
            for batch in [1usize, 16] {
                if let (Ok(heap), Ok(interned)) = (
                    family.try_plan(batch),
                    family.try_plan_into(batch, &mut arena),
                ) {
                    entries.push((interned, heap.run()));
                }
            }
        }
    }
    assert!(entries.len() > 60, "grid collapsed to {}", entries.len());
    let (arena, entries) = (&arena, &entries);
    std::thread::scope(|scope| {
        for worker in 0..8 {
            scope.spawn(move || {
                // Stagger starting offsets so threads collide on
                // different plans at the same instant.
                for step in 0..entries.len() {
                    let (interned, reference) = &entries[(worker * 11 + step) % entries.len()];
                    let replayed = arena.replay(interned);
                    assert_bit_identical(
                        &format!("worker {worker} plan {step}"),
                        reference,
                        &replayed,
                    );
                }
            });
        }
    });
}
