//! The instant path of embedded blocks: allocation count and
//! strategy agreement.
//!
//! The policy of use lets a refined block allocate only during
//! initialization (R4), so a reaction is bounded work. These tests hold
//! the runtime around the block to the same rule: once warm, one
//! `System::react` over a grid of embedded native blocks and stock
//! adders allocates only its signal store and its returned output
//! vector. A per-thread counting allocator makes the count exact even
//! while other tests run on other threads.

use asr::fixpoint::{FixpointStats, Strategy as EvalStrategy};
use asr::system::{Sink, Source, System, SystemBuilder};
use asr::value::Value;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;

/// Counts the allocations (and reallocations) made by each thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot is gone while the thread tears down, and an
    // allocation then must still succeed.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to the system allocator with the
// caller's arguments unchanged, so it upholds `GlobalAlloc`'s contract
// exactly as the system allocator does; the counter is a thread-local
// `Cell` with a const initializer, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged (see the impl's comment).
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged (see the impl's comment).
        unsafe { SystemAlloc.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged (see the impl's comment).
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged (see the impl's comment).
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs_on_this_thread() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Embeds grid block `b`: Fir, Counter, TrafficLight, cycling; the
/// counters saturate at different limits.
fn embed_block(b: usize) -> sfr::embed::JtBlock {
    let (source, class, args) = match b % 3 {
        0 => (jtlang::corpus::FIR_FILTER, "Fir", vec![]),
        1 => (jtlang::corpus::COUNTER, "Counter", vec![20 + b as i64]),
        _ => (jtlang::corpus::TRAFFIC_LIGHT, "TrafficLight", vec![]),
    };
    let block = sfr::embed::embed(source, class, &args).expect("corpus block embeds");
    assert_eq!(block.engine_tier(), "native", "{class}");
    block
}

/// `lanes` chains of `depth` embedded blocks, one input each; the lane
/// outputs are external outputs and a tree of `lanes - 1` stock adders
/// sums them into a last output.
fn grid(lanes: usize, depth: usize, strategy: EvalStrategy) -> System {
    let mut b = SystemBuilder::new("grid");
    let mut level = Vec::new();
    for l in 0..lanes {
        let mut prev = Source::ext(b.add_input(format!("x{l}")));
        for d in 0..depth {
            let id = b.add_block(embed_block(l * depth + d));
            b.connect(prev, Sink::block(id, 0)).unwrap();
            prev = Source::block(id, 0);
        }
        let o = b.add_output(format!("lane{l}"));
        b.connect(prev, Sink::ext(o)).unwrap();
        level.push(prev);
    }
    let mut adds = 0;
    while level.len() > 1 {
        let mut next = Vec::new();
        for pair in level.chunks(2) {
            if let [a, c] = pair {
                let add = b.add_block(asr::stock::add(format!("add{adds}")));
                adds += 1;
                b.connect(*a, Sink::block(add, 0)).unwrap();
                b.connect(*c, Sink::block(add, 1)).unwrap();
                next.push(Source::block(add, 0));
            } else {
                next.push(pair[0]);
            }
        }
        level = next;
    }
    let o = b.add_output("sum");
    b.connect(level[0], Sink::ext(o)).unwrap();
    let mut sys = b.build().unwrap();
    sys.set_strategy(strategy);
    // Fan every level of two or more blocks out to the workers.
    sys.set_parallel_threshold(2);
    sys
}

/// Inputs in −3..=3 for instant `t`, lane `l`.
fn input(t: usize, l: usize) -> Value {
    Value::int(((t * 7 + l * 5) % 7) as i64 - 3)
}

#[test]
fn a_warm_instant_allocates_only_signals_and_outputs() {
    let (lanes, depth) = (8, 4);
    let mut sys = grid(lanes, depth, EvalStrategy::Staged);
    assert_eq!(sys.num_blocks(), 32 + 7);
    let inputs: Vec<Vec<Value>> = (0..64)
        .map(|t| (0..lanes).map(|l| input(t, l)).collect())
        .collect();
    for x in &inputs[..8] {
        sys.react(x).unwrap();
    }
    let mut worst = 0;
    for x in &inputs[8..] {
        let before = allocs_on_this_thread();
        let out = sys.react(x).unwrap();
        worst = worst.max(allocs_on_this_thread() - before);
        assert_eq!(out.len(), lanes + 1);
    }
    assert!(
        worst <= 2,
        "a warm System::react made {worst} allocations; the signal store and the outputs need 2"
    );
}

const STRATEGIES: [EvalStrategy; 4] = [
    EvalStrategy::Staged,
    EvalStrategy::Parallel { workers: 2 },
    EvalStrategy::Worklist,
    EvalStrategy::Chaotic,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every strategy computes the same outputs on a random grid;
    /// `Parallel` also repeats `Staged`'s `FixpointStats` exactly, and
    /// every strategy climbs the same signals (the iteration counts of
    /// the worklist and chaotic solvers legitimately differ).
    #[test]
    fn strategies_agree_on_embedded_grids(
        lanes in 1usize..=6,
        depth in 1usize..=3,
        xs in proptest::collection::vec(-3i64..=3, 6 * 24),
    ) {
        let mut systems: Vec<System> =
            STRATEGIES.iter().map(|&s| grid(lanes, depth, s)).collect();
        for t in 0..24 {
            let inputs: Vec<Value> = (0..lanes).map(|l| Value::int(xs[t * 6 + l])).collect();
            let mut runs: Vec<(Vec<Value>, FixpointStats)> = Vec::new();
            for sys in &mut systems {
                let (out, record) = sys.react_traced(&inputs).unwrap();
                runs.push((out, record.stats));
            }
            let (staged_out, staged_stats) = &runs[0];
            prop_assert!(staged_out.iter().all(|v| v.as_int().is_some()));
            prop_assert_eq!(runs[1].1, *staged_stats, "parallel stats at instant {}", t);
            for (i, (out, stats)) in runs.iter().enumerate() {
                prop_assert_eq!(out, staged_out, "{:?} at instant {}", STRATEGIES[i], t);
                prop_assert_eq!(stats.climbs, staged_stats.climbs);
            }
        }
    }
}
