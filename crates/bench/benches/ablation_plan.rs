//! Ablation: compiled execution plans (DESIGN.md §6).
//!
//! The least fixed point is unique, so every evaluation strategy computes
//! identical signals; what differs is the number of block evaluations
//! spent reaching it. The staged strategy compiles the delay-free
//! dependency graph into topologically ordered strata at build time:
//! acyclic blocks are evaluated exactly once, and only delay-free cycles
//! pay for iteration. Flattening additionally inlines composite blocks so
//! nested fixed points disappear entirely.
//!
//! Prints block-eval counts for Chaotic / Worklist / Staged /
//! Staged+flattened on four topologies, then times all four variants.

use asr::prelude::*;
use criterion::{criterion_group, BenchmarkId, Criterion};
use std::hint::black_box;

/// A chain whose block ids are *reversed* relative to dataflow order —
/// the worst case for naive sweeps, trivial for a compiled plan.
fn chain(n: usize) -> System {
    let mut b = SystemBuilder::new(format!("chain{n}"));
    let x = b.add_input("x");
    let ids: Vec<_> = (0..n)
        .map(|k| b.add_block(stock::offset(format!("inc{k}"), 1)))
        .collect();
    let mut prev = Source::ext(x);
    for id in ids.iter().rev() {
        b.connect(prev, Sink::block(*id, 0)).unwrap();
        prev = Source::block(*id, 0);
    }
    let o = b.add_output("o");
    b.connect(prev, Sink::ext(o)).unwrap();
    b.build().unwrap()
}

/// `n` stacked diamonds: each layer fans out into two gains whose sum
/// feeds the next layer. Wide acyclic dataflow with reconvergence.
fn diamond(n: usize) -> System {
    let mut b = SystemBuilder::new(format!("diamond{n}"));
    let x = b.add_input("x");
    let mut prev = Source::ext(x);
    for k in 0..n {
        let left = b.add_block(stock::gain(format!("l{k}"), 2));
        let right = b.add_block(stock::gain(format!("r{k}"), 3));
        let join = b.add_block(stock::add(format!("j{k}")));
        b.connect(prev, Sink::block(left, 0)).unwrap();
        b.connect(prev, Sink::block(right, 0)).unwrap();
        b.connect(Source::block(left, 0), Sink::block(join, 0)).unwrap();
        b.connect(Source::block(right, 0), Sink::block(join, 1)).unwrap();
        prev = Source::block(join, 0);
    }
    let o = b.add_output("o");
    b.connect(prev, Sink::ext(o)).unwrap();
    b.build().unwrap()
}

/// `n` constructive delay-free cycles in series: each is a non-strict
/// select whose else-branch loops back on itself; the true condition
/// resolves the cycle constructively. Between cycles sits an acyclic
/// offset, so the plan interleaves Once and Cyclic strata.
fn cyclic(n: usize) -> System {
    let mut b = SystemBuilder::new(format!("cyclic{n}"));
    let x = b.add_input("x");
    let mut prev = Source::ext(x);
    for k in 0..n {
        let c = b.add_block(stock::const_bool(format!("c{k}"), true));
        let s = b.add_block(stock::select(format!("s{k}")));
        let inc = b.add_block(stock::offset(format!("inc{k}"), 1));
        b.connect(Source::block(c, 0), Sink::block(s, 0)).unwrap();
        b.connect(prev, Sink::block(s, 1)).unwrap();
        b.connect(Source::block(s, 0), Sink::block(s, 2)).unwrap();
        b.connect(Source::block(s, 0), Sink::block(inc, 0)).unwrap();
        prev = Source::block(inc, 0);
    }
    let o = b.add_output("o");
    b.connect(prev, Sink::ext(o)).unwrap();
    b.build().unwrap()
}

/// `outer` composite blocks in series, each wrapping a reversed chain of
/// `inner` blocks. Nested fixed points unless the hierarchy is flattened.
fn nested(outer: usize, inner: usize) -> System {
    let mut b = SystemBuilder::new(format!("nested{outer}x{inner}"));
    let x = b.add_input("x");
    let mut prev = Source::ext(x);
    for _ in 0..outer {
        let comp = CompositeBlock::new(chain(inner)).unwrap();
        let c = b.add_block(comp);
        b.connect(prev, Sink::block(c, 0)).unwrap();
        prev = Source::block(c, 0);
    }
    let o = b.add_output("o");
    b.connect(prev, Sink::ext(o)).unwrap();
    b.build().unwrap()
}

/// A named topology factory.
type Topology = (&'static str, Box<dyn Fn() -> System>);

fn topologies() -> [Topology; 4] {
    [
        ("chain-64", Box::new(|| chain(64))),
        ("diamond-16", Box::new(|| diamond(16))),
        ("cyclic-8", Box::new(|| cyclic(8))),
        ("nested-8x8", Box::new(|| nested(8, 8))),
    ]
}

/// The four ablation variants.
#[derive(Clone, Copy)]
enum Variant {
    Chaotic,
    Worklist,
    Staged,
    StagedFlat,
}

impl Variant {
    const ALL: [Variant; 4] = [
        Variant::Chaotic,
        Variant::Worklist,
        Variant::Staged,
        Variant::StagedFlat,
    ];

    fn label(self) -> &'static str {
        match self {
            Variant::Chaotic => "chaotic",
            Variant::Worklist => "worklist",
            Variant::Staged => "staged",
            Variant::StagedFlat => "staged+flat",
        }
    }

    fn prepare(self, sys: System) -> System {
        let mut sys = match self {
            Variant::StagedFlat => sys.flatten(),
            _ => sys,
        };
        sys.set_strategy(match self {
            Variant::Chaotic => Strategy::Chaotic,
            Variant::Worklist => Strategy::Worklist,
            Variant::Staged | Variant::StagedFlat => Strategy::Staged,
        });
        sys
    }
}

/// Total block evaluations for one instant, nested fixed points included
/// (the traced record aggregates composite-block eval cost).
fn evals(make: impl Fn() -> System, variant: Variant) -> usize {
    let mut sys = variant.prepare(make());
    let (_, record) = sys.react_traced(&[Value::int(0)]).expect("instant");
    record.total_stats().block_evals
}

fn print_report() {
    println!("\nAblation: block evaluations to reach the fixed point per topology");
    println!(
        "{:>18} {:>10} {:>10} {:>10} {:>12}",
        "topology", "chaotic", "worklist", "staged", "staged+flat"
    );
    for (name, make) in &topologies() {
        let counts: Vec<usize> = Variant::ALL.iter().map(|&v| evals(make, v)).collect();
        println!(
            "{:>18} {:>10} {:>10} {:>10} {:>12}",
            name, counts[0], counts[1], counts[2], counts[3]
        );
    }
    println!("(identical fixed points — asserted by the asr property suite)\n");
}

fn bench_plan(c: &mut Criterion) {
    print_report();
    let mut group = c.benchmark_group("ablation_plan");
    for (name, make) in &topologies() {
        for variant in Variant::ALL {
            let sys = variant.prepare(make());
            group.bench_function(BenchmarkId::new(variant.label(), *name), |b| {
                b.iter(|| black_box(sys.eval_instant(&[Value::int(0)]).expect("instant")))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_plan);

fn main() {
    benches();
    bench::write_bench_json("ablation_plan", &bench::ns_rows(criterion::take_results()));
}
