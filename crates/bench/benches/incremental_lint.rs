//! Warm-vs-cold benchmark for the incremental analysis database
//! (DESIGN.md §8), on a generated corpus large enough that per-method
//! query reuse dominates: ≥1k methods in the full configuration.
//!
//! Three scenarios, analysis time only (the front end is identical in
//! all of them and unchanged by the database):
//!
//! * **cold** — a fresh [`jtanalysis::db::AnalysisDb`] analyzes the
//!   corpus from scratch (this is also exactly what the batch
//!   `flow::analyze` costs),
//! * **warm no-op** — the same database re-analyzes a re-parse of the
//!   identical source; every method-level query must hit,
//! * **warm one edit** — the database, warmed on the base corpus,
//!   analyzes a revision in which exactly one method body changed.
//!
//! Each scenario also reports the *tail* time (`RunStats::tail_ns`):
//! the delta points-to update plus the demand-driven race / R13 / R14 /
//! loop-proof / WCET products. The shifted no-op row drives the tail
//! through a comment-padded revision (the byte-identical no-op replays
//! from the revision cache and never reaches the tail).
//!
//! Writes `BENCH_incremental.json` with the timings plus the measured
//! recompute fraction, and asserts the engine's contract: zero
//! recomputed queries in the no-op run, zero demand misses and zero
//! constraint churn on the shifted no-op, ≤5% of method-level queries
//! recomputed after a one-method edit, and a one-edit tail ≥10× faster
//! than the cold tail.
//!
//! Set `JT_BENCH_SMOKE=1` for a quick small-corpus run (CI).

use jtanalysis::db::AnalysisDb;
use jtanalysis::{callgraph, frontend};
use jtlang::corpus::{self, GenConfig};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

type Parsed = (jtlang::ast::Program, jtlang::resolve::ClassTable, callgraph::CallGraph);

fn parse(src: &str) -> Parsed {
    let (p, t) = frontend(src).expect("generated corpus is frontend-clean");
    let g = callgraph::build(&p, &t);
    (p, t, g)
}

/// Best-of-`n` wall time of `f`, in nanoseconds.
fn best_of(n: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..n {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_nanos() as f64);
    }
    best
}

fn main() {
    let smoke = std::env::var("JT_BENCH_SMOKE").is_ok();
    let (cfg, iters) = if smoke {
        (
            GenConfig {
                classes: 8,
                methods_per_class: 8,
                ..GenConfig::default()
            },
            2,
        )
    } else {
        (
            GenConfig {
                classes: 32,
                methods_per_class: 32,
                ..GenConfig::default()
            },
            3,
        )
    };
    let n_methods = corpus::method_count(&cfg);
    // cfg + definite + constprop + interval per method.
    let method_queries = 4 * n_methods as u64;

    let base_src = corpus::generate(&cfg);
    // Edit one mid-corpus method (start of a same-class call chain, so
    // the summary cone is non-trivial).
    let mut tweaks = BTreeMap::new();
    tweaks.insert(n_methods / 2, 777i64);
    let edited_src = corpus::generate_with_tweaks(&cfg, &tweaks);

    let (p, t, g) = parse(&base_src);
    let (pe, te, ge) = parse(&edited_src);

    // Cold: fresh database every iteration.
    let mut cold_ns = f64::INFINITY;
    let mut cold_stats = jtanalysis::db::RunStats::default();
    for _ in 0..iters {
        let mut db = AnalysisDb::new();
        let start = Instant::now();
        black_box(db.analyze(&p, &t, &g));
        let ns = start.elapsed().as_nanos() as f64;
        if ns < cold_ns {
            cold_ns = ns;
            cold_stats = db.last_run();
        }
    }

    // Warm no-op: warmed database re-analyzes a re-parse of the same
    // text. Warm once untimed, then time steady-state runs.
    let mut db = AnalysisDb::new();
    db.analyze(&p, &t, &g);
    let (p2, t2, g2) = parse(&base_src);
    let warm_ns = best_of(iters, || {
        black_box(db.analyze(&p2, &t2, &g2));
    });
    let warm_stats = db.last_run();
    assert_eq!(
        warm_stats.recomputed, 0,
        "warm re-check of identical source recomputed queries: {warm_stats:?}"
    );
    assert_eq!(warm_stats.scc_misses, 0, "{warm_stats:?}");

    // Warm no-op *tail*: a comment-shifted re-parse misses the replay
    // cache, so the analysis tail (delta points-to + demand products)
    // actually runs — and must be served entirely warm. Each iteration
    // uses a distinct pad so the revision cache can't short-circuit it.
    let mut noop_tail_ns = u64::MAX;
    let mut noop_tail_stats = jtanalysis::db::RunStats::default();
    for i in 0..iters {
        // Pads of *different lengths*: the revision fingerprint hashes
        // spans (not comment text), so same-length pads would replay.
        let padded_src = format!("// bench pad{}\n{base_src}", "-".repeat(i + 1));
        let (pp, tp, gp) = parse(&padded_src);
        black_box(db.analyze(&pp, &tp, &gp));
        let s = db.last_run();
        if s.tail_ns < noop_tail_ns {
            noop_tail_ns = s.tail_ns;
            noop_tail_stats = s;
        }
    }
    assert_eq!(
        noop_tail_stats.demand_misses, 0,
        "no-op revision missed demand queries: {noop_tail_stats:?}"
    );
    assert_eq!(noop_tail_stats.pt_constraints_retracted, 0, "{noop_tail_stats:?}");
    assert_eq!(noop_tail_stats.pt_constraints_added, 0, "{noop_tail_stats:?}");
    assert_eq!(noop_tail_stats.pointsto_misses, 0, "{noop_tail_stats:?}");

    // Warm one-edit: each iteration warms a fresh database on the base
    // corpus (untimed), then times the edited revision.
    let mut edit_ns = f64::INFINITY;
    let mut edit_stats = jtanalysis::db::RunStats::default();
    for _ in 0..iters {
        let mut db = AnalysisDb::new();
        db.analyze(&p, &t, &g);
        let start = Instant::now();
        black_box(db.analyze(&pe, &te, &ge));
        let ns = start.elapsed().as_nanos() as f64;
        if ns < edit_ns {
            edit_ns = ns;
            edit_stats = db.last_run();
        }
    }
    let recompute_pct = 100.0 * edit_stats.recomputed as f64 / method_queries as f64;
    assert!(
        recompute_pct <= 5.0,
        "one-method edit recomputed {recompute_pct:.2}% of {method_queries} method-level queries: {edit_stats:?}"
    );

    let speedup = cold_ns / warm_ns;
    let cold_tail_ns = cold_stats.tail_ns.max(1);
    let edit_tail_ns = edit_stats.tail_ns.max(1);
    let tail_speedup = cold_tail_ns as f64 / edit_tail_ns as f64;
    println!("\nIncremental lint: {n_methods} methods ({method_queries} method-level queries)");
    println!("{:>24} {:>14} {:>14} {:>12}", "scenario", "best ns", "tail ns", "recomputed");
    println!(
        "{:>24} {:>14.0} {:>14} {:>12}",
        "cold", cold_ns, cold_stats.tail_ns, method_queries
    );
    println!(
        "{:>24} {:>14.0} {:>14} {:>12}",
        "warm no-op", warm_ns, warm_stats.tail_ns, warm_stats.recomputed
    );
    println!(
        "{:>24} {:>14} {:>14} {:>12}",
        "warm no-op (shifted)", "-", noop_tail_stats.tail_ns, noop_tail_stats.recomputed
    );
    println!(
        "{:>24} {:>14.0} {:>14} {:>12}",
        "warm one edit", edit_ns, edit_stats.tail_ns, edit_stats.recomputed
    );
    println!(
        "warm re-check speedup: {speedup:.1}x; one-edit recompute fraction: {recompute_pct:.3}% \
         ({} method queries + {} SCC summaries)",
        edit_stats.recomputed, edit_stats.scc_misses
    );
    println!(
        "one-edit tail: {tail_speedup:.1}x faster than cold tail \
         ({} demand hits / {} misses; {} constraints retracted, {} added)\n",
        edit_stats.demand_hits,
        edit_stats.demand_misses,
        edit_stats.pt_constraints_retracted,
        edit_stats.pt_constraints_added
    );
    if !smoke {
        assert!(
            speedup >= 10.0,
            "warm re-check must be >=10x faster than cold (got {speedup:.1}x)"
        );
        assert!(
            tail_speedup >= 10.0,
            "one-edit tail must be >=10x faster than the cold tail \
             (got {tail_speedup:.1}x: cold {cold_tail_ns} ns, one-edit {edit_tail_ns} ns)"
        );
    }

    let row = |id: &str, value: f64, unit: &'static str| (format!("incremental_lint/{id}"), value, unit);
    let rows = vec![
        row("cold_analyze", cold_ns, "ns"),
        row("warm_noop_analyze", warm_ns, "ns"),
        row("warm_one_edit_analyze", edit_ns, "ns"),
        row("methods", n_methods as f64, "count"),
        row("method_queries", method_queries as f64, "count"),
        row("one_edit_recomputed_queries", edit_stats.recomputed as f64, "count"),
        row("one_edit_scc_recomputes", edit_stats.scc_misses as f64, "count"),
        row("one_edit_recompute_pct", recompute_pct, "%"),
        row("warm_speedup_x", speedup, "x"),
        row("cold_tail", cold_stats.tail_ns as f64, "ns"),
        row("warm_noop_tail", noop_tail_stats.tail_ns as f64, "ns"),
        row("warm_one_edit_tail", edit_stats.tail_ns as f64, "ns"),
        row("tail_speedup_x", tail_speedup, "x"),
        row("one_edit_demand_misses", edit_stats.demand_misses as f64, "count"),
        row("one_edit_constraints_retracted", edit_stats.pt_constraints_retracted as f64, "count"),
        row("one_edit_constraints_added", edit_stats.pt_constraints_added as f64, "count"),
    ];
    bench::write_bench_json("incremental", &rows);
}
