//! Warm-vs-cold benchmark for the incremental analysis database
//! (DESIGN.md §8), on a generated corpus large enough that per-method
//! query reuse dominates: ≥1k methods in the full configuration.
//!
//! Three scenarios, analysis time only (the front end is identical in
//! all of them and unchanged by the database), plus the cold
//! whole-program points-to solve (`pointsto::analyze`) on its own:
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

use jtanalysis::db::{AnalysisDb, TailCause};
use jtanalysis::{callgraph, frontend, MethodRef};
use jtlang::corpus::{self, GenConfig};
use std::collections::{BTreeMap, BTreeSet};
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

/// Revisions of `base` (the corpus `cfg`) that each prepend one
/// statement to one method: a call to the class's next method, and an
/// allocation into the class's `int[]` field, in methods spread over
/// the corpus.
fn structural_edits(base: &str, cfg: &GenConfig) -> Vec<(String, MethodRef)> {
    let per_class = cfg.methods_per_class;
    let mut out = Vec::new();
    for class in [0, cfg.classes / 2, cfg.classes - 1] {
        for (method, stmt) in [
            (0, "acc = acc + m1(n);".to_string()),
            (per_class / 2, format!("acc = m{}(acc);", per_class - 1)),
            (per_class - 1, "buf = new int[8];".to_string()),
        ] {
            let at = base.find(&format!("class G{class} {{\n")).expect("class");
            let header = format!("    int m{method}(int n) {{\n");
            let at = at + base[at..].find(&header).expect("method") + header.len();
            let text = format!("{}        {stmt}\n{}", &base[..at], &base[at..]);
            out.push((text, MethodRef::method(format!("G{class}"), format!("m{method}"))));
        }
    }
    out
}

/// The methods (and constructors) of `class`.
fn class_size(program: &jtlang::ast::Program, class: &str) -> u64 {
    jtanalysis::each_method(program).filter(|(c, _, _)| c.name == class).count() as u64
}

/// The methods that reach `m` in `graph`, `m` included: the WCET
/// bounds an edit of `m` can change.
fn callers_cone(
    program: &jtlang::ast::Program,
    graph: &callgraph::CallGraph,
    m: &MethodRef,
) -> u64 {
    let mut callers: BTreeMap<&MethodRef, Vec<MethodRef>> = BTreeMap::new();
    for (_, _, caller) in jtanalysis::each_method(program) {
        for callee in graph.callees(&caller) {
            callers.entry(callee).or_default().push(caller.clone());
        }
    }
    let mut cone = BTreeSet::from([m.clone()]);
    let mut work = vec![m.clone()];
    while let Some(x) = work.pop() {
        for c in callers.get(&x).into_iter().flatten() {
            if cone.insert(c.clone()) {
                work.push(c.clone());
            }
        }
    }
    cone.len() as u64
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

    // Cold points-to alone: the one propagation loop from the empty
    // relation, every call and `new` resolved to its declaration.
    let cold_pt_ns = best_of(iters, || {
        black_box(jtanalysis::pointsto::analyze(&p, &t));
    });

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
    assert_eq!(
        noop_tail_stats.tail_visited,
        0,
        "no-op revision re-ran the tail of {} methods (causes: {})",
        noop_tail_stats.tail_visited,
        noop_tail_stats.tail_rerun.render()
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
    // Warm structural edits: a statement prepended to one method adds
    // a call or an allocation, so the points-to update takes its delta
    // path (no reset, something tainted), whether or not the edit has a
    // fact to retract. Each edit warms a fresh database on the base corpus
    // (untimed); the rows keep the slowest tail and the largest taint.
    let mut struct_tail_ns = 0u64;
    let mut struct_tainted = 0u64;
    let mut struct_visited = 0u64;
    let mut struct_stats = jtanalysis::db::RunStats::default();
    for (edited, method) in structural_edits(&base_src, &cfg) {
        let (ps, ts, gs) = parse(&edited);
        let mut db = AnalysisDb::new();
        db.analyze(&p, &t, &g);
        black_box(db.analyze(&ps, &ts, &gs));
        let s = db.last_run();
        assert_eq!(
            s.pointsto_misses, 0,
            "a structural edit reset points-to: {s:?}"
        );
        assert!(
            s.pt_tainted > 0,
            "a structural edit took the rebase path: {s:?}"
        );
        // The tail's changed set, by cause — counts that do not move
        // with the host: the edited method's class changes its context
        // (a field's length), an added call the WCET bound of every
        // method that reaches it, and anything else is at most 1/8 of
        // the methods.
        let bounds = [
            (TailCause::MethodKey, class_size(&ps, &method.class)),
            (TailCause::Summary, callers_cone(&ps, &gs, &method)),
        ];
        let mut rest = s.tail_visited;
        for (cause, bound) in bounds {
            let n = s.tail_rerun.get(cause);
            assert!(
                n <= bound,
                "an edit of {method} re-ran {n} tails for cause `{}`, more than the {bound} it can \
                 reach (causes: {})",
                cause.name(),
                s.tail_rerun.render()
            );
            rest -= n;
        }
        assert!(
            rest * 8 <= n_methods as u64,
            "an edit of {method} re-ran {rest} tails for other causes (bound: 1/8 of \
             {n_methods} methods; causes: {})",
            s.tail_rerun.render()
        );
        struct_tail_ns = struct_tail_ns.max(s.tail_ns);
        struct_visited = struct_visited.max(s.tail_visited);
        if s.pt_tainted >= struct_tainted {
            struct_tainted = s.pt_tainted;
            struct_stats = s;
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
        "cold points-to", cold_pt_ns, "-", "-"
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
        "{:>24} {:>14} {:>14} {:>12}",
        "warm structural edit", "-", struct_tail_ns, struct_stats.recomputed
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
    println!(
        "tail re-runs: one edit {} of {n_methods} methods ({}), structural edits at most \
         {struct_visited}",
        edit_stats.tail_visited,
        edit_stats.tail_rerun.render()
    );
    println!(
        "structural edit: points-to taint at most {struct_tainted} of {n_methods} methods \
         ({} heap keys cleared, {} constraints retracted, {} added)\n",
        struct_stats.pt_taint_fields,
        struct_stats.pt_constraints_retracted,
        struct_stats.pt_constraints_added
    );

    let row = |id: &str, value: f64, unit: &'static str| (format!("incremental_lint/{id}"), value, unit);
    let rows = vec![
        row("cold_analyze", cold_ns, "ns"),
        row("cold_pointsto", cold_pt_ns, "ns"),
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
        row("warm_struct_edit_tail", struct_tail_ns as f64, "ns"),
        row("struct_edit_pt_tainted", struct_tainted as f64, "count"),
        row("one_edit_tail_visited", edit_stats.tail_visited as f64, "count"),
        row("struct_edit_tail_visited", struct_visited as f64, "count"),
        row(
            "struct_edit_pt_taint_fields",
            struct_stats.pt_taint_fields as f64,
            "count",
        ),
    ];
    // Record the run before the ratio contracts, so a run that breaks
    // one still leaves its numbers behind.
    bench::write_bench_json("incremental", &rows);

    // The delta's taint must follow the edit, not the program: a count,
    // so an O(program) taint fails here by itself, not by a noisy time.
    assert!(
        struct_tainted * 8 <= n_methods as u64,
        "a structural edit tainted {struct_tainted} of {n_methods} methods (bound: 1/8): {struct_stats:?}"
    );
    // Likewise the tail: it re-runs the edit's changed set, a count that
    // does not move with the host. A structural edit re-runs every
    // method of its class when it changes a field's length, and the
    // WCET bounds of the callers of an added call; the smoke corpus's
    // 8-method classes do not dilute that (9 of 64 re-run), so the whole
    // changed set of a structural edit is bounded at full size only.
    // Both sizes bound it per cause above.
    let mut bounded = vec![("the one-method edit", edit_stats.tail_visited, edit_stats.tail_rerun)];
    if !smoke {
        bounded.push(("a structural edit", struct_visited, struct_stats.tail_rerun));
    }
    for (what, visited, causes) in bounded {
        assert!(
            visited * 8 <= n_methods as u64,
            "{what} re-ran the tail of {visited} of {n_methods} methods (bound: 1/8; causes: {})",
            causes.render()
        );
    }

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
}
