//! Batch ≡ incremental equivalence under random one-method edits.
//!
//! The correctness bar of the delta engine ([`jtanalysis::db`]): a
//! warm re-analysis after an arbitrary one-method edit must produce
//! results identical to a cold batch run of the same revision — the
//! same points-to relation, the same race report, the same R13/R14
//! findings, and the same proof-carrying evidence, all of which must
//! still re-verify against the edited source. The warm points-to
//! relation must also pass its own certificate check
//! ([`jtanalysis::pointsto::PointsTo::check_post_fixpoint`]).

use jtanalysis::db::AnalysisDb;
use jtanalysis::flow::FlowReport;
use jtanalysis::{callgraph, evidence, flow, frontend};
use jtlang::ast::Program;
use jtlang::resolve::ClassTable;
use proptest::prelude::*;

/// One parameterized method body. The variants are structurally
/// distinct on purpose: an edit that changes the variant changes the
/// method's constraint shape (the delta path), while an edit that only
/// changes `k` is constant-blind (the rebase path). Several variants
/// allocate, store, and alias through the shared boxes so the
/// points-to relation, the race tiers, and the R13/R14 products all
/// have something to lose if invalidation under-approximates.
fn body(variant: u8, k: i64) -> String {
    match variant % 6 {
        0 => format!("int s = {k}; for (int i = 0; i < 5; i++) {{ s = s + i; }} return s;"),
        1 => format!("Item x = new Item(); b0.put(x); return x.v + {k};"),
        2 => format!("Item y = b0.get(); return y.v + {k};"),
        3 => format!("b1.put(b0.get()); return {k};"),
        4 => format!("int s = 0; for (int i = 0; i < n; i++) {{ s = s + {k}; }} return s;"),
        _ => format!("return {k};"),
    }
}

/// A small program with threads, aliasing, and loops whose `Main`
/// method bodies are chosen by the property. `pad` prepends a comment
/// line, shifting every span without changing any structure.
fn source(bodies: &[(u8, i64)], pad: bool) -> String {
    let mut out = String::new();
    if pad {
        out.push_str("// shifted revision\n");
    }
    out.push_str(
        "class Item { public int v; Item() { v = 0; } }\n\
         class Box {\n\
             private Item it;\n\
             Box() { it = new Item(); }\n\
             Item get() { return it; }\n\
             void put(Item x) { it = x; }\n\
         }\n\
         class Writer extends Thread {\n\
             private Box shared;\n\
             Writer(Box b) { shared = b; }\n\
             public void run() { shared.put(new Item()); }\n\
         }\n\
         class Main {\n\
             private Box b0;\n\
             private Box b1;\n\
             Main() { b0 = new Box(); b1 = new Box(); Writer w = new Writer(b0); }\n",
    );
    for (i, (variant, k)) in bodies.iter().enumerate() {
        out.push_str(&format!("    int m{i}(int n) {{ {} }}\n", body(*variant, *k)));
    }
    out.push_str("}\n");
    out
}

fn build(src: &str) -> (Program, ClassTable) {
    frontend(src).unwrap_or_else(|e| panic!("frontend failed: {e}\n{src}"))
}

/// Asserts every product the warm engine memoizes matches the batch
/// oracle, and that the warm evidence still machine-checks against the
/// revision's own source.
fn assert_equivalent(warm: &FlowReport, batch: &FlowReport, p: &Program, t: &ClassTable) {
    assert!(
        warm.summary.pointsto.same_relation(&batch.summary.pointsto),
        "points-to relations diverged"
    );
    if let Err(e) = warm.summary.pointsto.check_post_fixpoint(p, t) {
        panic!("warm points-to relation is not a post-fixpoint: {e}");
    }
    assert_eq!(warm.races, batch.races, "race report diverged");
    assert_eq!(
        warm.summary.impure_blocks, batch.summary.impure_blocks,
        "R13 findings diverged"
    );
    assert_eq!(
        warm.summary.alias_leaks, batch.summary.alias_leaks,
        "R14 findings diverged"
    );
    assert_eq!(warm.summary.evidence, batch.summary.evidence, "summary evidence diverged");
    assert_eq!(warm.races.evidence, batch.races.evidence, "race evidence diverged");
    assert_eq!(warm.summary.wcet, batch.summary.wcet, "WCET bounds diverged");
    let failures: Vec<_> = evidence::verify_all(
        p,
        t,
        warm.summary.evidence.iter().chain(warm.races.evidence.iter()),
    );
    assert!(failures.is_empty(), "evidence failed to re-verify: {failures:?}");
}

fn analyze_warm(db: &mut AnalysisDb, src: &str) -> (FlowReport, Program, ClassTable) {
    let (p, t) = build(src);
    let g = callgraph::build(&p, &t);
    let report = db.analyze(&p, &t, &g);
    (report, p, t)
}

fn analyze_batch(src: &str) -> FlowReport {
    let (p, t) = build(src);
    let g = callgraph::build(&p, &t);
    flow::analyze_batch(&p, &t, &g)
}

const METHODS: usize = 6;

fn bodies_strategy() -> impl Strategy<Value = Vec<(u8, i64)>> {
    proptest::collection::vec((0u8..6, 0i64..1000), METHODS)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One random edit (possibly also shifting every span): the warm
    /// run over the edited revision must match the cold batch oracle.
    #[test]
    fn one_method_edit_matches_cold_batch(
        bodies in bodies_strategy(),
        edit_at in 0usize..METHODS,
        new_body in (0u8..6, 0i64..1000),
        pad in any::<bool>(),
    ) {
        let base = source(&bodies, false);
        let mut edited = bodies.clone();
        edited[edit_at] = new_body;
        let edited_src = source(&edited, pad);

        let mut db = AnalysisDb::new();
        analyze_warm(&mut db, &base);
        let (warm, p, t) = analyze_warm(&mut db, &edited_src);
        let batch = analyze_batch(&edited_src);
        assert_equivalent(&warm, &batch, &p, &t);
    }

    /// A whole editing session: each revision edits one method, and
    /// every intermediate warm result must match its batch oracle —
    /// divergence may not accumulate across revisions either.
    #[test]
    fn edit_sequences_never_drift(
        bodies in bodies_strategy(),
        edits in proptest::collection::vec(
            (0usize..METHODS, (0u8..6, 0i64..1000), any::<bool>()),
            1..4,
        ),
    ) {
        let mut db = AnalysisDb::new();
        let mut current = bodies;
        analyze_warm(&mut db, &source(&current, false));
        for (edit_at, new_body, pad) in edits {
            current[edit_at] = new_body;
            let src = source(&current, pad);
            let (warm, p, t) = analyze_warm(&mut db, &src);
            let batch = analyze_batch(&src);
            assert_equivalent(&warm, &batch, &p, &t);
        }
    }
}
