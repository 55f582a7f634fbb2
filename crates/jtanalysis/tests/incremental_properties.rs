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
use std::sync::Arc;

/// One parameterized method body. The variants are structurally
/// distinct on purpose: an edit that changes the variant changes the
/// method's constraint shape (the delta path), while an edit that only
/// changes `k` is constant-blind (the rebase path). Several variants
/// allocate, store, and alias through the shared boxes so the
/// points-to relation, the race tiers, and the R13/R14 products all
/// have something to lose if invalidation under-approximates; one
/// allocates through `Box`'s second constructor. Others store a
/// `SubBox` where a `Box` is expected, read `Tag`'s own field `it`
/// (the name `Box` uses for an `Item`), move items through the
/// `Item[]` field, and give one local name two types (which switches
/// the delta's heap keys from typed to by-name and back). One passes a
/// fresh object to a receiver another class's method returns, so when
/// `Tag` is declared after `Main` the call is reached before its
/// receiver set fills.
fn body(variant: u8, k: i64) -> String {
    match variant % VARIANTS {
        0 => format!("int s = {k}; for (int i = 0; i < 5; i++) {{ s = s + i; }} return s;"),
        1 => format!("Item x = new Item(); b0.put(x); return x.v + {k};"),
        2 => format!("Item y = b0.get(); return y.v + {k};"),
        3 => format!("b1.put(b0.get()); return {k};"),
        4 => format!("int s = 0; for (int i = 0; i < n; i++) {{ s = s + {k}; }} return s;"),
        5 => format!("Item x = new Item(); Box b = new Box(x); return b.get().v + {k};"),
        6 => format!("SubBox s = new SubBox(); b1 = s; return s.peek().v + {k};"),
        7 => format!("Tag t = new Tag(); Box x = t.inner(); x.put(b1.get()); return {k};"),
        8 => format!("items[n] = b0.get(); Item z = items[0]; return z.v + {k};"),
        9 => format!("if (n > 0) {{ Item q = b0.get(); }} Box q = b1; q.put(null); return {k};"),
        10 => format!("Tag t = new Tag(); t.inner().put(new Item()); return {k};"),
        _ => format!("return {k};"),
    }
}

/// The program's classes, `Main` last; [`source`] declares them in
/// the order a property picks.
const CLASSES: [&str; 6] = [
    "class Item { public int v; Item() { v = 0; } }\n",
    "class Box {\n\
         private Item it;\n\
         Box() { it = new Item(); }\n\
         Box(Item seed) { it = seed; }\n\
         Item get() { return it; }\n\
         void put(Item x) { it = x; }\n\
     }\n",
    "class SubBox extends Box {\n\
         SubBox() { put(new Item()); }\n\
         Item peek() { return get(); }\n\
     }\n",
    "class Tag {\n\
         private Box it;\n\
         Tag() { it = new Box(); }\n\
         Box inner() { return it; }\n\
     }\n",
    "class Writer extends Thread {\n\
         private Box shared;\n\
         Writer(Box b) { shared = b; }\n\
         public void run() { shared.put(new Item()); }\n\
     }\n",
    "",
];

/// A small program with threads, aliasing, and loops whose `Main`
/// method bodies are chosen by the property, its classes declared in
/// `order` (a permutation of [`CLASSES`]' indices; the last one is
/// `Main`). The solve visits methods in declaration order, so the order
/// decides which methods run before their receivers' sets fill. `pad`
/// prepends a comment line, shifting every span without changing any
/// structure.
fn source(bodies: &[(u8, i64)], pad: bool, order: &[usize]) -> String {
    let mut out = String::new();
    if pad {
        out.push_str("// shifted revision\n");
    }
    for &c in order {
        if c + 1 < CLASSES.len() {
            out.push_str(CLASSES[c]);
            continue;
        }
        out.push_str(
            "class Main {\n\
                 private Box b0;\n\
                 private Box b1;\n\
                 private Item[] items;\n\
                 Main() { b0 = new Box(); b1 = new Box(); items = new Item[2]; Writer w = new Writer(b0); }\n",
        );
        for (i, (variant, k)) in bodies.iter().enumerate() {
            out.push_str(&format!(
                "    int m{i}(int n) {{ {} }}\n",
                body(*variant, *k)
            ));
        }
        out.push_str("}\n");
    }
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

fn analyze_warm(db: &mut AnalysisDb, src: &str) -> (Arc<FlowReport>, Program, ClassTable) {
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

/// The number of distinct [`body`] variants.
const VARIANTS: u8 = 12;

fn bodies_strategy() -> impl Strategy<Value = Vec<(u8, i64)>> {
    proptest::collection::vec((0..VARIANTS, 0i64..1000), METHODS)
}

/// A declaration order of [`CLASSES`]: a permutation drawn by its rank.
fn order_strategy() -> impl Strategy<Value = Vec<usize>> {
    (0usize..720).prop_map(|mut rank| {
        let mut left: Vec<usize> = (0..CLASSES.len()).collect();
        let mut order = Vec::with_capacity(left.len());
        while !left.is_empty() {
            order.push(left.remove(rank % left.len()));
            rank /= left.len() + 1;
        }
        order
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One random edit (possibly also shifting every span or
    /// reordering the classes): the warm run over the edited revision
    /// must match the cold batch oracle.
    #[test]
    fn one_method_edit_matches_cold_batch(
        bodies in bodies_strategy(),
        edit_at in 0usize..METHODS,
        new_body in (0..VARIANTS, 0i64..1000),
        pad in any::<bool>(),
        order in order_strategy(),
        reorder in any::<bool>(),
        new_order in order_strategy(),
    ) {
        let base = source(&bodies, false, &order);
        let mut edited = bodies.clone();
        edited[edit_at] = new_body;
        let edited_src = source(&edited, pad, if reorder { &new_order } else { &order });

        let mut db = AnalysisDb::new();
        analyze_warm(&mut db, &base);
        let (warm, p, t) = analyze_warm(&mut db, &edited_src);
        let batch = analyze_batch(&edited_src);
        assert_equivalent(&warm, &batch, &p, &t);
    }

    /// The carried tail against a cold recompute: after every revision
    /// of a session (edits, span shifts, class reorders), each result
    /// the changed set skipped — access lists, attribution, R14, R2,
    /// loop frames, call-site folds, WCET bounds, R13 — must equal what
    /// a cold computation derives from the same relation and summaries.
    #[test]
    fn carried_tail_matches_a_cold_recompute(
        bodies in bodies_strategy(),
        edits in proptest::collection::vec(
            (0usize..METHODS, (0..VARIANTS, 0i64..1000), any::<bool>(), any::<bool>()),
            1..5,
        ),
        order in order_strategy(),
        new_order in order_strategy(),
    ) {
        let mut db = AnalysisDb::new();
        let mut current = bodies;
        let mut revisions = vec![source(&current, false, &order)];
        for (edit_at, new_body, pad, reorder) in edits {
            current[edit_at] = new_body;
            revisions.push(source(&current, pad, if reorder { &new_order } else { &order }));
        }
        for src in &revisions {
            let (p, t) = build(src);
            let g = callgraph::build(&p, &t);
            let warm = db.analyze(&p, &t, &g);
            if let Err(e) = db.check_tail_against_cold(&p, &t, &g, &warm) {
                panic!("{e}\n{src}");
            }
        }
    }

    /// A whole editing session: each revision edits one method, and
    /// every intermediate warm result must match its batch oracle —
    /// divergence may not accumulate across revisions either.
    #[test]
    fn edit_sequences_never_drift(
        bodies in bodies_strategy(),
        edits in proptest::collection::vec(
            (0usize..METHODS, (0..VARIANTS, 0i64..1000), any::<bool>()),
            1..4,
        ),
        order in order_strategy(),
    ) {
        let mut db = AnalysisDb::new();
        let mut current = bodies;
        analyze_warm(&mut db, &source(&current, false, &order));
        for (edit_at, new_body, pad) in edits {
            current[edit_at] = new_body;
            let src = source(&current, pad, &order);
            let (warm, p, t) = analyze_warm(&mut db, &src);
            let batch = analyze_batch(&src);
            assert_equivalent(&warm, &batch, &p, &t);
        }
    }
}
