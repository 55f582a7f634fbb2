//! WCET-style instruction bounds and memory bounds.
//!
//! Once a program satisfies the structural restrictions — no unbounded
//! loops, no recursion, no run-phase allocation — upper bounds on its
//! execution steps and memory become *computable*, which is the whole
//! point of the policy (paper §4.3 and the ASR properties of §3). This
//! module computes:
//!
//! * [`instruction_bounds`] — a per-method upper bound on abstract
//!   execution steps (`None` when the method's cost is unbounded or
//!   depends on a non-constant loop limit or recursion), and
//! * [`memory_bound`] — an upper bound in abstract words on the memory a
//!   class instance allocates during initialization.
//!
//! The step unit is "one AST operation" and one word is one `int` slot /
//! one reference — deliberately abstract, matching how the `jtvm` cost
//! model counts.

use crate::loops::{analyze_for, fold_const};
use crate::MethodRef;
use jtlang::ast::*;
use jtlang::resolve::ClassTable;
use jtlang::types::type_of_expr;
use std::collections::BTreeMap;

/// Computes an upper bound on abstract execution steps for every user
/// method. `None` means no bound is derivable (unbounded loop, recursion,
/// non-constant loop limit, or a blocking builtin).
pub fn instruction_bounds(
    program: &Program,
    table: &ClassTable,
) -> BTreeMap<MethodRef, Option<u64>> {
    instruction_bounds_with_flow(program, table, &BTreeMap::new())
}

/// Like [`instruction_bounds`], but consults flow-sensitive trip counts
/// (from `interval::IntervalReport::proved_loop_bounds`, keyed by the
/// `for` statement's node id) when the syntactic shape analysis cannot
/// fold a loop's endpoints. This is what makes the WCET estimate
/// flow-sensitive: a limit clamped by a preceding `if` still yields a
/// finite bound.
pub fn instruction_bounds_with_flow(
    program: &Program,
    table: &ClassTable,
    proved_loop_bounds: &BTreeMap<NodeId, u64>,
) -> BTreeMap<MethodRef, Option<u64>> {
    let mut memo: BTreeMap<MethodRef, Option<u64>> = BTreeMap::new();
    let mut in_progress: Vec<MethodRef> = Vec::new();
    let mut bounds = BTreeMap::new();
    for (_, _, mref) in crate::each_method(program) {
        let b = method_bound(
            program,
            table,
            &mref,
            proved_loop_bounds,
            &no_seed,
            &mut memo,
            &mut in_progress,
        );
        bounds.insert(mref, b);
    }
    bounds
}

fn no_seed(_: &MethodRef) -> Option<Option<u64>> {
    None
}

/// The bounds of `targets`, with every other method's bound taken from
/// `seed` where it has one. A seeded bound must equal what
/// [`instruction_bounds_with_flow`] computes for that method under the
/// same program and proofs; the analysis tail ([`crate::demand`])
/// seeds every method outside the targets' call-graph component and
/// recomputes components bottom-up, so only their bodies are walked.
pub(crate) fn bounds_of(
    program: &Program,
    table: &ClassTable,
    proved_loop_bounds: &BTreeMap<NodeId, u64>,
    targets: &[MethodRef],
    seed: &dyn Fn(&MethodRef) -> Option<Option<u64>>,
) -> Vec<Option<u64>> {
    let mut memo: BTreeMap<MethodRef, Option<u64>> = BTreeMap::new();
    let mut in_progress: Vec<MethodRef> = Vec::new();
    targets
        .iter()
        .map(|m| {
            method_bound(
                program,
                table,
                m,
                proved_loop_bounds,
                seed,
                &mut memo,
                &mut in_progress,
            )
        })
        .collect()
}

fn method_bound(
    program: &Program,
    table: &ClassTable,
    mref: &MethodRef,
    proved: &BTreeMap<NodeId, u64>,
    seed: &dyn Fn(&MethodRef) -> Option<Option<u64>>,
    memo: &mut BTreeMap<MethodRef, Option<u64>>,
    in_progress: &mut Vec<MethodRef>,
) -> Option<u64> {
    if let Some(b) = memo.get(mref) {
        return *b;
    }
    if let Some(b) = seed(mref) {
        return b;
    }
    if in_progress.contains(mref) {
        // Recursion: unbounded.
        memo.insert(mref.clone(), None);
        return None;
    }
    let Some((class, decl)) = crate::decl_of(program, mref) else {
        return Some(1); // builtin or default ctor: unit cost
    };
    in_progress.push(mref.clone());
    let mut ctx = Ctx {
        program,
        table,
        class,
        decl,
        proved,
        seed,
        memo,
        in_progress,
    };
    let body = block_cost(&mut ctx, &decl.body);
    // Constructors also pay for field initializers.
    let b = (|| {
        let mut total = body?;
        if mref.is_ctor {
            for f in &class.fields {
                if let Some(init) = &f.init {
                    total = total.checked_add(expr_cost_outer(&mut ctx, init)?)?;
                }
            }
        }
        total.checked_add(1)
    })();
    ctx.in_progress.pop();
    ctx.memo.insert(mref.clone(), b);
    b
}

struct Ctx<'a, 'p> {
    program: &'p Program,
    table: &'a ClassTable,
    class: &'p ClassDecl,
    decl: &'p MethodDecl,
    proved: &'a BTreeMap<NodeId, u64>,
    seed: &'a dyn Fn(&MethodRef) -> Option<Option<u64>>,
    memo: &'a mut BTreeMap<MethodRef, Option<u64>>,
    in_progress: &'a mut Vec<MethodRef>,
}

fn block_cost(ctx: &mut Ctx, block: &Block) -> Option<u64> {
    let mut total: u64 = 0;
    for s in &block.stmts {
        total = total.checked_add(stmt_cost(ctx, s)?)?;
    }
    Some(total)
}

fn stmt_cost(ctx: &mut Ctx, stmt: &Stmt) -> Option<u64> {
    match &stmt.kind {
        StmtKind::VarDecl { init, .. } => match init {
            Some(e) => expr_cost_outer(ctx, e)?.checked_add(1),
            None => Some(1),
        },
        StmtKind::Assign { target, value, .. } => expr_cost_outer(ctx, target)?
            .checked_add(expr_cost_outer(ctx, value)?)?
            .checked_add(1),
        StmtKind::Expr(e) => expr_cost_outer(ctx, e),
        StmtKind::If {
            cond,
            then_branch,
            else_branch,
        } => {
            let c = expr_cost_outer(ctx, cond)?;
            let t = stmt_cost(ctx, then_branch)?;
            let e = match else_branch {
                Some(e) => stmt_cost(ctx, e)?,
                None => 0,
            };
            c.checked_add(t.max(e))?.checked_add(1)
        }
        StmtKind::While { .. } | StmtKind::DoWhile { .. } => None,
        StmtKind::For {
            init,
            cond,
            update,
            body,
        } => {
            let analysis = analyze_for(stmt).expect("for statement");
            // Prefer the syntactic fold; fall back to a flow-sensitive
            // interval proof keyed by the statement's node id.
            let iterations = analysis
                .iterations
                .or_else(|| ctx.proved.get(&stmt.id).copied())?;
            let mut per_iter: u64 = 1;
            if let Some(c) = cond {
                per_iter = per_iter.checked_add(expr_cost_outer(ctx, c)?)?;
            }
            if let Some(u) = update {
                per_iter = per_iter.checked_add(stmt_cost(ctx, u)?)?;
            }
            per_iter = per_iter.checked_add(stmt_cost(ctx, body)?)?;
            let mut total = per_iter.checked_mul(iterations)?;
            if let Some(i) = init {
                total = total.checked_add(stmt_cost(ctx, i)?)?;
            }
            total.checked_add(1)
        }
        StmtKind::Return(e) => match e {
            Some(e) => expr_cost_outer(ctx, e)?.checked_add(1),
            None => Some(1),
        },
        StmtKind::Break | StmtKind::Continue => Some(1),
        StmtKind::Block(b) => block_cost(ctx, b),
    }
}

fn expr_cost_outer(ctx: &mut Ctx, expr: &Expr) -> Option<u64> {
    let mut total: u64 = 0;
    // (receiver class, method or class name, constructor arity).
    let mut calls: Vec<(Option<String>, String, Option<usize>)> = Vec::new();
    walk_expr(expr, &mut |e| {
        total = total.saturating_add(1);
        match &e.kind {
            ExprKind::Call {
                receiver, method, ..
            } => {
                let recv = receiver.as_ref().map(|r| {
                    match type_of_expr(ctx.table, ctx.class, Some(ctx.decl), r) {
                        Ok(Type::Class(c)) => c,
                        _ => String::new(),
                    }
                });
                calls.push((recv, method.clone(), None));
            }
            ExprKind::NewObject { class, args } => {
                calls.push((None, class.clone(), Some(args.len())));
            }
            _ => {}
        }
    });
    for (recv, name, arity) in calls {
        if let Some(arity) = arity {
            let target = MethodRef::ctor(&name, arity);
            if crate::decl_of(ctx.program, &target).is_some() {
                total = total.checked_add(nested_bound(ctx, &target)?)?;
            }
            continue;
        }
        let recv_class = recv.unwrap_or_else(|| ctx.class.name.clone());
        if recv_class.is_empty() {
            return None;
        }
        let (owner, sig) = ctx.table.method_of(&recv_class, &name)?;
        if sig.is_builtin {
            if crate::blocking::BLOCKING_METHODS.contains(&name.as_str()) {
                return None; // may suspend indefinitely
            }
            total = total.checked_add(1)?;
        } else {
            let target = MethodRef::method(owner, &name);
            total = total.checked_add(nested_bound(ctx, &target)?)?;
        }
    }
    Some(total)
}

fn nested_bound(ctx: &mut Ctx, target: &MethodRef) -> Option<u64> {
    method_bound(
        ctx.program,
        ctx.table,
        target,
        ctx.proved,
        ctx.seed,
        ctx.memo,
        ctx.in_progress,
    )
}

/// Upper bound, in abstract words, on the memory an instance of `class`
/// occupies after initialization: one word per (inherited) field plus the
/// constant-size allocations reachable from its constructors and field
/// initializers. `None` when any reachable allocation has a non-constant
/// size or the class graph recurses.
pub fn memory_bound(program: &Program, table: &ClassTable, class: &str) -> Option<u64> {
    let mut in_progress = Vec::new();
    class_words(program, table, class, &mut in_progress)
}

fn class_words(
    program: &Program,
    table: &ClassTable,
    class: &str,
    in_progress: &mut Vec<String>,
) -> Option<u64> {
    if in_progress.iter().any(|c| c == class) {
        return None; // recursive (linked) structure: unbounded
    }
    in_progress.push(class.to_string());
    let result = (|| {
        // One word per field, own and inherited.
        let mut words: u64 = 0;
        let mut cur = Some(class.to_string());
        while let Some(name) = cur {
            let info = table.class(&name)?;
            words = words.checked_add(info.fields.len() as u64)?;
            cur = info.superclass.clone();
        }
        // Plus everything the constructors and field initializers allocate.
        let Some(decl) = program.class(class) else {
            return Some(words); // builtin: fields only
        };
        let mut alloc_words: Option<u64> = Some(0);
        let mut visit = |e: &Expr| {
            let add = match &e.kind {
                ExprKind::NewArray { elem, len } => match fold_const(len) {
                    Some(n) if n >= 0 => {
                        let per = words_per_element(elem);
                        per.and_then(|p| (n as u64).checked_mul(p))
                    }
                    _ => None,
                },
                ExprKind::NewObject { class: c, .. } => {
                    class_words(program, table, c, in_progress)
                }
                _ => Some(0),
            };
            alloc_words = match (alloc_words, add) {
                (Some(a), Some(b)) => a.checked_add(b),
                _ => None,
            };
        };
        for f in &decl.fields {
            if let Some(init) = &f.init {
                walk_expr(init, &mut |e| visit(e));
            }
        }
        for ctor in &decl.ctors {
            walk_exprs(&ctor.body, &mut |e| visit(e));
        }
        words.checked_add(alloc_words?)
    })();
    in_progress.pop();
    result
}

fn words_per_element(elem: &Type) -> Option<u64> {
    match elem {
        Type::Int | Type::Boolean | Type::Class(_) => Some(1),
        // Nested array dimensions allocate their own storage later; the
        // outer array holds one reference per element.
        Type::Array(_) => Some(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend;

    fn bound_of(src: &str, class: &str, method: &str) -> Option<u64> {
        let (p, t) = frontend(src).unwrap();
        instruction_bounds(&p, &t)
            .get(&MethodRef::method(class, method))
            .copied()
            .flatten()
    }

    #[test]
    fn straight_line_code_is_bounded() {
        let b = bound_of(
            "class A { int m(int x) { int y = x + 1; return y * 2; } }",
            "A",
            "m",
        );
        assert!(b.is_some());
        assert!(b.unwrap() > 0);
    }

    #[test]
    fn constant_for_loops_multiply() {
        let small = bound_of(
            "class A { int m() { int s = 0; for (int i = 0; i < 10; i++) { s += i; } return s; } }",
            "A",
            "m",
        )
        .unwrap();
        let large = bound_of(
            "class A { int m() { int s = 0; for (int i = 0; i < 1000; i++) { s += i; } return s; } }",
            "A",
            "m",
        )
        .unwrap();
        assert!(large > small * 50, "large={large}, small={small}");
    }

    #[test]
    fn while_loops_are_unbounded() {
        assert_eq!(
            bound_of("class A { void m() { while (true) {} } }", "A", "m"),
            None
        );
        assert_eq!(
            bound_of(
                "class A { void m(int n) { for (int i = 0; i < n; i++) {} } }",
                "A",
                "m"
            ),
            None
        );
    }

    #[test]
    fn recursion_is_unbounded() {
        assert_eq!(
            bound_of(
                "class A { int f(int n) { if (n < 1) { return 0; } return f(n - 1); } }",
                "A",
                "f"
            ),
            None
        );
    }

    #[test]
    fn calls_add_callee_cost() {
        let callee_only = bound_of(
            "class A { int h() { return 1 + 2 + 3; } int m() { return 0; } }",
            "A",
            "m",
        )
        .unwrap();
        let with_call = bound_of(
            "class A { int h() { return 1 + 2 + 3; } int m() { return h(); } }",
            "A",
            "m",
        )
        .unwrap();
        assert!(with_call > callee_only);
    }

    #[test]
    fn blocking_calls_are_unbounded() {
        assert_eq!(
            bound_of("class A { void m() { wait(); } }", "A", "m"),
            None
        );
    }

    #[test]
    fn nested_loops_compose() {
        let b = bound_of(
            "class A { int m() { int s = 0;
                 for (int i = 0; i < 8; i++) {
                     for (int j = 0; j < 8; j++) { s += i * j; }
                 }
                 return s; } }",
            "A",
            "m",
        )
        .unwrap();
        assert!(b >= 64, "inner body must be counted 64 times, got {b}");
    }

    #[test]
    fn memory_bound_counts_fields_and_const_arrays() {
        let (p, t) = frontend(
            "class A { private int x; private int[] buf; A() { buf = new int[16]; } }",
        )
        .unwrap();
        // 2 fields + 16 array words.
        assert_eq!(memory_bound(&p, &t, "A"), Some(18));
    }

    #[test]
    fn memory_bound_follows_object_allocation() {
        let (p, t) = frontend(
            "class Inner { private int a; private int b; Inner() {} }
             class Outer { private Inner one; Outer() { one = new Inner(); } }",
        )
        .unwrap();
        // Outer: 1 field + Inner(2 fields + 1 ctor alloc of nothing) = 3.
        assert_eq!(memory_bound(&p, &t, "Outer"), Some(3));
    }

    #[test]
    fn memory_bound_unbounded_for_dynamic_or_linked() {
        let (p, t) = frontend(
            "class A { private int[] buf; A(int n) { buf = new int[n]; } }",
        )
        .unwrap();
        assert_eq!(memory_bound(&p, &t, "A"), None);

        let (p, t) = frontend(jtlang::corpus::LINKED_QUEUE).unwrap();
        // Node links to itself; constructing one in Queue's run phase is a
        // separate violation, but Node's own bound is fine (its ctor
        // allocates nothing). Queue's ctor allocates nothing either, so
        // its bound is just its fields.
        assert_eq!(memory_bound(&p, &t, "Queue"), Some(2));
        // A class that allocates a linked Node in its ctor is unbounded
        // only through recursion of allocation, not through field types:
        let (p2, t2) = frontend(
            "class Node { public Node next; Node() { next = new Node(); } }",
        )
        .unwrap();
        assert_eq!(memory_bound(&p2, &t2, "Node"), None);
    }

    #[test]
    fn corpus_fir_has_finite_bounds() {
        let (p, t) = frontend(jtlang::corpus::FIR_FILTER).unwrap();
        let bounds = instruction_bounds(&p, &t);
        assert!(bounds[&MethodRef::method("Fir", "run")].is_some());
        assert!(bounds[&MethodRef::ctor("Fir", 0)].is_some());
        assert_eq!(memory_bound(&p, &t, "Fir"), Some(2 + 4 + 4));
    }

    #[test]
    fn corpus_unrestricted_avg_run_is_unbounded() {
        let (p, t) = frontend(jtlang::corpus::UNRESTRICTED_AVG).unwrap();
        let bounds = instruction_bounds(&p, &t);
        assert_eq!(bounds[&MethodRef::method("Avg", "run")], None);
    }

    #[test]
    fn adversarial_huge_nests_overflow_to_unbounded() {
        // Three nested 2_000_000_000-iteration loops: the true step count
        // (8e27) exceeds u64, so the bound must come back `None` — never
        // a debug-mode arithmetic panic.
        let b = bound_of(
            "class A { int m() { int s = 0;
                 for (int i = 0; i < 2000000000; i++) {
                     for (int j = 0; j < 2000000000; j++) {
                         for (int k = 0; k < 2000000000; k++) { s += 1; }
                     }
                 }
                 return s; } }",
            "A",
            "m",
        );
        assert_eq!(b, None);
    }

    #[test]
    fn adversarial_extreme_endpoints_do_not_panic() {
        // Endpoints spanning the whole i64 range: the trip count saturates
        // and the per-method total overflows to `None` without panicking.
        let b = bound_of(
            "class A { int m() { int s = 0;
                 for (int i = -9223372036854775807; i < 9223372036854775807; i++) {
                     for (int j = 0; j < 9223372036854775807; j++) { s += 1; }
                 }
                 return s; } }",
            "A",
            "m",
        );
        assert_eq!(b, None);

        // A single wide loop is still representable and finite.
        let single = bound_of(
            "class A { int m() { int s = 0;
                 for (int i = -2000000000; i < 2000000000; i++) { s += 1; }
                 return s; } }",
            "A",
            "m",
        );
        assert!(single.is_some());
    }

    #[test]
    fn flow_proved_bounds_rescue_clamped_loops() {
        // `n` is not a compile-time constant, so the syntactic analysis
        // gives up — but interval analysis proves the clamp, and the
        // flow-sensitive entry point turns that proof into a WCET bound.
        let (p, t) = frontend(
            "class A extends ASR { public void run() { int n = read(0);
                 if (n > 15) { n = 15; }
                 int s = 0;
                 for (int i = 0; i < n; i++) { s += i; }
                 write(0, s); } }",
        )
        .unwrap();
        let mref = MethodRef::method("A", "run");
        assert_eq!(instruction_bounds(&p, &t)[&mref], None);

        let proved = crate::interval::analyze(&p, &t).proved_loop_bounds;
        assert_eq!(proved.values().copied().collect::<Vec<_>>(), [15]);
        let flowed = instruction_bounds_with_flow(&p, &t, &proved);
        assert!(flowed[&mref].is_some());
    }
}
