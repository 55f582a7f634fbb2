//! Loop classification and calculable-bound analysis.
//!
//! The ASR policy of use demands bounded reaction time, so (paper §4.3):
//! `while` and `do-while` may not be used, and a `for` loop must have a
//! calculable iteration bound with its induction variable unmodified in
//! the body. This module classifies every loop in a program and, for
//! `for` loops, decides whether the bound is calculable — and computes it
//! when the endpoints are compile-time constants.
//!
//! A `for` loop is *bounded* here when it matches the canonical shape
//!
//! ```text
//! for (int i = e0; i REL e1; i += c) body   // or i -= c, i++, i--
//! ```
//!
//! where `e0` is constant-foldable, `e1` is constant-foldable **or** the
//! `length` of an array-typed field or local (fixed after initialization
//! once the allocation rule R4 holds), `c` is a positive constant whose
//! direction agrees with `REL`, and `body` never assigns `i`.

use crate::MethodRef;
use jtlang::ast::*;
use jtlang::token::Span;

/// Kind of a loop statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopKind {
    /// `while (…) …`
    While,
    /// `do … while (…);`
    DoWhile,
    /// `for (…; …; …) …`
    For,
}

/// Why a `for` loop's bound is (not) calculable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoundStatus {
    /// The loop matches the canonical bounded shape; `iterations` is
    /// `Some` when both endpoints are compile-time constants.
    Calculable {
        /// Exact trip count if both endpoints fold to constants.
        iterations: Option<u64>,
    },
    /// The loop does not match the bounded shape.
    NotCalculable {
        /// Human-readable reason, used in violation diagnostics.
        reason: String,
    },
}

/// One analyzed loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopInfo {
    /// Node id of the loop statement.
    pub id: NodeId,
    /// Source span of the loop statement.
    pub span: Span,
    /// Loop kind.
    pub kind: LoopKind,
    /// Enclosing method.
    pub method: MethodRef,
    /// Bound analysis; `None` for `while`/`do-while` (they are forbidden
    /// outright, no bound question arises).
    pub bound: Option<BoundStatus>,
}

/// Detailed analysis of a single `for` statement.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ForAnalysis {
    /// Induction variable name, when the canonical shape matched far
    /// enough to identify one.
    pub var: Option<String>,
    /// Constant initial value, if foldable.
    pub start: Option<i64>,
    /// Constant limit value, if foldable.
    pub end: Option<i64>,
    /// Constant step magnitude (positive).
    pub step: Option<i64>,
    /// True when the loop matches the canonical bounded shape.
    pub bounded: bool,
    /// Exact trip count when `start`, `end`, and `step` are all known.
    pub iterations: Option<u64>,
    /// True when the body assigns the induction variable.
    pub induction_modified: bool,
    /// Reason the loop is not bounded, when `bounded == false`.
    pub reason: Option<String>,
}

/// Folds a constant integer expression (literals, unary minus, and
/// arithmetic over folds). Returns `None` on anything non-constant,
/// division by zero, or overflow.
pub fn fold_const(expr: &Expr) -> Option<i64> {
    match &expr.kind {
        ExprKind::Int(v) => Some(*v),
        ExprKind::Unary {
            op: UnOp::Neg,
            expr,
        } => fold_const(expr)?.checked_neg(),
        ExprKind::Binary { op, lhs, rhs } => {
            let (a, b) = (fold_const(lhs)?, fold_const(rhs)?);
            match op {
                BinOp::Add => a.checked_add(b),
                BinOp::Sub => a.checked_sub(b),
                BinOp::Mul => a.checked_mul(b),
                BinOp::Div => a.checked_div(b),
                BinOp::Rem => a.checked_rem(b),
                _ => None,
            }
        }
        _ => None,
    }
}

/// Analyzes every loop in `program`.
pub fn analyze(program: &Program) -> Vec<LoopInfo> {
    let mut loops = Vec::new();
    for (_, decl, mref) in crate::each_method(program) {
        loops.extend(analyze_method(decl, &mref));
    }
    loops
}

/// Analyzes every loop in one method body, in pre-order. [`analyze`] is
/// the concatenation of this over every method in declaration order.
pub fn analyze_method(decl: &MethodDecl, mref: &MethodRef) -> Vec<LoopInfo> {
    let mut loops = Vec::new();
    walk_stmts(&decl.body, &mut |stmt| match &stmt.kind {
        StmtKind::While { .. } => loops.push(LoopInfo {
            id: stmt.id,
            span: stmt.span,
            kind: LoopKind::While,
            method: mref.clone(),
            bound: None,
        }),
        StmtKind::DoWhile { .. } => loops.push(LoopInfo {
            id: stmt.id,
            span: stmt.span,
            kind: LoopKind::DoWhile,
            method: mref.clone(),
            bound: None,
        }),
        StmtKind::For { .. } => {
            let a = analyze_for(stmt).expect("stmt is a for loop");
            let bound = if a.bounded {
                BoundStatus::Calculable {
                    iterations: a.iterations,
                }
            } else {
                BoundStatus::NotCalculable {
                    reason: a.reason.unwrap_or_else(|| "unrecognised shape".into()),
                }
            };
            loops.push(LoopInfo {
                id: stmt.id,
                span: stmt.span,
                kind: LoopKind::For,
                method: mref.clone(),
                bound: Some(bound),
            });
        }
        _ => {}
    });
    loops
}

/// Analyzes one `for` statement against the canonical bounded shape.
/// Returns `None` if `stmt` is not a `for` loop.
pub fn analyze_for(stmt: &Stmt) -> Option<ForAnalysis> {
    let StmtKind::For {
        init,
        cond,
        update,
        body,
    } = &stmt.kind
    else {
        return None;
    };
    let mut a = ForAnalysis::default();

    let fail = |mut a: ForAnalysis, reason: &str| {
        a.bounded = false;
        a.reason = Some(reason.to_string());
        Some(a)
    };

    // Init: `int i = e0` or `i = e0`.
    let (var, start_expr) = match init.as_deref().map(|s| &s.kind) {
        Some(StmtKind::VarDecl {
            ty: Type::Int,
            name,
            init: Some(e),
        }) => (name.clone(), e),
        Some(StmtKind::Assign {
            target:
                Expr {
                    kind: ExprKind::Var(name),
                    ..
                },
            op: AssignOp::Set,
            value,
        }) => (name.clone(), value),
        _ => return fail(a, "initializer is not `int i = <expr>`"),
    };
    a.var = Some(var.clone());
    a.start = fold_const(start_expr);

    // Condition: `i REL limit` or `limit REL i`.
    let Some(Expr {
        kind: ExprKind::Binary { op, lhs, rhs },
        ..
    }) = cond
    else {
        return fail(a, "missing or non-comparison condition");
    };
    let (rel, limit) = match (&lhs.kind, &rhs.kind) {
        (ExprKind::Var(n), _) if *n == var => (*op, rhs.as_ref()),
        (_, ExprKind::Var(n)) if *n == var => (flip(*op), lhs.as_ref()),
        _ => return fail(a, "condition does not test the induction variable"),
    };
    if !rel.is_comparison() {
        return fail(a, "condition is not a `<`, `<=`, `>`, or `>=` comparison");
    }
    let limit_const = fold_const(limit);
    let limit_is_length = matches!(&limit.kind, ExprKind::Length { .. });
    if limit_const.is_none() && !limit_is_length {
        return fail(
            a,
            "loop limit is neither a compile-time constant nor an array length",
        );
    }
    a.end = limit_const;

    // Update: `i += c` or `i -= c` with positive constant `c`.
    let Some(update) = update.as_deref() else {
        return fail(a, "missing update");
    };
    let StmtKind::Assign {
        target:
            Expr {
                kind: ExprKind::Var(n),
                ..
            },
        op: upd_op,
        value,
    } = &update.kind
    else {
        return fail(a, "update is not an assignment to the induction variable");
    };
    if *n != var {
        return fail(a, "update does not modify the induction variable");
    }
    let Some(step) = fold_const(value).filter(|c| *c > 0) else {
        return fail(a, "step is not a positive constant");
    };
    a.step = Some(step);
    let ascending = match upd_op {
        AssignOp::Add => true,
        AssignOp::Sub => false,
        _ => return fail(a, "update must be `+=` or `-=`"),
    };
    let rel_ascending = matches!(rel, BinOp::Lt | BinOp::Le);
    if ascending != rel_ascending {
        return fail(a, "update direction disagrees with the loop condition");
    }

    // Body must not assign the induction variable.
    let mut modified = false;
    walk_stmt_for_assignments(body, &var, &mut modified);
    a.induction_modified = modified;
    if modified {
        return fail(a, "induction variable is modified inside the loop body");
    }

    a.bounded = true;
    a.iterations = match (a.start, a.end) {
        (Some(s), Some(e)) => Some(trip_count(s, e, step, rel)),
        _ => None,
    };
    Some(a)
}

fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

fn trip_count(start: i64, end: i64, step: i64, rel: BinOp) -> u64 {
    let span = match rel {
        BinOp::Lt => end.saturating_sub(start),
        BinOp::Le => end.saturating_sub(start).saturating_add(1),
        BinOp::Gt => start.saturating_sub(end),
        BinOp::Ge => start.saturating_sub(end).saturating_add(1),
        _ => 0,
    };
    if span <= 0 {
        0
    } else {
        (span as u64).div_ceil(step as u64)
    }
}

fn walk_stmt_for_assignments(stmt: &Stmt, var: &str, modified: &mut bool) {
    let mut check = |s: &Stmt| {
        if let StmtKind::Assign {
            target:
                Expr {
                    kind: ExprKind::Var(n),
                    ..
                },
            ..
        } = &s.kind
        {
            if n == var {
                *modified = true;
            }
        }
    };
    check(stmt);
    match &stmt.kind {
        StmtKind::Block(b) => {
            for s in &b.stmts {
                walk_stmt_for_assignments(s, var, modified);
            }
        }
        StmtKind::If {
            then_branch,
            else_branch,
            ..
        } => {
            walk_stmt_for_assignments(then_branch, var, modified);
            if let Some(e) = else_branch {
                walk_stmt_for_assignments(e, var, modified);
            }
        }
        StmtKind::While { body, .. } | StmtKind::DoWhile { body, .. } => {
            walk_stmt_for_assignments(body, var, modified);
        }
        StmtKind::For {
            init, update, body, ..
        } => {
            if let Some(i) = init {
                walk_stmt_for_assignments(i, var, modified);
            }
            if let Some(u) = update {
                walk_stmt_for_assignments(u, var, modified);
            }
            walk_stmt_for_assignments(body, var, modified);
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend;

    fn loops_of(src: &str) -> Vec<LoopInfo> {
        let (p, _) = frontend(src).unwrap();
        analyze(&p)
    }

    fn single_for(body: &str) -> ForAnalysis {
        let src = format!("class A {{ void m(int[] buf, int n) {{ {body} }} }}");
        let (p, _) = frontend(&src).unwrap();
        let mut result = None;
        walk_stmts(&p.classes[0].methods[0].body, &mut |s| {
            if matches!(s.kind, StmtKind::For { .. }) && result.is_none() {
                result = analyze_for(s);
            }
        });
        result.expect("body contains a for loop")
    }

    #[test]
    fn while_and_dowhile_are_flagged() {
        let ls = loops_of(
            "class A { void m() { while (true) {} do {} while (false); for (int i = 0; i < 3; i++) {} } }",
        );
        assert_eq!(ls.len(), 3);
        assert_eq!(ls[0].kind, LoopKind::While);
        assert_eq!(ls[1].kind, LoopKind::DoWhile);
        assert_eq!(ls[2].kind, LoopKind::For);
        assert!(ls[0].bound.is_none());
        assert!(matches!(
            ls[2].bound,
            Some(BoundStatus::Calculable {
                iterations: Some(3)
            })
        ));
    }

    #[test]
    fn canonical_ascending_loop_is_bounded() {
        let a = single_for("for (int i = 0; i < 10; i++) { n = n + i; }");
        assert!(a.bounded);
        assert_eq!(a.iterations, Some(10));
        assert_eq!(a.var.as_deref(), Some("i"));
    }

    #[test]
    fn inclusive_and_stepped_bounds() {
        assert_eq!(
            single_for("for (int i = 0; i <= 10; i++) {}").iterations,
            Some(11)
        );
        assert_eq!(
            single_for("for (int i = 0; i < 10; i += 3) {}").iterations,
            Some(4)
        );
        assert_eq!(
            single_for("for (int i = 10; i > 0; i--) {}").iterations,
            Some(10)
        );
        assert_eq!(
            single_for("for (int i = 10; i >= 0; i -= 2) {}").iterations,
            Some(6)
        );
        assert_eq!(
            single_for("for (int i = 5; i < 5; i++) {}").iterations,
            Some(0)
        );
        assert_eq!(
            single_for("for (int i = 2 * 3; i < 2 * 10; i++) {}").iterations,
            Some(14)
        );
    }

    #[test]
    fn reversed_comparison_is_recognised() {
        let a = single_for("for (int i = 0; 10 > i; i++) {}");
        assert!(a.bounded);
        assert_eq!(a.iterations, Some(10));
    }

    #[test]
    fn array_length_limit_is_bounded_but_uncounted() {
        let a = single_for("for (int i = 0; i < buf.length; i++) {}");
        assert!(a.bounded);
        assert_eq!(a.iterations, None);
    }

    #[test]
    fn variable_limit_is_not_calculable() {
        let a = single_for("for (int i = 0; i < n; i++) {}");
        assert!(!a.bounded);
        assert!(a.reason.unwrap().contains("constant"));
    }

    #[test]
    fn modified_induction_variable_is_rejected() {
        let a = single_for("for (int i = 0; i < 10; i++) { i = i + 2; }");
        assert!(!a.bounded);
        assert!(a.induction_modified);
    }

    #[test]
    fn nested_modification_is_found() {
        let a = single_for("for (int i = 0; i < 10; i++) { if (true) { i += 1; } }");
        assert!(a.induction_modified);
    }

    #[test]
    fn direction_mismatch_is_rejected() {
        let a = single_for("for (int i = 0; i < 10; i--) {}");
        assert!(!a.bounded);
        assert!(a.reason.unwrap().contains("direction"));
    }

    #[test]
    fn weird_shapes_are_rejected_with_reasons() {
        assert!(!single_for("for (int i = 0; ; i++) { break; }").bounded);
        assert!(!single_for("for (int i = 0; i != 10; i++) {}").bounded);
        assert!(!single_for("for (int i = 0; i < 10; n++) {}").bounded);
        assert!(!single_for("for (int i = 0; i < 10; i *= 2) {}").bounded);
        assert!(!single_for("for (int i = 0; n < 10; i++) {}").bounded);
    }

    #[test]
    fn fold_const_evaluates_arithmetic() {
        let (p, _) = frontend("class A { int m() { return -(2 + 3) * 4 / 2 % 7; } }").unwrap();
        let StmtKind::Return(Some(e)) = &p.classes[0].methods[0].body.stmts[0].kind else {
            panic!();
        };
        assert_eq!(fold_const(e), Some(-(2 + 3) * 4 / 2 % 7));
    }

    #[test]
    fn corpus_fir_is_fully_bounded() {
        let ls = loops_of(jtlang::corpus::FIR_FILTER);
        assert_eq!(ls.len(), 2);
        for l in ls {
            assert!(matches!(
                l.bound,
                Some(BoundStatus::Calculable {
                    iterations: Some(_)
                })
            ));
        }
    }
}
