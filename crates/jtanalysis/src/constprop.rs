//! Conditional constant propagation over locals.
//!
//! A forward analysis on the flat constant lattice (`⊥` — unreachable,
//! constant, `⊤` — unknown): each trackable local maps to a known
//! [`Const`] or is absent (unknown). The analysis is *conditional* in
//! the classic sense: when a branch condition folds to a constant, the
//! dead edge propagates `Fact::Unreachable`, so facts from code that
//! can never execute do not pollute the join — which is exactly what
//! single-pass folding (`loops::fold_const`) cannot do.
//!
//! Findings are branch conditions that are provably constant
//! ([`ConstantCond`]) — dead code that `jtlint` reports as a warning.
//! The analysis also feeds [`crate::interval`] conceptually: singleton
//! intervals subsume these constants, and the shared trackable-name
//! discipline comes from [`crate::definite`]'s module docs.

use crate::cfg::{self, Cfg, Instr, Terminator};
use crate::dataflow::{self, Analysis, Direction};
use crate::MethodRef;
use jtlang::ast::{AssignOp, BinOp, Expr, ExprKind, Program, StmtKind, UnOp};
use jtlang::token::Span;
use std::collections::{BTreeMap, BTreeSet};

/// A compile-time constant value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Const {
    /// Integer constant.
    Int(i64),
    /// Boolean constant.
    Bool(bool),
}

/// A branch condition with a provably constant value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConstantCond {
    /// The constant the condition always evaluates to.
    pub value: bool,
    /// Span of the condition expression.
    pub span: Span,
    /// Method containing the branch.
    pub method: MethodRef,
}

/// Result of [`analyze`].
#[derive(Debug, Clone, Default)]
pub struct ConstpropReport {
    /// Branch conditions that always take the same edge.
    pub constant_conds: Vec<ConstantCond>,
    /// Total worklist iterations across all methods.
    pub solver_iterations: u64,
}

/// Dataflow fact: unreachable, or a partial map local → constant
/// (absent = unknown).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Fact {
    Unreachable,
    Env(BTreeMap<String, Const>),
}

pub(crate) struct ConstProp {
    pub(crate) trackable: BTreeSet<String>,
}

/// Folds one expression under a constant environment. Pure — returns
/// `None` for anything non-constant (calls, fields, overflow).
pub(crate) fn eval(env: &BTreeMap<String, Const>, expr: &Expr) -> Option<Const> {
    match &expr.kind {
        ExprKind::Int(v) => Some(Const::Int(*v)),
        ExprKind::Bool(b) => Some(Const::Bool(*b)),
        ExprKind::Var(name) => env.get(name).copied(),
        ExprKind::Unary { op, expr } => match (op, eval(env, expr)?) {
            (UnOp::Neg, Const::Int(v)) => v.checked_neg().map(Const::Int),
            (UnOp::Not, Const::Bool(b)) => Some(Const::Bool(!b)),
            _ => None,
        },
        ExprKind::Binary { op, lhs, rhs } => {
            // Short-circuit operators fold from the left alone.
            if let (BinOp::And | BinOp::Or, Some(Const::Bool(l))) = (op, eval(env, lhs)) {
                match (op, l) {
                    (BinOp::And, false) => return Some(Const::Bool(false)),
                    (BinOp::Or, true) => return Some(Const::Bool(true)),
                    _ => return eval(env, rhs),
                }
            }
            match (eval(env, lhs)?, eval(env, rhs)?) {
                (Const::Int(l), Const::Int(r)) => match op {
                    BinOp::Add => l.checked_add(r).map(Const::Int),
                    BinOp::Sub => l.checked_sub(r).map(Const::Int),
                    BinOp::Mul => l.checked_mul(r).map(Const::Int),
                    BinOp::Div => l.checked_div(r).map(Const::Int),
                    BinOp::Rem => l.checked_rem(r).map(Const::Int),
                    BinOp::Lt => Some(Const::Bool(l < r)),
                    BinOp::Le => Some(Const::Bool(l <= r)),
                    BinOp::Gt => Some(Const::Bool(l > r)),
                    BinOp::Ge => Some(Const::Bool(l >= r)),
                    BinOp::Eq => Some(Const::Bool(l == r)),
                    BinOp::Ne => Some(Const::Bool(l != r)),
                    BinOp::And | BinOp::Or => None,
                },
                (Const::Bool(l), Const::Bool(r)) => match op {
                    BinOp::Eq => Some(Const::Bool(l == r)),
                    BinOp::Ne => Some(Const::Bool(l != r)),
                    _ => None,
                },
                _ => None,
            }
        }
        _ => None,
    }
}

impl<'p> Analysis<'p> for ConstProp {
    type Fact = Fact;

    fn direction(&self) -> Direction {
        Direction::Forward
    }
    fn boundary(&self, _cfg: &Cfg<'p>) -> Fact {
        Fact::Env(BTreeMap::new())
    }
    fn bottom(&self) -> Fact {
        Fact::Unreachable
    }
    fn join(&self, into: &mut Fact, other: &Fact) -> bool {
        match (&mut *into, other) {
            (_, Fact::Unreachable) => false,
            (Fact::Unreachable, o) => {
                *into = o.clone();
                true
            }
            (Fact::Env(a), Fact::Env(b)) => {
                // Keep only bindings that agree; disagreement = ⊤.
                let before = a.len();
                a.retain(|k, v| b.get(k) == Some(v));
                a.len() != before
            }
        }
    }
    fn transfer_instr(&self, fact: &mut Fact, instr: &Instr<'p>) {
        let Fact::Env(env) = fact else { return };
        match instr {
            Instr::Decl { name, init, .. } => {
                if self.trackable.contains(*name) {
                    match init.and_then(|e| eval(env, e)) {
                        Some(c) => {
                            env.insert((*name).to_string(), c);
                        }
                        None => {
                            env.remove(*name);
                        }
                    }
                }
            }
            Instr::Assign { target, op, value, .. } => {
                if let ExprKind::Var(name) = &target.kind {
                    if self.trackable.contains(name) {
                        let rhs = eval(env, value);
                        let new = match (op, env.get(name).copied(), rhs) {
                            (AssignOp::Set, _, c) => c,
                            (_, Some(Const::Int(old)), Some(Const::Int(v))) => {
                                let folded = match op {
                                    AssignOp::Add => old.checked_add(v),
                                    AssignOp::Sub => old.checked_sub(v),
                                    AssignOp::Mul => old.checked_mul(v),
                                    AssignOp::Div => old.checked_div(v),
                                    AssignOp::Rem => old.checked_rem(v),
                                    AssignOp::Set => unreachable!(),
                                };
                                folded.map(Const::Int)
                            }
                            _ => None,
                        };
                        match new {
                            Some(c) => {
                                env.insert(name.clone(), c);
                            }
                            None => {
                                env.remove(name);
                            }
                        }
                    }
                }
            }
            Instr::Eval(_) | Instr::Return { .. } => {}
        }
    }
    fn transfer_edge(&self, fact: &mut Fact, term: &Terminator<'p>, branch_taken: Option<bool>) {
        let (Some(taken), Terminator::Branch { cond, .. }) = (branch_taken, term) else {
            return;
        };
        let folded = match &*fact {
            Fact::Unreachable => return,
            Fact::Env(env) => eval(env, cond),
        };
        if let Some(Const::Bool(b)) = folded {
            if b != taken {
                // The dead edge of a constant branch carries no facts.
                *fact = Fact::Unreachable;
                return;
            }
        }
        // Equality refinement: `x == c` pins x on the matching edge.
        let Fact::Env(env) = fact else { return };
        if let ExprKind::Binary { op, lhs, rhs } = &cond.kind {
            let pins = matches!((op, taken), (BinOp::Eq, true) | (BinOp::Ne, false));
            if pins {
                for (a, b) in [(lhs, rhs), (rhs, lhs)] {
                    if let (ExprKind::Var(name), Some(c)) = (&a.kind, eval(env, b)) {
                        if self.trackable.contains(name) {
                            env.insert(name.clone(), c);
                        }
                    }
                }
            }
        }
    }
}

/// Span- and id-free per-method result: each constant condition is an
/// expression pre-order index plus its folded value. Cacheable across
/// re-parses and rebased by [`materialize`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct ConstpropCore {
    /// `(expr index of the condition, constant value)` in block order.
    pub(crate) conds: Vec<(u32, bool)>,
    /// Worklist iterations spent on this method.
    pub(crate) iterations: u64,
}

/// Runs conditional constant propagation over one method, producing the
/// cacheable core form.
pub(crate) fn analyze_method(
    program: &Program,
    table: &jtlang::resolve::ClassTable,
    class: &jtlang::ast::ClassDecl,
    decl: &jtlang::ast::MethodDecl,
    mref: crate::MethodRef,
    map: &crate::fingerprint::NodeMap,
) -> ConstpropCore {
    let cfg = cfg::build(class, decl, mref);
    let analysis = ConstProp {
        trackable: trackable_int_bool_locals(program, table, class, decl),
    };
    let solution = dataflow::solve(&analysis, &cfg);
    let mut core = ConstpropCore {
        conds: Vec::new(),
        iterations: solution.iterations,
    };
    for block in &cfg.blocks {
        let Terminator::Branch { cond, .. } = &block.term else {
            continue;
        };
        // Evaluate the condition under the fact after the block's
        // instructions.
        let mut fact = solution.entry[block.id].clone();
        for instr in &block.instrs {
            analysis.transfer_instr(&mut fact, instr);
        }
        let Fact::Env(env) = &fact else { continue };
        // Skip syntactic literals (`while (true)` idioms are the
        // loop rules' business, not dead-code findings).
        if matches!(cond.kind, ExprKind::Bool(_)) {
            continue;
        }
        if let Some(Const::Bool(value)) = eval(env, cond) {
            let idx = map
                .expr_index(cond.id)
                .and_then(|i| u32::try_from(i).ok())
                .expect("branch condition belongs to the method body");
            core.conds.push((idx, value));
        }
    }
    core
}

/// Rebases a cached core onto the current parse's spans.
pub(crate) fn materialize(
    core: &ConstpropCore,
    map: &crate::fingerprint::NodeMap,
    mref: &crate::MethodRef,
    out: &mut Vec<ConstantCond>,
) {
    for (idx, value) in &core.conds {
        let (_, span) = map.expr(*idx as usize);
        out.push(ConstantCond {
            value: *value,
            span,
            method: mref.clone(),
        });
    }
}

/// Final deterministic ordering of a report assembled from per-method
/// pieces.
pub(crate) fn finish(report: &mut ConstpropReport) {
    report
        .constant_conds
        .sort_by_key(|c| (c.span.start, c.span.end));
}

/// Runs conditional constant propagation over every method.
pub fn analyze(program: &Program, table: &jtlang::resolve::ClassTable) -> ConstpropReport {
    let mut report = ConstpropReport::default();
    for (class, decl, mref) in crate::each_method(program) {
        let map = crate::fingerprint::NodeMap::build(decl);
        let core = analyze_method(program, table, class, decl, mref.clone(), &map);
        report.solver_iterations += core.iterations;
        materialize(&core, &map, &mref, &mut report.constant_conds);
    }
    finish(&mut report);
    report
}

/// Same discipline as `definite::trackable_locals`, further restricted
/// to names declared only as `int`/`boolean` locals (constants exist
/// only for those).
pub(crate) fn trackable_int_bool_locals(
    program: &Program,
    table: &jtlang::resolve::ClassTable,
    class: &jtlang::ast::ClassDecl,
    decl: &jtlang::ast::MethodDecl,
) -> BTreeSet<String> {
    use jtlang::ast::Type;
    // name → every declaration of it is int/boolean.
    let mut decls: BTreeMap<&str, bool> = BTreeMap::new();
    jtlang::ast::walk_stmts(&decl.body, &mut |stmt| {
        if let StmtKind::VarDecl { name, ty, .. } = &stmt.kind {
            let scalar = matches!(ty, Type::Int | Type::Boolean);
            decls
                .entry(name.as_str())
                .and_modify(|all| *all &= scalar)
                .or_insert(scalar);
        }
    });
    let fields = crate::definite::visible_fields(program, table, class);
    decls
        .into_iter()
        .filter(|(name, all_scalar)| {
            *all_scalar
                && !fields.contains(name)
                && !decl.params.iter().any(|p| p.name == *name)
        })
        .map(|(name, _)| name.to_string())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend;

    fn conds(src: &str) -> Vec<bool> {
        let (p, t) = frontend(src).unwrap();
        analyze(&p, &t).constant_conds.into_iter().map(|c| c.value).collect()
    }

    #[test]
    fn propagated_constant_condition_is_found() {
        let src = "class A { int m() {
            int n = 10;
            if (n > 5) { return 1; }
            return 0;
        } }";
        assert_eq!(conds(src), [true]);
    }

    #[test]
    fn unknown_input_is_not_constant() {
        let src = "class A { int m(int n) {
            if (n > 5) { return 1; }
            return 0;
        } }";
        assert!(conds(src).is_empty());
    }

    #[test]
    fn join_kills_disagreeing_constants() {
        let src = "class A { int m(int p) {
            int n;
            if (p > 0) { n = 1; } else { n = 2; }
            if (n > 0) { return 1; }
            return 0;
        } }";
        // n is 1 or 2 at the join — flat lattice loses it, no finding.
        assert!(conds(src).is_empty());
    }

    #[test]
    fn conditional_part_skips_dead_branches() {
        let src = "class A { int m() {
            int flag = 0;
            int n = 1;
            if (flag == 1) { n = 100; }
            if (n < 10) { return 1; }
            return 0;
        } }";
        // `flag == 1` is constant-false, so `n = 100` never pollutes `n`:
        // both conditions are constant.
        assert_eq!(conds(src), [false, true]);
    }

    #[test]
    fn equality_edge_refinement_pins_value() {
        let src = "class A { int m(int p) {
            int state = p;
            if (state == 0) {
                if (state < 1) { return 1; }
            }
            return 0;
        } }";
        // On the then-edge state is pinned to 0, so `state < 1` is true.
        // But `state` collides with nothing and is declared once — yet it
        // is initialised from a param, so only the refinement knows it.
        assert_eq!(conds(src), [true]);
    }

    #[test]
    fn loop_variable_is_not_constant() {
        let src = "class A { int m() {
            int s = 0;
            for (int i = 0; i < 10; i++) { s += 1; }
            if (s == 0) { return 1; }
            return 0;
        } }";
        // s varies around the loop; the join widens it to ⊤ (and the
        // exit value is unknown to this flat domain).
        assert!(conds(src).is_empty());
    }
}
