//! Per-method escape summaries.
//!
//! An object *escapes* a method when it becomes reachable from outside
//! the method's own frame: stored into another object's state, handed to
//! a callee that leaks it, or returned. The SFR refinement argument
//! needs these facts to decide which state stays confined to its
//! constructing context (paper §4.3's "state fixed at initialization"):
//! rule R14 flags methods that hand out aliases of their receiver's
//! mutable state, and the alias-aware race tier uses confinement to
//! clear candidates.
//!
//! The abstract value domain (private) tracks where a reference came
//! from: the receiver (`this`), a parameter, a field of the receiver, a
//! fresh allocation in this method, or somewhere external. Evaluation is
//! flow-insensitive: a small env maps locals to value sets and the
//! method body is re-walked to a bounded fixpoint. Like
//! [`crate::purity`], summaries compose bottom-up: callee summaries are
//! consulted at every call site, and the interprocedural driver
//! ([`crate::summary`]) iterates cyclic call-graph components.

use crate::pointsto::{resolve_call, CallTarget};
use crate::MethodRef;
use jtlang::ast::{
    stmt_exprs, walk_stmts, ClassDecl, Expr, ExprKind, MethodDecl, NodeId, Program, StmtKind,
};
use jtlang::resolve::ClassTable;
use std::collections::{BTreeMap, BTreeSet};

/// Cap on flow-insensitive env passes per method body.
const MAX_ENV_PASSES: usize = 8;

/// Where a reference value may have come from.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum AVal {
    /// The receiver.
    This,
    /// The `i`-th parameter.
    Param(usize),
    /// A value reachable through the receiver's named field.
    ThisField(String),
    /// A fresh allocation in this method, by expression id.
    Fresh(NodeId),
    /// Anything else (caller state, unknown call results).
    External,
}

/// What one method does with the references it touches.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EscapeSummary {
    /// `param_escapes[i]`: the `i`-th argument may be stored into
    /// external state or leaked by a callee.
    pub param_escapes: Vec<bool>,
    /// The receiver itself may escape.
    pub this_escapes: bool,
    /// The method may return its receiver.
    pub returns_this: bool,
    /// Receiver fields whose value may be returned — the method hands
    /// out an alias of `this`-held state.
    pub returns_this_field: BTreeSet<String>,
    /// Receiver fields whose value may escape through a non-return path
    /// (stored into external state or leaked by a callee).
    pub leaked_this_fields: BTreeSet<String>,
    /// The method may return a fresh allocation (transfer of a new
    /// object, not an alias).
    pub returns_fresh: bool,
    /// Allocation sites (expression ids) in this method whose objects
    /// may escape other than by being returned.
    pub escaping_allocs: BTreeSet<NodeId>,
}

impl EscapeSummary {
    fn mark(&mut self, av: &AVal) {
        match av {
            AVal::This => self.this_escapes = true,
            AVal::Param(i) => {
                if let Some(slot) = self.param_escapes.get_mut(*i) {
                    *slot = true;
                }
            }
            AVal::ThisField(f) => {
                self.leaked_this_fields.insert(f.clone());
            }
            AVal::Fresh(id) => {
                self.escaping_allocs.insert(*id);
            }
            AVal::External => {}
        }
    }
}

/// The deterministic conservative top used when a cyclic SCC hits the
/// fixpoint cap without converging: every parameter and the receiver
/// escape, and every reference-typed field of the enclosing class chain
/// counts as leaked (and returned, when the method can return a
/// reference at all). Unlike the partial fixpoint iterate — which
/// depends on how far the iteration got — this value is a pure function
/// of the signature and class chain, so divergent SCCs cache stably.
pub fn divergent_top(
    table: &ClassTable,
    class: &ClassDecl,
    decl: &MethodDecl,
) -> EscapeSummary {
    let mut ref_fields: BTreeSet<String> = BTreeSet::new();
    let mut current = Some(class.name.clone());
    let mut hops = 0usize;
    while let Some(name) = current {
        hops += 1;
        if hops > 64 {
            break;
        }
        let Some(info) = table.class(&name) else { break };
        for f in &info.fields {
            if f.ty.is_reference() {
                ref_fields.insert(f.name.clone());
            }
        }
        current = info.superclass.clone();
    }
    let returns_ref = decl.return_type.as_ref().is_some_and(|t| t.is_reference());
    EscapeSummary {
        param_escapes: vec![true; decl.params.len()],
        this_escapes: true,
        returns_this: returns_ref,
        returns_this_field: if returns_ref {
            ref_fields.clone()
        } else {
            BTreeSet::new()
        },
        leaked_this_fields: ref_fields,
        returns_fresh: false,
        escaping_allocs: BTreeSet::new(),
    }
}

/// Computes one method's escape summary given the current summaries of
/// its callees (missing callees contribute the empty default — sound
/// only inside the bottom-up driver, which iterates cycles).
pub fn summarize_method(
    program: &Program,
    table: &ClassTable,
    class: &ClassDecl,
    decl: &MethodDecl,
    mref: &MethodRef,
    summaries: &BTreeMap<MethodRef, EscapeSummary>,
) -> EscapeSummary {
    let params: BTreeMap<&str, usize> = decl
        .params
        .iter()
        .enumerate()
        .map(|(i, p)| (p.name.as_str(), i))
        .collect();
    let mut locals: BTreeSet<&str> = BTreeSet::new();
    walk_stmts(&decl.body, &mut |stmt| {
        if let StmtKind::VarDecl { name, .. } = &stmt.kind {
            locals.insert(name.as_str());
        }
    });

    let mut s = EscapeSummary {
        param_escapes: vec![false; decl.params.len()],
        ..EscapeSummary::default()
    };
    let mut env: BTreeMap<String, BTreeSet<AVal>> = BTreeMap::new();
    let mut ret: BTreeSet<AVal> = BTreeSet::new();

    for _ in 0..MAX_ENV_PASSES {
        let before = (env.clone(), s.clone(), ret.clone());
        let mut env_updates: Vec<(String, BTreeSet<AVal>)> = Vec::new();
        let mut ret_updates: BTreeSet<AVal> = BTreeSet::new();
        {
            let mut eval = Evaluator {
                program,
                table,
                class,
                decl,
                mref,
                summaries,
                params: &params,
                locals: &locals,
                env: &env,
                out: &mut s,
            };
            walk_stmts(&decl.body, &mut |stmt| match &stmt.kind {
                StmtKind::VarDecl {
                    name,
                    init: Some(e),
                    ..
                } => {
                    let vs = eval.eval(e);
                    env_updates.push((name.clone(), vs));
                }
                StmtKind::Assign { target, value, .. } => {
                    let vs = eval.eval(value);
                    match &target.kind {
                        ExprKind::Var(name) if eval.locals.contains(name.as_str()) => {
                            env_updates.push((name.clone(), vs));
                        }
                        // Implicit-this field store: the value stays
                        // within the receiver's own state — not an
                        // escape.
                        ExprKind::Var(_) => {}
                        ExprKind::Field { object, .. }
                        | ExprKind::Index { array: object, .. } => {
                            // Storing into a caller-visible object leaks
                            // the value; storing into `this` or a fresh
                            // local object keeps it confined.
                            let bases = eval.eval(object);
                            if bases
                                .iter()
                                .any(|b| matches!(b, AVal::Param(_) | AVal::External))
                            {
                                for v in &vs {
                                    eval.out.mark(v);
                                }
                            }
                        }
                        _ => {}
                    }
                }
                StmtKind::Return(Some(e)) => {
                    ret_updates.extend(eval.eval(e));
                }
                // Everything else is evaluated only for its call-site
                // marking effects.
                _ => {
                    for e in stmt_exprs(stmt) {
                        eval.eval(e);
                    }
                }
            });
        }
        for (name, vs) in env_updates {
            env.entry(name).or_default().extend(vs);
        }
        ret.extend(ret_updates);
        if (env.clone(), s.clone(), ret.clone()) == before {
            break;
        }
    }

    s.returns_this = ret.contains(&AVal::This);
    s.returns_fresh = ret.iter().any(|v| matches!(v, AVal::Fresh(_)));
    for v in &ret {
        if let AVal::ThisField(f) = v {
            s.returns_this_field.insert(f.clone());
        }
    }
    s
}

/// One pass's expression evaluator: computes abstract values and records
/// escapes into `out` as a side effect of call sites and stores.
struct Evaluator<'a, 'p> {
    program: &'p Program,
    table: &'a ClassTable,
    class: &'a ClassDecl,
    decl: &'a MethodDecl,
    mref: &'a MethodRef,
    summaries: &'a BTreeMap<MethodRef, EscapeSummary>,
    params: &'a BTreeMap<&'p str, usize>,
    locals: &'a BTreeSet<&'p str>,
    env: &'a BTreeMap<String, BTreeSet<AVal>>,
    out: &'a mut EscapeSummary,
}

impl<'p> Evaluator<'_, 'p> {
    fn eval(&mut self, e: &'p Expr) -> BTreeSet<AVal> {
        // Value-typed expressions carry no references; walk them only
        // for their call-site marking effects.
        if let Ok(ty) = jtlang::types::type_of_expr(self.table, self.class, Some(self.decl), e) {
            if !ty.is_reference() {
                self.eval_structural(e);
                return BTreeSet::new();
            }
        }
        self.eval_structural(e)
    }

    fn eval_structural(&mut self, e: &'p Expr) -> BTreeSet<AVal> {
        match &e.kind {
            ExprKind::This => BTreeSet::from([AVal::This]),
            ExprKind::Var(name) => {
                if let Some(&i) = self.params.get(name.as_str()) {
                    BTreeSet::from([AVal::Param(i)])
                } else if self.locals.contains(name.as_str()) {
                    self.env.get(name).cloned().unwrap_or_default()
                } else {
                    BTreeSet::from([AVal::ThisField(name.clone())])
                }
            }
            ExprKind::Field { object, name } => {
                let bases = self.eval(object);
                let mut out = BTreeSet::new();
                for b in bases {
                    out.insert(match b {
                        AVal::This => AVal::ThisField(name.clone()),
                        // Anything reachable from `this.g` keeps that
                        // label: leaking it leaks `g`.
                        AVal::ThisField(g) => AVal::ThisField(g),
                        _ => AVal::External,
                    });
                }
                out
            }
            ExprKind::Index { array, index } => {
                self.eval(index);
                let bases = self.eval(array);
                let mut out = BTreeSet::new();
                for b in bases {
                    out.insert(match b {
                        AVal::ThisField(g) => AVal::ThisField(g),
                        _ => AVal::External,
                    });
                }
                out
            }
            ExprKind::Call {
                receiver,
                method,
                args,
            } => {
                let recv: BTreeSet<AVal> = match receiver {
                    None => BTreeSet::from([AVal::This]),
                    Some(r) => self.eval(r),
                };
                let arg_vals: Vec<BTreeSet<AVal>> =
                    args.iter().map(|a| self.eval(a)).collect();
                match resolve_call(
                    self.program,
                    self.table,
                    self.mref,
                    Some(self.decl),
                    receiver.as_deref(),
                    method,
                ) {
                    Some(CallTarget::User(callee)) => {
                        let cs = self.summaries.get(&callee).cloned().unwrap_or_default();
                        for (i, avs) in arg_vals.iter().enumerate() {
                            if cs.param_escapes.get(i).copied().unwrap_or(false) {
                                for v in avs {
                                    self.out.mark(v);
                                }
                            }
                        }
                        if cs.this_escapes {
                            for v in &recv {
                                self.out.mark(v);
                            }
                        }
                        let mut out = BTreeSet::new();
                        if cs.returns_fresh {
                            out.insert(AVal::Fresh(e.id));
                        }
                        if !cs.returns_this_field.is_empty() {
                            for rv in &recv {
                                match rv {
                                    AVal::This => {
                                        for f in &cs.returns_this_field {
                                            out.insert(AVal::ThisField(f.clone()));
                                        }
                                    }
                                    AVal::ThisField(g) => {
                                        out.insert(AVal::ThisField(g.clone()));
                                    }
                                    _ => {
                                        out.insert(AVal::External);
                                    }
                                }
                            }
                        }
                        if cs.returns_this {
                            out.extend(recv.iter().cloned());
                        }
                        if out.is_empty() {
                            out.insert(AVal::External);
                        }
                        out
                    }
                    // Port reads copy data in: a fresh vector. No
                    // builtin stores its arguments (ports copy).
                    Some(CallTarget::Builtin(_, _)) => BTreeSet::from([AVal::Fresh(e.id)]),
                    None => BTreeSet::from([AVal::External]),
                }
            }
            ExprKind::NewObject { class, args } => {
                let arg_vals: Vec<BTreeSet<AVal>> =
                    args.iter().map(|a| self.eval(a)).collect();
                let ctor = MethodRef::ctor(class, args.len());
                if let Some(cs) = self.summaries.get(&ctor) {
                    for (i, avs) in arg_vals.iter().enumerate() {
                        if cs.param_escapes.get(i).copied().unwrap_or(false) {
                            for v in avs {
                                self.out.mark(v);
                            }
                        }
                    }
                }
                BTreeSet::from([AVal::Fresh(e.id)])
            }
            ExprKind::NewArray { len, .. } => {
                self.eval(len);
                BTreeSet::from([AVal::Fresh(e.id)])
            }
            ExprKind::Length { array } => {
                self.eval(array);
                BTreeSet::new()
            }
            ExprKind::Binary { lhs, rhs, .. } => {
                self.eval(lhs);
                self.eval(rhs);
                BTreeSet::new()
            }
            ExprKind::Unary { expr, .. } => {
                self.eval(expr);
                BTreeSet::new()
            }
            _ => BTreeSet::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{frontend, summary};

    fn summaries(src: &str) -> BTreeMap<MethodRef, EscapeSummary> {
        let (p, t) = frontend(src).unwrap();
        let g = crate::callgraph::build(&p, &t);
        summary::analyze(&p, &t, &g)
            .methods
            .into_iter()
            .map(|(m, s)| (m, s.escape))
            .collect()
    }

    #[test]
    fn getter_returns_this_field() {
        let s = summaries(
            "class Box { private int[] data; Box() { data = new int[4]; }
                 int[] grab() { return data; } }",
        );
        let grab = &s[&MethodRef::method("Box", "grab")];
        assert!(grab.returns_this_field.contains("data"));
        assert!(!grab.returns_fresh);
    }

    #[test]
    fn fresh_allocation_return_is_a_transfer_not_a_leak() {
        let s = summaries("class F { int[] make() { return new int[8]; } }");
        let make = &s[&MethodRef::method("F", "make")];
        assert!(make.returns_fresh);
        assert!(make.returns_this_field.is_empty());
    }

    #[test]
    fn param_stored_into_external_object_escapes() {
        let s = summaries(
            "class Sink { public int[] slot; Sink() { slot = new int[1]; } }
             class M { void put(Sink sink, int[] v) { sink.slot = v; } }",
        );
        let put = &s[&MethodRef::method("M", "put")];
        assert_eq!(put.param_escapes, [false, true]);
    }

    #[test]
    fn leak_propagates_through_a_call() {
        let s = summaries(
            "class Sink { public int[] slot; Sink() { slot = new int[1]; } }
             class M {
                 private int[] buf;
                 M() { buf = new int[4]; }
                 void put(Sink sink, int[] v) { sink.slot = v; }
                 void expose(Sink sink) { put(sink, buf); } }",
        );
        let expose = &s[&MethodRef::method("M", "expose")];
        assert!(expose.leaked_this_fields.contains("buf"));
    }

    #[test]
    fn chained_getter_still_names_the_local_field() {
        let s = summaries(
            "class Inner { public int n; Inner() { n = 0; } }
             class Outer {
                 private Inner inner;
                 Outer() { inner = new Inner(); }
                 Inner get() { return inner; }
                 Inner via() { return get(); } }",
        );
        let via = &s[&MethodRef::method("Outer", "via")];
        assert!(via.returns_this_field.contains("inner"));
    }
}
