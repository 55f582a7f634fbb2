//! Interval analysis: proving `for`-loop bounds and array-index safety.
//!
//! A forward value analysis over [`crate::cfg`] on the domain of integer
//! intervals `[lo, hi]` (with `i64::MIN`/`i64::MAX` as `-∞`/`+∞`
//! sentinels and saturating arithmetic throughout). Branch edges refine
//! intervals from comparisons (`i < n` narrows `i` on the then-edge),
//! and loop heads widen after a few joins so the infinite-height lattice
//! converges.
//!
//! Three products, all consumed by `sfr` and `jtlint`:
//!
//! * **Proved loop bounds** ([`IntervalReport::proved_loop_bounds`]) —
//!   a worst-case trip count for each `for` loop whose induction
//!   variable, limit, and step are provably confined at loop entry.
//!   This supersedes the syntactic induction-variable heuristic in
//!   [`crate::loops`]: a limit that is a clamped local (`if (n > 15)
//!   n = 15;`) or a propagated constant is provable here but opaque
//!   there, and [`crate::bounds`] consumes these bounds to make WCET
//!   estimates flow-sensitive.
//! * **Definite out-of-bounds accesses** ([`IntervalReport::oob`]) —
//!   array reads/writes whose index interval lies *entirely* outside
//!   `[0, len-1]`. Only definite errors are reported, so the finding is
//!   sound against false positives: if the analysis rejects an access
//!   that executes, the interpreter faults on it too.
//! * **Proven-safe index count** ([`IntervalReport::safe_indices`]) —
//!   accesses whose interval is entirely in bounds, a precision metric
//!   surfaced in EXPERIMENTS.md.

use crate::cfg::{self, Cfg, Instr, LoopShape, Terminator};
use crate::dataflow::{self, Analysis, Direction};
use crate::loops::fold_const;
use crate::MethodRef;
use jtlang::ast::{
    walk_expr, walk_stmts, AssignOp, BinOp, ClassDecl, Expr, ExprKind, MethodDecl, NodeId,
    Program, Stmt, StmtKind, Type, UnOp, Visibility,
};
use jtlang::resolve::ClassTable;
use jtlang::token::Span;
use std::collections::{BTreeMap, BTreeSet};

/// An integer interval `[lo, hi]`; `i64::MIN`/`i64::MAX` act as
/// `-∞`/`+∞`. Empty intervals are represented as `None` at use sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Lower bound (`i64::MIN` = unbounded below).
    pub lo: i64,
    /// Upper bound (`i64::MAX` = unbounded above).
    pub hi: i64,
}

// Not the std ops traits: these saturate at the ±∞ sentinels instead of
// overflowing, and operator syntax would hide that.
#[allow(clippy::should_implement_trait)]
impl Interval {
    /// The full interval `(-∞, +∞)`.
    pub const TOP: Interval = Interval { lo: i64::MIN, hi: i64::MAX };

    /// The single-point interval `[v, v]`.
    pub fn singleton(v: i64) -> Interval {
        Interval { lo: v, hi: v }
    }

    /// `[lo, hi]`, or `TOP` when inverted (defensive).
    pub fn new(lo: i64, hi: i64) -> Interval {
        if lo > hi {
            Interval::TOP
        } else {
            Interval { lo, hi }
        }
    }

    /// True when both bounds are finite (not sentinels).
    pub fn is_finite(&self) -> bool {
        self.lo != i64::MIN && self.hi != i64::MAX
    }

    /// Smallest interval containing both.
    pub fn hull(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Intersection; `None` when empty.
    pub fn intersect(self, other: Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        (lo <= hi).then_some(Interval { lo, hi })
    }

    /// Interval negation (saturating).
    pub fn neg(self) -> Interval {
        Interval::new(self.hi.saturating_neg(), self.lo.saturating_neg())
    }

    /// Interval addition (saturating).
    pub fn add(self, other: Interval) -> Interval {
        Interval::new(self.lo.saturating_add(other.lo), self.hi.saturating_add(other.hi))
    }

    /// Interval subtraction (saturating).
    pub fn sub(self, other: Interval) -> Interval {
        Interval::new(self.lo.saturating_sub(other.hi), self.hi.saturating_sub(other.lo))
    }

    /// Interval multiplication (saturating over the four corner
    /// products).
    pub fn mul(self, other: Interval) -> Interval {
        let c = [
            self.lo.saturating_mul(other.lo),
            self.lo.saturating_mul(other.hi),
            self.hi.saturating_mul(other.lo),
            self.hi.saturating_mul(other.hi),
        ];
        Interval::new(*c.iter().min().unwrap(), *c.iter().max().unwrap())
    }

    /// Interval division (Java truncating semantics), sound only when
    /// the divisor excludes zero; otherwise `TOP`.
    pub fn div(self, other: Interval) -> Interval {
        if other.lo > 0 || other.hi < 0 {
            let c = [
                div_tz(self.lo, other.lo),
                div_tz(self.lo, other.hi),
                div_tz(self.hi, other.lo),
                div_tz(self.hi, other.hi),
            ];
            Interval::new(*c.iter().min().unwrap(), *c.iter().max().unwrap())
        } else {
            Interval::TOP
        }
    }

    /// Interval remainder: confined by the divisor's magnitude when the
    /// divisor excludes zero.
    pub fn rem(self, other: Interval) -> Interval {
        if other.lo > 0 || other.hi < 0 {
            let mag = other.lo.unsigned_abs().max(other.hi.unsigned_abs());
            let m = i64::try_from(mag.saturating_sub(1)).unwrap_or(i64::MAX);
            if self.lo >= 0 {
                Interval::new(0, m)
            } else {
                Interval::new(m.saturating_neg(), m)
            }
        } else {
            Interval::TOP
        }
    }

    /// Standard widening against the previous iterate: a bound that
    /// grew jumps straight to the sentinel, guaranteeing convergence.
    pub fn widen(self, prev: Interval) -> Interval {
        Interval {
            lo: if self.lo < prev.lo { i64::MIN } else { self.lo },
            hi: if self.hi > prev.hi { i64::MAX } else { self.hi },
        }
    }
}

fn div_tz(a: i64, b: i64) -> i64 {
    a.checked_div(b).unwrap_or(i64::MAX)
}

/// An array access whose index interval lies entirely outside the
/// array's bounds — a definite runtime fault on every execution that
/// reaches it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OobFinding {
    /// Span of the indexing expression.
    pub span: Span,
    /// Method containing the access.
    pub method: MethodRef,
    /// The index interval at the access.
    pub index: Interval,
    /// Known array length, when the proof used one (an index proved
    /// negative needs no length).
    pub length: Option<i64>,
}

/// Result of [`analyze`].
#[derive(Debug, Clone, Default)]
pub struct IntervalReport {
    /// For-statement id → proved worst-case trip count.
    pub proved_loop_bounds: BTreeMap<NodeId, u64>,
    /// Definitely out-of-bounds accesses.
    pub oob: Vec<OobFinding>,
    /// Array accesses proved in-bounds.
    pub safe_indices: usize,
    /// Total array accesses inspected.
    pub checked_indices: usize,
    /// Total worklist iterations across all methods.
    pub solver_iterations: u64,
}

/// Dataflow fact: unreachable, or per-local intervals plus per-array
/// length intervals (absent = unknown).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Fact {
    Unreachable,
    Env(Env),
}

#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct Env {
    /// Trackable `int` locals → value interval.
    vars: BTreeMap<String, Interval>,
    /// Trackable array locals → length interval.
    lens: BTreeMap<String, Interval>,
}

struct IntervalAnalysis {
    /// `int` locals safe to track (see `definite` module docs).
    ints: BTreeSet<String>,
    /// Array locals safe to track for lengths.
    arrays: BTreeSet<String>,
    /// Enclosing-class array fields with a single known constant
    /// length.
    field_lens: BTreeMap<String, i64>,
    /// Names that are params or locals (shadowing fields) — those never
    /// resolve to fields.
    non_field_names: BTreeSet<String>,
}

impl IntervalAnalysis {
    fn eval(&self, env: &Env, expr: &Expr) -> Interval {
        match &expr.kind {
            ExprKind::Int(v) => Interval::singleton(*v),
            ExprKind::Var(name) => {
                if self.ints.contains(name) {
                    env.vars.get(name).copied().unwrap_or(Interval::TOP)
                } else {
                    Interval::TOP
                }
            }
            ExprKind::Unary { op: UnOp::Neg, expr } => self.eval(env, expr).neg(),
            ExprKind::Binary { op, lhs, rhs } => {
                let (l, r) = (self.eval(env, lhs), self.eval(env, rhs));
                match op {
                    BinOp::Add => l.add(r),
                    BinOp::Sub => l.sub(r),
                    BinOp::Mul => l.mul(r),
                    BinOp::Div => l.div(r),
                    BinOp::Rem => l.rem(r),
                    _ => Interval::TOP,
                }
            }
            ExprKind::Length { array } => self.array_len(env, array).unwrap_or(Interval::TOP),
            _ => Interval::TOP,
        }
    }

    /// Length interval of an array expression, when tracked.
    fn array_len(&self, env: &Env, array: &Expr) -> Option<Interval> {
        match &array.kind {
            ExprKind::Var(name) => {
                if self.arrays.contains(name) {
                    env.lens.get(name).copied()
                } else if !self.non_field_names.contains(name) {
                    self.field_lens.get(name).map(|&l| Interval::singleton(l))
                } else {
                    None
                }
            }
            ExprKind::Field { object, name } if matches!(object.kind, ExprKind::This) => {
                self.field_lens.get(name).map(|&l| Interval::singleton(l))
            }
            _ => None,
        }
    }

    /// Narrows `env` by the truth (`taken`) of `cond`; returns `false`
    /// when the constraint is unsatisfiable (edge unreachable).
    fn refine(&self, env: &mut Env, cond: &Expr, taken: bool) -> bool {
        match &cond.kind {
            ExprKind::Bool(b) => *b == taken,
            ExprKind::Unary { op: UnOp::Not, expr } => self.refine(env, expr, !taken),
            ExprKind::Binary { op: BinOp::And, lhs, rhs } if taken => {
                self.refine(env, lhs, true) && self.refine(env, rhs, true)
            }
            ExprKind::Binary { op: BinOp::Or, lhs, rhs } if !taken => {
                self.refine(env, lhs, false) && self.refine(env, rhs, false)
            }
            ExprKind::Binary { op, lhs, rhs } if op.is_comparison() || op.is_equality() => {
                // Normalize to `x REL e` and `e REL x` and refine both
                // sides symmetrically.
                let op = if taken { *op } else { negate(*op) };
                self.refine_cmp(env, lhs, op, rhs) && self.refine_cmp(env, rhs, mirror(op), lhs)
            }
            _ => true,
        }
    }

    /// Refines the variable side of `var REL other`, if `var` is a
    /// trackable local.
    fn refine_cmp(&self, env: &mut Env, var: &Expr, op: BinOp, other: &Expr) -> bool {
        let ExprKind::Var(name) = &var.kind else { return true };
        if !self.ints.contains(name) {
            return true;
        }
        let o = self.eval(env, other);
        let cur = env.vars.get(name).copied().unwrap_or(Interval::TOP);
        // `x REL o` for the runtime value of `o` somewhere in its
        // interval: the sound constraint uses the permissive bound.
        let constraint = match op {
            BinOp::Lt => Interval::new(i64::MIN, o.hi.saturating_sub(1)),
            BinOp::Le => Interval::new(i64::MIN, o.hi),
            BinOp::Gt => Interval::new(o.lo.saturating_add(1), i64::MAX),
            BinOp::Ge => Interval::new(o.lo, i64::MAX),
            BinOp::Eq => o,
            // `x != o` only excludes a point when `o` is a singleton at
            // an end of `x`'s interval.
            BinOp::Ne => {
                if o.lo == o.hi {
                    if cur.lo == o.lo && cur.hi == o.lo {
                        return false; // x must equal o, contradiction
                    }
                    let lo = if cur.lo == o.lo { cur.lo.saturating_add(1) } else { cur.lo };
                    let hi = if cur.hi == o.lo { cur.hi.saturating_sub(1) } else { cur.hi };
                    Interval::new(lo, hi)
                } else {
                    Interval::TOP
                }
            }
            _ => Interval::TOP,
        };
        match cur.intersect(constraint) {
            Some(narrowed) => {
                env.vars.insert(name.clone(), narrowed);
                true
            }
            None => false,
        }
    }
}

/// `!(a REL b)` as a relation.
fn negate(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Ge,
        BinOp::Le => BinOp::Gt,
        BinOp::Gt => BinOp::Le,
        BinOp::Ge => BinOp::Lt,
        BinOp::Eq => BinOp::Ne,
        BinOp::Ne => BinOp::Eq,
        other => other,
    }
}

/// `a REL b` ⇔ `b MIRROR(REL) a`.
fn mirror(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

impl<'p> Analysis<'p> for IntervalAnalysis {
    type Fact = Fact;

    fn direction(&self) -> Direction {
        Direction::Forward
    }
    fn boundary(&self, _cfg: &Cfg<'p>) -> Fact {
        Fact::Env(Env::default())
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
                let mut changed = false;
                for map in [(&mut a.vars, &b.vars), (&mut a.lens, &b.lens)] {
                    let (am, bm) = map;
                    let keys: Vec<String> = am.keys().cloned().collect();
                    for k in keys {
                        match bm.get(&k) {
                            Some(bi) => {
                                let ai = am[&k];
                                let h = ai.hull(*bi);
                                if h != ai {
                                    am.insert(k, h);
                                    changed = true;
                                }
                            }
                            None => {
                                // Absent = TOP; the join is TOP.
                                am.remove(&k);
                                changed = true;
                            }
                        }
                    }
                }
                changed
            }
        }
    }
    fn transfer_instr(&self, fact: &mut Fact, instr: &Instr<'p>) {
        let Fact::Env(env) = fact else { return };
        match instr {
            Instr::Decl { name, ty, init, .. } => match ty {
                Type::Int if self.ints.contains(*name) => {
                    let iv = init.map(|e| self.eval(env, e));
                    match iv {
                        Some(iv) if iv != Interval::TOP => {
                            env.vars.insert((*name).to_string(), iv);
                        }
                        _ => {
                            env.vars.remove(*name);
                        }
                    }
                }
                Type::Array(_) if self.arrays.contains(*name) => {
                    let len = init.and_then(|e| self.new_array_len(env, e));
                    match len {
                        Some(l) => {
                            env.lens.insert((*name).to_string(), l);
                        }
                        None => {
                            env.lens.remove(*name);
                        }
                    }
                }
                _ => {}
            },
            Instr::Assign { target, op, value, .. } => {
                let ExprKind::Var(name) = &target.kind else { return };
                if self.ints.contains(name) {
                    let rhs = self.eval(env, value);
                    let cur = env.vars.get(name).copied().unwrap_or(Interval::TOP);
                    let new = match op {
                        AssignOp::Set => rhs,
                        AssignOp::Add => cur.add(rhs),
                        AssignOp::Sub => cur.sub(rhs),
                        AssignOp::Mul => cur.mul(rhs),
                        AssignOp::Div => cur.div(rhs),
                        AssignOp::Rem => cur.rem(rhs),
                    };
                    if new == Interval::TOP {
                        env.vars.remove(name);
                    } else {
                        env.vars.insert(name.clone(), new);
                    }
                } else if self.arrays.contains(name) {
                    let len = (*op == AssignOp::Set)
                        .then(|| self.new_array_len(env, value))
                        .flatten();
                    match len {
                        Some(l) => {
                            env.lens.insert(name.clone(), l);
                        }
                        None => {
                            env.lens.remove(name);
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
        let feasible = match fact {
            Fact::Unreachable => return,
            Fact::Env(env) => self.refine(env, cond, taken),
        };
        if !feasible {
            *fact = Fact::Unreachable;
        }
    }
    fn widen(&self, prev: &Fact, joined: &mut Fact) {
        let (Fact::Env(p), Fact::Env(j)) = (prev, joined) else { return };
        for (name, iv) in j.vars.iter_mut() {
            if let Some(pv) = p.vars.get(name) {
                *iv = iv.widen(*pv);
            }
        }
        for (name, iv) in j.lens.iter_mut() {
            if let Some(pv) = p.lens.get(name) {
                *iv = iv.widen(*pv);
            }
        }
    }
}

impl IntervalAnalysis {
    /// Length interval of a `new T[len]` expression, if that's what
    /// `expr` is.
    fn new_array_len(&self, env: &Env, expr: &Expr) -> Option<Interval> {
        if let ExprKind::NewArray { len, .. } = &expr.kind {
            let iv = self.eval(env, len);
            (iv != Interval::TOP).then_some(iv)
        } else {
            None
        }
    }
}

/// Assignments of one method that may store into an array field, each
/// with the constant length it stores (`None` unless it is a plain
/// `= new T[c]`). An unqualified `name = …` whose `name` is no
/// parameter or local may target field `name` of the enclosing class;
/// a `recv.name = …` may target any field called `name` (any receiver
/// in any class is taken as a potential alias, conservatively).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct LenWrites(Vec<(LenTarget, Option<i64>)>);

#[derive(Debug, Clone, PartialEq, Eq)]
enum LenTarget {
    /// `(enclosing class, name)` of an unqualified assignment.
    Same(String, String),
    /// The field name of a qualified assignment.
    Global(String),
}

impl LenWrites {
    /// The writes of `decl`, a constructor or method of `class`.
    pub(crate) fn of(class: &ClassDecl, decl: &MethodDecl) -> LenWrites {
        let mut shadow: BTreeSet<&str> = decl.params.iter().map(|p| p.name.as_str()).collect();
        walk_stmts(&decl.body, &mut |stmt| {
            if let StmtKind::VarDecl { name, .. } = &stmt.kind {
                shadow.insert(name.as_str());
            }
        });
        let mut writes = Vec::new();
        walk_stmts(&decl.body, &mut |stmt| {
            let StmtKind::Assign { target, op, value } = &stmt.kind else {
                return;
            };
            let len = const_new_array_len(value).filter(|_| *op == AssignOp::Set);
            match &target.kind {
                ExprKind::Var(n) if !shadow.contains(n.as_str()) => {
                    writes.push((LenTarget::Same(class.name.clone(), n.clone()), len));
                }
                ExprKind::Field { name, .. } => writes.push((LenTarget::Global(name.clone()), len)),
                _ => {}
            }
        });
        LenWrites(writes)
    }
}

/// How many writes store each constant length into one target, and how
/// many store anything else.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct LenAcc {
    poisoned: u32,
    lens: BTreeMap<i64, u32>,
}

/// Every method's [`LenWrites`], merged by target. Kept as counts, so a
/// re-parsed method's old writes come out and its new ones go in
/// without a rescan of the program; a whole-program build adds every
/// method's writes once (the per-class rescans of the old
/// `field_array_lengths` were quadratic in program size).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct FieldLenIndex {
    same: BTreeMap<(String, String), LenAcc>,
    global: BTreeMap<String, LenAcc>,
}

impl FieldLenIndex {
    /// Adds every method's writes.
    pub(crate) fn build(program: &Program) -> FieldLenIndex {
        let mut ix = FieldLenIndex::default();
        for c in &program.classes {
            for decl in c.ctors.iter().chain(&c.methods) {
                ix.add(&LenWrites::of(c, decl));
            }
        }
        ix
    }

    /// Counts one method's writes in.
    pub(crate) fn add(&mut self, writes: &LenWrites) {
        for (target, len) in &writes.0 {
            let acc = match target {
                LenTarget::Same(class, name) => {
                    self.same.entry((class.clone(), name.clone())).or_default()
                }
                LenTarget::Global(name) => self.global.entry(name.clone()).or_default(),
            };
            match len {
                Some(c) => *acc.lens.entry(*c).or_default() += 1,
                None => acc.poisoned += 1,
            }
        }
    }

    /// Counts one method's writes out again; targets no write reaches
    /// any more are dropped, so the index equals a fresh build.
    pub(crate) fn remove(&mut self, writes: &LenWrites) {
        fn uncount(acc: &mut LenAcc, len: Option<i64>) -> bool {
            match len {
                Some(c) => {
                    if let Some(n) = acc.lens.get_mut(&c) {
                        *n -= 1;
                        if *n == 0 {
                            acc.lens.remove(&c);
                        }
                    }
                }
                None => acc.poisoned -= 1,
            }
            acc.poisoned == 0 && acc.lens.is_empty()
        }
        for (target, len) in &writes.0 {
            match target {
                LenTarget::Same(class, name) => {
                    let key = (class.clone(), name.clone());
                    if self
                        .same
                        .get_mut(&key)
                        .is_some_and(|acc| uncount(acc, *len))
                    {
                        self.same.remove(&key);
                    }
                }
                LenTarget::Global(name) => {
                    if self
                        .global
                        .get_mut(name)
                        .is_some_and(|acc| uncount(acc, *len))
                    {
                        self.global.remove(name);
                    }
                }
            }
        }
    }

    /// Array fields of `class` with exactly one known constant length:
    /// private, and every assignment anywhere in the program that could
    /// target them is `new T[c]` for one constant `c`.
    pub(crate) fn lengths_for(&self, class: &ClassDecl) -> BTreeMap<String, i64> {
        let mut out = BTreeMap::new();
        for field in &class.fields {
            if field.modifiers.visibility != Visibility::Private
                || !matches!(field.ty, Type::Array(_))
            {
                continue;
            }
            let mut poisoned = false;
            let mut lens = BTreeSet::new();
            if let Some(init) = &field.init {
                match const_new_array_len(init) {
                    Some(c) => {
                        lens.insert(c);
                    }
                    None => poisoned = true,
                }
            }
            let same = self.same.get(&(class.name.clone(), field.name.clone()));
            let global = self.global.get(&field.name);
            for found in [same, global].into_iter().flatten() {
                poisoned |= found.poisoned > 0;
                lens.extend(found.lens.keys().copied());
            }
            if !poisoned && lens.len() == 1 {
                out.insert(field.name.clone(), *lens.iter().next().unwrap());
            }
        }
        out
    }
}

/// Convenience wrapper over [`FieldLenIndex`] for one class (tests and
/// single-class callers; program-wide callers build the index once).
#[cfg(test)]
pub(crate) fn field_array_lengths(program: &Program, class: &ClassDecl) -> BTreeMap<String, i64> {
    FieldLenIndex::build(program).lengths_for(class)
}

/// `Some(c)` when `expr` is `new T[c]` with a constant length.
fn const_new_array_len(expr: &Expr) -> Option<i64> {
    if let ExprKind::NewArray { len, .. } = &expr.kind {
        fold_const(len)
    } else {
        None
    }
}

/// Names assigned (or re-declared) anywhere inside a statement,
/// including nested loops and blocks.
fn assigned_names(stmt: &Stmt, out: &mut BTreeSet<String>) {
    let mut stack = vec![stmt];
    while let Some(s) = stack.pop() {
        match &s.kind {
            StmtKind::Assign { target, .. } => {
                if let ExprKind::Var(n) = &target.kind {
                    out.insert(n.clone());
                }
            }
            StmtKind::VarDecl { name, .. } => {
                out.insert(name.clone());
            }
            StmtKind::If { then_branch, else_branch, .. } => {
                stack.push(then_branch);
                if let Some(e) = else_branch {
                    stack.push(e);
                }
            }
            StmtKind::While { body, .. } | StmtKind::DoWhile { body, .. } => stack.push(body),
            StmtKind::For { init, update, body, .. } => {
                if let Some(i) = init {
                    stack.push(i);
                }
                if let Some(u) = update {
                    stack.push(u);
                }
                stack.push(body);
            }
            StmtKind::Block(b) => stack.extend(b.stmts.iter()),
            StmtKind::Expr(_) | StmtKind::Return(_) | StmtKind::Break | StmtKind::Continue => {}
        }
    }
}

/// True when `expr` only reads values that cannot change inside the
/// loop: constants, arithmetic, locals not in `mutated`, and lengths of
/// invariant arrays or fixed-length fields.
fn loop_invariant(analysis: &IntervalAnalysis, expr: &Expr, mutated: &BTreeSet<String>) -> bool {
    let mut ok = true;
    walk_expr(expr, &mut |e| match &e.kind {
        // Structural nodes are fine; their children are checked as they
        // are visited.
        ExprKind::Int(_)
        | ExprKind::Unary { .. }
        | ExprKind::Binary { .. }
        | ExprKind::Length { .. }
        | ExprKind::This => {}
        ExprKind::Var(name) => {
            if mutated.contains(name) {
                ok = false;
                return;
            }
            // A bare name is invariant if it is a tracked int local, a
            // tracked array local (consumed by a `Length` parent), or an
            // unshadowed fixed-length array field.
            let field_len_array = !analysis.non_field_names.contains(name)
                && analysis.field_lens.contains_key(name);
            if !analysis.ints.contains(name)
                && !analysis.arrays.contains(name)
                && !field_len_array
            {
                ok = false;
            }
        }
        // `this.f` is only invariant as a fixed-length array under
        // `Length`; mutable int fields can change via calls in the body.
        ExprKind::Field { object, name } => {
            if !(matches!(object.kind, ExprKind::This) && analysis.field_lens.contains_key(name)) {
                ok = false;
            }
        }
        _ => ok = false,
    });
    ok
}

/// Tries to prove a worst-case trip count for one lowered `for` loop
/// from the interval environment at loop entry.
fn prove_loop_bound(
    analysis: &IntervalAnalysis,
    shape: &LoopShape<'_>,
    entry_env: &Env,
) -> Option<u64> {
    let StmtKind::For { init, cond, update, body } = &shape.stmt.kind else {
        return None;
    };
    // Induction variable from the init statement.
    let var = match init.as_deref().map(|s| &s.kind) {
        Some(StmtKind::VarDecl { name, init: Some(_), .. }) => name,
        Some(StmtKind::Assign { target, op: AssignOp::Set, .. }) => match &target.kind {
            ExprKind::Var(n) => n,
            _ => return None,
        },
        _ => return None,
    };
    if !analysis.ints.contains(var) {
        return None;
    }
    // Condition `var REL limit` (or mirrored).
    let Some(Expr { kind: ExprKind::Binary { op, lhs, rhs }, .. }) = cond.as_ref() else {
        return None;
    };
    let (rel, limit) = match (&lhs.kind, &rhs.kind) {
        (ExprKind::Var(n), _) if n == var => (*op, rhs.as_ref()),
        (_, ExprKind::Var(n)) if n == var => (mirror(*op), lhs.as_ref()),
        _ => return None,
    };
    // Update `var += c` / `var -= c` with a positive constant step.
    let Some(StmtKind::Assign { target, op: upd_op, value }) = update.as_deref().map(|s| &s.kind)
    else {
        return None;
    };
    let (ExprKind::Var(n), Some(step)) = (&target.kind, fold_const(value)) else {
        return None;
    };
    if n != var || step <= 0 {
        return None;
    }
    // Direction agreement, and the induction variable / limit operands
    // must not change inside the loop.
    let mut mutated = BTreeSet::new();
    assigned_names(body, &mut mutated);
    if mutated.contains(var) {
        return None;
    }
    if !loop_invariant(analysis, limit, &mutated) {
        return None;
    }
    let start = entry_env.vars.get(var).copied().unwrap_or(Interval::TOP);
    let limit_iv = analysis.eval(entry_env, limit);
    let trips = match (upd_op, rel) {
        (AssignOp::Add, BinOp::Lt | BinOp::Le) => {
            if start.lo == i64::MIN || limit_iv.hi == i64::MAX {
                return None;
            }
            let span = (limit_iv.hi as i128) - (start.lo as i128);
            let extra = i128::from(rel == BinOp::Le);
            ceil_div(span + extra, step as i128)
        }
        (AssignOp::Sub, BinOp::Gt | BinOp::Ge) => {
            if start.hi == i64::MAX || limit_iv.lo == i64::MIN {
                return None;
            }
            let span = (start.hi as i128) - (limit_iv.lo as i128);
            let extra = i128::from(rel == BinOp::Ge);
            ceil_div(span + extra, step as i128)
        }
        _ => return None,
    };
    u64::try_from(trips.max(0)).ok()
}

fn ceil_div(a: i128, b: i128) -> i128 {
    debug_assert!(b > 0);
    if a <= 0 {
        0
    } else {
        (a + b - 1) / b
    }
}

/// Span- and id-free per-method result: proved loop bounds as
/// *statement pre-order indices* and out-of-bounds findings as
/// *expression pre-order indices* (see [`crate::fingerprint::NodeMap`]).
/// Cacheable across re-parses and rebased by [`materialize`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct IntervalCore {
    /// `(stmt index of the for statement, proved trip count)`.
    pub(crate) proved: Vec<(u32, u64)>,
    /// `(expr index of the access, index interval, known length)`.
    pub(crate) oob: Vec<(u32, Interval, Option<i64>)>,
    /// Accesses proved in-bounds.
    pub(crate) safe_indices: usize,
    /// Accesses inspected.
    pub(crate) checked_indices: usize,
    /// Worklist iterations spent on this method.
    pub(crate) iterations: u64,
}

/// Runs interval analysis over one method, producing the cacheable core
/// form. `field_lens` is the enclosing class's resolved
/// field-length map (from [`FieldLenIndex::lengths_for`]); it is part
/// of the query's cache key upstream.
pub(crate) fn analyze_method(
    program: &Program,
    table: &ClassTable,
    class: &ClassDecl,
    decl: &MethodDecl,
    mref: MethodRef,
    field_lens: &BTreeMap<String, i64>,
    map: &crate::fingerprint::NodeMap,
) -> IntervalCore {
    let g = cfg::build(class, decl, mref);
    let analysis = make_analysis(program, table, class, decl, field_lens.clone());
    let solution = dataflow::solve(&analysis, &g);
    let mut core = IntervalCore {
        iterations: solution.iterations,
        ..IntervalCore::default()
    };

    // Loop-bound proofs from the environment at loop entry (the
    // preheader's exit fact, i.e. just after the init statement).
    for shape in &g.loops {
        if let Fact::Env(env) = &solution.exit[shape.preheader] {
            if let Some(trips) = prove_loop_bound(&analysis, shape, env) {
                let idx = map
                    .stmt_index(shape.stmt.id)
                    .and_then(|i| u32::try_from(i).ok())
                    .expect("loop statement belongs to the method body");
                core.proved.push((idx, trips));
            }
        }
    }

    // Array-index verdicts by replaying block facts.
    for block in &g.blocks {
        let mut fact = solution.entry[block.id].clone();
        for instr in &block.instrs {
            if let Fact::Env(env) = &fact {
                let exprs: Vec<&Expr> = match instr {
                    Instr::Decl { init, .. } => init.iter().copied().collect(),
                    Instr::Assign { target, value, .. } => vec![target, value],
                    Instr::Eval(e) => vec![e],
                    Instr::Return { value, .. } => value.iter().copied().collect(),
                };
                for e in exprs {
                    check_indices(&analysis, env, e, map, &mut core);
                }
            }
            analysis.transfer_instr(&mut fact, instr);
        }
        if let (Fact::Env(env), Terminator::Branch { cond, .. }) = (&fact, &block.term) {
            check_indices(&analysis, env, cond, map, &mut core);
        }
    }
    core
}

/// Rebases a cached core onto the current parse's ids and spans.
pub(crate) fn materialize(
    core: &IntervalCore,
    map: &crate::fingerprint::NodeMap,
    mref: &MethodRef,
    report: &mut IntervalReport,
) {
    for (idx, trips) in &core.proved {
        let (id, _) = map.stmt(*idx as usize);
        report.proved_loop_bounds.insert(id, *trips);
    }
    for (idx, index, length) in &core.oob {
        let (_, span) = map.expr(*idx as usize);
        report.oob.push(OobFinding {
            span,
            method: mref.clone(),
            index: *index,
            length: *length,
        });
    }
    report.safe_indices += core.safe_indices;
    report.checked_indices += core.checked_indices;
}

/// Final deterministic ordering of a report assembled from per-method
/// pieces.
pub(crate) fn finish(report: &mut IntervalReport) {
    report.oob.sort_by_key(|o| (o.span.start, o.span.end));
    report.oob.dedup();
}

/// Runs interval analysis over every method.
pub fn analyze(program: &Program, table: &ClassTable) -> IntervalReport {
    let mut report = IntervalReport::default();
    let field_index = FieldLenIndex::build(program);
    let mut class_lens: BTreeMap<&str, BTreeMap<String, i64>> = BTreeMap::new();
    for (class, decl, mref) in crate::each_method(program) {
        let lens = class_lens
            .entry(class.name.as_str())
            .or_insert_with(|| field_index.lengths_for(class));
        let map = crate::fingerprint::NodeMap::build(decl);
        let core = analyze_method(program, table, class, decl, mref.clone(), lens, &map);
        report.solver_iterations += core.iterations;
        materialize(&core, &map, &mref, &mut report);
    }
    finish(&mut report);
    report
}

fn make_analysis(
    program: &Program,
    table: &ClassTable,
    class: &ClassDecl,
    decl: &MethodDecl,
    field_lens: BTreeMap<String, i64>,
) -> IntervalAnalysis {
    use crate::constprop::trackable_int_bool_locals;
    // Trackable ints reuse the constprop discipline (no field/param
    // collision, scalar declarations only) restricted to `int`.
    let mut ints = trackable_int_bool_locals(program, table, class, decl);
    // name → (declared as array, declared as int, declared as other).
    let mut decls: BTreeMap<&str, (bool, bool, bool)> = BTreeMap::new();
    walk_stmts(&decl.body, &mut |stmt| {
        if let StmtKind::VarDecl { name, ty, .. } = &stmt.kind {
            let slot = decls.entry(name.as_str()).or_insert((false, false, false));
            match ty {
                Type::Array(_) => slot.0 = true,
                Type::Int => slot.1 = true,
                _ => slot.2 = true,
            }
        }
    });
    ints.retain(|n| matches!(decls.get(n.as_str()), Some((false, true, false))));
    let fields = crate::definite::visible_fields(program, table, class);
    let arrays: BTreeSet<String> = decls
        .iter()
        .filter(|(name, kinds)| {
            // Array declarations only, never mixed with scalars.
            **kinds == (true, false, false)
                && !fields.contains(*name)
                && !decl.params.iter().any(|p| p.name == **name)
        })
        .map(|(n, _)| n.to_string())
        .collect();
    let mut non_field_names: BTreeSet<String> =
        decl.params.iter().map(|p| p.name.clone()).collect();
    walk_stmts(&decl.body, &mut |stmt| {
        if let StmtKind::VarDecl { name, .. } = &stmt.kind {
            non_field_names.insert(name.clone());
        }
    });
    IntervalAnalysis {
        ints,
        arrays,
        field_lens,
        non_field_names,
    }
}

/// Checks every `a[i]` inside `expr` against the current environment.
fn check_indices(
    analysis: &IntervalAnalysis,
    env: &Env,
    expr: &Expr,
    map: &crate::fingerprint::NodeMap,
    core: &mut IntervalCore,
) {
    walk_expr(expr, &mut |e| {
        let ExprKind::Index { array, index } = &e.kind else { return };
        core.checked_indices += 1;
        let idx = analysis.eval(env, index);
        let len = analysis.array_len(env, array);
        let const_len = len.and_then(|l| (l.lo == l.hi).then_some(l.lo));
        let at = map
            .expr_index(e.id)
            .and_then(|i| u32::try_from(i).ok())
            .expect("indexing expr belongs to the method body");
        if idx.hi < 0 {
            core.oob.push((at, idx, None));
        } else if let Some(l) = len {
            if idx.lo >= l.hi.max(0) {
                // Index ≥ every possible length: definite fault.
                core.oob.push((at, idx, const_len));
            } else if idx.lo >= 0 && idx.hi < l.lo {
                core.safe_indices += 1;
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend;

    fn run(src: &str) -> IntervalReport {
        let (p, t) = frontend(src).unwrap();
        analyze(&p, &t)
    }

    #[test]
    fn interval_arithmetic_saturates() {
        let big = Interval::singleton(i64::MAX / 2 + 1);
        let sum = big.add(big);
        assert_eq!(sum.hi, i64::MAX);
        let prod = Interval::new(2, 4).mul(Interval::new(-3, 5));
        assert_eq!((prod.lo, prod.hi), (-12, 20));
        assert_eq!(Interval::new(-7, 7).div(Interval::singleton(2)), Interval::new(-3, 3));
        assert_eq!(Interval::new(0, 100).rem(Interval::singleton(8)), Interval::new(0, 7));
    }

    #[test]
    fn constant_loop_bound_is_proved() {
        let r = run("class A { int m() {
            int s = 0;
            for (int i = 0; i < 10; i++) { s += i; }
            return s;
        } }");
        assert_eq!(r.proved_loop_bounds.values().copied().collect::<Vec<_>>(), [10]);
    }

    #[test]
    fn propagated_limit_is_proved() {
        // The syntactic heuristic in loops.rs cannot see through the
        // local `n`; intervals can.
        let r = run("class A { int m() {
            int n = 10;
            int s = 0;
            for (int i = 0; i < n; i++) { s += i; }
            return s;
        } }");
        assert_eq!(r.proved_loop_bounds.values().copied().collect::<Vec<_>>(), [10]);
    }

    #[test]
    fn clamped_input_limit_is_proved() {
        // n comes from an unknown input but is clamped by the branch.
        let r = run("class A extends ASR { public void run() {
            int n = read(0);
            if (n > 15) { n = 15; }
            int s = 0;
            for (int i = 0; i < n; i++) { s += i; }
            write(0, s);
        } }");
        assert_eq!(r.proved_loop_bounds.values().copied().collect::<Vec<_>>(), [15]);
    }

    #[test]
    fn unknown_limit_is_not_proved() {
        let r = run("class A extends ASR { public void run() {
            int n = read(0);
            int s = 0;
            for (int i = 0; i < n; i++) { s += i; }
            write(0, s);
        } }");
        assert!(r.proved_loop_bounds.is_empty());
    }

    #[test]
    fn limit_mutated_in_body_is_not_proved() {
        let r = run("class A { int m() {
            int n = 10;
            int s = 0;
            for (int i = 0; i < n; i++) { n += 1; }
            return s;
        } }");
        assert!(r.proved_loop_bounds.is_empty());
    }

    #[test]
    fn descending_loop_is_proved() {
        let r = run("class A { int m() {
            int s = 0;
            for (int i = 9; i > 0; i--) { s += i; }
            return s;
        } }");
        assert_eq!(r.proved_loop_bounds.values().copied().collect::<Vec<_>>(), [9]);
    }

    #[test]
    fn array_length_limit_is_proved() {
        let r = run("class A { int m() {
            int[] buf = new int[16];
            int s = 0;
            for (int i = 0; i < buf.length; i++) { s += buf[i]; }
            return s;
        } }");
        assert_eq!(r.proved_loop_bounds.values().copied().collect::<Vec<_>>(), [16]);
        assert_eq!(r.safe_indices, 1);
        assert!(r.oob.is_empty());
    }

    #[test]
    fn definite_oob_is_flagged() {
        let r = run("class A { int m() {
            int[] buf = new int[4];
            return buf[4];
        } }");
        assert_eq!(r.oob.len(), 1);
        assert_eq!(r.oob[0].index, Interval::singleton(4));
        assert_eq!(r.oob[0].length, Some(4));
    }

    #[test]
    fn negative_index_is_flagged_without_length() {
        let r = run("class A { int m(int[] buf) {
            return buf[0 - 1];
        } }");
        assert_eq!(r.oob.len(), 1);
        assert_eq!(r.oob[0].length, None);
    }

    #[test]
    fn possible_but_not_definite_oob_is_not_flagged() {
        // i ranges over [0, 4] at the access — only i == 4 faults, so
        // this is not a *definite* error and must not be reported.
        let r = run("class A { int m(int n) {
            int[] buf = new int[4];
            int s = 0;
            for (int i = 0; i <= 4; i++) { if (n > i) { s += buf[i]; } }
            return s;
        } }");
        assert!(r.oob.is_empty());
    }

    #[test]
    fn loop_body_access_is_proved_safe() {
        let r = run("class A { int m() {
            int[] buf = new int[8];
            int s = 0;
            for (int i = 0; i < 8; i++) { s += buf[i]; }
            return s;
        } }");
        assert_eq!(r.safe_indices, 1);
        assert!(r.oob.is_empty());
    }

    #[test]
    fn fir_descending_window_shift_is_safe() {
        let (p, t) = frontend(jtlang::corpus::FIR_FILTER).unwrap();
        let r = analyze(&p, &t);
        assert!(r.oob.is_empty(), "FIR must not be flagged: {:?}", r.oob);
        // window[i], window[i - 1], taps[i], window[i] (ascending loop)
        // are all provably in bounds against the private length-4 fields.
        assert!(r.safe_indices >= 4, "expected ≥4 safe indices, got {}", r.safe_indices);
        assert_eq!(r.proved_loop_bounds.len(), 2);
    }

    #[test]
    fn field_array_lengths_require_private_single_constant() {
        let (p, _) = frontend(
            "class A {
                private int[] fixed;
                private int[] varies;
                public int[] exposed;
                A(int n) {
                    fixed = new int[4];
                    varies = new int[n];
                    exposed = new int[4];
                }
            }",
        )
        .unwrap();
        let lens = field_array_lengths(&p, &p.classes[0]);
        assert_eq!(lens.get("fixed"), Some(&4));
        assert_eq!(lens.get("varies"), None);
        assert_eq!(lens.get("exposed"), None);
    }

    #[test]
    fn widening_terminates_on_unbounded_growth() {
        let r = run("class A { int m(int n) {
            int x = 0;
            while (n > 0) { x += 1; n -= 1; }
            return x;
        } }");
        // No proof expected; the point is termination.
        assert!(r.proved_loop_bounds.is_empty());
    }
}
