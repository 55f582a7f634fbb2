//! Flow-insensitive, field-sensitive, k-object-sensitive points-to
//! analysis.
//!
//! The interprocedural summary engine ([`crate::summary`]) and the
//! alias-aware race tier ([`crate::races`]) need one whole-program fact:
//! *which abstract objects can this expression denote?* This module
//! computes it Andersen-style — a global subset-constraint fixpoint with
//! field sensitivity and **k-limited object sensitivity**: every method
//! is analyzed once per abstract receiver object, and every allocation
//! site is cloned per *heap context* — the k-truncated allocation-site
//! string of its receiver. At `k = 0` there is a single empty context
//! and the analysis reproduces the classic context-insensitive relation
//! exactly; [`DEFAULT_K`] is 1, which distinguishes the objects a
//! factory or builder hands to two different callers.
//!
//! Abstract objects ([`ObjInfo`]) come in three kinds:
//!
//! * [`ObjKind::Alloc`] — an in-program `new` expression (object or
//!   array), one abstract object per allocation site *per heap
//!   context*;
//! * [`ObjKind::Builtin`] — the result of a builtin call returning a
//!   reference (e.g. `readVec`), treated as a fresh object per call
//!   site per heap context;
//! * [`ObjKind::Summary`] — a per-class stand-in for instances created
//!   *outside* the analyzed program: classes with no in-program
//!   allocation site, and reference parameters of methods no analyzed
//!   code calls (their arguments come from an unknown external caller,
//!   which may alias them arbitrarily — all such arguments share the one
//!   summary object, the conservative choice).
//!
//! Every object carries a **fingerprint-stable site id** ([`ObjInfo::site`],
//! the walk-order ordinal of the allocation within its method, hashed
//! with the method's name — *not* a node id), so the incremental
//! database can cache a solved relation and rebase it onto a
//! structurally identical revision whose spans moved.
//!
//! The heap maps `(object, field)` to a set of objects; array elements
//! use the pseudo-field [`ELEMS`]. Solving repeats three passes — a
//! *materialize* pass cloning allocation sites into the contexts that
//! reach them, a *link* pass flowing call arguments into per-receiver
//! callee parameters, and a *store* pass flowing assignments into
//! variables, fields, and returns — until nothing changes or
//! [`MAX_PASSES`] is hit. There is one such loop: [`analyze_k`] runs it
//! from the empty relation over every method, and the delta solver
//! runs it over the methods an edit taints. [`PointsTo::eval`] is pure,
//! projects the per-context solution over all receiver contexts of the
//! asking method, and can be re-applied to any expression after
//! solving. [`PointsTo::check_post_fixpoint`] checks a solved relation
//! independently of how it was solved.

use crate::fingerprint::{self, Fp};
use crate::MethodRef;
use jtlang::ast::{
    walk_expr, walk_exprs, walk_stmts, ClassDecl, Expr, ExprKind, MethodDecl, NodeId, Program,
    StmtKind, Type,
};
use jtlang::resolve::ClassTable;
use jtlang::token::Span;
use jtlang::types::type_of_expr;
use std::collections::{BTreeMap, BTreeSet};

/// Pseudo-field under which an array object's elements are stored.
pub const ELEMS: &str = "[]";

/// Cap on global fixpoint passes; reaching it leaves the solution an
/// under-approximation, which [`PointsTo::converged`] reports.
pub const MAX_PASSES: usize = 64;

/// Context depth used by [`analyze`]: one level of object sensitivity.
pub const DEFAULT_K: usize = 1;

/// Index of an abstract object within one [`PointsTo`] result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ObjId(pub usize);

/// Provenance of an abstract object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjKind {
    /// An in-program `new` expression, by its node id.
    Alloc(NodeId),
    /// The reference result of a builtin call (`readVec`), by the call
    /// expression's node id.
    Builtin(NodeId),
    /// The per-class summary object for externally created instances.
    Summary,
}

/// One abstract object: an allocation site paired with a heap context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjInfo {
    /// The object's id.
    pub id: ObjId,
    /// Provenance.
    pub kind: ObjKind,
    /// Class name, or a type rendering such as `int[]` for arrays.
    pub class: String,
    /// Span of the creating expression (default for summary objects).
    pub span: Span,
    /// Method whose body creates the object; `None` for summary objects
    /// (field initializers are attributed to the declaring class's
    /// constructor).
    pub method: Option<MethodRef>,
    /// Fingerprint-stable allocation-site id: hash of the owning
    /// method's name and the site's walk-order ordinal — *not* a node
    /// id, so it survives span-only edits across revisions.
    pub site: Fp,
    /// Heap context: the k-truncated allocation-site string of the
    /// receiver this clone was materialized under (empty at `k = 0`).
    pub ctx: Vec<Fp>,
}

/// Method analysis context: the abstract receiver, or `None` for the
/// single "any receiver" context of a `k = 0` analysis.
pub(crate) type MCtx = Option<ObjId>;

/// A points-to variable: a local/parameter of a method analyzed under
/// one receiver context, or such a method's return value.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum VarKey {
    Local(MethodRef, MCtx, String),
    Ret(MethodRef, MCtx),
}

/// Outcome of [`PointsTo::retract_methods`]: how many derived facts
/// were removed, and which *surviving* constraints lost members — the
/// delta solver ([`crate::ptdelta`]) folds those back into its taint
/// set so every method whose retained facts were pruned is re-derived.
#[derive(Debug, Clone, Default)]
pub(crate) struct Retraction {
    /// Var/heap set members removed (the "constraints retracted" count).
    pub(crate) facts_removed: u64,
    /// Methods whose surviving variable sets lost an object.
    pub(crate) implicated_methods: BTreeSet<MethodRef>,
    /// Field names whose surviving heap slots lost an object.
    pub(crate) implicated_fields: BTreeSet<String>,
}

/// One allocation or builtin-result site, in body walk order.
#[derive(Debug, Clone)]
pub(crate) struct Site {
    fp: Fp,
    expr_id: NodeId,
    span: Span,
    class: String,
    is_builtin: bool,
    /// Method whose body (or field initializer, attributed to the
    /// constructor) contains the site — also the context source.
    method: MethodRef,
}

/// Result of [`analyze`]: the whole-program points-to relation.
#[derive(Debug, Clone, Default)]
pub struct PointsTo {
    pub(crate) k: usize,
    pub(crate) objs: Vec<ObjInfo>,
    /// `new` / builtin-call expression id → its clones (one per heap
    /// context the site was materialized under).
    pub(crate) site_of_expr: BTreeMap<NodeId, BTreeSet<ObjId>>,
    /// Site expression id → its fingerprint-stable site id.
    pub(crate) site_fp_of_expr: BTreeMap<NodeId, Fp>,
    /// `(site fp, heap context)` → the materialized clone.
    pub(crate) clone_of: BTreeMap<(Fp, Vec<Fp>), ObjId>,
    /// Class name → its summary object (created on demand).
    pub(crate) summary_of_class: BTreeMap<String, ObjId>,
    pub(crate) vars: BTreeMap<VarKey, BTreeSet<ObjId>>,
    pub(crate) heap: BTreeMap<(ObjId, String), BTreeSet<ObjId>>,
    /// Class name → objects that `this` may be inside that class's
    /// methods (every object instance-of the class).
    pub(crate) this_of_class: BTreeMap<String, BTreeSet<ObjId>>,
    /// Method → names of its parameters and declared locals.
    pub(crate) locals: BTreeMap<MethodRef, BTreeSet<String>>,
    /// Reverse heap: object → objects holding a reference to it.
    pub(crate) owners: Vec<BTreeSet<ObjId>>,
    pub(crate) passes: usize,
    pub(crate) converged: bool,
}

impl PointsTo {
    /// The context depth this relation was solved at.
    pub fn k(&self) -> usize {
        self.k
    }

    /// All abstract objects, in creation order.
    pub fn objects(&self) -> impl Iterator<Item = &ObjInfo> {
        self.objs.iter()
    }

    /// Looks up one object.
    pub fn object(&self, o: ObjId) -> &ObjInfo {
        &self.objs[o.0]
    }

    /// Number of abstract objects.
    pub fn object_count(&self) -> usize {
        self.objs.len()
    }

    /// Global fixpoint passes performed by the last solve (0 when the
    /// relation was only rebased onto this revision).
    pub fn passes(&self) -> usize {
        self.passes
    }

    /// False when [`MAX_PASSES`] was exhausted before stability.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Every object that may be `this` inside methods declared by
    /// `class` — all instances of the class or a subclass.
    pub fn instances_of(&self, class: &str) -> BTreeSet<ObjId> {
        self.this_of_class.get(class).cloned().unwrap_or_default()
    }

    /// The objects `o`'s `field` may reference.
    pub fn field_targets(&self, o: ObjId, field: &str) -> BTreeSet<ObjId> {
        self.heap
            .get(&(o, field.to_string()))
            .cloned()
            .unwrap_or_default()
    }

    /// Objects holding a direct reference to `o` in some field or array
    /// slot.
    pub fn owners_of(&self, o: ObjId) -> &BTreeSet<ObjId> {
        &self.owners[o.0]
    }

    /// All objects reachable from `o` through the heap, inclusive.
    pub fn reachable(&self, o: ObjId) -> BTreeSet<ObjId> {
        let mut seen = BTreeSet::new();
        let mut stack = vec![o];
        while let Some(x) = stack.pop() {
            if !seen.insert(x) {
                continue;
            }
            for ((base, _), targets) in &self.heap {
                if *base == x {
                    stack.extend(targets.iter().filter(|t| !seen.contains(t)));
                }
            }
        }
        seen
    }

    /// A field-labeled heap path from `from` to `to`, if one exists:
    /// each step is `(field, next object)` starting at `from`. Used to
    /// render machine-checkable alias witnesses; `Some(vec![])` when
    /// `from == to`.
    pub fn witness_path(&self, from: ObjId, to: ObjId) -> Option<Vec<(String, ObjId)>> {
        if from == to {
            return Some(Vec::new());
        }
        let mut parent: BTreeMap<ObjId, (ObjId, String)> = BTreeMap::new();
        let mut queue = std::collections::VecDeque::from([from]);
        let mut seen = BTreeSet::from([from]);
        while let Some(x) = queue.pop_front() {
            for ((base, field), targets) in &self.heap {
                if *base != x {
                    continue;
                }
                for &t in targets {
                    if seen.insert(t) {
                        parent.insert(t, (x, field.clone()));
                        if t == to {
                            let mut path = Vec::new();
                            let mut cur = to;
                            while cur != from {
                                let (prev, field) = parent[&cur].clone();
                                path.push((field, cur));
                                cur = prev;
                            }
                            path.reverse();
                            return Some(path);
                        }
                        queue.push_back(t);
                    }
                }
            }
        }
        None
    }

    /// The receiver contexts method `mref` is analyzed under.
    fn ctxs_of(&self, mref: &MethodRef) -> Vec<MCtx> {
        if self.k == 0 {
            vec![None]
        } else {
            self.instances_of(&mref.class).into_iter().map(Some).collect()
        }
    }

    /// The objects `this` may denote in `mref` under context `ctx`.
    fn this_set(&self, mref: &MethodRef, ctx: MCtx) -> BTreeSet<ObjId> {
        match ctx {
            Some(o) => BTreeSet::from([o]),
            None => self.instances_of(&mref.class),
        }
    }

    /// The heap context a site materializes under when its method runs
    /// with receiver context `ctx`: the receiver's own site prepended
    /// to the receiver's context, truncated to k.
    fn heap_ctx(&self, ctx: MCtx) -> Vec<Fp> {
        match ctx {
            None => Vec::new(),
            Some(r) => {
                let info = &self.objs[r.0];
                let mut s = Vec::with_capacity(self.k);
                s.push(info.site);
                s.extend(info.ctx.iter().copied());
                s.truncate(self.k);
                s
            }
        }
    }

    /// The return set of `callee` as seen from a call with receiver
    /// object set `recv` (empty = unknown receiver: union over every
    /// context, the conservative fallback).
    fn ret_of(&self, callee: &MethodRef, recv: &BTreeSet<ObjId>) -> BTreeSet<ObjId> {
        if self.k == 0 {
            return self
                .vars
                .get(&VarKey::Ret(callee.clone(), None))
                .cloned()
                .unwrap_or_default();
        }
        let mut out = BTreeSet::new();
        if recv.is_empty() {
            for o in self.instances_of(&callee.class) {
                if let Some(s) = self.vars.get(&VarKey::Ret(callee.clone(), Some(o))) {
                    out.extend(s.iter().copied());
                }
            }
        } else {
            for &o in recv {
                if let Some(s) = self.vars.get(&VarKey::Ret(callee.clone(), Some(o))) {
                    out.extend(s.iter().copied());
                }
            }
        }
        out
    }

    /// The objects `expr` may denote when evaluated inside `mref` under
    /// receiver context `ctx`. Non-reference expressions denote the
    /// empty set.
    fn eval_in(
        &self,
        program: &Program,
        table: &ClassTable,
        mref: &MethodRef,
        ctx: MCtx,
        expr: &Expr,
    ) -> BTreeSet<ObjId> {
        match &expr.kind {
            ExprKind::This => self.this_set(mref, ctx),
            ExprKind::Var(name) => {
                if self
                    .locals
                    .get(mref)
                    .is_some_and(|ls| ls.contains(name.as_str()))
                {
                    self.vars
                        .get(&VarKey::Local(mref.clone(), ctx, name.clone()))
                        .cloned()
                        .unwrap_or_default()
                } else {
                    // Implicit-this field read.
                    let mut out = BTreeSet::new();
                    for o in self.this_set(mref, ctx) {
                        out.extend(self.field_targets(o, name));
                    }
                    out
                }
            }
            ExprKind::Field { object, name } => {
                let mut out = BTreeSet::new();
                for o in self.eval_in(program, table, mref, ctx, object) {
                    out.extend(self.field_targets(o, name));
                }
                out
            }
            ExprKind::Index { array, .. } => {
                let mut out = BTreeSet::new();
                for o in self.eval_in(program, table, mref, ctx, array) {
                    out.extend(self.field_targets(o, ELEMS));
                }
                out
            }
            ExprKind::Call {
                receiver, method, ..
            } => match resolve_call(program, table, mref, receiver.as_deref(), method) {
                Some(CallTarget::User(callee)) => {
                    let recv = if self.k == 0 {
                        BTreeSet::new()
                    } else {
                        match receiver.as_deref() {
                            Some(r) => self.eval_in(program, table, mref, ctx, r),
                            None => self.this_set(mref, ctx),
                        }
                    };
                    self.ret_of(&callee, &recv)
                }
                Some(CallTarget::Builtin(..)) => self.clone_at(expr.id, ctx),
                None => BTreeSet::new(),
            },
            ExprKind::NewObject { .. } | ExprKind::NewArray { .. } => self.clone_at(expr.id, ctx),
            _ => BTreeSet::new(),
        }
    }

    /// The clone of site expression `id` materialized for context
    /// `ctx`, if it exists yet.
    fn clone_at(&self, id: NodeId, ctx: MCtx) -> BTreeSet<ObjId> {
        let Some(&fp) = self.site_fp_of_expr.get(&id) else {
            return BTreeSet::new();
        };
        let hctx = self.heap_ctx(ctx);
        self.clone_of
            .get(&(fp, hctx))
            .map(|&o| BTreeSet::from([o]))
            .unwrap_or_default()
    }

    /// The objects `expr` may denote when evaluated inside `mref`,
    /// projected over every receiver context of the method.
    /// Non-reference expressions denote the empty set.
    pub fn eval(
        &self,
        program: &Program,
        table: &ClassTable,
        mref: &MethodRef,
        expr: &Expr,
    ) -> BTreeSet<ObjId> {
        let mut out = BTreeSet::new();
        for ctx in self.ctxs_of(mref) {
            out.extend(self.eval_in(program, table, mref, ctx, expr));
        }
        out
    }

    /// Rebases a cached relation onto a structurally identical program
    /// whose spans (and therefore node ids) may have moved: every
    /// alloc/builtin object is re-keyed from its fingerprint-stable
    /// site id to the revision's node id and span, given the
    /// revision's [`collect_sites`]. Returns `false` — caller must
    /// recompute — if any site no longer exists. No pass has run on
    /// the revision yet, so [`Self::passes`] reads 0.
    pub(crate) fn rebase(&mut self, sites: &[Site]) -> bool {
        self.passes = 0;
        let by_fp: BTreeMap<Fp, &Site> = sites.iter().map(|s| (s.fp, s)).collect();
        if by_fp.len() != sites.len() {
            return false;
        }
        for obj in &mut self.objs {
            match obj.kind {
                ObjKind::Alloc(_) | ObjKind::Builtin(_) => {
                    let Some(site) = by_fp.get(&obj.site) else {
                        return false;
                    };
                    obj.kind = if site.is_builtin {
                        ObjKind::Builtin(site.expr_id)
                    } else {
                        ObjKind::Alloc(site.expr_id)
                    };
                    obj.span = site.span;
                }
                ObjKind::Summary => {}
            }
        }
        self.site_fp_of_expr = sites.iter().map(|s| (s.expr_id, s.fp)).collect();
        let mut by_site: BTreeMap<Fp, BTreeSet<ObjId>> = BTreeMap::new();
        for obj in &self.objs {
            if !matches!(obj.kind, ObjKind::Summary) {
                by_site.entry(obj.site).or_default().insert(obj.id);
            }
        }
        self.site_of_expr = sites
            .iter()
            .filter_map(|s| Some((s.expr_id, by_site.get(&s.fp)?.clone())))
            .collect();
        true
    }

    /// Renumbers objects so that `order[new] = old`: objects not listed
    /// are dropped, and every id-bearing structure is rewritten. Var and
    /// heap sets that become empty are removed (the solver never stores
    /// empty sets, so this keeps delta-solved relations structurally
    /// identical to cold ones).
    fn renumber(&mut self, order: &[usize]) {
        let mut remap: Vec<Option<ObjId>> = vec![None; self.objs.len()];
        for (new, &old) in order.iter().enumerate() {
            remap[old] = Some(ObjId(new));
        }
        let map_set = |s: &BTreeSet<ObjId>| -> BTreeSet<ObjId> {
            s.iter().filter_map(|&o| remap[o.0]).collect()
        };
        self.objs = order
            .iter()
            .enumerate()
            .map(|(new, &old)| {
                let mut info = self.objs[old].clone();
                info.id = ObjId(new);
                info
            })
            .collect();
        self.site_of_expr = std::mem::take(&mut self.site_of_expr)
            .into_iter()
            .map(|(k, v)| (k, map_set(&v)))
            .filter(|(_, v)| !v.is_empty())
            .collect();
        self.clone_of = std::mem::take(&mut self.clone_of)
            .into_iter()
            .filter_map(|(k, v)| Some((k, remap[v.0]?)))
            .collect();
        self.summary_of_class = std::mem::take(&mut self.summary_of_class)
            .into_iter()
            .filter_map(|(k, v)| Some((k, remap[v.0]?)))
            .collect();
        self.vars = std::mem::take(&mut self.vars)
            .into_iter()
            .filter_map(|(key, set)| {
                let key = match key {
                    VarKey::Local(m, Some(o), n) => VarKey::Local(m, Some(remap[o.0]?), n),
                    VarKey::Ret(m, Some(o)) => VarKey::Ret(m, Some(remap[o.0]?)),
                    other => other,
                };
                let set = map_set(&set);
                (!set.is_empty()).then_some((key, set))
            })
            .collect();
        self.heap = std::mem::take(&mut self.heap)
            .into_iter()
            .filter_map(|((base, field), set)| {
                let set = map_set(&set);
                (!set.is_empty()).then_some(((remap[base.0]?, field), set))
            })
            .collect();
        for set in self.this_of_class.values_mut() {
            *set = map_set(set);
        }
        self.rebuild_owners();
    }

    /// Recomputes the reverse-heap owner index from the heap.
    fn rebuild_owners(&mut self) {
        self.owners = vec![BTreeSet::new(); self.objs.len()];
        let heap = std::mem::take(&mut self.heap);
        for ((base, _), targets) in &heap {
            for t in targets {
                self.owners[t.0].insert(*base);
            }
        }
        self.heap = heap;
    }

    /// Renumbers objects into the canonical order: ascending by
    /// `(site, ctx)`, which is unique per object. Cold solves and delta
    /// re-solves materialize clones in different orders; canonical ids
    /// make the two relations directly comparable ([`Self::same_relation`])
    /// and give [`Self::relation_fp`] a stable digest.
    pub(crate) fn canonicalize(&mut self) {
        let mut order: Vec<usize> = (0..self.objs.len()).collect();
        order.sort_by(|&a, &b| {
            (self.objs[a].site, &self.objs[a].ctx).cmp(&(self.objs[b].site, &self.objs[b].ctx))
        });
        if order.iter().enumerate().all(|(new, &old)| new == old) {
            return;
        }
        self.renumber(&order);
    }

    /// Retracts every derived fact owned by `gone`: their local/return
    /// variables, the objects their bodies (or attributed field
    /// initializers) allocate, all heap slots of those objects, and
    /// every occurrence of those objects in surviving sets. Object ids
    /// are compacted afterwards; callers re-derive the retracted
    /// methods with [`Self::solve`].
    pub(crate) fn retract_methods(&mut self, gone: &BTreeSet<MethodRef>) -> Retraction {
        let deleted: BTreeSet<ObjId> = self
            .objs
            .iter()
            .filter(|o| o.method.as_ref().is_some_and(|m| gone.contains(m)))
            .map(|o| o.id)
            .collect();
        self.retract_objects(&deleted, gone)
    }

    /// Deletes the summary objects of `classes` (created on demand for
    /// parameter classes of uncalled methods — an uncalled→called flip
    /// makes them stale) and every fact mentioning them.
    pub(crate) fn retract_summaries(&mut self, classes: &BTreeSet<String>) -> Retraction {
        let deleted: BTreeSet<ObjId> = classes
            .iter()
            .filter_map(|c| self.summary_of_class.get(c).copied())
            .collect();
        self.retract_objects(&deleted, &BTreeSet::new())
    }

    fn retract_objects(&mut self, deleted: &BTreeSet<ObjId>, gone: &BTreeSet<MethodRef>) -> Retraction {
        let mut out = Retraction::default();
        // Whole entries owned by a retracted method or keyed by a
        // deleted receiver context.
        self.vars.retain(|key, set| {
            let (m, ctx) = match key {
                VarKey::Local(m, c, _) => (m, c),
                VarKey::Ret(m, c) => (m, c),
            };
            let dead = gone.contains(m) || ctx.is_some_and(|o| deleted.contains(&o));
            if dead {
                out.facts_removed += set.len() as u64;
            }
            !dead
        });
        // Prune deleted objects from surviving variable sets; the
        // owning methods must re-derive (their remaining facts may
        // depend on flows through the deleted objects).
        for (key, set) in self.vars.iter_mut() {
            let before = set.len();
            set.retain(|o| !deleted.contains(o));
            if set.len() != before {
                out.facts_removed += (before - set.len()) as u64;
                let (VarKey::Local(m, ..) | VarKey::Ret(m, _)) = key;
                out.implicated_methods.insert(m.clone());
            }
        }
        self.vars.retain(|_, s| !s.is_empty());
        self.heap.retain(|(base, _), set| {
            let dead = deleted.contains(base);
            if dead {
                out.facts_removed += set.len() as u64;
            }
            !dead
        });
        for ((_, field), set) in self.heap.iter_mut() {
            let before = set.len();
            set.retain(|o| !deleted.contains(o));
            if set.len() != before {
                out.facts_removed += (before - set.len()) as u64;
                out.implicated_fields.insert(field.clone());
            }
        }
        self.heap.retain(|_, s| !s.is_empty());
        for set in self.this_of_class.values_mut() {
            set.retain(|o| !deleted.contains(o));
        }
        let keep: Vec<usize> = (0..self.objs.len())
            .filter(|i| !deleted.contains(&ObjId(*i)))
            .collect();
        self.renumber(&keep);
        out
    }

    /// Removes every heap fact stored under one of `fields`, returning
    /// the member count removed. Heap facts are not attributed to the
    /// method that derived them, so the delta solver clears all slots
    /// of every field a tainted method touches and re-derives them
    /// from the (transitively tainted) set of methods touching those
    /// fields.
    pub(crate) fn retract_fields(&mut self, fields: &BTreeSet<String>) -> u64 {
        let mut removed = 0u64;
        self.heap.retain(|(_, field), set| {
            let dead = fields.contains(field);
            if dead {
                removed += set.len() as u64;
            }
            !dead
        });
        removed
    }

    /// The one propagation loop: runs the constraint fixpoint over the
    /// `active` methods (`None`: every method, including the synthetic
    /// constructor that field initializers of a class without one are
    /// attributed to) against a relation keyed to `program` — rebased,
    /// or empty with its site ids set. Only active sites materialize,
    /// only active bodies flow, and only field initializers of classes
    /// whose constructor is active re-seed. Facts of inactive methods
    /// are retained as-is — the caller's taint closure guarantees no
    /// inactive method can read a changed fact. Counts its passes from
    /// 0 in [`Self::passes`] and returns the convergence flag (false ⇒
    /// the caller must solve from the empty relation).
    pub(crate) fn solve(
        &mut self,
        program: &Program,
        table: &ClassTable,
        sites: &[Site],
        active: Option<&BTreeSet<MethodRef>>,
        uncalled: &BTreeSet<MethodRef>,
    ) -> bool {
        self.locals.clear();
        collect_locals(program, self);
        let sites: Vec<&Site> = sites
            .iter()
            .filter(|s| active.is_none_or(|a| a.contains(&s.method)))
            .collect();
        self.passes = 0;
        self.converged = false;
        for _ in 0..MAX_PASSES {
            self.passes += 1;
            if !self.round(program, table, &sites, active, uncalled) {
                self.converged = true;
                break;
            }
        }
        self.canonicalize();
        self.rebuild_owners();
        self.converged
    }

    /// One round of every pass over the `active` methods: true when a
    /// set grew or an object was created.
    fn round(
        &mut self,
        program: &Program,
        table: &ClassTable,
        sites: &[&Site],
        active: Option<&BTreeSet<MethodRef>>,
        uncalled: &BTreeSet<MethodRef>,
    ) -> bool {
        let mut changed = materialize_pass(sites, program, table, self);
        changed |= seed_external_params(program, table, uncalled, active, self);
        for (_, decl, mref) in crate::each_method(program) {
            if active.is_some_and(|a| !a.contains(&mref)) {
                continue;
            }
            for ctx in self.ctxs_of(&mref) {
                changed |= link_pass(program, table, self, decl, &mref, ctx);
                changed |= store_pass(program, table, self, decl, &mref, ctx);
            }
        }
        changed | init_pass_for(program, table, self, active)
    }

    /// Certificate check, independent of how the relation was solved:
    /// one more round of the passes over every method of `program` (the
    /// revision the relation is keyed to), on a copy, must derive
    /// nothing. Passing shows every constraint holds in the relation (a
    /// post-fixpoint, so it over-approximates the least solution); it
    /// does not show the relation is the least one — that still takes a
    /// comparison with [`analyze_k`].
    ///
    /// # Errors
    ///
    /// Names the growth when the round grew a set or created an object.
    pub fn check_post_fixpoint(&self, program: &Program, table: &ClassTable) -> Result<(), String> {
        let sites = collect_sites(program, table);
        let all: Vec<&Site> = sites.iter().collect();
        let uncalled = uncalled_methods(program, table);
        let mut copy = self.clone();
        if copy.round(program, table, &all, None, &uncalled) {
            let (objs, facts) = (copy.objs.len(), copy.fact_pairs());
            return Err(format!(
                "one more round grew the relation to {objs} objects, {facts} facts"
            ));
        }
        Ok(())
    }

    /// Total derived facts: var-set plus heap-set members.
    pub(crate) fn fact_pairs(&self) -> u64 {
        self.vars.values().map(|s| s.len() as u64).sum::<u64>()
            + self.heap.values().map(|s| s.len() as u64).sum::<u64>()
    }

    /// Span-free digest of the canonical relation. Two relations with
    /// equal digests are semantically identical (modulo hash
    /// collisions); the demand layer keys per-field and per-block
    /// queries on it for early cutoff. Only meaningful after
    /// [`Self::canonicalize`] — every solve path ends with it.
    pub(crate) fn relation_fp(&self) -> Fp {
        let mut h = fingerprint::StructHasher::new();
        h.u64(self.k as u64);
        h.bool(self.converged);
        h.u64(self.objs.len() as u64);
        for o in &self.objs {
            h.u64(o.site.0);
            h.u64(o.ctx.len() as u64);
            for c in &o.ctx {
                h.u64(c.0);
            }
            h.str(&o.class);
            h.tag(match o.kind {
                ObjKind::Alloc(_) => 0,
                ObjKind::Builtin(_) => 1,
                ObjKind::Summary => 2,
            });
        }
        let hash_var_key = |h: &mut fingerprint::StructHasher, key: &VarKey| {
            let (tag, m, ctx, name) = match key {
                VarKey::Local(m, c, n) => (0u8, m, c, n.as_str()),
                VarKey::Ret(m, c) => (1u8, m, c, ""),
            };
            h.tag(tag);
            h.str(&m.class);
            h.str(&m.method);
            h.bool(m.is_ctor);
            match ctx {
                None => h.tag(0),
                Some(o) => {
                    h.tag(1);
                    h.u64(o.0 as u64);
                }
            }
            h.str(name);
        };
        let hash_set = |h: &mut fingerprint::StructHasher, set: &BTreeSet<ObjId>| {
            h.u64(set.len() as u64);
            for o in set {
                h.u64(o.0 as u64);
            }
        };
        h.u64(self.vars.len() as u64);
        for (key, set) in &self.vars {
            hash_var_key(&mut h, key);
            hash_set(&mut h, set);
        }
        h.u64(self.heap.len() as u64);
        for ((base, field), set) in &self.heap {
            h.u64(base.0 as u64);
            h.str(field);
            hash_set(&mut h, set);
        }
        h.u64(self.this_of_class.len() as u64);
        for (class, set) in &self.this_of_class {
            h.str(class);
            hash_set(&mut h, set);
        }
        h.finish()
    }

    /// True when two canonicalized relations are semantically equal:
    /// same objects (by site, context, class, and kind — spans and node
    /// ids excluded), same variable/heap/this sets. The delta-vs-batch
    /// tests use this as the correctness bar.
    pub fn same_relation(&self, other: &PointsTo) -> bool {
        let kind_tag = |k: ObjKind| match k {
            ObjKind::Alloc(_) => 0u8,
            ObjKind::Builtin(_) => 1,
            ObjKind::Summary => 2,
        };
        self.k == other.k
            && self.converged == other.converged
            && self.objs.len() == other.objs.len()
            && self.objs.iter().zip(&other.objs).all(|(a, b)| {
                a.site == b.site
                    && a.ctx == b.ctx
                    && a.class == b.class
                    && kind_tag(a.kind) == kind_tag(b.kind)
            })
            && self.vars == other.vars
            && self.heap == other.heap
            && self.this_of_class == other.this_of_class
            && self.summary_of_class == other.summary_of_class
    }
}

/// A statically resolved call target.
pub(crate) enum CallTarget {
    /// A user method, by reference.
    User(MethodRef),
    /// A builtin: `Owner.method` plus its declared return type.
    Builtin(String, Option<Type>),
}

/// Resolves a call the same way the call graph does: by the static type
/// of the receiver (implicit receiver = the caller's own class).
pub(crate) fn resolve_call(
    program: &Program,
    table: &ClassTable,
    caller: &MethodRef,
    receiver: Option<&Expr>,
    method: &str,
) -> Option<CallTarget> {
    let recv_class = match receiver {
        None => Some(caller.class.clone()),
        Some(r) => match type_of_expr(program, table, &caller.class, &caller.method, r) {
            Ok(Type::Class(c)) => Some(c),
            _ => None,
        },
    };
    let recv_class = recv_class?;
    let (owner, sig) = table.method_of(&recv_class, method)?;
    if sig.is_builtin {
        Some(CallTarget::Builtin(
            format!("{owner}.{method}"),
            sig.ret.clone(),
        ))
    } else {
        Some(CallTarget::User(MethodRef::method(owner, method)))
    }
}

/// Computes the whole-program points-to relation at [`DEFAULT_K`].
pub fn analyze(program: &Program, table: &ClassTable) -> PointsTo {
    analyze_k(program, table, DEFAULT_K)
}

/// Computes the whole-program points-to relation at context depth `k`
/// (`k = 0` is the classic context-insensitive analysis): the one
/// propagation loop from the empty relation, every method active.
pub fn analyze_k(program: &Program, table: &ClassTable, k: usize) -> PointsTo {
    let sites = collect_sites(program, table);
    let mut pt = PointsTo {
        k,
        site_fp_of_expr: sites.iter().map(|s| (s.expr_id, s.fp)).collect(),
        ..PointsTo::default()
    };
    create_summaries(program, table, &sites, &mut pt);
    let uncalled = uncalled_methods(program, table);
    pt.solve(program, table, &sites, None, &uncalled);
    pt
}

/// Indexes each method's parameter and declared local names.
fn collect_locals(program: &Program, pt: &mut PointsTo) {
    for (_, decl, mref) in crate::each_method(program) {
        let names: BTreeSet<String> = decl
            .params
            .iter()
            .map(|p| p.name.clone())
            .chain(collect_var_decls(decl))
            .collect();
        pt.locals.entry(mref).or_default().extend(names);
    }
}

fn collect_var_decls(decl: &MethodDecl) -> Vec<String> {
    let mut names = Vec::new();
    walk_stmts(&decl.body, &mut |stmt| {
        if let StmtKind::VarDecl { name, .. } = &stmt.kind {
            names.push(name.clone());
        }
    });
    names
}

/// Enumerates every allocation and reference-returning builtin site in
/// walk order, assigning each its fingerprint-stable site id (method
/// name + walk-order ordinal — stable across span-only edits).
pub(crate) fn collect_sites(program: &Program, table: &ClassTable) -> Vec<Site> {
    let mut sites = Vec::new();
    let mut ordinals: BTreeMap<(String, String, bool), u64> = BTreeMap::new();
    let mut add = |sites: &mut Vec<Site>,
                   mref: &MethodRef,
                   ord_method: &str,
                   e: &Expr,
                   class: String,
                   is_builtin: bool| {
        let key = (mref.class.clone(), ord_method.to_string(), mref.is_ctor);
        let ord = ordinals.entry(key).or_insert(0);
        let fp = fingerprint::site_fp(&mref.class, ord_method, mref.is_ctor, *ord);
        *ord += 1;
        sites.push(Site {
            fp,
            expr_id: e.id,
            span: e.span,
            class,
            is_builtin,
            method: mref.clone(),
        });
    };
    let mut collect_expr =
        |sites: &mut Vec<Site>, mref: &MethodRef, ord_method: &str, e: &Expr| match &e.kind {
            ExprKind::NewObject { class, .. } => {
                add(sites, mref, ord_method, e, class.clone(), false);
            }
            ExprKind::NewArray { elem, .. } => {
                add(
                    sites,
                    mref,
                    ord_method,
                    e,
                    elem.clone().array_of().to_string(),
                    false,
                );
            }
            ExprKind::Call {
                receiver, method, ..
            } => {
                if let Some(CallTarget::Builtin(_, Some(ty))) =
                    resolve_call(program, table, mref, receiver.as_deref(), method)
                {
                    if ty.is_reference() {
                        add(sites, mref, ord_method, e, ty.to_string(), true);
                    }
                }
            }
            _ => {}
        };
    for (_, decl, mref) in crate::each_method(program) {
        let ord_method = mref.method.clone();
        walk_exprs(&decl.body, &mut |e| {
            collect_expr(&mut sites, &mref, &ord_method, e);
        });
    }
    // Field initializers allocate in the (possibly synthetic) ctor; a
    // separate ordinal namespace keeps them from colliding with the
    // explicit constructor's own sites.
    for class in &program.classes {
        let ctor = MethodRef::ctor(&class.name);
        for field in &class.fields {
            if let Some(init) = &field.init {
                walk_expr(init, &mut |e| {
                    collect_expr(&mut sites, &ctor, "<field-init>", e);
                });
            }
        }
    }
    sites
}

/// The distinct classes (or array-type renderings) of every allocation
/// and builtin site in the program: the walked set the delta solver's
/// shape-derived site classes must equal.
#[cfg(test)]
pub(crate) fn site_classes(program: &Program, table: &ClassTable) -> BTreeSet<String> {
    collect_sites(program, table)
        .into_iter()
        .map(|s| s.class)
        .collect()
}

/// Creates summary objects for classes nothing in the program
/// instantiates, and seeds the per-class this-sets with them.
fn create_summaries(program: &Program, table: &ClassTable, sites: &[Site], pt: &mut PointsTo) {
    for class in &program.classes {
        let has_site = sites
            .iter()
            .any(|s| table.is_subclass_of(&s.class, &class.name));
        if !has_site {
            add_summary(program, table, &class.name, pt);
        }
    }
}

/// Adds a summary object for `class`, updating the this-sets.
fn add_summary(program: &Program, table: &ClassTable, class: &str, pt: &mut PointsTo) -> ObjId {
    if let Some(&id) = pt.summary_of_class.get(class) {
        return id;
    }
    let id = ObjId(pt.objs.len());
    pt.objs.push(ObjInfo {
        id,
        kind: ObjKind::Summary,
        class: class.to_string(),
        span: Span::default(),
        method: None,
        site: fingerprint::summary_site_fp(class),
        ctx: Vec::new(),
    });
    pt.summary_of_class.insert(class.to_string(), id);
    for c in &program.classes {
        if table.is_subclass_of(class, &c.name) {
            pt.this_of_class
                .entry(c.name.clone())
                .or_default()
                .insert(id);
        }
    }
    id
}

/// Clones each site into every heap context its method currently runs
/// under. New receivers discovered by later passes pick up their clones
/// on the next iteration (the outer fixpoint covers it).
fn materialize_pass(
    sites: &[&Site],
    program: &Program,
    table: &ClassTable,
    pt: &mut PointsTo,
) -> bool {
    let mut changed = false;
    for site in sites {
        for ctx in pt.ctxs_of(&site.method) {
            let hctx = pt.heap_ctx(ctx);
            if pt.clone_of.contains_key(&(site.fp, hctx.clone())) {
                continue;
            }
            let id = ObjId(pt.objs.len());
            pt.objs.push(ObjInfo {
                id,
                kind: if site.is_builtin {
                    ObjKind::Builtin(site.expr_id)
                } else {
                    ObjKind::Alloc(site.expr_id)
                },
                class: site.class.clone(),
                span: site.span,
                method: Some(site.method.clone()),
                site: site.fp,
                ctx: hctx.clone(),
            });
            pt.clone_of.insert((site.fp, hctx), id);
            pt.site_of_expr.entry(site.expr_id).or_default().insert(id);
            for c in &program.classes {
                if table.is_subclass_of(&site.class, &c.name) {
                    pt.this_of_class
                        .entry(c.name.clone())
                        .or_default()
                        .insert(id);
                }
            }
            changed = true;
        }
    }
    changed
}

/// Methods no analyzed code calls: their parameters arrive from an
/// unknown external caller.
pub(crate) fn uncalled_methods(program: &Program, table: &ClassTable) -> BTreeSet<MethodRef> {
    let mut called: BTreeSet<MethodRef> = BTreeSet::new();
    for (_, decl, mref) in crate::each_method(program) {
        walk_exprs(&decl.body, &mut |e| match &e.kind {
            ExprKind::Call {
                receiver, method, ..
            } => {
                if let Some(CallTarget::User(callee)) =
                    resolve_call(program, table, &mref, receiver.as_deref(), method)
                {
                    called.insert(callee);
                }
            }
            ExprKind::NewObject { class, .. } => {
                called.insert(MethodRef::ctor(class));
            }
            _ => {}
        });
    }
    crate::each_method(program)
        .map(|(_, _, m)| m)
        .filter(|m| !called.contains(m))
        .collect()
}

/// Seeds the reference parameters of uncalled methods with the summary
/// object of the parameter's class (plus every in-program instance), in
/// every receiver context the method currently has: an external caller
/// may pass any of them, and may pass the same object to two different
/// uncalled methods. Only the `active` ones (`None`: all) are seeded.
fn seed_external_params(
    program: &Program,
    table: &ClassTable,
    uncalled: &BTreeSet<MethodRef>,
    active: Option<&BTreeSet<MethodRef>>,
    pt: &mut PointsTo,
) -> bool {
    let mut changed = false;
    for mref in uncalled {
        if active.is_some_and(|a| !a.contains(mref)) {
            continue;
        }
        let Some((_, decl, _)) = find_decl(program, mref) else {
            continue;
        };
        for param in &decl.params {
            let Type::Class(cn) = &param.ty else { continue };
            if table.class(cn).is_some_and(|c| c.is_builtin) {
                continue;
            }
            let name = &param.name;
            let mut seed = pt.instances_of(cn);
            let before_objs = pt.objs.len();
            let summary = add_summary(program, table, cn, pt);
            changed |= pt.objs.len() != before_objs;
            seed.insert(summary);
            for ctx in pt.ctxs_of(mref) {
                let entry = pt
                    .vars
                    .entry(VarKey::Local(mref.clone(), ctx, name.to_string()))
                    .or_default();
                let before = entry.len();
                entry.extend(seed.iter().copied());
                changed |= entry.len() != before;
            }
        }
    }
    changed
}

/// Flows call/constructor arguments into per-receiver callee parameter
/// variables for one (method, context) pair.
fn link_pass(
    program: &Program,
    table: &ClassTable,
    pt: &mut PointsTo,
    decl: &MethodDecl,
    mref: &MethodRef,
    ctx: MCtx,
) -> bool {
    let mut changed = false;
    // Collect first: eval borrows pt immutably.
    let mut flows: Vec<(VarKey, BTreeSet<ObjId>)> = Vec::new();
    walk_exprs(&decl.body, &mut |e| match &e.kind {
        ExprKind::Call {
            receiver,
            method,
            args,
        } => {
            if let Some(CallTarget::User(callee)) =
                resolve_call(program, table, mref, receiver.as_deref(), method)
            {
                if let Some((_, target, _)) = find_decl(program, &callee) {
                    let recvs: Vec<MCtx> = if pt.k == 0 {
                        vec![None]
                    } else {
                        let set = match receiver.as_deref() {
                            Some(r) => pt.eval_in(program, table, mref, ctx, r),
                            None => pt.this_set(mref, ctx),
                        };
                        if set.is_empty() {
                            // Unknown receiver: flow into every context.
                            pt.instances_of(&callee.class).into_iter().map(Some).collect()
                        } else {
                            set.into_iter().map(Some).collect()
                        }
                    };
                    for (param, arg) in target.params.iter().zip(args) {
                        let vals = pt.eval_in(program, table, mref, ctx, arg);
                        if vals.is_empty() {
                            continue;
                        }
                        for &recv in &recvs {
                            flows.push((
                                VarKey::Local(callee.clone(), recv, param.name.clone()),
                                vals.clone(),
                            ));
                        }
                    }
                }
            }
        }
        ExprKind::NewObject { class, args } => {
            let ctor = MethodRef::ctor(class);
            if let Some((_, target, _)) = find_decl(program, &ctor) {
                // The constructor's receiver is the clone this site
                // materializes under the current context.
                let recvs: Vec<MCtx> = if pt.k == 0 {
                    vec![None]
                } else {
                    pt.clone_at(e.id, ctx).into_iter().map(Some).collect()
                };
                for (param, arg) in target.params.iter().zip(args) {
                    let vals = pt.eval_in(program, table, mref, ctx, arg);
                    if vals.is_empty() {
                        continue;
                    }
                    for &recv in &recvs {
                        flows.push((
                            VarKey::Local(ctor.clone(), recv, param.name.clone()),
                            vals.clone(),
                        ));
                    }
                }
            }
        }
        _ => {}
    });
    for (key, vals) in flows {
        let entry = pt.vars.entry(key).or_default();
        let before = entry.len();
        entry.extend(vals);
        changed |= entry.len() != before;
    }
    changed
}

/// Flows assignments into locals, heap slots, and return variables for
/// one (method, context) pair.
fn store_pass(
    program: &Program,
    table: &ClassTable,
    pt: &mut PointsTo,
    decl: &MethodDecl,
    mref: &MethodRef,
    ctx: MCtx,
) -> bool {
    enum Dest {
        Var(VarKey),
        Heap(BTreeSet<ObjId>, String),
    }
    let mut flows: Vec<(Dest, BTreeSet<ObjId>)> = Vec::new();
    walk_stmts(&decl.body, &mut |stmt| match &stmt.kind {
        StmtKind::VarDecl {
            name,
            init: Some(e),
            ..
        } => {
            let vals = pt.eval_in(program, table, mref, ctx, e);
            if !vals.is_empty() {
                flows.push((
                    Dest::Var(VarKey::Local(mref.clone(), ctx, name.clone())),
                    vals,
                ));
            }
        }
        StmtKind::Assign { target, value, .. } => {
            let vals = pt.eval_in(program, table, mref, ctx, value);
            if vals.is_empty() {
                return;
            }
            match &target.kind {
                ExprKind::Var(name) => {
                    if pt
                        .locals
                        .get(mref)
                        .is_some_and(|ls| ls.contains(name.as_str()))
                    {
                        flows.push((
                            Dest::Var(VarKey::Local(mref.clone(), ctx, name.clone())),
                            vals,
                        ));
                    } else {
                        flows.push((Dest::Heap(pt.this_set(mref, ctx), name.clone()), vals));
                    }
                }
                ExprKind::Field { object, name } => {
                    let bases = pt.eval_in(program, table, mref, ctx, object);
                    flows.push((Dest::Heap(bases, name.clone()), vals));
                }
                ExprKind::Index { array, .. } => {
                    let bases = pt.eval_in(program, table, mref, ctx, array);
                    flows.push((Dest::Heap(bases, ELEMS.to_string()), vals));
                }
                _ => {}
            }
        }
        StmtKind::Return(Some(e)) => {
            let vals = pt.eval_in(program, table, mref, ctx, e);
            if !vals.is_empty() {
                flows.push((Dest::Var(VarKey::Ret(mref.clone(), ctx)), vals));
            }
        }
        _ => {}
    });
    let mut changed = false;
    for (dest, vals) in flows {
        match dest {
            Dest::Var(key) => {
                let entry = pt.vars.entry(key).or_default();
                let before = entry.len();
                entry.extend(vals);
                changed |= entry.len() != before;
            }
            Dest::Heap(bases, field) => {
                for base in bases {
                    let entry = pt.heap.entry((base, field.clone())).or_default();
                    let before = entry.len();
                    entry.extend(vals.iter().copied());
                    changed |= entry.len() != before;
                }
            }
        }
    }
    changed
}

/// Flows field initializers into every instance of the declaring class,
/// evaluated in the constructor context of that instance. With a
/// filter, only classes whose constructor is in the set participate
/// (the delta solver's restricted re-derivation).
fn init_pass_for(
    program: &Program,
    table: &ClassTable,
    pt: &mut PointsTo,
    filter: Option<&BTreeSet<MethodRef>>,
) -> bool {
    let mut changed = false;
    for class in &program.classes {
        let ctor = MethodRef::ctor(&class.name);
        if filter.is_some_and(|f| !f.contains(&ctor)) {
            continue;
        }
        for field in &class.fields {
            let Some(init) = &field.init else { continue };
            if pt.k == 0 {
                let vals = pt.eval_in(program, table, &ctor, None, init);
                if vals.is_empty() {
                    continue;
                }
                for base in pt.instances_of(&class.name) {
                    let entry = pt.heap.entry((base, field.name.clone())).or_default();
                    let before = entry.len();
                    entry.extend(vals.iter().copied());
                    changed |= entry.len() != before;
                }
            } else {
                for base in pt.instances_of(&class.name) {
                    let vals = pt.eval_in(program, table, &ctor, Some(base), init);
                    if vals.is_empty() {
                        continue;
                    }
                    let entry = pt.heap.entry((base, field.name.clone())).or_default();
                    let before = entry.len();
                    entry.extend(vals.iter().copied());
                    changed |= entry.len() != before;
                }
            }
        }
    }
    changed
}

/// Finds the declaration of a method reference.
pub(crate) fn find_decl<'p>(
    program: &'p Program,
    mref: &MethodRef,
) -> Option<(&'p ClassDecl, &'p MethodDecl, MethodRef)> {
    crate::each_method(program).find(|(_, _, m)| m == mref)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend;

    fn run(src: &str) -> (Program, ClassTable, PointsTo) {
        let (p, t) = frontend(src).unwrap();
        let pt = analyze(&p, &t);
        (p, t, pt)
    }

    #[test]
    fn getter_alias_is_resolved_through_the_call() {
        let (p, t, pt) = run(
            "class Shared { private int v; Shared() { v = 0; } }
             class Registry {
                 private Shared slot;
                 Registry() { slot = new Shared(); }
                 Shared lookup() { return slot; }
             }
             class Main {
                 public int demo() {
                     Registry r = new Registry();
                     Shared a = r.lookup();
                     Shared b = r.lookup();
                     Shared keepA = a;
                     Shared keepB = b;
                     return 0;
                 }
             }",
        );
        assert!(pt.converged());
        let demo = MethodRef::method("Main", "demo");
        // Find the `a` and `b` locals by evaluating Var expressions.
        let class = p.class("Main").unwrap();
        let body = &class.method("demo").unwrap().body;
        let mut a_set = None;
        let mut b_set = None;
        walk_exprs(body, &mut |e| {
            if let ExprKind::Var(n) = &e.kind {
                if n == "a" {
                    a_set = Some(pt.eval(&p, &t, &demo, e));
                }
                if n == "b" {
                    b_set = Some(pt.eval(&p, &t, &demo, e));
                }
            }
        });
        // Both locals resolve to the single Shared allocation site:
        // aliases the call graph alone cannot see.
        let a = a_set.clone().expect("a never read");
        assert_eq!(a.len(), 1);
        assert_eq!(a_set, b_set);
        let o = pt.object(*a.iter().next().unwrap());
        assert_eq!(o.class, "Shared");
        assert!(matches!(o.kind, ObjKind::Alloc(_)));
    }

    #[test]
    fn distinct_sites_stay_distinct() {
        let (p, t, pt) = run(
            "class Cell { private int n; Cell() { n = 0; } }
             class Main {
                 public int demo() {
                     Cell a = new Cell();
                     Cell b = new Cell();
                     return 0;
                 }
             }",
        );
        let demo = MethodRef::method("Main", "demo");
        let body = &p.class("Main").unwrap().method("demo").unwrap().body;
        let mut sets = Vec::new();
        walk_exprs(body, &mut |e| {
            if matches!(&e.kind, ExprKind::NewObject { .. }) {
                sets.push(pt.eval(&p, &t, &demo, e));
            }
        });
        assert_eq!(sets.len(), 2);
        assert_ne!(sets[0], sets[1]);
    }

    #[test]
    fn uncalled_method_params_share_the_summary_object() {
        // No `main` constructs W1/W2: their ctor params are seeded with
        // the external Cell summary object — both may receive the same
        // externally created instance.
        let (p, t, pt) = run(
            "class Cell { public int v; Cell() { v = 0; } }
             class W1 { private Cell c; W1(Cell x) { c = x; } }
             class W2 { private Cell c; W2(Cell x) { c = x; } }",
        );
        let w1 = pt.instances_of("W1");
        let w2 = pt.instances_of("W2");
        assert_eq!(w1.len(), 1);
        assert_eq!(w2.len(), 1);
        let c1 = pt.field_targets(*w1.iter().next().unwrap(), "c");
        let c2 = pt.field_targets(*w2.iter().next().unwrap(), "c");
        assert!(!c1.is_empty());
        assert_eq!(c1, c2, "external args may alias");
        let _ = p;
        let _ = t;
    }

    #[test]
    fn array_elements_flow_through_the_pseudo_field() {
        let (p, t, pt) = run(
            "class Item { private int x; Item() { x = 0; } }
             class Main {
                 public int demo() {
                     Item[] box = new Item[1];
                     box[0] = new Item();
                     Item got = box[0];
                     Item keep = got;
                     return 0;
                 }
             }",
        );
        let demo = MethodRef::method("Main", "demo");
        let body = &p.class("Main").unwrap().method("demo").unwrap().body;
        let mut got = None;
        walk_exprs(body, &mut |e| {
            if let ExprKind::Var(n) = &e.kind {
                if n == "got" {
                    got = Some(pt.eval(&p, &t, &demo, e));
                }
            }
        });
        let got = got.expect("got never read");
        assert_eq!(got.len(), 1);
        assert_eq!(pt.object(*got.iter().next().unwrap()).class, "Item");
    }

    #[test]
    fn owners_and_reachability_follow_the_heap() {
        let (_, _, pt) = run(
            "class Inner { private int x; Inner() { x = 0; } }
             class Outer {
                 private Inner kid;
                 Outer() { kid = new Inner(); }
             }
             class Main { public int demo() { Outer o = new Outer(); return 0; } }",
        );
        let outer = pt
            .objects()
            .find(|o| o.class == "Outer")
            .expect("outer site");
        let inner = pt
            .objects()
            .find(|o| o.class == "Inner")
            .expect("inner site");
        assert!(pt.reachable(outer.id).contains(&inner.id));
        assert!(pt.owners_of(inner.id).contains(&outer.id));
        assert!(pt.owners_of(outer.id).is_empty());
    }

    /// A factory handing one fresh object to each of two holders: the
    /// context-insensitive analysis conflates them into one abstract
    /// object, k = 1 keeps them apart.
    const FACTORY: &str = "class Packet { private int load; Packet() { load = 0; } }
         class Pool {
             Pool() { }
             Packet make() { return new Packet(); }
         }
         class HolderA {
             private Pool pool;
             private Packet slot;
             HolderA() { pool = new Pool(); slot = pool.make(); }
         }
         class HolderB {
             private Pool pool;
             private Packet slot;
             HolderB() { pool = new Pool(); slot = pool.make(); }
         }";

    #[test]
    fn k1_splits_factory_results_per_receiver() {
        let (_, _, pt) = run(FACTORY);
        assert!(pt.converged());
        let a = *pt.instances_of("HolderA").iter().next().unwrap();
        let b = *pt.instances_of("HolderB").iter().next().unwrap();
        let sa = pt.field_targets(a, "slot");
        let sb = pt.field_targets(b, "slot");
        assert_eq!(sa.len(), 1);
        assert_eq!(sb.len(), 1);
        assert_ne!(sa, sb, "k=1 separates the two factory products");
    }

    #[test]
    fn k0_conflates_factory_results() {
        let (p, t) = frontend(FACTORY).unwrap();
        let pt = analyze_k(&p, &t, 0);
        assert!(pt.converged());
        let a = *pt.instances_of("HolderA").iter().next().unwrap();
        let b = *pt.instances_of("HolderB").iter().next().unwrap();
        let sa = pt.field_targets(a, "slot");
        let sb = pt.field_targets(b, "slot");
        assert!(!sa.is_empty());
        assert_eq!(sa, sb, "k=0 conflates the factory products");
    }

    #[test]
    fn k1_object_sites_project_into_k0() {
        // Every k=1 object projects (by site fingerprint) to a k=0
        // object, and per-field heap targets project into the k=0
        // targets: the refinement direction the proptests rely on.
        let (p, t) = frontend(FACTORY).unwrap();
        let pt0 = analyze_k(&p, &t, 0);
        let pt1 = analyze_k(&p, &t, 1);
        let sites0: BTreeSet<Fp> = pt0.objects().map(|o| o.site).collect();
        for o in pt1.objects() {
            assert!(sites0.contains(&o.site), "unmatched k=1 site {}", o.site);
        }
    }

    #[test]
    fn witness_path_labels_the_heap_route() {
        let (_, _, pt) = run(
            "class Inner { private int x; Inner() { x = 0; } }
             class Outer {
                 private Inner kid;
                 Outer() { kid = new Inner(); }
             }
             class Main { public int demo() { Outer o = new Outer(); return 0; } }",
        );
        let outer = pt.objects().find(|o| o.class == "Outer").unwrap().id;
        let inner = pt.objects().find(|o| o.class == "Inner").unwrap().id;
        let path = pt.witness_path(outer, inner).expect("path exists");
        assert_eq!(path.len(), 1);
        assert_eq!(path[0].0, "kid");
        assert_eq!(path[0].1, inner);
        assert_eq!(pt.witness_path(outer, outer), Some(vec![]));
        assert_eq!(pt.witness_path(inner, outer), None);
    }

    #[test]
    fn a_solved_relation_is_a_post_fixpoint_and_a_pruned_one_is_not() {
        let (p, t, pt) = run("class Inner { private int x; Inner() { x = 0; } }
             class Outer {
                 private Inner kid;
                 Outer() { kid = new Inner(); }
             }
             class Main { public int demo() { Outer o = new Outer(); return 0; } }");
        assert_eq!(pt.check_post_fixpoint(&p, &t), Ok(()));
        let mut pruned = pt.clone();
        let slot = pruned
            .heap
            .iter()
            .find(|((_, field), _)| field == "kid")
            .map(|(key, _)| key.clone())
            .expect("kid slot");
        let fact = *pruned.heap[&slot].iter().next().unwrap();
        pruned.heap.get_mut(&slot).unwrap().remove(&fact);
        let err = pruned.check_post_fixpoint(&p, &t).unwrap_err();
        assert!(err.contains("facts"), "{err}");
    }

    #[test]
    fn rebase_remaps_node_ids_and_spans() {
        let src = "class Cell { private int n; Cell() { n = 0; } }
             class Main { public int demo() { Cell a = new Cell(); return 0; } }";
        // Same program with extra leading whitespace: spans (and node
        // ids, which are allocated in parse order) shift.
        let shifted = format!("\n\n   {src}");
        let (p1, t1) = frontend(src).unwrap();
        let (p2, t2) = frontend(&shifted).unwrap();
        let mut pt = analyze(&p1, &t1);
        let fresh = analyze(&p2, &t2);
        assert!(pt.rebase(&collect_sites(&p2, &t2)));
        let spans1: Vec<Span> = pt.objects().map(|o| o.span).collect();
        let spans2: Vec<Span> = fresh.objects().map(|o| o.span).collect();
        assert_eq!(spans1, spans2);
        let kinds1: Vec<ObjKind> = pt.objects().map(|o| o.kind).collect();
        let kinds2: Vec<ObjKind> = fresh.objects().map(|o| o.kind).collect();
        assert_eq!(kinds1, kinds2);
    }
}
