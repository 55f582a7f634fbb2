//! Delta-driven points-to solving across revisions.
//!
//! [`crate::pointsto`] solves a whole-program subset-constraint
//! fixpoint; re-running it after every one-method edit is the single
//! largest cost of a warm re-check. This module makes the solve
//! incremental: [`PtCache`] keeps the previous revision's solved
//! relation together with a per-method **constraint shape** — a
//! constant-blind structural fingerprint plus the syntactic facts that
//! determine which constraints the method contributes (callees, field
//! names touched, allocation classes, class-typed parameters).
//!
//! Every revision takes one flow ([`PtCache::update`]):
//!
//! 1. **Changed methods** — from the revision's [`ProgramIndex`]: the
//!    methods whose key differs, methods added or removed, and every
//!    method of a class whose context fingerprint changed (it covers
//!    the field initializers, which the class's arity-0, possibly
//!    synthetic, constructor owns). With no cached state, every method.
//! 2. **Shapes** — only the changed shapes are re-extracted; the
//!    allocation-site classes and the uncalled set are folded out of
//!    the shape map instead of re-walking every body.
//! 3. **Reset** — the relation goes back to empty, and every method is
//!    solved, for a typed [`ResetCause`]: no cached state, a changed
//!    depth `k`, a changed class signature table, a changed
//!    allocation-class set (summary-object eligibility), a cached
//!    relation that had not converged, a surviving site that vanished
//!    on rebase, or a restricted re-solve that diverged.
//! 4. **Taint, retract, rebase, solve** — a *taint closure* over the
//!    shape graph finds every method whose constraints could read a
//!    changed fact; their constraints are retracted
//!    ([`PointsTo::retract_methods`] / [`PointsTo::retract_fields`]),
//!    the relation is rebased onto the revision's node ids and spans,
//!    and the one propagation loop ([`PointsTo::solve`]) re-derives the
//!    tainted methods. Untainted methods keep their facts. With nothing
//!    tainted — an edit that touched only literals, spans, or comments,
//!    none of which feed the points-to constraints — only the rebase
//!    runs ([`DeltaPath::Rebase`]).
//!
//! The taint closure is deliberately syntactic and symmetric, so its
//! soundness is mechanical: a changed method taints its callers and
//! callees (argument/return flows), every method touching any field it
//! touches (heap facts are stored by field name and are not attributed
//! to a writer — all slots of a tainted field are cleared and every
//! toucher re-derives them), every method of every superclass of a
//! class it allocates (instance sets, receiver contexts, and `this`
//! sets of those classes change when allocations change), and every
//! uncalled method with a parameter the allocation could flow into
//! (external-parameter seeding reads instance sets). Retraction then
//! reports back which *surviving* constraint sets lost an object; the
//! owning methods join the taint set and the closure re-runs until no
//! retained fact mentions a retracted object. Batch ≡ incremental is
//! enforced by [`PointsTo::same_relation`] against
//! [`pointsto::analyze_k`] in the tests here and the
//! `incremental_properties` proptests, which also check every warm
//! relation with [`PointsTo::check_post_fixpoint`].

use crate::fingerprint::{self, Fp, ProgramIndex, StructHasher};
use crate::pointsto::{self, PointsTo};
use crate::MethodRef;
use jtlang::ast::{Block, ClassDecl, Expr, ExprKind, MethodDecl, Program, StmtKind, Type};
use jtlang::resolve::ClassTable;
use std::collections::{BTreeMap, BTreeSet};

/// Which solve path [`PtCache::update`] took for one revision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaPath {
    /// Reset to the empty relation and solved every method, for this
    /// reason.
    Cold(ResetCause),
    /// Nothing tainted: span-only re-key of the cached relation;
    /// nothing re-solved.
    Rebase,
    /// Tainted frontier retracted and re-derived.
    Delta,
}

/// Why a revision reset the relation to the empty one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResetCause {
    /// No cached relation: the first revision.
    NoState,
    /// The context depth differs from the cached relation's.
    DepthChanged,
    /// The class signature table changed, so calls may resolve
    /// differently and every shape is re-extracted.
    SignatureChanged,
    /// The set of allocation-site classes changed, and with it which
    /// classes get a summary object.
    SiteClassesChanged,
    /// The cached relation had hit [`pointsto::MAX_PASSES`].
    NotConverged,
    /// A surviving object's allocation site is missing from the
    /// revision, so the relation could not be rebased.
    SiteVanished,
    /// The restricted re-solve hit [`pointsto::MAX_PASSES`].
    Diverged,
}

impl ResetCause {
    /// The cause's name in the `jtanalysis.db.pointsto_reset.<name>`
    /// metric.
    pub fn name(self) -> &'static str {
        match self {
            ResetCause::NoState => "no_state",
            ResetCause::DepthChanged => "depth_changed",
            ResetCause::SignatureChanged => "signature_changed",
            ResetCause::SiteClassesChanged => "site_classes_changed",
            ResetCause::NotConverged => "not_converged",
            ResetCause::SiteVanished => "site_vanished",
            ResetCause::Diverged => "diverged",
        }
    }
}

/// Per-revision traffic report of the delta solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaOutcome {
    /// The path taken.
    pub path: DeltaPath,
    /// Constraint-set members retracted (0 for rebase; 0 for cold,
    /// which discards the whole relation rather than retracting).
    pub retracted: u64,
    /// Constraint-set members derived this revision (total facts for a
    /// cold solve, the re-derived frontier for a delta).
    pub added: u64,
}

/// The constraint shape of one method: everything about its body that
/// determines which points-to constraints it contributes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct MethodShape {
    /// Constant-blind structural fingerprint: literal *values* are
    /// masked (they never feed a points-to constraint), everything
    /// else — names, types, operators, call targets, shape — is
    /// hashed. Constructors also cover their class's field
    /// initializers, which allocate and store on their behalf.
    fp: Fp,
    /// Statically resolved user callees (including constructors).
    callees: BTreeSet<MethodRef>,
    /// Field names read or written, including the array pseudo-field
    /// and implicit-`this` accesses.
    fields: BTreeSet<String>,
    /// Classes (or array-type renderings) of allocation and
    /// reference-returning builtin sites in the body.
    alloc_classes: BTreeSet<String>,
    /// Classes of reference-typed parameters (external seeding reads
    /// the instance sets of these).
    param_classes: BTreeSet<String>,
    /// Callees of the *body only* (no field-initializer merge):
    /// exactly one method's contribution to the global called set that
    /// [`pointsto::uncalled_methods`] derives, which walks bodies but
    /// not initializers.
    body_called: BTreeSet<MethodRef>,
}

/// Cached state of the previous revision.
#[derive(Debug, Default)]
struct CachedPt {
    k: usize,
    sig: Fp,
    site_classes: BTreeSet<String>,
    uncalled: BTreeSet<MethodRef>,
    shapes: BTreeMap<MethodRef, MethodShape>,
    /// Raw per-method fingerprints of the revision the shapes were
    /// extracted from (from [`ProgramIndex::methods`]).
    mkeys: BTreeMap<MethodRef, Fp>,
    /// Per-class context fingerprints of that revision (covers field
    /// declarations and initializers — the only method-external input
    /// to a shape besides the signature table).
    class_ctx: BTreeMap<String, Fp>,
    pt: PointsTo,
}

/// Cross-revision delta points-to cache. One slot: the evolving
/// program of a refinement session. Lint runs over unrelated programs
/// simply reset each time (the signature guard trips).
#[derive(Debug, Default)]
pub(crate) struct PtCache {
    state: Option<CachedPt>,
}

impl PtCache {
    /// Solves (or incrementally re-solves) the relation for `program`
    /// at depth `k`, given its index `ix`, returning an owned canonical
    /// relation and the traffic taken to produce it. The one flow of
    /// the module doc.
    pub(crate) fn update(
        &mut self,
        program: &Program,
        table: &ClassTable,
        k: usize,
        ix: &ProgramIndex,
    ) -> (PointsTo, DeltaOutcome) {
        let mut reset = match &self.state {
            None => Some(ResetCause::NoState),
            Some(st) if st.k != k => Some(ResetCause::DepthChanged),
            Some(st) if st.sig != ix.sig => Some(ResetCause::SignatureChanged),
            Some(st) if !st.pt.converged() => Some(ResetCause::NotConverged),
            Some(_) => None,
        };
        let st = self.state.get_or_insert_with(CachedPt::default);
        if reset.is_some() {
            *st = CachedPt::default();
        }
        (st.k, st.sig) = (k, ix.sig);

        // 1. The changed methods; 2. their shapes.
        let changed = st.changed_methods(ix);
        for m in &changed {
            match ix.methods.get(m) {
                Some((fp, _)) => st.mkeys.insert(m.clone(), *fp),
                None => st.mkeys.remove(m),
            };
        }
        let fresh = shapes_of(program, table, changed);
        st.class_ctx.clone_from(&ix.class_ctx);
        // Equal shapes (e.g. a literal tweak the constant-blind
        // fingerprint masks) taint nothing, and leave the shape map and
        // the sets folded out of it as they are.
        let mut tainted: BTreeSet<MethodRef> = BTreeSet::new();
        let mut old_shapes: BTreeMap<MethodRef, MethodShape> = BTreeMap::new();
        let mut old_uncalled: BTreeSet<MethodRef> = BTreeSet::new();
        if fresh.iter().any(|(m, sh)| st.shapes.get(m) != sh.as_ref()) {
            for (m, sh) in fresh {
                let old = match sh {
                    Some(sh) => st.shapes.insert(m.clone(), sh),
                    None => st.shapes.remove(&m),
                };
                if old.as_ref().map(|o| o.fp) != st.shapes.get(&m).map(|s| s.fp) {
                    tainted.insert(m.clone());
                }
                if let Some(old) = old {
                    old_shapes.insert(m, old);
                }
            }
            let (site_classes, uncalled) = derive_sites_uncalled(&st.shapes, ix);
            if reset.is_none() && site_classes != st.site_classes {
                reset = Some(ResetCause::SiteClassesChanged);
            }
            // Seeding is part of a method's constraints: an
            // uncalled-status flip taints it.
            tainted.extend(st.uncalled.symmetric_difference(&uncalled).cloned());
            old_uncalled = std::mem::replace(&mut st.uncalled, uncalled);
            st.site_classes = site_classes;
        }

        // 3. Reset, or 4. taint, retract, rebase, solve.
        let warm = match reset {
            Some(cause) => Err(cause),
            None => st.resolve(program, table, tainted, &old_shapes, &old_uncalled),
        };
        let outcome = warm.unwrap_or_else(|cause| {
            st.pt = pointsto::analyze_k(program, table, k);
            DeltaOutcome {
                path: DeltaPath::Cold(cause),
                retracted: 0,
                added: st.pt.fact_pairs(),
            }
        });
        (st.pt.clone(), outcome)
    }
}

impl CachedPt {
    /// The methods whose constraint shape may differ in the revision
    /// `ix` indexes: key changed, added or removed, or of a class whose
    /// context changed — including its arity-0 constructor, which owns
    /// the field initializers even when the class declares none.
    fn changed_methods(&self, ix: &ProgramIndex) -> BTreeSet<MethodRef> {
        let ctx_changed = |c: &String| ix.class_ctx.get(c) != self.class_ctx.get(c);
        let ctors = ix.class_ctx.keys().chain(self.class_ctx.keys());
        ix.methods
            .keys()
            .chain(self.mkeys.keys())
            .filter(|m| {
                ix.methods.get(*m).map(|(fp, _)| fp) != self.mkeys.get(*m) || ctx_changed(&m.class)
            })
            .cloned()
            .chain(
                ctors
                    .filter(|c| ctx_changed(c))
                    .map(|c| MethodRef::ctor(c, 0)),
            )
            .collect()
    }

    /// The summary-object classes the relation holds but a cold solve
    /// of this revision would not create. Summary objects exist for
    /// classes without allocation sites (the site-class set is
    /// unchanged) *and* for non-builtin parameter classes of uncalled
    /// methods; an uncalled→called flip can strand one.
    fn stale_summaries(&self, program: &Program, table: &ClassTable) -> BTreeSet<String> {
        let mut expected: BTreeSet<&String> = program
            .classes
            .iter()
            .filter(|c| {
                !self
                    .site_classes
                    .iter()
                    .any(|s| table.is_subclass_of(s, &c.name))
            })
            .map(|c| &c.name)
            .collect();
        for s in self.uncalled.iter().filter_map(|m| self.shapes.get(m)) {
            let user = |cn: &&String| !table.class(cn).is_some_and(|c| c.is_builtin);
            expected.extend(s.param_classes.iter().filter(user));
        }
        self.pt
            .summary_of_class
            .keys()
            .filter(|c| !expected.contains(c))
            .cloned()
            .collect()
    }

    /// Step 4 of the flow on the cached relation: closes `tainted`
    /// over the shape graph, retracts the closure's facts, rebases the
    /// relation onto `program`, and re-derives the closure with the one
    /// propagation loop. `old_shapes` holds the previous shapes of the
    /// changed methods, `old_uncalled` the previous uncalled set.
    /// `Err` names why the relation must be solved from empty instead.
    fn resolve(
        &mut self,
        program: &Program,
        table: &ClassTable,
        mut tainted: BTreeSet<MethodRef>,
        old_shapes: &BTreeMap<MethodRef, MethodShape>,
        old_uncalled: &BTreeSet<MethodRef>,
    ) -> Result<DeltaOutcome, ResetCause> {
        let mut retracted = 0u64;
        if !tainted.is_empty() {
            let edges = TaintEdges::build(
                old_shapes,
                &self.shapes,
                old_uncalled,
                &self.uncalled,
                table,
            );
            let mut fields: BTreeSet<String> = BTreeSet::new();
            let stale = self.stale_summaries(program, table);
            if !stale.is_empty() {
                let r = self.pt.retract_summaries(&stale);
                retracted += r.facts_removed;
                tainted.extend(r.implicated_methods);
                fields.extend(r.implicated_fields);
            }
            // Closure, retraction, and the prune-feedback loop:
            // retraction reports surviving sets that lost an object,
            // whose owners must also re-derive.
            loop {
                edges.close(&mut tainted, &mut fields);
                let r = self.pt.retract_methods(&tainted);
                retracted += r.facts_removed;
                retracted += self.pt.retract_fields(&fields);
                let mut grew = false;
                for m in r.implicated_methods {
                    grew |= tainted.insert(m);
                }
                for f in r.implicated_fields {
                    grew |= fields.insert(f);
                }
                if !grew {
                    break;
                }
            }
        }
        let sites = pointsto::collect_sites(program, table);
        if !self.pt.rebase(&sites) {
            return Err(ResetCause::SiteVanished);
        }
        if tainted.is_empty() {
            return Ok(DeltaOutcome {
                path: DeltaPath::Rebase,
                retracted: 0,
                added: 0,
            });
        }
        let baseline = self.pt.fact_pairs();
        if !self
            .pt
            .solve(program, table, &sites, Some(&tainted), &self.uncalled)
        {
            return Err(ResetCause::Diverged);
        }
        Ok(DeltaOutcome {
            path: DeltaPath::Delta,
            retracted,
            added: self.pt.fact_pairs() - baseline,
        })
    }
}

/// Reverse indexes over the old and new shape maps, used to close the
/// taint set.
struct TaintEdges<'a> {
    /// Callee → callers (both revisions).
    callers: BTreeMap<MethodRef, BTreeSet<MethodRef>>,
    /// Field name → methods touching it (both revisions).
    touchers: BTreeMap<String, BTreeSet<MethodRef>>,
    /// Class → methods declared by it (both revisions).
    by_class: BTreeMap<String, BTreeSet<MethodRef>>,
    /// Uncalled methods of either revision, with their parameter
    /// classes.
    ext_params: Vec<(MethodRef, BTreeSet<String>)>,
    /// Old ∪ new shape of each changed method (a removed method keeps
    /// its old shape so its edges still fire).
    merged: BTreeMap<MethodRef, MethodShape>,
    /// The new shapes; every method not in `merged` has the same shape
    /// in both revisions.
    new: &'a BTreeMap<MethodRef, MethodShape>,
    /// `(allocated class, superclass)` pairs, precomputed from the
    /// class table.
    supers: BTreeMap<String, BTreeSet<String>>,
}

impl<'a> TaintEdges<'a> {
    /// `old` holds the previous shapes of the changed methods only;
    /// the others are equal in both revisions.
    fn build(
        old: &BTreeMap<MethodRef, MethodShape>,
        new: &'a BTreeMap<MethodRef, MethodShape>,
        old_uncalled: &BTreeSet<MethodRef>,
        new_uncalled: &BTreeSet<MethodRef>,
        table: &ClassTable,
    ) -> TaintEdges<'a> {
        let mut merged: BTreeMap<MethodRef, MethodShape> = old.clone();
        for (m, o) in merged.iter_mut() {
            // A method present in both revisions closes over the UNION
            // of its old and new facts: an edit that removes a call or
            // field access must still taint the old callee / field,
            // whose derived facts the edit invalidates.
            if let Some(s) = new.get(m) {
                o.callees.extend(s.callees.iter().cloned());
                o.fields.extend(s.fields.iter().cloned());
                o.alloc_classes.extend(s.alloc_classes.iter().cloned());
                o.param_classes.extend(s.param_classes.iter().cloned());
            }
        }
        let mut callers: BTreeMap<MethodRef, BTreeSet<MethodRef>> = BTreeMap::new();
        let mut touchers: BTreeMap<String, BTreeSet<MethodRef>> = BTreeMap::new();
        let mut by_class: BTreeMap<String, BTreeSet<MethodRef>> = BTreeMap::new();
        let mut classes: BTreeSet<String> = BTreeSet::new();
        for (m, s) in new.iter().chain(old.iter()) {
            for c in &s.callees {
                callers.entry(c.clone()).or_default().insert(m.clone());
            }
            for f in &s.fields {
                touchers.entry(f.clone()).or_default().insert(m.clone());
            }
            by_class.entry(m.class.clone()).or_default().insert(m.clone());
            classes.insert(m.class.clone());
            classes.extend(s.alloc_classes.iter().cloned());
        }
        // For each class that can be allocated, the set of classes
        // whose instance sets it feeds (its superclasses, inclusively).
        let mut supers: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for alloc in &classes {
            let ups: BTreeSet<String> = classes
                .iter()
                .filter(|c| table.is_subclass_of(alloc, c))
                .cloned()
                .collect();
            supers.insert(alloc.clone(), ups);
        }
        let shape = |m| merged.get(m).or_else(|| new.get(m));
        let ext_params = old_uncalled
            .union(new_uncalled)
            .filter_map(|m| {
                let params = shape(m)?.param_classes.clone();
                (!params.is_empty()).then_some((m.clone(), params))
            })
            .collect();
        TaintEdges {
            callers,
            touchers,
            by_class,
            ext_params,
            merged,
            new,
            supers,
        }
    }

    /// The shape `m`'s edges close over.
    fn shape(&self, m: &MethodRef) -> Option<&MethodShape> {
        self.merged.get(m).or_else(|| self.new.get(m))
    }

    /// Grows `tainted` (and the set of heap `fields` to clear) to a
    /// mutual fixpoint over the shape graph: a tainted method pulls in
    /// its callers and callees, every field it touches (and so every
    /// toucher of those fields — heap facts are unattributed, so all
    /// slots of a touched field are cleared and re-derived), and every
    /// method coupled to a class it allocates through instance sets.
    fn close(&self, tainted: &mut BTreeSet<MethodRef>, fields: &mut BTreeSet<String>) {
        loop {
            let before = (tainted.len(), fields.len());
            let snapshot: Vec<MethodRef> = tainted.iter().cloned().collect();
            for m in snapshot {
                if let Some(s) = self.shape(&m) {
                    tainted.extend(s.callees.iter().cloned());
                    fields.extend(s.fields.iter().cloned());
                    for alloc in &s.alloc_classes {
                        if let Some(ups) = self.supers.get(alloc) {
                            for up in ups {
                                if let Some(ms) = self.by_class.get(up) {
                                    tainted.extend(ms.iter().cloned());
                                }
                                for (um, params) in &self.ext_params {
                                    if params.contains(up) {
                                        tainted.insert(um.clone());
                                    }
                                }
                            }
                        }
                    }
                }
                if let Some(cs) = self.callers.get(&m) {
                    tainted.extend(cs.iter().cloned());
                }
            }
            for f in fields.iter() {
                if let Some(ts) = self.touchers.get(f) {
                    tainted.extend(ts.iter().cloned());
                }
            }
            if (tainted.len(), fields.len()) == before {
                break;
            }
        }
    }
}

/// The shapes of `changed` in `program`: `None` for a method that no
/// longer exists, and for a constructor the class neither declares nor
/// needs (a synthetic constructor's shape is its class's field
/// initializers).
fn shapes_of(
    program: &Program,
    table: &ClassTable,
    changed: BTreeSet<MethodRef>,
) -> BTreeMap<MethodRef, Option<MethodShape>> {
    let mut out: BTreeMap<MethodRef, Option<MethodShape>> =
        changed.into_iter().map(|m| (m, None)).collect();
    for (_, decl, mref) in crate::each_method(program) {
        if let Some(slot) = out.get_mut(&mref) {
            *slot = Some(shape_of_method(program, table, decl, &mref));
        }
    }
    for class in &program.classes {
        if let Some(slot) = out.get_mut(&MethodRef::ctor(&class.name, 0)) {
            if let Some((inits_fp, extra)) = init_shape(class, program, table) {
                merge_inits(
                    slot.get_or_insert_with(MethodShape::default),
                    inits_fp,
                    extra,
                );
            }
        }
    }
    out
}

/// The shape of one method body (before any field-initializer merge).
fn shape_of_method(
    program: &Program,
    table: &ClassTable,
    decl: &MethodDecl,
    mref: &MethodRef,
) -> MethodShape {
    let mut sh = MethodShape::default();
    let mut h = StructHasher::new();
    h.member(mref);
    let mut locals: BTreeSet<&str> = BTreeSet::new();
    for p in &decl.params {
        h.str(&p.name);
        h.str(&p.ty.to_string());
        locals.insert(&p.name);
        if let Type::Class(c) = &p.ty {
            sh.param_classes.insert(c.clone());
        }
    }
    jtlang::ast::walk_stmts(&decl.body, &mut |stmt| {
        if let StmtKind::VarDecl { name, .. } = &stmt.kind {
            locals.insert(name);
        }
    });
    let cx = Scope {
        program,
        table,
        mref,
        decl: Some(decl),
        locals: &locals,
    };
    blind_block(&decl.body, &cx, &mut h, &mut sh);
    sh.fp = h.finish();
    sh.body_called = sh.callees.clone();
    sh
}

/// The shape contribution of one class's field initializers (`None`
/// when it has none). The fingerprint and facts are merged into the
/// class's arity-0 constructor entry by [`merge_inits`].
fn init_shape(class: &ClassDecl, program: &Program, table: &ClassTable) -> Option<(Fp, MethodShape)> {
    let inits: Vec<(&str, &Expr)> = class
        .fields
        .iter()
        .filter_map(|f| Some((f.name.as_str(), f.init.as_ref()?)))
        .collect();
    if inits.is_empty() {
        return None;
    }
    let ctor = MethodRef::ctor(&class.name, 0);
    let cx = Scope {
        program,
        table,
        mref: &ctor,
        decl: crate::decl_of(program, &ctor).map(|(_, d)| d),
        locals: &BTreeSet::new(),
    };
    let mut h = StructHasher::new();
    let mut extra = MethodShape::default();
    for (name, init) in inits {
        h.str(name);
        extra.fields.insert(name.to_string());
        blind_expr(init, &cx, &mut h, &mut extra);
    }
    Some((h.finish(), extra))
}

/// Folds a class's field-initializer contribution into its
/// arity-0 constructor's shape. `body_called` is deliberately left alone:
/// initializer calls do not make a method "called" in
/// [`pointsto::uncalled_methods`], which walks bodies only.
fn merge_inits(entry: &mut MethodShape, inits_fp: Fp, extra: MethodShape) {
    entry.fp = fingerprint::combine(&[entry.fp, inits_fp]);
    entry.callees.extend(extra.callees);
    entry.fields.extend(extra.fields);
    entry.alloc_classes.extend(extra.alloc_classes);
}

/// Recovers the allocation-site class set and the uncalled set from a
/// shape map, without re-walking any method body. Equivalent to the
/// classes of [`pointsto::collect_sites`] and to
/// [`pointsto::uncalled_methods`]: shape
/// extraction records the classes of exactly the sites those walks
/// visit (bodies plus field initializers), and `body_called` records
/// exactly the body call edges the uncalled walk resolves.
fn derive_sites_uncalled(
    shapes: &BTreeMap<MethodRef, MethodShape>,
    ix: &ProgramIndex,
) -> (BTreeSet<String>, BTreeSet<MethodRef>) {
    let mut sites: BTreeSet<String> = BTreeSet::new();
    let mut called: BTreeSet<&MethodRef> = BTreeSet::new();
    for s in shapes.values() {
        sites.extend(s.alloc_classes.iter().cloned());
        called.extend(s.body_called.iter());
    }
    let uncalled = ix
        .methods
        .keys()
        .filter(|m| !called.contains(m))
        .cloned()
        .collect();
    (sites, uncalled)
}

/// What a shape walk resolves calls and names against: the walked
/// member (`decl` is `None` for a synthetic constructor's field
/// initializers) and its parameter and local names.
struct Scope<'a> {
    program: &'a Program,
    table: &'a ClassTable,
    mref: &'a MethodRef,
    decl: Option<&'a MethodDecl>,
    locals: &'a BTreeSet<&'a str>,
}

fn blind_block(block: &Block, cx: &Scope, h: &mut StructHasher, sh: &mut MethodShape) {
    h.u64(block.stmts.len() as u64);
    for stmt in &block.stmts {
        blind_stmt(stmt, cx, h, sh);
    }
}

fn blind_stmt(stmt: &jtlang::ast::Stmt, cx: &Scope, h: &mut StructHasher, sh: &mut MethodShape) {
    let e = |expr: &Expr, h: &mut StructHasher, sh: &mut MethodShape| {
        blind_expr(expr, cx, h, sh);
    };
    match &stmt.kind {
        StmtKind::VarDecl { ty, name, init } => {
            h.tag(0);
            h.str(&ty.to_string());
            h.str(name);
            if let Some(init) = init {
                h.tag(1);
                e(init, h, sh);
            }
        }
        StmtKind::Assign { target, op, value } => {
            h.tag(1);
            h.str(&format!("{op:?}"));
            // An assignment to a bare non-local name or an index is a
            // field/element write.
            match &target.kind {
                ExprKind::Var(name) if !cx.locals.contains(name.as_str()) => {
                    sh.fields.insert(name.clone());
                }
                ExprKind::Index { .. } => {
                    sh.fields.insert(pointsto::ELEMS.to_string());
                }
                _ => {}
            }
            e(target, h, sh);
            e(value, h, sh);
        }
        StmtKind::Expr(expr) => {
            h.tag(2);
            e(expr, h, sh);
        }
        StmtKind::If {
            cond,
            then_branch,
            else_branch,
        } => {
            h.tag(3);
            e(cond, h, sh);
            blind_stmt(then_branch, cx, h, sh);
            if let Some(eb) = else_branch {
                h.tag(1);
                blind_stmt(eb, cx, h, sh);
            }
        }
        StmtKind::While { cond, body } => {
            h.tag(4);
            e(cond, h, sh);
            blind_stmt(body, cx, h, sh);
        }
        StmtKind::DoWhile { body, cond } => {
            h.tag(5);
            blind_stmt(body, cx, h, sh);
            e(cond, h, sh);
        }
        StmtKind::For {
            init,
            cond,
            update,
            body,
        } => {
            h.tag(6);
            if let Some(i) = init {
                h.tag(1);
                blind_stmt(i, cx, h, sh);
            }
            if let Some(c) = cond {
                h.tag(1);
                e(c, h, sh);
            }
            if let Some(u) = update {
                h.tag(1);
                blind_stmt(u, cx, h, sh);
            }
            blind_stmt(body, cx, h, sh);
        }
        StmtKind::Return(expr) => {
            h.tag(7);
            if let Some(expr) = expr {
                h.tag(1);
                e(expr, h, sh);
            }
        }
        StmtKind::Break => h.tag(8),
        StmtKind::Continue => h.tag(9),
        StmtKind::Block(b) => {
            h.tag(10);
            blind_block(b, cx, h, sh);
        }
    }
}

fn blind_expr(expr: &Expr, cx: &Scope, h: &mut StructHasher, sh: &mut MethodShape) {
    let e = |expr: &Expr, h: &mut StructHasher, sh: &mut MethodShape| {
        blind_expr(expr, cx, h, sh);
    };
    match &expr.kind {
        // Literal values are masked: they never feed a constraint.
        ExprKind::Int(_) => h.tag(0),
        ExprKind::Bool(_) => h.tag(1),
        ExprKind::Null => h.tag(2),
        ExprKind::This => h.tag(3),
        ExprKind::Var(name) => {
            h.tag(4);
            h.str(name);
            if !cx.locals.contains(name.as_str()) {
                sh.fields.insert(name.clone());
            }
        }
        ExprKind::Field { object, name } => {
            h.tag(5);
            h.str(name);
            sh.fields.insert(name.clone());
            e(object, h, sh);
        }
        ExprKind::Index { array, index } => {
            h.tag(6);
            sh.fields.insert(pointsto::ELEMS.to_string());
            e(array, h, sh);
            e(index, h, sh);
        }
        ExprKind::Length { array } => {
            h.tag(7);
            e(array, h, sh);
        }
        ExprKind::Unary { op, expr } => {
            h.tag(8);
            h.str(&format!("{op:?}"));
            e(expr, h, sh);
        }
        ExprKind::Binary { op, lhs, rhs } => {
            h.tag(9);
            h.str(&format!("{op:?}"));
            e(lhs, h, sh);
            e(rhs, h, sh);
        }
        ExprKind::Call {
            receiver,
            method,
            args,
        } => {
            h.tag(10);
            h.str(method);
            let target = pointsto::resolve_call(
                cx.program,
                cx.table,
                cx.mref,
                cx.decl,
                receiver.as_deref(),
                method,
            );
            match target {
                Some(pointsto::CallTarget::User(callee)) => {
                    sh.callees.insert(callee);
                }
                Some(pointsto::CallTarget::Builtin(_, Some(ty))) if ty.is_reference() => {
                    sh.alloc_classes.insert(ty.to_string());
                }
                _ => {}
            }
            if let Some(r) = receiver {
                h.tag(1);
                e(r, h, sh);
            }
            h.u64(args.len() as u64);
            for a in args {
                e(a, h, sh);
            }
        }
        ExprKind::NewObject { class, args } => {
            h.tag(11);
            h.str(class);
            sh.alloc_classes.insert(class.clone());
            sh.callees.insert(MethodRef::ctor(class, args.len()));
            h.u64(args.len() as u64);
            for a in args {
                e(a, h, sh);
            }
        }
        ExprKind::NewArray { elem, len } => {
            h.tag(12);
            h.str(&elem.to_string());
            sh.alloc_classes
                .insert(elem.clone().array_of().to_string());
            e(len, h, sh);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend;

    /// Extracts the constraint shape of every method (constructors absorb
    /// their class's field initializers) by walking the whole program: the
    /// reference the cached, incrementally extracted shapes must equal.
    fn extract_shapes(program: &Program, table: &ClassTable) -> BTreeMap<MethodRef, MethodShape> {
        let mut out: BTreeMap<MethodRef, MethodShape> = BTreeMap::new();
        for (_, decl, mref) in crate::each_method(program) {
            let sh = shape_of_method(program, table, decl, &mref);
            out.insert(mref, sh);
        }
        for class in &program.classes {
            if let Some((inits_fp, extra)) = init_shape(class, program, table) {
                let entry = out.entry(MethodRef::ctor(&class.name, 0)).or_default();
                merge_inits(entry, inits_fp, extra);
            }
        }
        out
    }

    fn check_delta(src_a: &str, src_b: &str) -> (DeltaOutcome, PointsTo, PointsTo) {
        let (p1, t1) = frontend(src_a).unwrap();
        let (p2, t2) = frontend(src_b).unwrap();
        let ix1 = ProgramIndex::build(&p1, &t1);
        let ix2 = ProgramIndex::build(&p2, &t2);
        let mut cache = PtCache::default();
        let (_, first) = cache.update(&p1, &t1, pointsto::DEFAULT_K, &ix1);
        assert_eq!(first.path, DeltaPath::Cold(ResetCause::NoState));
        let (warm, outcome) = cache.update(&p2, &t2, pointsto::DEFAULT_K, &ix2);
        let cold = pointsto::analyze_k(&p2, &t2, pointsto::DEFAULT_K);
        assert!(
            warm.same_relation(&cold),
            "delta relation diverged from cold solve ({outcome:?})"
        );
        if warm.converged() {
            warm.check_post_fixpoint(&p2, &t2).unwrap();
        }
        (outcome, warm, cold)
    }

    const BASE: &str = "class Item { public int v; Item() { v = 0; } }
         class Box {
             private Item slot;
             Box() { slot = new Item(); }
             Item get() { return slot; }
         }
         class Main {
             public int demo() {
                 Box b = new Box();
                 Item i = b.get();
                 Item keep = i;
                 return 0;
             }
         }";

    #[test]
    fn constant_tweak_takes_the_rebase_path() {
        let edited = BASE.replace("v = 0;", "v = 42;");
        let (outcome, ..) = check_delta(BASE, &edited);
        assert_eq!(outcome.path, DeltaPath::Rebase);
        assert_eq!(outcome.retracted, 0);
        assert_eq!(outcome.added, 0);
    }

    #[test]
    fn noop_revision_takes_the_rebase_path() {
        let shifted = format!("\n\n  {BASE}");
        let (outcome, ..) = check_delta(BASE, &shifted);
        assert_eq!(outcome.path, DeltaPath::Rebase);
        assert_eq!(outcome.retracted, 0);
    }

    #[test]
    fn added_alloc_site_delta_matches_cold() {
        let edited = BASE.replace(
            "Item i = b.get();",
            "Item i = b.get(); Item extra = new Item();",
        );
        let (outcome, ..) = check_delta(BASE, &edited);
        assert_eq!(outcome.path, DeltaPath::Delta);
        assert!(outcome.added > 0);
    }

    #[test]
    fn removed_store_delta_matches_cold() {
        let edited = BASE.replace("Item keep = i;", "int keep = 1;");
        let (outcome, ..) = check_delta(BASE, &edited);
        assert_eq!(outcome.path, DeltaPath::Delta);
    }

    #[test]
    fn changed_call_target_delta_matches_cold() {
        let two_getters = "class Item { public int v; Item() { v = 0; } }
             class Box {
                 private Item slot;
                 private Item spare;
                 Box() { slot = new Item(); spare = new Item(); }
                 Item get() { return slot; }
                 Item alt() { return spare; }
             }
             class Main {
                 public int demo() {
                     Box b = new Box();
                     Item i = b.get();
                     Item keep = i;
                     return 0;
                 }
             }";
        let edited = two_getters.replace("Item i = b.get();", "Item i = b.alt();");
        let (outcome, warm, _) = check_delta(two_getters, &edited);
        assert_eq!(outcome.path, DeltaPath::Delta);
        assert!(outcome.retracted > 0, "old return flow must be retracted");
        let _ = warm;
    }

    #[test]
    fn field_store_edit_delta_matches_cold() {
        let edited = BASE.replace("Box() { slot = new Item(); }", "Box() { }");
        // Removing the only Item allocation changes summary-object
        // eligibility for Item, which is a cold-guard condition.
        let (p1, t1) = frontend(BASE).unwrap();
        let (p2, t2) = frontend(&edited).unwrap();
        let mut cache = PtCache::default();
        cache.update(
            &p1,
            &t1,
            pointsto::DEFAULT_K,
            &ProgramIndex::build(&p1, &t1),
        );
        let (warm, outcome) = cache.update(
            &p2,
            &t2,
            pointsto::DEFAULT_K,
            &ProgramIndex::build(&p2, &t2),
        );
        assert_eq!(
            outcome.path,
            DeltaPath::Cold(ResetCause::SiteClassesChanged)
        );
        let cold = pointsto::analyze_k(&p2, &t2, pointsto::DEFAULT_K);
        assert!(warm.same_relation(&cold));
    }

    #[test]
    fn cross_class_chain_edit_delta_matches_cold() {
        let chain = "class Leaf { public int v; Leaf() { v = 0; } }
             class Mid {
                 private Leaf l;
                 Mid() { l = new Leaf(); }
                 Leaf leaf() { return l; }
             }
             class Top {
                 private Mid m;
                 private Leaf cached;
                 Top() { m = new Mid(); cached = m.leaf(); }
             }
             class Main { public int demo() { Top t = new Top(); return 0; } }";
        let edited = chain.replace(
            "Top() { m = new Mid(); cached = m.leaf(); }",
            "Top() { m = new Mid(); cached = new Leaf(); }",
        );
        let (outcome, ..) = check_delta(chain, &edited);
        assert_eq!(outcome.path, DeltaPath::Delta);
    }

    #[test]
    fn uncalled_flip_delta_matches_cold() {
        let src = "class Cell { public int v; Cell() { v = 0; } }
             class Worker {
                 private Cell c;
                 private Cell d;
                 Worker(Cell x) { c = x; }
                 public int poke(Cell y) { d = y; return 0; }
             }
             class Main {
                 public int demo() {
                     Worker w = new Worker(new Cell());
                     return 1;
                 }
             }";
        // Calling the previously-uncalled `poke` flips its external
        // parameter seeding off without changing the allocation-class
        // set (which would trip the cold guard instead).
        let edited = src.replace("return 1;", "return w.poke(new Cell());");
        assert_ne!(src, edited);
        let (outcome, ..) = check_delta(src, &edited);
        assert_eq!(outcome.path, DeltaPath::Delta);
    }

    #[test]
    fn k_change_takes_the_cold_path() {
        let (p, t) = frontend(BASE).unwrap();
        let ix = ProgramIndex::build(&p, &t);
        let mut cache = PtCache::default();
        cache.update(&p, &t, 1, &ix);
        let (_, outcome) = cache.update(&p, &t, 0, &ix);
        assert_eq!(outcome.path, DeltaPath::Cold(ResetCause::DepthChanged));
    }

    #[test]
    fn incremental_shape_extraction_matches_full() {
        let edited = BASE.replace("Item keep = i;", "Item keep = b.get();");
        let (p1, t1) = frontend(BASE).unwrap();
        let (p2, t2) = frontend(&edited).unwrap();
        let ix1 = ProgramIndex::build(&p1, &t1);
        let ix2 = ProgramIndex::build(&p2, &t2);
        let mut cache = PtCache::default();
        cache.update(&p1, &t1, pointsto::DEFAULT_K, &ix1);
        let (_, outcome) = cache.update(&p2, &t2, pointsto::DEFAULT_K, &ix2);
        assert!(!matches!(outcome.path, DeltaPath::Cold(_)));
        // After the incremental pass the cached syntactic facts must be
        // indistinguishable from a from-scratch extraction.
        let st = cache.state.as_ref().expect("state kept");
        assert_eq!(st.shapes, extract_shapes(&p2, &t2));
        assert_eq!(st.site_classes, pointsto::site_classes(&p2, &t2));
        assert_eq!(st.uncalled, pointsto::uncalled_methods(&p2, &t2));
        assert_eq!(
            st.mkeys,
            ix2.methods.iter().map(|(m, (fp, _))| (m.clone(), *fp)).collect()
        );
    }

    #[test]
    fn constant_tweak_skips_shape_rederivation_but_stays_exact() {
        let tweaked = BASE.replace("return 0;", "return 41;");
        let (p1, t1) = frontend(BASE).unwrap();
        let (p2, t2) = frontend(&tweaked).unwrap();
        let ix1 = ProgramIndex::build(&p1, &t1);
        let ix2 = ProgramIndex::build(&p2, &t2);
        let mut cache = PtCache::default();
        cache.update(&p1, &t1, pointsto::DEFAULT_K, &ix1);
        let (warm, outcome) = cache.update(&p2, &t2, pointsto::DEFAULT_K, &ix2);
        // The raw fingerprint changed but the constant-blind shapes did
        // not: nothing is tainted, the relation is only rebased, and the
        // key map must absorb the new fingerprint so the next no-op run
        // re-extracts nothing.
        assert_eq!(outcome.path, DeltaPath::Rebase);
        let st = cache.state.as_ref().expect("state kept");
        assert_eq!(st.shapes, extract_shapes(&p2, &t2));
        assert_eq!(
            st.mkeys,
            ix2.methods.iter().map(|(m, (fp, _))| (m.clone(), *fp)).collect()
        );
        let cold = pointsto::analyze_k(&p2, &t2, pointsto::DEFAULT_K);
        assert!(warm.same_relation(&cold));
    }

    #[test]
    fn derived_sites_and_uncalled_match_the_walked_sets() {
        let src = "class Helper {
                 public int h;
                 Helper() { h = 0; }
                 public int tick() { return h; }
             }
             class Holder {
                 private Helper eager = new Helper();
                 private int[] buf = new int[4];
                 Holder() { }
                 public Helper grab() { return eager; }
             }
             class Main {
                 public int demo(Helper ext) {
                     Holder d = new Holder();
                     return d.grab().tick();
                 }
             }";
        let (p, t) = frontend(src).unwrap();
        let ix = ProgramIndex::build(&p, &t);
        let shapes = extract_shapes(&p, &t);
        let (sites, uncalled) = derive_sites_uncalled(&shapes, &ix);
        assert_eq!(sites, pointsto::site_classes(&p, &t));
        assert_eq!(uncalled, pointsto::uncalled_methods(&p, &t));
        // Helper() is invoked only from a field initializer; the
        // uncalled walk reads bodies only, so both derivations must
        // agree it stays uncalled.
        assert!(uncalled.contains(&MethodRef::ctor("Helper", 0)));
    }

    #[test]
    fn shape_fp_masks_constants_but_not_structure() {
        let (p1, t1) = frontend(BASE).unwrap();
        let tweaked = BASE.replace("return 0;", "return 7;");
        let (p2, t2) = frontend(&tweaked).unwrap();
        let structural = BASE.replace("Item keep = i;", "Item keep = b.get();");
        let (p3, t3) = frontend(&structural).unwrap();
        let s1 = extract_shapes(&p1, &t1);
        let s2 = extract_shapes(&p2, &t2);
        let s3 = extract_shapes(&p3, &t3);
        let demo = MethodRef::method("Main", "demo");
        assert_eq!(s1[&demo].fp, s2[&demo].fp, "constants are masked");
        assert_ne!(s1[&demo].fp, s3[&demo].fp, "structure is not");
    }

    #[test]
    fn added_method_matches_cold() {
        // A new method changes the class signature table: the one flow
        // resets on that guard before any shape is compared.
        let edited = BASE.replace(
            "Item get() { return slot; }",
            "Item get() { return slot; } Item fresh() { return new Item(); }",
        );
        let (outcome, ..) = check_delta(BASE, &edited);
        assert_eq!(outcome.path, DeltaPath::Cold(ResetCause::SignatureChanged));
    }

    #[test]
    fn removed_method_matches_cold() {
        let with_extra = BASE.replace(
            "Item get() { return slot; }",
            "Item get() { return slot; } Item peek() { return slot; }",
        );
        let (outcome, ..) = check_delta(&with_extra, BASE);
        assert_eq!(outcome.path, DeltaPath::Cold(ResetCause::SignatureChanged));
    }

    /// A holder whose field initializers allocate; `CTOR` is replaced by
    /// an explicit constructor or by nothing.
    const INITS: &str = "class Item { public int v; Item() { v = 0; } }
         class Holder {
             private Item a = new Item();
             private Item b = new Item();
             CTOR
             Item pick() { return b; }
         }
         class Main {
             public int demo() {
                 Holder h = new Holder();
                 Item i = h.pick();
                 Item keep = i;
                 return 0;
             }
         }";

    fn field_init_edit(ctor: &str) -> DeltaOutcome {
        field_init_edit_of(&INITS.replace("CTOR", ctor))
    }

    fn field_init_edit_of(base: &str) -> DeltaOutcome {
        let edited = base.replace("private Item b = new Item();", "private Item b = null;");
        let (outcome, ..) = check_delta(base, &edited);
        outcome
    }

    #[test]
    fn field_initializer_edit_without_a_constructor_takes_the_delta_path() {
        // The initializers belong to the synthetic constructor, which
        // no method key names: the class-context change must taint it.
        let outcome = field_init_edit("");
        assert_eq!(outcome.path, DeltaPath::Delta);
        assert!(outcome.retracted > 0, "the dropped allocation's facts go");
    }

    #[test]
    fn field_initializer_edit_with_a_constructor_takes_the_delta_path() {
        let outcome = field_init_edit("Holder() { }");
        assert_eq!(outcome.path, DeltaPath::Delta);
        assert!(outcome.retracted > 0, "the dropped allocation's facts go");
    }

    #[test]
    fn field_initializer_edit_beside_a_one_argument_constructor_takes_the_delta_path() {
        // The initializers belong to the synthetic arity-0 constructor,
        // which the class does not declare.
        let base = INITS
            .replace("CTOR", "Holder(Item y) { }")
            .replace("new Holder()", "new Holder(null)");
        let outcome = field_init_edit_of(&base);
        assert_eq!(outcome.path, DeltaPath::Delta);
        assert!(outcome.retracted > 0, "the dropped allocation's facts go");
    }

    /// `Holder` with a second, one-argument constructor; `NEW` is the
    /// allocation `Main.demo` makes.
    const OVERLOADED: &str = "class Cell { public int v; Cell() { v = 0; } }
         class Holder {
             private Cell a;
             Holder() { a = null; }
             Holder(Cell y) { a = y; }
         }
         class Main {
             public int demo() {
                 Cell c = new Cell();
                 Holder h = NEW;
                 return 0;
             }
         }";

    /// The objects `Holder.a` may hold in a relation of `OVERLOADED`:
    /// `"Cell"` for the one `Main.demo` allocates, `"extern Cell"` for
    /// the summary of the cells an external caller may pass.
    fn holder_a(pt: &PointsTo) -> BTreeSet<String> {
        let holder = *pt.instances_of("Holder").iter().next().unwrap();
        let targets = pt.field_targets(holder, "a");
        let name = |o: &pointsto::ObjInfo| match o.kind {
            pointsto::ObjKind::Summary => format!("extern {}", o.class),
            _ => o.class.clone(),
        };
        targets.iter().map(|&o| name(pt.object(o))).collect()
    }

    #[test]
    fn adding_a_second_constructor_flows_into_its_parameter() {
        let base = OVERLOADED
            .replace("Holder(Cell y) { a = y; }", "")
            .replace("NEW", "new Holder()");
        let edited = OVERLOADED.replace("NEW", "new Holder(c)");
        let (outcome, warm, _) = check_delta(&base, &edited);
        assert_eq!(outcome.path, DeltaPath::Cold(ResetCause::SignatureChanged));
        assert_eq!(holder_a(&warm), BTreeSet::from(["Cell".to_string()]));
    }

    #[test]
    fn a_call_into_the_second_constructor_takes_the_delta_path() {
        let base = OVERLOADED.replace("NEW", "new Holder()");
        let edited = OVERLOADED.replace("NEW", "new Holder(c)");
        let (outcome, warm, _) = check_delta(&base, &edited);
        assert_eq!(outcome.path, DeltaPath::Delta);
        assert_eq!(holder_a(&warm), BTreeSet::from(["Cell".to_string()]));
        // And back: the uncalled constructor's parameter is seeded by an
        // external caller again.
        let (outcome, warm, _) = check_delta(&edited, &base);
        assert_eq!(outcome.path, DeltaPath::Delta);
        assert!(outcome.retracted > 0);
        let both = ["Cell".to_string(), "extern Cell".to_string()];
        assert_eq!(holder_a(&warm), BTreeSet::from(both));
    }

    /// A method whose body copies one object through `links` locals: each
    /// fixpoint pass moves it one step along the chain.
    fn chain(links: usize) -> String {
        let mut body = String::from("Item x0 = new Item(); ");
        for i in 1..=links {
            body.push_str(&format!("Item x{i} = x{}; ", i - 1));
        }
        format!(
            "class Item {{ public int v; Item() {{ v = 0; }} }}
             class Main {{ public int demo() {{ {body}return 0; }} }}"
        )
    }

    #[test]
    fn an_unconverged_relation_resets_the_next_revision() {
        let src = chain(pointsto::MAX_PASSES + 4);
        let (p, t) = frontend(&src).unwrap();
        let ix = ProgramIndex::build(&p, &t);
        let mut cache = PtCache::default();
        let (first, _) = cache.update(&p, &t, pointsto::DEFAULT_K, &ix);
        assert!(!first.converged());
        let (warm, outcome) = cache.update(&p, &t, pointsto::DEFAULT_K, &ix);
        assert_eq!(outcome.path, DeltaPath::Cold(ResetCause::NotConverged));
        assert!(warm.same_relation(&pointsto::analyze_k(&p, &t, pointsto::DEFAULT_K)));
    }

    #[test]
    fn a_diverging_delta_resets_to_the_empty_relation() {
        // The same class set and signatures, but the edit lengthens the
        // chain past the pass cap: the restricted re-solve diverges.
        let (outcome, warm, _) = check_delta(&chain(2), &chain(pointsto::MAX_PASSES + 4));
        assert_eq!(outcome.path, DeltaPath::Cold(ResetCause::Diverged));
        assert!(!warm.converged());
    }

    #[test]
    fn a_rebase_reports_zero_passes_and_a_delta_only_its_own() {
        let (p1, t1) = frontend(BASE).unwrap();
        let tweaked = BASE.replace("v = 0;", "v = 3;");
        let (p2, t2) = frontend(&tweaked).unwrap();
        let structural = BASE.replace("Item keep = i;", "Item keep = b.get();");
        let (p3, t3) = frontend(&structural).unwrap();
        let mut cache = PtCache::default();
        let (cold, _) = cache.update(
            &p1,
            &t1,
            pointsto::DEFAULT_K,
            &ProgramIndex::build(&p1, &t1),
        );
        assert_eq!(
            cold.passes(),
            pointsto::analyze_k(&p1, &t1, pointsto::DEFAULT_K).passes()
        );
        let (rebased, outcome) = cache.update(
            &p2,
            &t2,
            pointsto::DEFAULT_K,
            &ProgramIndex::build(&p2, &t2),
        );
        assert_eq!(outcome.path, DeltaPath::Rebase);
        assert_eq!(rebased.passes(), 0);
        let (delta, outcome) = cache.update(
            &p3,
            &t3,
            pointsto::DEFAULT_K,
            &ProgramIndex::build(&p3, &t3),
        );
        assert_eq!(outcome.path, DeltaPath::Delta);
        assert!(
            (1..=cold.passes()).contains(&delta.passes()),
            "{}",
            delta.passes()
        );
    }
}
