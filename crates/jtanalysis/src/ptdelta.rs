//! Delta-driven points-to solving across revisions.
//!
//! [`crate::pointsto`] solves a whole-program subset-constraint
//! fixpoint; re-running it after every one-method edit is the single
//! largest cost of a warm re-check. This module makes the solve
//! incremental: [`PtCache`] keeps the previous revision's solved
//! relation together with a per-method **constraint shape** — a
//! constant-blind structural fingerprint plus the syntactic facts that
//! determine which constraints the method contributes (callees, field
//! names touched, allocation classes, class-typed parameters). Shape
//! extraction is itself incremental: when the caller supplies a
//! [`ProgramIndex`] whose method set, signature table, and class
//! contexts match the cache, only methods whose raw fingerprint
//! changed are re-extracted, and the allocation-site and uncalled sets
//! are folded out of the shape map instead of re-walking every body.
//! On the next revision it compares shapes and takes one of three
//! paths:
//!
//! 1. **Rebase** — no method changed shape (an edit touched only
//!    literals, spans, or comments, none of which feed the points-to
//!    constraints): the cached relation is re-keyed onto the new parse
//!    via [`PointsTo::rebase`]. Zero constraints retracted or re-added.
//! 2. **Delta** — some methods changed: a *taint closure* over the
//!    shape graph finds every method whose constraints could read a
//!    changed fact, their constraints are retracted
//!    ([`PointsTo::retract_methods`] / [`PointsTo::retract_fields`]),
//!    and the fixpoint re-runs restricted to the tainted frontier
//!    ([`PointsTo::delta_solve`]). Untainted methods keep their facts.
//! 3. **Cold** — the class signature table, the allocation-class set
//!    (summary-object eligibility), or `k` changed, the cached
//!    relation had not converged, or the restricted re-solve fails to
//!    converge: fall back to a full [`pointsto::analyze_k`].
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
//! enforced by [`PointsTo::same_relation`] against a cold solve in the
//! tests here and the `incremental_properties` proptests.

use crate::fingerprint::{self, Fp, ProgramIndex, StructHasher};
use crate::pointsto::{self, PointsTo};
use crate::MethodRef;
use jtlang::ast::{Block, ClassDecl, Expr, ExprKind, MethodDecl, Program, StmtKind, Type};
use jtlang::resolve::ClassTable;
use std::collections::{BTreeMap, BTreeSet};

/// Which solve path [`PtCache::update`] took for one revision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaPath {
    /// Full cold solve (first revision, or a guard tripped).
    Cold,
    /// Span-only re-key of the cached relation; nothing re-solved.
    Rebase,
    /// Tainted frontier retracted and re-derived.
    Delta,
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
    /// Methods in the taint closure (0 for rebase).
    pub tainted: u64,
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
#[derive(Debug)]
struct CachedPt {
    k: usize,
    sig: Fp,
    site_classes: BTreeSet<String>,
    uncalled: BTreeSet<MethodRef>,
    shapes: BTreeMap<MethodRef, MethodShape>,
    /// Raw per-method fingerprints of the revision the shapes were
    /// extracted from (from [`ProgramIndex::methods`]); empty when the
    /// last update ran without an index.
    mkeys: BTreeMap<MethodRef, Fp>,
    /// Per-class context fingerprints of that revision (covers field
    /// declarations and initializers — the only method-external input
    /// to a shape besides the signature table).
    class_ctx: BTreeMap<String, Fp>,
    pt: PointsTo,
}

/// Cross-revision delta points-to cache. One slot: the evolving
/// program of a refinement session. Lint runs over unrelated programs
/// simply take the cold path each time (the signature guard trips).
#[derive(Debug, Default)]
pub(crate) struct PtCache {
    state: Option<CachedPt>,
}

impl PtCache {
    /// Solves (or incrementally re-solves) the relation for `program`
    /// at depth `k`, returning an owned canonical relation and the
    /// traffic taken to produce it.
    pub(crate) fn update(
        &mut self,
        program: &Program,
        table: &ClassTable,
        k: usize,
        ix: Option<&ProgramIndex>,
    ) -> (PointsTo, DeltaOutcome) {
        let sig = fingerprint::sig_fp(table);
        // Narrow path: the index proves the method set is stable and
        // names which bodies changed, so only those shapes get
        // re-extracted before the rebase/delta machinery runs. An empty
        // changed set is the no-op revision: a pure rebase.
        if let Some(ix) = ix {
            if let Some(outcome) = self.try_incremental(program, table, k, sig, ix) {
                let state = self.state.as_ref().expect("incremental path keeps state");
                return (state.pt.clone(), outcome);
            }
        }
        // Full path: no index, or the cache cannot vouch for the
        // revision (first run, signature or class-context drift,
        // method set churn). Extract every shape and walk every body.
        let shapes = extract_shapes(program, table);
        let site_classes = pointsto::site_classes(program, table);
        let uncalled = pointsto::uncalled_methods(program, table);

        let outcome =
            self.try_warm(program, table, k, sig, &shapes, &site_classes, &uncalled, None);
        let outcome = match outcome {
            Some(o) => o,
            None => {
                let pt = pointsto::analyze_k(program, table, k);
                let added = pt.fact_pairs();
                self.state = Some(CachedPt {
                    k,
                    sig,
                    site_classes: site_classes.clone(),
                    uncalled: uncalled.clone(),
                    shapes: shapes.clone(),
                    mkeys: BTreeMap::new(),
                    class_ctx: BTreeMap::new(),
                    pt,
                });
                DeltaOutcome {
                    path: DeltaPath::Cold,
                    retracted: 0,
                    added,
                    tainted: 0,
                }
            }
        };
        let state = self.state.as_mut().expect("state set on every path");
        state.sig = sig;
        state.site_classes = site_classes;
        state.uncalled = uncalled;
        state.shapes = shapes;
        match ix {
            Some(ix) => {
                state.mkeys =
                    ix.methods.iter().map(|(m, (fp, _))| (m.clone(), *fp)).collect();
                state.class_ctx = ix.class_ctx.clone();
            }
            None => {
                state.mkeys = BTreeMap::new();
                state.class_ctx = BTreeMap::new();
            }
        }
        let pt = state.pt.clone();
        (pt, outcome)
    }

    /// The narrow warm path for an indexed revision whose method set,
    /// signature table, and class contexts all match the cache: only
    /// methods whose raw fingerprint changed get their shape
    /// re-extracted (a shape reads nothing outside its body, its
    /// class's field initializers, and the signature table).
    ///
    /// When every re-extracted shape equals its cached counterpart —
    /// e.g. a literal tweak the constant-blind shape fingerprint masks
    /// — the cached relation is rebased in place without cloning the
    /// shape map or re-deriving the site and uncalled sets. Otherwise
    /// the fresh shapes overlay a copy of the cached map and the
    /// ordinary rebase/delta machinery runs with the changed set as a
    /// seed hint.
    ///
    /// `None` means the cache could not vouch for the revision and the
    /// caller must take the full extraction path.
    fn try_incremental(
        &mut self,
        program: &Program,
        table: &ClassTable,
        k: usize,
        sig: Fp,
        ix: &ProgramIndex,
    ) -> Option<DeltaOutcome> {
        let changed: BTreeSet<MethodRef> = {
            let cached = self.state.as_ref()?;
            if cached.k != k
                || cached.sig != sig
                || cached.mkeys.is_empty()
                || cached.class_ctx != ix.class_ctx
                || cached.mkeys.len() != ix.methods.len()
                || !cached.mkeys.keys().eq(ix.methods.keys())
                || !cached.pt.converged()
            {
                return None;
            }
            ix.methods
                .iter()
                .filter(|(m, (fp, _))| cached.mkeys[*m] != *fp)
                .map(|(m, _)| m.clone())
                .collect()
        };
        let mut fresh: BTreeMap<MethodRef, MethodShape> = BTreeMap::new();
        for (class, decl, mref) in crate::each_method(program) {
            if !changed.contains(&mref) {
                continue;
            }
            let mut sh = shape_of_method(program, table, decl, &mref);
            if mref.is_ctor {
                if let Some((inits_fp, extra)) = init_shape(class, program, table) {
                    merge_inits(&mut sh, inits_fp, extra);
                }
            }
            fresh.insert(mref, sh);
        }
        let identical = {
            let cached = self.state.as_ref().expect("guarded above");
            fresh.iter().all(|(m, sh)| cached.shapes.get(m) == Some(sh))
        };
        if identical {
            let cached = self.state.as_mut().expect("guarded above");
            if !cached.pt.rebase(program, table) {
                return None;
            }
            for m in changed {
                if let Some((fp, _)) = ix.methods.get(&m) {
                    cached.mkeys.insert(m, *fp);
                }
            }
            return Some(DeltaOutcome {
                path: DeltaPath::Rebase,
                retracted: 0,
                added: 0,
                tainted: 0,
            });
        }
        let mut shapes = self.state.as_ref().expect("guarded above").shapes.clone();
        for (m, sh) in fresh {
            shapes.insert(m, sh);
        }
        let (site_classes, uncalled) = derive_sites_uncalled(&shapes, ix);
        let outcome = self.try_warm(
            program,
            table,
            k,
            sig,
            &shapes,
            &site_classes,
            &uncalled,
            Some(&changed),
        )?;
        let state = self.state.as_mut().expect("warm path keeps state");
        state.site_classes = site_classes;
        state.uncalled = uncalled;
        state.shapes = shapes;
        for m in changed {
            if let Some((fp, _)) = ix.methods.get(&m) {
                state.mkeys.insert(m, *fp);
            }
        }
        Some(outcome)
    }

    /// Attempts the rebase or delta path; `None` means cold.
    #[allow(clippy::too_many_arguments)]
    fn try_warm(
        &mut self,
        program: &Program,
        table: &ClassTable,
        k: usize,
        sig: Fp,
        shapes: &BTreeMap<MethodRef, MethodShape>,
        site_classes: &BTreeSet<String>,
        uncalled: &BTreeSet<MethodRef>,
        changed: Option<&BTreeSet<MethodRef>>,
    ) -> Option<DeltaOutcome> {
        let cached = self.state.as_mut()?;
        if cached.k != k
            || cached.sig != sig
            || cached.site_classes != *site_classes
            || !cached.pt.converged()
        {
            return None;
        }
        // Seed: methods whose constraint shape changed, plus
        // added/removed methods and uncalled-status flips (seeding is
        // part of a method's constraints). When the shape pass already
        // narrowed the candidates (method sets equal, only `changed`
        // bodies differ), only those shapes need comparing.
        let mut tainted: BTreeSet<MethodRef> = BTreeSet::new();
        match changed {
            Some(ch) => {
                for m in ch {
                    if cached.shapes.get(m).map(|o| o.fp) != shapes.get(m).map(|s| s.fp) {
                        tainted.insert(m.clone());
                    }
                }
            }
            None => {
                for (m, s) in shapes {
                    if cached.shapes.get(m).map(|o| o.fp) != Some(s.fp) {
                        tainted.insert(m.clone());
                    }
                }
                for m in cached.shapes.keys() {
                    if !shapes.contains_key(m) {
                        tainted.insert(m.clone());
                    }
                }
            }
        }
        for m in cached.uncalled.symmetric_difference(uncalled) {
            tainted.insert(m.clone());
        }
        if tainted.is_empty() {
            if !cached.pt.rebase(program, table) {
                return None;
            }
            return Some(DeltaOutcome {
                path: DeltaPath::Rebase,
                retracted: 0,
                added: 0,
                tainted: 0,
            });
        }

        let edges = TaintEdges::build(&cached.shapes, shapes, &cached.uncalled, uncalled, table);
        let mut fields: BTreeSet<String> = BTreeSet::new();
        let mut retracted = 0u64;
        // Summary objects exist for classes without allocation sites
        // (guarded above) *and* for parameter classes of uncalled
        // methods; an uncalled→called flip can strand one. Delete any
        // the new revision would not create.
        let expected = expected_summaries(program, table, site_classes, shapes, uncalled);
        let stale: BTreeSet<String> = cached
            .pt
            .summary_of_class
            .keys()
            .filter(|c| !expected.contains(*c))
            .cloned()
            .collect();
        if !stale.is_empty() {
            let r = cached.pt.retract_summaries(&stale);
            retracted += r.facts_removed;
            tainted.extend(r.implicated_methods);
            fields.extend(r.implicated_fields);
        }
        // Closure, retraction, and the prune-feedback loop: retraction
        // reports surviving sets that lost an object, whose owners
        // must also re-derive.
        loop {
            edges.close(&mut tainted, &mut fields);
            let r = cached.pt.retract_methods(&tainted);
            retracted += r.facts_removed;
            retracted += cached.pt.retract_fields(&fields);
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
        if !cached.pt.rebase(program, table) {
            return None;
        }
        let baseline = cached.pt.fact_pairs();
        if !cached.pt.delta_solve(program, table, &tainted, uncalled) {
            return None;
        }
        Some(DeltaOutcome {
            path: DeltaPath::Delta,
            retracted,
            added: cached.pt.fact_pairs() - baseline,
            tainted: tainted.len() as u64,
        })
    }
}

/// Reverse indexes over the old and new shape maps, used to close the
/// taint set.
struct TaintEdges {
    /// Callee → callers (both revisions).
    callers: BTreeMap<MethodRef, BTreeSet<MethodRef>>,
    /// Field name → methods touching it (both revisions).
    touchers: BTreeMap<String, BTreeSet<MethodRef>>,
    /// Class → methods declared by it (both revisions).
    by_class: BTreeMap<String, BTreeSet<MethodRef>>,
    /// Uncalled methods of either revision, with their parameter
    /// classes.
    ext_params: Vec<(MethodRef, BTreeSet<String>)>,
    /// Merged shapes: old ∪ new (new wins; removed methods keep their
    /// old shape so their edges still fire).
    merged: BTreeMap<MethodRef, MethodShape>,
    /// `(allocated class, superclass)` pairs, precomputed from the
    /// class table.
    supers: BTreeMap<String, BTreeSet<String>>,
}

impl TaintEdges {
    fn build(
        old: &BTreeMap<MethodRef, MethodShape>,
        new: &BTreeMap<MethodRef, MethodShape>,
        old_uncalled: &BTreeSet<MethodRef>,
        new_uncalled: &BTreeSet<MethodRef>,
        table: &ClassTable,
    ) -> TaintEdges {
        let mut merged: BTreeMap<MethodRef, MethodShape> = old.clone();
        for (m, s) in new {
            match merged.get_mut(m) {
                // A method present in both revisions closes over the
                // UNION of its old and new facts: an edit that removes
                // a call or field access must still taint the old
                // callee / field, whose derived facts the edit
                // invalidates.
                Some(o) => {
                    o.callees.extend(s.callees.iter().cloned());
                    o.fields.extend(s.fields.iter().cloned());
                    o.alloc_classes.extend(s.alloc_classes.iter().cloned());
                    o.param_classes.extend(s.param_classes.iter().cloned());
                }
                None => {
                    merged.insert(m.clone(), s.clone());
                }
            }
        }
        let mut callers: BTreeMap<MethodRef, BTreeSet<MethodRef>> = BTreeMap::new();
        let mut touchers: BTreeMap<String, BTreeSet<MethodRef>> = BTreeMap::new();
        let mut by_class: BTreeMap<String, BTreeSet<MethodRef>> = BTreeMap::new();
        let mut classes: BTreeSet<String> = BTreeSet::new();
        for (m, s) in old.iter().chain(new.iter()) {
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
        let ext_params = old_uncalled
            .union(new_uncalled)
            .filter_map(|m| {
                let params = merged.get(m)?.param_classes.clone();
                (!params.is_empty()).then_some((m.clone(), params))
            })
            .collect();
        TaintEdges {
            callers,
            touchers,
            by_class,
            ext_params,
            merged,
            supers,
        }
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
                if let Some(s) = self.merged.get(&m) {
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

/// The summary-object classes a cold solve of this revision would
/// create: classes with no in-program allocation site, plus
/// (non-builtin) parameter classes of uncalled methods.
fn expected_summaries(
    program: &Program,
    table: &ClassTable,
    site_classes: &BTreeSet<String>,
    shapes: &BTreeMap<MethodRef, MethodShape>,
    uncalled: &BTreeSet<MethodRef>,
) -> BTreeSet<String> {
    let mut out: BTreeSet<String> = program
        .classes
        .iter()
        .filter(|c| !site_classes.iter().any(|s| table.is_subclass_of(s, &c.name)))
        .map(|c| c.name.clone())
        .collect();
    for m in uncalled {
        if let Some(s) = shapes.get(m) {
            for cn in &s.param_classes {
                if !table.class(cn).is_some_and(|c| c.is_builtin) {
                    out.insert(cn.clone());
                }
            }
        }
    }
    out
}

/// Extracts the constraint shape of every method (constructors absorb
/// their class's field initializers).
fn extract_shapes(program: &Program, table: &ClassTable) -> BTreeMap<MethodRef, MethodShape> {
    let mut out: BTreeMap<MethodRef, MethodShape> = BTreeMap::new();
    for (_, decl, mref) in crate::each_method(program) {
        let sh = shape_of_method(program, table, decl, &mref);
        out.insert(mref, sh);
    }
    for class in &program.classes {
        if let Some((inits_fp, extra)) = init_shape(class, program, table) {
            let entry = out.entry(MethodRef::ctor(&class.name)).or_default();
            merge_inits(entry, inits_fp, extra);
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
    h.str(&mref.class);
    h.str(&mref.method);
    h.bool(mref.is_ctor);
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
    blind_block(&decl.body, program, table, mref, &locals, &mut h, &mut sh);
    sh.fp = h.finish();
    sh.body_called = sh.callees.clone();
    sh
}

/// The shape contribution of one class's field initializers (`None`
/// when it has none). The fingerprint and facts are merged into the
/// class's constructor entry by [`merge_inits`].
fn init_shape(class: &ClassDecl, program: &Program, table: &ClassTable) -> Option<(Fp, MethodShape)> {
    let inits: Vec<(&str, &Expr)> = class
        .fields
        .iter()
        .filter_map(|f| Some((f.name.as_str(), f.init.as_ref()?)))
        .collect();
    if inits.is_empty() {
        return None;
    }
    let ctor = MethodRef::ctor(&class.name);
    let mut h = StructHasher::new();
    let mut extra = MethodShape::default();
    let locals = BTreeSet::new();
    for (name, init) in inits {
        h.str(name);
        extra.fields.insert(name.to_string());
        blind_expr(init, program, table, &ctor, &locals, &mut h, &mut extra);
    }
    Some((h.finish(), extra))
}

/// Folds a class's field-initializer contribution into its
/// constructor's shape. `body_called` is deliberately left alone:
/// initializer calls do not make a method "called" in
/// [`pointsto::uncalled_methods`], which walks bodies only.
fn merge_inits(entry: &mut MethodShape, inits_fp: Fp, extra: MethodShape) {
    entry.fp = fingerprint::combine(&[entry.fp, inits_fp]);
    entry.callees.extend(extra.callees);
    entry.fields.extend(extra.fields);
    entry.alloc_classes.extend(extra.alloc_classes);
}

/// Recovers the allocation-site class set and the uncalled set from a
/// shape map, without re-walking any method body. Equivalent to
/// [`pointsto::site_classes`] / [`pointsto::uncalled_methods`]: shape
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

fn blind_block(
    block: &Block,
    program: &Program,
    table: &ClassTable,
    mref: &MethodRef,
    locals: &BTreeSet<&str>,
    h: &mut StructHasher,
    sh: &mut MethodShape,
) {
    h.u64(block.stmts.len() as u64);
    for stmt in &block.stmts {
        blind_stmt(stmt, program, table, mref, locals, h, sh);
    }
}

fn blind_stmt(
    stmt: &jtlang::ast::Stmt,
    program: &Program,
    table: &ClassTable,
    mref: &MethodRef,
    locals: &BTreeSet<&str>,
    h: &mut StructHasher,
    sh: &mut MethodShape,
) {
    let e = |expr: &Expr, h: &mut StructHasher, sh: &mut MethodShape| {
        blind_expr(expr, program, table, mref, locals, h, sh);
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
                ExprKind::Var(name) if !locals.contains(name.as_str()) => {
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
            blind_stmt(then_branch, program, table, mref, locals, h, sh);
            if let Some(eb) = else_branch {
                h.tag(1);
                blind_stmt(eb, program, table, mref, locals, h, sh);
            }
        }
        StmtKind::While { cond, body } => {
            h.tag(4);
            e(cond, h, sh);
            blind_stmt(body, program, table, mref, locals, h, sh);
        }
        StmtKind::DoWhile { body, cond } => {
            h.tag(5);
            blind_stmt(body, program, table, mref, locals, h, sh);
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
                blind_stmt(i, program, table, mref, locals, h, sh);
            }
            if let Some(c) = cond {
                h.tag(1);
                e(c, h, sh);
            }
            if let Some(u) = update {
                h.tag(1);
                blind_stmt(u, program, table, mref, locals, h, sh);
            }
            blind_stmt(body, program, table, mref, locals, h, sh);
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
            blind_block(b, program, table, mref, locals, h, sh);
        }
    }
}

fn blind_expr(
    expr: &Expr,
    program: &Program,
    table: &ClassTable,
    mref: &MethodRef,
    locals: &BTreeSet<&str>,
    h: &mut StructHasher,
    sh: &mut MethodShape,
) {
    let e = |expr: &Expr, h: &mut StructHasher, sh: &mut MethodShape| {
        blind_expr(expr, program, table, mref, locals, h, sh);
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
            if !locals.contains(name.as_str()) {
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
            match pointsto::resolve_call(program, table, mref, receiver.as_deref(), method) {
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
            sh.callees.insert(MethodRef::ctor(class));
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

    fn check_delta(src_a: &str, src_b: &str) -> (DeltaOutcome, PointsTo, PointsTo) {
        let (p1, t1) = frontend(src_a).unwrap();
        let (p2, t2) = frontend(src_b).unwrap();
        let ix1 = ProgramIndex::build(&p1, &t1);
        let ix2 = ProgramIndex::build(&p2, &t2);
        let mut cache = PtCache::default();
        let (_, first) = cache.update(&p1, &t1, pointsto::DEFAULT_K, Some(&ix1));
        assert_eq!(first.path, DeltaPath::Cold);
        let (warm, outcome) = cache.update(&p2, &t2, pointsto::DEFAULT_K, Some(&ix2));
        let cold = pointsto::analyze_k(&p2, &t2, pointsto::DEFAULT_K);
        assert!(
            warm.same_relation(&cold),
            "delta relation diverged from cold solve ({outcome:?})"
        );
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
        cache.update(&p1, &t1, pointsto::DEFAULT_K, None);
        let (warm, outcome) = cache.update(&p2, &t2, pointsto::DEFAULT_K, None);
        assert_eq!(outcome.path, DeltaPath::Cold);
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
        let mut cache = PtCache::default();
        cache.update(&p, &t, 1, None);
        let (_, outcome) = cache.update(&p, &t, 0, None);
        assert_eq!(outcome.path, DeltaPath::Cold);
    }

    #[test]
    fn incremental_shape_extraction_matches_full() {
        let edited = BASE.replace("Item keep = i;", "Item keep = b.get();");
        let (p1, t1) = frontend(BASE).unwrap();
        let (p2, t2) = frontend(&edited).unwrap();
        let ix1 = ProgramIndex::build(&p1, &t1);
        let ix2 = ProgramIndex::build(&p2, &t2);
        let mut cache = PtCache::default();
        cache.update(&p1, &t1, pointsto::DEFAULT_K, Some(&ix1));
        let (_, outcome) = cache.update(&p2, &t2, pointsto::DEFAULT_K, Some(&ix2));
        assert_ne!(outcome.path, DeltaPath::Cold);
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
        cache.update(&p1, &t1, pointsto::DEFAULT_K, Some(&ix1));
        let (warm, outcome) = cache.update(&p2, &t2, pointsto::DEFAULT_K, Some(&ix2));
        // The raw fingerprint changed (so the fast path is off) but
        // the constant-blind shapes did not: the identical branch must
        // rebase without touching the shape map, and the key map must
        // absorb the new fingerprint so the next no-op run fast-paths.
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
        assert!(uncalled.contains(&MethodRef::ctor("Helper")));
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
}
