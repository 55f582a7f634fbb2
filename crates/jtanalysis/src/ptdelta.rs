//! Delta-driven points-to solving across revisions.
//!
//! [`crate::pointsto`] solves a whole-program subset-constraint
//! fixpoint; re-running it after every one-method edit is the single
//! largest cost of a warm re-check. This module makes the solve
//! incremental: [`PtCache`] keeps the previous revision's solved
//! relation together with a per-method **constraint shape** — a
//! constant-blind structural fingerprint plus the syntactic facts that
//! determine which constraints the method contributes (callees, heap
//! keys touched, allocation classes, class-typed parameters) — and the
//! reverse indexes, allocation sites, and local names derived from the
//! shapes, each updated for the changed methods only.
//!
//! Every revision takes one flow ([`PtCache::update`]):
//!
//! 1. **Changed methods** — from the revision's [`ProgramIndex`], in
//!    one merged pass over its sorted keys and the cached ones: the
//!    methods whose key differs, methods added or removed, and every
//!    method of a class whose context fingerprint changed (it covers
//!    the field initializers, which the class's arity-0, possibly
//!    synthetic, constructor owns). With no cached state, every
//!    method.
//! 2. **Shapes** — only the changed shapes are re-extracted, and only
//!    their entries of the reverse indexes, the per-method sites, and
//!    the allocation-class and call counts (whose zeroes are the
//!    site-class and uncalled sets) are replaced.
//! 3. **Reset** — the relation goes back to empty, and every method is
//!    solved, for a typed [`ResetCause`]: no cached state, a changed
//!    depth `k`, a changed class signature table, classes declared in
//!    another order, a changed allocation-class set (summary-object
//!    eligibility), a change of heap-key kind, a cached relation that
//!    had not converged, a surviving site that vanished on rebase, or a
//!    restricted re-solve that diverged.
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
//! callees (argument/return flows), every heap key it touches and every
//! toucher of an overlapping key, every method of every superclass of a
//! class it allocates (instance sets, receiver contexts, and `this`
//! sets of those classes change when allocations change), and every
//! uncalled method with a parameter the allocation could flow into
//! (external-parameter seeding reads instance sets). Heap facts are not
//! attributed to a writer, so every slot of a tainted key is cleared
//! and every toucher re-derives it. A key ([`pointsto::HeapKey`]) names
//! a field by its declaring class, resolved from the static type of the
//! accessed object, and fields and array elements that cannot hold a
//! reference have none; when static types do not bound the relation
//! (see [`pointsto::KeyRule`]) keys fall back to the field name alone.
//! With typed keys a method that cannot derive a fact — it allocates
//! nothing, has no reference parameter, and moves no value that is not
//! provably primitive — owns none, so the closure neither adds nor
//! expands it: its edges carry nothing. Retraction then reports back which *surviving* constraint sets lost
//! an object; the owning methods and slot keys join the taint and the
//! closure re-runs until no retained fact mentions a retracted object.
//! Batch ≡ incremental is enforced by [`PointsTo::same_relation`]
//! against [`pointsto::analyze_k`] in the tests here and the
//! `incremental_properties` proptests, which also check every warm
//! relation with [`PointsTo::check_post_fixpoint`]. The re-derivation
//! visits the tainted methods and sites in declaration order, as the
//! cold solve does: a call whose receiver set is still empty flows into
//! every receiver context, so the order decides which facts that
//! fallback sees. For the same reason the cold relation of a program
//! depends on the order its classes are declared in, and a revision
//! that only reorders them resets.
//!
//! The solved relation is shared ([`Arc`]) with the report the
//! database hands out; the next revision copies it only if a report
//! still holds it when it changes.

use crate::fingerprint::{self, Fp, ProgramIndex, StructHasher};
use crate::pointsto::{self, HeapKey, KeyRule, PointsTo, PtChange, Site};
use crate::MethodRef;
use jtlang::ast::{Block, ClassDecl, Expr, ExprKind, MethodDecl, Program, StmtKind, Type};
use jtlang::resolve::ClassTable;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

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
    /// The classes are declared in another order, which the solve
    /// visits them in.
    ClassesReordered,
    /// The set of allocation-site classes changed, and with it which
    /// classes get a summary object.
    SiteClassesChanged,
    /// Heap keys switched between typed and by-name
    /// ([`pointsto::KeyRule`]), so every shape is re-extracted.
    KeyingChanged,
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
            ResetCause::ClassesReordered => "classes_reordered",
            ResetCause::SiteClassesChanged => "site_classes_changed",
            ResetCause::KeyingChanged => "keying_changed",
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
    /// Methods re-derived: the taint closure of a delta, every method
    /// of a cold solve, none for a rebase.
    pub tainted: u64,
    /// Heap keys whose slots a delta cleared (0 otherwise).
    pub taint_fields: u64,
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
    /// Heap keys read or written ([`pointsto::KeyRule`]), including
    /// implicit-`this` accesses.
    fields: BTreeSet<HeapKey>,
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
    /// The method gives one local name two types (a parameter counts),
    /// or a field initializer it owns reads one of its locals: the
    /// relation keeps one variable per name, so static types stop
    /// bounding it and keys cannot be typed.
    mixed_locals: bool,
    /// The method may derive a points-to fact: it allocates, has a
    /// reference parameter, or moves a value that is not provably
    /// primitive — an argument, an initializer, an assigned or returned
    /// value. A method that cannot (with typed keys only: by-name keys
    /// do not trust static types) owns no fact, so re-deriving it is a
    /// no-op and its edges carry nothing.
    flows: bool,
}

/// Reverse indexes and counts over a set of shapes, kept up to date
/// shape by shape.
#[derive(Debug, Default)]
struct ShapeIndex {
    /// Callee → callers.
    callers: BTreeMap<MethodRef, BTreeSet<MethodRef>>,
    /// Heap key → methods touching it.
    touchers: BTreeMap<HeapKey, BTreeSet<MethodRef>>,
    /// Class → methods declared by it.
    by_class: BTreeMap<String, BTreeSet<MethodRef>>,
    /// Parameter class → methods with a parameter of that class.
    by_param: BTreeMap<String, BTreeSet<MethodRef>>,
    /// Allocation class → shapes allocating it: the keys are the
    /// site-class set.
    allocs: BTreeMap<String, usize>,
    /// Callee → shapes whose body calls it: a method without an entry
    /// is uncalled.
    calls: BTreeMap<MethodRef, usize>,
}

impl ShapeIndex {
    fn add(&mut self, m: &MethodRef, s: &MethodShape) {
        fn link<K: Ord + Clone>(map: &mut BTreeMap<K, BTreeSet<MethodRef>>, k: &K, m: &MethodRef) {
            map.entry(k.clone()).or_default().insert(m.clone());
        }
        for c in &s.callees {
            link(&mut self.callers, c, m);
        }
        for f in &s.fields {
            link(&mut self.touchers, f, m);
        }
        link(&mut self.by_class, &m.class, m);
        for p in &s.param_classes {
            link(&mut self.by_param, p, m);
        }
        for a in &s.alloc_classes {
            *self.allocs.entry(a.clone()).or_default() += 1;
        }
        for c in &s.body_called {
            *self.calls.entry(c.clone()).or_default() += 1;
        }
    }

    fn remove(&mut self, m: &MethodRef, s: &MethodShape) {
        fn unlink<K: Ord>(map: &mut BTreeMap<K, BTreeSet<MethodRef>>, k: &K, m: &MethodRef) {
            if let Some(set) = map.get_mut(k) {
                set.remove(m);
                if set.is_empty() {
                    map.remove(k);
                }
            }
        }
        fn uncount<K: Ord>(map: &mut BTreeMap<K, usize>, k: &K) {
            if let Some(n) = map.get_mut(k) {
                *n -= 1;
                if *n == 0 {
                    map.remove(k);
                }
            }
        }
        for c in &s.callees {
            unlink(&mut self.callers, c, m);
        }
        for f in &s.fields {
            unlink(&mut self.touchers, f, m);
        }
        unlink(&mut self.by_class, &m.class, m);
        for p in &s.param_classes {
            unlink(&mut self.by_param, p, m);
        }
        for a in &s.alloc_classes {
            uncount(&mut self.allocs, a);
        }
        for c in &s.body_called {
            uncount(&mut self.calls, c);
        }
    }
}

/// Cached state of the previous revision.
#[derive(Debug, Default)]
struct CachedPt {
    k: usize,
    sig: Fp,
    /// The shapes carry typed keys ([`pointsto::KeyRule`]).
    typed: bool,
    /// The class table hides a field, so keys are never typed.
    hides_fields: bool,
    /// Shapes with [`MethodShape::mixed_locals`] set.
    mixed: usize,
    shapes: BTreeMap<MethodRef, MethodShape>,
    index: ShapeIndex,
    uncalled: BTreeSet<MethodRef>,
    /// Each method's allocation and builtin sites with their
    /// expressions' pre-order indices, moved to a revision through its
    /// [`crate::fingerprint::NodeMap`]; keyed by declaration position
    /// ([`pointsto::member_at`]), so they list in a cold solve's order.
    sites: BTreeMap<(usize, usize), Vec<(usize, Site)>>,
    /// The classes in declaration order, which the positions index. An
    /// unchanged signature table fixes each class's members, but not
    /// the order of the classes; another order resets.
    class_order: Vec<String>,
    /// Raw per-method fingerprints of the revision the shapes were
    /// extracted from (from [`ProgramIndex::methods`]).
    mkeys: BTreeMap<MethodRef, Fp>,
    /// Per-class context fingerprints of that revision (covers field
    /// declarations and initializers — the only method-external input
    /// to a shape besides the signature table).
    class_ctx: BTreeMap<String, Fp>,
    pt: Arc<PointsTo>,
}

/// What bringing the shapes to a revision changed.
#[derive(Debug, Default)]
struct ShapeSync {
    /// The methods whose shape changed.
    reshaped: Vec<MethodRef>,
    /// Methods whose shape fingerprint changed, or whose uncalled
    /// status flipped (seeding is part of a method's constraints).
    tainted: BTreeSet<MethodRef>,
    /// The previous shapes of the methods whose shape changed.
    old_shapes: BTreeMap<MethodRef, MethodShape>,
    /// Methods whose uncalled status flipped.
    flipped: BTreeSet<MethodRef>,
    /// The set of allocation-site classes changed.
    site_classes_changed: bool,
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
    /// at depth `k`, given its index `ix`, returning the canonical
    /// relation — shared with the cache, which copies it only when a
    /// later revision changes it while the caller still holds it — and
    /// the traffic taken to produce it, and what changed from the
    /// relation of the previous revision. The one flow of the module doc.
    pub(crate) fn update(
        &mut self,
        program: &Program,
        table: &ClassTable,
        k: usize,
        ix: &ProgramIndex,
    ) -> (Arc<PointsTo>, DeltaOutcome, PtChange) {
        let mut reset = match &self.state {
            None => Some(ResetCause::NoState),
            Some(st) if st.k != k => Some(ResetCause::DepthChanged),
            Some(st) if st.sig != ix.sig => Some(ResetCause::SignatureChanged),
            Some(st) if !program.classes.iter().map(|c| &c.name).eq(&st.class_order) => {
                Some(ResetCause::ClassesReordered)
            }
            Some(st) if !st.pt.converged() => Some(ResetCause::NotConverged),
            Some(_) => None,
        };
        let st = self.state.get_or_insert_with(CachedPt::default);
        if reset.is_some() {
            *st = CachedPt::fresh(program, table, k, ix.sig, None);
        }

        // 1. The changed methods; 2. their shapes.
        let mut sync = st.sync(program, table, ix);
        let typed = !st.hides_fields && st.mixed == 0;
        if typed != st.typed {
            reset.get_or_insert(ResetCause::KeyingChanged);
            *st = CachedPt::fresh(program, table, k, ix.sig, Some(typed));
            sync = st.sync(program, table, ix);
        }
        if reset.is_none() && sync.site_classes_changed {
            reset = Some(ResetCause::SiteClassesChanged);
        }

        // 3. Reset, or 4. taint, retract, rebase, solve.
        let before = Arc::clone(&st.pt);
        let warm = match reset {
            Some(cause) => Err(cause),
            None => st.resolve(program, table, ix, sync),
        };
        let outcome = warm.unwrap_or_else(|cause| {
            let sites = st.revision_sites(program, table, ix);
            st.pt = Arc::new(pointsto::solve_cold(program, table, k, &sites, &st.uncalled));
            DeltaOutcome {
                path: DeltaPath::Cold(cause),
                retracted: 0,
                added: st.pt.fact_pairs(),
                tainted: st.shapes.len() as u64,
                taint_fields: 0,
            }
        });
        let change = match outcome.path {
            DeltaPath::Cold(_) => PtChange::All,
            DeltaPath::Rebase => PtChange::Unchanged,
            DeltaPath::Delta => st.pt.changes_since(&before),
        };
        (Arc::clone(&st.pt), outcome, change)
    }
}

impl CachedPt {
    /// Empty state for `program` and its `table` (with signature
    /// fingerprint `sig`) at depth `k`, with typed keys unless the
    /// table hides a field or `typed` says otherwise.
    fn fresh(
        program: &Program,
        table: &ClassTable,
        k: usize,
        sig: Fp,
        typed: Option<bool>,
    ) -> CachedPt {
        let hides_fields = pointsto::hides_fields(table);
        CachedPt {
            k,
            sig,
            hides_fields,
            typed: typed.unwrap_or(!hides_fields),
            class_order: program.classes.iter().map(|c| c.name.clone()).collect(),
            ..CachedPt::default()
        }
    }

    /// The methods whose constraint shape may differ in the revision
    /// `ix` indexes: key changed, added or removed, or of a class whose
    /// context changed — including its arity-0 constructor, which owns
    /// the field initializers even when the class declares none.
    fn changed_methods(&self, ix: &ProgramIndex) -> BTreeSet<MethodRef> {
        let classes: BTreeSet<&String> = ix
            .class_ctx
            .keys()
            .chain(self.class_ctx.keys())
            .filter(|c| ix.class_ctx.get(*c) != self.class_ctx.get(*c))
            .collect();
        let mut changed: BTreeSet<MethodRef> =
            classes.iter().map(|c| MethodRef::ctor(*c, 0)).collect();
        // Both key maps are sorted: one merged pass compares them.
        let mut new = ix.methods.iter().map(|(m, (fp, _))| (m, fp)).peekable();
        let mut old = self.mkeys.iter().peekable();
        loop {
            let (m, same) = match (new.peek().copied(), old.peek().copied()) {
                (None, None) => break,
                (Some((a, fa)), Some((b, fb))) if a == b => {
                    new.next();
                    old.next();
                    (a, fa == fb)
                }
                (Some((a, _)), Some((b, _))) if b < a => {
                    old.next();
                    (b, false)
                }
                (Some((a, _)), _) => {
                    new.next();
                    (a, false)
                }
                (None, Some((b, _))) => {
                    old.next();
                    (b, false)
                }
            };
            if !same || classes.contains(&m.class) {
                changed.insert(m.clone());
            }
        }
        changed
    }

    /// Steps 1 and 2 of the flow: brings the shapes, the indexes over
    /// them, the uncalled set, and the per-method sites to the revision
    /// `ix` indexes, re-extracting the changed methods only.
    fn sync(&mut self, program: &Program, table: &ClassTable, ix: &ProgramIndex) -> ShapeSync {
        let changed = self.changed_methods(ix);
        let full = self.mkeys.is_empty();
        self.class_ctx.clone_from(&ix.class_ctx);
        let keys = KeyRule {
            table,
            typed: self.typed,
        };
        let mut out = ShapeSync::default();
        let mut callees: BTreeSet<MethodRef> = BTreeSet::new();
        // Whether each allocation class a changed shape names had a
        // site before the first change to it.
        let mut had_sites: BTreeMap<String, bool> = BTreeMap::new();
        for m in changed {
            match ix.methods.get(&m) {
                Some((fp, _)) => self.mkeys.insert(m.clone(), *fp),
                None => self.mkeys.remove(&m),
            };
            let at = pointsto::member_at(program, &m);
            if let Some((pos, decl)) = at {
                let sites = pointsto::method_sites(program, table, decl, &m);
                if sites.is_empty() {
                    self.sites.remove(&pos);
                } else {
                    self.sites.insert(pos, sites);
                }
            }
            let decl = at.map(|(_, d)| d);
            let new = shape_of(program, keys, &m, decl);
            let old = self.shapes.get(&m);
            // Equal shapes (e.g. a literal tweak the constant-blind
            // fingerprint masks) taint nothing.
            if old == new.as_ref() {
                continue;
            }
            out.reshaped.push(m.clone());
            if old.map(|o| o.fp) != new.as_ref().map(|s| s.fp) {
                out.tainted.insert(m.clone());
            }
            for s in old.iter().copied().chain(new.as_ref()) {
                callees.extend(s.body_called.iter().cloned());
                for a in &s.alloc_classes {
                    if !had_sites.contains_key(a) {
                        had_sites.insert(a.clone(), self.index.allocs.contains_key(a));
                    }
                }
            }
            if let Some(old) = old {
                self.index.remove(&m, old);
                self.mixed -= usize::from(old.mixed_locals);
            }
            let old = match new {
                Some(new) => {
                    self.index.add(&m, &new);
                    self.mixed += usize::from(new.mixed_locals);
                    self.shapes.insert(m.clone(), new)
                }
                None => self.shapes.remove(&m),
            };
            if let Some(old) = old {
                out.old_shapes.insert(m, old);
            }
        }
        out.site_classes_changed = had_sites
            .iter()
            .any(|(a, &had)| had != self.index.allocs.contains_key(a));
        // The uncalled set: the indexed methods no body calls.
        if full {
            self.uncalled = ix
                .methods
                .keys()
                .filter(|m| !self.index.calls.contains_key(*m))
                .cloned()
                .collect();
        } else {
            for m in callees.into_iter().filter(|m| ix.methods.contains_key(m)) {
                let uncalled = !self.index.calls.contains_key(&m);
                if uncalled != self.uncalled.contains(&m) {
                    if uncalled {
                        self.uncalled.insert(m.clone());
                    } else {
                        self.uncalled.remove(&m);
                    }
                    out.tainted.insert(m.clone());
                    out.flipped.insert(m);
                }
            }
        }
        out
    }

    /// The revision's allocation and builtin sites: the cached
    /// per-method sites moved to their places in the revision, plus the
    /// field initializers' sites.
    fn revision_sites(
        &self,
        program: &Program,
        table: &ClassTable,
        ix: &ProgramIndex,
    ) -> Vec<Site> {
        let mut out = Vec::new();
        for sites in self.sites.values() {
            let Some(map) = sites.first().and_then(|(_, s)| ix.node_map(&s.method)) else {
                continue;
            };
            out.extend(sites.iter().map(|(i, s)| s.moved_to(map.expr(*i))));
        }
        out.extend(pointsto::init_sites(program, table));
        out
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
                    .index
                    .allocs
                    .keys()
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

    /// Step 4 of the flow on the cached relation: closes the tainted
    /// methods of `sync` over the shape graph, retracts the closure's
    /// facts, rebases the relation onto `program`, and re-derives the
    /// closure with the one propagation loop. `Err` names why the
    /// relation must be solved from empty instead.
    fn resolve(
        &mut self,
        program: &Program,
        table: &ClassTable,
        ix: &ProgramIndex,
        sync: ShapeSync,
    ) -> Result<DeltaOutcome, ResetCause> {
        let keys = KeyRule {
            table,
            typed: self.typed,
        };
        // Stale summaries only follow an uncalled flip: otherwise the
        // expected set is the cached revision's, which the relation
        // matched.
        let stale = if sync.flipped.is_empty() {
            BTreeSet::new()
        } else {
            self.stale_summaries(program, table)
        };
        let sites = self.revision_sites(program, table, ix);
        let ShapeSync {
            reshaped,
            mut tainted,
            old_shapes,
            flipped,
            ..
        } = sync;
        let pt = Arc::make_mut(&mut self.pt);
        // A method's locals are part of its shape's fingerprint.
        for m in &reshaped {
            pt.set_locals(m, crate::decl_of(program, m).map(|(_, d)| d));
        }
        let mut retracted = 0u64;
        let mut fields: BTreeSet<HeapKey> = BTreeSet::new();
        if !tainted.is_empty() {
            let closure = Closure {
                table,
                shapes: &self.shapes,
                index: &self.index,
                old_shapes: &old_shapes,
                old_index: ShapeIndex::of(&old_shapes),
                uncalled: &self.uncalled,
                flipped: &flipped,
            };
            let mut work: Vec<MethodRef> = tainted.iter().cloned().collect();
            let mut new_fields: Vec<HeapKey> = Vec::new();
            if !stale.is_empty() {
                let r = pt.retract_summaries(&stale, keys);
                retracted += r.facts_removed;
                grow(&mut tainted, &mut work, r.implicated_methods);
                grow(&mut fields, &mut new_fields, r.implicated_fields);
            }
            // Closure, retraction, and the prune-feedback loop:
            // retraction reports surviving sets that lost an object,
            // whose owners and slots must also re-derive. Each round
            // retracts only what the previous rounds did not.
            let mut done: BTreeSet<MethodRef> = BTreeSet::new();
            let mut cleared: BTreeSet<HeapKey> = BTreeSet::new();
            loop {
                closure.close(&mut tainted, &mut fields, work, new_fields);
                let gone: BTreeSet<MethodRef> = tainted.difference(&done).cloned().collect();
                let clear: BTreeSet<HeapKey> = fields.difference(&cleared).cloned().collect();
                (work, new_fields) = (Vec::new(), Vec::new());
                if !gone.is_empty() {
                    let r = pt.retract_methods(&gone, keys);
                    retracted += r.facts_removed;
                    grow(&mut tainted, &mut work, r.implicated_methods);
                    grow(&mut fields, &mut new_fields, r.implicated_fields);
                }
                retracted += pt.retract_fields(&clear, table);
                done.extend(gone);
                cleared.extend(clear);
                if work.is_empty() && new_fields.is_empty() {
                    break;
                }
            }
        }
        if !pt.rebase(&sites) {
            return Err(ResetCause::SiteVanished);
        }
        if tainted.is_empty() {
            return Ok(DeltaOutcome {
                path: DeltaPath::Rebase,
                retracted: 0,
                added: 0,
                tainted: 0,
                taint_fields: 0,
            });
        }
        let baseline = pt.fact_pairs();
        if !pt.solve(program, table, &sites, Some(&tainted), &self.uncalled) {
            return Err(ResetCause::Diverged);
        }
        Ok(DeltaOutcome {
            path: DeltaPath::Delta,
            retracted,
            added: pt.fact_pairs() - baseline,
            tainted: tainted.len() as u64,
            taint_fields: fields.len() as u64,
        })
    }
}

/// Inserts `items` into `set`, queueing the new ones on `work`.
fn grow<T: Ord + Clone>(
    set: &mut BTreeSet<T>,
    work: &mut Vec<T>,
    items: impl IntoIterator<Item = T>,
) {
    for item in items {
        if set.insert(item.clone()) {
            work.push(item);
        }
    }
}

impl ShapeIndex {
    /// The index over `shapes` alone.
    fn of(shapes: &BTreeMap<MethodRef, MethodShape>) -> ShapeIndex {
        let mut index = ShapeIndex::default();
        for (m, s) in shapes {
            index.add(m, s);
        }
        index
    }
}

/// The edges the taint closes over: those of the current shapes, and
/// those of the previous shapes of the changed methods — an edit that
/// removes a call or a field access must still taint the old callee or
/// key, whose derived facts it invalidates, and a removed method keeps
/// its edges for the revision that removes it.
struct Closure<'a> {
    table: &'a ClassTable,
    shapes: &'a BTreeMap<MethodRef, MethodShape>,
    index: &'a ShapeIndex,
    old_shapes: &'a BTreeMap<MethodRef, MethodShape>,
    old_index: ShapeIndex,
    uncalled: &'a BTreeSet<MethodRef>,
    /// Methods uncalled in the previous revision but not this one
    /// (with `uncalled`: uncalled in either).
    flipped: &'a BTreeSet<MethodRef>,
}

impl Closure<'_> {
    /// True when `m` may derive a fact in either revision.
    fn flows(&self, m: &MethodRef) -> bool {
        [self.shapes.get(m), self.old_shapes.get(m)]
            .into_iter()
            .flatten()
            .any(|s| s.flows)
    }

    /// Adds the methods of `ms` that may derive a fact to `tainted`,
    /// queueing the new ones on `work`. A method that cannot owns no
    /// fact to retract or re-derive, and its edges carry nothing.
    fn taint<'m>(
        &self,
        tainted: &mut BTreeSet<MethodRef>,
        work: &mut Vec<MethodRef>,
        ms: impl IntoIterator<Item = &'m MethodRef>,
    ) {
        grow(
            tainted,
            work,
            ms.into_iter().filter(|m| self.flows(m)).cloned(),
        );
    }

    /// Grows `tainted` (and the heap keys to clear, `fields`) to a
    /// mutual fixpoint over the shape graph, from the newly added
    /// methods `work` and keys `keys`: a tainted method pulls in its
    /// callers and callees, every key it touches (and so every toucher
    /// of an overlapping key — heap facts are unattributed, so all
    /// slots of a touched key are cleared and re-derived), and every
    /// method coupled to a class it allocates through instance sets.
    /// Methods that cannot derive a fact are neither added nor
    /// expanded, except the ones `tainted` starts with.
    fn close(
        &self,
        tainted: &mut BTreeSet<MethodRef>,
        fields: &mut BTreeSet<HeapKey>,
        mut work: Vec<MethodRef>,
        mut keys: Vec<HeapKey>,
    ) {
        let indexes = [self.index, &self.old_index];
        loop {
            if let Some(m) = work.pop() {
                if !self.flows(&m) {
                    continue;
                }
                let shapes = [self.shapes.get(&m), self.old_shapes.get(&m)];
                for s in shapes.into_iter().flatten() {
                    self.taint(tainted, &mut work, &s.callees);
                    grow(fields, &mut keys, s.fields.iter().cloned());
                    for alloc in &s.alloc_classes {
                        for up in ancestors(self.table, alloc) {
                            for ix in indexes {
                                if let Some(ms) = ix.by_class.get(up) {
                                    self.taint(tainted, &mut work, ms);
                                }
                                let Some(ms) = ix.by_param.get(up) else {
                                    continue;
                                };
                                let ext = ms.iter().filter(|m| {
                                    self.uncalled.contains(*m) || self.flipped.contains(*m)
                                });
                                self.taint(tainted, &mut work, ext);
                            }
                        }
                    }
                }
                for ix in indexes {
                    if let Some(cs) = ix.callers.get(&m) {
                        self.taint(tainted, &mut work, cs);
                    }
                }
            } else if let Some(key) = keys.pop() {
                for ix in indexes {
                    let same_field = ix
                        .touchers
                        .range(HeapKey::any(&key.field)..)
                        .take_while(|(k, _)| k.field == key.field);
                    for (other, ms) in same_field {
                        if key.overlaps(self.table, other) {
                            self.taint(tainted, &mut work, ms);
                        }
                    }
                }
            } else {
                break;
            }
        }
    }
}

/// `class` and its superclasses, nearest first.
fn ancestors<'t>(table: &'t ClassTable, class: &'t str) -> impl Iterator<Item = &'t str> {
    std::iter::successors(Some(class), |c| {
        table.class(c).and_then(|info| info.superclass.as_deref())
    })
}

/// The shape of `m`, declared by `decl`: `None` for a method that no
/// longer exists, and for a constructor the class neither declares nor
/// needs (a synthetic constructor's shape is its class's field
/// initializers).
fn shape_of(
    program: &Program,
    keys: KeyRule,
    m: &MethodRef,
    decl: Option<&MethodDecl>,
) -> Option<MethodShape> {
    let mut shape = decl.map(|d| shape_of_method(program, keys, d, m));
    if m.is_ctor && m.arity == 0 {
        if let Some(class) = program.class(&m.class) {
            if let Some((inits_fp, extra)) = init_shape(class, program, keys, decl) {
                merge_inits(
                    shape.get_or_insert_with(MethodShape::default),
                    inits_fp,
                    extra,
                );
            }
        }
    }
    shape
}

/// The parameters and locals of `decl` by name, with the type of the
/// last declaration of each (as [`jtlang::types::type_of_expr`] scopes
/// them), and whether some name has two types.
fn local_types<'d>(decl: &'d MethodDecl) -> (BTreeMap<&'d str, &'d Type>, bool) {
    let mut types: BTreeMap<&'d str, &'d Type> = BTreeMap::new();
    let mut mixed = false;
    let mut declare = |name: &'d str, ty: &'d Type| {
        if let Some(prev) = types.insert(name, ty) {
            mixed |= prev != ty;
        }
    };
    for p in &decl.params {
        declare(&p.name, &p.ty);
    }
    jtlang::ast::walk_stmts(&decl.body, &mut |stmt| {
        if let StmtKind::VarDecl { ty, name, .. } = &stmt.kind {
            declare(name, ty);
        }
    });
    (types, mixed)
}

/// The shape of one method body (before any field-initializer merge).
fn shape_of_method(
    program: &Program,
    keys: KeyRule,
    decl: &MethodDecl,
    mref: &MethodRef,
) -> MethodShape {
    let mut sh = MethodShape::default();
    let mut h = StructHasher::new();
    h.member(mref);
    for p in &decl.params {
        h.str(&p.name);
        h.str(&p.ty.to_string());
        if let Type::Class(c) = &p.ty {
            sh.param_classes.insert(c.clone());
        }
        sh.flows |= p.ty.is_reference();
    }
    let (locals, mixed) = local_types(decl);
    sh.mixed_locals = mixed;
    sh.flows |= !keys.typed;
    let cx = Scope {
        program,
        keys,
        mref,
        decl: Some(decl),
        locals,
        initializer: false,
    };
    blind_block(&decl.body, &cx, &mut h, &mut sh);
    sh.fp = h.finish();
    sh.body_called = sh.callees.clone();
    sh
}

/// The shape contribution of one class's field initializers (`None`
/// when it has none), read in the class's arity-0 constructor `ctor`
/// (`None`: synthetic). The fingerprint and facts are merged into that
/// constructor's entry by [`merge_inits`].
fn init_shape(
    class: &ClassDecl,
    program: &Program,
    keys: KeyRule,
    ctor: Option<&MethodDecl>,
) -> Option<(Fp, MethodShape)> {
    let inits: Vec<(&str, &Expr)> = class
        .fields
        .iter()
        .filter_map(|f| Some((f.name.as_str(), f.init.as_ref()?)))
        .collect();
    if inits.is_empty() {
        return None;
    }
    let mref = MethodRef::ctor(&class.name, 0);
    // The relation evaluates initializers in the constructor, so a
    // name it declares reads its local (and marks the shape mixed).
    let cx = Scope {
        program,
        keys,
        mref: &mref,
        decl: ctor,
        locals: ctor.map(|d| local_types(d).0).unwrap_or_default(),
        initializer: true,
    };
    let mut h = StructHasher::new();
    let mut extra = MethodShape {
        flows: true,
        ..MethodShape::default()
    };
    for (name, init) in inits {
        h.str(name);
        extra.fields.extend(keys.field(Some(&class.name), name));
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
    entry.mixed_locals |= extra.mixed_locals;
    entry.flows |= extra.flows;
}

/// What a shape walk resolves calls, names, and static types against:
/// the walked member (`decl` is `None` for a synthetic constructor's
/// field initializers) and its parameter and local types.
struct Scope<'a> {
    program: &'a Program,
    keys: KeyRule<'a>,
    mref: &'a MethodRef,
    decl: Option<&'a MethodDecl>,
    locals: BTreeMap<&'a str, &'a Type>,
    /// Walking field initializers.
    initializer: bool,
}

/// A static type as far as heap keys need it, borrowed from the
/// program or the class table.
#[derive(Clone, Copy)]
enum StaticTy<'a> {
    Of(&'a Type),
    Class(&'a str),
    ArrayOf(&'a Type),
    Unknown,
}

impl<'a> StaticTy<'a> {
    fn class(self) -> Option<&'a str> {
        match self {
            StaticTy::Of(Type::Class(c)) => Some(c.as_str()),
            StaticTy::Class(c) => Some(c),
            _ => None,
        }
    }

    fn elem(self) -> Option<&'a Type> {
        match self {
            StaticTy::Of(Type::Array(e)) => Some(e.as_ref()),
            StaticTy::ArrayOf(e) => Some(e),
            _ => None,
        }
    }
}

impl<'a> Scope<'a> {
    /// Marks `sh` as deriving facts unless the value `e` moves is
    /// provably primitive.
    fn moves(&self, e: &'a Expr, sh: &mut MethodShape) {
        let primitive = match &e.kind {
            ExprKind::Int(_)
            | ExprKind::Bool(_)
            | ExprKind::Unary { .. }
            | ExprKind::Binary { .. }
            | ExprKind::Length { .. } => true,
            ExprKind::Var(_)
            | ExprKind::Field { .. }
            | ExprKind::Index { .. }
            | ExprKind::Call { .. } => {
                matches!(self.type_of(e), StaticTy::Of(t) if !t.is_reference())
            }
            _ => false,
        };
        sh.flows |= !primitive;
    }

    /// The static type of `e`, by the type checker's rules with every
    /// local in scope — what [`jtlang::types::type_of_expr`] gives,
    /// without building a checker per access.
    fn type_of(&self, e: &'a Expr) -> StaticTy<'a> {
        let table = self.keys.table;
        let field = |class: Option<&str>, name: &str| {
            class
                .and_then(|c| table.field_of(c, name))
                .map_or(StaticTy::Unknown, |(_, f)| StaticTy::Of(&f.ty))
        };
        match &e.kind {
            ExprKind::This => StaticTy::Class(&self.mref.class),
            ExprKind::Var(name) => match self.locals.get(name.as_str()) {
                Some(ty) => StaticTy::Of(ty),
                None => field(Some(&self.mref.class), name),
            },
            ExprKind::Field { object, name } => field(self.type_of(object).class(), name),
            ExprKind::Index { array, .. } => self
                .type_of(array)
                .elem()
                .map_or(StaticTy::Unknown, StaticTy::Of),
            ExprKind::Call {
                receiver, method, ..
            } => {
                let class = match receiver {
                    None => Some(self.mref.class.as_str()),
                    Some(r) => self.type_of(r).class(),
                };
                class
                    .and_then(|c| table.method_of(c, method))
                    .and_then(|(_, sig)| sig.ret.as_ref())
                    .map_or(StaticTy::Unknown, StaticTy::Of)
            }
            ExprKind::NewObject { class, .. } => StaticTy::Class(class),
            ExprKind::NewArray { elem, .. } => StaticTy::ArrayOf(elem),
            _ => StaticTy::Unknown,
        }
    }
}

fn blind_block<'a>(block: &'a Block, cx: &Scope<'a>, h: &mut StructHasher, sh: &mut MethodShape) {
    h.u64(block.stmts.len() as u64);
    for stmt in &block.stmts {
        blind_stmt(stmt, cx, h, sh);
    }
}

fn blind_stmt<'a>(
    stmt: &'a jtlang::ast::Stmt,
    cx: &Scope<'a>,
    h: &mut StructHasher,
    sh: &mut MethodShape,
) {
    let e = |expr: &'a Expr, h: &mut StructHasher, sh: &mut MethodShape| {
        blind_expr(expr, cx, h, sh);
    };
    match &stmt.kind {
        StmtKind::VarDecl { ty, name, init } => {
            h.tag(0);
            h.str(&ty.to_string());
            h.str(name);
            if let Some(init) = init {
                h.tag(1);
                cx.moves(init, sh);
                e(init, h, sh);
            }
        }
        StmtKind::Assign { target, op, value } => {
            h.tag(1);
            h.tag(*op as u8);
            cx.moves(value, sh);
            // The target's walk records the field or element it writes.
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
                cx.moves(expr, sh);
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

fn blind_expr<'a>(expr: &'a Expr, cx: &Scope<'a>, h: &mut StructHasher, sh: &mut MethodShape) {
    let e = |expr: &'a Expr, h: &mut StructHasher, sh: &mut MethodShape| {
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
            if cx.locals.contains_key(name.as_str()) {
                sh.mixed_locals |= cx.initializer;
            } else {
                sh.fields.extend(cx.keys.field(Some(&cx.mref.class), name));
            }
        }
        ExprKind::Field { object, name } => {
            h.tag(5);
            h.str(name);
            sh.fields
                .extend(cx.keys.field(cx.type_of(object).class(), name));
            e(object, h, sh);
        }
        ExprKind::Index { array, index } => {
            h.tag(6);
            sh.fields.extend(cx.keys.elems(cx.type_of(array).elem()));
            e(array, h, sh);
            e(index, h, sh);
        }
        ExprKind::Length { array } => {
            h.tag(7);
            e(array, h, sh);
        }
        ExprKind::Unary { op, expr } => {
            h.tag(8);
            h.tag(*op as u8);
            e(expr, h, sh);
        }
        ExprKind::Binary { op, lhs, rhs } => {
            h.tag(9);
            h.tag(*op as u8);
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
                cx.keys.table,
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
                    sh.flows = true;
                }
                _ => {}
            }
            if let Some(r) = receiver {
                h.tag(1);
                e(r, h, sh);
            }
            h.u64(args.len() as u64);
            for a in args {
                cx.moves(a, sh);
                e(a, h, sh);
            }
        }
        ExprKind::NewObject { class, args } => {
            h.tag(11);
            h.str(class);
            sh.alloc_classes.insert(class.clone());
            sh.callees.insert(MethodRef::ctor(class, args.len()));
            sh.flows = true;
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
            sh.flows = true;
            e(len, h, sh);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend;

    /// Extracts the constraint shape of every method (constructors absorb
    /// their class's field initializers) by walking the whole program
    /// with typed keys: the reference the cached, incrementally
    /// extracted shapes must equal.
    fn extract_shapes(program: &Program, table: &ClassTable) -> BTreeMap<MethodRef, MethodShape> {
        let keys = KeyRule { table, typed: true };
        let mut out: BTreeMap<MethodRef, MethodShape> = BTreeMap::new();
        for (_, decl, mref) in crate::each_method(program) {
            let sh = shape_of_method(program, keys, decl, &mref);
            out.insert(mref, sh);
        }
        for class in &program.classes {
            let ctor = MethodRef::ctor(&class.name, 0);
            let decl = crate::decl_of(program, &ctor).map(|(_, d)| d);
            if let Some((inits_fp, extra)) = init_shape(class, program, keys, decl) {
                merge_inits(out.entry(ctor).or_default(), inits_fp, extra);
            }
        }
        out
    }

    /// The uncalled set folded out of `shapes`: the indexed methods no
    /// body calls.
    fn uncalled_of(
        shapes: &BTreeMap<MethodRef, MethodShape>,
        ix: &ProgramIndex,
    ) -> BTreeSet<MethodRef> {
        let index = ShapeIndex::of(shapes);
        ix.methods
            .keys()
            .filter(|m| !index.calls.contains_key(*m))
            .cloned()
            .collect()
    }

    /// The cache's state after its last update.
    fn state(cache: &PtCache) -> &CachedPt {
        cache.state.as_ref().expect("state kept")
    }

    fn check_delta(src_a: &str, src_b: &str) -> (DeltaOutcome, Arc<PointsTo>, PointsTo) {
        let (p1, t1) = frontend(src_a).unwrap();
        let (p2, t2) = frontend(src_b).unwrap();
        let ix1 = ProgramIndex::build(&p1, &t1);
        let ix2 = ProgramIndex::build(&p2, &t2);
        let mut cache = PtCache::default();
        let (first_pt, first, _) = cache.update(&p1, &t1, pointsto::DEFAULT_K, &ix1);
        assert_eq!(first.path, DeltaPath::Cold(ResetCause::NoState));
        // A reset solves from the cache's own sites and uncalled set.
        assert!(first_pt.same_relation(&pointsto::analyze_k(&p1, &t1, pointsto::DEFAULT_K)));
        let (warm, outcome, _) = cache.update(&p2, &t2, pointsto::DEFAULT_K, &ix2);
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
        let (warm, outcome, _) = cache.update(
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
        let (_, outcome, _) = cache.update(&p, &t, 0, &ix);
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
        let (warm, outcome, _) = cache.update(&p2, &t2, pointsto::DEFAULT_K, &ix2);
        assert!(!matches!(outcome.path, DeltaPath::Cold(_)));
        let cold = pointsto::analyze_k(&p2, &t2, pointsto::DEFAULT_K);
        assert_eq!(warm.locals, cold.locals);
        // After the incremental pass the cached syntactic facts must be
        // indistinguishable from a from-scratch extraction.
        let st = state(&cache);
        assert_eq!(st.shapes, extract_shapes(&p2, &t2));
        let site_classes: BTreeSet<String> = st.index.allocs.keys().cloned().collect();
        assert_eq!(site_classes, pointsto::site_classes(&p2, &t2));
        assert_eq!(st.uncalled, pointsto::uncalled_methods(&p2, &t2));
        assert_eq!(st.uncalled, uncalled_of(&st.shapes, &ix2));
        let render = |sites: Vec<Site>| {
            let mut lines: Vec<String> = sites.iter().map(|s| format!("{s:?}")).collect();
            lines.sort();
            lines
        };
        assert_eq!(
            render(st.revision_sites(&p2, &t2, &ix2)),
            render(pointsto::collect_sites(&p2, &t2))
        );
        let index = ShapeIndex::of(&st.shapes);
        assert_eq!(st.index.touchers, index.touchers);
        assert_eq!(st.index.callers, index.callers);
        assert_eq!(st.index.calls, index.calls);
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
        let (warm, outcome, _) = cache.update(&p2, &t2, pointsto::DEFAULT_K, &ix2);
        // The raw fingerprint changed but the constant-blind shapes did
        // not: nothing is tainted, the relation is only rebased, and the
        // key map must absorb the new fingerprint so the next no-op run
        // re-extracts nothing.
        assert_eq!(outcome.path, DeltaPath::Rebase);
        let st = state(&cache);
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
        let sites: BTreeSet<String> = ShapeIndex::of(&shapes).allocs.into_keys().collect();
        let uncalled = uncalled_of(&shapes, &ix);
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
        let (first, _, _) = cache.update(&p, &t, pointsto::DEFAULT_K, &ix);
        assert!(!first.converged());
        let (warm, outcome, _) = cache.update(&p, &t, pointsto::DEFAULT_K, &ix);
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
        let (cold, _, _) = cache.update(
            &p1,
            &t1,
            pointsto::DEFAULT_K,
            &ProgramIndex::build(&p1, &t1),
        );
        assert_eq!(
            cold.passes(),
            pointsto::analyze_k(&p1, &t1, pointsto::DEFAULT_K).passes()
        );
        let (rebased, outcome, _) = cache.update(
            &p2,
            &t2,
            pointsto::DEFAULT_K,
            &ProgramIndex::build(&p2, &t2),
        );
        assert_eq!(outcome.path, DeltaPath::Rebase);
        assert_eq!(rebased.passes(), 0);
        let (delta, outcome, _) = cache.update(
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

    /// Two unrelated holders, each with a field named `slot` of its own
    /// type, and a `Main` class for each.
    const SAME_NAME: &str = "class Item { public int v; Item() { v = 0; } }
         class Tag { public int w; Tag() { w = 0; } }
         class A { private Item slot; A() { slot = new Item(); } Item get() { return slot; } }
         class B { private Tag slot; B() { slot = new Tag(); } Tag get() { return slot; } }
         class MainA { public int demo() { A a = new A(); Item i = a.get(); Item k = i; return 0; } }
         class MainB { public int demo() { B b = new B(); Tag t = b.get(); Tag k = t; return 0; } }";

    #[test]
    fn a_field_name_shared_by_unrelated_classes_taints_one_owner() {
        let edited = SAME_NAME.replace(
            "Item get() { return slot; }",
            "Item get() { Item x = slot; return x; }",
        );
        let (outcome, ..) = check_delta(SAME_NAME, &edited);
        assert_eq!(outcome.path, DeltaPath::Delta);
        // `A.get`, its caller `MainA.demo`, and `A.<init>/0` (through
        // `A.slot` and the allocation of an `A`); `B`'s touchers of its
        // own `slot` stay out, and `Item.<init>/0` derives nothing.
        assert_eq!(outcome.tainted, 3, "{outcome:?}");
        assert_eq!(outcome.taint_fields, 1, "{outcome:?}");
    }

    #[test]
    fn an_inherited_field_is_one_key_through_either_static_type() {
        let src = "class Item { public int v; Item() { v = 0; } }
             class Base { public Item it; Base() { it = null; } }
             class Sub extends Base { Sub() { it = null; } }
             class Writer { public int go(Sub s) { s.it = new Item(); return 0; } }
             class Reader { public int look(Base b) { Item x = b.it; Item y = x; return 0; } }
             class Main {
                 public int demo() {
                     Sub s = new Sub();
                     Item spare = new Item();
                     Writer w = new Writer();
                     Reader r = new Reader();
                     return w.go(s) + r.look(s);
                 }
             }";
        // The write goes through `Sub`, the read through `Base`: both
        // resolve to `Base.it`, so dropping the write re-derives the read.
        let edited = src.replace("s.it = new Item();", "s.it = null;");
        let (outcome, warm, _) = check_delta(src, &edited);
        assert_eq!(outcome.path, DeltaPath::Delta);
        assert!(outcome.retracted > 0, "{outcome:?}");
        assert_eq!(warm.objects().filter(|o| o.class == "Item").count(), 1);
        let (outcome, ..) = check_delta(&edited, src);
        assert_eq!(outcome.path, DeltaPath::Delta);
    }

    #[test]
    fn reference_array_elements_are_keyed_and_int_arrays_are_not() {
        let src = "class Item { public int v; Item() { v = 0; } }
             class P {
                 private Item[] arr;
                 P() { arr = new Item[2]; }
                 public int put() { arr[0] = new Item(); return 0; }
                 public Item first() { return arr[0]; }
             }
             class Q {
                 private int[] arr;
                 Q() { arr = new int[2]; }
                 public int bump() { arr[0] = 5; return arr[0]; }
                 public int sum() { int s = arr[0] + arr[1]; return s; }
             }
             class MainP { public int demo() { P p = new P(); Item i = p.first(); Item k = i; return p.put(); } }
             class MainQ { public int demo() { Q q = new Q(); return q.bump() + q.sum(); } }";
        let edited = src.replace(
            "arr[0] = new Item(); return 0;",
            "arr[1] = new Item(); arr[0] = arr[1]; return 0;",
        );
        let (outcome, ..) = check_delta(src, &edited);
        assert_eq!(outcome.path, DeltaPath::Delta);
        // `P.put`, `P.first`, `P.<init>/0` and `MainP.demo`; no method
        // of `Q` moves a reference, and `int[]` elements have no key.
        assert_eq!(outcome.tainted, 4, "{outcome:?}");
        let (outcome, ..) = check_delta(&edited, src);
        assert_eq!(outcome.path, DeltaPath::Delta);
    }

    #[test]
    fn an_unresolved_owner_keys_the_field_of_every_class() {
        let (p, t) = frontend(SAME_NAME).unwrap();
        let keys = KeyRule {
            table: &t,
            typed: true,
        };
        let wild = keys.field(None, "slot").unwrap();
        assert_eq!(wild, HeapKey::any("slot"));
        let a = keys.field(Some("A"), "slot").unwrap();
        let b = keys.field(Some("B"), "slot").unwrap();
        assert_eq!(a.owner.as_deref(), Some("A"));
        assert!(!a.overlaps(&t, &b));
        assert!(wild.overlaps(&t, &a) && wild.overlaps(&t, &b));
        assert!(wild.covers(&t, "B", "slot") && !a.covers(&t, "B", "slot"));
        // Primitive fields and elements have no key.
        assert_eq!(keys.field(Some("Item"), "v"), None);
        assert_eq!(keys.elems(Some(&Type::Int)), None);
        assert_eq!(keys.elems(None), Some(HeapKey::any(pointsto::ELEMS)));
        // Clearing the wildcard clears both holders' slots.
        let mut pt = pointsto::analyze(&p, &t);
        let before = pt.fact_pairs();
        let removed = pt.retract_fields(&BTreeSet::from([wild]), &t);
        assert_eq!(removed, 2);
        assert_eq!(pt.fact_pairs(), before - 2);
    }

    #[test]
    fn a_hidden_field_keys_every_access_by_name() {
        // `Sub.it` hides `Base.it`: the heap shares one slot between
        // them, so keys fall back to names and the delta stays exact.
        let src = "class Item { public int v; Item() { v = 0; } }
             class Tag { public int w; Tag() { w = 0; } }
             class Base { public Item it; Base() { it = new Item(); } }
             class Sub extends Base { public Tag it; Sub() { it = new Tag(); } }
             class Main {
                 public int demo() {
                     Sub s = new Sub();
                     Tag t = s.it;
                     Tag k = t;
                     return 0;
                 }
             }";
        let edited = src.replace("Tag k = t;", "Tag k = s.it;");
        let (outcome, ..) = check_delta(src, &edited);
        assert_eq!(outcome.path, DeltaPath::Delta);
        let (p, t) = frontend(&edited).unwrap();
        let mut cache = PtCache::default();
        cache.update(&p, &t, pointsto::DEFAULT_K, &ProgramIndex::build(&p, &t));
        let st = state(&cache);
        assert!(st.hides_fields && !st.typed);
        assert!(st
            .shapes
            .values()
            .all(|s| s.fields.iter().all(|k| k.owner.is_none())));
    }

    #[test]
    fn a_local_given_two_types_switches_keys_to_names_and_back() {
        let mixed = BASE.replace(
            "Item keep = i;",
            "Item keep = i; if (keep == null) { Box keep = b; }",
        );
        let (outcome, ..) = check_delta(BASE, &mixed);
        assert_eq!(outcome.path, DeltaPath::Cold(ResetCause::KeyingChanged));
        let (outcome, ..) = check_delta(&mixed, BASE);
        assert_eq!(outcome.path, DeltaPath::Cold(ResetCause::KeyingChanged));
        // Within the by-name regime a further edit takes the delta path.
        let further = mixed.replace("Item i = b.get();", "Item i = b.get(); Item j = i;");
        let (outcome, ..) = check_delta(&mixed, &further);
        assert_eq!(outcome.path, DeltaPath::Delta);
    }

    /// The generated corpus's kinds of structural edit, spliced as a
    /// refinement session splices them: each takes the delta path,
    /// taints one or two methods, and matches the cold solve.
    #[test]
    fn spliced_structural_edits_match_cold() {
        let cfg = jtlang::corpus::GenConfig::default();
        let mut text = jtlang::corpus::generate(&cfg);
        let mut program = jtlang::parse(&text).unwrap();
        let table = jtlang::resolve::resolve(&program).unwrap();
        let mut ix = ProgramIndex::build(&program, &table);
        let mut cache = PtCache::default();
        cache.update(&program, &table, pointsto::DEFAULT_K, &ix);
        // Each edit prepends a statement to one method's body, or (with
        // no header) removes the statement again.
        let edits = [
            (
                "class G1 {",
                "    int m0(int n) {\n",
                "        acc = acc + m1(n);\n",
            ),
            (
                "class G2 {",
                "    int m3(int n) {\n",
                "        buf = new int[8];\n",
            ),
            ("class G1 {", "", "        acc = acc + m1(n);\n"),
        ];
        for (class, header, stmt) in edits {
            let at = text.find(class).unwrap();
            let new = if header.is_empty() {
                text.replacen(stmt, "", 1)
            } else {
                let at = at + text[at..].find(header).unwrap() + header.len();
                format!("{}{stmt}{}", &text[..at], &text[at..])
            };
            let Ok(jtlang::reparse::Reparse::Spliced(splice)) =
                jtlang::reparse(&mut program, &text, &new)
            else {
                panic!("a one-method edit splices");
            };
            text = new;
            let spliced: Vec<_> = splice.iter().map(|s| s.pos).collect();
            ix.update(&program, &table, Some(&spliced));
            let (warm, outcome, _) = cache.update(&program, &table, pointsto::DEFAULT_K, &ix);
            // The delta path, whether or not the edit has a fact to
            // retract (a call between `int` methods has none).
            assert_eq!(outcome.path, DeltaPath::Delta, "{outcome:?}");
            let cold = pointsto::analyze_k(&program, &table, pointsto::DEFAULT_K);
            assert!(warm.same_relation(&cold), "{outcome:?}");
            warm.check_post_fixpoint(&program, &table).unwrap();
            assert!((1..=2).contains(&outcome.tainted), "{outcome:?}");
            let st = state(&cache);
            assert_eq!(st.shapes, extract_shapes(&program, &table));
            assert_eq!(st.uncalled, pointsto::uncalled_methods(&program, &table));
        }
    }

    #[test]
    fn reordered_classes_reset_and_keep_the_cold_site_order() {
        let item = "class Item { public int v; Item() { v = 0; } }";
        let reordered = format!("{}\n{item}", BASE.replacen(item, "", 1));
        let (outcome, ..) = check_delta(BASE, &reordered);
        assert_eq!(outcome.path, DeltaPath::Cold(ResetCause::ClassesReordered));
        let (p1, t1) = frontend(BASE).unwrap();
        let (p2, t2) = frontend(&reordered).unwrap();
        let ix2 = ProgramIndex::build(&p2, &t2);
        let mut cache = PtCache::default();
        cache.update(
            &p1,
            &t1,
            pointsto::DEFAULT_K,
            &ProgramIndex::build(&p1, &t1),
        );
        cache.update(&p2, &t2, pointsto::DEFAULT_K, &ix2);
        let render = |sites: Vec<Site>| format!("{sites:?}");
        assert_eq!(
            render(state(&cache).revision_sites(&p2, &t2, &ix2)),
            render(pointsto::collect_sites(&p2, &t2))
        );
    }

    /// A call reached before its receiver set fills flows into every
    /// receiver context, so the cold relation depends on the order the
    /// classes are declared in: with `Main` before `Tag`, `m3` reaches
    /// `put` before `Tag.inner` has a return value.
    #[test]
    fn a_class_reorder_that_changes_the_cold_relation_resets() {
        let [sub, tag, item, main, boxed] = [
            "class SubBox extends Box { SubBox() { put(new Item()); } Item peek() { return get(); } }\n",
            "class Tag { private Box it; Tag() { it = new Box(); } Box inner() { return it; } }\n",
            "class Item { public int v; Item() { v = 0; } }\n",
            "class Main {
                 private Box b1;
                 int m1(int n) { SubBox s = new SubBox(); b1 = s; return s.peek().v + 1; }
                 int m3(int n) { Tag t = new Tag(); t.inner().put(new Item()); return 1; }
                 int m5(int n) { Tag t = new Tag(); Box x = t.inner(); x.put(b1.get()); return 1; }
             }\n",
            "class Box {
                 private Item it;
                 Box() { it = new Item(); }
                 Box(Item seed) { it = seed; }
                 Item get() { return it; }
                 void put(Item x) { it = x; }
             }\n",
        ];
        let tag_first = [sub, tag, item, main, boxed].concat();
        let main_first = [item, main, boxed, sub, tag].concat();
        let relation = |src: &str| {
            let (p, t) = frontend(src).unwrap();
            pointsto::analyze_k(&p, &t, pointsto::DEFAULT_K)
        };
        assert!(!relation(&tag_first).same_relation(&relation(&main_first)));
        for (from, to) in [(&tag_first, &main_first), (&main_first, &tag_first)] {
            let (outcome, ..) = check_delta(from, to);
            assert_eq!(outcome.path, DeltaPath::Cold(ResetCause::ClassesReordered));
        }
    }
}
