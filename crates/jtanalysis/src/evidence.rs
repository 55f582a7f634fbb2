//! Proof-carrying lint evidence.
//!
//! Every R2/R12/R13/R14 verdict the analysis produces — each *finding*
//! and each *cleared* candidate — records an [`Evidence`] value: the
//! machine-checkable derivation behind the verdict. `jtlint --json`
//! renders these, and [`verify`] re-validates each one against the
//! program **without re-running the solvers**: it re-walks the AST for
//! the cited accesses, allocation sites, call sites, and loop frames,
//! re-folds constant arguments, re-derives trip-count formulas, and
//! checks every alias/ownership chain link for type consistency.
//!
//! ## What is checked vs. axiomatic
//!
//! [`verify`] is deliberately independent of the fixpoint engines, so
//! its trust boundary is explicit (DESIGN §9):
//!
//! * **Checked structurally** — cited spans name real accesses of the
//!   right field and direction; allocation sites exist with the stated
//!   class; thread witnesses are `Thread` subclasses with `run`;
//!   accessing methods are call-graph-reachable from the stated roots;
//!   every chain link traverses a field the source class really
//!   declares with a target type admitting the next object; loop
//!   frames re-derive to the same `(c0, step, inclusive, param)`;
//!   call-site constants re-fold to the cited values and the trip
//!   formula recomputes to the cited bound.
//! * **Axiomatic** — membership of a heap edge in the points-to
//!   solution, interval-lattice facts, and escape-flow facts are
//!   solver outputs; the evidence cites them and [`verify`] checks
//!   their *shape*, not their derivation.

use crate::loops::{self, BoundStatus};
use crate::races::{field_events, FieldId};
use crate::summary::{trip_frame, TripCandidate};
use crate::{callgraph, MethodRef};
use jtlang::ast::{
    walk_expr, walk_exprs, walk_stmts, Expr, ExprKind, MethodDecl, Program, Stmt, StmtKind, Type,
};
use jtlang::resolve::ClassTable;
use jtlang::token::Span;
use jtobs::json::Json;
use std::collections::BTreeSet;

/// Whether the evidence backs a reported finding or discharges a
/// candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The rule fired; the evidence is the derivation of the defect.
    Finding,
    /// The candidate was checked and discharged; the evidence is the
    /// derivation of the proof.
    Cleared,
}

/// A source range by byte offsets (line/column are derived data and
/// excluded so round-tripping through JSON stays exact).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanRef {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
}

impl From<Span> for SpanRef {
    fn from(s: Span) -> SpanRef {
        SpanRef {
            start: s.start,
            end: s.end,
        }
    }
}

impl SpanRef {
    /// True when this reference names the same byte range as `s`.
    pub fn matches(&self, s: Span) -> bool {
        self.start == s.start && self.end == s.end
    }

    /// The default span marks synthesized program points (summary
    /// objects) with no source location.
    fn is_default(&self) -> bool {
        self.start == 0 && self.end == 0
    }
}

/// An abstract object named by its allocation site: class (or array
/// rendering) plus the span of the creating expression. Summary
/// objects (externally created instances) carry the default span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteRef {
    /// Class name or array-type rendering (`int[]`).
    pub class: String,
    /// Span of the `new`/builtin-call expression.
    pub span: SpanRef,
}

/// One cited field access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessRef {
    /// Performing method, rendered `Class.method` (`Class.<init>/arity`
    /// for constructors).
    pub method: String,
    /// Span of the accessing expression.
    pub span: SpanRef,
    /// True for assignment targets.
    pub is_write: bool,
}

/// One step of a heap chain. In an alias witness the chain walks *down*
/// field edges from a thread instance to the contested object: each
/// link is held by the previous object in `via_field`. In an ownership
/// chain it walks *up* owner edges from the written holder: each link
/// holds the previous object in `via_field`. The first link of either
/// chain has `via_field = None`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainLink {
    /// The object at this step.
    pub object: SiteRef,
    /// Field traversed to arrive here (`"[]"` for array elements).
    pub via_field: Option<String>,
}

/// One thread instance's route to the contested object (R12).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadWitness {
    /// The `Thread` subclass whose `run` performs accesses.
    pub thread_class: String,
    /// The concrete thread instance.
    pub instance: SiteRef,
    /// Heap path from the instance to the contested object (empty when
    /// the instance *is* the holder).
    pub path: Vec<ChainLink>,
}

/// How a loop bound verdict was derived (R2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoundDerivation {
    /// The interval lattice proved the trip count (flow-sensitive
    /// endpoints).
    Interval {
        /// Proved trip count.
        trips: u64,
    },
    /// The trip count was proved from the constant arguments of every
    /// static call site of the enclosing method.
    CallSites {
        /// Constant initial value of the induction variable.
        c0: i64,
        /// Constant positive step.
        step: i64,
        /// True for `<=` comparisons.
        inclusive: bool,
        /// Index of the limiting `int` parameter.
        param: usize,
        /// Every static call site: span and the folded constant passed
        /// at `param`.
        sites: Vec<(SpanRef, i64)>,
        /// Resulting worst-case trip count.
        trips: u64,
    },
    /// No derivation exists; the loop is reported (finding).
    Unproved {
        /// The shape obstruction, verbatim from the loop analysis.
        obstruction: String,
    },
}

/// The machine-checkable derivation behind one verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Evidence {
    /// R2: a `for` loop's bound status with its derivation.
    LoopBound {
        /// Finding (unproved) or cleared (proved).
        verdict: Verdict,
        /// Enclosing method, rendered `Class.method` or `Class.<init>/arity`.
        method: String,
        /// Span of the loop statement.
        loop_span: SpanRef,
        /// The derivation.
        derivation: BoundDerivation,
    },
    /// R12: a shared-object race with concrete thread witnesses.
    AliasRace {
        /// Finding or cleared.
        verdict: Verdict,
        /// Contested field, rendered `Class.field` by declaring class.
        field: String,
        /// The contested object; `None` when the points-to tier could
        /// not resolve every access and the refined verdict was kept.
        object: Option<SiteRef>,
        /// One witness per reaching thread instance (empty for
        /// unresolved or cleared entries).
        witnesses: Vec<ThreadWitness>,
        /// The contending thread-phase accesses.
        accesses: Vec<AccessRef>,
    },
    /// R13: a block's run-phase write and the ownership derivation.
    Ownership {
        /// Finding (not owned) or cleared (owned).
        verdict: Verdict,
        /// The ASR block class.
        block: String,
        /// Written field, rendered `Class.field` by declaring class.
        field: String,
        /// The write, reachable from the block's `run`.
        write: AccessRef,
        /// For findings: the owner chain from the written holder up to
        /// the non-owned terminal object. Empty when no holder object
        /// could be attributed.
        chain: Vec<ChainLink>,
        /// Prose justification of the terminal judgment.
        reason: String,
    },
    /// R14: a method handing out an alias of `this`-held mutable state.
    AliasLeak {
        /// Finding (mutable target) or cleared (immutable target).
        verdict: Verdict,
        /// Declaring class.
        class: String,
        /// Leaking method name.
        method: String,
        /// The leaked field.
        field: String,
        /// True when the alias escapes via `return`.
        via_return: bool,
        /// Span of the method declaration.
        decl_span: SpanRef,
        /// Span of the leaking `return` statement (the declaration span
        /// for non-return leaks).
        witness_span: SpanRef,
        /// Why the target counts as (im)mutable.
        mutable_because: String,
    },
}

impl Evidence {
    /// The verdict this evidence backs.
    pub fn verdict(&self) -> Verdict {
        match self {
            Evidence::LoopBound { verdict, .. }
            | Evidence::AliasRace { verdict, .. }
            | Evidence::Ownership { verdict, .. }
            | Evidence::AliasLeak { verdict, .. } => *verdict,
        }
    }

    /// The rule this evidence belongs to.
    pub fn rule(&self) -> &'static str {
        match self {
            Evidence::LoopBound { .. } => "R2",
            Evidence::AliasRace { .. } => "R12",
            Evidence::Ownership { .. } => "R13",
            Evidence::AliasLeak { .. } => "R14",
        }
    }
}

fn span_json(s: SpanRef) -> Json {
    Json::Arr(vec![Json::Num(s.start as i64), Json::Num(s.end as i64)])
}

fn span_from(j: &Json) -> Result<SpanRef, String> {
    match j {
        Json::Arr(a) if a.len() == 2 => match (&a[0], &a[1]) {
            (Json::Num(s), Json::Num(e)) => usize::try_from(*s)
                .and_then(|start| usize::try_from(*e).map(|end| SpanRef { start, end }))
                .map_err(|_| "span offsets out of range".to_string()),
            _ => Err("span entries must be numbers".into()),
        },
        _ => Err("expected a two-element span array".into()),
    }
}

fn site_json(s: &SiteRef) -> Json {
    Json::Obj(vec![
        ("class".into(), Json::Str(s.class.clone())),
        ("span".into(), span_json(s.span)),
    ])
}

fn site_from(j: &Json) -> Result<SiteRef, String> {
    Ok(SiteRef {
        class: j.str_of("class")?.to_string(),
        span: span_from(j.get("span").ok_or("missing site span")?)?,
    })
}

fn access_json(a: &AccessRef) -> Json {
    Json::Obj(vec![
        ("method".into(), Json::Str(a.method.clone())),
        ("span".into(), span_json(a.span)),
        ("write".into(), Json::Bool(a.is_write)),
    ])
}

fn access_from(j: &Json) -> Result<AccessRef, String> {
    Ok(AccessRef {
        method: j.str_of("method")?.to_string(),
        span: span_from(j.get("span").ok_or("missing access span")?)?,
        is_write: j.bool_of("write")?,
    })
}

fn link_json(l: &ChainLink) -> Json {
    Json::Obj(vec![
        ("class".into(), Json::Str(l.object.class.clone())),
        ("span".into(), span_json(l.object.span)),
        (
            "via_field".into(),
            match &l.via_field {
                Some(f) => Json::Str(f.clone()),
                None => Json::Null,
            },
        ),
    ])
}

fn link_from(j: &Json) -> Result<ChainLink, String> {
    Ok(ChainLink {
        object: site_from(j)?,
        via_field: match j.get("via_field") {
            Some(Json::Str(f)) => Some(f.clone()),
            Some(Json::Null) | None => None,
            _ => return Err("via_field must be a string or null".into()),
        },
    })
}

fn verdict_json(v: Verdict) -> Json {
    Json::Str(
        match v {
            Verdict::Finding => "finding",
            Verdict::Cleared => "cleared",
        }
        .into(),
    )
}

fn verdict_from(j: &Json) -> Result<Verdict, String> {
    match j.str_of("verdict")? {
        "finding" => Ok(Verdict::Finding),
        "cleared" => Ok(Verdict::Cleared),
        other => Err(format!("unknown verdict `{other}`")),
    }
}

impl Evidence {
    /// Renders the evidence as a JSON object (see README for the
    /// schema).
    pub fn to_json(&self) -> Json {
        match self {
            Evidence::LoopBound {
                verdict,
                method,
                loop_span,
                derivation,
            } => {
                let deriv = match derivation {
                    BoundDerivation::Interval { trips } => Json::Obj(vec![
                        ("kind".into(), Json::Str("interval".into())),
                        ("trips".into(), Json::Num(*trips as i64)),
                    ]),
                    BoundDerivation::CallSites {
                        c0,
                        step,
                        inclusive,
                        param,
                        sites,
                        trips,
                    } => Json::Obj(vec![
                        ("kind".into(), Json::Str("call_sites".into())),
                        ("c0".into(), Json::Num(*c0)),
                        ("step".into(), Json::Num(*step)),
                        ("inclusive".into(), Json::Bool(*inclusive)),
                        ("param".into(), Json::Num(*param as i64)),
                        (
                            "sites".into(),
                            Json::Arr(
                                sites
                                    .iter()
                                    .map(|(sp, v)| {
                                        Json::Obj(vec![
                                            ("span".into(), span_json(*sp)),
                                            ("value".into(), Json::Num(*v)),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                        ("trips".into(), Json::Num(*trips as i64)),
                    ]),
                    BoundDerivation::Unproved { obstruction } => Json::Obj(vec![
                        ("kind".into(), Json::Str("unproved".into())),
                        ("obstruction".into(), Json::Str(obstruction.clone())),
                    ]),
                };
                Json::Obj(vec![
                    ("kind".into(), Json::Str("loop_bound".into())),
                    ("verdict".into(), verdict_json(*verdict)),
                    ("method".into(), Json::Str(method.clone())),
                    ("loop_span".into(), span_json(*loop_span)),
                    ("derivation".into(), deriv),
                ])
            }
            Evidence::AliasRace {
                verdict,
                field,
                object,
                witnesses,
                accesses,
            } => Json::Obj(vec![
                ("kind".into(), Json::Str("alias_race".into())),
                ("verdict".into(), verdict_json(*verdict)),
                ("field".into(), Json::Str(field.clone())),
                (
                    "object".into(),
                    match object {
                        Some(s) => site_json(s),
                        None => Json::Null,
                    },
                ),
                (
                    "witnesses".into(),
                    Json::Arr(
                        witnesses
                            .iter()
                            .map(|w| {
                                Json::Obj(vec![
                                    (
                                        "thread_class".into(),
                                        Json::Str(w.thread_class.clone()),
                                    ),
                                    ("instance".into(), site_json(&w.instance)),
                                    (
                                        "path".into(),
                                        Json::Arr(w.path.iter().map(link_json).collect()),
                                    ),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "accesses".into(),
                    Json::Arr(accesses.iter().map(access_json).collect()),
                ),
            ]),
            Evidence::Ownership {
                verdict,
                block,
                field,
                write,
                chain,
                reason,
            } => Json::Obj(vec![
                ("kind".into(), Json::Str("ownership".into())),
                ("verdict".into(), verdict_json(*verdict)),
                ("block".into(), Json::Str(block.clone())),
                ("field".into(), Json::Str(field.clone())),
                ("write".into(), access_json(write)),
                ("chain".into(), Json::Arr(chain.iter().map(link_json).collect())),
                ("reason".into(), Json::Str(reason.clone())),
            ]),
            Evidence::AliasLeak {
                verdict,
                class,
                method,
                field,
                via_return,
                decl_span,
                witness_span,
                mutable_because,
            } => Json::Obj(vec![
                ("kind".into(), Json::Str("alias_leak".into())),
                ("verdict".into(), verdict_json(*verdict)),
                ("class".into(), Json::Str(class.clone())),
                ("method".into(), Json::Str(method.clone())),
                ("field".into(), Json::Str(field.clone())),
                ("via_return".into(), Json::Bool(*via_return)),
                ("decl_span".into(), span_json(*decl_span)),
                ("witness_span".into(), span_json(*witness_span)),
                ("mutable_because".into(), Json::Str(mutable_because.clone())),
            ]),
        }
    }

    /// Parses evidence back from its JSON rendering.
    pub fn from_json(j: &Json) -> Result<Evidence, String> {
        match j.str_of("kind")? {
            "loop_bound" => {
                let d = j.get("derivation").ok_or("missing derivation")?;
                let derivation = match d.str_of("kind")? {
                    "interval" => BoundDerivation::Interval {
                        trips: d.num_of("trips")? as u64,
                    },
                    "call_sites" => BoundDerivation::CallSites {
                        c0: d.num_of("c0")?,
                        step: d.num_of("step")?,
                        inclusive: d.bool_of("inclusive")?,
                        param: usize::try_from(d.num_of("param")?)
                            .map_err(|_| "param index out of range".to_string())?,
                        sites: d
                            .arr_of("sites")?
                            .iter()
                            .map(|s| {
                                Ok((
                                    span_from(s.get("span").ok_or("missing site span")?)?,
                                    s.num_of("value")?,
                                ))
                            })
                            .collect::<Result<_, String>>()?,
                        trips: d.num_of("trips")? as u64,
                    },
                    "unproved" => BoundDerivation::Unproved {
                        obstruction: d.str_of("obstruction")?.to_string(),
                    },
                    other => return Err(format!("unknown derivation kind `{other}`")),
                };
                Ok(Evidence::LoopBound {
                    verdict: verdict_from(j)?,
                    method: j.str_of("method")?.to_string(),
                    loop_span: span_from(j.get("loop_span").ok_or("missing loop_span")?)?,
                    derivation,
                })
            }
            "alias_race" => Ok(Evidence::AliasRace {
                verdict: verdict_from(j)?,
                field: j.str_of("field")?.to_string(),
                object: match j.get("object") {
                    Some(Json::Null) | None => None,
                    Some(o) => Some(site_from(o)?),
                },
                witnesses: j
                    .arr_of("witnesses")?
                    .iter()
                    .map(|w| {
                        Ok(ThreadWitness {
                            thread_class: w.str_of("thread_class")?.to_string(),
                            instance: site_from(w.get("instance").ok_or("missing instance")?)?,
                            path: w
                                .arr_of("path")?
                                .iter()
                                .map(link_from)
                                .collect::<Result<_, String>>()?,
                        })
                    })
                    .collect::<Result<_, String>>()?,
                accesses: j
                    .arr_of("accesses")?
                    .iter()
                    .map(access_from)
                    .collect::<Result<_, String>>()?,
            }),
            "ownership" => Ok(Evidence::Ownership {
                verdict: verdict_from(j)?,
                block: j.str_of("block")?.to_string(),
                field: j.str_of("field")?.to_string(),
                write: access_from(j.get("write").ok_or("missing write")?)?,
                chain: j
                    .arr_of("chain")?
                    .iter()
                    .map(link_from)
                    .collect::<Result<_, String>>()?,
                reason: j.str_of("reason")?.to_string(),
            }),
            "alias_leak" => Ok(Evidence::AliasLeak {
                verdict: verdict_from(j)?,
                class: j.str_of("class")?.to_string(),
                method: j.str_of("method")?.to_string(),
                field: j.str_of("field")?.to_string(),
                via_return: j.bool_of("via_return")?,
                decl_span: span_from(j.get("decl_span").ok_or("missing decl_span")?)?,
                witness_span: span_from(j.get("witness_span").ok_or("missing witness_span")?)?,
                mutable_because: j.str_of("mutable_because")?.to_string(),
            }),
            other => Err(format!("unknown evidence kind `{other}`")),
        }
    }
}

// ---------------------------------------------------------------------
// Verification
// ---------------------------------------------------------------------

/// Parses a `Class.method` / `Class.<init>/arity` rendering (the
/// [`MethodRef`] `Display` form) back into a method reference.
fn parse_mref(s: &str) -> Result<MethodRef, String> {
    let (class, method) = s
        .split_once('.')
        .ok_or_else(|| format!("bad method rendering `{s}`"))?;
    match method.strip_prefix("<init>/") {
        Some(arity) => arity
            .parse()
            .map(|arity| MethodRef::ctor(class, arity))
            .map_err(|_| format!("bad constructor arity in `{s}`")),
        None => Ok(MethodRef::method(class, method)),
    }
}

/// Parses a `Class.field` rendering into a [`FieldId`], checking the
/// class really declares the field.
fn parse_field(table: &ClassTable, s: &str) -> Result<FieldId, String> {
    let (class, field) = s
        .split_once('.')
        .ok_or_else(|| format!("bad field rendering `{s}`"))?;
    match table.field_of(class, field) {
        Some((owner, _)) if owner == class => Ok(FieldId {
            class: class.to_string(),
            field: field.to_string(),
        }),
        Some((owner, _)) => Err(format!(
            "field `{field}` is declared by `{owner}`, not `{class}`"
        )),
        None => Err(format!("no field `{field}` on class `{class}`")),
    }
}

/// Checks that an allocation site exists: some `new` (or
/// reference-returning builtin call) expression at the cited span,
/// creating the cited class. Default-span sites are summary objects;
/// for those only the class must exist.
fn check_site(program: &Program, table: &ClassTable, site: &SiteRef) -> Result<(), String> {
    if site.span.is_default() {
        return if program.class(&site.class).is_some() {
            Ok(())
        } else {
            Err(format!("summary site names unknown class `{}`", site.class))
        };
    }
    let mut found = false;
    let mut check_expr = |mref: &MethodRef, decl: Option<&MethodDecl>, e: &Expr| {
        if !site.span.matches(e.span) {
            return;
        }
        let class = match &e.kind {
            ExprKind::NewObject { class, .. } => class.clone(),
            ExprKind::NewArray { elem, .. } => elem.clone().array_of().to_string(),
            ExprKind::Call {
                receiver, method, ..
            } => {
                match crate::pointsto::resolve_call(
                    program,
                    table,
                    mref,
                    decl,
                    receiver.as_deref(),
                    method,
                ) {
                    Some(crate::pointsto::CallTarget::Builtin(_, Some(ty)))
                        if ty.is_reference() =>
                    {
                        ty.to_string()
                    }
                    _ => return,
                }
            }
            _ => return,
        };
        if class == site.class {
            found = true;
        }
    };
    for (_, decl, mref) in crate::each_method(program) {
        walk_exprs(&decl.body, &mut |e| check_expr(&mref, Some(decl), e));
    }
    for class in &program.classes {
        let ctor = MethodRef::ctor(&class.name, 0);
        let decl = crate::decl_of(program, &ctor).map(|(_, d)| d);
        for f in &class.fields {
            if let Some(init) = &f.init {
                walk_expr(init, &mut |e| check_expr(&ctor, decl, e));
            }
        }
    }
    if found {
        Ok(())
    } else {
        Err(format!(
            "no allocation of `{}` at bytes {}..{}",
            site.class, site.span.start, site.span.end
        ))
    }
}

/// Checks that an access exists: the cited method contains a field
/// event of the cited field, direction, and span.
fn check_access(
    program: &Program,
    table: &ClassTable,
    field: &FieldId,
    access: &AccessRef,
) -> Result<MethodRef, String> {
    let mref = parse_mref(&access.method)?;
    let Some((class, decl)) = crate::decl_of(program, &mref) else {
        return Err(format!("no method `{}`", access.method));
    };
    let hit = field_events(table, class, decl).into_iter().any(|ev| {
        ev.field == *field && ev.is_write == access.is_write && access.span.matches(ev.span)
    });
    if hit {
        Ok(mref)
    } else {
        Err(format!(
            "no {} of `{field}` at bytes {}..{} in `{}`",
            if access.is_write { "write" } else { "read" },
            access.span.start,
            access.span.end,
            access.method
        ))
    }
}

/// Checks one heap edge for type consistency: `holder`'s class declares
/// `field` with a type admitting `held`'s class (array element edges
/// check the element type).
fn check_edge(
    table: &ClassTable,
    holder: &SiteRef,
    field: &str,
    held: &SiteRef,
) -> Result<(), String> {
    let target_ty: Type = if field == crate::pointsto::ELEMS {
        let Some(elem) = holder.class.strip_suffix("[]") else {
            return Err(format!(
                "element edge from non-array class `{}`",
                holder.class
            ));
        };
        if elem.ends_with("[]") {
            // Nested arrays: the rendering is the element type itself.
            if held.class == elem {
                return Ok(());
            }
            return Err(format!(
                "array `{}` cannot hold `{}`",
                holder.class, held.class
            ));
        }
        Type::Class(elem.to_string())
    } else {
        match table.field_of(&holder.class, field) {
            Some((_, sig)) => sig.ty.clone(),
            None => {
                return Err(format!(
                    "class `{}` declares no field `{field}`",
                    holder.class
                ))
            }
        }
    };
    let ok = match &target_ty {
        Type::Class(cn) => table.is_subclass_of(&held.class, cn),
        Type::Array(_) => target_ty.to_string() == held.class,
        _ => false,
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "field `{}.{field}` of type `{target_ty}` cannot hold `{}`",
            holder.class, held.class
        ))
    }
}

/// Independent re-implementation of the R14 mutability judgment (an
/// array, or a class whose superclass chain declares a field).
fn target_is_mutable(table: &ClassTable, ty: &Type) -> bool {
    match ty {
        Type::Array(_) => true,
        Type::Class(cn) => {
            let mut current = Some(cn.clone());
            while let Some(name) = current {
                let Some(info) = table.class(&name) else { break };
                if !info.fields.is_empty() {
                    return true;
                }
                current = info.superclass.clone();
            }
            false
        }
        _ => false,
    }
}

/// Re-validates one evidence value against the program, without
/// re-running the points-to, interval, or escape solvers. Returns a
/// description of the first discrepancy found.
pub fn verify(program: &Program, table: &ClassTable, ev: &Evidence) -> Result<(), String> {
    match ev {
        Evidence::LoopBound {
            verdict,
            method,
            loop_span,
            derivation,
        } => verify_loop_bound(program, table, *verdict, method, *loop_span, derivation),
        Evidence::AliasRace {
            verdict,
            field,
            object,
            witnesses,
            accesses,
        } => verify_alias_race(
            program,
            table,
            *verdict,
            field,
            object.as_ref(),
            witnesses,
            accesses,
        ),
        Evidence::Ownership {
            verdict,
            block,
            field,
            write,
            chain,
            ..
        } => verify_ownership(program, table, *verdict, block, field, write, chain),
        Evidence::AliasLeak {
            verdict,
            class,
            method,
            field,
            via_return,
            decl_span,
            witness_span,
            ..
        } => verify_alias_leak(
            program,
            table,
            *verdict,
            class,
            method,
            field,
            *via_return,
            *decl_span,
            *witness_span,
        ),
    }
}

fn verify_loop_bound(
    program: &Program,
    table: &ClassTable,
    verdict: Verdict,
    method: &str,
    loop_span: SpanRef,
    derivation: &BoundDerivation,
) -> Result<(), String> {
    let mref = parse_mref(method)?;
    let info = loops::analyze(program)
        .into_iter()
        .find(|l| l.method == mref && loop_span.matches(l.span))
        .ok_or_else(|| {
            format!(
                "no loop at bytes {}..{} in `{method}`",
                loop_span.start, loop_span.end
            )
        })?;
    match derivation {
        BoundDerivation::Unproved { obstruction } => {
            if verdict != Verdict::Finding {
                return Err("unproved derivation must carry a finding verdict".into());
            }
            match &info.bound {
                Some(BoundStatus::NotCalculable { reason }) if reason == obstruction => Ok(()),
                Some(BoundStatus::NotCalculable { reason }) => Err(format!(
                    "obstruction mismatch: loop analysis says `{reason}`"
                )),
                _ => Err("loop re-analysis finds the bound calculable".into()),
            }
        }
        BoundDerivation::Interval { .. } => {
            if verdict != Verdict::Cleared {
                return Err("interval derivation must carry a cleared verdict".into());
            }
            // The trip count itself is an interval-lattice fact
            // (axiom); the loop's existence and location are checked
            // above.
            Ok(())
        }
        BoundDerivation::CallSites {
            c0,
            step,
            inclusive,
            param,
            sites,
            trips,
        } => {
            if verdict != Verdict::Cleared {
                return Err("call-site derivation must carry a cleared verdict".into());
            }
            // Re-derive the loop frame from source.
            let (_, decl) =
                crate::decl_of(program, &mref).ok_or_else(|| format!("no method `{method}`"))?;
            let mut frame: Option<TripCandidate> = None;
            walk_stmts(&decl.body, &mut |stmt: &Stmt| {
                if stmt.id == info.id {
                    frame = trip_frame(decl, stmt);
                }
            });
            let frame = frame.ok_or("loop does not match the parameter-bounded frame")?;
            if frame.c0 != *c0
                || frame.step != *step
                || frame.inclusive != *inclusive
                || frame.param_index != *param
            {
                return Err(format!(
                    "frame mismatch: source derives (c0={}, step={}, inclusive={}, param={})",
                    frame.c0, frame.step, frame.inclusive, frame.param_index
                ));
            }
            // Independently enumerate every static call site of the
            // method and re-fold the limiting argument.
            let mut actual: Vec<(SpanRef, i64)> = Vec::new();
            let mut bad: Option<String> = None;
            for (_, caller_decl, caller) in crate::each_method(program) {
                walk_exprs(&caller_decl.body, &mut |e| {
                    let (target, args) = match &e.kind {
                        ExprKind::Call {
                            receiver,
                            method: m,
                            args,
                        } => match crate::pointsto::resolve_call(
                            program,
                            table,
                            &caller,
                            Some(caller_decl),
                            receiver.as_deref(),
                            m,
                        ) {
                            Some(crate::pointsto::CallTarget::User(t)) => (t, args),
                            _ => return,
                        },
                        ExprKind::NewObject { class, args } => {
                            (MethodRef::ctor(class, args.len()), args)
                        }
                        _ => return,
                    };
                    if target != mref {
                        return;
                    }
                    match args.get(*param).and_then(loops::fold_const) {
                        Some(v) => actual.push((e.span.into(), v)),
                        None => {
                            bad = Some(format!(
                                "non-constant limit argument at bytes {}..{}",
                                e.span.start, e.span.end
                            ))
                        }
                    }
                });
            }
            if let Some(reason) = bad {
                return Err(reason);
            }
            actual.sort_by_key(|(s, _)| (s.start, s.end));
            let mut cited = sites.to_vec();
            cited.sort_by_key(|(s, _)| (s.start, s.end));
            if actual != cited {
                return Err(format!(
                    "call-site set mismatch: source has {} site(s), evidence cites {}",
                    actual.len(),
                    cited.len()
                ));
            }
            let limit = actual
                .iter()
                .map(|(_, v)| *v)
                .max()
                .ok_or("no call sites: the bound is unproved")?;
            let derived = if *inclusive {
                if limit < *c0 {
                    0
                } else {
                    (limit - c0) / step + 1
                }
            } else if limit <= *c0 {
                0
            } else {
                (limit - c0 + step - 1) / step
            };
            if u64::try_from(derived).unwrap_or(0) != *trips {
                return Err(format!(
                    "trip count mismatch: formula recomputes {derived}, evidence says {trips}"
                ));
            }
            Ok(())
        }
    }
}

fn verify_alias_race(
    program: &Program,
    table: &ClassTable,
    verdict: Verdict,
    field: &str,
    object: Option<&SiteRef>,
    witnesses: &[ThreadWitness],
    accesses: &[AccessRef],
) -> Result<(), String> {
    let fid = parse_field(table, field)?;
    if accesses.is_empty() {
        return Err("race evidence cites no accesses".into());
    }
    let mut access_methods = Vec::new();
    for a in accesses {
        access_methods.push(check_access(program, table, &fid, a)?);
    }
    if verdict == Verdict::Cleared {
        // The absence of a shared object is a solver fact (axiom);
        // the candidate's accesses are checked above.
        return Ok(());
    }
    if accesses.iter().all(|a| !a.is_write) {
        return Err("race evidence cites no write".into());
    }
    // An unresolved race (refined-tier fallback) carries no witnesses;
    // a resolved one must name the object and ≥2 thread instances.
    if let Some(obj) = object {
        check_site(program, table, obj)?;
        if witnesses.len() < 2 {
            return Err("resolved race needs at least two thread witnesses".into());
        }
        let mut roots: Vec<MethodRef> = Vec::new();
        for w in witnesses {
            if !table.is_subclass_of(&w.thread_class, "Thread") {
                return Err(format!("`{}` is not a Thread subclass", w.thread_class));
            }
            let Some((owner, _)) = table.method_of(&w.thread_class, "run") else {
                return Err(format!("`{}` has no run method", w.thread_class));
            };
            roots.push(MethodRef::method(owner, "run"));
            if !table.is_subclass_of(&w.instance.class, &w.thread_class) {
                return Err(format!(
                    "instance class `{}` is not a `{}`",
                    w.instance.class, w.thread_class
                ));
            }
            check_site(program, table, &w.instance)?;
            // The path walks field edges from the instance to the
            // contested object.
            let mut at = w.instance.clone();
            for link in &w.path {
                let via = link.via_field.as_deref().ok_or("path link missing field")?;
                check_edge(table, &at, via, &link.object)?;
                check_site(program, table, &link.object)?;
                at = link.object.clone();
            }
            if at != *obj {
                return Err(format!(
                    "witness path for `{}` ends at `{}`, not the contested object",
                    w.thread_class, at.class
                ));
            }
        }
        // Each cited access must be reachable from some witness root.
        let graph = callgraph::build(program, table);
        let reach = graph.reachable_from(roots.iter());
        for (a, m) in accesses.iter().zip(&access_methods) {
            if !reach.contains(m) {
                return Err(format!(
                    "access in `{}` is not reachable from any witness thread's run",
                    a.method
                ));
            }
        }
    } else if !witnesses.is_empty() {
        return Err("unresolved race must not carry witnesses".into());
    }
    Ok(())
}

fn verify_ownership(
    program: &Program,
    table: &ClassTable,
    verdict: Verdict,
    block: &str,
    field: &str,
    write: &AccessRef,
    chain: &[ChainLink],
) -> Result<(), String> {
    if !table.is_subclass_of(block, "ASR") {
        return Err(format!("`{block}` is not an ASR block"));
    }
    let Some(class) = program.class(block) else {
        return Err(format!("no class `{block}`"));
    };
    if class.method("run").is_none() {
        return Err(format!("`{block}` has no run method"));
    }
    let fid = parse_field(table, field)?;
    if !write.is_write {
        return Err("ownership evidence must cite a write".into());
    }
    let wmref = check_access(program, table, &fid, write)?;
    let graph = callgraph::build(program, table);
    let run = MethodRef::method(block, "run");
    if !graph.reachable_from([&run]).contains(&wmref) {
        return Err(format!(
            "`{}` is not reachable from `{block}.run`",
            write.method
        ));
    }
    match verdict {
        Verdict::Cleared => Ok(()), // ownedness itself is a solver fact
        Verdict::Finding => {
            // The chain climbs owner edges from the written holder to
            // the non-owned terminal; each link's holding field must
            // type-check, and the terminal must not be a block
            // instance (which would be owned by definition).
            let mut prev: Option<&ChainLink> = None;
            for link in chain {
                check_site(program, table, &link.object)?;
                if let (Some(p), Some(via)) = (prev, link.via_field.as_deref()) {
                    check_edge(table, &link.object, via, &p.object)?;
                } else if prev.is_some() && link.via_field.is_none() {
                    return Err("owner link missing its holding field".into());
                }
                prev = Some(link);
            }
            if let Some(last) = chain.last() {
                if table.is_subclass_of(&last.object.class, block) {
                    return Err(format!(
                        "terminal `{}` is a `{block}` instance and therefore owned",
                        last.object.class
                    ));
                }
            }
            Ok(())
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn verify_alias_leak(
    program: &Program,
    table: &ClassTable,
    verdict: Verdict,
    class: &str,
    method: &str,
    field: &str,
    via_return: bool,
    decl_span: SpanRef,
    witness_span: SpanRef,
) -> Result<(), String> {
    let Some(cdecl) = program.class(class) else {
        return Err(format!("no class `{class}`"));
    };
    let Some(decl) = cdecl.method(method) else {
        return Err(format!("no method `{class}.{method}`"));
    };
    if !decl_span.matches(decl.span) {
        return Err(format!(
            "declaration span mismatch for `{class}.{method}`"
        ));
    }
    let Some((_, sig)) = table.field_of(class, field) else {
        return Err(format!("no field `{field}` on `{class}`"));
    };
    let mutable = sig.ty.is_reference() && target_is_mutable(table, &sig.ty);
    match verdict {
        Verdict::Finding if !mutable => Err(format!(
            "field `{field}` has immutable target type `{}`",
            sig.ty
        )),
        Verdict::Cleared if mutable => Err(format!(
            "field `{field}` has mutable target type `{}` — cannot clear",
            sig.ty
        )),
        _ => {
            if via_return && verdict == Verdict::Finding {
                // The witness must be a real return statement; the
                // escape-flow fact that it yields the field is an
                // axiom unless syntactically visible.
                let mut found = false;
                walk_stmts(&decl.body, &mut |s: &Stmt| {
                    if matches!(s.kind, StmtKind::Return(Some(_))) && witness_span.matches(s.span)
                    {
                        found = true;
                    }
                });
                if !found {
                    return Err(format!(
                        "no return statement at bytes {}..{} in `{class}.{method}`",
                        witness_span.start, witness_span.end
                    ));
                }
            }
            Ok(())
        }
    }
}

/// Convenience: verify a batch, collecting every failure.
pub fn verify_all<'e>(
    program: &Program,
    table: &ClassTable,
    evidence: impl IntoIterator<Item = &'e Evidence>,
) -> Vec<(usize, String)> {
    let mut failures = Vec::new();
    for (i, ev) in evidence.into_iter().enumerate() {
        if let Err(e) = verify(program, table, ev) {
            failures.push((i, e));
        }
    }
    failures
}

/// Distinct thread classes cited by an alias-race evidence value (used
/// by `jtlint` to cross-check message text).
pub fn witness_classes(witnesses: &[ThreadWitness]) -> BTreeSet<&str> {
    witnesses.iter().map(|w| w.thread_class.as_str()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use jtobs::json;

    #[test]
    fn json_round_trips() {
        let ev = Evidence::LoopBound {
            verdict: Verdict::Cleared,
            method: "A.m".into(),
            loop_span: SpanRef { start: 10, end: 42 },
            derivation: BoundDerivation::CallSites {
                c0: 0,
                step: 2,
                inclusive: true,
                param: 1,
                sites: vec![(SpanRef { start: 5, end: 9 }, 8)],
                trips: 5,
            },
        };
        let text = ev.to_json().render();
        let back = Evidence::from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(ev, back);

        let ev = Evidence::AliasRace {
            verdict: Verdict::Finding,
            field: "C.f\"quoted\"".into(),
            object: None,
            witnesses: vec![ThreadWitness {
                thread_class: "T".into(),
                instance: SiteRef {
                    class: "T".into(),
                    span: SpanRef { start: 1, end: 2 },
                },
                path: vec![ChainLink {
                    object: SiteRef {
                        class: "int[]".into(),
                        span: SpanRef { start: 3, end: 4 },
                    },
                    via_field: Some("buf".into()),
                }],
            }],
            accesses: vec![AccessRef {
                method: "T.run".into(),
                span: SpanRef { start: 7, end: 8 },
                is_write: true,
            }],
        };
        let text = ev.to_json().render();
        let back = Evidence::from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(ev, back);
    }

    #[test]
    fn method_renderings_parse_back() {
        for mref in [
            MethodRef::method("A", "m"),
            MethodRef::ctor("A", 0),
            MethodRef::ctor("A", 12),
        ] {
            assert_eq!(parse_mref(&mref.to_string()), Ok(mref));
        }
        assert!(parse_mref("A.<init>/x").is_err());
        assert!(parse_mref("A").is_err());
    }

    #[test]
    fn evidence_numbers_are_integers_only() {
        let text = r#"{"kind":"loop_bound","verdict":"cleared","method":"A.m","loop_span":[0,1],"derivation":{"kind":"interval","trips":1.5}}"#;
        let err = Evidence::from_json(&json::parse(text).unwrap()).unwrap_err();
        assert!(err.contains("`trips`"), "{err}");
        let text = text.replace("1.5", "2").replace("[0,1]", "[0,1.0]");
        assert!(Evidence::from_json(&json::parse(&text).unwrap()).is_err());
    }
}
