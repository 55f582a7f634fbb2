//! The policy-of-use framework and the stock ASR policy.
//!
//! "A policy of use consists of restrictions and extensions. The
//! restrictions remove portions of S incompatible with T, while the
//! extensions introduce semantics present in T that have no equivalent in
//! S" (paper §2). Restrictions live here as [`Rule`]s; the extension —
//! the `ASR` base-class contract — is verified by [`crate::extension`]
//! and surfaced as rule R9.
//!
//! Rules are conservative by design, exactly as the paper concedes:
//! "there are programs that violate our restrictions, but are expressible
//! as ASR systems" (§4.3).

use crate::extension;
use crate::violation::{Fix, Violation};
use jtanalysis::{alloc, blocking, callgraph, flow, loops, threads, visibility};
use jtlang::ast::Program;
use jtlang::reparse::MemberPos;
use jtlang::resolve::ClassTable;
use jtlang::token::Span;

/// Everything a rule may inspect: the program, its class table, and the
/// shared analysis results (computed once per check).
pub struct AnalysisContext<'a> {
    /// The program under analysis.
    pub program: &'a Program,
    /// Its resolved class table.
    pub table: &'a ClassTable,
    /// Call graph.
    pub callgraph: callgraph::CallGraph,
    /// Loop analysis.
    pub loops: Vec<loops::LoopInfo>,
    /// Allocation analysis.
    pub alloc: alloc::AllocReport,
    /// Exposed-state analysis.
    pub exposed: Vec<visibility::ExposedField>,
    /// Thread-usage analysis.
    pub threads: Vec<threads::ThreadUse>,
    /// Blocking-call analysis.
    pub blocking: Vec<blocking::BlockingCall>,
    /// Flow-sensitive dataflow suite (CFG + lattice analyses): feeds the
    /// precision upgrade of R2 and all of R10–R12. Shared with the
    /// database's revision replay cache.
    pub flow: std::sync::Arc<flow::FlowReport>,
}

impl<'a> AnalysisContext<'a> {
    /// Runs every analysis once.
    pub fn new(program: &'a Program, table: &'a ClassTable) -> Self {
        Self::build(program, table, None, None)
    }

    /// Like [`AnalysisContext::new`], but exports `jtanalysis.*` metrics
    /// into `registry` while the dataflow suite runs.
    pub fn instrumented(
        program: &'a Program,
        table: &'a ClassTable,
        registry: &jtobs::Registry,
    ) -> Self {
        Self::build(program, table, None, Some(registry))
    }

    /// Like [`AnalysisContext::new`], but runs the dataflow suite
    /// through `db`, reusing every cached query whose fingerprint is
    /// unchanged since the database last saw this (or any structurally
    /// overlapping) program. This is what makes repeated
    /// [`crate::session::RefinementSession::check`] calls cheap.
    pub fn with_db(
        program: &'a Program,
        table: &'a ClassTable,
        db: &mut jtanalysis::db::AnalysisDb,
        registry: Option<&jtobs::Registry>,
    ) -> Self {
        Self::build(program, table, Some((db, None)), registry)
    }

    /// [`AnalysisContext::with_db`] for a program that differs from the
    /// one `db` analyzed last only by the members in `spliced` (see
    /// [`jtanalysis::db::AnalysisDb::analyze_spliced`]).
    pub fn with_db_spliced(
        program: &'a Program,
        table: &'a ClassTable,
        db: &mut jtanalysis::db::AnalysisDb,
        spliced: &[MemberPos],
        registry: Option<&jtobs::Registry>,
    ) -> Self {
        Self::build(program, table, Some((db, Some(spliced))), registry)
    }

    fn build(
        program: &'a Program,
        table: &'a ClassTable,
        db: Option<(&mut jtanalysis::db::AnalysisDb, Option<&[MemberPos]>)>,
        registry: Option<&jtobs::Registry>,
    ) -> Self {
        let graph = callgraph::build(program, table);
        let flow = match (db, registry) {
            (Some((db, Some(spliced))), r) => {
                db.analyze_spliced(program, table, &graph, spliced, r)
            }
            (Some((db, None)), Some(r)) => db.analyze_with_registry(program, table, &graph, r),
            (Some((db, None)), None) => db.analyze(program, table, &graph),
            (None, Some(r)) => {
                jtanalysis::db::AnalysisDb::new().analyze_with_registry(program, table, &graph, r)
            }
            (None, None) => jtanalysis::db::AnalysisDb::new().analyze(program, table, &graph),
        };
        AnalysisContext {
            alloc: alloc::analyze_with_graph(program, table, &graph),
            callgraph: graph,
            loops: loops::analyze(program),
            exposed: visibility::analyze(program),
            threads: threads::analyze(program, table),
            blocking: blocking::analyze(program, table),
            flow,
            program,
            table,
        }
    }

    fn class_of_method(&self, m: &jtanalysis::MethodRef) -> String {
        m.class.clone()
    }
}

/// One restriction of a policy of use.
pub trait Rule {
    /// Stable identifier (`R1` …).
    fn id(&self) -> &'static str;

    /// Human-readable title.
    fn title(&self) -> &'static str;

    /// Checks the rule, returning all violations.
    fn check(&self, cx: &AnalysisContext<'_>) -> Vec<Violation>;
}

/// An ordered set of rules: the policy of use for one target model.
pub struct Policy {
    name: String,
    rules: Vec<Box<dyn Rule>>,
}

impl Policy {
    /// An empty policy with the given name (add rules with
    /// [`Policy::with_rule`]).
    pub fn new(name: impl Into<String>) -> Self {
        Policy {
            name: name.into(),
            rules: Vec::new(),
        }
    }

    /// Adds a rule (builder style).
    pub fn with_rule(mut self, rule: impl Rule + 'static) -> Self {
        self.rules.push(Box::new(rule));
        self
    }

    /// The policy's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The rules, in order.
    pub fn rules(&self) -> impl Iterator<Item = &dyn Rule> {
        self.rules.iter().map(AsRef::as_ref)
    }

    /// The full ASR policy of use from the paper's §4.2–4.3, plus the
    /// flow-sensitive rules R10–R12 built on the dataflow suite.
    pub fn asr() -> Policy {
        Policy::new("ASR")
            .with_rule(NoWhileLoops)
            .with_rule(BoundedForLoops)
            .with_rule(NoRecursion)
            .with_rule(InitOnlyAllocation)
            .with_rule(PrivateState)
            .with_rule(NoThreads)
            .with_rule(NoBlocking)
            .with_rule(NoFinalizers)
            .with_rule(AsrStructure)
            .with_rule(DefiniteAssignment)
            .with_rule(ArrayIndexBounds)
            .with_rule(SharedStateRaces)
            .with_rule(PureBlockUpdates)
            .with_rule(NoStateAliasing)
    }

    /// A policy of use for a synchronous-dataflow-style target — the
    /// paper's future work ("policies of use will be developed for
    /// additional models of computation", §6), demonstrating that SFR is
    /// parameterized by the target model.
    ///
    /// Dataflow actors need bounded firings (R1–R3, R7) and a single
    /// well-defined lifecycle (R8, no threads R6), but token storage is
    /// managed by the dataflow scheduler, so run-phase allocation (R4)
    /// and state privacy (R5) are not load-bearing, and no `ASR` base
    /// class is involved (R9).
    pub fn sdf() -> Policy {
        Policy::new("SDF")
            .with_rule(NoWhileLoops)
            .with_rule(BoundedForLoops)
            .with_rule(NoRecursion)
            .with_rule(NoThreads)
            .with_rule(NoBlocking)
            .with_rule(NoFinalizers)
    }

    /// Checks every rule against `program`.
    pub fn check(&self, program: &Program, table: &ClassTable) -> Vec<Violation> {
        let cx = AnalysisContext::new(program, table);
        self.check_with_context(&cx)
    }

    /// Checks every rule against a prepared context. Violations come
    /// back in a stable source order (span, then rule id), with exact
    /// duplicates removed — overlapping analyses may report the same
    /// defect twice.
    pub fn check_with_context(&self, cx: &AnalysisContext<'_>) -> Vec<Violation> {
        let mut violations: Vec<Violation> =
            self.rules.iter().flat_map(|r| r.check(cx)).collect();
        violations.sort_by(|a, b| {
            (a.span.start, a.span.end, a.rule).cmp(&(b.span.start, b.span.end, b.rule))
        });
        violations.dedup_by(|a, b| a.rule == b.rule && a.span == b.span && a.message == b.message);
        violations
    }
}

impl std::fmt::Debug for Policy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Policy")
            .field("name", &self.name)
            .field("rules", &self.rules.len())
            .finish()
    }
}

/// R1: `while` and `do-while` loops may not be used (paper §4.3).
pub struct NoWhileLoops;

impl Rule for NoWhileLoops {
    fn id(&self) -> &'static str {
        "R1"
    }

    fn title(&self) -> &'static str {
        "no while or do-while loops"
    }

    fn check(&self, cx: &AnalysisContext<'_>) -> Vec<Violation> {
        cx.loops
            .iter()
            .filter(|l| matches!(l.kind, loops::LoopKind::While | loops::LoopKind::DoWhile))
            .map(|l| Violation {
                rule: self.id(),
                rule_title: self.title(),
                message: format!(
                    "`{}` loop in {} cannot be proven to terminate",
                    if l.kind == loops::LoopKind::While {
                        "while"
                    } else {
                        "do-while"
                    },
                    l.method
                ),
                span: l.span,
                class: cx.class_of_method(&l.method),
                fix: Fix::Automated {
                    transform: "while-to-for",
                    description: "rewrite as a capped `for` loop with an early break \
                                  (you confirm the iteration cap)"
                        .to_string(),
                },
            })
            .collect()
    }
}

/// R2: `for` loops need calculable bounds and an unmodified induction
/// variable (paper §4.3).
///
/// Flow-sensitive since the dataflow suite landed: a loop the syntactic
/// shape analysis rejects is still accepted when interval analysis
/// proves a worst-case trip count at the loop's entry (e.g. a limit read
/// from a port but clamped by a preceding `if`).
pub struct BoundedForLoops;

impl Rule for BoundedForLoops {
    fn id(&self) -> &'static str {
        "R2"
    }

    fn title(&self) -> &'static str {
        "for-loop bounds must be calculable"
    }

    fn check(&self, cx: &AnalysisContext<'_>) -> Vec<Violation> {
        cx.loops
            .iter()
            .filter(|l| !cx.flow.interval.proved_loop_bounds.contains_key(&l.id))
            .filter_map(|l| match &l.bound {
                Some(loops::BoundStatus::NotCalculable { reason }) => Some(Violation {
                    rule: self.id(),
                    rule_title: self.title(),
                    message: format!("`for` loop in {}: {reason}", l.method),
                    span: l.span,
                    class: cx.class_of_method(&l.method),
                    fix: Fix::Automated {
                        transform: "for-to-capped-for",
                        description: "rewrite as a capped `for` loop preserving the original \
                                      condition as a break (you confirm the iteration cap)"
                            .to_string(),
                    },
                }),
                _ => None,
            })
            .collect()
    }
}

/// R3: circular method invocations are not allowed (paper §4.3).
pub struct NoRecursion;

impl Rule for NoRecursion {
    fn id(&self) -> &'static str {
        "R3"
    }

    fn title(&self) -> &'static str {
        "no circular method invocation"
    }

    fn check(&self, cx: &AnalysisContext<'_>) -> Vec<Violation> {
        cx.callgraph
            .recursive_cycles()
            .into_iter()
            .map(|cycle| {
                let names: Vec<String> = cycle.iter().map(ToString::to_string).collect();
                Violation {
                    rule: self.id(),
                    rule_title: self.title(),
                    message: format!("call cycle: {}", names.join(" -> ")),
                    span: Span::default(),
                    class: cycle[0].class.clone(),
                    fix: Fix::Manual {
                        guidance: "replace the recursion with an explicitly bounded \
                                   iteration (the equivalent loop must satisfy R2)"
                            .to_string(),
                    },
                }
            })
            .collect()
    }
}

/// R4: objects may be instantiated only during initialization (paper
/// §4.3); linked structures should be eliminated.
pub struct InitOnlyAllocation;

impl Rule for InitOnlyAllocation {
    fn id(&self) -> &'static str {
        "R4"
    }

    fn title(&self) -> &'static str {
        "allocation only during initialization"
    }

    fn check(&self, cx: &AnalysisContext<'_>) -> Vec<Violation> {
        let mut violations: Vec<Violation> = cx
            .alloc
            .run_phase_sites()
            .map(|site| {
                let hoistable = matches!(
                    &site.kind,
                    alloc::AllocKind::Array {
                        const_len: Some(_),
                        ..
                    }
                );
                Violation {
                    rule: self.id(),
                    rule_title: self.title(),
                    message: format!(
                        "`new` reachable from the run phase in {} ({})",
                        site.method,
                        match &site.kind {
                            alloc::AllocKind::Object { class } => format!("object `{class}`"),
                            alloc::AllocKind::Array {
                                const_len: Some(n), ..
                            } => format!("array of constant length {n}"),
                            alloc::AllocKind::Array { .. } =>
                                "array of non-constant length".to_string(),
                        }
                    ),
                    span: site.span,
                    class: site.method.class.clone(),
                    fix: if hoistable {
                        Fix::Automated {
                            transform: "hoist-allocation",
                            description: "preallocate the buffer as a private field in the \
                                          constructor and reuse it each reaction"
                                .to_string(),
                        }
                    } else {
                        Fix::Manual {
                            guidance: "replace the dynamic structure with a statically \
                                       allocated one sized for the worst case"
                                .to_string(),
                        }
                    },
                }
            })
            .collect();
        for class in &cx.alloc.linked_classes {
            violations.push(Violation {
                rule: self.id(),
                rule_title: self.title(),
                message: format!(
                    "class `{class}` forms a linked structure (reference cycle in its \
                     field types)"
                ),
                span: cx
                    .program
                    .class(class)
                    .map(|c| c.span)
                    .unwrap_or_default(),
                class: class.clone(),
                fix: Fix::Manual {
                    guidance: "replace the linked structure with a statically allocated \
                               array sized for the worst case"
                        .to_string(),
                },
            });
        }
        violations
    }
}

/// R5: an object's variables must be private (paper §4.3).
pub struct PrivateState;

impl Rule for PrivateState {
    fn id(&self) -> &'static str {
        "R5"
    }

    fn title(&self) -> &'static str {
        "object state must be private"
    }

    fn check(&self, cx: &AnalysisContext<'_>) -> Vec<Violation> {
        cx.exposed
            .iter()
            .map(|e| Violation {
                rule: self.id(),
                rule_title: self.title(),
                message: format!(
                    "field `{}` of `{}` is {} — external modification or observation of \
                     state undermines encapsulation",
                    e.field,
                    e.class,
                    if e.visibility == jtlang::ast::Visibility::Package {
                        "package-visible".to_string()
                    } else {
                        e.visibility.to_string()
                    }
                ),
                span: e.span,
                class: e.class.clone(),
                fix: Fix::Automated {
                    transform: "privatize-fields",
                    description: "declare the field private (rejected if another class \
                                  accesses it)"
                        .to_string(),
                },
            })
            .collect()
    }
}

/// R6: direct use of threads is prohibited (paper §4.3, Fig. 8).
pub struct NoThreads;

impl Rule for NoThreads {
    fn id(&self) -> &'static str {
        "R6"
    }

    fn title(&self) -> &'static str {
        "no direct thread use"
    }

    fn check(&self, cx: &AnalysisContext<'_>) -> Vec<Violation> {
        cx.threads
            .iter()
            .map(|u| {
                let (message, class) = match &u.kind {
                    threads::ThreadUseKind::ExtendsThread { class } => (
                        format!("class `{class}` extends Thread"),
                        class.clone(),
                    ),
                    threads::ThreadUseKind::NewThread { class } => (
                        format!(
                            "thread object `{class}` instantiated in {}",
                            u.method.as_ref().map(ToString::to_string).unwrap_or_default()
                        ),
                        u.method.as_ref().map(|m| m.class.clone()).unwrap_or_default(),
                    ),
                    threads::ThreadUseKind::LifecycleCall { method } => (
                        format!(
                            "thread lifecycle call `{method}` in {}",
                            u.method.as_ref().map(ToString::to_string).unwrap_or_default()
                        ),
                        u.method.as_ref().map(|m| m.class.clone()).unwrap_or_default(),
                    ),
                };
                Violation {
                    rule: self.id(),
                    rule_title: self.title(),
                    message,
                    span: u.span,
                    class,
                    fix: Fix::Manual {
                        guidance: "obtain concurrency by specifying separate ASR functional \
                                   blocks connected by channels; thread interleaving is \
                                   nondeterministic (see the sched crate's Fig. 8 \
                                   demonstration)"
                            .to_string(),
                    },
                }
            })
            .collect()
    }
}

/// R7: no methods that may halt or indefinitely suspend execution
/// (paper §4.3).
pub struct NoBlocking;

impl Rule for NoBlocking {
    fn id(&self) -> &'static str {
        "R7"
    }

    fn title(&self) -> &'static str {
        "no indefinite suspension"
    }

    fn check(&self, cx: &AnalysisContext<'_>) -> Vec<Violation> {
        cx.blocking
            .iter()
            .map(|c| Violation {
                rule: self.id(),
                rule_title: self.title(),
                message: format!("call to `{}` in {} may suspend indefinitely", c.callee, c.method),
                span: c.span,
                class: c.method.class.clone(),
                fix: Fix::Automated {
                    transform: "strip-blocking-calls",
                    description: "delete the blocking call statement; reactive timing comes \
                                  from the instant structure, not from suspension"
                        .to_string(),
                },
            })
            .collect()
    }
}

/// R8: finalization is disallowed — it would represent destruction of
/// the system (paper §4).
pub struct NoFinalizers;

impl Rule for NoFinalizers {
    fn id(&self) -> &'static str {
        "R8"
    }

    fn title(&self) -> &'static str {
        "no finalizers"
    }

    fn check(&self, cx: &AnalysisContext<'_>) -> Vec<Violation> {
        cx.program
            .classes
            .iter()
            .flat_map(|c| c.methods.iter().map(move |m| (c, m)))
            .filter(|(_, m)| m.name == "finalize")
            .map(|(c, m)| Violation {
                rule: self.id(),
                rule_title: self.title(),
                message: format!("`{}` declares a finalizer", c.name),
                span: m.span,
                class: c.name.clone(),
                fix: Fix::Automated {
                    transform: "remove-finalizers",
                    description: "delete the finalize method; an embedded system is never \
                                  destroyed"
                        .to_string(),
                },
            })
            .collect()
    }
}

/// R9: the specification must be structured as the ASR extension
/// prescribes — a class extending `ASR` whose `run` method defines the
/// behaviour (paper §4.2, Fig. 7).
pub struct AsrStructure;

impl Rule for AsrStructure {
    fn id(&self) -> &'static str {
        "R9"
    }

    fn title(&self) -> &'static str {
        "specification must extend ASR and define run()"
    }

    fn check(&self, cx: &AnalysisContext<'_>) -> Vec<Violation> {
        let mut violations = Vec::new();
        let mut found_entry = false;
        for class in &cx.program.classes {
            if !cx.table.is_subclass_of(&class.name, "ASR") {
                continue;
            }
            match extension::verify(cx.program, cx.table, &class.name) {
                Ok(_) => found_entry = true,
                Err(e) => violations.push(Violation {
                    rule: self.id(),
                    rule_title: self.title(),
                    message: format!("`{}` violates the ASR contract: {e}", class.name),
                    span: class.span,
                    class: class.name.clone(),
                    fix: Fix::Manual {
                        guidance: "give the class a void run() with no parameters and use \
                                   constant port indices in read/write calls"
                            .to_string(),
                    },
                }),
            }
        }
        if !found_entry && violations.is_empty() {
            violations.push(Violation {
                rule: self.id(),
                rule_title: self.title(),
                message: "no class extends ASR; the design has no specification entry point"
                    .to_string(),
                span: Span::default(),
                class: String::new(),
                fix: Fix::Manual {
                    guidance: "encapsulate the design in a class extending ASR (Fig. 7)"
                        .to_string(),
                },
            });
        }
        violations
    }
}

/// R10: every local must be definitely assigned before it is read.
///
/// Backed by the forward must-analysis in `jtanalysis::definite`; this
/// catches a class of true defects the syntactic rules R1–R9 cannot see
/// at all (they have no notion of paths).
pub struct DefiniteAssignment;

impl Rule for DefiniteAssignment {
    fn id(&self) -> &'static str {
        "R10"
    }

    fn title(&self) -> &'static str {
        "locals must be assigned before use"
    }

    fn check(&self, cx: &AnalysisContext<'_>) -> Vec<Violation> {
        cx.flow
            .definite
            .unassigned_reads
            .iter()
            .map(|r| Violation {
                rule: self.id(),
                rule_title: self.title(),
                message: format!(
                    "local `{}` in {} may be read before it is assigned",
                    r.name, r.method
                ),
                span: r.span,
                class: r.method.class.clone(),
                fix: Fix::Manual {
                    guidance: "initialize the variable at its declaration, or assign it \
                               on every path that reaches the read"
                        .to_string(),
                },
            })
            .collect()
    }
}

/// R11: array indices must stay inside the array's bounds.
///
/// Backed by interval analysis; only *definite* errors are reported — an
/// access whose index range cannot intersect the array's length range on
/// any execution. Possibly-out-of-bounds accesses are not flagged, so
/// the rule never rejects a program that runs in bounds.
pub struct ArrayIndexBounds;

impl Rule for ArrayIndexBounds {
    fn id(&self) -> &'static str {
        "R11"
    }

    fn title(&self) -> &'static str {
        "array indices must be in bounds"
    }

    fn check(&self, cx: &AnalysisContext<'_>) -> Vec<Violation> {
        cx.flow
            .interval
            .oob
            .iter()
            .map(|f| Violation {
                rule: self.id(),
                rule_title: self.title(),
                message: match f.length {
                    Some(len) => format!(
                        "array access in {} is provably out of bounds: the index is at \
                         least {} but the array length is {len}",
                        f.method, f.index.lo
                    ),
                    None => format!(
                        "array access in {} is provably negative (index is at most {})",
                        f.method, f.index.hi
                    ),
                },
                span: f.span,
                class: f.method.class.clone(),
                fix: Fix::Manual {
                    guidance: "clamp the index or size the array for the worst case; \
                               every reachable access must fit the allocation"
                        .to_string(),
                },
            })
            .collect()
    }
}

/// R12: shared fields must not be raced by concurrent threads.
///
/// Backed by the *alias-aware* tier of the race analysis (the top of the
/// three-tier ladder): a candidate counts only when two or more thread
/// **instances** can reach the same abstract object holding the field,
/// with at least one write outside the single-threaded initialization
/// phase. Fields whose instances are each confined to one thread are
/// cleared; fields the points-to analysis cannot resolve keep the
/// phase-refined verdict.
pub struct SharedStateRaces;

impl Rule for SharedStateRaces {
    fn id(&self) -> &'static str {
        "R12"
    }

    fn title(&self) -> &'static str {
        "no data races on shared state"
    }

    fn check(&self, cx: &AnalysisContext<'_>) -> Vec<Violation> {
        cx.flow
            .races
            .alias_aware
            .iter()
            .map(|race| {
                let threads: Vec<&str> =
                    race.thread_classes.iter().map(String::as_str).collect();
                let loc = match &race.object {
                    Some((span, class)) => {
                        format!(" on the `{class}` instance allocated at {span}")
                    }
                    None => String::new(),
                };
                Violation {
                    rule: self.id(),
                    rule_title: self.title(),
                    message: format!(
                        "field `{}`{loc} is written by concurrently running threads ({}) \
                         with no synchronization; the interleaving is nondeterministic",
                        race.field,
                        threads.join(", ")
                    ),
                    span: race.access_spans.first().copied().unwrap_or_default(),
                    class: race.field.class.clone(),
                    fix: Fix::Manual {
                        guidance: "route the shared data through channels between separate \
                                   ASR functional blocks; each block then owns its state"
                            .to_string(),
                    },
                }
            })
            .collect()
    }
}

/// R13: an ASR block's per-instant update must be *pure* over state the
/// block owns.
///
/// The paper demands that blocks "behave as functions" within an instant
/// (§4.3): the only state a reaction may mutate is the block's own delay
/// elements. Backed by the interprocedural summary engine: every field
/// write reachable from a block's `run` is attributed to its holding
/// abstract object(s), which must be transitively owned by the block.
pub struct PureBlockUpdates;

impl Rule for PureBlockUpdates {
    fn id(&self) -> &'static str {
        "R13"
    }

    fn title(&self) -> &'static str {
        "block updates must be pure over non-owned state"
    }

    fn check(&self, cx: &AnalysisContext<'_>) -> Vec<Violation> {
        cx.flow
            .summary
            .impure_blocks
            .iter()
            .map(|f| Violation {
                rule: self.id(),
                rule_title: self.title(),
                message: format!(
                    "block `{}` is impure: its run phase writes `{}` (in {}), which the \
                     block does not own — the reaction is not a function of its inputs \
                     and delay elements",
                    f.block, f.field, f.method
                ),
                span: f.span,
                class: f.block.clone(),
                fix: Fix::Manual {
                    guidance: "give each block its own copy of the state, or route the \
                               shared value through channels so exactly one block owns \
                               and updates it"
                        .to_string(),
                },
            })
            .collect()
    }
}

/// R14: state fixed at initialization must not escape through aliases.
///
/// A method that returns (or otherwise leaks) a reference held in one of
/// its receiver's fields hands out an *alias* of state that the SFR
/// model fixes at initialization (§4.3); two contexts holding the alias
/// can then mutate the same object after the initialization phase ends.
/// Backed by the escape summaries: only reference-typed fields whose
/// target carries mutable state are flagged.
pub struct NoStateAliasing;

impl Rule for NoStateAliasing {
    fn id(&self) -> &'static str {
        "R14"
    }

    fn title(&self) -> &'static str {
        "no aliases of initialization-fixed state"
    }

    fn check(&self, cx: &AnalysisContext<'_>) -> Vec<Violation> {
        cx.flow
            .summary
            .alias_leaks
            .iter()
            .map(|l| Violation {
                rule: self.id(),
                rule_title: self.title(),
                message: format!(
                    "`{}.{}` {} an alias of the mutable state held in field `{}`; shared \
                     references defeat the fixed-at-initialization discipline",
                    l.class,
                    l.method,
                    if l.via_return {
                        "returns"
                    } else {
                        "leaks"
                    },
                    l.field
                ),
                span: l.span,
                class: l.class.clone(),
                fix: Fix::Manual {
                    guidance: "return a copy of the data, or restructure so consumers \
                               receive values through channels instead of sharing the \
                               backing object"
                        .to_string(),
                },
            })
            .collect()
    }
}

/// The structured [`jtanalysis::evidence::Evidence`] entry backing
/// violation `v`, when its rule is one of the proof-carrying four (R2,
/// R12, R13, R14). The analyses emit a finding-verdict evidence value
/// for every violation those rules report, so `None` for such a
/// violation indicates an internal inconsistency; all other rules
/// return `None` by construction.
pub fn evidence_for<'e>(
    flow: &'e flow::FlowReport,
    v: &Violation,
) -> Option<&'e jtanalysis::evidence::Evidence> {
    use jtanalysis::evidence::{Evidence, Verdict};
    match v.rule {
        "R2" => flow.summary.evidence.iter().find(|e| match e {
            Evidence::LoopBound {
                verdict, loop_span, ..
            } => *verdict == Verdict::Finding && loop_span.matches(v.span),
            _ => false,
        }),
        "R12" => flow.races.evidence.iter().find(|e| match e {
            Evidence::AliasRace {
                verdict,
                field,
                accesses,
                ..
            } => {
                *verdict == Verdict::Finding
                    && v.message.contains(&format!("`{field}`"))
                    && accesses.iter().any(|a| a.span.matches(v.span))
            }
            _ => false,
        }),
        "R13" => flow.summary.evidence.iter().find(|e| match e {
            Evidence::Ownership {
                verdict,
                block,
                write,
                ..
            } => *verdict == Verdict::Finding && *block == v.class && write.span.matches(v.span),
            _ => false,
        }),
        "R14" => flow.summary.evidence.iter().find(|e| match e {
            Evidence::AliasLeak {
                verdict,
                class,
                field,
                decl_span,
                ..
            } => {
                *verdict == Verdict::Finding
                    && *class == v.class
                    && decl_span.matches(v.span)
                    && v.message.contains(&format!("`{field}`"))
            }
            _ => false,
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jtanalysis::frontend;

    fn violations(src: &str) -> Vec<Violation> {
        let (p, t) = frontend(src).unwrap();
        Policy::asr().check(&p, &t)
    }

    fn rules_hit(src: &str) -> Vec<&'static str> {
        let mut ids: Vec<&'static str> = violations(src).iter().map(|v| v.rule).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    #[test]
    fn compliant_corpus_samples_pass() {
        for s in jtlang::corpus::samples().iter().filter(|s| s.compliant) {
            let v = violations(s.source);
            assert!(v.is_empty(), "sample `{}` flagged: {v:?}", s.name);
        }
    }

    #[test]
    fn noncompliant_corpus_samples_fail() {
        for s in jtlang::corpus::samples().iter().filter(|s| !s.compliant) {
            assert!(
                !violations(s.source).is_empty(),
                "sample `{}` unexpectedly passed",
                s.name
            );
        }
    }

    #[test]
    fn unrestricted_avg_hits_r1_r4_r5() {
        let ids = rules_hit(jtlang::corpus::UNRESTRICTED_AVG);
        assert!(ids.contains(&"R1"), "{ids:?}");
        assert!(ids.contains(&"R4"), "{ids:?}");
        assert!(ids.contains(&"R5"), "{ids:?}");
    }

    #[test]
    fn linked_queue_hits_r1_and_r4() {
        let ids = rules_hit(jtlang::corpus::LINKED_QUEUE);
        assert!(ids.contains(&"R1"), "do-while: {ids:?}");
        assert!(ids.contains(&"R4"), "run-phase new + linked: {ids:?}");
    }

    #[test]
    fn racy_threads_hits_r6_and_r9() {
        let ids = rules_hit(jtlang::corpus::RACY_THREADS);
        assert!(ids.contains(&"R6"), "{ids:?}");
        assert!(ids.contains(&"R9"), "no ASR entry point: {ids:?}");
        assert!(ids.contains(&"R5"), "shared public x: {ids:?}");
        assert!(ids.contains(&"R12"), "refined race on Shared.x: {ids:?}");
    }

    #[test]
    fn racy_threads_r12_names_only_the_real_race() {
        // Precision demonstration, clearing side: `ReaderC.seen` is
        // written by one thread and read after `join()` — the syntactic
        // tier flags it, the refined tier (and thus R12) does not.
        let vs = violations(jtlang::corpus::RACY_THREADS);
        let r12: Vec<&Violation> = vs.iter().filter(|v| v.rule == "R12").collect();
        assert_eq!(r12.len(), 1, "{r12:?}");
        assert!(r12[0].message.contains("Shared.x"), "{}", r12[0].message);
        assert!(!r12[0].message.contains("seen"), "{}", r12[0].message);
    }

    #[test]
    fn unassigned_latch_hits_only_r10() {
        // Precision demonstration, finding side: the sample satisfies
        // every syntactic rule; only the path-sensitive R10 sees the
        // read-before-write.
        let ids = rules_hit(jtlang::corpus::UNASSIGNED_LATCH);
        assert_eq!(ids, vec!["R10"]);
        let vs = violations(jtlang::corpus::UNASSIGNED_LATCH);
        assert!(vs[0].message.contains("`next`"), "{}", vs[0].message);
        assert!(vs[0].span.line > 0, "finding must carry a real span");
    }

    #[test]
    fn clamped_loop_limit_no_longer_trips_r2() {
        // Same shape as `unbounded_for_hits_r2` but with a clamp before
        // the loop: interval analysis proves the bound, so the loop that
        // the syntactic heuristic rejects is accepted.
        let ids = rules_hit(
            "class A extends ASR {
                 A() {}
                 public void run() {
                     int n = read(0);
                     if (n > 15) { n = 15; }
                     int s = 0;
                     for (int i = 0; i < n; i++) { s += i; }
                     write(0, s);
                 }
             }",
        );
        assert!(ids.is_empty(), "{ids:?}");
    }

    #[test]
    fn definite_out_of_bounds_hits_r11() {
        let ids = rules_hit(
            "class A extends ASR {
                 private int[] buf;
                 A() { buf = new int[4]; }
                 public void run() {
                     buf[7] = read(0);
                     write(0, buf[0]);
                 }
             }",
        );
        assert_eq!(ids, vec!["R11"]);
    }

    #[test]
    fn possible_but_unproven_oob_is_not_flagged() {
        // The index depends on the input; it *may* overflow the array,
        // but R11 only reports definite errors.
        let ids = rules_hit(
            "class A extends ASR {
                 private int[] buf;
                 A() { buf = new int[4]; }
                 public void run() {
                     int i = read(0);
                     if (i < 0) { i = 0; }
                     if (i > 3) { i = 3; }
                     write(0, buf[i]);
                 }
             }",
        );
        assert!(ids.is_empty(), "{ids:?}");
    }

    #[test]
    fn check_output_is_sorted_and_deduplicated() {
        let vs = violations(jtlang::corpus::UNRESTRICTED_AVG);
        assert!(
            vs.windows(2).all(|w| {
                (w[0].span.start, w[0].span.end, w[0].rule)
                    <= (w[1].span.start, w[1].span.end, w[1].rule)
            }),
            "violations must be in stable source order"
        );
        for w in vs.windows(2) {
            assert!(
                !(w[0].rule == w[1].rule
                    && w[0].span == w[1].span
                    && w[0].message == w[1].message),
                "exact duplicate survived: {:?}",
                w[0]
            );
        }
    }

    #[test]
    fn recursive_blocking_hits_r3_and_r7() {
        let ids = rules_hit(jtlang::corpus::RECURSIVE_BLOCKING);
        assert!(ids.contains(&"R3"), "{ids:?}");
        assert!(ids.contains(&"R7"), "{ids:?}");
    }

    #[test]
    fn unbounded_for_hits_r2() {
        let ids = rules_hit(
            "class A extends ASR {
                 A() {}
                 public void run() {
                     int n = read(0);
                     int s = 0;
                     for (int i = 0; i < n; i++) { s += i; }
                     write(0, s);
                 }
             }",
        );
        assert_eq!(ids, vec!["R2"]);
    }

    #[test]
    fn finalizer_hits_r8() {
        let ids = rules_hit(
            "class A extends ASR {
                 A() {}
                 public void run() { write(0, read(0)); }
                 void finalize() {}
             }",
        );
        assert_eq!(ids, vec!["R8"]);
    }

    #[test]
    fn missing_asr_class_hits_r9() {
        let ids = rules_hit("class A { void m() {} }");
        assert_eq!(ids, vec!["R9"]);
    }

    #[test]
    fn sdf_policy_is_a_strict_relaxation() {
        // Programs that only violate R4/R5/R9 are inside the SDF policy's
        // S′ but outside the ASR one.
        let (p, t) = frontend(
            "class Actor {
                 public int tokens;
                 void fire() {
                     int[] batch = new int[tokens + 1];
                     for (int i = 0; i < batch.length; i++) { batch[i] = i; }
                     tokens = batch.length;
                 }
             }",
        )
        .unwrap();
        assert!(Policy::sdf().check(&p, &t).is_empty());
        assert!(!Policy::asr().check(&p, &t).is_empty());

        // While loops are outside both.
        let (p, t) = frontend("class A { void m() { while (true) {} } }").unwrap();
        assert!(!Policy::sdf().check(&p, &t).is_empty());

        // Every SDF violation is also an ASR violation on the corpus.
        for s in jtlang::corpus::samples() {
            let (p, t) = frontend(s.source).unwrap();
            let sdf: Vec<_> = Policy::sdf().check(&p, &t);
            let asr_count = Policy::asr().check(&p, &t).len();
            assert!(sdf.len() <= asr_count, "sample `{}`", s.name);
        }
    }

    #[test]
    fn impure_block_update_hits_r13() {
        // Two blocks funnel into one shared accumulator: neither owns
        // it, so both run phases are impure.
        let vs = violations(
            "class Acc {
                 int total;
                 Acc() { total = 0; }
                 void add(int v) { total += v; }
             }
             class TapA extends ASR {
                 private Acc acc;
                 TapA(Acc a) { acc = a; }
                 public void run() { acc.add(read(0)); }
             }
             class TapB extends ASR {
                 private Acc acc;
                 TapB(Acc a) { acc = a; }
                 public void run() { acc.add(read(1)); }
             }
             class Main {
                 void wire() {
                     Acc shared = new Acc();
                     TapA a = new TapA(shared);
                     TapB b = new TapB(shared);
                 }
             }",
        );
        let r13: Vec<&Violation> = vs.iter().filter(|v| v.rule == "R13").collect();
        assert_eq!(r13.len(), 2, "{r13:?}");
        assert!(r13.iter().all(|v| v.message.contains("Acc.total")), "{r13:?}");
    }

    #[test]
    fn self_contained_block_is_silent_on_r13() {
        // The delay element `prev` belongs to the block itself.
        let ids = rules_hit(
            "class Diff extends ASR {
                 private int prev;
                 Diff() { prev = 0; }
                 public void run() {
                     int x = read(0);
                     write(0, x - prev);
                     prev = x;
                 }
             }",
        );
        assert!(ids.is_empty(), "{ids:?}");
    }

    #[test]
    fn getter_alias_hits_r14() {
        let vs = violations(
            "class Shared {
                 int val;
                 Shared() { val = 0; }
             }
             class Registry extends ASR {
                 private Shared slot;
                 Registry() { slot = new Shared(); }
                 Shared lookup() { return slot; }
                 public void run() { write(0, read(0)); }
             }",
        );
        let r14: Vec<&Violation> = vs.iter().filter(|v| v.rule == "R14").collect();
        assert_eq!(r14.len(), 1, "{r14:?}");
        assert!(r14[0].message.contains("Registry.lookup"), "{}", r14[0].message);
        assert!(r14[0].message.contains("`slot`"), "{}", r14[0].message);
    }

    #[test]
    fn aliased_shared_corpus_shows_the_three_tier_ladder() {
        // The getter-escape race on `Shared.val` survives to R12; the
        // per-instance `Cell.n` candidate the phase-refined tier still
        // carries is cleared by the alias tier and never reaches R12.
        let vs = violations(jtlang::corpus::ALIASED_SHARED);
        let r12: Vec<&Violation> = vs.iter().filter(|v| v.rule == "R12").collect();
        assert_eq!(r12.len(), 1, "{r12:?}");
        assert!(r12[0].message.contains("Shared.val"), "{}", r12[0].message);
        assert!(
            r12[0].message.contains("instance allocated at"),
            "alias tier names the object: {}",
            r12[0].message
        );
        assert!(!vs.iter().any(|v| v.message.contains("Cell.n")), "{vs:?}");
        let r14: Vec<&Violation> = vs.iter().filter(|v| v.rule == "R14").collect();
        assert_eq!(r14.len(), 1, "{r14:?}");
        assert!(r14[0].message.contains("Registry.lookup"), "{}", r14[0].message);
    }

    #[test]
    fn impure_block_corpus_hits_r13_and_r14() {
        let vs = violations(jtlang::corpus::IMPURE_BLOCK);
        let r13: Vec<&Violation> = vs.iter().filter(|v| v.rule == "R13").collect();
        assert_eq!(r13.len(), 2, "one per tap: {r13:?}");
        assert!(
            r13.iter().all(|v| v.message.contains("Accumulator.total")),
            "{r13:?}"
        );
        assert!(vs.iter().any(|v| v.rule == "R14"), "Builder.expose leaks: {vs:?}");
    }

    #[test]
    fn factory_blocks_is_clean_at_the_default_context_depth() {
        // The k=0 tier merges both stages' packets through the single
        // allocation site in `PacketPool.make` and reports R13 twice;
        // the k=1 default separates them (see the precision guard).
        assert_eq!(violations(jtlang::corpus::FACTORY_BLOCKS), vec![]);
    }

    #[test]
    fn builder_alias_survives_context_sensitivity() {
        let vs = violations(jtlang::corpus::BUILDER_ALIAS);
        let r13: Vec<&Violation> = vs.iter().filter(|v| v.rule == "R13").collect();
        assert_eq!(r13.len(), 2, "one per mixer: {r13:?}");
        assert!(r13.iter().all(|v| v.message.contains("Frame.seq")), "{r13:?}");
        let r14: Vec<&Violation> = vs.iter().filter(|v| v.rule == "R14").collect();
        assert_eq!(r14.len(), 1, "{r14:?}");
        assert!(r14[0].message.contains("FrameBuilder.build"), "{}", r14[0].message);
    }

    #[test]
    fn every_proof_carrying_violation_has_matching_evidence() {
        for s in jtlang::corpus::samples() {
            let (p, t) = frontend(s.source).unwrap();
            let cx = AnalysisContext::new(&p, &t);
            for v in Policy::asr().check_with_context(&cx) {
                let e = evidence_for(&cx.flow, &v);
                match v.rule {
                    "R2" | "R12" | "R13" | "R14" => {
                        let e = e.unwrap_or_else(|| {
                            panic!("`{}` {} finding has no evidence: {v:?}", s.name, v.rule)
                        });
                        assert_eq!(e.rule(), v.rule, "{}", s.name);
                        jtanalysis::evidence::verify(&p, &t, e)
                            .unwrap_or_else(|err| panic!("`{}`: {err}\n{e:?}", s.name));
                    }
                    _ => assert!(e.is_none(), "`{}` {}: {e:?}", s.name, v.rule),
                }
            }
        }
    }

    #[test]
    fn rule_metadata_is_stable() {
        let policy = Policy::asr();
        let ids: Vec<&str> = policy.rules().map(Rule::id).collect();
        assert_eq!(
            ids,
            vec![
                "R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9", "R10", "R11", "R12",
                "R13", "R14"
            ]
        );
        assert_eq!(policy.name(), "ASR");
        assert!(format!("{policy:?}").contains("ASR"));
    }
}
