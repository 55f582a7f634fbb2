//! The refinement session: the interactive loop of the paper's Fig. 2.
//!
//! "The program is analyzed to verify that the rules in the policy of use
//! are satisfied. If a violation is found, the user is presented with …
//! suggested solutions …. The user can then modify the program manually
//! or allow the tools to alter it automatically. This process of analysis
//! and modification is repeated until the program complies with all rules
//! in the policy of use." (paper §2)
//!
//! [`RefinementSession`] supports all three modes the paper's experiments
//! used ("a mix of manual, semi-automated, and automated techniques"):
//!
//! * **manual** — replace the program text wholesale with
//!   [`RefinementSession::replace_source`],
//! * **semi-automated** — inspect [`RefinementSession::check`] and apply
//!   a chosen transform with [`RefinementSession::apply`],
//! * **automated** — [`RefinementSession::refine_automatically`] applies
//!   every suggested transform until compliant or stuck, recording the
//!   violation-count trajectory (the Fig. 2 curve).

use crate::policy::{AnalysisContext, Policy};
use crate::transform::{self, TransformError, TransformOutcome};
use crate::violation::Violation;
use jtanalysis::db::{AnalysisDb, RunStats};
use jtanalysis::MethodRef;
use jtlang::ast::{MethodDecl, Program};
use jtlang::reparse::{Fallback, MemberPos, Reparse, Splice};
use jtlang::resolve::ClassTable;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;

/// One analyze/transform iteration in the session history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IterationRecord {
    /// Violations present before this iteration's transforms ran.
    pub violations: usize,
    /// Violations per rule id.
    pub by_rule: BTreeMap<&'static str, usize>,
    /// Transforms applied this iteration (with whether they changed the
    /// program).
    pub applied: Vec<(String, bool)>,
}

/// Result of [`RefinementSession::refine_automatically`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefinementReport {
    /// Number of analyze/transform iterations executed.
    pub iterations: usize,
    /// True when the final program satisfies every rule.
    pub compliant: bool,
    /// Violations that remain (manual work).
    pub remaining: Vec<Violation>,
    /// Names of transforms that changed the program, in order.
    pub applied: Vec<String>,
    /// Violation count before each iteration plus after the last — the
    /// Fig. 2 refinement trajectory.
    pub trajectory: Vec<usize>,
}

/// Error from session construction or manual source replacement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// The program failed the front end.
    Frontend(String),
    /// A transform failed or is unknown.
    Transform(String),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Frontend(e) => write!(f, "front-end error: {e}"),
            SessionError::Transform(e) => write!(f, "transform error: {e}"),
        }
    }
}

impl std::error::Error for SessionError {}

/// How [`RefinementSession::replace_source`] (or
/// [`RefinementSession::from_source`]) built the session's program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrontendPath {
    /// The edit lay inside one constructor or method with an unchanged
    /// signature: that member alone was re-parsed
    /// ([`jtlang::reparse()`]), spliced into the program and
    /// type-checked against the kept class table. Empty when the text
    /// did not change.
    Spliced {
        /// The re-parsed member.
        members: Vec<MethodRef>,
    },
    /// The whole text went through the front end, for this reason.
    Full(FullCause),
}

/// Why a revision took the full front end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FullCause {
    /// There was no text to compare with: the session's first revision,
    /// or the first after [`RefinementSession::apply`] rewrote the
    /// program.
    NoBaseText,
    /// The edit touches text outside every constructor and method.
    OutsideMember,
    /// The re-parsed member ended elsewhere than the old one, shifted by
    /// the edit (or turned into another kind of member).
    MemberEndMoved,
    /// The re-parsed member did not lex or parse on its own.
    ParseError,
    /// The member was spliced, but its signature changed, so the class
    /// table was resolved and the program type-checked again.
    SignatureChanged,
}

impl FullCause {
    /// The cause's name in the `sfr.frontend.full.<name>` metric.
    pub fn name(self) -> &'static str {
        match self {
            FullCause::NoBaseText => "no_base_text",
            FullCause::OutsideMember => "outside_member",
            FullCause::MemberEndMoved => "member_end_moved",
            FullCause::ParseError => "parse_error",
            FullCause::SignatureChanged => "signature_changed",
        }
    }
}

impl From<Fallback> for FullCause {
    fn from(f: Fallback) -> Self {
        match f {
            Fallback::OutsideMember => FullCause::OutsideMember,
            Fallback::MemberEndMoved => FullCause::MemberEndMoved,
            Fallback::ParseError => FullCause::ParseError,
        }
    }
}

impl From<TransformError> for SessionError {
    fn from(e: TransformError) -> Self {
        SessionError::Transform(e.message)
    }
}

/// A refinement session over one program and one policy of use.
///
/// The session owns an incremental [`jtanalysis::db::AnalysisDb`]:
/// every [`RefinementSession::check`] runs through it, so the
/// analyze/modify loop of Fig. 2 only re-analyzes the methods an edit
/// actually touched (plus the summary cone above them). See
/// [`RefinementSession::db_stats`].
///
/// The session also keeps the text its program was parsed from, so a
/// [`RefinementSession::replace_source`] whose edit stays inside one
/// member re-parses and type-checks that member alone, and the
/// database re-fingerprints only it. See
/// [`RefinementSession::frontend_path`].
pub struct RefinementSession {
    program: Program,
    table: ClassTable,
    policy: Policy,
    history: Vec<IterationRecord>,
    registry: Option<jtobs::Registry>,
    db: RefCell<AnalysisDb>,
    /// The text `program` was parsed from; `None` once a transform
    /// rewrote the program.
    text: Option<String>,
    /// Members spliced since the database last analyzed the program;
    /// `None` when it must fingerprint every member.
    spliced: RefCell<Option<Vec<MemberPos>>>,
    path: FrontendPath,
}

impl fmt::Debug for RefinementSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RefinementSession")
            .field("classes", &self.program.classes.len())
            .field("policy", &self.policy)
            .field("iterations", &self.history.len())
            .finish()
    }
}

impl RefinementSession {
    /// Starts a session from source text.
    ///
    /// # Errors
    ///
    /// [`SessionError::Frontend`] when the program does not parse,
    /// resolve, or type-check.
    pub fn from_source(source: &str, policy: Policy) -> Result<Self, SessionError> {
        let (program, table) = jtanalysis::frontend(source).map_err(SessionError::Frontend)?;
        Ok(RefinementSession {
            program,
            table,
            policy,
            history: Vec::new(),
            registry: None,
            db: RefCell::new(AnalysisDb::new()),
            text: Some(source.to_string()),
            spliced: RefCell::new(None),
            path: FrontendPath::Full(FullCause::NoBaseText),
        })
    }

    /// Starts publishing `sfr.*` metrics into `registry`: a
    /// `sfr.violations.<rule>` counter per violation found by
    /// [`Self::check`], `sfr.transforms.applied` plus a
    /// `sfr.transform.<name>` span per [`Self::apply`], and `sfr.check` /
    /// `sfr.pass` spans timing analysis and each automated-refinement
    /// iteration. A no-op when the `telemetry` feature is off.
    pub fn attach_registry(&mut self, registry: &jtobs::Registry) {
        if jtobs::ENABLED {
            self.registry = Some(registry.clone());
        }
    }

    /// Stops publishing metrics.
    pub fn detach_registry(&mut self) {
        self.registry = None;
    }

    /// The current program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The current program as source text.
    pub fn source(&self) -> String {
        jtlang::pretty::print_program(&self.program)
    }

    /// The session history, one record per iteration.
    pub fn history(&self) -> &[IterationRecord] {
        &self.history
    }

    /// Cache statistics of the session's analysis database:
    /// `(last check, lifetime totals)`. A second [`Self::check`] on an
    /// unchanged program reports zero recomputed queries in the first
    /// component.
    pub fn db_stats(&self) -> (RunStats, RunStats) {
        let db = self.db.borrow();
        (db.last_run(), db.totals())
    }

    /// Checks the policy against the current program. Violations come
    /// back deduplicated and in stable source order (span, then rule).
    pub fn check(&self) -> Vec<Violation> {
        let _span = self.registry.as_ref().map(|r| r.span("sfr.check"));
        let violations = {
            // Route every check through the session's analysis database
            // so unchanged methods are served from cache, and route the
            // registry (when attached) into the dataflow suite so the
            // `jtanalysis.*` metrics are exported alongside `sfr.*`.
            let mut db = self.db.borrow_mut();
            let spliced = self.spliced.replace(Some(Vec::new()));
            let (program, table, registry) = (&self.program, &self.table, self.registry.as_ref());
            let cx = match &spliced {
                Some(members) => {
                    AnalysisContext::with_db_spliced(program, table, &mut db, members, registry)
                }
                None => AnalysisContext::with_db(program, table, &mut db, registry),
            };
            self.policy.check_with_context(&cx)
        };
        if let Some(registry) = &self.registry {
            for v in &violations {
                registry.counter(&format!("sfr.violations.{}", v.rule)).inc();
            }
            registry.journal().record(jtobs::EventKind::SfrCheck {
                violations: violations.len() as u64,
            });
        }
        violations
    }

    /// True when the current program satisfies every rule.
    pub fn is_compliant(&self) -> bool {
        self.check().is_empty()
    }

    /// Manual mode: replaces the program wholesale (the designer edited
    /// the source).
    ///
    /// When the edit from the previous text lies inside one constructor
    /// or method and keeps its signature, only that member is re-parsed
    /// and type-checked; otherwise the whole text goes through the
    /// front end. Both give the same program, table and errors;
    /// [`Self::frontend_path`] tells which one ran, and with a registry
    /// attached each path counts as `sfr.frontend.spliced` or
    /// `sfr.frontend.full.<cause>` ([`FullCause::name`]).
    ///
    /// # Errors
    ///
    /// [`SessionError::Frontend`] when the new text is ill-formed; the
    /// session then keeps its program.
    pub fn replace_source(&mut self, source: &str) -> Result<(), SessionError> {
        let path = self.load(source)?;
        if let Some(registry) = &self.registry {
            let name = match &path {
                FrontendPath::Spliced { .. } => "sfr.frontend.spliced".to_string(),
                FrontendPath::Full(cause) => format!("sfr.frontend.full.{}", cause.name()),
            };
            registry.counter(&name).inc();
        }
        self.path = path;
        Ok(())
    }

    /// How the current program was built (see [`FrontendPath`]).
    pub fn frontend_path(&self) -> &FrontendPath {
        &self.path
    }

    /// The front end of [`Self::replace_source`].
    fn load(&mut self, source: &str) -> Result<FrontendPath, SessionError> {
        let Some(old) = self.text.take() else {
            let (program, table) = jtanalysis::frontend(source).map_err(SessionError::Frontend)?;
            self.program = program;
            self.table = table;
            self.settle(String::new(), source, None);
            return Ok(FrontendPath::Full(FullCause::NoBaseText));
        };
        let cause = match jtlang::reparse(&mut self.program, &old, source) {
            Err(e) => {
                self.text = Some(old);
                return Err(SessionError::Frontend(e.to_string()));
            }
            Ok(Reparse::Spliced(None)) => {
                self.text = Some(old);
                return Ok(FrontendPath::Spliced {
                    members: Vec::new(),
                });
            }
            Ok(Reparse::Spliced(Some(Splice { pos, old: old_decl }))) => {
                // A member whose signature is unchanged leaves the class
                // table as it was, and only it needs checking again.
                let class = &self.program.classes[pos.class];
                let decl = pos.decl(&self.program);
                if same_signature(&old_decl, decl) {
                    let member = if pos.ctor {
                        MethodRef::ctor(&class.name, decl.params.len())
                    } else {
                        MethodRef::method(&class.name, &decl.name)
                    };
                    if let Err(e) = jtlang::types::check_member(&self.table, class, decl) {
                        self.undo(source, old);
                        return Err(SessionError::Frontend(e.to_string()));
                    }
                    self.settle(old, source, Some(pos));
                    return Ok(FrontendPath::Spliced {
                        members: vec![member],
                    });
                }
                FullCause::SignatureChanged
            }
            Ok(Reparse::Full(fallback)) => fallback.into(),
        };
        let resolved = jtlang::resolve::resolve(&self.program)
            .map_err(|e| e.to_string())
            .and_then(|table| {
                jtlang::types::check(&self.program, &table).map_err(|e| e.to_string())?;
                Ok(table)
            });
        match resolved {
            Ok(table) => {
                self.table = table;
                self.settle(old, source, None);
                Ok(FrontendPath::Full(cause))
            }
            Err(e) => {
                self.undo(source, old);
                Err(SessionError::Frontend(e))
            }
        }
    }

    /// Makes `source` the base text of the next edit, in `buffer` (the
    /// old text's, so the loop does not allocate one per revision), and
    /// tells the database what changed: the member at `spliced`, or
    /// (`None`) anything.
    fn settle(&mut self, mut buffer: String, source: &str, spliced: Option<MemberPos>) {
        buffer.clear();
        buffer.push_str(source);
        self.text = Some(buffer);
        let pending = self.spliced.get_mut();
        match (pending.as_mut(), spliced) {
            (Some(members), Some(pos)) => {
                if !members.contains(&pos) {
                    members.push(pos);
                }
            }
            _ => *pending = None,
        }
    }

    /// Puts back the program of `old` after `source`, which parsed,
    /// failed to resolve or type-check.
    fn undo(&mut self, source: &str, old: String) {
        jtlang::reparse(&mut self.program, source, &old).expect("the previous text parses");
        self.text = Some(old);
    }

    /// Semi-automated mode: applies one named stock transform and
    /// re-normalizes the program.
    ///
    /// # Errors
    ///
    /// [`SessionError::Transform`] for unknown transform names or
    /// transform failures.
    pub fn apply(&mut self, transform_name: &str) -> Result<TransformOutcome, SessionError> {
        let _span = self
            .registry
            .as_ref()
            .map(|r| r.span(&format!("sfr.transform.{transform_name}")));
        let transform = transform::stock_transform(transform_name).ok_or_else(|| {
            SessionError::Transform(format!("no stock transform named `{transform_name}`"))
        })?;
        // A transform rewrites the program, not the text: the next
        // revision takes the full front end, and the database
        // fingerprints every member again.
        self.text = None;
        *self.spliced.get_mut() = None;
        let outcome = transform.apply(&mut self.program)?;
        if let Some(registry) = &self.registry {
            if outcome.changed {
                registry.counter("sfr.transforms.applied").inc();
            }
            registry.journal().record(jtobs::EventKind::SfrTransform {
                name: transform_name.to_string(),
                changed: outcome.changed,
            });
        }
        if outcome.changed {
            self.program = transform::normalize(&self.program)?;
            self.table = jtlang::resolve::resolve(&self.program)
                .map_err(|e| SessionError::Transform(e.to_string()))?;
        }
        Ok(outcome)
    }

    /// Automated mode: repeatedly applies every transform suggested by
    /// the current violations, until compliant, stuck (only manual fixes
    /// remain), or `max_iterations` is reached.
    ///
    /// # Errors
    ///
    /// [`SessionError::Transform`] if a transform fails internally.
    pub fn refine_automatically(
        &mut self,
        max_iterations: usize,
    ) -> Result<RefinementReport, SessionError> {
        let mut trajectory = Vec::new();
        let mut applied_total = Vec::new();
        let mut iterations = 0;
        for _ in 0..max_iterations {
            let _pass = self.registry.as_ref().map(|r| r.span("sfr.pass"));
            let violations = self.check();
            trajectory.push(violations.len());
            if violations.is_empty() {
                break;
            }
            iterations += 1;
            let mut suggestions: Vec<&'static str> = violations
                .iter()
                .filter_map(Violation::suggested_transform)
                .collect();
            suggestions.sort_unstable();
            suggestions.dedup();

            let mut record = IterationRecord {
                violations: violations.len(),
                by_rule: BTreeMap::new(),
                applied: Vec::new(),
            };
            for v in &violations {
                *record.by_rule.entry(v.rule).or_default() += 1;
            }
            let mut any_change = false;
            for name in suggestions {
                let outcome = self.apply(name)?;
                record.applied.push((name.to_string(), outcome.changed));
                if outcome.changed {
                    any_change = true;
                    applied_total.push(name.to_string());
                }
            }
            self.history.push(record);
            if !any_change {
                break; // stuck: only manual fixes remain
            }
        }
        let remaining = self.check();
        if trajectory.last() != Some(&remaining.len()) {
            trajectory.push(remaining.len());
        }
        Ok(RefinementReport {
            iterations,
            compliant: remaining.is_empty(),
            remaining,
            applied: applied_total,
            trajectory,
        })
    }
}

/// True when `a` and `b` declare the same signature in the class
/// table: name, modifiers, return type and parameter types.
fn same_signature(a: &MethodDecl, b: &MethodDecl) -> bool {
    a.name == b.name
        && a.modifiers == b.modifiers
        && a.return_type == b.return_type
        && a.params.len() == b.params.len()
        && a.params.iter().zip(&b.params).all(|(p, q)| p.ty == q.ty)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session(src: &str) -> RefinementSession {
        RefinementSession::from_source(src, Policy::asr()).unwrap()
    }

    #[test]
    fn compliant_program_needs_no_work() {
        let mut s = session(jtlang::corpus::FIR_FILTER);
        assert!(s.is_compliant());
        let report = s.refine_automatically(5).unwrap();
        assert!(report.compliant);
        assert_eq!(report.iterations, 0);
        assert_eq!(report.trajectory, vec![0]);
        assert!(report.applied.is_empty());
    }

    #[test]
    fn unrestricted_avg_refines_to_compliance() {
        let mut s = session(jtlang::corpus::UNRESTRICTED_AVG);
        let before = s.check().len();
        assert!(before > 0);
        let report = s.refine_automatically(10).unwrap();
        // R1 (two whiles), R5 (public total) are automatable. R4's
        // dynamic-length allocation (`new int[n+1]`) needs a manual
        // worst-case bound, so the session ends stuck-but-better.
        assert!(report.trajectory[0] >= report.trajectory[report.trajectory.len() - 1]);
        assert!(report.applied.contains(&"while-to-for".to_string()));
        assert!(report.applied.contains(&"privatize-fields".to_string()));
        let remaining_rules: Vec<&str> = report.remaining.iter().map(|v| v.rule).collect();
        assert!(!remaining_rules.contains(&"R1"), "{remaining_rules:?}");
        assert!(!remaining_rules.contains(&"R5"), "{remaining_rules:?}");
        assert!(!s.history().is_empty());
    }

    #[test]
    fn manual_replacement_completes_a_stuck_session() {
        let mut s = session(jtlang::corpus::UNRESTRICTED_AVG);
        let report = s.refine_automatically(10).unwrap();
        assert!(!report.compliant, "needs the manual step");
        // The designer bounds the window at 16 samples by hand — the kind
        // of worst-case sizing the paper's JPEG refinement did.
        s.replace_source(
            "class Avg extends ASR {
                 private int total;
                 private int seen;
                 private int[] scratch;
                 Avg() {
                     total = 0;
                     seen = 0;
                     scratch = new int[16];
                 }
                 public void run() {
                     int n = read(0);
                     if (n > 15) { n = 15; }
                     for (int i = 0; i <= 15; i++) { scratch[i] = 0; }
                     for (int i = 0; i <= 15; i++) {
                         if (i <= n) { scratch[i] = read(0); }
                     }
                     total = 0;
                     for (int i = 0; i <= 15; i++) { total += scratch[i]; }
                     seen = seen + n;
                     write(0, total / (n + 1));
                 }
             }",
        )
        .unwrap();
        assert!(s.is_compliant());
    }

    #[test]
    fn telemetry_counts_violations_and_transforms() {
        let registry = jtobs::Registry::new();
        let mut s = session(jtlang::corpus::UNRESTRICTED_AVG);
        s.attach_registry(&registry);
        let report = s.refine_automatically(10).unwrap();
        if jtobs::ENABLED {
            assert_eq!(
                registry.counter_value("sfr.transforms.applied"),
                report.applied.len() as u64
            );
            // UNRESTRICTED_AVG starts with R1 violations (unbounded
            // whiles), so the per-rule counter must have fired.
            assert!(registry.counter_value("sfr.violations.R1") > 0);
            let passes = registry.histogram_stats("sfr.pass").unwrap();
            assert!(passes.count >= report.iterations as u64);
            assert!(registry.histogram_stats("sfr.check").unwrap().count > 0);
        } else {
            assert_eq!(registry.counter_value("sfr.transforms.applied"), 0);
        }
    }

    #[test]
    fn check_is_ordered_and_duplicate_free() {
        for sample in jtlang::corpus::samples() {
            let s = session(sample.source);
            let vs = s.check();
            assert!(
                vs.windows(2).all(|w| {
                    (w[0].span.start, w[0].span.end, w[0].rule)
                        <= (w[1].span.start, w[1].span.end, w[1].rule)
                }),
                "sample `{}` violations out of order",
                sample.name
            );
            for w in vs.windows(2) {
                assert!(
                    !(w[0].rule == w[1].rule
                        && w[0].span == w[1].span
                        && w[0].message == w[1].message),
                    "sample `{}` has duplicate violations",
                    sample.name
                );
            }
        }
    }

    #[test]
    fn attached_registry_exports_dataflow_metrics() {
        let registry = jtobs::Registry::new();
        let mut s = session(jtlang::corpus::FIR_FILTER);
        s.attach_registry(&registry);
        assert!(s.check().is_empty());
        if jtobs::ENABLED {
            assert!(registry.gauge_value("jtanalysis.cfg.blocks") > 0);
            assert!(registry.counter_value("jtanalysis.solver.iterations.interval") > 0);
        }
    }

    #[test]
    fn repeated_checks_are_served_from_the_warm_db() {
        let s = session(jtlang::corpus::LINKED_QUEUE);
        let first = s.check();
        let (cold, _) = s.db_stats();
        assert!(cold.recomputed > 0);
        let second = s.check();
        let (warm, totals) = s.db_stats();
        assert_eq!(first, second);
        assert_eq!(warm.recomputed, 0, "{warm:?}");
        assert_eq!(warm.misses, 0, "{warm:?}");
        assert_eq!(warm.scc_misses, 0, "{warm:?}");
        assert_eq!(totals.recomputed, cold.recomputed);
    }

    #[test]
    fn manual_edit_only_recomputes_the_dirty_cone() {
        let base = "class A extends ASR {
             private int x;
             A() { x = 0; }
             public void run() { x = step(); }
             private int step() { return 1; }
             private int other() { return 2; }
         }";
        let mut s = session(base);
        s.check();
        // Edit only `step`'s body; `other`, `run`, and the ctor are
        // structurally unchanged.
        s.replace_source(&base.replace("return 1;", "return 3;")).unwrap();
        s.check();
        let (warm, _) = s.db_stats();
        // One method changed: its cfg/definite/constprop/interval
        // queries recompute, nothing else at the method level.
        assert_eq!(warm.recomputed, 4, "{warm:?}");
        assert!(warm.hits > 0, "{warm:?}");
    }

    const STEPPER: &str = "class A extends ASR {
         private int x;
         A() { x = 0; }
         public void run() { x = step(); write(0, x); }
         private int step() { return 1; }
         private int other() { return 2; }
     }";

    /// Replaces the session's text and checks the findings against a
    /// cold check of a fresh parse.
    fn replace(s: &mut RefinementSession, text: &str) -> FrontendPath {
        s.replace_source(text).unwrap();
        let (program, table) = jtanalysis::frontend(text).unwrap();
        assert_eq!(s.program(), &program);
        assert_eq!(s.check(), Policy::asr().check(&program, &table), "{text}");
        s.frontend_path().clone()
    }

    #[test]
    fn replace_source_names_its_front_end_path() {
        let registry = jtobs::Registry::new();
        let mut s = session(STEPPER);
        s.attach_registry(&registry);
        assert_eq!(
            s.frontend_path(),
            &FrontendPath::Full(FullCause::NoBaseText)
        );
        s.check();
        let step = STEPPER.replace("return 1;", "return 3;");
        assert_eq!(
            replace(&mut s, &step),
            FrontendPath::Spliced {
                members: vec![MethodRef::method("A", "step")]
            }
        );
        assert_eq!(
            replace(&mut s, &step),
            FrontendPath::Spliced { members: vec![] }
        );
        let ctor = step.replace("x = 0;", "x = 0; x = x + 1;");
        assert_eq!(
            replace(&mut s, &ctor),
            FrontendPath::Spliced {
                members: vec![MethodRef::ctor("A", 0)]
            }
        );
        let field = ctor.replace("private int x;", "private int x; private int y;");
        assert_eq!(
            replace(&mut s, &field),
            FrontendPath::Full(FullCause::OutsideMember)
        );
        let signature = field.replace("private int step()", "int step()");
        assert_eq!(
            replace(&mut s, &signature),
            FrontendPath::Full(FullCause::SignatureChanged)
        );
        let split = signature.replace("return 3; }", "return 3; } int z() { return 0; }");
        assert_eq!(
            replace(&mut s, &split),
            FrontendPath::Full(FullCause::MemberEndMoved)
        );
        let noted = split.replace("return 2;", "/* two */ return 2;");
        assert!(matches!(
            replace(&mut s, &noted),
            FrontendPath::Spliced { .. }
        ));
        // A comment opened in `step` closes in `other`: the member alone
        // does not lex, the whole text does.
        let swallow = noted.replace("return 3;", "return 3; /*");
        assert_eq!(
            replace(&mut s, &swallow),
            FrontendPath::Full(FullCause::ParseError)
        );
        if jtobs::ENABLED {
            assert_eq!(registry.counter_value("sfr.frontend.spliced"), 4);
            for cause in [
                "outside_member",
                "signature_changed",
                "member_end_moved",
                "parse_error",
            ] {
                let name = format!("sfr.frontend.full.{cause}");
                assert_eq!(registry.counter_value(&name), 1, "{name}");
            }
        }
    }

    #[test]
    fn failed_replacements_keep_the_program() {
        let mut s = session(STEPPER);
        let before = s.program().clone();
        for bad in [
            // parse error inside a member
            STEPPER.replace("return 1;", "return ;"),
            // type error in a spliced member
            STEPPER.replace("return 1;", "return true;"),
            // type error after a signature change
            STEPPER.replace(
                "private int step() { return 1; }",
                "boolean step() { return 1; }",
            ),
            // resolve error after an edit outside every member
            STEPPER.replace("private int x;", "private Missing x;"),
        ] {
            assert!(
                matches!(s.replace_source(&bad), Err(SessionError::Frontend(_))),
                "{bad}"
            );
            assert_eq!(s.program(), &before, "{bad}");
            assert_eq!(
                s.frontend_path(),
                &FrontendPath::Full(FullCause::NoBaseText)
            );
        }
        // The base text is still the last good one.
        let step = STEPPER.replace("return 1;", "return 5;");
        assert!(matches!(
            replace(&mut s, &step),
            FrontendPath::Spliced { .. }
        ));
    }

    #[test]
    fn transforms_clear_the_base_text() {
        let mut s = session(jtlang::corpus::UNRESTRICTED_AVG);
        s.check();
        assert!(s.apply("while-to-for").unwrap().changed);
        let text = s.source();
        assert_eq!(
            replace(&mut s, &text),
            FrontendPath::Full(FullCause::NoBaseText)
        );
        let edited = text.replacen("0", "1", 1);
        assert!(matches!(
            replace(&mut s, &edited),
            FrontendPath::Spliced { .. }
        ));
    }

    #[test]
    fn apply_unknown_transform_errors() {
        let mut s = session(jtlang::corpus::COUNTER);
        assert!(matches!(
            s.apply("frobnicate"),
            Err(SessionError::Transform(_))
        ));
    }

    #[test]
    fn apply_reports_unchanged_on_clean_program() {
        let mut s = session(jtlang::corpus::COUNTER);
        let outcome = s.apply("while-to-for").unwrap();
        assert!(!outcome.changed);
    }

    #[test]
    fn bad_source_is_a_frontend_error() {
        assert!(matches!(
            RefinementSession::from_source("class {", Policy::asr()),
            Err(SessionError::Frontend(_))
        ));
        let mut s = session(jtlang::corpus::COUNTER);
        assert!(matches!(
            s.replace_source("class A { boolean b = 3; }"),
            Err(SessionError::Frontend(_))
        ));
    }

    #[test]
    fn trajectory_is_monotonically_nonincreasing() {
        for sample in jtlang::corpus::samples() {
            let mut s = session(sample.source);
            let report = s.refine_automatically(10).unwrap();
            assert!(
                report.trajectory.windows(2).all(|w| w[1] <= w[0]),
                "sample `{}` trajectory {:?} increased",
                sample.name,
                report.trajectory
            );
        }
    }

    #[test]
    fn source_round_trips() {
        let s = session(jtlang::corpus::COUNTER);
        let text = s.source();
        assert!(text.contains("class Counter extends ASR"));
        assert!(format!("{s:?}").contains("RefinementSession"));
    }
}
