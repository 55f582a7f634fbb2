//! Umbrella driver for the dataflow analyses.
//!
//! [`analyze`] runs the whole flow-sensitive suite — definite
//! assignment, conditional constant propagation, interval analysis, and
//! phase-refined race candidates — and aggregates the results into one
//! [`FlowReport`], which `sfr::policy` consumes for rules R2 and
//! R10–R12 and `jtlint` renders as diagnostics.
//!
//! [`analyze_with_registry`] additionally exports `jtobs` metrics:
//!
//! * `jtanalysis.cfg.blocks` (gauge) — basic blocks across all methods,
//! * `jtanalysis.cfg.methods` (gauge) — CFGs built,
//! * `jtanalysis.solver.iterations.<analysis>` (counter) — worklist
//!   visits per analysis,
//! * `jtanalysis.summary.sccs` / `.methods` / `.objects` (gauges) —
//!   call-graph components, summarized methods, and abstract points-to
//!   objects,
//! * `jtanalysis.summary.fixpoint_iterations` / `.pointsto_passes`
//!   (counters) — interprocedural fixpoint work,
//! * `jtanalysis.summary.footprint_fields` (histogram) — per-method
//!   effect-footprint sizes (reads + writes),
//! * `jtanalysis.time_us.<analysis>` (histogram) — wall time per
//!   analysis pass, and a `jtanalysis.flow` span around the suite,
//! * `jtanalysis.db.*` (counters/gauge) — query-cache traffic; see
//!   [`crate::db`].

use crate::callgraph::CallGraph;
use crate::constprop::{self, ConstpropReport};
use crate::definite::{self, DefiniteReport};
use crate::interval::{self, IntervalReport};
use crate::races::{self, RaceReport};
use crate::summary::{self, SummaryReport};
use crate::{cfg, each_method};
use jtlang::ast::Program;
use jtlang::resolve::ClassTable;

/// Aggregated results of the flow-sensitive analysis suite.
#[derive(Debug, Clone, Default)]
pub struct FlowReport {
    /// Definite-assignment findings.
    pub definite: DefiniteReport,
    /// Constant-propagation findings.
    pub constprop: ConstpropReport,
    /// Interval findings: loop-bound proofs and index verdicts.
    pub interval: IntervalReport,
    /// Interprocedural summaries: purity, escape, points-to, R13/R14
    /// findings, and call-sharpened WCET bounds.
    pub summary: SummaryReport,
    /// Race-candidate tiers.
    pub races: RaceReport,
    /// Basic blocks across every method CFG.
    pub cfg_blocks: usize,
    /// Number of per-method CFGs built.
    pub cfg_methods: usize,
}

impl FlowReport {
    /// Total worklist iterations across all analyses.
    pub fn solver_iterations(&self) -> u64 {
        self.definite.solver_iterations
            + self.constprop.solver_iterations
            + self.interval.solver_iterations
    }
}

/// Runs the full suite without instrumentation.
///
/// Since the incremental refactor this routes through a fresh
/// [`crate::db::AnalysisDb`] — a cold run of the query engine *is* the
/// batch analysis — so batch and incremental results agree by
/// construction.
pub fn analyze(program: &Program, table: &ClassTable, graph: &CallGraph) -> FlowReport {
    let report = crate::db::AnalysisDb::new().analyze(program, table, graph);
    std::sync::Arc::unwrap_or_clone(report)
}

/// Runs the full suite, exporting metrics into `registry`.
pub fn analyze_with_registry(
    program: &Program,
    table: &ClassTable,
    graph: &CallGraph,
    registry: &jtobs::Registry,
) -> FlowReport {
    let report = crate::db::AnalysisDb::new().analyze_with_registry(program, table, graph, registry);
    std::sync::Arc::unwrap_or_clone(report)
}

/// Runs the legacy batch composition: each pass's whole-program driver
/// in sequence, with no caching or fingerprinting anywhere. Kept as an
/// independent oracle for the incremental engine's equivalence tests.
pub fn analyze_batch(program: &Program, table: &ClassTable, graph: &CallGraph) -> FlowReport {
    analyze_batch_k(program, table, graph, crate::pointsto::DEFAULT_K)
}

/// [`analyze_batch`] at an explicit points-to context depth `k`
/// (`k = 0` reproduces the context-insensitive tier, used by the
/// precision-regression guard and the k-refinement proptests).
pub fn analyze_batch_k(
    program: &Program,
    table: &ClassTable,
    graph: &CallGraph,
    k: usize,
) -> FlowReport {
    let mut report = FlowReport::default();
    for (class, decl, mref) in each_method(program) {
        let g = cfg::build(class, decl, mref);
        report.cfg_blocks += g.blocks.len();
        report.cfg_methods += 1;
    }
    report.definite = definite::analyze(program, table);
    report.constprop = constprop::analyze(program, table);
    report.interval = interval::analyze(program, table);
    report.summary = summary::analyze_with_bounds_k(
        program,
        table,
        graph,
        &report.interval.proved_loop_bounds,
        k,
    );
    report.races = races::analyze_with_pointsto(program, table, graph, &report.summary.pointsto);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{callgraph, frontend};

    #[test]
    fn suite_runs_over_the_whole_corpus() {
        for s in jtlang::corpus::samples() {
            let (p, t) = frontend(s.source).unwrap();
            let g = callgraph::build(&p, &t);
            let r = analyze(&p, &t, &g);
            assert!(r.cfg_methods > 0, "{}", s.name);
            assert!(r.cfg_blocks >= 2 * r.cfg_methods, "{}", s.name);
            assert!(r.solver_iterations() > 0, "{}", s.name);
        }
    }

    #[test]
    fn metrics_are_exported() {
        let (p, t) = frontend(jtlang::corpus::FIR_FILTER).unwrap();
        let g = callgraph::build(&p, &t);
        let registry = jtobs::Registry::new();
        let r = analyze_with_registry(&p, &t, &g, &registry);
        if jtobs::ENABLED {
            assert_eq!(
                registry.gauge_value("jtanalysis.cfg.blocks"),
                r.cfg_blocks as i64
            );
            assert_eq!(
                registry.counter_value("jtanalysis.solver.iterations.interval"),
                r.interval.solver_iterations
            );
            assert!(registry
                .histogram_stats("jtanalysis.time_us.interval")
                .is_some());
            assert_eq!(
                registry.gauge_value("jtanalysis.summary.sccs"),
                r.summary.sccs as i64
            );
            assert_eq!(
                registry.gauge_value("jtanalysis.summary.methods"),
                r.summary.methods.len() as i64
            );
            assert_eq!(
                registry.counter_value("jtanalysis.summary.fixpoint_iterations"),
                r.summary.fixpoint_iterations
            );
            assert!(registry
                .histogram_stats("jtanalysis.summary.footprint_fields")
                .is_some());
            assert!(registry
                .histogram_stats("jtanalysis.time_us.summary")
                .is_some());
        }
    }

    #[test]
    fn summary_report_rides_along_in_the_flow_report() {
        let (p, t) = frontend(jtlang::corpus::RACY_THREADS).unwrap();
        let g = callgraph::build(&p, &t);
        let r = analyze(&p, &t, &g);
        assert!(!r.summary.methods.is_empty());
        assert!(r.summary.sccs > 0);
        assert!(r.summary.pointsto.converged());
    }

    #[test]
    fn precision_wins_are_visible_in_the_report() {
        // The clamped-limit loop is proved here but opaque to the
        // loops.rs heuristic; the Fig. 8 `seen` field is cleared.
        let (p, t) = frontend(jtlang::corpus::RACY_THREADS).unwrap();
        let g = callgraph::build(&p, &t);
        let r = analyze(&p, &t, &g);
        assert_eq!(r.races.refined.len(), 1);
        assert!(!r.races.cleared.is_empty());
    }
}
