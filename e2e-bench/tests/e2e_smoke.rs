//! Tiny runs of the workloads through the benchmark's own oracles (8×8
//! corpus, 10 edits, 100 instants), so `cargo test` guards the
//! benchmark: every op agrees with its oracle, each workload takes the
//! path it is named for, a wrong oracle answer fails the run, and
//! `BENCHMARK.json` lists exactly the metrics the runs report.

use e2e_bench::oracle::Finding;
use e2e_bench::workloads::{run, Outcome, Sizes, Spec, Workload, END_TO_END, PER_LAYER};

fn tiny(workload: Workload, trace: bool) -> Outcome {
    run(&Spec::new(workload, 7, 0.0, trace, Sizes::tiny())).expect("set-up succeeds")
}

fn metric(o: &Outcome, name: &str) -> f64 {
    o.metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .value
}

/// An untraced and a traced run both pass their oracles and report
/// exactly the declared metrics.
fn smoke(workload: Workload, min_ops: u64) -> Outcome {
    let plain = tiny(workload, false);
    assert_eq!(plain.failed(), 0, "{:?}", plain.notes);
    assert_eq!(plain.exit_code(), 0);
    assert!(plain.attempted >= min_ops, "{} ops", plain.attempted);
    let names: Vec<&str> = plain.metrics.iter().map(|m| m.name).collect();
    assert_eq!(names, END_TO_END.iter().map(|m| m.0).collect::<Vec<_>>());
    assert!(metric(&plain, "op_p50_us") > 0.0);
    assert!(metric(&plain, "setup_s") > 0.0);
    assert!(plain.result_json().starts_with("{\"correct\": true, "));

    let traced = tiny(workload, true);
    assert_eq!(traced.failed(), 0, "{:?}", traced.notes);
    let names: Vec<&str> = traced.metrics.iter().map(|m| m.name).collect();
    assert_eq!(names, PER_LAYER.iter().map(|m| m.0).collect::<Vec<_>>());
    assert!(traced
        .trace_json
        .as_deref()
        .is_some_and(|j| j.contains("\"spans\":[")));
    traced
}

#[test]
fn recheck_const_takes_the_rebase_path() {
    let traced = smoke(Workload::RecheckConst, 10);
    assert_eq!(metric(&traced, "jtanalysis.db.pt_retracted"), 0.0);
    assert_eq!(metric(&traced, "jtanalysis.db.retracting_edits"), 0.0);
    assert!(metric(&traced, "jtlang.parse_us") > 0.0);
    assert!(metric(&traced, "jtanalysis.db.recomputed") > 0.0);
}

#[test]
fn recheck_struct_takes_the_delta_path() {
    let traced = smoke(Workload::RecheckStruct, 10);
    assert!(metric(&traced, "jtanalysis.db.pt_retracted") > 0.0);
    assert!(metric(&traced, "jtanalysis.db.retracting_edits") >= 0.9);
    assert!(metric(&traced, "jtanalysis.db.demand_misses") > 0.0);
}

#[test]
fn block_grid_runs_every_block_natively() {
    let traced = smoke(Workload::BlockGrid, 100);
    assert_eq!(metric(&traced, "sfr.native_blocks"), 32.0);
    assert_eq!(metric(&traced, "asr.block_evals"), 32.0);
    assert!(metric(&traced, "jtvm.native.react_us") > 0.0);
}

#[test]
#[ignore = "lowering the restricted JPEG takes seconds even in release builds"]
fn jpeg_table1_runs_natively_and_matches_the_reference() {
    let traced = smoke(Workload::JpegTable1, 3);
    assert_eq!(metric(&traced, "sfr.native_blocks"), 1.0);
    assert!(metric(&traced, "jtvm.native.lower_ms") > 0.0);
    assert!(metric(&traced, "sfr.refine_ms") > 0.0);
}

fn wrong_answer(_: &str) -> Result<Vec<Finding>, String> {
    Ok(vec![("R0", 0, 0, "injected fault".to_string())])
}

#[test]
fn a_wrong_oracle_answer_fails_the_run() {
    for workload in [Workload::RecheckConst, Workload::RecheckStruct] {
        let mut spec = Spec::new(workload, 3, 0.0, false, Sizes::tiny());
        spec.recheck_oracle = wrong_answer;
        let o = run(&spec).expect("set-up succeeds");
        assert!(o.fail_ratio() > 0.0, "{:?}", o.notes);
        assert_ne!(o.exit_code(), 0);
        assert!(o.result_json().starts_with("{\"correct\": false, "));
    }
}

#[test]
fn benchmark_json_declares_every_reported_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    for w in Workload::ALL {
        assert!(
            json.contains(&format!("\"name\": \"{}\"", w.name())),
            "{}",
            w.name()
        );
    }
    for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let declared = json.matches("\"better\":").count();
    assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
}
