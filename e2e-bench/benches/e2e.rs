//! `e2e`: the end-to-end benchmark of the paper's two promises, with
//! per-layer attribution.
//!
//! 1. The analyze→transform loop of Fig. 2 is cheap enough to run after
//!    every refinement step (`recheck-*`).
//! 2. A refined design trades costlier initialization for fast,
//!    allocation-free reactions (Table 1; `jpeg-table1`, `block-grid`).
//!
//! # Commands
//!
//! ```sh
//! # one workload, end-to-end metrics (what BENCHMARK.json runs)
//! cargo bench --offline --manifest-path e2e-bench/Cargo.toml --bench e2e -- \
//!     --workload recheck-const --seed 1 --seconds 20 --trace 0
//! # the same workload, per-layer metrics; spans go to
//! # e2e-bench/target/e2e-trace/<workload>-<seed>.json
//! cargo bench ... -- --workload recheck-const --seed 1 --trace 1
//! # every workload, each in its own child process
//! cargo bench ... -- --seed 1
//! # tests: edit pool, stats, oracles, fault injection, tiny smoke runs
//! # (add `--release -- --ignored` for the JPEG smoke run)
//! cargo test --offline --manifest-path e2e-bench/Cargo.toml
//! ```
//!
//! The package is a workspace of its own beside the repository's, so the
//! root `cargo test` neither builds nor runs it. Its replicas call many
//! public items of `jtlang`, `jtanalysis`, `sfr`, `jtvm` and `asr`, down
//! to an `AnalysisContext` literal: after changing one of them, run the
//! tests above, or the next benchmark run fails to build. The
//! dependencies are built with the root workspace's features (telemetry
//! off), as `crates/bench` is, so its numbers and the `BENCH_*.json`
//! files come from the same build.
//!
//! Each run prints notes (sample counts, `fail_ratio`, the workload's
//! claims) and one line per metric (`name = value unit`), then, as its
//! last line, one JSON object: `correct`, `attempted`, `failed`, and
//! `metrics` (`{"name": {"value", "unit"}}`). It exits nonzero when an op
//! errored or disagreed with its oracle, and with code 2 (no JSON) when
//! it cannot run at all (bad arguments, a failed set-up).
//!
//! # Shape of a run
//!
//! One process per workload (peak RSS is per workload), single-threaded
//! (`Strategy::Staged`), a closed loop with one client: a designer who
//! waits for every result. An *op* is one re-check after one edit
//! (`RefinementSession::replace_source` + `check`; the revision text is
//! generated before the timer starts) or one `System::react`. The loop
//! runs for `--seconds` of wall time and at least the workload's minimum
//! op count (200 edits or reactions, 200 000 instants; a quarter of that
//! in a traced run). Latencies are kept in a fixed 2^18-entry uniform
//! sample, so memory does not grow with the op count.
//!
//! Set-up runs at least 3 times and then again until the set-ups have
//! taken 2 s (about 12 for the re-check workloads, 3 for `jpeg-table1`,
//! 190 for `block-grid`); `setup_s` is their median. The first seven or
//! so block-grid set-ups of a process take two to three times as long as
//! later ones, and the host stalls for a second or so at a time; many
//! repeats of a cheap set-up outvote both.
//!
//! # Workloads
//!
//! The seed drives every edit sequence, image and input stream
//! (splitmix64); the programs under test receive only the generated
//! inputs.
//!
//! * `recheck-const` — the 32×32 generated corpus (1024 methods),
//!   cumulative one-method constant edits. Set-up: `from_source` plus the
//!   first, cold `check`. The common refinement step: points-to rebases,
//!   so the front end and the database head dominate. A front-end or
//!   method-query optimization shows here; the delta solver is bypassed.
//! * `recheck-struct` — the same corpus and loop, but each edit toggles
//!   one of a seeded pool of 64 one-statement mutations whose kinds
//!   rotate (`acc = acc + mJ(n);`, `acc = mJ(acc);`, `buf = new int[8];`),
//!   so every seed gets the same mix. It drives points-to's delta path
//!   and demand misses. A points-to or demand-tail optimization shows
//!   here, and `recheck-const` should not move.
//! * `jpeg-table1` — the Table 1 path. Set-up: `from_source`
//!   (unrestricted JPEG), `refine_automatically(10)`, the manual
//!   `replace_source` (restricted), `sfr::embed` (lowers to the native
//!   tier) and `SystemBuilder::build`. Then reactions on seeded-noise
//!   130×135 images, each compared with `jtgen::native_reference`. Bound
//!   by lowering (`setup_s`, `peak_rss_mb`) and native dispatch
//!   (`op_p50_us`).
//! * `block-grid` — 32 embedded corpus blocks (Fir, Counter,
//!   TrafficLight, cycling) in 8 lanes × 4 deep, summed by 7
//!   `stock::add`. Instants of seeded inputs in −3..=3, each compared
//!   with hand-written Rust models of the three blocks. `asr` scheduling
//!   and `JtBlock` port marshalling dominate; lowering is trivial.
//!
//! Oracles: every reaction and instant is checked inside the loop. The
//! re-check oracle covers every 25th revision and the last one: once the
//! loop is over, it regenerates the seeded revisions and compares the
//! session's violations (rule, span, message) on those with a cold
//! `Policy::asr().check` on a fresh parse. Run inside the loop, its cold
//! checks slowed the op after them by about a tenth.
//!
//! # End-to-end metrics (`--trace 0`)
//!
//! | name | unit | what it is | bound |
//! |---|---|---|---|
//! | `op_p50_us` | us | median op latency | 0.25 |
//! | `op_p95_us` | us | 95th percentile (≥ 200 ops, so ≥ 10 lie beyond it; `null` below that) | 0.25 |
//! | `ops_per_s` | 1/s | ops ÷ wall time of the measured loop (input generation and the in-loop checks included) | 0.25 |
//! | `setup_s` | s | median of the run's set-ups | 0.25 |
//! | `peak_rss_mb` | MB | `VmHWM` of the workload's process (10^6 bytes) | 0.05 |
//!
//! `fail_ratio` ((errored + mismatched) ÷ attempted, the JSON's `failed`
//! ÷ `attempted`) is printed but is no metric in `BENCHMARK.json`: it is
//! 0 on every healthy run, and a metric there may never read 0. Any
//! failed op fails the run instead.
//!
//! The timing bounds are 0.25, the largest `BENCHMARK.json` allows, and
//! on the host below they do not hold reliably. Spreads are (Q3 − Q1) ÷
//! median over 10 seeds, for two sets run back to back at `--seconds 20`
//! on a 2-vCPU KVM guest (Xeon, Sapphire Rapids) shared with other
//! tenants. The guest reports no steal time, yet everything it runs
//! slows by up to 2.2× for minutes at a time, and block-grid's
//! per-second median flips between 12.7 and 22 µs for a second or so. A
//! calibration loop inside the process slowed with it, so the slowdown
//! is the host's, not the program's. Spreads go over the bound when a
//! set straddles a change of load (marked `!`). Those metric × workload
//! pairs are unresolved: a later change can claim no difference on them
//! smaller than the spread. During calm stretches the same runs repeat
//! far better: a calm block-grid set spread 0.04 (p50), 0.04 (p95),
//! 0.03 (ops/s).
//!
//! | workload | `op_p50_us` | `op_p95_us` | `ops_per_s` | `setup_s` | `peak_rss_mb` |
//! |---|---|---|---|---|---|
//! | recheck-const | 0.10, 0.17 | 0.12, 0.13 | 0.11, 0.19 | 0.10, 0.23 | 0.001, 0.001 |
//! | recheck-struct | 0.08, 0.31 ! | 0.04, 0.14 | 0.06, 0.25 ! | 0.19, 0.41 | 0.012, 0.009 |
//! | jpeg-table1 | 0.04, 0.15 | 0.12, 0.13 | 0.07, 0.12 | 0.07, 0.14 | 0.000, 0.000 |
//! | block-grid | 0.36 !, 0.14 | 0.07, 0.04 | 0.24, 0.13 | 0.25, 0.20 | 0.017, 0.011 |
//!
//! (`setup_s` spreads are not held to the bound; its median is.) The
//! second set's medians were within 15% of the first's on every timing
//! metric and better on all but block-grid's `op_p95_us` (1.7% worse);
//! peak RSS agreed within 0.3%. Earlier sets with 25 s runs gave the
//! same picture: spreads of 0.03–0.12 while the load was steady and up
//! to 0.29 when it changed.
//!
//! First baseline: medians of the second set (loaded host) / of a set
//! run while the host was calm (20 s runs, by an earlier revision of
//! this harness that ran the re-check oracle inside the loop).
//!
//! | workload | `op_p50_us` | `op_p95_us` | `ops_per_s` | `setup_s` | `peak_rss_mb` |
//! |---|---|---|---|---|---|
//! | recheck-const | 73 079 / 35 851 | 84 603 / 45 393 | 13.8 / 22.3 | 0.273 / 0.166 | 46.9 / 47.1 |
//! | recheck-struct | 169 944 / 120 398 | 210 170 / 154 801 | 5.90 / 7.65 | 0.248 / 0.170 | 48.2 / 48.8 |
//! | jpeg-table1 | 23 406 / 16 812 | 27 509 / 22 270 | 40.5 / 52.3 | 2.33 / 1.78 | 607.8 / 608.1 |
//! | block-grid | 23.6 / 13.3 | 30.0 / 23.8 | 43 834 / 64 769 | 0.0149 / 0.0093 | 13.8 / 13.8 |
//!
//! # Per-layer metrics (`--trace 1`) and what each should move
//!
//! The traced run measures each layer from outside, by replaying the
//! public calls an op makes, each in its own span (no tracing inside the
//! program). Re-check replica: `jtlang::parse`, `resolve` (twice, as the
//! session does), `types::check`, `callgraph::build`,
//! `AnalysisDb::analyze`, the five syntactic analyses, an
//! `AnalysisContext` literal and `Policy::check_with_context`, on a
//! database of its own that sees the same revisions. Embed replica:
//! `check_source` + `resolve`, `Policy::asr().check`,
//! `extension::verify`, `bounds::instruction_bounds`, `NativeVm::new` +
//! `initialize`. Each embedded block is wrapped in a bench `Block` that
//! delegates every method and times `eval` and `tick`; a standalone
//! `NativeVm` from the embed replica reacts on the same inputs. Traced
//! and untraced reactions alternate. Times are the p50 per op; counts
//! are means per op. A layer a workload does not exercise reads 0.
//! `BENCHMARK.json` entries carry only name, unit and direction; the
//! "should move" column lives here.
//!
//! | metric | layer | should move |
//! |---|---|---|
//! | `jtlang.parse_us`, `jtlang.resolve_us`, `jtlang.typecheck_us` | jtlang | `op_p50_us` on recheck-const |
//! | `jtanalysis.callgraph_us`, `jtanalysis.syntactic_us` | jtanalysis | `op_p50_us` on recheck-const |
//! | `jtanalysis.db.head_us` (analyze − `RunStats::tail_ns`) | jtanalysis::db | `op_p50_us` on recheck-const |
//! | `jtanalysis.db.tail_us` (`RunStats::tail_ns`) | ptdelta + demand | `op_p50_us`, `op_p95_us` on recheck-struct |
//! | `jtanalysis.db.recomputed`, `.scc_misses` | jtanalysis::db | `op_p50_us` on recheck-const |
//! | `jtanalysis.db.pt_retracted`, `.pt_added`, `.pointsto_misses`, `.retracting_edits` | ptdelta | `op_p50_us` on recheck-struct |
//! | `jtanalysis.db.demand_misses`, `.demand_hit_ratio` | demand | `op_p95_us` on recheck-struct |
//! | `sfr.rules_us` | sfr::policy | `op_p50_us` on both recheck workloads |
//! | `sfr.refine_ms`, `sfr.embed_ms`, `sfr.policy_check_ms`, `jtanalysis.bounds_ms` | sfr, jtanalysis::bounds | `setup_s` on jpeg-table1 |
//! | `jtvm.native.lower_ms`, `jtvm.native.code_bytes` | jtvm::ir, jtvm::native | `setup_s`, `peak_rss_mb` on jpeg-table1 |
//! | `jtvm.native.react_us`, `jtvm.native.ops_per_react` | jtvm::native | `op_p50_us` on jpeg-table1 |
//! | `jtvm.vm.react_us` (stack VM, 5 reactions), `jtvm.native.breakeven_reactions` = lower ÷ (vm − native) | jtvm | `setup_s` vs `op_p50_us` on jpeg-table1 |
//! | `sfr.marshal_us` (wrapped eval+tick − standalone react), `sfr.native_ratio` (standalone ÷ wrapped), `sfr.native_blocks` | sfr::embed | `op_p50_us` on block-grid |
//! | `asr.self_us` (react − wrapped block time), `asr.block_evals` (per op), `asr.build_us` | asr | `op_p50_us` on block-grid |
//! | `trace.layer_sum_ratio`, `trace.embed_sum_ratio`, `trace.overhead_ratio` | harness | nothing (validity checks) |
//!
//! `trace.layer_sum_ratio`: on the re-check workloads, the replica's
//! layer spans summed ÷ the replayed op's own span, median over edits;
//! on the execution workloads, (`asr.self_us` + `sfr.marshal_us` +
//! `jtvm.native.react_us`) ÷ the traced op's p50, which checks that the
//! medians compose. `trace.embed_sum_ratio`: the embed replica's layers
//! ÷ `sfr::embed`'s own time (the replica alternates running before and
//! after the real embedding, so a traced run sets up an even number of
//! times). `trace.overhead_ratio`: traced ÷ untraced op time in the same
//! process (on the re-check workloads, the replayed op ÷ the session's).
//!
//! Per-layer baseline (seeds 1 and 2, the same loaded host as the
//! second set above):
//!
//! * recheck-const: parse 12.6 ms, resolve 5.1, typecheck 4.1, call
//!   graph 5.4, syntactic 6.5, db head 28.1, db tail 14.4, rules 4.0; 4
//!   method queries and 1 SCC summary recomputed per edit, 0 constraints
//!   retracted, 5.3 demand misses (hit ratio 0.999); layer sum 1.000,
//!   overhead 1.016.
//! * recheck-struct: the db tail is 121 ms of the op (336 demand misses
//!   and 48 constraints retracted per edit, 98% of edits retracting);
//!   head 30.3 ms; layer sum 1.000.
//! * jpeg-table1: refine 28 ms, embed 2559 ms of which lowering 2523 ms
//!   (73.4 MB of op slots); native reaction 25.3 ms (3.3 M ops) against
//!   179 ms on the stack VM, so lowering pays back after 17 reactions;
//!   `asr` 154 µs per reaction. Marshalling the image is below the noise
//!   of two 25 ms reactions, so `sfr.marshal_us` reads ±60 µs (negative
//!   here) and `sfr.native_ratio` 1.00. Layer sum 0.998, embed sum 0.992.
//! * block-grid: per traced instant, 32 native reactions take 7.2 µs,
//!   `JtBlock` marshalling 14.3 µs and `asr` 10.7 µs; 32 evaluations per
//!   instant; layer sum 0.993, embed sum 1.003, overhead 1.28 (two clock
//!   reads per block call).

use e2e_bench::workloads::{self, Sizes, Spec, Workload};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: e2e [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
workloads: recheck-const, recheck-struct, jpeg-table1, block-grid (all when omitted)";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                parsed.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                parsed.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                parsed.trace = args
                    .next_if(|v| v == "0" || v == "1")
                    .is_none_or(|v| v == "1");
            }
            // `cargo bench` appends `--bench` to every bench target's
            // arguments.
            "--bench" => {}
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args),
    }
}

/// Runs every workload in a child process of its own, one after the
/// other, and fails when any of them failed.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("e2e: cannot find this executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut failed = false;
    for w in Workload::ALL {
        println!("== {}", w.name());
        let mut child = Command::new(&exe);
        child.args(["--workload", w.name()]);
        child.args(["--seed", &args.seed.to_string()]);
        child.args(["--seconds", &args.seconds.to_string()]);
        child.args(["--trace", if args.trace { "1" } else { "0" }]);
        match child.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("e2e: {} failed: {status}", w.name());
                failed = true;
            }
            Err(e) => {
                eprintln!("e2e: cannot start {}: {e}", w.name());
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn run_one(workload: Workload, args: &Args) -> ExitCode {
    let spec = Spec::new(workload, args.seed, args.seconds, args.trace, Sizes::full());
    let outcome = match workloads::run(&spec) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2e: {} could not run: {e}", workload.name());
            return ExitCode::from(2);
        }
    };
    println!("{} (seed {}):", workload.name(), args.seed);
    for note in &outcome.notes {
        println!("  {note}");
    }
    for m in &outcome.metrics {
        println!("  {} = {} {}", m.name, m.value, m.unit);
    }
    if let Some(json) = &outcome.trace_json {
        let dir = std::path::Path::new("target").join("e2e-trace");
        let path = dir.join(format!("{}-{}.json", workload.name(), args.seed));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json)) {
            Ok(()) => println!("  spans: {}", path.display()),
            Err(e) => eprintln!("e2e: cannot write {}: {e}", path.display()),
        }
    }
    println!("{}", outcome.result_json());
    if outcome.exit_code() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
