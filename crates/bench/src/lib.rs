//! Shared fixtures for the benchmark harness.
//!
//! Every bench target first prints the rows/series of the paper table or
//! figure it regenerates (so `cargo bench` output doubles as the
//! experiment record in `EXPERIMENTS.md`), then times the underlying
//! operations with Criterion.

use asr::prelude::*;
use jtvm::engine::Engine;
use jtvm::interp::Interpreter;
use jtvm::vm::CompiledVm;
use jtobs::json::Json;

/// Builds the accumulator system used across the figure benches.
pub fn accumulator() -> System {
    let mut b = SystemBuilder::new("acc");
    let i = b.add_input("in");
    let add = b.add_block(stock::add("sum"));
    let d = b.add_delay("state", Value::int(0));
    let o = b.add_output("acc");
    b.connect(Source::ext(i), Sink::block(add, 0)).unwrap();
    b.connect(Source::delay(d), Sink::block(add, 1)).unwrap();
    b.connect(Source::block(add, 0), Sink::delay(d)).unwrap();
    b.connect(Source::block(add, 0), Sink::ext(o)).unwrap();
    b.build().unwrap()
}

/// Builds a feed-forward chain of `n` increment blocks.
pub fn chain(n: usize) -> System {
    let mut b = SystemBuilder::new(format!("chain{n}"));
    let x = b.add_input("x");
    let mut prev = Source::ext(x);
    for k in 0..n {
        let inc = b.add_block(stock::offset(format!("inc{k}"), 1));
        b.connect(prev, Sink::block(inc, 0)).unwrap();
        prev = Source::block(inc, 0);
    }
    let o = b.add_output("o");
    b.connect(prev, Sink::ext(o)).unwrap();
    b.build().unwrap()
}

/// The Fig. 3 system: adder + divider + clamp with delay feedback.
pub fn fig3_system() -> System {
    let mut b = SystemBuilder::new("fig3");
    let x = b.add_input("x");
    let add = b.add_block(stock::add("add"));
    let half = b.add_block(stock::div("half"));
    let two = b.add_block(stock::const_int("two", 2));
    let clamp = b.add_block(stock::clamp("clamp", 0, 255));
    let d = b.add_delay("y_prev", Value::int(0));
    let y = b.add_output("y");
    b.connect(Source::ext(x), Sink::block(add, 0)).unwrap();
    b.connect(Source::delay(d), Sink::block(add, 1)).unwrap();
    b.connect(Source::block(add, 0), Sink::block(half, 0)).unwrap();
    b.connect(Source::block(two, 0), Sink::block(half, 1)).unwrap();
    b.connect(Source::block(half, 0), Sink::block(clamp, 0)).unwrap();
    b.connect(Source::block(clamp, 0), Sink::ext(y)).unwrap();
    b.connect(Source::block(clamp, 0), Sink::delay(d)).unwrap();
    b.build().unwrap()
}

/// An initialized interpreter over `source`.
///
/// # Panics
///
/// Panics if the program is ill-formed or initialization fails.
pub fn interpreter(source: &str, class: &str) -> Interpreter {
    let mut e = Interpreter::new(jtlang::parse(source).expect("parse"), class).expect("build");
    e.initialize(&[]).expect("initialize");
    e
}

/// An initialized bytecode VM over `source`.
///
/// # Panics
///
/// Panics if the program is ill-formed or initialization fails.
pub fn compiled_vm(source: &str, class: &str) -> CompiledVm {
    let mut e = CompiledVm::new(jtlang::parse(source).expect("parse"), class).expect("build");
    e.initialize(&[]).expect("initialize");
    e
}

/// One `BENCH_*.json` row: benchmark id, value, and the value's unit
/// (`ns`, `count`, `%`, `x`, …).
pub type BenchRow = (String, f64, &'static str);

/// Tags Criterion's median wall times (`criterion::take_results()`)
/// with their unit, `ns`.
pub fn ns_rows(results: Vec<(String, f64)>) -> Vec<BenchRow> {
    results.into_iter().map(|(id, ns)| (id, ns, "ns")).collect()
}

/// The `BENCH_<name>.json` document: the bench name, the commit the
/// numbers were measured at, and one `{name, value, unit}` object per
/// row, one row per line.
pub fn bench_document(name: &str, commit: &str, rows: &[BenchRow]) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|(id, value, unit)| {
            Json::Obj(vec![
                ("name".into(), id.as_str().into()),
                ("value".into(), Json::Float(*value)),
                ("unit".into(), (*unit).into()),
            ])
            .render()
        })
        .collect();
    format!(
        "{{\n  \"bench\": {},\n  \"commit\": {},\n  \"metrics\": [\n    {}\n  ]\n}}\n",
        Json::from(name).render(),
        Json::from(commit).render(),
        rows.join(",\n    ")
    )
}

/// Writes [`bench_document`] to `BENCH_<name>.json` at the repository
/// root. Benches call this from `main` after their measurements run,
/// so CI (and EXPERIMENTS.md updates) can diff measured numbers across
/// commits.
///
/// Best-effort: failures to resolve the commit or write the file are
/// reported to stderr, never a bench failure.
pub fn write_bench_json(name: &str, rows: &[BenchRow]) {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let path = format!("{root}/BENCH_{name}.json");
    if let Err(e) = std::fs::write(&path, bench_document(name, &commit, rows)) {
        eprintln!("bench: could not write {path}: {e}");
    } else {
        println!("bench results: {path} ({} metric(s))", rows.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build_and_run() {
        assert_eq!(
            accumulator().react(&[Value::int(2)]).unwrap()[0],
            Value::int(2)
        );
        assert_eq!(
            chain(5).react(&[Value::int(0)]).unwrap()[0],
            Value::int(5)
        );
        assert!(fig3_system().react(&[Value::int(10)]).unwrap()[0].is_present());
        let mut e = interpreter(jtlang::corpus::FIR_FILTER, "Fir");
        assert!(e
            .react(&[jtvm::io::PortDatum::Int(1)])
            .unwrap()[0]
            .is_some());
    }

    #[test]
    fn bench_document_parses_back_with_units() {
        use jtobs::json;
        let rows = vec![
            ("g/\"odd\"\\id".to_string(), 2_099_361.0, "ns"),
            ("g/methods".to_string(), 1024.0, "count"),
            ("g/warm_speedup_x".to_string(), 53.4, "x"),
        ];
        let text = bench_document("demo", "abc123", &rows);
        let doc = json::parse(&text).expect("bench document must be valid JSON");
        assert_eq!(doc.str_of("bench"), Ok("demo"));
        assert_eq!(doc.str_of("commit"), Ok("abc123"));
        let metrics = doc.arr_of("metrics").unwrap();
        assert_eq!(metrics.len(), rows.len());
        for (m, (id, value, unit)) in metrics.iter().zip(&rows) {
            assert_eq!(m.str_of("name"), Ok(id.as_str()));
            assert_eq!(m.get("value"), Some(&Json::Float(*value)));
            assert_eq!(m.str_of("unit"), Ok(*unit));
        }
        assert!(text.contains("\n    {\"name\":\"g/methods\",\"value\":1024.0,\"unit\":\"count\"},\n"));
    }
}
