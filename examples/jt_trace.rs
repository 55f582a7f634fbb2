//! `jt-trace` — record and diff execution-journal dumps.
//!
//! The flight recorder's determinism contract says a Staged run and a
//! Parallel run of the same system must produce the *same semantic
//! event sequence*, differing only in timing fields and scheduler
//! chatter. This tool makes that contract checkable from the command
//! line (and in CI):
//!
//! ```text
//! cargo run --example jt_trace -- record a.jsonl --strategy staged
//! cargo run --example jt_trace -- record b.jsonl --strategy parallel --workers 8
//! cargo run --example jt_trace -- diff a.jsonl b.jsonl
//! ```
//!
//! `record` runs a wide JPEG-shaped ASR system (eight parallel
//! gain/clamp chains into an adder tree, plus a cyclic select stratum
//! and a delay) for a few instants under the requested strategy and
//! writes the journal as JSONL. `diff` compares two dumps modulo
//! timing: it keeps only `class == "sem"` events, strips the volatile
//! fields ([`jtobs::journal::VOLATILE_FIELDS`]), and requires the two
//! sequences to be identical — exiting nonzero with the first
//! divergence otherwise.

use asr::prelude::*;
use jtobs::json::Json;

fn wide_system() -> Result<System, Box<dyn std::error::Error>> {
    let mut b = SystemBuilder::new("trace-demo");
    let x = b.add_input("x");
    // Eight independent gain → clamp chains: one wide level each.
    let mut frontier: Vec<Source> = Vec::new();
    for k in 0..8i64 {
        let g = b.add_block(stock::gain(format!("g{k}"), k + 1));
        let c = b.add_block(stock::clamp(format!("c{k}"), 0, 10_000));
        b.connect(Source::ext(x), Sink::block(g, 0))?;
        b.connect(Source::block(g, 0), Sink::block(c, 0))?;
        frontier.push(Source::block(c, 0));
    }
    // Adder tree: 8 → 4 → 2 → 1.
    let mut level = 0;
    while frontier.len() > 1 {
        let mut next = Vec::new();
        for (i, pair) in frontier.chunks(2).enumerate() {
            let a = b.add_block(stock::add(format!("s{level}_{i}")));
            b.connect(pair[0], Sink::block(a, 0))?;
            b.connect(pair[1], Sink::block(a, 1))?;
            next.push(Source::block(a, 0));
        }
        frontier = next;
        level += 1;
    }
    let sum = frontier[0];
    // A delay-free select cycle (one cyclic stratum) plus a unit delay,
    // so the journal exercises Once strata, a Cyclic stratum, and
    // cross-instant state.
    let sel = b.add_block(stock::select("sel"));
    let cond = b.add_block(stock::const_bool("cond", true));
    let d = b.add_delay("prev", Value::int(0));
    let o = b.add_output("o");
    b.connect(Source::block(cond, 0), Sink::block(sel, 0))?;
    b.connect(sum, Sink::block(sel, 1))?;
    b.connect(Source::block(sel, 0), Sink::block(sel, 2))?;
    b.connect(Source::block(sel, 0), Sink::delay(d))?;
    b.connect(Source::block(sel, 0), Sink::ext(o))?;
    Ok(b.build()?)
}

fn record(out: &str, strategy: Strategy, instants: u64) -> Result<(), Box<dyn std::error::Error>> {
    if !jtobs::ENABLED {
        eprintln!("jt-trace: built without the `telemetry` feature; the journal is empty");
    }
    let registry = jtobs::Registry::new();
    let mut system = wide_system()?;
    system.set_strategy(strategy);
    system.set_parallel_threshold(1);
    system.attach_registry(&registry);
    for k in 0..instants {
        system.react(&[Value::int(k as i64 * 7)])?;
    }
    std::fs::write(out, registry.journal().to_jsonl())?;
    println!(
        "jt-trace: recorded {} event(s) under {:?} to {}",
        registry.journal().len(),
        strategy,
        out
    );
    Ok(())
}

/// One semantic event, parsed and stripped of its volatile fields.
fn semantic_events(path: &str) -> Result<Vec<Json>, Box<dyn std::error::Error>> {
    let text = std::fs::read_to_string(path)?;
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let mut v = jtobs::json::parse(line)
            .map_err(|e| format!("{path}:{}: bad JSON: {e}", i + 1))?;
        if v.str_of("class") != Ok("sem") {
            continue;
        }
        if let Json::Obj(fields) = &mut v {
            fields.retain(|(k, _)| !jtobs::journal::VOLATILE_FIELDS.contains(&k.as_str()));
        }
        events.push(v);
    }
    Ok(events)
}

fn diff(a: &str, b: &str) -> Result<bool, Box<dyn std::error::Error>> {
    let ea = semantic_events(a)?;
    let eb = semantic_events(b)?;
    let n = ea.len().min(eb.len());
    for i in 0..n {
        if ea[i] != eb[i] {
            eprintln!("jt-trace: semantic event #{i} diverges:");
            eprintln!("  {a}: {}", ea[i].render());
            eprintln!("  {b}: {}", eb[i].render());
            return Ok(false);
        }
    }
    if ea.len() != eb.len() {
        eprintln!(
            "jt-trace: event counts diverge after {n} matching event(s): {a} has {}, {b} has {}",
            ea.len(),
            eb.len()
        );
        return Ok(false);
    }
    println!(
        "jt-trace: journals agree ({} semantic event(s), timing ignored)",
        ea.len()
    );
    Ok(true)
}

fn usage() -> ! {
    eprintln!(
        "usage: jt_trace record <out.jsonl> [--strategy staged|parallel] [--workers N] [--instants K]\n       jt_trace diff <a.jsonl> <b.jsonl>"
    );
    std::process::exit(2);
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("record") => {
            let out = args.get(1).cloned().unwrap_or_else(|| usage());
            let mut strategy = Strategy::Staged;
            let mut workers = 8usize;
            let mut instants = 6u64;
            let mut i = 2;
            let mut parallel = false;
            while i < args.len() {
                match args[i].as_str() {
                    "--strategy" => {
                        i += 1;
                        match args.get(i).map(String::as_str) {
                            Some("staged") => parallel = false,
                            Some("parallel") => parallel = true,
                            _ => usage(),
                        }
                    }
                    "--workers" => {
                        i += 1;
                        workers = args.get(i).and_then(|w| w.parse().ok()).unwrap_or_else(|| usage());
                    }
                    "--instants" => {
                        i += 1;
                        instants =
                            args.get(i).and_then(|w| w.parse().ok()).unwrap_or_else(|| usage());
                    }
                    _ => usage(),
                }
                i += 1;
            }
            if parallel {
                strategy = Strategy::Parallel { workers };
            }
            record(&out, strategy, instants)
        }
        Some("diff") => {
            let (a, b) = match (args.get(1), args.get(2)) {
                (Some(a), Some(b)) => (a.clone(), b.clone()),
                _ => usage(),
            };
            if !diff(&a, &b)? {
                std::process::exit(1);
            }
            Ok(())
        }
        _ => usage(),
    }
}
