//! `evidence_verify` — independent checker for proof-carrying lint
//! output.
//!
//! Reads `jtlint --json` lines from stdin and re-validates the
//! `evidence` object attached to every proof-carrying finding (rules
//! R2, R12, R13, R14) against the *source program*, via
//! [`jtanalysis::evidence::verify`] — which re-walks the AST for the
//! cited accesses, sites, call frames, and chain links without
//! re-running any fixpoint solver. A finding from those rules with no
//! evidence, with evidence that fails to parse, or with evidence the
//! checker rejects is an error; the process exits nonzero if any line
//! fails.
//!
//! ```text
//! cargo run --example jtlint -- --json | cargo run --example evidence_verify
//! ```
//!
//! Each input line carries a `file` field of the form `<sample>.jt`
//! naming the built-in corpus program it was produced from; the checker
//! re-runs the front end on that sample to obtain the AST it validates
//! against.

use jtanalysis::evidence::Evidence;
use std::io::BufRead as _;

fn check_line(line: &str) -> Result<Option<&'static str>, String> {
    let obj = jtobs::json::parse(line)?;
    let rule = obj.str_of("rule")?;
    if !matches!(rule, "R2" | "R12" | "R13" | "R14") {
        return Ok(None);
    }
    let file = obj.str_of("file")?;
    let name = file.strip_suffix(".jt").unwrap_or(file);
    let sample = jtlang::corpus::samples()
        .into_iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("unknown corpus sample `{name}`"))?;
    let evidence_json = obj
        .get("evidence")
        .ok_or_else(|| format!("{rule} finding carries no evidence"))?;
    let ev = Evidence::from_json(evidence_json)?;
    if ev.rule() != rule {
        return Err(format!("{rule} finding carries {} evidence", ev.rule()));
    }
    let (program, table) = jtanalysis::frontend(sample.source)?;
    jtanalysis::evidence::verify(&program, &table, &ev)?;
    Ok(Some(ev.rule()))
}

fn main() {
    let mut checked = std::collections::BTreeMap::<&str, usize>::new();
    let mut skipped = 0usize;
    let mut failures = 0usize;
    for (lineno, line) in std::io::stdin().lock().lines().enumerate() {
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                eprintln!("evidence_verify: stdin: {e}");
                failures += 1;
                break;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        match check_line(&line) {
            Ok(Some(rule)) => *checked.entry(rule).or_insert(0) += 1,
            Ok(None) => skipped += 1,
            Err(e) => {
                eprintln!("evidence_verify: line {}: {e}", lineno + 1);
                failures += 1;
            }
        }
    }
    let per_rule: Vec<String> = checked.iter().map(|(r, n)| format!("{r}={n}")).collect();
    println!(
        "evidence_verify: {} derivation(s) checked ({}), {} non-proof-carrying finding(s) \
         skipped, {} failure(s)",
        checked.values().sum::<usize>(),
        if per_rule.is_empty() {
            "none".to_string()
        } else {
            per_rule.join(" ")
        },
        skipped,
        failures
    );
    if failures > 0 {
        std::process::exit(1);
    }
}
