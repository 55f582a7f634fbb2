//! The payoff of the policy of use: once a design is compliant, upper
//! bounds on its reaction time and memory become *computable* — the
//! "bounded memory usage and bounded execution time" the paper's
//! abstract promises.
//!
//! Prints WCET-style instruction bounds and memory bounds for the
//! compliant designs (including the restricted JPEG), and shows the same
//! query failing on the unrestricted draft.
//!
//! Run with `cargo run --release --example bounded_time`.

use jtanalysis::bounds::{instruction_bounds, memory_bound};
use jtanalysis::MethodRef;

fn report(title: &str, source: &str, class: &str) -> Result<(), Box<dyn std::error::Error>> {
    let program = jtlang::check_source(source)?;
    let table = jtlang::resolve::resolve(&program)?;
    let bounds = instruction_bounds(&program, &table);
    let run_bound = bounds
        .get(&MethodRef::method(class, "run"))
        .copied()
        .flatten();
    // The designs declare one constructor each.
    let arity = program
        .class(class)
        .and_then(|c| c.ctors.first())
        .map_or(0, |c| c.params.len());
    let ctor_bound = bounds
        .get(&MethodRef::ctor(class, arity))
        .copied()
        .flatten();
    let memory = memory_bound(&program, &table, class);
    println!("{title}");
    println!(
        "  reaction  (run):   {}",
        run_bound
            .map(|b| format!("<= {b} abstract steps"))
            .unwrap_or_else(|| "UNBOUNDED (no static bound derivable)".to_string())
    );
    println!(
        "  init      (ctor):  {}",
        ctor_bound
            .map(|b| format!("<= {b} abstract steps"))
            .unwrap_or_else(|| "UNBOUNDED".to_string())
    );
    println!(
        "  memory (instance): {}",
        memory
            .map(|w| format!("<= {w} words"))
            .unwrap_or_else(|| "UNBOUNDED".to_string())
    );
    println!();
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== static bounds for compliant designs ================\n");
    report("Counter (corpus)", jtlang::corpus::COUNTER, "Counter")?;
    report("Fir (corpus)", jtlang::corpus::FIR_FILTER, "Fir")?;
    report(
        "TrafficLight (corpus)",
        jtlang::corpus::TRAFFIC_LIGHT,
        "TrafficLight",
    )?;
    report(
        "JpegRestricted (Table 1, restricted)",
        &jpegsys::jtgen::restricted_source(),
        "JpegRestricted",
    )?;

    println!("== and the unrestricted draft, for contrast ===========\n");
    report(
        "JpegUnrestricted (Table 1, unrestricted)",
        &jpegsys::jtgen::unrestricted_source(),
        "JpegUnrestricted",
    )?;
    report("Avg (corpus, unrestricted)", jtlang::corpus::UNRESTRICTED_AVG, "Avg")?;

    println!(
        "Compliant designs have derivable reaction and memory bounds;\n\
         the unrestricted drafts do not — exactly the property the ASR\n\
         policy of use exists to guarantee."
    );
    Ok(())
}
