//! # `jtlang` — the JT design-input language
//!
//! The paper uses **Java** as the design input language for embedded
//! systems and refines programs against a policy of use. This crate
//! provides the Rust-native stand-in: **JT**, a compact Java-like language
//! covering the portion of Java the paper's restrictions and
//! transformations actually touch — classes with visibility-modified
//! fields, constructors, methods, `while`/`do-while`/`for` loops, object
//! and array allocation (`new`), thread idioms (`extends Thread`,
//! `start()`), and blocking calls (`wait`, `sleep`, `join`).
//!
//! The pipeline is conventional:
//!
//! 1. [`lexer`] turns source text into [`token`]s with byte spans,
//! 2. [`parser`] builds the [`ast`] (every node carries a [`ast::NodeId`]
//!    and [`token::Span`], which the refinement tools use to address and
//!    rewrite nodes),
//! 3. [`resolve`] builds the class table (including the built-in `ASR`
//!    and `Thread` base classes from the paper's class-library
//!    extensions),
//! 4. [`types`] checks the program,
//! 5. [`pretty`] renders an AST back to JT source (round-trip stable),
//!    which is how transformed programs are materialised.
//!
//! [`corpus`] holds the example programs shared by tests, benches, and
//! the refinement demos.
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let source = "class Counter { private int n; int next() { n = n + 1; return n; } }";
//! let program = jtlang::parse(source)?;
//! let table = jtlang::resolve::resolve(&program)?;
//! jtlang::types::check(&program, &table)?;
//! # Ok(())
//! # }
//! ```

pub mod ast;
pub mod corpus;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod reparse;
pub mod resolve;
pub mod token;
pub mod types;

pub use ast::Program;
pub use parser::{parse, ParseError};
pub use reparse::reparse;

/// Parses, resolves, and type-checks a JT program in one call.
///
/// # Errors
///
/// Returns the textual form of the first error from whichever phase
/// fails; use the individual phases when structured errors are needed.
///
/// ```
/// let program = jtlang::check_source("class A { int f; }").unwrap();
/// assert_eq!(program.classes.len(), 1);
/// ```
pub fn check_source(source: &str) -> Result<Program, String> {
    let program = parse(source).map_err(|e| e.to_string())?;
    let table = resolve::resolve(&program).map_err(|e| e.to_string())?;
    types::check(&program, &table).map_err(|e| e.to_string())?;
    Ok(program)
}
