//! The front end and the policy check never panic.
//!
//! Random token streams — pure noise, noise spliced into a real corpus
//! program, and long runs of one token that nest as deep as they can —
//! go through `parse` → `resolve` → `types::check` →
//! `Policy::asr().check`, each stage only on what the previous one
//! accepted, and through `RefinementSession::replace_source` on a live
//! session whose base text they edit. Every input must come back as
//! `Ok` or `Err`: no panic, no stack overflow. A session that accepts a
//! revision must find what a cold check of a fresh parse finds.

use proptest::prelude::*;
use sfr::policy::Policy;
use sfr::session::RefinementSession;

const TOKENS: [&str; 44] = [
    "class", "extends", "public", "private", "static", "final", "void", "int", "boolean", "if",
    "else", "while", "do", "for", "return", "break", "new", "this", "null", "true", "{", "}", "(",
    ")", "[", "]", ";", ",", ".", "=", "+", "-", "*", "/", "%", "<", "==", "&&", "!", "++", "A",
    "x", "run", "ASR",
];

/// One token: from the vocabulary, a small literal, or (rarely) a
/// character the lexer rejects or a comment opener.
fn arb_token() -> BoxedStrategy<String> {
    prop_oneof![
        (0usize..TOKENS.len()).prop_map(|i| TOKENS[i].to_string()),
        (0usize..TOKENS.len()).prop_map(|i| TOKENS[i].to_string()),
        (0i64..1000).prop_map(|v| v.to_string()),
        (0usize..4).prop_map(|i| ["@", "/*", "//", "99999999999999999999"][i].to_string()),
    ]
    .boxed()
}

/// Noise, noise inserted into a corpus sample, or one token repeated
/// up to well past the parser's nesting limit.
fn arb_text() -> BoxedStrategy<String> {
    let samples: Vec<&'static str> = jtlang::corpus::samples().iter().map(|s| s.source).collect();
    let n = samples.len();
    prop_oneof![
        proptest::collection::vec(arb_token(), 0..60).prop_map(|t| t.join(" ")),
        (
            0..n,
            0usize..1000,
            proptest::collection::vec(arb_token(), 1..6)
        )
            .prop_map(move |(i, at, noise)| {
                let src = samples[i];
                let mut at = src.len() * at / 1000;
                while !src.is_char_boundary(at) {
                    at -= 1;
                }
                format!("{} {} {}", &src[..at], noise.join(" "), &src[at..])
            }),
        (0usize..TOKENS.len(), 100usize..400).prop_map(|(i, k)| {
            let run = vec![TOKENS[i]; k].join(" ");
            format!("class A {{ int m() {{ return {run} 1; }} }}")
        }),
    ]
    .boxed()
}

/// Runs every front-end stage `text` gets through, then the policy.
fn check_cold(text: &str) -> Option<Vec<sfr::violation::Violation>> {
    let program = jtlang::parse(text).ok()?;
    let table = jtlang::resolve::resolve(&program).ok()?;
    jtlang::types::check(&program, &table).ok()?;
    Some(Policy::asr().check(&program, &table))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn random_token_streams_never_panic_the_front_end(text in arb_text()) {
        check_cold(&text);
    }

    /// Each revision replaces the text wholesale or inserts noise into
    /// the session's current text, so both front-end paths run.
    #[test]
    fn random_revisions_never_panic_a_live_session(
        base in 0usize..14,
        revisions in proptest::collection::vec(
            (any::<bool>(), 0usize..1000, arb_text(), proptest::collection::vec(arb_token(), 1..4)),
            1..5,
        ),
    ) {
        let samples = jtlang::corpus::samples();
        let mut current = samples[base % samples.len()].source.to_string();
        let mut session = RefinementSession::from_source(&current, Policy::asr()).unwrap();
        session.check();
        for (wholesale, at, whole, noise) in revisions {
            let text = if wholesale {
                whole
            } else {
                let mut at = current.len() * at / 1000;
                while !current.is_char_boundary(at) {
                    at -= 1;
                }
                format!("{} {} {}", &current[..at], noise.join(" "), &current[at..])
            };
            let before = session.program().clone();
            let cold = check_cold(&text);
            match session.replace_source(&text) {
                Ok(()) => {
                    prop_assert!(cold.is_some(), "the session accepted what the front end rejects");
                    prop_assert_eq!(Some(session.check()), cold);
                    current = text;
                }
                Err(_) => {
                    prop_assert!(cold.is_none(), "the session rejected what the front end accepts");
                    prop_assert!(session.program() == &before);
                }
            }
        }
    }
}
