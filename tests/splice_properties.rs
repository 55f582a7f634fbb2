//! The incremental front end must be invisible.
//!
//! `jtlang::reparse` splices one re-parsed member into a live AST, the
//! analysis database carries its fingerprint index across revisions,
//! and `RefinementSession::replace_source` type-checks only the spliced
//! member. After any chain of random edits each of them must agree with
//! its from-scratch counterpart: the spliced program with a full parse
//! (ids and spans included, or the identical error), the carried index
//! with a fresh `ProgramIndex::build`, and the session's findings with
//! a cold policy check.

use jtanalysis::db::AnalysisDb;
use jtanalysis::fingerprint::ProgramIndex;
use jtanalysis::{callgraph, MethodRef};
use jtlang::corpus::{self, GenConfig};
use jtlang::reparse::Reparse;
use proptest::prelude::*;
use sfr::policy::Policy;
use sfr::session::{FrontendPath, RefinementSession};
use std::collections::BTreeMap;

/// One random edit, applied at a position drawn from `at` (a fraction
/// of the text in 1/1000ths).
#[derive(Debug, Clone)]
enum Edit {
    /// Replace the digit run nearest `at` by `value`.
    Literal { at: usize, value: i64 },
    /// Insert one statement after the `;` or `{` nearest `at`.
    Statement { at: usize, which: usize },
    /// Remove the line around `at`.
    RemoveLine { at: usize },
    /// Insert a newline and indentation at `at`.
    Newline { at: usize },
    /// Insert a stray token at `at`.
    Stray { at: usize, which: usize },
    /// Remove `len` bytes at `at`.
    Remove { at: usize, len: usize },
}

const STATEMENTS: [&str; 4] = [
    " acc = acc + 1;",
    " int t = 3;",
    " if (acc > 2) { acc = 0; }",
    "\n        buf[0] = 5;",
];
const STRAYS: [&str; 6] = ["/*", "{", "}", ";", "*/", "// x"];

fn arb_edit() -> BoxedStrategy<Edit> {
    prop_oneof![
        (0usize..1000, 0i64..100_000).prop_map(|(at, value)| Edit::Literal { at, value }),
        (0usize..1000, 0usize..4).prop_map(|(at, which)| Edit::Statement { at, which }),
        (0usize..1000).prop_map(|at| Edit::RemoveLine { at }),
        (0usize..1000).prop_map(|at| Edit::Newline { at }),
        (0usize..1000, 0usize..6).prop_map(|(at, which)| Edit::Stray { at, which }),
        (0usize..1000, 1usize..8).prop_map(|(at, len)| Edit::Remove { at, len }),
    ]
    .boxed()
}

/// The byte offset `at`/1000 of the way into `text`, on a char boundary.
fn offset(text: &str, at: usize) -> usize {
    let mut i = text.len() * at / 1000;
    while !text.is_char_boundary(i) {
        i -= 1;
    }
    i
}

fn apply(text: &str, edit: &Edit) -> String {
    let b = text.as_bytes();
    let mut out = text.to_string();
    match *edit {
        Edit::Literal { at, value } => {
            let i = offset(text, at);
            let found = (i..b.len())
                .chain((0..i).rev())
                .find(|&j| b[j].is_ascii_digit());
            if let Some(j) = found {
                let start = (0..=j)
                    .rev()
                    .take_while(|&k| b[k].is_ascii_digit())
                    .last()
                    .unwrap();
                let end = (j..b.len())
                    .find(|&k| !b[k].is_ascii_digit())
                    .unwrap_or(b.len());
                out.replace_range(start..end, &value.to_string());
            }
        }
        Edit::Statement { at, which } => {
            let i = offset(text, at);
            if let Some(j) = (i..b.len()).find(|&j| b[j] == b';' || b[j] == b'{') {
                out.insert_str(j + 1, STATEMENTS[which]);
            }
        }
        Edit::RemoveLine { at } => {
            let i = offset(text, at);
            let start = text[..i].rfind('\n').map_or(0, |n| n + 1);
            let end = text[i..].find('\n').map_or(text.len(), |n| i + n + 1);
            out.replace_range(start..end, "");
        }
        Edit::Newline { at } => out.insert_str(offset(text, at), "\n    "),
        Edit::Stray { at, which } => out.insert_str(offset(text, at), STRAYS[which]),
        Edit::Remove { at, len } => {
            let i = offset(text, at);
            let mut end = (i + len).min(text.len());
            while !text.is_char_boundary(end) {
                end += 1;
            }
            out.replace_range(i..end, "");
        }
    }
    out
}

fn arb_base() -> BoxedStrategy<String> {
    let samples: Vec<String> = corpus::samples()
        .iter()
        .map(|s| s.source.to_string())
        .collect();
    prop_oneof![
        (0usize..samples.len()).prop_map(move |i| samples[i].clone()),
        (1usize..4, 1usize..5, any::<u64>()).prop_map(|(classes, methods_per_class, seed)| {
            corpus::generate(&GenConfig {
                classes,
                methods_per_class,
                seed,
            })
        }),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Every edit in a chain: the spliced program equals a full parse of
    /// the new text, or `reparse` returns the full parse's error and
    /// leaves the program as it was.
    #[test]
    fn reparse_equals_a_full_parse(
        base in arb_base(),
        edits in proptest::collection::vec(arb_edit(), 1..8),
    ) {
        let mut text = base;
        let mut program = jtlang::parse(&text).unwrap();
        for edit in &edits {
            let new = apply(&text, edit);
            let result = jtlang::reparse(&mut program, &text, &new);
            match jtlang::parse(&new) {
                Ok(want) => {
                    prop_assert!(result.is_ok(), "{:?} after {:?}", result, edit);
                    prop_assert!(program == want, "splice differs after {:?}:\n{}", edit, new);
                    text = new;
                }
                Err(e) => {
                    prop_assert_eq!(result, Err(e));
                    prop_assert!(program == jtlang::parse(&text).unwrap());
                }
            }
        }
    }
}

/// The whole front end on `text`; `None` when it rejects the text.
fn frontend(text: &str) -> Option<(jtlang::Program, jtlang::resolve::ClassTable)> {
    jtanalysis::frontend(text).ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// A database driven by `reparse` splices (as a session drives it)
    /// carries an index equal to a fresh build after every accepted
    /// revision, and a session fed the same revisions finds what a
    /// cold check of a fresh parse finds.
    #[test]
    fn carried_index_and_session_match_cold_runs(
        classes in 1usize..4,
        methods_per_class in 1usize..5,
        seed in any::<u64>(),
        edits in proptest::collection::vec(arb_edit(), 1..8),
    ) {
        let cfg = GenConfig { classes, methods_per_class, seed };
        let mut text = corpus::generate(&cfg);
        let (mut program, mut table) = frontend(&text).unwrap();
        let mut db = AnalysisDb::new();
        db.analyze(&program, &table, &callgraph::build(&program, &table));
        let mut session = RefinementSession::from_source(&text, Policy::asr()).unwrap();
        session.check();
        for edit in &edits {
            let new = apply(&text, edit);
            let Some((want, new_table)) = frontend(&new) else {
                prop_assert!(session.replace_source(&new).is_err());
                continue;
            };
            let result = jtlang::reparse(&mut program, &text, &new).unwrap();
            prop_assert!(program == want);
            // Splices with an unchanged signature keep the table; the
            // database is told which member moved.
            let spliced = match &result {
                Reparse::Spliced(splice) if new_table == table => {
                    Some(splice.iter().map(|s| s.pos).collect::<Vec<_>>())
                }
                _ => None,
            };
            table = new_table;
            let graph = callgraph::build(&program, &table);
            match &spliced {
                Some(members) => db.analyze_spliced(&program, &table, &graph, members, None),
                None => db.analyze(&program, &table, &graph),
            };
            prop_assert!(db.index() == &ProgramIndex::build(&program, &table), "after {:?}", edit);

            session.replace_source(&new).unwrap();
            prop_assert_eq!(session.check(), Policy::asr().check(&program, &table));
            text = new;
        }
    }
}

/// The Fig. 2 loop on the 32×32 corpus: constant edits and one-statement
/// insertions, each in one method, all take the spliced front end.
#[test]
fn one_method_edits_on_the_large_corpus_are_all_spliced() {
    let cfg = GenConfig {
        classes: 32,
        methods_per_class: 32,
        ..GenConfig::default()
    };
    let methods = corpus::method_count(&cfg);
    let mut text = corpus::generate(&cfg);
    let mut session = RefinementSession::from_source(&text, Policy::asr()).unwrap();
    // splitmix64: a fixed, seeded stream of method indices and values.
    let mut state = 0x5eed_u64;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let member = |g: usize| MethodRef::method(format!("G{}", g / 32), format!("m{}", g % 32));

    let mut tweaks = BTreeMap::new();
    for _ in 0..50 {
        let g = (next() % methods as u64) as usize;
        let value = (next() % 1000) as i64;
        let old = tweaks.insert(g, value);
        let new = corpus::generate_with_tweaks(&cfg, &tweaks);
        session.replace_source(&new).unwrap();
        let expected = if new == text { vec![] } else { vec![member(g)] };
        assert_eq!(
            session.frontend_path(),
            &FrontendPath::Spliced { members: expected },
            "tweak of method {g} from {old:?} to {value}"
        );
        text = new;
    }
    for _ in 0..50 {
        let g = (next() % methods as u64) as usize;
        let header = format!("class G{} {{", g / 32);
        let class = text.find(&header).unwrap();
        let signature = format!("    int m{}(int n) {{\n", g % 32);
        let at = class + text[class..].find(&signature).unwrap() + signature.len();
        text.insert_str(at, "        acc = acc + 1;\n");
        session.replace_source(&text).unwrap();
        assert_eq!(
            session.frontend_path(),
            &FrontendPath::Spliced {
                members: vec![member(g)]
            },
            "statement inserted into method {g}"
        );
    }
    let (program, table) = jtanalysis::frontend(&text).unwrap();
    assert_eq!(session.program(), &program);
    assert_eq!(session.check(), Policy::asr().check(&program, &table));
}
