//! The independent answers every benchmark output is checked against.
//!
//! None of them shares the code path it checks: the re-check oracle is
//! a cold policy check on a fresh parse (no session, no analysis
//! database), the grid oracle is hand-written Rust models of the three
//! corpus blocks, and the JPEG oracle is [`jpegsys::jtgen::native_reference`].

use asr::value::{Datum, Value};
use jpegsys::image::GrayImage;
use sfr::policy::Policy;
use sfr::violation::Violation;

/// The re-check oracle runs on every `RECHECK_EVERY`-th revision and on
/// the last one.
pub const RECHECK_EVERY: u64 = 25;

/// The comparable part of a violation: rule, span, message.
pub type Finding = (&'static str, usize, usize, String);

/// The findings of `violations`, in their order.
pub fn findings(violations: &[Violation]) -> Vec<Finding> {
    violations
        .iter()
        .map(|v| (v.rule, v.span.start, v.span.end, v.message.clone()))
        .collect()
}

/// The cold answer for `source`: a fresh front end and a fresh
/// [`Policy::asr`] check.
///
/// # Errors
///
/// The front-end error, when `source` is ill-formed.
pub fn cold_findings(source: &str) -> Result<Vec<Finding>, String> {
    let (program, table) = jtanalysis::frontend(source)?;
    Ok(findings(&Policy::asr().check(&program, &table)))
}

/// The three corpus blocks of the grid workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockKind {
    /// [`jtlang::corpus::FIR_FILTER`].
    Fir,
    /// [`jtlang::corpus::COUNTER`].
    Counter,
    /// [`jtlang::corpus::TRAFFIC_LIGHT`].
    TrafficLight,
}

impl BlockKind {
    /// The kind of grid block `b`: Fir, Counter, TrafficLight, cycling.
    pub fn of(b: usize) -> BlockKind {
        [BlockKind::Fir, BlockKind::Counter, BlockKind::TrafficLight][b % 3]
    }

    /// The block's JT source.
    pub fn source(self) -> &'static str {
        match self {
            BlockKind::Fir => jtlang::corpus::FIR_FILTER,
            BlockKind::Counter => jtlang::corpus::COUNTER,
            BlockKind::TrafficLight => jtlang::corpus::TRAFFIC_LIGHT,
        }
    }

    /// The block's class name.
    pub fn class(self) -> &'static str {
        match self {
            BlockKind::Fir => "Fir",
            BlockKind::Counter => "Counter",
            BlockKind::TrafficLight => "TrafficLight",
        }
    }

    /// Constructor arguments of grid block `b` (counters saturate at
    /// different limits).
    pub fn ctor_args(self, b: usize) -> Vec<i64> {
        match self {
            BlockKind::Counter => vec![20 + b as i64],
            _ => Vec::new(),
        }
    }
}

/// A hand-written Rust model of one corpus block.
#[derive(Debug, Clone)]
enum BlockModel {
    Fir { window: [i64; 4] },
    Counter { count: i64, limit: i64 },
    TrafficLight { state: i64, timer: i64 },
}

impl BlockModel {
    fn new(kind: BlockKind, b: usize) -> BlockModel {
        match kind {
            BlockKind::Fir => BlockModel::Fir { window: [0; 4] },
            BlockKind::Counter => BlockModel::Counter {
                count: 0,
                limit: kind.ctor_args(b)[0],
            },
            BlockKind::TrafficLight => BlockModel::TrafficLight { state: 0, timer: 0 },
        }
    }

    fn react(&mut self, x: i64) -> i64 {
        match self {
            BlockModel::Fir { window } => {
                window.rotate_right(1);
                window[0] = x;
                (window[0] + 3 * window[1] + 3 * window[2] + window[3]) / 8
            }
            BlockModel::Counter { count, limit } => {
                *count = (*count + x).min(*limit);
                *count
            }
            BlockModel::TrafficLight { state, timer } => {
                *timer += 1;
                let (next, dwell) = match *state {
                    0 if x == 1 => (1, 3),
                    0 => (0, i64::MAX),
                    1 => (2, 1),
                    _ => (0, 4),
                };
                if *timer >= dwell {
                    *state = next;
                    *timer = 0;
                }
                *state
            }
        }
    }
}

/// The block grid's model: `lanes` chains of `depth` blocks (block
/// `b = lane * depth + d`), whose outputs are summed.
#[derive(Debug, Clone)]
pub struct GridModel {
    lanes: Vec<Vec<BlockModel>>,
}

impl GridModel {
    /// A grid of `lanes × depth` blocks in their initial state.
    pub fn new(lanes: usize, depth: usize) -> GridModel {
        let lanes = (0..lanes)
            .map(|l| {
                (0..depth)
                    .map(|d| {
                        let b = l * depth + d;
                        BlockModel::new(BlockKind::of(b), b)
                    })
                    .collect()
            })
            .collect();
        GridModel { lanes }
    }

    /// One instant: the lane outputs followed by their sum.
    pub fn react(&mut self, inputs: &[i64]) -> Vec<i64> {
        let mut outs: Vec<i64> = self
            .lanes
            .iter_mut()
            .zip(inputs)
            .map(|(lane, &x)| lane.iter_mut().fold(x, |v, block| block.react(v)))
            .collect();
        outs.push(outs.iter().sum());
        outs
    }
}

/// True when `outputs` equal the model's `expected` integers.
pub fn ints_match(outputs: &[Value], expected: &[i64]) -> bool {
    outputs.len() == expected.len()
        && outputs
            .iter()
            .zip(expected)
            .all(|(v, &e)| v.as_int() == Some(e))
}

/// True when the JPEG system's outputs (reconstructed plane, error sum)
/// equal the native reference for `img`. The plane may be longer than
/// the image (the restricted design writes its worst-case buffer).
pub fn jpeg_matches(img: &GrayImage, outputs: &[Value]) -> bool {
    let (want, want_err) = jpegsys::jtgen::native_reference(img);
    let n = img.width() * img.height();
    let plane = outputs
        .first()
        .and_then(Value::datum)
        .and_then(Datum::as_vec);
    match (plane, outputs.get(1).and_then(Value::as_int)) {
        (Some(plane), Some(err)) => {
            plane.len() >= n && plane[..n] == *want.samples() && err == want_err
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jtvm::engine::Engine;
    use jtvm::io::PortDatum;
    use jtvm::vm::CompiledVm;

    /// The models agree with the stack VM running the corpus sources.
    #[test]
    fn block_models_match_the_corpus_programs() {
        let mut rng = crate::Rng::new(2);
        for b in 0..3 {
            let kind = BlockKind::of(b);
            let mut vm =
                CompiledVm::new(jtlang::parse(kind.source()).unwrap(), kind.class()).unwrap();
            let args: Vec<_> = kind
                .ctor_args(b)
                .into_iter()
                .map(jtvm::value::RtValue::Int)
                .collect();
            vm.initialize(&args).unwrap();
            let mut model = BlockModel::new(kind, b);
            for t in 0..200 {
                let x = if kind == BlockKind::TrafficLight {
                    rng.range(0, 2)
                } else {
                    rng.range(-3, 9)
                };
                let got = vm.react(&[PortDatum::Int(x)]).unwrap();
                assert_eq!(
                    got[0],
                    Some(PortDatum::Int(model.react(x))),
                    "{kind:?} instant {t}"
                );
            }
        }
    }

    #[test]
    fn grid_sums_its_lanes() {
        let mut g = GridModel::new(2, 1);
        // Lane 0 is a Fir (1·x/8), lane 1 a Counter.
        assert_eq!(g.react(&[8, 5]), vec![1, 5, 6]);
        assert_eq!(g.react(&[8, 5]), vec![4, 10, 14]);
    }

    #[test]
    fn cold_findings_report_front_end_errors() {
        assert!(cold_findings("class {").is_err());
        assert_eq!(cold_findings(jtlang::corpus::COUNTER), Ok(Vec::new()));
        assert!(!cold_findings(jtlang::corpus::UNRESTRICTED_AVG)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn jpeg_oracle_rejects_a_wrong_error_sum() {
        let img = jpegsys::testimage::gray_test_image(16, 8);
        let (out, err) = jpegsys::jtgen::native_reference(&img);
        let plane = Value::vec(out.samples().to_vec());
        assert!(jpeg_matches(&img, &[plane.clone(), Value::int(err)]));
        assert!(!jpeg_matches(&img, &[plane, Value::int(err + 1)]));
    }
}
