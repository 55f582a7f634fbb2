//! The two-phase execution interface shared by both engines.
//!
//! The lifecycle of an object subclassed from `ASR` "is divided into two
//! parts: initialization and behavior" (paper §4.2, Fig. 7). The
//! [`Engine`] trait mirrors that split — [`Engine::initialize`] runs field
//! initializers and the constructor, [`Engine::react_into`] runs one
//! `run` invocation (one instant) — because those are exactly the two phases
//! Table 1 measures.

use crate::error::RuntimeError;
use crate::heap::HeapStats;
use crate::io::PortDatum;
use crate::value::RtValue;
use std::fmt;

/// Cost of one executed phase: deterministic steps plus allocation
/// behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseCost {
    /// Abstract steps executed.
    pub steps: u64,
    /// Heap activity during the phase.
    pub heap: HeapStats,
}

/// Error building an engine from a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildEngineError {
    /// The program failed parsing/resolution/type checking.
    Frontend(String),
    /// The requested main class does not exist or is not instantiable.
    NoSuchClass(String),
    /// The program exceeds a representation limit shared by every engine
    /// (see [`crate::compile::CompileError::LimitExceeded`]).
    LimitExceeded {
        /// What overflowed ("call arguments", "local variable slots", …).
        what: &'static str,
        /// Observed count.
        count: usize,
        /// Largest representable count.
        max: usize,
    },
}

impl fmt::Display for BuildEngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildEngineError::Frontend(e) => write!(f, "front-end error: {e}"),
            BuildEngineError::NoSuchClass(c) => write!(f, "no instantiable class `{c}`"),
            BuildEngineError::LimitExceeded { what, count, max } => {
                write!(f, "program exceeds engine limit: {count} {what} (max {max})")
            }
        }
    }
}

impl std::error::Error for BuildEngineError {}

impl From<crate::compile::CompileError> for BuildEngineError {
    fn from(e: crate::compile::CompileError) -> Self {
        match e {
            crate::compile::CompileError::Frontend(msg) => BuildEngineError::Frontend(msg),
            crate::compile::CompileError::LimitExceeded { what, count, max } => {
                BuildEngineError::LimitExceeded { what, count, max }
            }
        }
    }
}

/// A JT execution engine bound to one main (ASR) class instance.
pub trait Engine {
    /// Engine name, used in benchmark tables ("interpreter", "bytecode").
    fn name(&self) -> &str;

    /// Runs the initialization phase: field initializers, then the
    /// constructor whose arity matches `args`.
    ///
    /// # Errors
    ///
    /// Any [`RuntimeError`] raised by initializer or constructor code.
    fn initialize(&mut self, args: &[RtValue]) -> Result<(), RuntimeError>;

    /// Runs one reaction (one ASR instant): presents `inputs` on the
    /// input ports, invokes `run`, and copies the written outputs into
    /// `outputs` (`None` = port not written this instant), reusing its
    /// buffers. A steady-state reaction of a policy-compliant program on
    /// scalar ports allocates nothing. On error, `outputs` is
    /// unspecified.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Internal`] if called before [`Engine::initialize`],
    /// or any runtime error raised by the behaviour.
    fn react_into(
        &mut self,
        inputs: &[PortDatum],
        outputs: &mut Vec<Option<PortDatum>>,
    ) -> Result<(), RuntimeError>;

    /// [`Engine::react_into`] into a fresh output vector.
    ///
    /// # Errors
    ///
    /// As [`Engine::react_into`].
    fn react(&mut self, inputs: &[PortDatum]) -> Result<Vec<Option<PortDatum>>, RuntimeError> {
        let mut outputs = Vec::new();
        self.react_into(inputs, &mut outputs)?;
        Ok(outputs)
    }

    /// Cost of the most recently executed phase.
    fn last_cost(&self) -> PhaseCost;

    /// Freezes the heap: any later user allocation fails. Call after
    /// [`Engine::initialize`] to enforce the policy's bounded-memory
    /// guarantee at runtime.
    fn freeze_heap(&mut self);

    /// A size metric for the engine's loaded form of the program, in
    /// bytes (source bytes for the interpreter, bytecode bytes for the
    /// VM) — the Table 1 "program size" column.
    fn program_size(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Interpreter;
    use crate::native::NativeVm;
    use crate::vm::CompiledVm;

    /// Scalar and vector ports, with an unwritten port between written
    /// ones.
    const MIX: &str = "class Mix extends ASR {
            private int acc;
            Mix() { acc = 0; }
            public void run() {
                int[] v = readVec(1);
                acc = acc + read(0);
                v[0] = v[0] + acc;
                write(2, acc);
                writeVec(0, v);
            }
        }";

    fn engines(src: &str, class: &str, args: &[RtValue]) -> Vec<Box<dyn Engine>> {
        let program = jtlang::parse(src).unwrap();
        let mut engines: Vec<Box<dyn Engine>> = vec![
            Box::new(Interpreter::new(program.clone(), class).unwrap()),
            Box::new(CompiledVm::new(program.clone(), class).unwrap()),
            Box::new(NativeVm::new(program, class).unwrap()),
        ];
        for e in &mut engines {
            e.initialize(args).unwrap();
        }
        engines
    }

    #[test]
    fn react_is_react_into_a_fresh_vector_on_every_engine() {
        let cases: [(&str, &str, &[RtValue], usize); 2] = [
            (jtlang::corpus::COUNTER, "Counter", &[RtValue::Int(50)], 1),
            (MIX, "Mix", &[], 2),
        ];
        for (src, class, args, n_inputs) in cases {
            let mut by_react = engines(src, class, args);
            let mut by_react_into = engines(src, class, args);
            for (a, b) in by_react.iter_mut().zip(&mut by_react_into) {
                // Stale contents from a "previous instant" must not leak.
                let mut reused = vec![Some(PortDatum::Vec(vec![9; 9])); 5];
                for k in 0..6usize {
                    let v = i64::try_from(k).unwrap();
                    let inputs = [PortDatum::Int(v - 2), PortDatum::Vec(vec![v; 1 + k % 3])];
                    let inputs = &inputs[..n_inputs];
                    let want = a.react(inputs);
                    let got = b.react_into(inputs, &mut reused).map(|()| reused.clone());
                    assert_eq!(got, want, "{} on {class}, instant {k}", a.name());
                    assert_eq!(a.last_cost(), b.last_cost(), "{} on {class}", a.name());
                }
            }
        }
    }

    #[test]
    fn build_error_display() {
        assert!(BuildEngineError::Frontend("x".into())
            .to_string()
            .contains("front-end"));
        assert!(BuildEngineError::NoSuchClass("C".into())
            .to_string()
            .contains("`C`"));
    }
}
