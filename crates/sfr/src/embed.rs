//! Embedding: a policy-compliant JT class becomes an ASR block.
//!
//! This is the payoff of refinement: "Because S′ is constructed to be
//! compatible with T, P′ corresponds to a system in T" (paper §2). A
//! compliant class extending `ASR` is wrapped as an executable
//! [`asr::block::Block`]: each enclosing instant presents the block's
//! inputs on the class's ports, invokes `run` once, and forwards the
//! written outputs. From the environment's point of view, the Java object
//! "looks like a black box" (§4.2) — exactly a functional block.
//!
//! The block is *strict* and stateful-in-tick, mirroring
//! [`asr::hierarchy::TemporalComposite`]: `eval` runs the reaction
//! speculatively against a cached result, `tick` commits it. Since a
//! compliant program has deterministic, terminating reactions, one `run`
//! per instant suffices.

use crate::extension::{self, AsrInterface};
use crate::policy::Policy;
use crate::violation::Violation;
use asr::block::{Block, BlockError};
use asr::value::{Datum, Value};
use jtvm::engine::Engine;
use jtvm::io::PortDatum;
use jtvm::native::NativeVm;
use jtvm::value::RtValue;
use jtvm::vm::CompiledVm;
use std::sync::Mutex;
use std::fmt;

/// Error constructing an embedded block.
#[derive(Debug)]
pub enum EmbedError {
    /// The program failed the front end.
    Frontend(String),
    /// The program violates the policy of use; refine it first.
    NotCompliant(Vec<Violation>),
    /// The class does not satisfy the ASR extension contract.
    Contract(extension::ContractError),
    /// The engine could not be built or initialized.
    Engine(String),
}

impl fmt::Display for EmbedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmbedError::Frontend(e) => write!(f, "front-end error: {e}"),
            EmbedError::NotCompliant(vs) => {
                write!(f, "program violates the policy of use ({} violations; ", vs.len())?;
                write!(f, "refine it first): ")?;
                for v in vs.iter().take(3) {
                    write!(f, "[{}] {}; ", v.rule, v.message)?;
                }
                Ok(())
            }
            EmbedError::Contract(e) => write!(f, "ASR contract violation: {e}"),
            EmbedError::Engine(e) => write!(f, "engine error: {e}"),
        }
    }
}

impl std::error::Error for EmbedError {}

/// The execution tier an embedded block landed on. The policy proof is
/// what licenses the attempt at the native tier; lowering can still
/// decline (conservatively) and fall back to the stack VM.
enum TierEngine {
    /// The reaction lowered to the native op-slot tier.
    Native(Box<NativeVm>),
    /// Stack-bytecode fallback for reactions the lowerer declined.
    Vm(Box<CompiledVm>),
}

impl TierEngine {
    fn engine_mut(&mut self) -> &mut dyn Engine {
        match self {
            TierEngine::Native(e) => e.as_mut(),
            TierEngine::Vm(e) => e.as_mut(),
        }
    }
}

/// A compliant JT class running as an ASR functional block.
pub struct JtBlock {
    name: String,
    interface: AsrInterface,
    /// The engine and the instant cache. Only `eval` locks it: it takes
    /// `&self` so that [`asr::fixpoint::Strategy::Parallel`] workers can
    /// share the block; `tick` has `&mut self` and takes no lock.
    inner: Mutex<Inner>,
    /// Why the native tier was declined, when it was.
    native_reject: Option<String>,
    /// The statically proved WCET bound armed on the engine, if any.
    step_bound: Option<u64>,
}

/// The engine plus every buffer a reaction needs, allocated by the first
/// reaction and reused by all later ones.
struct Inner {
    engine: TierEngine,
    /// Whether `inputs`/`outputs` hold the current instant's reaction.
    valid: bool,
    /// Inputs of the current instant's reaction.
    inputs: Vec<Value>,
    /// Outputs of the current instant's reaction, one per declared port.
    outputs: Vec<Value>,
    /// `inputs` as engine port data.
    ports_in: Vec<PortDatum>,
    /// The engine's written outputs.
    ports_out: Vec<Option<PortDatum>>,
}

impl fmt::Debug for JtBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JtBlock")
            .field("name", &self.name)
            .field("inputs", &self.interface.inputs)
            .field("outputs", &self.interface.outputs)
            .finish()
    }
}

impl JtBlock {
    /// The inferred port interface.
    pub fn interface(&self) -> AsrInterface {
        self.interface
    }

    /// The execution tier the block runs on: `"native"` when the
    /// reaction lowered to the native op-slot tier, `"bytecode"` when
    /// the lowerer declined and the stack VM is used.
    pub fn engine_tier(&self) -> &'static str {
        match self.inner.lock().expect("block state lock").engine {
            TierEngine::Native(_) => "native",
            TierEngine::Vm(_) => "bytecode",
        }
    }

    /// Why the reaction did not take the native tier, if it did not.
    pub fn native_reject(&self) -> Option<&str> {
        self.native_reject.as_deref()
    }

    /// The statically proved WCET step bound armed as this block's
    /// deadline watchdog, if one was derivable.
    pub fn step_bound(&self) -> Option<u64> {
        self.step_bound
    }
}

/// Verifies compliance and the ASR contract, then wraps `class` (with
/// constructor arguments `ctor_args`) as a block.
///
/// The compliance proof does double duty: besides licensing the
/// embedding at all, it licenses the *native reaction tier* — a
/// policy-clean reaction (no run-phase allocation, statically bounded
/// loops, no recursion) is handed to [`jtvm::ir::lower_reaction`], and
/// the block reacts on the lowered op-slot code. When the lowerer
/// conservatively declines (see [`JtBlock::native_reject`]) the block
/// falls back to the stack VM; behaviour is identical either way. The
/// statically proved WCET bound for `run` (R2 evidence), when
/// derivable, is armed as the engine's step-deadline watchdog.
///
/// # Errors
///
/// See [`EmbedError`]. The policy checked is the stock ASR policy.
pub fn embed(source: &str, class: &str, ctor_args: &[i64]) -> Result<JtBlock, EmbedError> {
    let (program, table) = jtanalysis::frontend(source).map_err(EmbedError::Frontend)?;
    let violations = Policy::asr().check(&program, &table);
    if !violations.is_empty() {
        return Err(EmbedError::NotCompliant(violations));
    }
    let interface =
        extension::verify(&program, &table, class).map_err(EmbedError::Contract)?;
    // R2 payoff: the proved per-reaction step bound becomes a runtime
    // deadline watchdog (native retired ops never exceed VM steps, so
    // the same bound is sound for both tiers).
    let step_bound = jtanalysis::bounds::instruction_bounds(&program, &table)
        .get(&jtanalysis::MethodRef::method(class, "run"))
        .copied()
        .flatten();
    let args: Vec<RtValue> = ctor_args.iter().map(|&v| RtValue::Int(v)).collect();
    // The policy proof licenses the native tier; try it first.
    let mut native =
        NativeVm::new(program.clone(), class).map_err(|e| EmbedError::Engine(e.to_string()))?;
    native
        .initialize(&args)
        .map_err(|e| EmbedError::Engine(e.to_string()))?;
    let (engine, native_reject) = match native.reject_reason() {
        None => {
            native.set_step_bound(step_bound);
            native.freeze_heap();
            (TierEngine::Native(Box::new(native)), None)
        }
        Some(reject) => {
            let reject = reject.to_string();
            let mut vm = CompiledVm::new(program, class)
                .map_err(|e| EmbedError::Engine(e.to_string()))?;
            vm.initialize(&args)
                .map_err(|e| EmbedError::Engine(e.to_string()))?;
            vm.set_step_bound(step_bound);
            // A compliant program allocates only during initialization;
            // enforce that from here on.
            vm.freeze_heap();
            (TierEngine::Vm(Box::new(vm)), Some(reject))
        }
    };
    Ok(JtBlock {
        name: class.to_string(),
        interface,
        inner: Mutex::new(Inner {
            engine,
            valid: false,
            inputs: Vec::new(),
            outputs: Vec::new(),
            ports_in: Vec::new(),
            ports_out: Vec::new(),
        }),
        native_reject,
        step_bound,
    })
}

/// Stores `v` in the port slot `p`, reusing a vector slot's buffer.
fn set_port(p: &mut PortDatum, v: &Value) -> Result<(), BlockError> {
    match (v.datum(), p) {
        (Some(Datum::Vec(src)), PortDatum::Vec(dst)) => dst.clone_from(src),
        (Some(Datum::Vec(src)), p) => *p = PortDatum::Vec(src.clone()),
        (Some(Datum::Int(i)), p) => *p = PortDatum::Int(*i),
        (Some(Datum::Bool(b)), p) => *p = PortDatum::Int(i64::from(*b)),
        (None, _) => return Err(BlockError::new("port value must be present")),
    }
    Ok(())
}

/// Stores the written port `d` (`None` = not written: absent) in the
/// signal slot `o`, reusing a vector slot's buffer.
fn set_value(o: &mut Value, d: Option<&PortDatum>) {
    match (d, o) {
        (Some(PortDatum::Vec(src)), Value::Present(Datum::Vec(dst))) => dst.clone_from(src),
        (Some(PortDatum::Vec(src)), o) => *o = Value::vec(src.clone()),
        (Some(PortDatum::Int(i)), o) => *o = Value::int(*i),
        (None, o) => *o = Value::Absent,
    }
}

impl Inner {
    /// Runs the reaction on `inputs` (all present) and caches it as the
    /// current instant's, with `n_outputs` outputs: unwritten ports read
    /// `Absent` and ports past the declared count are dropped.
    fn react(&mut self, inputs: &[Value], n_outputs: usize) -> Result<(), BlockError> {
        self.ports_in.resize(inputs.len(), PortDatum::Int(0));
        for (p, v) in self.ports_in.iter_mut().zip(inputs) {
            set_port(p, v)?;
        }
        self.engine
            .engine_mut()
            .react_into(&self.ports_in, &mut self.ports_out)
            .map_err(|e| BlockError::new(e.to_string()))?;
        self.outputs.resize(n_outputs, Value::Absent);
        for (i, o) in self.outputs.iter_mut().enumerate() {
            set_value(o, self.ports_out.get(i).and_then(Option::as_ref));
        }
        inputs.clone_into(&mut self.inputs);
        self.valid = true;
        Ok(())
    }
}

impl Block for JtBlock {
    fn name(&self) -> &str {
        &self.name
    }

    fn input_arity(&self) -> usize {
        self.interface.inputs
    }

    fn output_arity(&self) -> usize {
        self.interface.outputs
    }

    fn eval(&self, inputs: &[Value], outputs: &mut [Value]) -> Result<(), BlockError> {
        if inputs.iter().any(Value::is_unknown) {
            return Ok(()); // strict: wait for all inputs
        }
        if inputs.contains(&Value::Absent) {
            outputs.fill(Value::Absent);
            return Ok(());
        }
        // The reaction advances engine state, so run it once per instant
        // and serve repeats from the cache; inputs cannot change once
        // known within an instant.
        let mut inner = self.inner.lock().expect("block state lock");
        if !inner.valid {
            inner.react(inputs, self.interface.outputs)?;
        } else if inner.inputs != inputs {
            return Err(BlockError::new(
                "inputs changed after a reaction was computed within one instant",
            ));
        }
        for (o, v) in outputs.iter_mut().zip(&inner.outputs) {
            o.clone_from(v);
        }
        Ok(())
    }

    fn tick(&mut self, inputs: &[Value]) -> Result<(), BlockError> {
        // Commit: ensure the reaction ran (it may not have, if inputs
        // stayed ⊥ or absent all instant), then clear the instant cache.
        let inner = self.inner.get_mut().expect("block state lock");
        if !inner.valid && inputs.iter().all(Value::is_known) && !inputs.contains(&Value::Absent) {
            inner.react(inputs, self.interface.outputs)?;
        }
        inner.valid = false;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asr::prelude::*;

    #[test]
    fn counter_embeds_and_counts() {
        let block = embed(jtlang::corpus::COUNTER, "Counter", &[10]).unwrap();
        assert_eq!(block.interface(), AsrInterface { inputs: 1, outputs: 1 });
        assert_eq!(block.input_arity(), 1);
        assert_eq!(block.name(), "Counter");
        assert!(format!("{block:?}").contains("Counter"));

        let mut b = SystemBuilder::new("sys");
        let x = b.add_input("x");
        let c = b.add_block(block);
        let o = b.add_output("count");
        b.connect(Source::ext(x), Sink::block(c, 0)).unwrap();
        b.connect(Source::block(c, 0), Sink::ext(o)).unwrap();
        let mut sys = b.build().unwrap();
        let outs: Vec<Value> = (0..4)
            .map(|_| sys.react(&[Value::int(4)]).unwrap()[0].clone())
            .collect();
        assert_eq!(
            outs,
            vec![Value::int(4), Value::int(8), Value::int(10), Value::int(10)]
        );
    }

    #[test]
    fn fir_embeds_into_a_pipeline_with_native_blocks() {
        let fir = embed(jtlang::corpus::FIR_FILTER, "Fir", &[]).unwrap();
        let mut b = SystemBuilder::new("pipeline");
        let x = b.add_input("x");
        let g = b.add_block(asr::stock::gain("pre", 8));
        let f = b.add_block(fir);
        let o = b.add_output("y");
        b.connect(Source::ext(x), Sink::block(g, 0)).unwrap();
        b.connect(Source::block(g, 0), Sink::block(f, 0)).unwrap();
        b.connect(Source::block(f, 0), Sink::ext(o)).unwrap();
        let mut sys = b.build().unwrap();
        // Step response through gain 8: FIR outputs 1, 4, 7, 8, 8…
        let outs: Vec<i64> = (0..5)
            .map(|_| sys.react(&[Value::int(1)]).unwrap()[0].as_int().unwrap())
            .collect();
        assert_eq!(outs, vec![1, 4, 7, 8, 8]);
    }

    #[test]
    fn compliant_blocks_take_the_native_tier() {
        for (src, class, args) in [
            (jtlang::corpus::COUNTER, "Counter", &[10][..]),
            (jtlang::corpus::FIR_FILTER, "Fir", &[]),
            (jtlang::corpus::TRAFFIC_LIGHT, "TrafficLight", &[]),
        ] {
            let block = embed(src, class, args).unwrap();
            assert_eq!(block.engine_tier(), "native", "{class}");
            assert_eq!(block.native_reject(), None, "{class}");
            assert!(block.step_bound().is_some(), "{class} should have a proved WCET");
        }
    }

    #[test]
    fn native_tier_matches_a_plain_stack_vm_run() {
        let mut block = embed(jtlang::corpus::FIR_FILTER, "Fir", &[]).unwrap();
        assert_eq!(block.engine_tier(), "native");
        let mut vm = CompiledVm::new(
            jtlang::parse(jtlang::corpus::FIR_FILTER).unwrap(),
            "Fir",
        )
        .unwrap();
        vm.initialize(&[]).unwrap();
        for k in 0..16 {
            let inputs = [Value::int(k)];
            let mut out = vec![Value::Unknown];
            block.eval(&inputs, &mut out).unwrap();
            let want = vm.react(&[PortDatum::Int(k)]).unwrap();
            let mut expected = Value::Unknown;
            set_value(&mut expected, want[0].as_ref());
            assert_eq!(out[0], expected, "k={k}");
            block.tick(&inputs).unwrap();
        }
    }

    #[test]
    fn noncompliant_program_is_rejected() {
        let err = embed(jtlang::corpus::UNRESTRICTED_AVG, "Avg", &[]).unwrap_err();
        match err {
            EmbedError::NotCompliant(vs) => assert!(!vs.is_empty()),
            other => panic!("expected NotCompliant, got {other}"),
        }
    }

    #[test]
    fn embedded_block_is_deterministic_across_strategies() {
        let build = |strategy| {
            let block = embed(jtlang::corpus::TRAFFIC_LIGHT, "TrafficLight", &[]).unwrap();
            let mut b = SystemBuilder::new("tl");
            let x = b.add_input("car");
            let t = b.add_block(block);
            let o = b.add_output("state");
            b.connect(Source::ext(x), Sink::block(t, 0)).unwrap();
            b.connect(Source::block(t, 0), Sink::ext(o)).unwrap();
            let mut sys = b.build().unwrap();
            sys.set_strategy(strategy);
            sys
        };
        let mut systems: Vec<_> = Strategy::ALL.into_iter().map(build).collect();
        for t in 0..12 {
            let car = Value::int(i64::from(t % 3 == 0));
            let outs: Vec<_> = systems
                .iter_mut()
                .map(|s| s.react(std::slice::from_ref(&car)).unwrap())
                .collect();
            for o in &outs[1..] {
                assert_eq!(*o, outs[0], "strategies disagree at instant {t}");
            }
        }
    }

    #[test]
    fn frontend_and_engine_errors_are_distinguished() {
        assert!(matches!(
            embed("class {", "A", &[]),
            Err(EmbedError::Frontend(_))
        ));
        // Compliant program but wrong class name.
        assert!(matches!(
            embed(jtlang::corpus::COUNTER, "Nope", &[]),
            Err(EmbedError::Contract(_))
        ));
    }

    #[test]
    fn inputs_that_change_within_an_instant_are_an_error() {
        let block = embed(jtlang::corpus::COUNTER, "Counter", &[10]).unwrap();
        let mut out = vec![Value::Unknown];
        block.eval(&[Value::int(3)], &mut out).unwrap();
        assert_eq!(out[0], Value::int(3));
        // A repeat with the same inputs is served from the instant cache.
        block.eval(&[Value::int(3)], &mut out).unwrap();
        assert_eq!(out[0], Value::int(3));
        let err = block.eval(&[Value::int(4)], &mut out).unwrap_err();
        assert_eq!(
            err.message(),
            "inputs changed after a reaction was computed within one instant"
        );
    }

    #[test]
    fn a_block_left_bottom_all_instant_reacts_at_tick() {
        let mut block = embed(jtlang::corpus::COUNTER, "Counter", &[10]).unwrap();
        let mut out = vec![Value::Unknown];
        block.eval(&[Value::Unknown], &mut out).unwrap();
        assert_eq!(out[0], Value::Unknown);
        // The commit still runs the instant's reaction: count 0 → 4.
        block.tick(&[Value::int(4)]).unwrap();
        block.eval(&[Value::int(4)], &mut out).unwrap();
        assert_eq!(out[0], Value::int(8));
        block.tick(&[Value::int(4)]).unwrap();
        // An instant that evaluated the block does not react twice.
        block.eval(&[Value::int(1)], &mut out).unwrap();
        assert_eq!(out[0], Value::int(9));
    }

    #[test]
    fn embedded_block_respects_absent_inputs() {
        let block = embed(jtlang::corpus::COUNTER, "Counter", &[5]).unwrap();
        let mut out = vec![Value::Unknown];
        block.eval(&[Value::Absent], &mut out).unwrap();
        assert_eq!(out[0], Value::Absent);
        let mut out2 = vec![Value::Unknown];
        block.eval(&[Value::Unknown], &mut out2).unwrap();
        assert_eq!(out2[0], Value::Unknown);
    }
}
