//! The native reaction tier (the real "Café JIT" analog).
//!
//! [`NativeVm`] layers the third engine over the stack VM: the
//! initialization phase (field initializers, constructors, statics)
//! runs on an inner [`CompiledVm`] — allocation is normal there — and
//! the reaction is then lowered once by [`crate::ir::lower_reaction`]
//! into a pre-resolved op-slot array that executes with no
//! per-instruction decode of operand kinds it already knows, no operand
//! stack, no call frames (calls were inlined) and no field/method
//! lookups (slots were resolved when the code was lowered).
//!
//! When lowering rejects the reaction — it allocates, loops on a
//! data-dependent bound, or calls through a dynamic receiver —
//! [`NativeVm::reject_reason`] says why and [`Engine::react`] fails with
//! [`RuntimeError::Unsupported`]; callers that want graceful degradation
//! (see `sfr::embed`) keep the stack VM or the tree walker instead.
//! That fallback layering is exactly the restriction-enables-compilation
//! story of the paper: only the refined, policy-compliant program gets
//! the fast tier.

use crate::cost::CostMeter;
use crate::engine::{BuildEngineError, Engine, PhaseCost};
use crate::error::RuntimeError;
use crate::heap::Heap;
use crate::io::{Io, PortDatum};
use crate::ir::{self, NativeCode, Op, Operand, Reject, OP_SLOT_BYTES};
use crate::obs::{EngineObs, OPCODE_CLASSES};
use crate::value::{ObjRef, RtValue};
use crate::vm::CompiledVm;
use std::collections::HashMap;

/// A native-tier engine bound to one main-class instance.
///
/// ```
/// use jtvm::engine::Engine;
/// use jtvm::io::PortDatum;
/// use jtvm::native::NativeVm;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let program = jtlang::parse(jtlang::corpus::FIR_FILTER)?;
/// let mut vm = NativeVm::new(program, "Fir")?;
/// vm.initialize(&[])?;
/// assert!(vm.reject_reason().is_none()); // reaction compiled natively
/// let out = vm.react(&[PortDatum::Int(8)])?;
/// assert_eq!(out[0], Some(PortDatum::Int(1)));
/// # Ok(())
/// # }
/// ```
pub struct NativeVm {
    /// Runs the initialization phase and owns the heap, statics, meter,
    /// and port environment the native code executes against.
    vm: CompiledVm,
    /// Encoded reaction (after `initialize`): the op-slot code, or why
    /// lowering rejected it.
    code: Option<Result<SlotCode, Reject>>,
    /// Value frame: `n_regs` scratch slots followed by the interned
    /// constants, sized once at lowering time and reused every reaction.
    frame: Vec<RtValue>,
    obs: Option<EngineObs>,
    class_scratch: [u64; OPCODE_CLASSES.len()],
    last_cost: PhaseCost,
    step_bound: Option<u64>,
}

/// Opcode numbers of the packed [`OpSlot`] form. Grouped so a bucket
/// lookup for telemetry is a range test.
pub mod opcode {
    /// `frame[a] ← frame[b]`.
    pub const MOVE: u16 = 0;
    /// `frame[a] ← frame[b] + frame[c]` (checked).
    pub const ADD: u16 = 1;
    /// `frame[a] ← frame[b] - frame[c]` (checked).
    pub const SUB: u16 = 2;
    /// `frame[a] ← frame[b] * frame[c]` (checked).
    pub const MUL: u16 = 3;
    /// `frame[a] ← frame[b] / frame[c]` (zero divisor, then overflow).
    pub const DIV: u16 = 4;
    /// `frame[a] ← frame[b] % frame[c]` (zero divisor, then overflow).
    pub const REM: u16 = 5;
    /// `frame[a] ← -frame[b]` (checked).
    pub const NEG: u16 = 6;
    /// `frame[a] ← !frame[b]`.
    pub const NOT: u16 = 7;
    /// `frame[a] ← frame[b] < frame[c]`.
    pub const LT: u16 = 8;
    /// `frame[a] ← frame[b] <= frame[c]`.
    pub const LE: u16 = 9;
    /// `frame[a] ← frame[b] > frame[c]`.
    pub const GT: u16 = 10;
    /// `frame[a] ← frame[b] >= frame[c]`.
    pub const GE: u16 = 11;
    /// Structural `frame[a] ← frame[b] == frame[c]`.
    pub const EQ: u16 = 12;
    /// Structural `frame[a] ← frame[b] != frame[c]`.
    pub const NE: u16 = 13;
    /// `frame[a] ← object(b).slot(c)`.
    pub const FIELD_GET: u16 = 14;
    /// `object(a).slot(b) ← frame[c]`.
    pub const FIELD_SET: u16 = 15;
    /// `frame[a] ← statics[b]`.
    pub const STATIC_GET: u16 = 16;
    /// `statics[a] ← frame[b]`.
    pub const STATIC_SET: u16 = 17;
    /// Bounds-checked `frame[a] ← frame[b][frame[c]]`.
    pub const ALOAD: u16 = 18;
    /// Bounds-checked `frame[a][frame[b]] ← frame[c]`.
    pub const ASTORE: u16 = 19;
    /// `frame[a] ← frame[b].length`.
    pub const ALEN: u16 = 20;
    /// `frame[a] ← read(frame[b])`.
    pub const READ: u16 = 21;
    /// `frame[a] ← readVec(frame[b])` (allocates an env array).
    pub const READ_VEC: u16 = 22;
    /// `write(frame[a], frame[b])`.
    pub const WRITE: u16 = 23;
    /// `writeVec(frame[a], frame[b])`.
    pub const WRITE_VEC: u16 = 24;
    /// Unconditional jump to slot `a`.
    pub const JUMP: u16 = 25;
    /// Jump to slot `b` when `frame[a]` is false.
    pub const BR_FALSE: u16 = 26;
    /// Jump to slot `b` when `frame[a]` is true.
    pub const BR_TRUE: u16 = 27;
    /// Raise `fails[a]`.
    pub const FAIL: u16 = 28;
}

/// One pre-resolved 16-byte op slot — the executable form of an
/// [`ir::Op`]. Operand fields `a`/`b`/`c` index the value frame (or
/// carry a raw slot/target number, depending on [`OpSlot::op`]); there
/// is no operand tag to decode at run time because lowered constants
/// live in the read-only tail of the frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpSlot {
    /// Opcode (see [`opcode`]).
    pub op: u16,
    /// Spare half-word (keeps the slot at exactly 16 bytes).
    pub x: u16,
    /// First operand field.
    pub a: u32,
    /// Second operand field.
    pub b: u32,
    /// Third operand field.
    pub c: u32,
}

/// A lowered reaction in executable form: the op-slot array plus the
/// value frame it runs against.
#[derive(Debug, Clone)]
pub struct SlotCode {
    /// The op slots, executed from index 0; jumps are slot indices.
    pub slots: Vec<OpSlot>,
    /// Initial frame contents: `n_regs` scratch registers (`Null`)
    /// followed by the interned constants.
    pub frame: Vec<RtValue>,
    /// Runtime errors raised by [`opcode::FAIL`] slots.
    pub fails: Vec<RuntimeError>,
    /// Number of writable registers at the front of the frame.
    pub n_regs: u32,
}

impl SlotCode {
    /// Code size in bytes — the native tier's Table 1 "program size"
    /// metric ([`OP_SLOT_BYTES`] per op).
    pub fn encoded_size(&self) -> usize {
        self.slots.len() * OP_SLOT_BYTES
    }
}

/// Interns constants into the frame tail during encoding.
struct Encoder {
    frame: Vec<RtValue>,
    pool: HashMap<(u8, u64), u32>,
}

impl Encoder {
    /// Frame index holding constant `v` (interned on first use).
    fn konst(&mut self, v: RtValue) -> u32 {
        let key = match v {
            RtValue::Int(i) => (0u8, i as u64),
            RtValue::Bool(b) => (1, u64::from(b)),
            RtValue::Ref(r) => (2, r.index() as u64),
            RtValue::Null => (3, 0),
        };
        *self.pool.entry(key).or_insert_with(|| {
            self.frame.push(v);
            u32::try_from(self.frame.len() - 1).expect("frame index fits u32")
        })
    }

    fn operand(&mut self, o: &Operand) -> u32 {
        match *o {
            Operand::Reg(r) => r,
            Operand::Const(v) => self.konst(v),
        }
    }
}

/// Encodes lowered IR into the packed op-slot form the executor runs.
fn encode(code: &NativeCode) -> SlotCode {
    let mut enc = Encoder {
        frame: vec![RtValue::Null; code.n_regs as usize],
        pool: HashMap::new(),
    };
    let mut fails = Vec::new();
    let mut slots = Vec::with_capacity(code.ops.len());
    for op in &code.ops {
        let (opc, a, b, c) = match op {
            Op::Move { dst, src } => (opcode::MOVE, *dst, enc.operand(src), 0),
            Op::Add { dst, a, b } => (opcode::ADD, *dst, enc.operand(a), enc.operand(b)),
            Op::Sub { dst, a, b } => (opcode::SUB, *dst, enc.operand(a), enc.operand(b)),
            Op::Mul { dst, a, b } => (opcode::MUL, *dst, enc.operand(a), enc.operand(b)),
            Op::Div { dst, a, b } => (opcode::DIV, *dst, enc.operand(a), enc.operand(b)),
            Op::Rem { dst, a, b } => (opcode::REM, *dst, enc.operand(a), enc.operand(b)),
            Op::Neg { dst, a } => (opcode::NEG, *dst, enc.operand(a), 0),
            Op::Not { dst, a } => (opcode::NOT, *dst, enc.operand(a), 0),
            Op::Lt { dst, a, b } => (opcode::LT, *dst, enc.operand(a), enc.operand(b)),
            Op::Le { dst, a, b } => (opcode::LE, *dst, enc.operand(a), enc.operand(b)),
            Op::Gt { dst, a, b } => (opcode::GT, *dst, enc.operand(a), enc.operand(b)),
            Op::Ge { dst, a, b } => (opcode::GE, *dst, enc.operand(a), enc.operand(b)),
            Op::Eq { dst, a, b } => (opcode::EQ, *dst, enc.operand(a), enc.operand(b)),
            Op::Ne { dst, a, b } => (opcode::NE, *dst, enc.operand(a), enc.operand(b)),
            Op::FieldGet { dst, obj, slot } => (
                opcode::FIELD_GET,
                *dst,
                u32::try_from(obj.index()).expect("object index fits u32"),
                u32::try_from(*slot).expect("field slot fits u32"),
            ),
            Op::FieldSet { obj, slot, src } => (
                opcode::FIELD_SET,
                u32::try_from(obj.index()).expect("object index fits u32"),
                u32::try_from(*slot).expect("field slot fits u32"),
                enc.operand(src),
            ),
            Op::StaticGet { dst, slot } => (
                opcode::STATIC_GET,
                *dst,
                u32::try_from(*slot).expect("static slot fits u32"),
                0,
            ),
            Op::StaticSet { slot, src } => (
                opcode::STATIC_SET,
                u32::try_from(*slot).expect("static slot fits u32"),
                enc.operand(src),
                0,
            ),
            Op::ALoad { dst, arr, idx } => {
                (opcode::ALOAD, *dst, enc.operand(arr), enc.operand(idx))
            }
            Op::AStore { arr, idx, src } => (
                opcode::ASTORE,
                enc.operand(arr),
                enc.operand(idx),
                enc.operand(src),
            ),
            Op::ALen { dst, arr } => (opcode::ALEN, *dst, enc.operand(arr), 0),
            Op::Read { dst, port } => (opcode::READ, *dst, enc.operand(port), 0),
            Op::ReadVec { dst, port } => (opcode::READ_VEC, *dst, enc.operand(port), 0),
            Op::Write { port, value } => {
                (opcode::WRITE, enc.operand(port), enc.operand(value), 0)
            }
            Op::WriteVec { port, arr } => {
                (opcode::WRITE_VEC, enc.operand(port), enc.operand(arr), 0)
            }
            Op::Jump { target } => (opcode::JUMP, *target, 0, 0),
            Op::BranchIfFalse { cond, target } => {
                (opcode::BR_FALSE, enc.operand(cond), *target, 0)
            }
            Op::BranchIfTrue { cond, target } => {
                (opcode::BR_TRUE, enc.operand(cond), *target, 0)
            }
            Op::Fail(e) => {
                fails.push(e.clone());
                (
                    opcode::FAIL,
                    u32::try_from(fails.len() - 1).expect("fail index fits u32"),
                    0,
                    0,
                )
            }
        };
        slots.push(OpSlot { op: opc, x: 0, a, b, c });
    }
    SlotCode {
        slots,
        frame: enc.frame,
        fails,
        n_regs: code.n_regs,
    }
}

impl NativeVm {
    /// Compiles `program` to bytecode and prepares an instance of
    /// `main_class`; the reaction itself is lowered to native code by
    /// [`Engine::initialize`], which must run first so the lowerer sees
    /// the constructed object graph.
    ///
    /// # Errors
    ///
    /// [`BuildEngineError`] on front-end or compilation failure.
    pub fn new(program: jtlang::Program, main_class: &str) -> Result<Self, BuildEngineError> {
        Ok(NativeVm {
            vm: CompiledVm::new(program, main_class)?,
            code: None,
            frame: Vec::new(),
            obs: None,
            class_scratch: [0; OPCODE_CLASSES.len()],
            last_cost: PhaseCost::default(),
            step_bound: None,
        })
    }

    /// Replaces the step budget.
    pub fn set_step_limit(&mut self, limit: u64) {
        self.vm.set_step_limit(limit);
    }

    /// Arms (or disarms) the step-deadline watchdog, mirroring
    /// [`CompiledVm::set_step_bound`]. Native steps count retired ops.
    pub fn set_step_bound(&mut self, bound: Option<u64>) {
        self.step_bound = bound;
    }

    /// The shared heap (for inspection).
    pub fn heap(&self) -> &Heap {
        self.vm.heap()
    }

    /// Starts publishing `jtvm.native.*` metrics into `registry`. The
    /// per-class op buckets reuse the VM's opcode classes; `const` and
    /// `alloc` stay at zero by construction — constants are folded into
    /// operand slots and the native tier cannot allocate.
    pub fn attach_registry(&mut self, registry: &jtobs::Registry) {
        if jtobs::ENABLED {
            self.obs = Some(EngineObs::new(
                registry,
                "jtvm.native",
                "ops",
                &OPCODE_CLASSES,
            ));
        }
    }

    /// Stops publishing metrics.
    pub fn detach_registry(&mut self) {
        self.obs = None;
    }

    /// Why the reaction did not lower to native code, if it did not.
    /// `None` before [`Engine::initialize`] and after a successful
    /// lowering.
    pub fn reject_reason(&self) -> Option<&Reject> {
        match &self.code {
            Some(Err(r)) => Some(r),
            _ => None,
        }
    }

    /// The encoded reaction, once [`Engine::initialize`] succeeded.
    pub fn native_code(&self) -> Option<&SlotCode> {
        match &self.code {
            Some(Ok(c)) => Some(c),
            _ => None,
        }
    }

    fn flush_obs(&mut self, is_reaction: bool) {
        if let Some(obs) = &self.obs {
            if is_reaction {
                obs.reactions.inc();
            }
            obs.flush_cost(&self.last_cost);
            for (counter, n) in obs.by_class.iter().zip(&mut self.class_scratch) {
                obs.retired.add(*n);
                counter.add(*n);
                *n = 0;
            }
        }
    }
}

impl Engine for NativeVm {
    fn name(&self) -> &str {
        "native"
    }

    fn initialize(&mut self, args: &[RtValue]) -> Result<(), RuntimeError> {
        self.vm.initialize(args)?;
        let this = self
            .vm
            .this_ref
            .ok_or_else(|| RuntimeError::Internal("initialize left no instance".into()))?;
        let lowered = ir::lower_reaction(&self.vm.module, &self.vm.heap, &self.vm.statics, this)
            .map(|c| encode(&c));
        if let Ok(code) = &lowered {
            self.frame = code.frame.clone();
        }
        self.code = Some(lowered);
        self.last_cost = self.vm.last_cost();
        self.flush_obs(false);
        Ok(())
    }

    fn react_into(
        &mut self,
        inputs: &[PortDatum],
        outputs: &mut Vec<Option<PortDatum>>,
    ) -> Result<(), RuntimeError> {
        match &self.code {
            Some(Ok(_)) => {}
            Some(Err(r)) => {
                return Err(RuntimeError::Unsupported(format!(
                    "reaction is not native-compilable: {r}"
                )))
            }
            None => return Err(RuntimeError::Internal("react before initialize".into())),
        }
        let _span = self
            .obs
            .as_ref()
            .map(|o| o.registry.span("jtvm.native.react"));
        if let Some(obs) = &self.obs {
            obs.react_begin();
        }
        self.vm.meter.reset();
        self.vm.heap.reset_stats();
        self.vm.io.restart(inputs);
        let track = jtobs::ENABLED && self.obs.is_some();
        let result = {
            // Split borrows: the op array is read-only while the heap,
            // statics, meter, io, and register file are mutated.
            let NativeVm {
                vm,
                code,
                frame,
                class_scratch,
                ..
            } = self;
            let code = match code.as_ref() {
                Some(Ok(c)) => c,
                _ => unreachable!("checked above"),
            };
            run_slots(
                code,
                frame,
                &mut vm.heap,
                &mut vm.statics,
                &mut vm.io,
                &mut vm.meter,
                track,
                class_scratch,
            )
        };
        self.vm.io.end();
        self.last_cost = PhaseCost {
            steps: self.vm.meter.steps(),
            heap: self.vm.heap.stats(),
        };
        self.flush_obs(true);
        if let Some(obs) = &self.obs {
            // Depth is 1: the whole call tree was flattened at lowering.
            obs.react_end(result.as_ref().map(|_| ()), &self.last_cost, 1, self.step_bound);
        }
        result?;
        self.vm.io.outputs().clone_into(outputs);
        Ok(())
    }

    fn last_cost(&self) -> PhaseCost {
        self.last_cost
    }

    fn freeze_heap(&mut self) {
        self.vm.freeze_heap();
    }

    fn program_size(&self) -> usize {
        match &self.code {
            Some(Ok(c)) => c.encoded_size(),
            _ => self.vm.program_size(),
        }
    }
}

#[inline]
fn int_at(frame: &[RtValue], i: u32) -> Result<i64, RuntimeError> {
    frame[i as usize]
        .as_int()
        .ok_or_else(|| RuntimeError::Internal("expected int".into()))
}

#[inline]
fn bool_at(frame: &[RtValue], i: u32) -> Result<bool, RuntimeError> {
    frame[i as usize]
        .as_bool()
        .ok_or_else(|| RuntimeError::Internal("expected boolean".into()))
}

#[inline]
fn ref_at(frame: &[RtValue], i: u32) -> Result<ObjRef, RuntimeError> {
    match frame[i as usize] {
        RtValue::Ref(r) => Ok(r),
        RtValue::Null => Err(RuntimeError::NullPointer),
        _ => Err(RuntimeError::Internal("expected reference".into())),
    }
}

/// Index of an opcode's bucket in [`OPCODE_CLASSES`] (telemetry only).
fn op_class(op: u16) -> usize {
    match op {
        opcode::MOVE => 1,
        opcode::ADD..=opcode::NE => 5,
        opcode::FIELD_GET..=opcode::STATIC_SET => 2,
        opcode::ALOAD..=opcode::ALEN => 3,
        opcode::JUMP..=opcode::BR_TRUE => 6,
        _ => 7,
    }
}

/// Executes one encoded reaction against the shared machine state. One
/// retired op charges one meter step, so native cost is deterministic
/// like the other engines' (and smaller: folded ops were never emitted).
#[allow(clippy::too_many_arguments)]
fn run_slots(
    code: &SlotCode,
    frame: &mut [RtValue],
    heap: &mut Heap,
    statics: &mut [RtValue],
    io: &mut Io,
    meter: &mut CostMeter,
    track: bool,
    scratch: &mut [u64; OPCODE_CLASSES.len()],
) -> Result<(), RuntimeError> {
    let slots = &code.slots[..];
    let mut pc = 0usize;
    while pc < slots.len() {
        meter.charge()?;
        let s = slots[pc];
        if track {
            scratch[op_class(s.op)] += 1;
        }
        pc += 1;
        match s.op {
            opcode::MOVE => frame[s.a as usize] = frame[s.b as usize],
            opcode::ADD => {
                let (x, y) = (int_at(frame, s.b)?, int_at(frame, s.c)?);
                frame[s.a as usize] =
                    RtValue::Int(x.checked_add(y).ok_or(RuntimeError::Overflow)?);
            }
            opcode::SUB => {
                let (x, y) = (int_at(frame, s.b)?, int_at(frame, s.c)?);
                frame[s.a as usize] =
                    RtValue::Int(x.checked_sub(y).ok_or(RuntimeError::Overflow)?);
            }
            opcode::MUL => {
                let (x, y) = (int_at(frame, s.b)?, int_at(frame, s.c)?);
                frame[s.a as usize] =
                    RtValue::Int(x.checked_mul(y).ok_or(RuntimeError::Overflow)?);
            }
            opcode::DIV => {
                let (x, y) = (int_at(frame, s.b)?, int_at(frame, s.c)?);
                if y == 0 {
                    return Err(RuntimeError::DivisionByZero);
                }
                frame[s.a as usize] =
                    RtValue::Int(x.checked_div(y).ok_or(RuntimeError::Overflow)?);
            }
            opcode::REM => {
                let (x, y) = (int_at(frame, s.b)?, int_at(frame, s.c)?);
                if y == 0 {
                    return Err(RuntimeError::DivisionByZero);
                }
                frame[s.a as usize] =
                    RtValue::Int(x.checked_rem(y).ok_or(RuntimeError::Overflow)?);
            }
            opcode::NEG => {
                let x = int_at(frame, s.b)?;
                frame[s.a as usize] =
                    RtValue::Int(x.checked_neg().ok_or(RuntimeError::Overflow)?);
            }
            opcode::NOT => {
                let x = bool_at(frame, s.b)?;
                frame[s.a as usize] = RtValue::Bool(!x);
            }
            opcode::LT => {
                frame[s.a as usize] = RtValue::Bool(int_at(frame, s.b)? < int_at(frame, s.c)?);
            }
            opcode::LE => {
                frame[s.a as usize] = RtValue::Bool(int_at(frame, s.b)? <= int_at(frame, s.c)?);
            }
            opcode::GT => {
                frame[s.a as usize] = RtValue::Bool(int_at(frame, s.b)? > int_at(frame, s.c)?);
            }
            opcode::GE => {
                frame[s.a as usize] = RtValue::Bool(int_at(frame, s.b)? >= int_at(frame, s.c)?);
            }
            opcode::EQ => {
                frame[s.a as usize] =
                    RtValue::Bool(frame[s.b as usize] == frame[s.c as usize]);
            }
            opcode::NE => {
                frame[s.a as usize] =
                    RtValue::Bool(frame[s.b as usize] != frame[s.c as usize]);
            }
            opcode::FIELD_GET => {
                frame[s.a as usize] = heap.field_get(ObjRef(s.b as usize), s.c as usize)?;
            }
            opcode::FIELD_SET => {
                let v = frame[s.c as usize];
                heap.field_set(ObjRef(s.a as usize), s.b as usize, v)?;
            }
            opcode::STATIC_GET => frame[s.a as usize] = statics[s.b as usize],
            opcode::STATIC_SET => statics[s.a as usize] = frame[s.b as usize],
            opcode::ALOAD => {
                let a = ref_at(frame, s.b)?;
                let i = int_at(frame, s.c)?;
                frame[s.a as usize] = heap.array_get(a, i)?;
            }
            opcode::ASTORE => {
                let a = ref_at(frame, s.a)?;
                let i = int_at(frame, s.b)?;
                let v = frame[s.c as usize];
                heap.array_set(a, i, v)?;
            }
            opcode::ALEN => {
                let a = ref_at(frame, s.b)?;
                frame[s.a as usize] = RtValue::Int(heap.array_len(a)? as i64);
            }
            opcode::READ => {
                let p = frame[s.b as usize]
                    .as_int()
                    .ok_or_else(|| RuntimeError::Internal("port".into()))?;
                frame[s.a as usize] = RtValue::Int(io.read(p)?);
            }
            opcode::READ_VEC => {
                let p = frame[s.b as usize]
                    .as_int()
                    .ok_or_else(|| RuntimeError::Internal("port".into()))?;
                let items: Vec<RtValue> =
                    io.read_vec(p)?.iter().map(|&v| RtValue::Int(v)).collect();
                frame[s.a as usize] = RtValue::Ref(heap.alloc_env_array(items));
            }
            opcode::WRITE => {
                let p = frame[s.a as usize]
                    .as_int()
                    .ok_or_else(|| RuntimeError::Internal("port".into()))?;
                let v = frame[s.b as usize]
                    .as_int()
                    .ok_or_else(|| RuntimeError::Internal("value".into()))?;
                io.write(p, v)?;
            }
            opcode::WRITE_VEC => {
                let p = frame[s.a as usize]
                    .as_int()
                    .ok_or_else(|| RuntimeError::Internal("port".into()))?;
                let a = match frame[s.b as usize] {
                    RtValue::Ref(r) => r,
                    RtValue::Null => return Err(RuntimeError::NullPointer),
                    _ => return Err(RuntimeError::Internal("writeVec arg".into())),
                };
                let len = heap.array_len(a)?;
                let mut items = Vec::with_capacity(len);
                for i in 0..len {
                    items.push(
                        heap.array_get(a, i as i64)?
                            .as_int()
                            .ok_or_else(|| RuntimeError::Internal("non-int array".into()))?,
                    );
                }
                io.write_vec(p, items)?;
            }
            opcode::JUMP => pc = s.a as usize,
            opcode::BR_FALSE => {
                if !bool_at(frame, s.a)? {
                    pc = s.b as usize;
                }
            }
            opcode::BR_TRUE => {
                if bool_at(frame, s.a)? {
                    pc = s.b as usize;
                }
            }
            opcode::FAIL => return Err(code.fails[s.a as usize].clone()),
            other => {
                return Err(RuntimeError::Internal(format!("bad opcode {other}")));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Interpreter;

    fn engines(src: &str, main: &str) -> (Interpreter, CompiledVm, NativeVm) {
        let program = jtlang::parse(src).unwrap();
        (
            Interpreter::new(program.clone(), main).unwrap(),
            CompiledVm::new(program.clone(), main).unwrap(),
            NativeVm::new(program, main).unwrap(),
        )
    }

    fn native(src: &str, main: &str) -> NativeVm {
        let mut vm = NativeVm::new(jtlang::parse(src).unwrap(), main).unwrap();
        vm.initialize(&[]).unwrap();
        vm
    }

    #[test]
    fn corpus_matches_other_engines_three_ways() {
        for (src, main, inputs) in [
            (jtlang::corpus::COUNTER, "Counter", (0..12).collect::<Vec<i64>>()),
            (jtlang::corpus::FIR_FILTER, "Fir", (0..20).map(|k| k * 3 % 17).collect()),
            (jtlang::corpus::TRAFFIC_LIGHT, "TrafficLight", (0..25).map(|t| i64::from(t % 5 != 0)).collect()),
        ] {
            let (mut a, mut b, mut c) = engines(src, main);
            let init_args = if main == "Counter" { vec![RtValue::Int(7)] } else { vec![] };
            a.initialize(&init_args).unwrap();
            b.initialize(&init_args).unwrap();
            c.initialize(&init_args).unwrap();
            assert!(c.reject_reason().is_none(), "{main} should lower natively");
            for k in inputs {
                let want = a.react(&[PortDatum::Int(k)]).unwrap();
                assert_eq!(want, b.react(&[PortDatum::Int(k)]).unwrap(), "{main} vm k={k}");
                assert_eq!(want, c.react(&[PortDatum::Int(k)]).unwrap(), "{main} native k={k}");
                assert_eq!(b.last_cost().heap, c.last_cost().heap, "{main} heap stats k={k}");
            }
        }
    }

    #[test]
    fn dynamic_forward_branches_fork_and_merge() {
        // Data-dependent if/else, &&/|| short-circuit joins, and a clamp
        // chain — the shapes the restricted JPEG kernel is made of.
        let src = "class T extends ASR {
            T() {}
            public void run() {
                int v = read(0);
                int w = read(1);
                int sx = 3;
                if (sx >= w) { sx = w - 1; }
                int acc = 0;
                for (int i = 0; i < 4; i++) {
                    if (i * 2 < w && v > 0) { acc += i; } else { acc -= v; }
                }
                if (acc < 0) { acc = 0; }
                if (acc > 255) { acc = 255; }
                boolean odd = v % 2 == 1 || w > 9;
                if (odd) { write(0, acc + sx); } else { write(0, acc - sx); }
            }
        }";
        let (mut a, mut b, mut c) = engines(src, "T");
        a.initialize(&[]).unwrap();
        b.initialize(&[]).unwrap();
        c.initialize(&[]).unwrap();
        assert!(c.reject_reason().is_none());
        for v in -3..6 {
            for w in 0..8 {
                let input = [PortDatum::Int(v), PortDatum::Int(w)];
                let want = a.react(&input).unwrap();
                assert_eq!(want, b.react(&input).unwrap(), "vm v={v} w={w}");
                assert_eq!(want, c.react(&input).unwrap(), "native v={v} w={w}");
            }
        }
    }

    #[test]
    fn constant_loops_fully_unroll() {
        // A constant-bounded double loop over a field array: every index
        // folds, so the lowered code has no branch back-edges at all.
        let src = "class U extends ASR {
            private int[] buf;
            U() { buf = new int[16]; }
            public void run() {
                for (int i = 0; i < 4; i++) {
                    for (int j = 0; j < 4; j++) { buf[i * 4 + j] = i + j; }
                }
                int sum = 0;
                for (int k = 0; k < 16; k++) { sum += buf[k]; }
                write(0, sum);
            }
        }";
        let mut vm = native(src, "U");
        let code = vm.native_code().unwrap();
        // All loop control folded away: no branches remain except the
        // frame-end jumps (which target the next op).
        for (i, s) in code.slots.iter().enumerate() {
            match s.op {
                opcode::BR_FALSE | opcode::BR_TRUE => {
                    panic!("unexpected runtime branch at op {i}: {s:?}")
                }
                opcode::JUMP => assert_eq!(s.a as usize, i + 1, "non-trivial jump"),
                _ => {}
            }
        }
        assert_eq!(vm.react(&[]).unwrap()[0], Some(PortDatum::Int(48)));
        // Steps shrink: the VM runs hundreds of instructions here.
        let mut ref_vm = CompiledVm::new(
            jtlang::parse(src).unwrap(), "U").unwrap();
        ref_vm.initialize(&[]).unwrap();
        ref_vm.react(&[]).unwrap();
        assert!(vm.last_cost().steps * 2 < ref_vm.last_cost().steps,
            "native {} vs vm {}", vm.last_cost().steps, ref_vm.last_cost().steps);
    }

    #[test]
    fn runtime_errors_match_the_stack_vm() {
        let src = "class A extends ASR {
                private int[] buf;
                A() { buf = new int[2]; }
                public void run() { write(0, buf[read(0)] / read(1)); }
            }";
        let (_, mut b, mut c) = engines(src, "A");
        b.initialize(&[]).unwrap();
        c.initialize(&[]).unwrap();
        assert!(c.reject_reason().is_none());
        for input in [
            [PortDatum::Int(9), PortDatum::Int(1)],
            [PortDatum::Int(0), PortDatum::Int(0)],
            [PortDatum::Int(-1), PortDatum::Int(2)],
        ] {
            assert_eq!(b.react(&input).unwrap_err(), c.react(&input).unwrap_err());
        }
        // After an error the engines keep agreeing.
        assert_eq!(
            b.react(&[PortDatum::Int(1), PortDatum::Int(2)]).unwrap(),
            c.react(&[PortDatum::Int(1), PortDatum::Int(2)]).unwrap()
        );
    }

    #[test]
    fn folded_errors_fire_only_on_their_path() {
        // The division by zero folds at lowering time but sits behind a
        // data-dependent guard: it must only fire when the guard is hit.
        let src = "class D extends ASR {
            D() {}
            public void run() {
                int x = read(0);
                if (x > 5) { write(0, 1 / 0); } else { write(0, x); }
            }
        }";
        let mut vm = native(src, "D");
        assert_eq!(vm.react(&[PortDatum::Int(3)]).unwrap()[0], Some(PortDatum::Int(3)));
        assert_eq!(
            vm.react(&[PortDatum::Int(9)]).unwrap_err(),
            RuntimeError::DivisionByZero
        );
    }

    #[test]
    fn vec_ports_and_freeze_work_natively() {
        let src = "class Scale extends ASR {
                Scale() {}
                public void run() {
                    int[] v = readVec(0);
                    for (int i = 0; i < v.length; i++) { v[i] = v[i] + 1; }
                    writeVec(0, v);
                }
            }";
        let mut vm = NativeVm::new(jtlang::parse(src).unwrap(), "Scale").unwrap();
        vm.initialize(&[]).unwrap();
        vm.freeze_heap();
        // v.length is dynamic, so this loop cannot unroll.
        assert_eq!(vm.reject_reason(), Some(&Reject::DynamicLoop));
        assert!(matches!(
            vm.react(&[PortDatum::Vec(vec![1, 2])]).unwrap_err(),
            RuntimeError::Unsupported(_)
        ));
    }

    #[test]
    fn rejects_outside_the_compilable_subset() {
        // Allocation in react (violates R1).
        let vm = native(
            "class A extends ASR { A() {} public void run() { int[] t = new int[4]; write(0, t[0]); } }",
            "A",
        );
        assert_eq!(vm.reject_reason(), Some(&Reject::AllocatesInReact));

        // Data-dependent while loop (no static bound, violates R2).
        let vm = native(
            "class B extends ASR { B() {} public void run() { int n = read(0); int i = 0; while (i < n) { i++; } write(0, i); } }",
            "B",
        );
        assert_eq!(vm.reject_reason(), Some(&Reject::DynamicLoop));

        // Unbounded recursion hits the shared call-depth budget as a
        // lowered Fail, matching the other engines' runtime error.
        let mut vm = native(
            "class C extends ASR { C() {} int f(int n) { return f(n + 1); } public void run() { write(0, f(0)); } }",
            "C",
        );
        assert!(vm.reject_reason().is_none());
        assert_eq!(
            vm.react(&[]).unwrap_err(),
            RuntimeError::StackOverflow { limit: crate::cost::MAX_CALL_DEPTH }
        );
    }

    #[test]
    fn bounded_recursion_inlines_and_matches() {
        let src = "class R extends ASR {
            R() {}
            int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
            public void run() { write(0, fib(10)); }
        }";
        let (mut a, mut b, mut c) = engines(src, "R");
        a.initialize(&[]).unwrap();
        b.initialize(&[]).unwrap();
        c.initialize(&[]).unwrap();
        assert!(c.reject_reason().is_none());
        let want = a.react(&[]).unwrap();
        assert_eq!(want, b.react(&[]).unwrap());
        assert_eq!(want, c.react(&[]).unwrap());
        assert_eq!(want[0], Some(PortDatum::Int(55)));
    }

    #[test]
    fn statics_stay_live_across_reactions() {
        // `total` lives on the superclass, so the accesses resolve
        // through the static-slot fallback — the lowerer must take the
        // same path the stack VM takes at runtime.
        let src = "class Base extends ASR { static int total = 0; Base() {} }
            class M extends Base {
                M() {}
                public void run() { total = total + read(0); write(0, total); }
            }";
        let (mut a, mut b, mut c) = engines(src, "M");
        a.initialize(&[]).unwrap();
        b.initialize(&[]).unwrap();
        c.initialize(&[]).unwrap();
        assert!(c.reject_reason().is_none());
        for k in [5, 7, -2] {
            let want = a.react(&[PortDatum::Int(k)]).unwrap();
            assert_eq!(want, b.react(&[PortDatum::Int(k)]).unwrap());
            assert_eq!(want, c.react(&[PortDatum::Int(k)]).unwrap());
        }
    }

    #[test]
    fn program_size_and_telemetry() {
        let program = jtlang::parse(jtlang::corpus::FIR_FILTER).unwrap();
        let registry = jtobs::Registry::new();
        let mut vm = NativeVm::new(program, "Fir").unwrap();
        vm.attach_registry(&registry);
        vm.initialize(&[]).unwrap();
        assert!(vm.program_size() > 0);
        assert_eq!(
            vm.program_size(),
            vm.native_code().unwrap().encoded_size()
        );
        for k in 0..3 {
            vm.react(&[PortDatum::Int(k)]).unwrap();
        }
        if jtobs::ENABLED {
            assert_eq!(registry.counter_value("jtvm.native.reactions"), 3);
            assert!(registry.counter_value("jtvm.native.ops") > 0);
            // Constants are folded and allocation is impossible: those
            // buckets stay empty.
            assert_eq!(registry.counter_value("jtvm.native.ops.const"), 0);
            assert_eq!(registry.counter_value("jtvm.native.ops.alloc"), 0);
            assert_eq!(registry.histogram_stats("jtvm.native.react").unwrap().count, 3);
        }
        vm.detach_registry();
        vm.react(&[PortDatum::Int(0)]).unwrap();
    }

    #[test]
    fn react_before_initialize_is_an_internal_error() {
        let mut vm = NativeVm::new(
            jtlang::parse(jtlang::corpus::FIR_FILTER).unwrap(),
            "Fir",
        )
        .unwrap();
        assert!(matches!(
            vm.react(&[]).unwrap_err(),
            RuntimeError::Internal(_)
        ));
    }
}
