//! The JTBC virtual machine (the "Café JIT" analog of Table 1).
//!
//! [`CompiledVm`] compiles the whole program once at construction
//! ([`crate::compile`]) and then executes a tight dispatch loop over
//! [`Instr`]s — the classic reason a bytecode tier beats a tree walker:
//! no AST pointer chasing, locals in a flat slot array, jumps instead of
//! recursive statement dispatch. The `ablation_engines` bench quantifies
//! the gap.

use crate::bytecode::{ElemKind, FunId, Instr};
use crate::compile::{compile, BuiltinOp, Module};
use crate::cost::{CostMeter, MAX_CALL_DEPTH};
use crate::engine::{BuildEngineError, Engine, PhaseCost};
use crate::error::RuntimeError;
use crate::heap::Heap;
use crate::io::{Io, PortDatum};
use crate::layout::ClassId;
use crate::obs::{opcode_class, EngineObs, OPCODE_CLASSES};
use crate::value::{ObjRef, RtValue};
use std::sync::Arc;

/// A bytecode-executing engine bound to one main-class instance.
///
/// ```
/// use jtvm::engine::Engine;
/// use jtvm::io::PortDatum;
/// use jtvm::vm::CompiledVm;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let program = jtlang::parse(jtlang::corpus::FIR_FILTER)?;
/// let mut vm = CompiledVm::new(program, "Fir")?;
/// vm.initialize(&[])?;
/// let out = vm.react(&[PortDatum::Int(8)])?;
/// assert_eq!(out[0], Some(PortDatum::Int(1)));
/// # Ok(())
/// # }
/// ```
pub struct CompiledVm {
    // Crate-visible so the native tier ([`crate::native::NativeVm`]) can
    // run its lowered code against the same heap, statics, meter, and
    // port environment that this VM's initialization phase populated.
    pub(crate) module: Arc<Module>,
    pub(crate) heap: Heap,
    pub(crate) meter: CostMeter,
    pub(crate) statics: Vec<RtValue>,
    pub(crate) this_ref: Option<ObjRef>,
    main_class: ClassId,
    pub(crate) io: Io,
    last_cost: PhaseCost,
    run_name: Option<u32>,
    obs: Option<EngineObs>,
    /// Per-opcode-class scratch, flushed to `obs` once per phase.
    class_scratch: [u64; OPCODE_CLASSES.len()],
    /// Current call nesting, bounded by [`MAX_CALL_DEPTH`].
    call_depth: usize,
    /// Deepest call nesting seen during the current reaction.
    depth_hwm: usize,
    /// Metered-step deadline for the watchdog; `None` disarms it.
    step_bound: Option<u64>,
}

impl CompiledVm {
    /// Compiles `program` and prepares an instance of `main_class`.
    /// Static initializers run here.
    ///
    /// # Errors
    ///
    /// [`BuildEngineError`] on front-end or compilation failure.
    pub fn new(program: jtlang::Program, main_class: &str) -> Result<Self, BuildEngineError> {
        let table = jtlang::resolve::resolve(&program)
            .map_err(|e| BuildEngineError::Frontend(e.to_string()))?;
        jtlang::types::check(&program, &table)
            .map_err(|e| BuildEngineError::Frontend(e.to_string()))?;
        let module = compile(&program, &table)?;
        let Some(main_id) = module.layouts.id(main_class) else {
            return Err(BuildEngineError::NoSuchClass(main_class.to_string()));
        };
        let statics = module
            .statics
            .iter()
            .map(|(_, _, ty)| crate::interp::default_value(ty))
            .collect();
        let run_name = module.name_id("run");
        let mut vm = CompiledVm {
            module: Arc::new(module),
            heap: Heap::new(),
            meter: CostMeter::new(),
            statics,
            this_ref: None,
            main_class: main_id,
            io: Io::default(),
            last_cost: PhaseCost::default(),
            run_name,
            obs: None,
            class_scratch: [0; OPCODE_CLASSES.len()],
            call_depth: 0,
            depth_hwm: 0,
            step_bound: None,
        };
        vm.init_statics()
            .map_err(|e| BuildEngineError::Frontend(format!("static init failed: {e}")))?;
        Ok(vm)
    }

    /// Replaces the step budget.
    pub fn set_step_limit(&mut self, limit: u64) {
        self.meter = CostMeter::with_limit(limit);
    }

    /// Arms (or with `None`, disarms) the step-deadline watchdog: when
    /// a registry is attached, every reaction whose metered steps
    /// exceed `bound` bumps `jtvm.vm.deadline.overruns` and records a
    /// `deadline_overrun` journal event. The natural bound is the
    /// statically proved WCET from `jtanalysis::bounds`, which uses the
    /// same abstract step unit. Observation only — an overrun never
    /// fails the reaction (unlike [`Self::set_step_limit`]).
    pub fn set_step_bound(&mut self, bound: Option<u64>) {
        self.step_bound = bound;
    }

    /// The shared heap (for inspection).
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// Starts publishing `jtvm.vm.*` metrics (see [`crate::obs`]) into
    /// `registry`. A no-op when the `telemetry` feature is off.
    pub fn attach_registry(&mut self, registry: &jtobs::Registry) {
        if jtobs::ENABLED {
            self.obs = Some(EngineObs::new(
                registry,
                "jtvm.vm",
                "instructions",
                &OPCODE_CLASSES,
            ));
        }
    }

    /// Stops publishing metrics.
    pub fn detach_registry(&mut self) {
        self.obs = None;
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

    /// The compiled module (for size metrics and disassembly).
    pub fn module(&self) -> &Module {
        &self.module
    }

    fn init_statics(&mut self) -> Result<(), RuntimeError> {
        let module = Arc::clone(&self.module);
        for (i, &(slot, fun)) in module.static_init_chunks.iter().enumerate() {
            let owner = module.static_init_owner[i];
            let dummy = self.alloc_raw(owner)?;
            let v = self.run_fun(fun, dummy, &[])?;
            self.statics[slot as usize] = v;
        }
        Ok(())
    }

    fn alloc_raw(&mut self, class: ClassId) -> Result<ObjRef, RuntimeError> {
        let n = self.module.layouts.layout(class).n_slots;
        self.meter.charge_alloc(n as u64)?;
        self.heap.alloc_object(class, n)
    }

    fn construct(&mut self, class: ClassId, args: &[RtValue]) -> Result<ObjRef, RuntimeError> {
        let module = Arc::clone(&self.module);
        let obj = self.alloc_raw(class)?;
        for &fun in &module.field_init_chains[class.index()] {
            self.run_fun(fun, obj, &[])?;
        }
        match module.ctors[class.index()].get(&args.len()) {
            Some(&ctor) => {
                self.run_fun(ctor, obj, args)?;
            }
            None if args.is_empty() => {} // implicit default constructor
            None => {
                return Err(RuntimeError::Internal(format!(
                    "no {}-ary constructor for class #{}",
                    args.len(),
                    class.index()
                )))
            }
        }
        Ok(obj)
    }

    fn field_slot(&self, class: ClassId, name: u32) -> Option<usize> {
        self.module.field_slots[class.index()].get(&name).copied()
    }

    /// Static slot for `name` visible from `class`, for the
    /// instance-access fallback (`obj.staticField`).
    fn static_slot_fallback(&self, class: ClassId, name: u32) -> Option<usize> {
        let name = &self.module.names[name as usize];
        let mut cur = Some(class);
        while let Some(c) = cur {
            let cname = &self.module.layouts.layout(c).name;
            if let Some(i) = self
                .module
                .statics
                .iter()
                .position(|(owner, field, _)| owner == cname && field == name)
            {
                return Some(i);
            }
            cur = self.module.layouts.layout(c).superclass;
        }
        None
    }

    fn run_fun(&mut self, fun: FunId, this: ObjRef, args: &[RtValue]) -> Result<RtValue, RuntimeError> {
        // `run_fun` recurses natively on Call instructions, so runaway
        // recursion is cut off at the same depth budget as the
        // interpreter's, surfacing as an error instead of a real stack
        // overflow.
        if self.call_depth >= MAX_CALL_DEPTH {
            return Err(RuntimeError::StackOverflow { limit: MAX_CALL_DEPTH });
        }
        self.call_depth += 1;
        self.depth_hwm = self.depth_hwm.max(self.call_depth);
        let result = self.run_fun_inner(fun, this, args);
        self.call_depth -= 1;
        result
    }

    fn run_fun_inner(
        &mut self,
        fun: FunId,
        this: ObjRef,
        args: &[RtValue],
    ) -> Result<RtValue, RuntimeError> {
        let module = Arc::clone(&self.module);
        let chunk = &module.chunks[fun];
        let mut locals = vec![RtValue::Null; chunk.n_locals as usize];
        locals[..args.len()].copy_from_slice(args);
        let mut stack: Vec<RtValue> = Vec::with_capacity(16);
        let mut pc: usize = 0;

        macro_rules! pop {
            () => {
                stack
                    .pop()
                    .ok_or_else(|| RuntimeError::Internal("stack underflow".into()))?
            };
        }
        macro_rules! pop_int {
            () => {
                pop!()
                    .as_int()
                    .ok_or_else(|| RuntimeError::Internal("expected int".into()))?
            };
        }
        macro_rules! pop_bool {
            () => {
                pop!()
                    .as_bool()
                    .ok_or_else(|| RuntimeError::Internal("expected boolean".into()))?
            };
        }
        macro_rules! pop_ref {
            () => {
                match pop!() {
                    RtValue::Ref(r) => r,
                    RtValue::Null => return Err(RuntimeError::NullPointer),
                    _ => return Err(RuntimeError::Internal("expected reference".into())),
                }
            };
        }

        loop {
            self.meter.charge()?;
            let instr = chunk.code[pc];
            pc += 1;
            if jtobs::ENABLED && self.obs.is_some() {
                self.class_scratch[opcode_class(instr)] += 1;
            }
            match instr {
                Instr::ConstInt(v) => stack.push(RtValue::Int(v)),
                Instr::ConstBool(b) => stack.push(RtValue::Bool(b)),
                Instr::ConstNull => stack.push(RtValue::Null),
                Instr::Load(slot) => stack.push(locals[slot as usize]),
                Instr::Store(slot) => locals[slot as usize] = pop!(),
                Instr::LoadThis => stack.push(RtValue::Ref(this)),
                Instr::GetField(name) => {
                    let obj = pop_ref!();
                    let class = self.heap.class_of(obj)?;
                    match self.field_slot(class, name) {
                        Some(slot) => stack.push(self.heap.field_get(obj, slot)?),
                        None => match self.static_slot_fallback(class, name) {
                            Some(s) => stack.push(self.statics[s]),
                            None => {
                                return Err(RuntimeError::Internal(format!(
                                    "no field `{}`",
                                    module.names[name as usize]
                                )))
                            }
                        },
                    }
                }
                Instr::PutField(name) => {
                    let value = pop!();
                    let obj = pop_ref!();
                    let class = self.heap.class_of(obj)?;
                    match self.field_slot(class, name) {
                        Some(slot) => self.heap.field_set(obj, slot, value)?,
                        None => match self.static_slot_fallback(class, name) {
                            Some(s) => self.statics[s] = value,
                            None => {
                                return Err(RuntimeError::Internal(format!(
                                    "no field `{}`",
                                    module.names[name as usize]
                                )))
                            }
                        },
                    }
                }
                Instr::GetStatic(slot) => stack.push(self.statics[slot as usize]),
                Instr::PutStatic(slot) => self.statics[slot as usize] = pop!(),
                Instr::ALoad => {
                    let idx = pop_int!();
                    let arr = pop_ref!();
                    stack.push(self.heap.array_get(arr, idx)?);
                }
                Instr::AStore => {
                    let value = pop!();
                    let idx = pop_int!();
                    let arr = pop_ref!();
                    self.heap.array_set(arr, idx, value)?;
                }
                Instr::ALen => {
                    let arr = pop_ref!();
                    stack.push(RtValue::Int(self.heap.array_len(arr)? as i64));
                }
                Instr::NewArray(kind) => {
                    let len = pop_int!();
                    let fill = match kind {
                        ElemKind::Int => RtValue::Int(0),
                        ElemKind::Bool => RtValue::Bool(false),
                        ElemKind::Ref => RtValue::Null,
                    };
                    self.meter.charge_alloc(len.max(0) as u64)?;
                    stack.push(RtValue::Ref(self.heap.alloc_array(len, fill)?));
                }
                Instr::New { class, argc } => {
                    let at = stack.len() - argc as usize;
                    let args: Vec<RtValue> = stack.split_off(at);
                    let obj = self.construct(ClassId(class as usize), &args)?;
                    stack.push(RtValue::Ref(obj));
                }
                Instr::Add => {
                    let b = pop_int!();
                    let a = pop_int!();
                    stack.push(RtValue::Int(a.checked_add(b).ok_or(RuntimeError::Overflow)?));
                }
                Instr::Sub => {
                    let b = pop_int!();
                    let a = pop_int!();
                    stack.push(RtValue::Int(a.checked_sub(b).ok_or(RuntimeError::Overflow)?));
                }
                Instr::Mul => {
                    let b = pop_int!();
                    let a = pop_int!();
                    stack.push(RtValue::Int(a.checked_mul(b).ok_or(RuntimeError::Overflow)?));
                }
                Instr::Div => {
                    let b = pop_int!();
                    let a = pop_int!();
                    if b == 0 {
                        return Err(RuntimeError::DivisionByZero);
                    }
                    stack.push(RtValue::Int(a.checked_div(b).ok_or(RuntimeError::Overflow)?));
                }
                Instr::Rem => {
                    let b = pop_int!();
                    let a = pop_int!();
                    if b == 0 {
                        return Err(RuntimeError::DivisionByZero);
                    }
                    stack.push(RtValue::Int(a.checked_rem(b).ok_or(RuntimeError::Overflow)?));
                }
                Instr::Neg => {
                    let a = pop_int!();
                    stack.push(RtValue::Int(a.checked_neg().ok_or(RuntimeError::Overflow)?));
                }
                Instr::Not => {
                    let a = pop_bool!();
                    stack.push(RtValue::Bool(!a));
                }
                Instr::Lt => {
                    let b = pop_int!();
                    let a = pop_int!();
                    stack.push(RtValue::Bool(a < b));
                }
                Instr::Le => {
                    let b = pop_int!();
                    let a = pop_int!();
                    stack.push(RtValue::Bool(a <= b));
                }
                Instr::Gt => {
                    let b = pop_int!();
                    let a = pop_int!();
                    stack.push(RtValue::Bool(a > b));
                }
                Instr::Ge => {
                    let b = pop_int!();
                    let a = pop_int!();
                    stack.push(RtValue::Bool(a >= b));
                }
                Instr::EqV => {
                    let b = pop!();
                    let a = pop!();
                    stack.push(RtValue::Bool(a == b));
                }
                Instr::NeV => {
                    let b = pop!();
                    let a = pop!();
                    stack.push(RtValue::Bool(a != b));
                }
                Instr::Jump(t) => pc = t as usize,
                Instr::JumpIfFalse(t) => {
                    if !pop_bool!() {
                        pc = t as usize;
                    }
                }
                Instr::JumpIfTrue(t) => {
                    if pop_bool!() {
                        pc = t as usize;
                    }
                }
                Instr::Call { name, argc } => {
                    let at = stack.len() - argc as usize;
                    let args: Vec<RtValue> = stack.split_off(at);
                    let recv = pop_ref!();
                    let class = self.heap.class_of(recv)?;
                    match module.vtables[class.index()].get(&name) {
                        Some(&callee) => {
                            let result = self.run_fun(callee, recv, &args)?;
                            stack.push(result);
                        }
                        None => {
                            let result = self.call_builtin(name, &args, &module)?;
                            stack.push(result);
                        }
                    }
                }
                Instr::Ret => return Ok(pop!()),
                Instr::RetVoid => return Ok(RtValue::Null),
                Instr::Pop => {
                    pop!();
                }
                Instr::Unsupported(name) => {
                    return Err(RuntimeError::Unsupported(format!(
                        "`{}` (threads and blocking are simulated by the sched crate)",
                        module.names[name as usize]
                    )))
                }
            }
        }
    }

    fn call_builtin(
        &mut self,
        name: u32,
        args: &[RtValue],
        module: &Module,
    ) -> Result<RtValue, RuntimeError> {
        let Some(op) = module.builtins.get(&name) else {
            return Err(RuntimeError::Internal(format!(
                "no method `{}`",
                module.names[name as usize]
            )));
        };
        match op {
            BuiltinOp::Read => {
                let port = args[0].as_int().ok_or(RuntimeError::Internal("port".into()))?;
                Ok(RtValue::Int(self.io.read(port)?))
            }
            BuiltinOp::ReadVec => {
                let port = args[0].as_int().ok_or(RuntimeError::Internal("port".into()))?;
                let items: Vec<RtValue> = self
                    .io
                    .read_vec(port)?
                    .iter()
                    .map(|&v| RtValue::Int(v))
                    .collect();
                Ok(RtValue::Ref(self.heap.alloc_env_array(items)))
            }
            BuiltinOp::Write => {
                let port = args[0].as_int().ok_or(RuntimeError::Internal("port".into()))?;
                let value = args[1].as_int().ok_or(RuntimeError::Internal("value".into()))?;
                self.io.write(port, value)?;
                Ok(RtValue::Null)
            }
            BuiltinOp::WriteVec => {
                let port = args[0].as_int().ok_or(RuntimeError::Internal("port".into()))?;
                let arr = match args[1] {
                    RtValue::Ref(r) => r,
                    RtValue::Null => return Err(RuntimeError::NullPointer),
                    _ => return Err(RuntimeError::Internal("writeVec arg".into())),
                };
                let len = self.heap.array_len(arr)?;
                let mut items = Vec::with_capacity(len);
                for i in 0..len {
                    items.push(
                        self.heap
                            .array_get(arr, i as i64)?
                            .as_int()
                            .ok_or_else(|| RuntimeError::Internal("non-int array".into()))?,
                    );
                }
                self.io.write_vec(port, items)?;
                Ok(RtValue::Null)
            }
            BuiltinOp::Unsupported => Err(RuntimeError::Unsupported(format!(
                "`{}` (threads and blocking are simulated by the sched crate)",
                module.names[name as usize]
            ))),
        }
    }
}

impl Engine for CompiledVm {
    fn name(&self) -> &str {
        "bytecode"
    }

    fn initialize(&mut self, args: &[RtValue]) -> Result<(), RuntimeError> {
        self.meter.reset();
        self.heap.reset_stats();
        let obj = self.construct(self.main_class, args)?;
        self.this_ref = Some(obj);
        self.last_cost = PhaseCost {
            steps: self.meter.steps(),
            heap: self.heap.stats(),
        };
        self.flush_obs(false);
        Ok(())
    }

    fn react_into(
        &mut self,
        inputs: &[PortDatum],
        outputs: &mut Vec<Option<PortDatum>>,
    ) -> Result<(), RuntimeError> {
        let Some(this_ref) = self.this_ref else {
            return Err(RuntimeError::Internal("react before initialize".into()));
        };
        let _span = self.obs.as_ref().map(|o| o.registry.span("jtvm.vm.react"));
        if let Some(obs) = &self.obs {
            obs.react_begin();
        }
        self.depth_hwm = 0;
        self.meter.reset();
        self.heap.reset_stats();
        self.io.restart(inputs);
        let result = (|| {
            let class = self.heap.class_of(this_ref)?;
            let run_name = self
                .run_name
                .ok_or_else(|| RuntimeError::Internal("program declares no run()".into()))?;
            let Some(&fun) = self.module.vtables[class.index()].get(&run_name) else {
                return Err(RuntimeError::Internal("main class has no run()".into()));
            };
            self.run_fun(fun, this_ref, &[])
        })();
        self.io.end();
        self.last_cost = PhaseCost {
            steps: self.meter.steps(),
            heap: self.heap.stats(),
        };
        self.flush_obs(true);
        if let Some(obs) = &self.obs {
            obs.react_end(
                result.as_ref().map(|_| ()),
                &self.last_cost,
                self.depth_hwm,
                self.step_bound,
            );
        }
        result?;
        self.io.outputs().clone_into(outputs);
        Ok(())
    }

    fn last_cost(&self) -> PhaseCost {
        self.last_cost
    }

    fn freeze_heap(&mut self) {
        self.heap.freeze();
    }

    fn program_size(&self) -> usize {
        self.module.encoded_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Interpreter;

    fn vm(src: &str, main: &str) -> CompiledVm {
        CompiledVm::new(jtlang::parse(src).unwrap(), main).unwrap()
    }

    #[test]
    fn counter_matches_interpreter() {
        let program = jtlang::parse(jtlang::corpus::COUNTER).unwrap();
        let mut a = Interpreter::new(program.clone(), "Counter").unwrap();
        let mut b = CompiledVm::new(program, "Counter").unwrap();
        a.initialize(&[RtValue::Int(7)]).unwrap();
        b.initialize(&[RtValue::Int(7)]).unwrap();
        for k in [3, 3, 3, -2, 100] {
            assert_eq!(
                a.react(&[PortDatum::Int(k)]).unwrap(),
                b.react(&[PortDatum::Int(k)]).unwrap(),
                "engines disagree on input {k}"
            );
        }
    }

    #[test]
    fn fir_matches_interpreter() {
        let program = jtlang::parse(jtlang::corpus::FIR_FILTER).unwrap();
        let mut a = Interpreter::new(program.clone(), "Fir").unwrap();
        let mut b = CompiledVm::new(program, "Fir").unwrap();
        a.initialize(&[]).unwrap();
        b.initialize(&[]).unwrap();
        for k in 0..20 {
            assert_eq!(
                a.react(&[PortDatum::Int(k * 3 % 17)]).unwrap(),
                b.react(&[PortDatum::Int(k * 3 % 17)]).unwrap()
            );
        }
    }

    #[test]
    fn traffic_light_matches_interpreter() {
        let program = jtlang::parse(jtlang::corpus::TRAFFIC_LIGHT).unwrap();
        let mut a = Interpreter::new(program.clone(), "TrafficLight").unwrap();
        let mut b = CompiledVm::new(program, "TrafficLight").unwrap();
        a.initialize(&[]).unwrap();
        b.initialize(&[]).unwrap();
        for t in 0..25 {
            let car = i64::from(t % 5 != 0);
            assert_eq!(
                a.react(&[PortDatum::Int(car)]).unwrap(),
                b.react(&[PortDatum::Int(car)]).unwrap()
            );
        }
    }

    #[test]
    fn vm_is_cheaper_per_reaction_than_interpreter() {
        let program = jtlang::parse(jtlang::corpus::FIR_FILTER).unwrap();
        let mut a = Interpreter::new(program.clone(), "Fir").unwrap();
        let mut b = CompiledVm::new(program, "Fir").unwrap();
        a.initialize(&[]).unwrap();
        b.initialize(&[]).unwrap();
        a.react(&[PortDatum::Int(5)]).unwrap();
        b.react(&[PortDatum::Int(5)]).unwrap();
        // Steps are abstract and engine-specific; the structural claim is
        // that both count > 0 and both report identical allocation
        // behaviour.
        assert!(a.last_cost().steps > 0);
        assert!(b.last_cost().steps > 0);
        assert_eq!(a.last_cost().heap, b.last_cost().heap);
    }

    #[test]
    fn control_flow_torture() {
        let src = "class T extends ASR {
            T() {}
            public void run() {
                int n = read(0);
                int acc = 0;
                for (int i = 0; i < n; i++) {
                    if (i % 2 == 0) { acc += i; } else { acc -= 1; }
                    if (i == 7) { break; }
                    if (i % 3 == 0) { continue; }
                    acc = acc * 1;
                }
                int j = 0;
                while (j < 3) { acc += 10; j++; }
                do { acc += 100; } while (false);
                boolean flag = n > 2 && acc > 0 || !(n == 5);
                if (flag) { write(0, acc); } else { write(0, -acc); }
            }
        }";
        let program = jtlang::parse(src).unwrap();
        let mut a = Interpreter::new(program.clone(), "T").unwrap();
        let mut b = CompiledVm::new(program, "T").unwrap();
        a.initialize(&[]).unwrap();
        b.initialize(&[]).unwrap();
        for n in 0..15 {
            assert_eq!(
                a.react(&[PortDatum::Int(n)]).unwrap(),
                b.react(&[PortDatum::Int(n)]).unwrap(),
                "engines disagree for n={n}"
            );
        }
    }

    #[test]
    fn virtual_dispatch_matches_interpreter() {
        let src = "class Base { int f() { return 1; } }
             class Derived extends Base { int f() { return 2; } }
             class M extends ASR {
                 M() {}
                 public void run() {
                     Base b = new Derived();
                     Base c = new Base();
                     write(0, b.f() * 10 + c.f());
                 }
             }";
        let mut v = vm(src, "M");
        v.initialize(&[]).unwrap();
        assert_eq!(v.react(&[]).unwrap()[0], Some(PortDatum::Int(21)));
    }

    #[test]
    fn statics_and_field_inits_work() {
        let src = "class G { static int k = 6 * 7; }
             class M extends ASR {
                 private int seeded = 8;
                 M() { seeded = seeded + 1; }
                 public void run() { write(0, seeded); }
             }";
        let mut v = vm(src, "M");
        v.initialize(&[]).unwrap();
        assert_eq!(v.react(&[]).unwrap()[0], Some(PortDatum::Int(9)));
    }

    #[test]
    fn runtime_errors_match_interpreter_semantics() {
        let src = "class A extends ASR {
                 private int[] buf;
                 A() { buf = new int[2]; }
                 public void run() { write(0, buf[read(0)] / read(1)); }
             }";
        let mut v = vm(src, "A");
        v.initialize(&[]).unwrap();
        assert!(matches!(
            v.react(&[PortDatum::Int(9), PortDatum::Int(1)]).unwrap_err(),
            RuntimeError::IndexOutOfBounds { index: 9, len: 2 }
        ));
        assert_eq!(
            v.react(&[PortDatum::Int(0), PortDatum::Int(0)]).unwrap_err(),
            RuntimeError::DivisionByZero
        );
    }

    #[test]
    fn vec_ports_and_freeze() {
        let src = "class Scale extends ASR {
                 Scale() {}
                 public void run() {
                     int[] v = readVec(0);
                     for (int i = 0; i < v.length; i++) { v[i] = v[i] + 1; }
                     writeVec(0, v);
                 }
             }";
        let mut v = vm(src, "Scale");
        v.initialize(&[]).unwrap();
        v.freeze_heap();
        // readVec allocates an env-owned array: still fine under freeze.
        let out = v.react(&[PortDatum::Vec(vec![1, 2])]).unwrap();
        assert_eq!(out[0], Some(PortDatum::Vec(vec![2, 3])));
    }

    #[test]
    fn step_limit_and_unsupported() {
        let mut v = vm(
            "class A extends ASR { A() {} public void run() { while (true) { int x = 0; } } }",
            "A",
        );
        v.set_step_limit(5_000);
        v.initialize(&[]).unwrap();
        assert!(matches!(
            v.react(&[]).unwrap_err(),
            RuntimeError::StepLimitExceeded { .. }
        ));

        let mut v = vm(
            "class W extends Thread { public void run() {} }
             class M extends ASR { M() {} public void run() { W w = new W(); w.start(); } }",
            "M",
        );
        v.initialize(&[]).unwrap();
        assert!(matches!(
            v.react(&[]).unwrap_err(),
            RuntimeError::Unsupported(_)
        ));
    }

    #[test]
    fn telemetry_counts_instructions_and_heap() {
        let program = jtlang::parse(jtlang::corpus::FIR_FILTER).unwrap();
        let registry = jtobs::Registry::new();

        let mut v = CompiledVm::new(program.clone(), "Fir").unwrap();
        v.attach_registry(&registry);
        v.initialize(&[]).unwrap();
        for k in 0..4 {
            v.react(&[PortDatum::Int(k)]).unwrap();
        }

        let mut i = Interpreter::new(program, "Fir").unwrap();
        i.attach_registry(&registry);
        i.initialize(&[]).unwrap();
        i.react(&[PortDatum::Int(1)]).unwrap();

        if jtobs::ENABLED {
            assert_eq!(registry.counter_value("jtvm.vm.reactions"), 4);
            assert!(registry.counter_value("jtvm.vm.instructions") > 0);
            // The per-class buckets partition the total.
            let by_class: u64 = OPCODE_CLASSES
                .iter()
                .map(|c| registry.counter_value(&format!("jtvm.vm.instructions.{c}")))
                .sum();
            assert_eq!(by_class, registry.counter_value("jtvm.vm.instructions"));
            assert!(registry.counter_value("jtvm.vm.heap.words") > 0);
            assert_eq!(registry.counter_value("jtvm.interp.reactions"), 1);
            assert!(registry.counter_value("jtvm.interp.statements") > 0);
            // One react span per reaction, from each engine.
            let spans = registry.histogram_stats("jtvm.vm.react").unwrap();
            assert_eq!(spans.count, 4);
            assert_eq!(registry.histogram_stats("jtvm.interp.react").unwrap().count, 1);
        } else {
            assert_eq!(registry.counter_value("jtvm.vm.reactions"), 0);
        }
    }

    #[test]
    fn program_size_reports_bytecode_bytes() {
        let v = vm(jtlang::corpus::FIR_FILTER, "Fir");
        assert!(v.program_size() > 50);
        assert!(v.module().encoded_size() == v.program_size());
    }

    #[test]
    fn compound_assignment_on_fields_and_arrays() {
        let src = "class A extends ASR {
                 private int total;
                 private int[] buf;
                 A() { total = 0; buf = new int[3]; }
                 public void run() {
                     total += read(0);
                     buf[1] += 5;
                     buf[1] *= 2;
                     total -= 1;
                     write(0, total);
                     write(1, buf[1]);
                 }
             }";
        let program = jtlang::parse(src).unwrap();
        let mut a = Interpreter::new(program.clone(), "A").unwrap();
        let mut b = CompiledVm::new(program, "A").unwrap();
        a.initialize(&[]).unwrap();
        b.initialize(&[]).unwrap();
        for k in [4, 4] {
            assert_eq!(
                a.react(&[PortDatum::Int(k)]).unwrap(),
                b.react(&[PortDatum::Int(k)]).unwrap()
            );
        }
    }
}
