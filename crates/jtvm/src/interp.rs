//! The tree-walking interpreter (the "jdk" analog of Table 1).

use crate::cost::{CostMeter, MAX_CALL_DEPTH};
use crate::engine::{BuildEngineError, Engine, PhaseCost};
use crate::error::RuntimeError;
use crate::heap::Heap;
use crate::io::{Io, PortDatum};
use crate::layout::Layouts;
use crate::obs::EngineObs;
use crate::value::{ObjRef, RtValue};
use jtlang::ast::*;
use jtlang::resolve::ClassTable;
use std::collections::HashMap;

/// A tree-walking interpreter bound to one main-class instance.
///
/// See the crate-level example.
pub struct Interpreter {
    program: Program,
    table: ClassTable,
    layouts: Layouts,
    heap: Heap,
    meter: CostMeter,
    main_class: String,
    this_ref: Option<ObjRef>,
    io: Io,
    last_cost: PhaseCost,
    statics: HashMap<(String, String), RtValue>,
    source_bytes: usize,
    obs: Option<EngineObs>,
    /// Statements executed this phase, flushed to `obs` per reaction.
    stmt_scratch: u64,
    /// Current method/constructor nesting, bounded by
    /// [`MAX_CALL_DEPTH`] to turn runaway recursion into an error.
    call_depth: usize,
    /// Deepest `call_depth` seen this reaction (journaled in
    /// `vm_react_end`).
    depth_hwm: usize,
    /// Proved WCET step bound for the deadline watchdog; `None` means
    /// disarmed. See [`Self::set_step_bound`].
    step_bound: Option<u64>,
}

/// Statement outcome: how control continues.
enum Flow {
    Normal,
    Break,
    Continue,
    Return(RtValue),
}

/// One activation record.
struct Frame {
    scopes: Vec<HashMap<String, RtValue>>,
    this_ref: ObjRef,
    /// Class owning the executing method (for static-field resolution).
    class: String,
}

impl Frame {
    fn new(this_ref: ObjRef, class: &str) -> Self {
        Frame {
            scopes: vec![HashMap::new()],
            this_ref,
            class: class.to_string(),
        }
    }

    fn lookup(&self, name: &str) -> Option<RtValue> {
        self.scopes.iter().rev().find_map(|s| s.get(name)).copied()
    }

    fn assign_local(&mut self, name: &str, value: RtValue) -> bool {
        for scope in self.scopes.iter_mut().rev() {
            if let Some(slot) = scope.get_mut(name) {
                *slot = value;
                return true;
            }
        }
        false
    }

    fn declare(&mut self, name: &str, value: RtValue) {
        self.scopes
            .last_mut()
            .expect("frame has a scope")
            .insert(name.to_string(), value);
    }
}

impl Interpreter {
    /// Builds an interpreter for `program` whose main object will be an
    /// instance of `main_class`. Static fields are initialized here.
    ///
    /// # Errors
    ///
    /// [`BuildEngineError`] on front-end failure or a missing main class.
    pub fn new(program: Program, main_class: &str) -> Result<Self, BuildEngineError> {
        let table =
            jtlang::resolve::resolve(&program).map_err(|e| BuildEngineError::Frontend(e.to_string()))?;
        jtlang::types::check(&program, &table)
            .map_err(|e| BuildEngineError::Frontend(e.to_string()))?;
        // The tree-walker has no bytecode encoding widths of its own, but
        // it enforces the same representation limits as the compiler so a
        // program near the limits is accepted or rejected identically on
        // every engine.
        crate::compile::check_limits(&program)?;
        if program.class(main_class).is_none() {
            return Err(BuildEngineError::NoSuchClass(main_class.to_string()));
        }
        let layouts = Layouts::build(&program, &table);
        let source_bytes = jtlang::pretty::print_program(&program).len();
        let mut interp = Interpreter {
            program,
            table,
            layouts,
            heap: Heap::new(),
            meter: CostMeter::new(),
            main_class: main_class.to_string(),
            this_ref: None,
            io: Io::default(),
            last_cost: PhaseCost::default(),
            statics: HashMap::new(),
            source_bytes,
            obs: None,
            stmt_scratch: 0,
            call_depth: 0,
            depth_hwm: 0,
            step_bound: None,
        };
        interp.init_statics().map_err(|e| {
            BuildEngineError::Frontend(format!("static initialization failed: {e}"))
        })?;
        Ok(interp)
    }

    /// Replaces the step budget (default [`crate::cost::DEFAULT_STEP_LIMIT`]).
    pub fn set_step_limit(&mut self, limit: u64) {
        self.meter = CostMeter::with_limit(limit);
    }

    /// Arms (or with `None`, disarms) the step-deadline watchdog: when
    /// a registry is attached, every reaction whose metered steps
    /// exceed `bound` bumps `jtvm.interp.deadline.overruns` and records
    /// a `deadline_overrun` journal event. The natural bound is the
    /// statically proved WCET from `jtanalysis::bounds`. Observation
    /// only — an overrun never fails the reaction (unlike
    /// [`Self::set_step_limit`]).
    pub fn set_step_bound(&mut self, bound: Option<u64>) {
        self.step_bound = bound;
    }

    /// The shared heap (for inspection in tests and benches).
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// Starts publishing `jtvm.interp.*` metrics (see [`crate::obs`])
    /// into `registry`. A no-op when the `telemetry` feature is off.
    pub fn attach_registry(&mut self, registry: &jtobs::Registry) {
        if jtobs::ENABLED {
            self.obs = Some(EngineObs::new(registry, "jtvm.interp", "statements", &[]));
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
            obs.retired.add(self.stmt_scratch);
            self.stmt_scratch = 0;
        }
    }

    fn init_statics(&mut self) -> Result<(), RuntimeError> {
        // Static initializers may not reference `this`; they run with a
        // dummy frame whose object reference is never consulted because
        // the type checker admits only expressions, and any accidental
        // `this` use would hit a null-like dummy object we allocate here.
        let classes: Vec<String> = self.program.classes.iter().map(|c| c.name.clone()).collect();
        for cname in classes {
            let class = self
                .program
                .class(&cname)
                .expect("class exists")
                .clone();
            let statics: Vec<FieldDecl> = class
                .fields
                .iter()
                .filter(|f| f.modifiers.is_static)
                .cloned()
                .collect();
            if statics.is_empty() {
                continue;
            }
            let dummy = self.construct_raw(&cname)?;
            let mut frame = Frame::new(dummy, &cname);
            for f in statics {
                let v = match &f.init {
                    Some(e) => self.eval(&mut frame, e)?,
                    None => default_value(&f.ty),
                };
                self.statics.insert((cname.clone(), f.name.clone()), v);
            }
        }
        Ok(())
    }

    /// Allocates an object of `class` without running initializers.
    fn construct_raw(&mut self, class: &str) -> Result<ObjRef, RuntimeError> {
        let id = self
            .layouts
            .id(class)
            .ok_or_else(|| RuntimeError::Internal(format!("no layout for `{class}`")))?;
        let n = self.layouts.layout(id).n_slots;
        self.meter.charge_alloc(n as u64)?;
        self.heap.alloc_object(id, n)
    }

    fn enter_call(&mut self) -> Result<(), RuntimeError> {
        if self.call_depth >= MAX_CALL_DEPTH {
            return Err(RuntimeError::StackOverflow { limit: MAX_CALL_DEPTH });
        }
        self.call_depth += 1;
        self.depth_hwm = self.depth_hwm.max(self.call_depth);
        Ok(())
    }

    /// Full construction: allocate, run field initializers (superclass
    /// first), then the arity-matching constructor.
    fn construct(&mut self, class: &str, args: &[RtValue]) -> Result<ObjRef, RuntimeError> {
        self.enter_call()?;
        let result = (|| {
            let obj = self.construct_raw(class)?;
            self.run_field_inits(obj, class)?;
            self.run_ctor(obj, class, args)?;
            Ok(obj)
        })();
        self.call_depth -= 1;
        result
    }

    fn run_field_inits(&mut self, obj: ObjRef, class: &str) -> Result<(), RuntimeError> {
        // Superclass initializers first.
        let chain = self.user_superclass_chain(class);
        for cname in chain {
            let decl = self.program.class(&cname).expect("user class").clone();
            let mut frame = Frame::new(obj, &cname);
            for f in &decl.fields {
                if f.modifiers.is_static {
                    continue;
                }
                let v = match &f.init {
                    Some(e) => self.eval(&mut frame, e)?,
                    None => default_value(&f.ty),
                };
                self.set_field(obj, &f.name, v)?;
            }
        }
        Ok(())
    }

    /// The chain of *user* classes from the root ancestor down to `class`.
    fn user_superclass_chain(&self, class: &str) -> Vec<String> {
        let mut chain = Vec::new();
        let mut cur = Some(class.to_string());
        while let Some(name) = cur {
            if self.program.class(&name).is_some() {
                chain.push(name.clone());
            }
            cur = self
                .table
                .class(&name)
                .and_then(|c| c.superclass.clone());
        }
        chain.reverse();
        chain
    }

    fn run_ctor(&mut self, obj: ObjRef, class: &str, args: &[RtValue]) -> Result<(), RuntimeError> {
        let Some(decl) = self.program.class(class).cloned() else {
            return Err(RuntimeError::Internal(format!(
                "no declaration for class `{class}`"
            )));
        };
        let ctor = decl.ctors.iter().find(|c| c.params.len() == args.len());
        let Some(ctor) = ctor else {
            if args.is_empty() {
                return Ok(()); // implicit default constructor
            }
            return Err(RuntimeError::Internal(format!(
                "no {}-ary constructor for `{class}`",
                args.len()
            )));
        };
        let mut frame = Frame::new(obj, class);
        for (p, a) in ctor.params.iter().zip(args) {
            frame.declare(&p.name, *a);
        }
        match self.exec_block(&mut frame, &ctor.body)? {
            Flow::Return(_) | Flow::Normal => Ok(()),
            Flow::Break | Flow::Continue => Err(RuntimeError::Internal(
                "break/continue escaped a constructor".into(),
            )),
        }
    }

    fn set_field(&mut self, obj: ObjRef, name: &str, value: RtValue) -> Result<(), RuntimeError> {
        let class = self.heap.class_of(obj)?;
        match self.layouts.slot(class, name) {
            Some(slot) => self.heap.field_set(obj, slot, value),
            None => {
                // A static field accessed through an instance.
                let cname = self.layouts.layout(class).name.clone();
                let key = self
                    .static_key(&cname, name)
                    .ok_or_else(|| RuntimeError::Internal(format!("no field `{name}`")))?;
                self.statics.insert(key, value);
                Ok(())
            }
        }
    }

    fn get_field(&self, obj: ObjRef, name: &str) -> Result<RtValue, RuntimeError> {
        let class = self.heap.class_of(obj)?;
        match self.layouts.slot(class, name) {
            Some(slot) => self.heap.field_get(obj, slot),
            None => {
                let cname = &self.layouts.layout(class).name;
                let key = self
                    .static_key(cname, name)
                    .ok_or_else(|| RuntimeError::Internal(format!("no field `{name}`")))?;
                Ok(self.statics[&key])
            }
        }
    }

    /// Resolves a static field by walking the class chain from `class`.
    fn static_key(&self, class: &str, name: &str) -> Option<(String, String)> {
        let mut cur = Some(class.to_string());
        while let Some(cname) = cur {
            if self.statics.contains_key(&(cname.clone(), name.to_string())) {
                return Some((cname, name.to_string()));
            }
            cur = self.table.class(&cname).and_then(|c| c.superclass.clone());
        }
        None
    }

    fn exec_block(&mut self, frame: &mut Frame, block: &Block) -> Result<Flow, RuntimeError> {
        frame.scopes.push(HashMap::new());
        let mut flow = Flow::Normal;
        for stmt in &block.stmts {
            flow = self.exec(frame, stmt)?;
            if !matches!(flow, Flow::Normal) {
                break;
            }
        }
        frame.scopes.pop();
        Ok(flow)
    }

    fn exec(&mut self, frame: &mut Frame, stmt: &Stmt) -> Result<Flow, RuntimeError> {
        self.meter.charge()?;
        if jtobs::ENABLED && self.obs.is_some() {
            self.stmt_scratch += 1;
        }
        match &stmt.kind {
            StmtKind::VarDecl { ty, name, init } => {
                let v = match init {
                    Some(e) => self.eval(frame, e)?,
                    None => default_value(ty),
                };
                frame.declare(name, v);
                Ok(Flow::Normal)
            }
            StmtKind::Assign { target, op, value } => {
                let rhs = self.eval(frame, value)?;
                let rhs = match op {
                    AssignOp::Set => rhs,
                    compound => {
                        let old = self.eval(frame, target)?;
                        apply_compound(*compound, old, rhs)?
                    }
                };
                self.assign(frame, target, rhs)?;
                Ok(Flow::Normal)
            }
            StmtKind::Expr(e) => {
                self.eval_allow_void(frame, e)?;
                Ok(Flow::Normal)
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                if self.eval_bool(frame, cond)? {
                    self.exec(frame, then_branch)
                } else if let Some(e) = else_branch {
                    self.exec(frame, e)
                } else {
                    Ok(Flow::Normal)
                }
            }
            StmtKind::While { cond, body } => {
                while self.eval_bool(frame, cond)? {
                    self.meter.charge()?;
                    match self.exec(frame, body)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::DoWhile { body, cond } => {
                loop {
                    self.meter.charge()?;
                    match self.exec(frame, body)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                    if !self.eval_bool(frame, cond)? {
                        break;
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::For {
                init,
                cond,
                update,
                body,
            } => {
                frame.scopes.push(HashMap::new());
                let result = (|| {
                    if let Some(i) = init {
                        self.exec(frame, i)?;
                    }
                    loop {
                        if let Some(c) = cond {
                            if !self.eval_bool(frame, c)? {
                                break;
                            }
                        }
                        self.meter.charge()?;
                        match self.exec(frame, body)? {
                            Flow::Break => break,
                            Flow::Return(v) => return Ok(Flow::Return(v)),
                            Flow::Normal | Flow::Continue => {}
                        }
                        if let Some(u) = update {
                            self.exec(frame, u)?;
                        }
                    }
                    Ok(Flow::Normal)
                })();
                frame.scopes.pop();
                result
            }
            StmtKind::Return(value) => {
                let v = match value {
                    Some(e) => self.eval(frame, e)?,
                    None => RtValue::Null,
                };
                Ok(Flow::Return(v))
            }
            StmtKind::Break => Ok(Flow::Break),
            StmtKind::Continue => Ok(Flow::Continue),
            StmtKind::Block(b) => self.exec_block(frame, b),
        }
    }

    fn assign(&mut self, frame: &mut Frame, target: &Expr, value: RtValue) -> Result<(), RuntimeError> {
        match &target.kind {
            ExprKind::Var(name) => {
                if frame.assign_local(name, value) {
                    return Ok(());
                }
                // Instance field of `this`?
                let class = self.heap.class_of(frame.this_ref)?;
                if self.layouts.slot(class, name).is_some() {
                    return self.set_field(frame.this_ref, name, value);
                }
                if let Some(key) = self.static_key(&frame.class, name) {
                    self.statics.insert(key, value);
                    return Ok(());
                }
                Err(RuntimeError::Internal(format!("unknown variable `{name}`")))
            }
            ExprKind::Field { object, name } => {
                let obj = self.eval_ref(frame, object)?;
                self.set_field(obj, name, value)
            }
            ExprKind::Index { array, index } => {
                let arr = self.eval_ref(frame, array)?;
                let idx = self.eval_int(frame, index)?;
                self.heap.array_set(arr, idx, value)
            }
            _ => Err(RuntimeError::Internal("assignment to non-lvalue".into())),
        }
    }

    fn eval_bool(&mut self, frame: &mut Frame, e: &Expr) -> Result<bool, RuntimeError> {
        self.eval(frame, e)?
            .as_bool()
            .ok_or_else(|| RuntimeError::Internal("expected boolean".into()))
    }

    fn eval_int(&mut self, frame: &mut Frame, e: &Expr) -> Result<i64, RuntimeError> {
        self.eval(frame, e)?
            .as_int()
            .ok_or_else(|| RuntimeError::Internal("expected int".into()))
    }

    fn eval_ref(&mut self, frame: &mut Frame, e: &Expr) -> Result<ObjRef, RuntimeError> {
        match self.eval(frame, e)? {
            RtValue::Ref(r) => Ok(r),
            RtValue::Null => Err(RuntimeError::NullPointer),
            _ => Err(RuntimeError::Internal("expected reference".into())),
        }
    }

    fn eval(&mut self, frame: &mut Frame, e: &Expr) -> Result<RtValue, RuntimeError> {
        match self.eval_allow_void(frame, e)? {
            Some(v) => Ok(v),
            None => Err(RuntimeError::Internal("void in value position".into())),
        }
    }

    fn eval_allow_void(
        &mut self,
        frame: &mut Frame,
        e: &Expr,
    ) -> Result<Option<RtValue>, RuntimeError> {
        self.meter.charge()?;
        let v = match &e.kind {
            ExprKind::Int(v) => Some(RtValue::Int(*v)),
            ExprKind::Bool(b) => Some(RtValue::Bool(*b)),
            ExprKind::Null => Some(RtValue::Null),
            ExprKind::This => Some(RtValue::Ref(frame.this_ref)),
            ExprKind::Var(name) => {
                if let Some(v) = frame.lookup(name) {
                    Some(v)
                } else {
                    let class = self.heap.class_of(frame.this_ref)?;
                    if self.layouts.slot(class, name).is_some() {
                        Some(self.get_field(frame.this_ref, name)?)
                    } else if let Some(key) = self.static_key(&frame.class, name) {
                        Some(self.statics[&key])
                    } else {
                        return Err(RuntimeError::Internal(format!(
                            "unknown variable `{name}`"
                        )));
                    }
                }
            }
            ExprKind::Field { object, name } => {
                let obj = self.eval_ref(frame, object)?;
                Some(self.get_field(obj, name)?)
            }
            ExprKind::Index { array, index } => {
                let arr = self.eval_ref(frame, array)?;
                let idx = self.eval_int(frame, index)?;
                Some(self.heap.array_get(arr, idx)?)
            }
            ExprKind::Length { array } => {
                let arr = self.eval_ref(frame, array)?;
                Some(RtValue::Int(self.heap.array_len(arr)? as i64))
            }
            ExprKind::Unary { op, expr } => match op {
                UnOp::Neg => {
                    let v = self.eval_int(frame, expr)?;
                    Some(RtValue::Int(v.checked_neg().ok_or(RuntimeError::Overflow)?))
                }
                UnOp::Not => {
                    let v = self.eval_bool(frame, expr)?;
                    Some(RtValue::Bool(!v))
                }
            },
            ExprKind::Binary { op, lhs, rhs } => Some(self.eval_binary(frame, *op, lhs, rhs)?),
            ExprKind::Call {
                receiver,
                method,
                args,
            } => self.eval_call(frame, receiver.as_deref(), method, args)?,
            ExprKind::NewObject { class, args } => {
                let mut arg_values = Vec::with_capacity(args.len());
                for a in args {
                    arg_values.push(self.eval(frame, a)?);
                }
                if class == "Thread" {
                    return Err(RuntimeError::Unsupported(
                        "raw Thread instantiation (use the sched crate to simulate threads)"
                            .into(),
                    ));
                }
                Some(RtValue::Ref(self.construct(class, &arg_values)?))
            }
            ExprKind::NewArray { elem, len } => {
                let n = self.eval_int(frame, len)?;
                self.meter.charge_alloc(n.max(0) as u64)?;
                Some(RtValue::Ref(self.heap.alloc_array(n, default_value(elem))?))
            }
        };
        Ok(v)
    }

    fn eval_binary(
        &mut self,
        frame: &mut Frame,
        op: BinOp,
        lhs: &Expr,
        rhs: &Expr,
    ) -> Result<RtValue, RuntimeError> {
        // Short-circuit logic first.
        if op.is_logical() {
            let l = self.eval_bool(frame, lhs)?;
            return Ok(RtValue::Bool(match op {
                BinOp::And => l && self.eval_bool(frame, rhs)?,
                _ => l || self.eval_bool(frame, rhs)?,
            }));
        }
        let l = self.eval(frame, lhs)?;
        let r = self.eval(frame, rhs)?;
        if op.is_equality() {
            let eq = l == r;
            return Ok(RtValue::Bool(if op == BinOp::Eq { eq } else { !eq }));
        }
        let (a, b) = match (l.as_int(), r.as_int()) {
            (Some(a), Some(b)) => (a, b),
            _ => return Err(RuntimeError::Internal("arithmetic on non-ints".into())),
        };
        Ok(match op {
            BinOp::Add => RtValue::Int(a.checked_add(b).ok_or(RuntimeError::Overflow)?),
            BinOp::Sub => RtValue::Int(a.checked_sub(b).ok_or(RuntimeError::Overflow)?),
            BinOp::Mul => RtValue::Int(a.checked_mul(b).ok_or(RuntimeError::Overflow)?),
            BinOp::Div => {
                if b == 0 {
                    return Err(RuntimeError::DivisionByZero);
                }
                RtValue::Int(a.checked_div(b).ok_or(RuntimeError::Overflow)?)
            }
            BinOp::Rem => {
                if b == 0 {
                    return Err(RuntimeError::DivisionByZero);
                }
                RtValue::Int(a.checked_rem(b).ok_or(RuntimeError::Overflow)?)
            }
            BinOp::Lt => RtValue::Bool(a < b),
            BinOp::Le => RtValue::Bool(a <= b),
            BinOp::Gt => RtValue::Bool(a > b),
            BinOp::Ge => RtValue::Bool(a >= b),
            BinOp::Eq | BinOp::Ne | BinOp::And | BinOp::Or => unreachable!("handled above"),
        })
    }

    fn eval_call(
        &mut self,
        frame: &mut Frame,
        receiver: Option<&Expr>,
        method: &str,
        args: &[Expr],
    ) -> Result<Option<RtValue>, RuntimeError> {
        let this_ref = match receiver {
            None | Some(Expr { kind: ExprKind::This, .. }) => frame.this_ref,
            Some(r) => self.eval_ref(frame, r)?,
        };
        let mut arg_values = Vec::with_capacity(args.len());
        for a in args {
            arg_values.push(self.eval(frame, a)?);
        }
        let runtime_class = self.layouts.layout(self.heap.class_of(this_ref)?).name.clone();

        // Find the user method by walking the class chain from the
        // runtime class (virtual dispatch).
        let mut cur = Some(runtime_class.clone());
        while let Some(cname) = cur {
            if let Some(class) = self.program.class(&cname) {
                if let Some(decl) = class.method(method) {
                    let decl = decl.clone();
                    let mut callee = Frame::new(this_ref, &cname);
                    for (p, a) in decl.params.iter().zip(&arg_values) {
                        callee.declare(&p.name, *a);
                    }
                    self.enter_call()?;
                    let flow = self.exec_block(&mut callee, &decl.body);
                    self.call_depth -= 1;
                    return match flow? {
                        Flow::Return(v) => {
                            Ok(if decl.return_type.is_some() {
                                Some(v)
                            } else {
                                None
                            })
                        }
                        Flow::Normal => Ok(None),
                        Flow::Break | Flow::Continue => Err(RuntimeError::Internal(
                            "break/continue escaped a method".into(),
                        )),
                    };
                }
            }
            cur = self.table.class(&cname).and_then(|c| c.superclass.clone());
        }

        // Builtin methods.
        self.call_builtin(method, &arg_values)
    }

    fn call_builtin(
        &mut self,
        method: &str,
        args: &[RtValue],
    ) -> Result<Option<RtValue>, RuntimeError> {
        // Arguments are fetched defensively: a builtin call that reaches
        // here with too few arguments is a runtime error, not a panic.
        let arg = |i: usize| {
            args.get(i).copied().ok_or_else(|| {
                RuntimeError::Internal(format!("`{method}` needs {} argument(s)", i + 1))
            })
        };
        match method {
            "read" => {
                let port = arg(0)?.as_int().ok_or(RuntimeError::Internal("port".into()))?;
                Ok(Some(RtValue::Int(self.io.read(port)?)))
            }
            "readVec" => {
                let port = arg(0)?.as_int().ok_or(RuntimeError::Internal("port".into()))?;
                let items: Vec<RtValue> = self
                    .io
                    .read_vec(port)?
                    .iter()
                    .map(|&v| RtValue::Int(v))
                    .collect();
                Ok(Some(RtValue::Ref(self.heap.alloc_env_array(items))))
            }
            "write" => {
                let port = arg(0)?.as_int().ok_or(RuntimeError::Internal("port".into()))?;
                let value = arg(1)?.as_int().ok_or(RuntimeError::Internal("value".into()))?;
                self.io.write(port, value)?;
                Ok(None)
            }
            "writeVec" => {
                let port = arg(0)?.as_int().ok_or(RuntimeError::Internal("port".into()))?;
                let arr = match arg(1)? {
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
                Ok(None)
            }
            "wait" | "notify" | "notifyAll" | "sleep" | "join" | "start" => {
                Err(RuntimeError::Unsupported(format!(
                    "`{method}` (threads and blocking are simulated by the sched crate)"
                )))
            }
            other => Err(RuntimeError::Internal(format!("no method `{other}`"))),
        }
    }
}

/// The zero/null value of a declared type.
pub(crate) fn default_value(ty: &Type) -> RtValue {
    match ty {
        Type::Int => RtValue::Int(0),
        Type::Boolean => RtValue::Bool(false),
        Type::Class(_) | Type::Array(_) => RtValue::Null,
    }
}

fn apply_compound(op: AssignOp, old: RtValue, rhs: RtValue) -> Result<RtValue, RuntimeError> {
    let (a, b) = match (old.as_int(), rhs.as_int()) {
        (Some(a), Some(b)) => (a, b),
        _ => return Err(RuntimeError::Internal("compound assign on non-int".into())),
    };
    Ok(RtValue::Int(match op {
        AssignOp::Add => a.checked_add(b).ok_or(RuntimeError::Overflow)?,
        AssignOp::Sub => a.checked_sub(b).ok_or(RuntimeError::Overflow)?,
        AssignOp::Mul => a.checked_mul(b).ok_or(RuntimeError::Overflow)?,
        AssignOp::Div => {
            if b == 0 {
                return Err(RuntimeError::DivisionByZero);
            }
            a.checked_div(b).ok_or(RuntimeError::Overflow)?
        }
        AssignOp::Rem => {
            if b == 0 {
                return Err(RuntimeError::DivisionByZero);
            }
            a.checked_rem(b).ok_or(RuntimeError::Overflow)?
        }
        AssignOp::Set => unreachable!("Set handled by caller"),
    }))
}

impl Engine for Interpreter {
    fn name(&self) -> &str {
        "interpreter"
    }

    fn initialize(&mut self, args: &[RtValue]) -> Result<(), RuntimeError> {
        self.meter.reset();
        self.heap.reset_stats();
        let obj = self.construct(&self.main_class.clone(), args)?;
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
        let _span = self.obs.as_ref().map(|o| o.registry.span("jtvm.interp.react"));
        if let Some(obs) = &self.obs {
            obs.react_begin();
        }
        self.depth_hwm = 0;
        self.meter.reset();
        self.heap.reset_stats();
        self.io.restart(inputs);
        let class = self.layouts.layout(self.heap.class_of(this_ref)?).name.clone();
        let mut frame = Frame::new(this_ref, &class);
        let run = Expr {
            id: NodeId(u32::MAX),
            span: Default::default(),
            kind: ExprKind::Call {
                receiver: None,
                method: "run".to_string(),
                args: Vec::new(),
            },
        };
        let result = self.eval_allow_void(&mut frame, &run);
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
        self.source_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(src: &str, main: &str) -> Interpreter {
        Interpreter::new(jtlang::parse(src).unwrap(), main).unwrap()
    }

    #[test]
    fn counter_saturates() {
        let mut e = engine(jtlang::corpus::COUNTER, "Counter");
        e.initialize(&[RtValue::Int(5)]).unwrap();
        let outs: Vec<i64> = (0..4)
            .map(|_| {
                match e.react(&[PortDatum::Int(2)]).unwrap()[0] {
                    Some(PortDatum::Int(v)) => v,
                    ref other => panic!("unexpected output {other:?}"),
                }
            })
            .collect();
        assert_eq!(outs, vec![2, 4, 5, 5]);
    }

    #[test]
    fn fir_filter_convolves() {
        let mut e = engine(jtlang::corpus::FIR_FILTER, "Fir");
        e.initialize(&[]).unwrap();
        // Step response of taps [1,3,3,1]/8: 1/8, 4/8, 7/8, 8/8, 8/8…
        let outs: Vec<i64> = (0..5)
            .map(|_| match e.react(&[PortDatum::Int(8)]).unwrap()[0] {
                Some(PortDatum::Int(v)) => v,
                ref other => panic!("unexpected output {other:?}"),
            })
            .collect();
        assert_eq!(outs, vec![1, 4, 7, 8, 8]);
    }

    #[test]
    fn traffic_light_cycles() {
        let mut e = engine(jtlang::corpus::TRAFFIC_LIGHT, "TrafficLight");
        e.initialize(&[]).unwrap();
        let mut states = Vec::new();
        for t in 0..10 {
            let car = i64::from(t >= 2);
            match &e.react(&[PortDatum::Int(car)]).unwrap()[0] {
                Some(PortDatum::Int(s)) => states.push(*s),
                other => panic!("unexpected output {other:?}"),
            }
        }
        assert_eq!(states[0], 0);
        assert!(states.contains(&1), "light reaches yellow: {states:?}");
        assert!(states.contains(&2), "light reaches red: {states:?}");
    }

    #[test]
    fn unrestricted_avg_runs_but_allocates_per_reaction() {
        let mut e = engine(jtlang::corpus::UNRESTRICTED_AVG, "Avg");
        e.initialize(&[]).unwrap();
        e.react(&[PortDatum::Int(3)]).unwrap();
        let first = e.last_cost();
        assert!(first.heap.allocations >= 1, "allocates scratch per reaction");
        e.react(&[PortDatum::Int(3)]).unwrap();
        assert!(e.last_cost().heap.allocations >= 1);
    }

    #[test]
    fn frozen_heap_stops_run_phase_allocation() {
        let mut e = engine(jtlang::corpus::UNRESTRICTED_AVG, "Avg");
        e.initialize(&[]).unwrap();
        e.freeze_heap();
        assert_eq!(
            e.react(&[PortDatum::Int(3)]).unwrap_err(),
            RuntimeError::AllocationFrozen
        );
        // A compliant program keeps reacting under the freeze.
        let mut e = engine(jtlang::corpus::FIR_FILTER, "Fir");
        e.initialize(&[]).unwrap();
        e.freeze_heap();
        assert!(e.react(&[PortDatum::Int(1)]).is_ok());
    }

    #[test]
    fn runtime_errors_surface() {
        let mut e = engine(
            "class A extends ASR {
                 private int[] buf;
                 A() { buf = new int[2]; }
                 public void run() { write(0, buf[read(0)]); }
             }",
            "A",
        );
        e.initialize(&[]).unwrap();
        assert!(matches!(
            e.react(&[PortDatum::Int(5)]).unwrap_err(),
            RuntimeError::IndexOutOfBounds { index: 5, len: 2 }
        ));

        let mut e = engine(
            "class A extends ASR { A() {} public void run() { write(0, 1 / read(0)); } }",
            "A",
        );
        e.initialize(&[]).unwrap();
        assert_eq!(
            e.react(&[PortDatum::Int(0)]).unwrap_err(),
            RuntimeError::DivisionByZero
        );
    }

    #[test]
    fn step_limit_stops_infinite_loops() {
        let mut e = engine(
            "class A extends ASR { A() {} public void run() { while (true) { int x = 1; } } }",
            "A",
        );
        e.set_step_limit(10_000);
        e.initialize(&[]).unwrap();
        assert!(matches!(
            e.react(&[]).unwrap_err(),
            RuntimeError::StepLimitExceeded { .. }
        ));
    }

    #[test]
    fn virtual_dispatch_uses_runtime_class() {
        let mut e = engine(
            "class Base { int f() { return 1; } }
             class Derived extends Base { int f() { return 2; } }
             class M extends ASR {
                 M() {}
                 public void run() {
                     Base b = new Derived();
                     write(0, b.f());
                 }
             }",
            "M",
        );
        e.initialize(&[]).unwrap();
        assert_eq!(
            e.react(&[]).unwrap()[0],
            Some(PortDatum::Int(2)),
            "dynamic dispatch must pick Derived.f"
        );
    }

    #[test]
    fn statics_are_shared_and_assignable() {
        let mut e = engine(
            "class G { static int counter; static final int K = 40; }
             class M extends ASR {
                 M() {}
                 public void run() {
                     G g = new G();
                     int k = bump();
                     write(0, k);
                 }
                 int bump() { return tick(); }
                 int tick() { return 0; }
             }",
            "M",
        );
        e.initialize(&[]).unwrap();
        assert_eq!(e.react(&[]).unwrap()[0], Some(PortDatum::Int(0)));
    }

    #[test]
    fn vec_ports_round_trip() {
        let mut e = engine(
            "class Scale extends ASR {
                 Scale() {}
                 public void run() {
                     int[] v = readVec(0);
                     for (int i = 0; i < v.length; i++) { v[i] = v[i] * 2; }
                     writeVec(0, v);
                 }
             }",
            "Scale",
        );
        e.initialize(&[]).unwrap();
        let out = e.react(&[PortDatum::Vec(vec![1, 2, 3])]).unwrap();
        assert_eq!(out[0], Some(PortDatum::Vec(vec![2, 4, 6])));
    }

    #[test]
    fn thread_calls_are_unsupported() {
        let mut e = engine(jtlang::corpus::RACY_THREADS, "Fig8");
        e.initialize(&[]).unwrap();
        // Fig8 has no run(); call demo via a wrapper ASR class is not
        // present, so drive `react` — run is missing, meaning builtin
        // Thread.run resolution fails with Unsupported-ish internal.
        // Instead check construct+start directly through a driver class.
        let mut e2 = engine(
            "class W extends Thread { public void run() {} }
             class M extends ASR {
                 M() {}
                 public void run() { W w = new W(); w.start(); }
             }",
            "M",
        );
        e2.initialize(&[]).unwrap();
        assert!(matches!(
            e2.react(&[]).unwrap_err(),
            RuntimeError::Unsupported(_)
        ));
        drop(e);
    }

    #[test]
    fn initialization_and_reaction_costs_are_separated() {
        let mut e = engine(jtlang::corpus::FIR_FILTER, "Fir");
        e.initialize(&[]).unwrap();
        let init = e.last_cost();
        assert!(init.heap.allocations >= 2, "taps and window");
        e.react(&[PortDatum::Int(1)]).unwrap();
        let react = e.last_cost();
        assert_eq!(react.heap.allocations, 0, "no run-phase allocation");
        assert!(react.steps > 0);
    }

    #[test]
    fn program_size_is_source_bytes() {
        let e = engine(jtlang::corpus::COUNTER, "Counter");
        assert!(e.program_size() > 100);
    }

    #[test]
    fn react_before_initialize_is_an_error() {
        let mut e = engine(jtlang::corpus::COUNTER, "Counter");
        assert!(matches!(
            e.react(&[]).unwrap_err(),
            RuntimeError::Internal(_)
        ));
    }
}
