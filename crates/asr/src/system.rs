//! System graphs: blocks, channels, and delay elements, plus the
//! per-instant reaction API.
//!
//! A [`System`] is assembled with [`SystemBuilder`]: add blocks, delays,
//! and external ports, then connect each sink (block input, delay input,
//! external output) to exactly one source (external input, block output,
//! delay output). [`SystemBuilder::build`] validates the graph — every
//! sink driven, no double drivers — and freezes it into a [`System`] whose
//! signal storage is allocated once, never after (the bounded-memory
//! property of the ASR model).
//!
//! Reacting ([`System::react`]) runs one instant: the environment supplies
//! one determined [`Value`] per external input, the least fixed point of
//! the block equations is computed (see [`crate::fixpoint`]), delays latch
//! their inputs, and the external outputs are returned. If no inputs are
//! provided, the system simply sits idle — reactivity is driven entirely
//! by the environment, exactly as the paper prescribes.

use crate::block::{Block, BlockError, SystemState};
use crate::delay::Delay;
use crate::error::{BuildSystemError, EvalError};
use crate::fixpoint::{self, EvalScratch, FixpointStats, Strategy};
use crate::obs::SystemObs;
use crate::plan::ExecPlan;
use crate::port::{BlockId, DelayId, InputId, OutputId};
use crate::trace::{InstantRecord, Trace};
use crate::value::Value;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Mutex;

/// A value producer inside a system graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Source {
    /// An external input port.
    Ext(InputId),
    /// Output port `1` of block `0`.
    Block(BlockId, usize),
    /// The output of a delay element.
    Delay(DelayId),
}

impl Source {
    /// Source from an external input.
    pub fn ext(id: InputId) -> Self {
        Source::Ext(id)
    }

    /// Source from a block output port.
    pub fn block(id: BlockId, port: usize) -> Self {
        Source::Block(id, port)
    }

    /// Source from a delay output.
    pub fn delay(id: DelayId) -> Self {
        Source::Delay(id)
    }
}

/// A value consumer inside a system graph. Each sink has exactly one
/// driving [`Source`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Sink {
    /// Input port `1` of block `0`.
    Block(BlockId, usize),
    /// The input of a delay element.
    Delay(DelayId),
    /// An external output port.
    Ext(OutputId),
}

impl Sink {
    /// Sink into a block input port.
    pub fn block(id: BlockId, port: usize) -> Self {
        Sink::Block(id, port)
    }

    /// Sink into a delay input.
    pub fn delay(id: DelayId) -> Self {
        Sink::Delay(id)
    }

    /// Sink into an external output.
    pub fn ext(id: OutputId) -> Self {
        Sink::Ext(id)
    }
}

impl fmt::Display for Sink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sink::Block(b, p) => write!(f, "{b}.in{p}"),
            Sink::Delay(d) => write!(f, "{d}.in"),
            Sink::Ext(o) => write!(f, "{o}"),
        }
    }
}

/// Incremental builder for [`System`] graphs.
///
/// See the [crate-level example](crate) for typical use.
#[derive(Debug, Default)]
pub struct SystemBuilder {
    name: String,
    blocks: Vec<Box<dyn Block>>,
    delays: Vec<Delay>,
    input_names: Vec<String>,
    output_names: Vec<String>,
    connections: BTreeMap<Sink, Source>,
}

impl SystemBuilder {
    /// Creates an empty builder for a system with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        SystemBuilder {
            name: name.into(),
            ..SystemBuilder::default()
        }
    }

    /// Adds a functional block and returns its id.
    pub fn add_block(&mut self, block: impl Block + 'static) -> BlockId {
        self.add_boxed_block(Box::new(block))
    }

    /// Adds an already-boxed block and returns its id.
    pub fn add_boxed_block(&mut self, block: Box<dyn Block>) -> BlockId {
        self.blocks.push(block);
        BlockId(self.blocks.len() - 1)
    }

    /// Adds a delay element with the given initial output value.
    pub fn add_delay(&mut self, name: impl Into<String>, initial: Value) -> DelayId {
        self.delays.push(Delay::new(name, initial));
        DelayId(self.delays.len() - 1)
    }

    /// Declares an external input port.
    pub fn add_input(&mut self, name: impl Into<String>) -> InputId {
        self.input_names.push(name.into());
        InputId(self.input_names.len() - 1)
    }

    /// Declares an external output port.
    pub fn add_output(&mut self, name: impl Into<String>) -> OutputId {
        self.output_names.push(name.into());
        OutputId(self.output_names.len() - 1)
    }

    /// Connects `source` to `sink`. A source may fan out to any number of
    /// sinks; each sink accepts exactly one driver.
    ///
    /// # Errors
    ///
    /// * [`BuildSystemError::NoSuchEntity`] if either end refers to a
    ///   nonexistent block/delay/port.
    /// * [`BuildSystemError::SinkAlreadyDriven`] on a second driver.
    pub fn connect(&mut self, source: Source, sink: Sink) -> Result<(), BuildSystemError> {
        self.check_source(source)?;
        self.check_sink(sink)?;
        if self.connections.contains_key(&sink) {
            return Err(BuildSystemError::SinkAlreadyDriven(sink.to_string()));
        }
        self.connections.insert(sink, source);
        Ok(())
    }

    fn check_source(&self, source: Source) -> Result<(), BuildSystemError> {
        match source {
            Source::Ext(InputId(i)) if i >= self.input_names.len() => Err(
                BuildSystemError::NoSuchEntity(format!("external input in{i}")),
            ),
            Source::Block(BlockId(b), p) => {
                let Some(block) = self.blocks.get(b) else {
                    return Err(BuildSystemError::NoSuchEntity(format!("block b{b}")));
                };
                if p >= block.output_arity() {
                    return Err(BuildSystemError::NoSuchEntity(format!(
                        "output port {p} of block b{b} ({})",
                        block.name()
                    )));
                }
                Ok(())
            }
            Source::Delay(DelayId(d)) if d >= self.delays.len() => {
                Err(BuildSystemError::NoSuchEntity(format!("delay d{d}")))
            }
            _ => Ok(()),
        }
    }

    fn check_sink(&self, sink: Sink) -> Result<(), BuildSystemError> {
        match sink {
            Sink::Block(BlockId(b), p) => {
                let Some(block) = self.blocks.get(b) else {
                    return Err(BuildSystemError::NoSuchEntity(format!("block b{b}")));
                };
                if p >= block.input_arity() {
                    return Err(BuildSystemError::NoSuchEntity(format!(
                        "input port {p} of block b{b} ({})",
                        block.name()
                    )));
                }
                Ok(())
            }
            Sink::Delay(DelayId(d)) if d >= self.delays.len() => {
                Err(BuildSystemError::NoSuchEntity(format!("delay d{d}")))
            }
            Sink::Ext(OutputId(o)) if o >= self.output_names.len() => Err(
                BuildSystemError::NoSuchEntity(format!("external output out{o}")),
            ),
            _ => Ok(()),
        }
    }

    /// Validates the graph and freezes it into an executable [`System`].
    ///
    /// # Errors
    ///
    /// Returns a [`BuildSystemError`] if any block input, delay input, or
    /// external output is left unconnected, or if two external ports of
    /// the same direction share a name.
    pub fn build(self) -> Result<System, BuildSystemError> {
        for names in [&self.input_names, &self.output_names] {
            let mut seen = std::collections::BTreeSet::new();
            for n in names {
                if !seen.insert(n) {
                    return Err(BuildSystemError::DuplicatePortName(n.clone()));
                }
            }
        }

        let n_inputs = self.input_names.len();
        let mut block_out_base = Vec::with_capacity(self.blocks.len());
        let mut next = n_inputs;
        for b in &self.blocks {
            block_out_base.push(next);
            next += b.output_arity();
        }
        let delay_base = next;
        let n_signals = delay_base + self.delays.len();

        let sig_of = |source: Source| -> usize {
            match source {
                Source::Ext(InputId(i)) => i,
                Source::Block(BlockId(b), p) => block_out_base[b] + p,
                Source::Delay(DelayId(d)) => delay_base + d,
            }
        };

        let mut block_in_sigs: Vec<Vec<usize>> = Vec::with_capacity(self.blocks.len());
        for (b, block) in self.blocks.iter().enumerate() {
            let mut sigs = Vec::with_capacity(block.input_arity());
            for p in 0..block.input_arity() {
                match self.connections.get(&Sink::Block(BlockId(b), p)) {
                    Some(&src) => sigs.push(sig_of(src)),
                    None => {
                        return Err(BuildSystemError::UnconnectedBlockInput {
                            block: BlockId(b),
                            port: p,
                        })
                    }
                }
            }
            block_in_sigs.push(sigs);
        }

        let mut delay_in_sig = Vec::with_capacity(self.delays.len());
        for d in 0..self.delays.len() {
            match self.connections.get(&Sink::Delay(DelayId(d))) {
                Some(&src) => delay_in_sig.push(sig_of(src)),
                None => return Err(BuildSystemError::UnconnectedDelayInput(DelayId(d))),
            }
        }

        let mut out_sig = Vec::with_capacity(self.output_names.len());
        for o in 0..self.output_names.len() {
            match self.connections.get(&Sink::Ext(OutputId(o))) {
                Some(&src) => out_sig.push(sig_of(src)),
                None => return Err(BuildSystemError::UnconnectedOutput(OutputId(o))),
            }
        }

        // Signal -> consuming blocks, for the worklist strategy.
        let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); n_signals];
        for (b, sigs) in block_in_sigs.iter().enumerate() {
            for &s in sigs {
                if !consumers[s].contains(&b) {
                    consumers[s].push(b);
                }
            }
        }

        let mut sys = System {
            name: self.name,
            blocks: self.blocks,
            delays: self.delays,
            input_names: self.input_names,
            output_names: self.output_names,
            block_in_sigs,
            block_out_base,
            delay_in_sig,
            out_sig,
            consumers,
            delay_base,
            n_signals,
            plan: ExecPlan::default(),
            scratch: Mutex::new(EvalScratch::default()),
            inlined_blocks: 0,
            parallel_threshold: DEFAULT_PARALLEL_THRESHOLD,
            strategy: Strategy::default(),
            instant_count: 0,
            deadline_ns: None,
            obs: None,
        };
        sys.plan = ExecPlan::compile(&sys);
        Ok(sys)
    }
}

/// The fixed-point solution of a single instant: the value of every signal
/// in the system, plus evaluation statistics.
#[derive(Debug, Clone)]
pub struct InstantSolution {
    pub(crate) signals: Vec<Value>,
    stats: FixpointStats,
}

impl InstantSolution {
    /// The value of every signal, indexed by internal signal number.
    pub fn signals(&self) -> &[Value] {
        &self.signals
    }

    /// Fixed-point iteration statistics (for the evaluation-order
    /// ablation).
    pub fn stats(&self) -> &FixpointStats {
        &self.stats
    }
}

/// An executable ASR system: the frozen result of [`SystemBuilder::build`].
pub struct System {
    pub(crate) name: String,
    pub(crate) blocks: Vec<Box<dyn Block>>,
    pub(crate) delays: Vec<Delay>,
    pub(crate) input_names: Vec<String>,
    pub(crate) output_names: Vec<String>,
    pub(crate) block_in_sigs: Vec<Vec<usize>>,
    pub(crate) block_out_base: Vec<usize>,
    pub(crate) delay_in_sig: Vec<usize>,
    pub(crate) out_sig: Vec<usize>,
    pub(crate) consumers: Vec<Vec<usize>>,
    pub(crate) delay_base: usize,
    pub(crate) n_signals: usize,
    /// Precompiled evaluation schedule (see [`crate::plan`]).
    plan: ExecPlan,
    /// Persistent evaluation buffers, reused across instants. Behind a
    /// (single-owner, never contended) lock so `System` stays `Sync` for
    /// the scoped worker threads of
    /// [`Strategy::Parallel`](crate::fixpoint::Strategy::Parallel).
    pub(crate) scratch: Mutex<EvalScratch>,
    /// How many composite blocks [`System::flatten`] inlined to produce
    /// this system (0 for a system built directly).
    inlined_blocks: usize,
    /// Minimum number of acyclic blocks a plan level must hold before
    /// [`Strategy::Parallel`](crate::fixpoint::Strategy::Parallel) fans
    /// it out to workers; narrower levels run sequentially.
    pub(crate) parallel_threshold: usize,
    strategy: Strategy,
    instant_count: u64,
    /// Per-instant wall-clock budget for the deadline watchdog; `None`
    /// disables the check. See [`Self::set_deadline_ns`].
    deadline_ns: Option<u64>,
    obs: Option<SystemObs>,
}

impl fmt::Debug for System {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("System")
            .field("name", &self.name)
            .field("blocks", &self.blocks.len())
            .field("delays", &self.delays.len())
            .field("inputs", &self.input_names)
            .field("outputs", &self.output_names)
            .field("instants", &self.instant_count)
            .finish()
    }
}

impl System {
    /// The system's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of external inputs.
    pub fn num_inputs(&self) -> usize {
        self.input_names.len()
    }

    /// Number of external outputs.
    pub fn num_outputs(&self) -> usize {
        self.output_names.len()
    }

    /// Names of the external inputs, in port order.
    pub fn input_names(&self) -> &[String] {
        &self.input_names
    }

    /// Names of the external outputs, in port order.
    pub fn output_names(&self) -> &[String] {
        &self.output_names
    }

    /// Number of functional blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Number of delay elements.
    pub fn num_delays(&self) -> usize {
        self.delays.len()
    }

    /// Number of internal signals (inputs + block outputs + delay outputs).
    pub fn num_signals(&self) -> usize {
        self.n_signals
    }

    /// How many instants have been committed since construction or the
    /// last [`System::reset`].
    pub fn instants_elapsed(&self) -> u64 {
        self.instant_count
    }

    /// The precompiled execution plan: the causality condensation laid
    /// out as topological strata (see [`crate::plan`]). Compiled once by
    /// [`SystemBuilder::build`]; consumed by
    /// [`Strategy::Staged`](crate::fixpoint::Strategy::Staged).
    pub fn plan(&self) -> &ExecPlan {
        &self.plan
    }

    /// How many composite blocks [`Self::flatten`] inlined to produce
    /// this system. Zero for a system built directly.
    pub fn inlined_blocks(&self) -> usize {
        self.inlined_blocks
    }

    /// The fixed-point evaluation strategy used by [`System::react`].
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Selects the fixed-point evaluation strategy. The least fixed point
    /// is unique, so this never changes results — only iteration counts.
    pub fn set_strategy(&mut self, strategy: Strategy) {
        self.strategy = strategy;
    }

    /// The width threshold of
    /// [`Strategy::Parallel`](crate::fixpoint::Strategy::Parallel): plan
    /// levels with fewer acyclic blocks than this run sequentially on
    /// the calling thread (fan-out overhead would dominate).
    pub fn parallel_threshold(&self) -> usize {
        self.parallel_threshold
    }

    /// Sets the parallel width threshold (see
    /// [`Self::parallel_threshold`]). A threshold of 0 or 1 fans out
    /// every acyclic level; the default is
    /// [`DEFAULT_PARALLEL_THRESHOLD`]. Never affects results, only where
    /// the work runs.
    pub fn set_parallel_threshold(&mut self, threshold: usize) {
        self.parallel_threshold = threshold;
    }

    /// Attaches a [`jtobs::Registry`]: every subsequent instant records
    /// fixed-point iteration counts, domain climbs, settled-signal
    /// counts, and per-block evaluation counts/spans (see
    /// [`crate::obs`] for the metric names). Metric handles are resolved
    /// once, here. A no-op when the `telemetry` feature is disabled.
    pub fn attach_registry(&mut self, registry: &jtobs::Registry) {
        if jtobs::ENABLED {
            let obs = SystemObs::new(registry, &*self);
            self.obs = Some(obs);
        }
    }

    /// Detaches any registry attached via [`Self::attach_registry`];
    /// subsequent instants record nothing.
    pub fn detach_registry(&mut self) {
        self.obs = None;
    }

    /// The instant wall-clock deadline, if one is set.
    pub fn deadline_ns(&self) -> Option<u64> {
        self.deadline_ns
    }

    /// Arms (or with `None`, disarms) the deadline watchdog: when a
    /// registry is attached, every instant whose measured wall time
    /// exceeds `bound_ns` bumps the `asr.deadline.overruns` counter and
    /// records a `deadline_overrun` journal event. A natural bound is a
    /// WCET estimate from `jtanalysis::bounds` scaled by a per-step
    /// cost, closing the static-estimate vs. measured-reality loop.
    /// Observation only — an overrun never fails the instant.
    pub fn set_deadline_ns(&mut self, bound_ns: Option<u64>) {
        self.deadline_ns = bound_ns;
    }

    /// A human-readable name for an internal signal index.
    pub fn signal_name(&self, sig: usize) -> String {
        if sig < self.input_names.len() {
            return self.input_names[sig].clone();
        }
        if sig >= self.delay_base {
            return self.delays[sig - self.delay_base].name().to_string();
        }
        // Block output: find the owning block by its base offset.
        let b = match self.block_out_base.binary_search(&sig) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        let port = sig - self.block_out_base[b];
        if self.blocks[b].output_arity() == 1 {
            self.blocks[b].name().to_string()
        } else {
            format!("{}.{}", self.blocks[b].name(), port)
        }
    }

    /// Computes the least-fixed-point solution of one instant **without**
    /// committing it: delays keep their state and [`Block::tick`] is not
    /// called. This is the pure denotation of the instant.
    ///
    /// # Errors
    ///
    /// See [`EvalError`]; notably inputs must be determined and arity must
    /// match.
    pub fn eval_instant(&self, inputs: &[Value]) -> Result<InstantSolution, EvalError> {
        if inputs.len() != self.input_names.len() {
            return Err(EvalError::InputArity {
                expected: self.input_names.len(),
                got: inputs.len(),
            });
        }
        for (i, v) in inputs.iter().enumerate() {
            if v.is_unknown() {
                return Err(EvalError::UnknownInput(InputId(i)));
            }
        }
        self.eval_partial(inputs)
    }

    /// Like [`Self::eval_instant`] but permits ⊥ external inputs. Used by
    /// hierarchical composites, which must propagate partial information
    /// through the abstraction boundary to remain monotone and preserve
    /// the non-strictness of inner blocks.
    ///
    /// # Errors
    ///
    /// [`EvalError::InputArity`] on arity mismatch, plus any fixed-point
    /// error.
    pub fn eval_partial(&self, inputs: &[Value]) -> Result<InstantSolution, EvalError> {
        if inputs.len() != self.input_names.len() {
            return Err(EvalError::InputArity {
                expected: self.input_names.len(),
                got: inputs.len(),
            });
        }
        let mut signals = vec![Value::Unknown; self.n_signals];
        signals[..inputs.len()].clone_from_slice(inputs);
        for (d, delay) in self.delays.iter().enumerate() {
            signals[self.delay_base + d] = delay.output().clone();
        }
        let started = self.obs.as_ref().map(|o| {
            o.journal
                .record(jtobs::EventKind::InstantBegin { instant: self.instant_count });
            std::time::Instant::now()
        });
        let _instant_span = self.obs.as_ref().map(|o| o.registry.span("asr.instant"));
        let stats = match fixpoint::solve(self, &mut signals, self.strategy, self.obs.as_ref()) {
            Ok(stats) => stats,
            Err(e) => {
                if let Some(o) = &self.obs {
                    o.journal.record(jtobs::EventKind::Abort {
                        layer: "asr".to_string(),
                        message: e.to_string(),
                    });
                }
                return Err(e);
            }
        };
        if let Some(o) = &self.obs {
            let settled = signals.iter().filter(|v| !v.is_unknown()).count() as u64;
            o.settled.record(settled);
            let wall_ns = started.map_or(0, |t0| t0.elapsed().as_nanos() as u64);
            o.journal.record(jtobs::EventKind::InstantEnd {
                instant: self.instant_count,
                settled,
                wall_ns,
            });
            if let Some(bound_ns) = self.deadline_ns {
                o.deadline.observe(wall_ns, bound_ns);
            }
        }
        Ok(InstantSolution { signals, stats })
    }

    /// Commits a previously computed [`InstantSolution`]: latches every
    /// delay with the value observed at its input and runs every block's
    /// [`Block::tick`] hook with its final input values.
    ///
    /// # Errors
    ///
    /// [`EvalError::UnknownDelayInput`] if a delay input stayed ⊥ (a
    /// non-constructive delay-free cycle feeding a delay), or a block
    /// error from a `tick` hook.
    pub fn commit(&mut self, solution: &InstantSolution) -> Result<(), EvalError> {
        for (d, &sig) in self.delay_in_sig.iter().enumerate() {
            if solution.signals[sig].is_unknown() {
                return Err(EvalError::UnknownDelayInput(DelayId(d)));
            }
        }
        let ins = &mut self.scratch.get_mut().expect("eval scratch lock").in_vals;
        for (b, block) in self.blocks.iter_mut().enumerate() {
            ins.clear();
            ins.extend(
                self.block_in_sigs[b]
                    .iter()
                    .map(|&s| solution.signals[s].clone()),
            );
            block.tick(ins).map_err(|e| EvalError::Block {
                block: BlockId(b),
                message: e.message().to_string(),
            })?;
        }
        for (d, &sig) in self.delay_in_sig.iter().enumerate() {
            self.delays[d].latch(solution.signals[sig].clone());
        }
        self.instant_count += 1;
        if let Some(o) = &self.obs {
            o.instants.inc();
        }
        Ok(())
    }

    /// Runs one complete instant: evaluate, commit, and return the
    /// external output values.
    ///
    /// # Errors
    ///
    /// Any [`EvalError`] from [`Self::eval_instant`] or [`Self::commit`].
    pub fn react(&mut self, inputs: &[Value]) -> Result<Vec<Value>, EvalError> {
        let solution = self.eval_instant(inputs)?;
        self.commit(&solution)?;
        // Discard nested stats accumulated by composite blocks this
        // instant so a later traced instant does not inherit them.
        let _ = self.drain_nested_stats();
        Ok(self.outputs_of(&solution))
    }

    /// Drains the fixed-point statistics that composite blocks
    /// accumulated (via their nested systems) since the last drain.
    pub(crate) fn drain_nested_stats(&self) -> FixpointStats {
        let mut stats = FixpointStats::default();
        for block in &self.blocks {
            stats.merge(&block.take_nested_stats());
        }
        stats
    }

    /// Like [`Self::react`], but also returns the full hierarchical record
    /// of the instant (every signal value, plus the sub-instant trees of
    /// composite blocks — paper Fig. 4).
    ///
    /// # Errors
    ///
    /// Any [`EvalError`] from [`Self::eval_instant`] or [`Self::commit`].
    pub fn react_traced(
        &mut self,
        inputs: &[Value],
    ) -> Result<(Vec<Value>, InstantRecord), EvalError> {
        let solution = self.eval_instant(inputs)?;
        self.commit(&solution)?;
        let mut record = InstantRecord::new(format!(
            "{}@{}",
            self.name,
            self.instant_count.saturating_sub(1)
        ));
        record.stats = *solution.stats();
        // Fold in the cost of composite-block fixed points computed
        // *during* this instant (spatial hierarchy); committed
        // sub-instants (temporal hierarchy) carry their own stats in the
        // child records collected below.
        record.stats.merge(&self.drain_nested_stats());
        for (sig, v) in solution.signals.iter().enumerate() {
            record.signals.insert(self.signal_name(sig), v.clone());
        }
        for block in &mut self.blocks {
            record.children.extend(block.take_subtrace());
        }
        Ok((self.outputs_of(&solution), record))
    }

    /// Runs a sequence of instants, producing a [`Trace`].
    ///
    /// # Errors
    ///
    /// Stops at the first [`EvalError`].
    pub fn run(&mut self, input_sequence: &[Vec<Value>]) -> Result<Trace, EvalError> {
        let mut trace = Trace::default();
        for inputs in input_sequence {
            let (_, record) = self.react_traced(inputs)?;
            trace.instants.push(record);
        }
        Ok(trace)
    }

    /// Extracts the external output values of a solution.
    pub fn outputs_of(&self, solution: &InstantSolution) -> Vec<Value> {
        self.out_sig
            .iter()
            .map(|&s| solution.signals[s].clone())
            .collect()
    }

    /// Restores every delay to its initial value and resets block state
    /// and the instant counter.
    pub fn reset(&mut self) {
        for d in &mut self.delays {
            d.reset();
        }
        for b in &mut self.blocks {
            b.reset();
        }
        self.instant_count = 0;
    }

    /// Snapshots everything that persists across instants.
    pub fn save_state(&self) -> SystemState {
        SystemState {
            delays: self.delays.iter().map(|d| d.output().clone()).collect(),
            blocks: self.blocks.iter().map(|b| b.save_state()).collect(),
        }
    }

    /// Restores a snapshot taken with [`Self::save_state`].
    ///
    /// # Errors
    ///
    /// [`EvalError::Block`] if the snapshot shape does not match.
    pub fn restore_state(&mut self, state: &SystemState) -> Result<(), EvalError> {
        if state.delays.len() != self.delays.len() || state.blocks.len() != self.blocks.len() {
            return Err(EvalError::Block {
                block: BlockId(0),
                message: "state snapshot shape mismatch".to_string(),
            });
        }
        for (d, v) in self.delays.iter_mut().zip(&state.delays) {
            d.set_output(v.clone());
        }
        for (b, (block, s)) in self.blocks.iter_mut().zip(&state.blocks).enumerate() {
            block.restore_state(s).map_err(|e| EvalError::Block {
                block: BlockId(b),
                message: e.message().to_string(),
            })?;
        }
        Ok(())
    }

    /// Inlines every spatial composite block
    /// ([`crate::hierarchy::CompositeBlock`]) into one flat system, so
    /// nested systems stop paying per-instant recursion and
    /// boxed-dispatch cost and the whole graph is covered by a single
    /// [`ExecPlan`]. Applied recursively; temporal composites stay
    /// opaque (their sub-instant structure is behavior, not wiring).
    ///
    /// Flattening is semantics-preserving: the least fixed point of the
    /// flat system restricted to the external outputs equals the nested
    /// one (paper Fig. 5 — an aggregation of blocks is functionally
    /// equivalent to a single block). A degenerate *pass-through cycle* —
    /// a composite output wired, through nothing but composite
    /// boundaries, back into its own inputs — has no defining block and
    /// stays ⊥ in the nested semantics; the flat system preserves this
    /// with a synthetic 0-ary block whose output is never determined.
    ///
    /// The number of composites inlined is reported by
    /// [`Self::inlined_blocks`] (and the `asr.plan.inlined_blocks` gauge).
    #[must_use]
    pub fn flatten(mut self) -> System {
        // Recursively flatten the systems captured inside composite
        // blocks, taking them out of their (hollowed, then discarded)
        // wrappers.
        let mut inners: Vec<Option<System>> = self
            .blocks
            .iter_mut()
            .map(|blk| blk.take_inner_system().map(System::flatten))
            .collect();
        if inners.iter().all(Option::is_none) {
            return self;
        }
        let inlined = self.inlined_blocks
            + inners
                .iter()
                .flatten()
                .map(|s| 1 + s.inlined_blocks)
                .sum::<usize>();

        let mut builder = SystemBuilder::new(self.name.clone());
        for n in &self.input_names {
            builder.add_input(n.clone());
        }

        // New ids for every surviving block and delay.
        let mut outer_block_id: Vec<Option<BlockId>> = vec![None; self.block_in_sigs.len()];
        let mut inner_block_id: Vec<Vec<BlockId>> = vec![Vec::new(); self.block_in_sigs.len()];
        let mut inner_delay_id: Vec<Vec<DelayId>> = vec![Vec::new(); self.block_in_sigs.len()];
        let blocks = std::mem::take(&mut self.blocks);
        for (i, blk) in blocks.into_iter().enumerate() {
            match &mut inners[i] {
                None => outer_block_id[i] = Some(builder.add_boxed_block(blk)),
                Some(inner) => {
                    let comp_name = blk.name().to_string();
                    inner_block_id[i] = std::mem::take(&mut inner.blocks)
                        .into_iter()
                        .map(|ib| builder.add_boxed_block(ib))
                        .collect();
                    inner_delay_id[i] = inner
                        .delays
                        .iter()
                        .map(|d| {
                            builder
                                .add_delay(format!("{comp_name}.{}", d.name()), d.initial().clone())
                        })
                        .collect();
                }
            }
        }
        let outer_delay_id: Vec<DelayId> = self
            .delays
            .iter()
            .map(|d| builder.add_delay(d.name().to_string(), d.initial().clone()))
            .collect();
        for n in &self.output_names {
            builder.add_output(n.clone());
        }

        // Resolve every signal of every (outer or inlined-inner) signal
        // space to its ultimate flat source, memoized. Composite
        // boundaries are pure wiring, so resolution recurses through
        // them; an in-progress re-entry is a pass-through cycle.
        #[derive(Clone, Copy)]
        enum R {
            Unvisited,
            InProgress,
            Done(Source),
        }
        struct Resolver<'a> {
            outer: &'a System,
            inners: &'a [Option<System>],
            /// Memo offset of each composite's inner signal space
            /// (outer occupies `0..outer.n_signals`).
            inner_base: Vec<usize>,
            outer_block_id: &'a [Option<BlockId>],
            inner_block_id: &'a [Vec<BlockId>],
            inner_delay_id: &'a [Vec<DelayId>],
            outer_delay_id: &'a [DelayId],
            memo: Vec<R>,
        }
        impl Resolver<'_> {
            /// Emits the ⊥ placeholder for a pass-through cycle hit at
            /// memo slot `key`.
            fn bottom(&mut self, builder: &mut SystemBuilder, key: usize) -> Source {
                let id = builder.add_block(BottomBlock);
                let src = Source::Block(id, 0);
                self.memo[key] = R::Done(src);
                src
            }

            fn resolve_outer(&mut self, sig: usize, builder: &mut SystemBuilder) -> Source {
                match self.memo[sig] {
                    R::Done(src) => return src,
                    R::InProgress => return self.bottom(builder, sig),
                    R::Unvisited => self.memo[sig] = R::InProgress,
                }
                let outer = self.outer;
                let src = if sig < outer.input_names.len() {
                    Source::Ext(InputId(sig))
                } else if sig >= outer.delay_base {
                    Source::Delay(self.outer_delay_id[sig - outer.delay_base])
                } else {
                    let b = match outer.block_out_base.binary_search(&sig) {
                        Ok(i) => i,
                        Err(i) => i - 1,
                    };
                    let port = sig - outer.block_out_base[b];
                    match (&self.inners[b], self.outer_block_id[b]) {
                        (None, Some(id)) => Source::Block(id, port),
                        (Some(inner), _) => {
                            let inner_sig = inner.out_sig[port];
                            self.resolve_inner(b, inner_sig, builder)
                        }
                        (None, None) => unreachable!("plain block without a new id"),
                    }
                };
                self.memo[sig] = R::Done(src);
                src
            }

            fn resolve_inner(
                &mut self,
                comp: usize,
                sig: usize,
                builder: &mut SystemBuilder,
            ) -> Source {
                let base = self.inner_base[comp];
                let key = base + sig;
                match self.memo[key] {
                    R::Done(src) => return src,
                    R::InProgress => return self.bottom(builder, key),
                    R::Unvisited => self.memo[key] = R::InProgress,
                }
                enum Kind {
                    FromOuter(usize),
                    Delay(usize),
                    Block(usize, usize),
                }
                let kind = {
                    let inner = self.inners[comp].as_ref().expect("composite has inner");
                    if sig < inner.input_names.len() {
                        Kind::FromOuter(self.outer.block_in_sigs[comp][sig])
                    } else if sig >= inner.delay_base {
                        Kind::Delay(sig - inner.delay_base)
                    } else {
                        let b = match inner.block_out_base.binary_search(&sig) {
                            Ok(i) => i,
                            Err(i) => i - 1,
                        };
                        Kind::Block(b, sig - inner.block_out_base[b])
                    }
                };
                let src = match kind {
                    Kind::FromOuter(outer_sig) => self.resolve_outer(outer_sig, builder),
                    Kind::Delay(d) => Source::Delay(self.inner_delay_id[comp][d]),
                    Kind::Block(b, port) => Source::Block(self.inner_block_id[comp][b], port),
                };
                self.memo[key] = R::Done(src);
                src
            }
        }

        let mut inner_base = Vec::with_capacity(inners.len());
        let mut next_base = self.n_signals;
        for inner in &inners {
            inner_base.push(next_base);
            next_base += inner.as_ref().map_or(0, |s| s.n_signals);
        }
        let mut resolver = Resolver {
            outer: &self,
            inners: &inners,
            inner_base,
            outer_block_id: &outer_block_id,
            inner_block_id: &inner_block_id,
            inner_delay_id: &inner_delay_id,
            outer_delay_id: &outer_delay_id,
            memo: vec![R::Unvisited; next_base],
        };

        // Re-wire every sink of the flat graph.
        let connect = "flattening preserves well-formedness";
        for (i, in_sigs) in self.block_in_sigs.iter().enumerate() {
            match &inners[i] {
                None => {
                    let id = outer_block_id[i].expect("plain block has a new id");
                    for (p, &sig) in in_sigs.iter().enumerate() {
                        let src = resolver.resolve_outer(sig, &mut builder);
                        builder.connect(src, Sink::Block(id, p)).expect(connect);
                    }
                }
                Some(inner) => {
                    for (jb, jin) in inner.block_in_sigs.iter().enumerate() {
                        for (p, &sig) in jin.iter().enumerate() {
                            let src = resolver.resolve_inner(i, sig, &mut builder);
                            builder
                                .connect(src, Sink::Block(inner_block_id[i][jb], p))
                                .expect(connect);
                        }
                    }
                    for (d, &sig) in inner.delay_in_sig.iter().enumerate() {
                        let src = resolver.resolve_inner(i, sig, &mut builder);
                        builder
                            .connect(src, Sink::Delay(inner_delay_id[i][d]))
                            .expect(connect);
                    }
                }
            }
        }
        for (d, &sig) in self.delay_in_sig.iter().enumerate() {
            let src = resolver.resolve_outer(sig, &mut builder);
            builder
                .connect(src, Sink::Delay(outer_delay_id[d]))
                .expect(connect);
        }
        for (o, &sig) in self.out_sig.iter().enumerate() {
            let src = resolver.resolve_outer(sig, &mut builder);
            builder.connect(src, Sink::Ext(OutputId(o))).expect(connect);
        }

        let mut flat = builder.build().expect("flattening preserves well-formedness");
        // Carry over everything that persists across instants: delay
        // contents (block state moved with the boxes) plus the bookkeeping
        // the environment observes.
        for (i, inner) in inners.iter().enumerate() {
            if let Some(inner) = inner {
                for (d, delay) in inner.delays.iter().enumerate() {
                    flat.delays[inner_delay_id[i][d].index()].set_output(delay.output().clone());
                }
            }
        }
        for (d, delay) in self.delays.iter().enumerate() {
            flat.delays[outer_delay_id[d].index()].set_output(delay.output().clone());
        }
        flat.inlined_blocks = inlined;
        flat.strategy = self.strategy;
        flat.parallel_threshold = self.parallel_threshold;
        flat.instant_count = self.instant_count;
        flat.deadline_ns = self.deadline_ns;
        flat
    }
}

/// Default [`System::parallel_threshold`]: levels narrower than this are
/// not worth handing to worker threads.
pub const DEFAULT_PARALLEL_THRESHOLD: usize = 4;

/// Synthetic 0-in/1-out block emitted by [`System::flatten`] for a
/// degenerate pass-through cycle (a composite output wired, through
/// nothing but composite boundaries, back into its own inputs). Such a
/// signal has no defining block, so it stays ⊥ in the nested semantics;
/// this block never writes its output, preserving that exactly.
#[derive(Debug)]
struct BottomBlock;

impl Block for BottomBlock {
    fn name(&self) -> &str {
        "⊥"
    }

    fn input_arity(&self) -> usize {
        0
    }

    fn output_arity(&self) -> usize {
        1
    }

    fn eval(&self, _inputs: &[Value], _outputs: &mut [Value]) -> Result<(), BlockError> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stock;

    fn adder_pair() -> System {
        let mut b = SystemBuilder::new("s");
        let x = b.add_input("x");
        let y = b.add_input("y");
        let a1 = b.add_block(stock::add("a1"));
        let a2 = b.add_block(stock::add("a2"));
        let out = b.add_output("o");
        b.connect(Source::ext(x), Sink::block(a1, 0)).unwrap();
        b.connect(Source::ext(y), Sink::block(a1, 1)).unwrap();
        b.connect(Source::block(a1, 0), Sink::block(a2, 0)).unwrap();
        b.connect(Source::ext(y), Sink::block(a2, 1)).unwrap();
        b.connect(Source::block(a2, 0), Sink::ext(out)).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn feedforward_reaction() {
        let mut s = adder_pair();
        assert_eq!(s.react(&[Value::int(1), Value::int(2)]).unwrap(), vec![Value::int(5)]);
        assert_eq!(s.react(&[Value::int(10), Value::int(-3)]).unwrap(), vec![Value::int(4)]);
        assert_eq!(s.instants_elapsed(), 2);
    }

    #[test]
    fn counter_with_delay_accumulates() {
        // out = delayed sum; sum = out + in. Classic accumulator.
        let mut b = SystemBuilder::new("acc");
        let i = b.add_input("in");
        let add = b.add_block(stock::add("sum"));
        let d = b.add_delay("state", Value::int(0));
        let o = b.add_output("acc");
        b.connect(Source::ext(i), Sink::block(add, 0)).unwrap();
        b.connect(Source::delay(d), Sink::block(add, 1)).unwrap();
        b.connect(Source::block(add, 0), Sink::delay(d)).unwrap();
        b.connect(Source::block(add, 0), Sink::ext(o)).unwrap();
        let mut s = b.build().unwrap();
        let outs: Vec<i64> = (1..=5)
            .map(|k| s.react(&[Value::int(k)]).unwrap()[0].as_int().unwrap())
            .collect();
        assert_eq!(outs, vec![1, 3, 6, 10, 15]);
        s.reset();
        assert_eq!(s.react(&[Value::int(1)]).unwrap()[0], Value::int(1));
    }

    #[test]
    fn unconnected_block_input_rejected() {
        let mut b = SystemBuilder::new("bad");
        let _x = b.add_input("x");
        let a = b.add_block(stock::add("a"));
        let o = b.add_output("o");
        b.connect(Source::ext(InputId(0)), Sink::block(a, 0)).unwrap();
        b.connect(Source::block(a, 0), Sink::ext(o)).unwrap();
        assert_eq!(
            b.build().unwrap_err(),
            BuildSystemError::UnconnectedBlockInput {
                block: BlockId(0),
                port: 1
            }
        );
    }

    #[test]
    fn double_driver_rejected() {
        let mut b = SystemBuilder::new("bad");
        let x = b.add_input("x");
        let y = b.add_input("y");
        let o = b.add_output("o");
        b.connect(Source::ext(x), Sink::ext(o)).unwrap();
        let err = b.connect(Source::ext(y), Sink::ext(o)).unwrap_err();
        assert!(matches!(err, BuildSystemError::SinkAlreadyDriven(_)));
    }

    #[test]
    fn bad_references_rejected() {
        let mut b = SystemBuilder::new("bad");
        let a = b.add_block(stock::add("a"));
        assert!(matches!(
            b.connect(Source::block(a, 5), Sink::block(a, 0)),
            Err(BuildSystemError::NoSuchEntity(_))
        ));
        assert!(matches!(
            b.connect(Source::block(BlockId(9), 0), Sink::block(a, 0)),
            Err(BuildSystemError::NoSuchEntity(_))
        ));
        assert!(matches!(
            b.connect(Source::block(a, 0), Sink::block(a, 7)),
            Err(BuildSystemError::NoSuchEntity(_))
        ));
        assert!(matches!(
            b.connect(Source::delay(DelayId(0)), Sink::block(a, 0)),
            Err(BuildSystemError::NoSuchEntity(_))
        ));
        assert!(matches!(
            b.connect(Source::block(a, 0), Sink::delay(DelayId(3))),
            Err(BuildSystemError::NoSuchEntity(_))
        ));
        assert!(matches!(
            b.connect(Source::ext(InputId(0)), Sink::block(a, 0)),
            Err(BuildSystemError::NoSuchEntity(_))
        ));
        assert!(matches!(
            b.connect(Source::block(a, 0), Sink::ext(OutputId(0))),
            Err(BuildSystemError::NoSuchEntity(_))
        ));
    }

    #[test]
    fn duplicate_port_names_rejected() {
        let mut b = SystemBuilder::new("bad");
        let x = b.add_input("x");
        let _x2 = b.add_input("x");
        let o = b.add_output("o");
        b.connect(Source::ext(x), Sink::ext(o)).unwrap();
        assert_eq!(
            b.build().unwrap_err(),
            BuildSystemError::DuplicatePortName("x".to_string())
        );
    }

    #[test]
    fn input_arity_and_unknown_input_errors() {
        let mut s = adder_pair();
        assert_eq!(
            s.react(&[Value::int(1)]).unwrap_err(),
            EvalError::InputArity { expected: 2, got: 1 }
        );
        assert_eq!(
            s.react(&[Value::int(1), Value::Unknown]).unwrap_err(),
            EvalError::UnknownInput(InputId(1))
        );
    }

    #[test]
    fn signal_names_are_stable() {
        let s = adder_pair();
        let names: Vec<String> = (0..s.num_signals()).map(|i| s.signal_name(i)).collect();
        assert_eq!(names, vec!["x", "y", "a1", "a2"]);
    }

    #[test]
    fn save_and_restore_state_round_trip() {
        let mut b = SystemBuilder::new("acc");
        let i = b.add_input("in");
        let add = b.add_block(stock::add("sum"));
        let d = b.add_delay("state", Value::int(0));
        let o = b.add_output("acc");
        b.connect(Source::ext(i), Sink::block(add, 0)).unwrap();
        b.connect(Source::delay(d), Sink::block(add, 1)).unwrap();
        b.connect(Source::block(add, 0), Sink::delay(d)).unwrap();
        b.connect(Source::block(add, 0), Sink::ext(o)).unwrap();
        let mut s = b.build().unwrap();
        s.react(&[Value::int(5)]).unwrap();
        let snap = s.save_state();
        s.react(&[Value::int(5)]).unwrap();
        assert_eq!(s.react(&[Value::int(0)]).unwrap()[0], Value::int(10));
        s.restore_state(&snap).unwrap();
        assert_eq!(s.react(&[Value::int(0)]).unwrap()[0], Value::int(5));
    }

    #[test]
    fn flatten_without_composites_is_identity() {
        let mut nested = adder_pair();
        let mut flat = adder_pair().flatten();
        assert_eq!(flat.inlined_blocks(), 0);
        assert_eq!(flat.num_blocks(), nested.num_blocks());
        let inputs = [Value::int(3), Value::int(4)];
        assert_eq!(flat.react(&inputs).unwrap(), nested.react(&inputs).unwrap());
    }

    #[test]
    fn flatten_inlines_doubly_nested_composites() {
        use crate::hierarchy::CompositeBlock;

        // innermost: o = x * 3, wrapped twice (plus an offset at depth 1).
        fn build() -> System {
            let mut b0 = SystemBuilder::new("inner0");
            let x = b0.add_input("x");
            let g = b0.add_block(stock::gain("g", 3));
            let o = b0.add_output("o");
            b0.connect(Source::ext(x), Sink::block(g, 0)).unwrap();
            b0.connect(Source::block(g, 0), Sink::ext(o)).unwrap();
            let inner0 = CompositeBlock::new(b0.build().unwrap()).unwrap();

            let mut b1 = SystemBuilder::new("inner1");
            let x = b1.add_input("x");
            let c0 = b1.add_block(inner0);
            let off = b1.add_block(stock::offset("off", 1));
            let o = b1.add_output("o");
            b1.connect(Source::ext(x), Sink::block(c0, 0)).unwrap();
            b1.connect(Source::block(c0, 0), Sink::block(off, 0)).unwrap();
            b1.connect(Source::block(off, 0), Sink::ext(o)).unwrap();
            let inner1 = CompositeBlock::new(b1.build().unwrap()).unwrap();

            let mut b2 = SystemBuilder::new("top");
            let x = b2.add_input("x");
            let c1 = b2.add_block(inner1);
            let o = b2.add_output("o");
            b2.connect(Source::ext(x), Sink::block(c1, 0)).unwrap();
            b2.connect(Source::block(c1, 0), Sink::ext(o)).unwrap();
            b2.build().unwrap()
        }
        let mut nested = build();
        let mut flat = build().flatten();
        assert_eq!(flat.inlined_blocks(), 2);
        assert_eq!(flat.num_blocks(), 2, "gain + offset, no wrappers");
        for k in [-5, 0, 7] {
            assert_eq!(
                flat.react(&[Value::int(k)]).unwrap(),
                nested.react(&[Value::int(k)]).unwrap()
            );
        }
    }

    #[test]
    fn flatten_preserves_bottom_on_pass_through_cycle() {
        use crate::hierarchy::CompositeBlock;

        // A composite that is pure wiring (o = x), with its output fed
        // back into its own input: no block defines the signal, so it
        // stays ⊥ — flattened or not.
        fn build() -> System {
            let mut ib = SystemBuilder::new("wire");
            let x = ib.add_input("x");
            let o = ib.add_output("o");
            ib.connect(Source::ext(x), Sink::ext(o)).unwrap();
            let comp = CompositeBlock::new(ib.build().unwrap()).unwrap();
            let mut b = SystemBuilder::new("loopy");
            let c = b.add_block(comp);
            let o = b.add_output("o");
            b.connect(Source::block(c, 0), Sink::block(c, 0)).unwrap();
            b.connect(Source::block(c, 0), Sink::ext(o)).unwrap();
            b.build().unwrap()
        }
        let nested_out = build().eval_instant(&[]).map(|s| build().outputs_of(&s));
        let flat = build().flatten();
        let flat_out = flat.eval_instant(&[]).map(|s| flat.outputs_of(&s));
        assert_eq!(nested_out.unwrap(), vec![Value::Unknown]);
        assert_eq!(flat_out.unwrap(), vec![Value::Unknown]);
    }

    #[test]
    fn flatten_carries_delay_state_and_counters() {
        use crate::hierarchy::CompositeBlock;

        fn build() -> System {
            let mut ib = SystemBuilder::new("double");
            let x = ib.add_input("x");
            let g = ib.add_block(stock::gain("g", 2));
            let o = ib.add_output("o");
            ib.connect(Source::ext(x), Sink::block(g, 0)).unwrap();
            ib.connect(Source::block(g, 0), Sink::ext(o)).unwrap();
            let comp = CompositeBlock::new(ib.build().unwrap()).unwrap();
            let mut b = SystemBuilder::new("acc2");
            let i = b.add_input("in");
            let c = b.add_block(comp);
            let add = b.add_block(stock::add("sum"));
            let d = b.add_delay("state", Value::int(0));
            let o = b.add_output("acc");
            b.connect(Source::ext(i), Sink::block(c, 0)).unwrap();
            b.connect(Source::block(c, 0), Sink::block(add, 0)).unwrap();
            b.connect(Source::delay(d), Sink::block(add, 1)).unwrap();
            b.connect(Source::block(add, 0), Sink::delay(d)).unwrap();
            b.connect(Source::block(add, 0), Sink::ext(o)).unwrap();
            b.build().unwrap()
        }
        // Advance two instants, then flatten mid-run: the delay's latched
        // value and the instant counter must carry over.
        let mut sys = build();
        sys.react(&[Value::int(1)]).unwrap();
        sys.react(&[Value::int(2)]).unwrap();
        let mut flat = sys.flatten();
        assert_eq!(flat.instants_elapsed(), 2);
        assert_eq!(flat.react(&[Value::int(3)]).unwrap()[0], Value::int(12));
    }

    #[test]
    fn outputs_can_alias_inputs_directly() {
        let mut b = SystemBuilder::new("wire");
        let x = b.add_input("x");
        let o = b.add_output("o");
        b.connect(Source::ext(x), Sink::ext(o)).unwrap();
        let mut s = b.build().unwrap();
        assert_eq!(s.react(&[Value::Absent]).unwrap(), vec![Value::Absent]);
    }
}
