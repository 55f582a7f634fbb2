//! The event journal: a bounded ring buffer of typed execution events.
//!
//! Where metrics aggregate (*how many* block evals) and spans time
//! (*how long* a phase took), the journal records *what happened, in
//! order*: instants beginning and ending, plan levels dispatching,
//! individual block evaluations, VM reactions, scheduler explorations,
//! refinement rule checks. The last N events are always available for a
//! post-mortem flight-recorder dump ([`crate::snapshot`]), and a full
//! run's journal can be exported as JSONL and diffed across execution
//! strategies ([`Event::to_json_line`], the `jt_trace` example).
//!
//! Events carry a [`EventClass`]:
//!
//! * `sem` (semantic) — events that describe *what* the run computed.
//!   For equivalent runs these must match exactly once volatile fields
//!   ([`VOLATILE_FIELDS`]: sequence numbers, timestamps, durations) are
//!   stripped; in particular `Strategy::Staged` and
//!   `Strategy::Parallel` produce identical semantic event streams.
//! * `sched` — scheduling detail (worker fan-out, steal counts) that
//!   legitimately differs between strategies and worker counts.
//! * `timing` — wall-clock judgements (deadline overruns) that depend
//!   on machine speed.
//!
//! The journal is recorded only by instrumented code paths, which are
//! all gated behind `Option<…Obs>` handles or [`crate::ENABLED`], so
//! with the `telemetry` feature off the journal type is zero-sized and
//! no event is ever constructed.

use crate::json::Json;
use std::fmt::Write as _;

/// Event category; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventClass {
    /// Strategy-independent description of the computation.
    Semantic,
    /// Scheduling detail (may differ across strategies / worker counts).
    Sched,
    /// Wall-clock judgement (machine dependent).
    Timing,
}

impl EventClass {
    /// Short tag used in the JSONL `class` field.
    pub fn as_str(self) -> &'static str {
        match self {
            EventClass::Semantic => "sem",
            EventClass::Sched => "sched",
            EventClass::Timing => "timing",
        }
    }
}

/// JSONL field names whose values are volatile — timing- or
/// interleaving-dependent — and must be ignored when comparing journals
/// for semantic equivalence.
pub const VOLATILE_FIELDS: &[&str] = &["seq", "ts_ns", "dur_ns", "wall_ns", "measured_ns", "steals"];

/// One typed journal event. Field conventions: ids are plan/block
/// indices, `*_ns` are nanoseconds, counts are exact.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// An ASR instant started (`System::eval_instant`).
    InstantBegin { instant: u64 },
    /// The instant's fixed point was reached; `settled` counts non-⊥
    /// signals, `wall_ns` is the measured solve time.
    InstantEnd { instant: u64, settled: u64, wall_ns: u64 },
    /// A plan level was dispatched: `once` acyclic strata and `cyclic`
    /// SCC strata at depth `level`.
    LevelBegin { level: u32, once: u32, cyclic: u32 },
    /// One block evaluation (both staged and parallel record these in
    /// deterministic plan order; `dur_ns` is 0 when not timed).
    BlockEval { block: u32, name: String, dur_ns: u64 },
    /// A cyclic stratum reached its local fixed point after `pops`
    /// worklist pops.
    CyclicSettle { stratum: u32, pops: u64 },
    /// A level was fanned out to `workers` parallel workers
    /// (class `sched`; `steals` sums work-steal grabs beyond each
    /// worker's initial chunk).
    ParallelLevel { level: u32, workers: u32, steals: u64 },
    /// A block evaluation panicked (recorded by a drop guard while the
    /// panic unwinds, so the flight recorder names the culprit).
    BlockPanic { block: u32, name: String },
    /// A layer aborted with an error (`layer` is e.g. `asr`, `jtvm`).
    Abort { layer: String, message: String },
    /// A VM reaction started (`engine` is `vm` or `interp`).
    VmReactBegin { engine: String },
    /// A VM reaction finished: metered `steps`, heap `allocs`, and the
    /// high-water call `max_depth` — all deterministic per program.
    VmReactEnd { engine: String, steps: u64, allocs: u64, max_depth: u64 },
    /// A scheduler exploration finished (state-space summary).
    SchedExplore { states: u64, schedules: u64, distinct: u64, truncated: bool },
    /// A policy check ran and found `violations` violations.
    SfrCheck { violations: u64 },
    /// A program transform was applied (`changed` = it rewrote the AST).
    SfrTransform { name: String, changed: bool },
    /// Measured time exceeded the configured bound for `scope`
    /// (class `timing`).
    DeadlineOverrun { scope: String, measured_ns: u64, bound_ns: u64 },
}

impl EventKind {
    /// The event's class; see [`EventClass`].
    pub fn class(&self) -> EventClass {
        match self {
            EventKind::ParallelLevel { .. } => EventClass::Sched,
            EventKind::DeadlineOverrun { .. } => EventClass::Timing,
            _ => EventClass::Semantic,
        }
    }

    /// Snake-case tag used in the JSONL `kind` field.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::InstantBegin { .. } => "instant_begin",
            EventKind::InstantEnd { .. } => "instant_end",
            EventKind::LevelBegin { .. } => "level",
            EventKind::BlockEval { .. } => "block_eval",
            EventKind::CyclicSettle { .. } => "cyclic_settle",
            EventKind::ParallelLevel { .. } => "parallel_level",
            EventKind::BlockPanic { .. } => "block_panic",
            EventKind::Abort { .. } => "abort",
            EventKind::VmReactBegin { .. } => "vm_react_begin",
            EventKind::VmReactEnd { .. } => "vm_react_end",
            EventKind::SchedExplore { .. } => "sched_explore",
            EventKind::SfrCheck { .. } => "sfr_check",
            EventKind::SfrTransform { .. } => "sfr_transform",
            EventKind::DeadlineOverrun { .. } => "deadline_overrun",
        }
    }

    /// `(stable, volatile)` fields. Stable fields define the event's
    /// semantic identity; volatile fields (all `u64`, all listed in
    /// [`VOLATILE_FIELDS`]) vary run to run.
    #[allow(clippy::type_complexity)]
    fn fields(&self) -> (Vec<(&'static str, Json)>, Vec<(&'static str, u64)>) {
        match self {
            EventKind::InstantBegin { instant } => (vec![("instant", Json::from(*instant))], vec![]),
            EventKind::InstantEnd {
                instant,
                settled,
                wall_ns,
            } => (
                vec![("instant", Json::from(*instant)), ("settled", Json::from(*settled))],
                vec![("wall_ns", *wall_ns)],
            ),
            EventKind::LevelBegin { level, once, cyclic } => (
                vec![
                    ("level", Json::from(u64::from(*level))),
                    ("once", Json::from(u64::from(*once))),
                    ("cyclic", Json::from(u64::from(*cyclic))),
                ],
                vec![],
            ),
            EventKind::BlockEval { block, name, dur_ns } => (
                vec![("block", Json::from(u64::from(*block))), ("name", Json::Str(name.clone()))],
                vec![("dur_ns", *dur_ns)],
            ),
            EventKind::CyclicSettle { stratum, pops } => (
                vec![("stratum", Json::from(u64::from(*stratum))), ("pops", Json::from(*pops))],
                vec![],
            ),
            EventKind::ParallelLevel {
                level,
                workers,
                steals,
            } => (
                vec![
                    ("level", Json::from(u64::from(*level))),
                    ("workers", Json::from(u64::from(*workers))),
                ],
                vec![("steals", *steals)],
            ),
            EventKind::BlockPanic { block, name } => (
                vec![("block", Json::from(u64::from(*block))), ("name", Json::Str(name.clone()))],
                vec![],
            ),
            EventKind::Abort { layer, message } => (
                vec![("layer", Json::Str(layer.clone())), ("message", Json::Str(message.clone()))],
                vec![],
            ),
            EventKind::VmReactBegin { engine } => (vec![("engine", Json::Str(engine.clone()))], vec![]),
            EventKind::VmReactEnd {
                engine,
                steps,
                allocs,
                max_depth,
            } => (
                vec![
                    ("engine", Json::Str(engine.clone())),
                    ("steps", Json::from(*steps)),
                    ("allocs", Json::from(*allocs)),
                    ("max_depth", Json::from(*max_depth)),
                ],
                vec![],
            ),
            EventKind::SchedExplore {
                states,
                schedules,
                distinct,
                truncated,
            } => (
                vec![
                    ("states", Json::from(*states)),
                    ("schedules", Json::from(*schedules)),
                    ("distinct", Json::from(*distinct)),
                    ("truncated", Json::Bool(*truncated)),
                ],
                vec![],
            ),
            EventKind::SfrCheck { violations } => (vec![("violations", Json::from(*violations))], vec![]),
            EventKind::SfrTransform { name, changed } => (
                vec![("name", Json::Str(name.clone())), ("changed", Json::Bool(*changed))],
                vec![],
            ),
            EventKind::DeadlineOverrun {
                scope,
                measured_ns,
                bound_ns,
            } => (
                vec![("scope", Json::Str(scope.clone())), ("bound_ns", Json::from(*bound_ns))],
                vec![("measured_ns", *measured_ns)],
            ),
        }
    }

    /// Canonical one-line form of the event's *stable* identity:
    /// `kind key=value …`. Two semantic events describe the same
    /// computation step iff their canonical forms are equal — this is
    /// what the determinism tests and `jt_trace diff` compare.
    pub fn canonical(&self) -> String {
        let mut out = String::from(self.name());
        for (key, val) in self.fields().0 {
            let _ = match val {
                Json::Str(v) => write!(out, " {key}={v}"),
                v => write!(out, " {key}={}", v.render()),
            };
        }
        out
    }
}

/// One journal entry: a monotone sequence number, a timestamp relative
/// to the journal's epoch, and the typed payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Monotone per-journal sequence number (volatile across runs).
    pub seq: u64,
    /// Nanoseconds since the journal epoch (volatile across runs).
    pub ts_ns: u64,
    /// The typed payload.
    pub kind: EventKind,
}

impl Event {
    /// One JSON object on one line, no trailing newline. Volatile
    /// fields (`seq`, `ts_ns`, and any in [`VOLATILE_FIELDS`]) come
    /// first and last respectively; stable fields sit between `kind`
    /// and the trailing volatile group.
    pub fn to_json_line(&self) -> String {
        let (stable, volatile) = self.kind.fields();
        let mut fields: Vec<(String, Json)> = vec![
            ("seq".into(), self.seq.into()),
            ("ts_ns".into(), self.ts_ns.into()),
            ("class".into(), self.kind.class().as_str().into()),
            ("kind".into(), self.kind.name().into()),
        ];
        fields.extend(stable.into_iter().map(|(k, v)| (k.to_string(), v)));
        fields.extend(volatile.into_iter().map(|(k, v)| (k.to_string(), v.into())));
        Json::Obj(fields).render()
    }
}

/// Render a slice of events as JSONL (one event per line).
pub fn to_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&e.to_json_line());
        out.push('\n');
    }
    out
}

/// Default ring capacity: enough for several instants of a mid-sized
/// system without unbounded growth on long runs.
pub const DEFAULT_CAPACITY: usize = 65_536;

#[cfg(feature = "telemetry")]
pub use imp::Journal;

#[cfg(feature = "telemetry")]
mod imp {
    use super::{Event, EventKind, DEFAULT_CAPACITY};
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};
    use std::time::Instant;

    struct Ring {
        capacity: usize,
        events: VecDeque<Event>,
        dropped: u64,
    }

    struct Inner {
        epoch: Instant,
        seq: AtomicU64,
        ring: Mutex<Ring>,
    }

    /// The journal handle. Clones share the same ring; the registry
    /// owns one journal per [`crate::Registry`]
    /// ([`crate::Registry::journal`]), sharing its time epoch so
    /// journal timestamps line up with span timestamps in the Chrome
    /// trace.
    #[derive(Clone)]
    pub struct Journal {
        inner: Arc<Inner>,
    }

    impl std::fmt::Debug for Journal {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("Journal").field("len", &self.len()).finish()
        }
    }

    impl Default for Journal {
        fn default() -> Self {
            Self::new()
        }
    }

    impl Journal {
        /// A standalone journal with its own epoch (tests, ad-hoc use).
        pub fn new() -> Self {
            Self::with_epoch(Instant::now())
        }

        /// A journal whose timestamps are relative to `epoch` (the
        /// registry passes its own start so spans and events share a
        /// clock).
        pub(crate) fn with_epoch(epoch: Instant) -> Self {
            Journal {
                inner: Arc::new(Inner {
                    epoch,
                    seq: AtomicU64::new(0),
                    ring: Mutex::new(Ring {
                        capacity: DEFAULT_CAPACITY,
                        events: VecDeque::new(),
                        dropped: 0,
                    }),
                }),
            }
        }

        /// Append an event, stamping sequence number and timestamp.
        /// When the ring is full the oldest event is dropped (and
        /// counted in [`Self::dropped`]).
        pub fn record(&self, kind: EventKind) {
            let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed);
            let ts_ns = self.inner.epoch.elapsed().as_nanos() as u64;
            let mut ring = self.inner.ring.lock().unwrap();
            if ring.events.len() >= ring.capacity {
                ring.events.pop_front();
                ring.dropped += 1;
            }
            ring.events.push_back(Event { seq, ts_ns, kind });
        }

        /// Snapshot of all retained events, oldest first.
        pub fn events(&self) -> Vec<Event> {
            self.inner.ring.lock().unwrap().events.iter().cloned().collect()
        }

        /// Snapshot of the newest `n` retained events, oldest first.
        pub fn tail(&self, n: usize) -> Vec<Event> {
            let ring = self.inner.ring.lock().unwrap();
            let skip = ring.events.len().saturating_sub(n);
            ring.events.iter().skip(skip).cloned().collect()
        }

        /// Number of retained events.
        pub fn len(&self) -> usize {
            self.inner.ring.lock().unwrap().events.len()
        }

        /// True when nothing has been retained.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Ring capacity (retained-event bound).
        pub fn capacity(&self) -> usize {
            self.inner.ring.lock().unwrap().capacity
        }

        /// Change the ring capacity, evicting oldest events if needed.
        /// A capacity of 0 retains nothing (but still counts drops).
        pub fn set_capacity(&self, capacity: usize) {
            let mut ring = self.inner.ring.lock().unwrap();
            ring.capacity = capacity;
            while ring.events.len() > capacity {
                ring.events.pop_front();
                ring.dropped += 1;
            }
        }

        /// Events evicted because the ring was full.
        pub fn dropped(&self) -> u64 {
            self.inner.ring.lock().unwrap().dropped
        }

        /// Discard all retained events (sequence numbers keep rising).
        pub fn clear(&self) {
            let mut ring = self.inner.ring.lock().unwrap();
            ring.events.clear();
            ring.dropped = 0;
        }

        /// The whole retained journal as JSONL.
        pub fn to_jsonl(&self) -> String {
            super::to_jsonl(&self.events())
        }
    }
}

#[cfg(not(feature = "telemetry"))]
pub use noop::Journal;

#[cfg(not(feature = "telemetry"))]
mod noop {
    use super::{Event, EventKind};

    /// Zero-sized no-op journal: records nothing, returns nothing.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Journal;

    impl Journal {
        #[inline(always)]
        pub fn new() -> Self {
            Journal
        }
        #[inline(always)]
        pub fn record(&self, _kind: EventKind) {}
        #[inline(always)]
        pub fn events(&self) -> Vec<Event> {
            Vec::new()
        }
        #[inline(always)]
        pub fn tail(&self, _n: usize) -> Vec<Event> {
            Vec::new()
        }
        #[inline(always)]
        pub fn len(&self) -> usize {
            0
        }
        #[inline(always)]
        pub fn is_empty(&self) -> bool {
            true
        }
        #[inline(always)]
        pub fn capacity(&self) -> usize {
            0
        }
        #[inline(always)]
        pub fn set_capacity(&self, _capacity: usize) {}
        #[inline(always)]
        pub fn dropped(&self) -> u64 {
            0
        }
        #[inline(always)]
        pub fn clear(&self) {}
        #[inline(always)]
        pub fn to_jsonl(&self) -> String {
            String::new()
        }
    }
}
