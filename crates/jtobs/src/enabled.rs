//! The real (`telemetry`-enabled) implementation.

use crate::json::Json;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A monotone event count. Cheap to clone (an `Arc`'d atomic); hold the
/// handle outside hot loops instead of re-looking it up by name.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value (e.g. bytes currently live).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistStats {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
}

impl HistStats {
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[derive(Debug)]
struct HistData {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    /// log2 buckets: `buckets[i]` counts values with `ilog2(v) == i`
    /// (bucket 0 also holds zero).
    buckets: [u64; 64],
}

impl Default for HistData {
    fn default() -> Self {
        HistData {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: [0; 64],
        }
    }
}

/// A distribution of `u64` samples (span durations land here, in
/// nanoseconds). Tracks count/sum/min/max exactly and the shape in
/// power-of-two buckets.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<Mutex<HistData>>);

impl Histogram {
    pub fn record(&self, value: u64) {
        let mut d = self.0.lock().unwrap();
        if d.count == 0 {
            d.min = value;
            d.max = value;
        } else {
            d.min = d.min.min(value);
            d.max = d.max.max(value);
        }
        d.count += 1;
        d.sum = d.sum.saturating_add(value);
        let bucket = if value == 0 { 0 } else { value.ilog2() as usize };
        d.buckets[bucket] += 1;
    }

    pub fn stats(&self) -> HistStats {
        let d = self.0.lock().unwrap();
        HistStats {
            count: d.count,
            sum: d.sum,
            min: d.min,
            max: d.max,
        }
    }

    /// Approximate quantile (`0.0..=1.0`) from the log2 buckets: returns
    /// an upper bound of the bucket containing the `q`-th sample.
    pub fn approx_quantile(&self, q: f64) -> u64 {
        let d = self.0.lock().unwrap();
        if d.count == 0 {
            return 0;
        }
        let rank = ((d.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &n) in d.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return if i >= 63 { u64::MAX } else { (2u64 << i) - 1 }.min(d.max);
            }
        }
        d.max
    }
}

#[derive(Debug, Clone)]
struct TraceEvent {
    name: String,
    phase: char,
    ts_ns: u64,
    tid: u64,
}

#[derive(Debug, Default)]
struct Tids {
    by_thread: HashMap<std::thread::ThreadId, u64>,
    next: u64,
}

#[derive(Debug)]
struct Inner {
    start: Instant,
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    events: Mutex<Vec<TraceEvent>>,
    tids: Mutex<Tids>,
    journal: crate::journal::Journal,
}

/// The metric store. Clone freely — clones share storage — and attach
/// one to each layer (`System::attach_registry`,
/// `RefinementSession::attach_registry`, …) to collect a unified
/// picture of a whole pipeline run.
#[derive(Debug, Clone)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    pub fn new() -> Self {
        let start = Instant::now();
        Registry {
            inner: Arc::new(Inner {
                start,
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
                events: Mutex::new(Vec::new()),
                tids: Mutex::new(Tids::default()),
                journal: crate::journal::Journal::with_epoch(start),
            }),
        }
    }

    /// The registry's event journal. Clones share the ring; timestamps
    /// share the registry clock, so journal events and span events line
    /// up in the Chrome trace.
    pub fn journal(&self) -> crate::journal::Journal {
        self.inner.journal.clone()
    }

    /// Look up or create the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.inner.counters.lock().unwrap();
        map.entry(name.to_string())
            .or_insert_with(|| Counter(Arc::new(AtomicU64::new(0))))
            .clone()
    }

    /// Look up or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.inner.gauges.lock().unwrap();
        map.entry(name.to_string())
            .or_insert_with(|| Gauge(Arc::new(AtomicI64::new(0))))
            .clone()
    }

    /// Look up or create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.inner.histograms.lock().unwrap();
        map.entry(name.to_string())
            .or_insert_with(|| Histogram(Arc::new(Mutex::new(HistData::default()))))
            .clone()
    }

    /// Start a timed span. The begin event is emitted now; the end event
    /// and a duration sample (nanoseconds, into the histogram named
    /// `name`) are emitted when the returned guard drops. Spans on the
    /// same thread nest by construction, which is exactly the B/E stack
    /// discipline Chrome's trace viewer expects.
    pub fn span(&self, name: &str) -> Span {
        let tid = self.tid();
        let hist = self.histogram(name);
        let ts_ns = self.now_ns();
        self.push_event(TraceEvent {
            name: name.to_string(),
            phase: 'B',
            ts_ns,
            tid,
        });
        Span {
            registry: self.clone(),
            name: name.to_string(),
            hist,
            start_ns: ts_ns,
            tid,
        }
    }

    fn now_ns(&self) -> u64 {
        self.inner.start.elapsed().as_nanos() as u64
    }

    fn tid(&self) -> u64 {
        let mut tids = self.inner.tids.lock().unwrap();
        let id = std::thread::current().id();
        if let Some(&t) = tids.by_thread.get(&id) {
            t
        } else {
            let t = tids.next;
            tids.next += 1;
            tids.by_thread.insert(id, t);
            t
        }
    }

    fn push_event(&self, event: TraceEvent) {
        self.inner.events.lock().unwrap().push(event);
    }

    /// Current value of counter `name` (0 if it was never touched).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.inner
            .counters
            .lock()
            .unwrap()
            .get(name)
            .map_or(0, Counter::get)
    }

    /// Current value of gauge `name` (0 if it was never touched).
    pub fn gauge_value(&self, name: &str) -> i64 {
        self.inner
            .gauges
            .lock()
            .unwrap()
            .get(name)
            .map_or(0, Gauge::get)
    }

    /// Summary stats of histogram `name`, if it exists.
    pub fn histogram_stats(&self, name: &str) -> Option<HistStats> {
        self.inner
            .histograms
            .lock()
            .unwrap()
            .get(name)
            .map(Histogram::stats)
    }

    /// Snapshot of all counters, sorted by name.
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.inner
            .counters
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }

    /// Snapshot of all histogram handles, sorted by name (handles share
    /// storage with the registry, so reading them later sees updates).
    pub fn histograms(&self) -> Vec<(String, Histogram)> {
        self.inner
            .histograms
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Number of trace events recorded so far (B and E count separately).
    pub fn trace_event_count(&self) -> usize {
        self.inner.events.lock().unwrap().len()
    }

    /// Render the Chrome `trace_event` JSON document: an object with a
    /// `traceEvents` array, one event per line (so the file is also
    /// greppable line-wise), timestamps in microseconds. Load it in
    /// `chrome://tracing` or <https://ui.perfetto.dev>.
    pub fn chrome_trace_json(&self) -> String {
        let us = |ts_ns: u64| Json::Float(ts_ns as f64 / 1e3);
        let events = self.inner.events.lock().unwrap();
        let spans = events.iter().map(|e| {
            Json::Obj(vec![
                ("name".into(), e.name.as_str().into()),
                ("cat".into(), "jtobs".into()),
                ("ph".into(), e.phase.to_string().into()),
                ("ts".into(), us(e.ts_ns)),
                ("pid".into(), Json::Num(1)),
                ("tid".into(), e.tid.into()),
            ])
        });
        // Journal events share the registry clock, so they land on the
        // same timeline as the spans, as Chrome "instant" events.
        let instants = self.inner.journal.events().into_iter().map(|j| {
            Json::Obj(vec![
                ("name".into(), j.kind.name().into()),
                ("cat".into(), "journal".into()),
                ("ph".into(), "i".into()),
                ("s".into(), "t".into()),
                ("ts".into(), us(j.ts_ns)),
                ("pid".into(), Json::Num(1)),
                ("tid".into(), Json::Num(0)),
                ("args".into(), Json::Obj(vec![("detail".into(), j.kind.canonical().into())])),
            ])
        });
        crate::chrome_trace_document(spans.chain(instants))
    }

    /// Write [`Self::chrome_trace_json`] to `path`.
    pub fn write_chrome_trace(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.chrome_trace_json())
    }

    /// Human-readable dump of every metric, sorted by name.
    pub fn report(&self) -> String {
        let mut out = String::from("jtobs report\n============\n");
        {
            let counters = self.inner.counters.lock().unwrap();
            if !counters.is_empty() {
                out.push_str("counters\n");
                for (name, c) in counters.iter() {
                    let _ = writeln!(out, "  {name:<52} {}", c.get());
                }
            }
        }
        {
            let gauges = self.inner.gauges.lock().unwrap();
            if !gauges.is_empty() {
                out.push_str("gauges\n");
                for (name, g) in gauges.iter() {
                    let _ = writeln!(out, "  {name:<52} {}", g.get());
                }
            }
        }
        {
            let histograms = self.inner.histograms.lock().unwrap();
            if !histograms.is_empty() {
                out.push_str("histograms (spans in ns)\n");
                for (name, h) in histograms.iter() {
                    let s = h.stats();
                    let _ = writeln!(
                        out,
                        "  {name:<52} n={:<8} mean={:<12.1} min={:<10} max={:<10} p95~{}",
                        s.count,
                        s.mean(),
                        s.min,
                        s.max,
                        h.approx_quantile(0.95)
                    );
                }
            }
        }
        let _ = writeln!(out, "trace events: {}", self.trace_event_count());
        let _ = writeln!(
            out,
            "journal: {} event(s) retained, {} dropped",
            self.inner.journal.len(),
            self.inner.journal.dropped()
        );
        out
    }
}

/// RAII span guard returned by [`Registry::span`]; see there.
#[derive(Debug)]
pub struct Span {
    registry: Registry,
    name: String,
    hist: Histogram,
    start_ns: u64,
    tid: u64,
}

impl Drop for Span {
    fn drop(&mut self) {
        let end_ns = self.registry.now_ns();
        self.hist.record(end_ns.saturating_sub(self.start_ns));
        self.registry.push_event(TraceEvent {
            name: std::mem::take(&mut self.name),
            phase: 'E',
            ts_ns: end_ns,
            tid: self.tid,
        });
    }
}
