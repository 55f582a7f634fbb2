//! No-op mirror of the API, compiled when the `telemetry` feature is
//! off. Every type is zero-sized and every method empty, so call sites
//! keep compiling and optimise to nothing.

use std::io;
use std::path::Path;

#[derive(Debug, Clone, Copy, Default)]
pub struct Counter;

impl Counter {
    #[inline(always)]
    pub fn inc(&self) {}
    #[inline(always)]
    pub fn add(&self, _n: u64) {}
    #[inline(always)]
    pub fn get(&self) -> u64 {
        0
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub struct Gauge;

impl Gauge {
    #[inline(always)]
    pub fn set(&self, _v: i64) {}
    #[inline(always)]
    pub fn add(&self, _delta: i64) {}
    #[inline(always)]
    pub fn get(&self) -> i64 {
        0
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
    #[inline(always)]
    pub fn mean(&self) -> f64 {
        0.0
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub struct Histogram;

impl Histogram {
    #[inline(always)]
    pub fn record(&self, _value: u64) {}
    #[inline(always)]
    pub fn stats(&self) -> HistStats {
        HistStats::default()
    }
    #[inline(always)]
    pub fn approx_quantile(&self, _q: f64) -> u64 {
        0
    }
}

// Clone but deliberately not Copy, so `registry.clone()` call sites
// lint identically whichever implementation is compiled in.
#[derive(Debug, Clone, Default)]
pub struct Registry;

impl Registry {
    #[inline(always)]
    pub fn new() -> Self {
        Registry
    }
    #[inline(always)]
    pub fn counter(&self, _name: &str) -> Counter {
        Counter
    }
    #[inline(always)]
    pub fn gauge(&self, _name: &str) -> Gauge {
        Gauge
    }
    #[inline(always)]
    pub fn histogram(&self, _name: &str) -> Histogram {
        Histogram
    }
    #[inline(always)]
    pub fn span(&self, _name: &str) -> Span {
        Span
    }
    #[inline(always)]
    pub fn counter_value(&self, _name: &str) -> u64 {
        0
    }
    #[inline(always)]
    pub fn gauge_value(&self, _name: &str) -> i64 {
        0
    }
    #[inline(always)]
    pub fn histogram_stats(&self, _name: &str) -> Option<HistStats> {
        None
    }
    #[inline(always)]
    pub fn counters(&self) -> Vec<(String, u64)> {
        Vec::new()
    }
    #[inline(always)]
    pub fn histograms(&self) -> Vec<(String, Histogram)> {
        Vec::new()
    }
    #[inline(always)]
    pub fn journal(&self) -> crate::journal::Journal {
        crate::journal::Journal
    }
    #[inline(always)]
    pub fn trace_event_count(&self) -> usize {
        0
    }
    pub fn chrome_trace_json(&self) -> String {
        crate::chrome_trace_document(std::iter::empty())
    }
    pub fn write_chrome_trace(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.chrome_trace_json())
    }
    pub fn report(&self) -> String {
        "jtobs report\n============\ntelemetry disabled (compile with the `telemetry` feature)\n"
            .to_string()
    }
}

/// No-op span guard (no `Drop` impl needed).
#[derive(Debug, Clone, Copy, Default)]
pub struct Span;
