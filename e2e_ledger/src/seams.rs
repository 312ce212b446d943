//! The traced run's spans: decorators around the public seams of each
//! layer, timed from the benchmark's own code. The program itself carries
//! no tracing; every span here wraps a call into a layer's `pub` API.
//!
//! Spans accumulate into a [`Ledger`] of atomic totals, so decorators
//! running on the fleet's worker threads share one ledger without locks
//! on the hot path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dasr_containers::ResourceVector;
use dasr_core::obs::{EventKind, EventSink, RunEvent};
use dasr_core::policy::{PolicyContext, PolicyDecision, ScalingPolicy};
use dasr_core::{ReplaySource, RunConfig};
use dasr_engine::{Engine, IntervalStats, RequestSpec, SimTime};
use dasr_telemetry::{LatencyGoal, ProbeStatus, ResizeActuator, TelemetrySample, TelemetrySource};
use dasr_workloads::{Trace, TraceDriver, Workload};
use rand::rngs::StdRng;

/// The spans the ledger keeps, one per seam. Each keeps a nanosecond
/// total and a count whose meaning the variant states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// `TraceDriver::arrivals_for_minute`; count = requests generated.
    Arrivals,
    /// `Workload::next_request`; count = calls.
    NextRequest,
    /// `Engine::submit_at` + `Engine::run_until`; count = requests
    /// submitted.
    Dispatch,
    /// `Engine::end_interval_into` + `TelemetrySample::from_interval`;
    /// count = intervals.
    Drain,
    /// `Engine::apply_resources`; count = calls.
    Resize,
    /// Balloon start/abort/commit on the engine; count = calls.
    Balloon,
    /// `Engine::new` + `Engine::prewarm` + `TraceDriver::new`; count =
    /// tenants.
    EngineSetup,
    /// `ScalingPolicy::decide`; count = decisions.
    Decide,
    /// `ClosedLoop::run_source` end to end; count = intervals.
    Loop,
    /// One tenant, from its policy's construction to its drop; count =
    /// tenants.
    Tenant,
    /// `ReplaySource::observe_interval`; count = intervals.
    ReplaySource,
    /// `EventSink::emit` on the store sink; count = events.
    Emit,
    /// `EventSink::finish` on the store sink; count = calls.
    SinkFinish,
    /// `Store::append_recording`; count = sample records.
    AppendRecording,
    /// `Store::end_run`; count = commits.
    Commit,
    /// No time; count = engine intervals with zero arrivals and zero
    /// completions.
    Quiescent,
    /// No time; count = buffer-pool misses (`IntervalStats::disk_reads`).
    DiskReads,
}

impl Span {
    const COUNT: usize = Span::DiskReads as usize + 1;
}

#[derive(Debug, Default)]
struct Slot {
    ns: AtomicU64,
    count: AtomicU64,
}

/// Per-seam totals for one traced run, shared by every decorator.
#[derive(Debug, Default)]
pub struct Ledger {
    slots: [Slot; Span::COUNT],
    tenant_ms: Mutex<Vec<f64>>,
}

/// Nanoseconds since `t0`, saturating.
pub fn ns_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl Ledger {
    /// Adds one span of `ns` nanoseconds carrying `count` units of work.
    // Relaxed: the totals are statistics read after every worker joined.
    pub fn add(&self, span: Span, ns: u64, count: u64) {
        let slot = &self.slots[span as usize];
        slot.ns.fetch_add(ns, Ordering::Relaxed);
        slot.count.fetch_add(count, Ordering::Relaxed);
    }

    /// Runs `f` inside a span of `count` units.
    pub fn time<T>(&self, span: Span, count: u64, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.add(span, ns_since(t0), count);
        out
    }

    /// Total nanoseconds in `span`.
    pub fn ns(&self, span: Span) -> u64 {
        self.slots[span as usize].ns.load(Ordering::Relaxed)
    }

    /// Total count of `span`.
    pub fn count(&self, span: Span) -> u64 {
        self.slots[span as usize].count.load(Ordering::Relaxed)
    }

    /// `ns(span) / count(span)`, or 0 when the span never ran.
    pub fn ns_per(&self, span: Span) -> f64 {
        ratio(self.ns(span) as f64, self.count(span) as f64)
    }

    /// Durations of every finished [`Span::Tenant`], ms, in finish order.
    pub fn tenant_ms(&self) -> Vec<f64> {
        self.tenant_ms.lock().expect("ledger lock poisoned").clone()
    }
}

/// Runs `f`, inside a span of `count` units when there is a ledger.
pub fn timed<T>(ledger: Option<&Arc<Ledger>>, span: Span, count: u64, f: impl FnOnce() -> T) -> T {
    match ledger {
        Some(l) => l.time(span, count, f),
        None => f(),
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The simulator backend rebuilt on the engine's public API, so that
/// arrival generation, dispatch, drain and resizes can each be timed.
/// Sample for sample it is `dasr_core::SimulatorSource`: the same
/// construction, and `submit_minute` split into its two public halves.
pub struct SeamSource<W: Workload> {
    engine: Engine,
    driver: TraceDriver<W>,
    stats: IntervalStats,
    ledger: Arc<Ledger>,
}

impl<W: Workload> SeamSource<W> {
    /// Builds the backend exactly as `SimulatorSource::new` does.
    pub fn new(cfg: &RunConfig, trace: &Trace, workload: W, ledger: Arc<Ledger>) -> Self {
        let t0 = Instant::now();
        let mut engine = Engine::new(cfg.engine, cfg.initial_container().resources);
        if cfg.prewarm_pages > 0 {
            engine.prewarm(cfg.prewarm_pages);
        }
        let driver = TraceDriver::new(trace.clone(), workload, cfg.seed);
        ledger.add(Span::EngineSetup, ns_since(t0), 1);
        Self {
            engine,
            driver,
            stats: IntervalStats::default(),
            ledger,
        }
    }
}

impl<W: Workload> TelemetrySource for SeamSource<W> {
    fn intervals(&self) -> usize {
        self.driver.minutes()
    }

    fn workload_name(&self) -> &str {
        self.driver.workload_name()
    }

    fn trace_name(&self) -> &str {
        &self.driver.trace().name
    }

    fn observe_interval(&mut self, interval: u64, goal: LatencyGoal) -> TelemetrySample {
        let t0 = Instant::now();
        let arrivals = self.driver.arrivals_for_minute(interval as usize);
        let t1 = Instant::now();
        let n = arrivals.len() as u64;
        for (at, spec) in arrivals {
            self.engine.submit_at(at, spec);
        }
        self.engine.run_until(SimTime::from_mins(interval + 1));
        let t2 = Instant::now();
        self.engine.end_interval_into(&mut self.stats);
        let sample = TelemetrySample::from_interval(interval, &self.stats, goal);
        let t3 = Instant::now();
        let ns = |a: Instant, b: Instant| u64::try_from((b - a).as_nanos()).unwrap_or(u64::MAX);
        self.ledger.add(Span::Arrivals, ns(t0, t1), n);
        self.ledger.add(Span::Dispatch, ns(t1, t2), n);
        self.ledger.add(Span::Drain, ns(t2, t3), 1);
        self.ledger.add(Span::DiskReads, 0, self.stats.disk_reads);
        if self.stats.arrivals == 0 && self.stats.completed == 0 {
            self.ledger.add(Span::Quiescent, 0, 1);
        }
        sample
    }

    fn interval_latencies_ms(&self) -> &[f64] {
        &self.stats.latencies_ms
    }

    fn probe(&self) -> ProbeStatus {
        if self.engine.balloon_active() {
            ProbeStatus::Active {
                reached_target: self.engine.balloon_reached_target(),
            }
        } else {
            ProbeStatus::Inactive
        }
    }
}

impl<W: Workload> ResizeActuator for SeamSource<W> {
    fn apply_resources(&mut self, resources: ResourceVector) {
        let engine = &mut self.engine;
        self.ledger
            .time(Span::Resize, 1, || engine.apply_resources(resources));
    }

    fn start_balloon(&mut self, target_mb: f64) {
        let engine = &mut self.engine;
        self.ledger
            .time(Span::Balloon, 1, || engine.start_balloon(target_mb));
    }

    fn abort_balloon(&mut self) {
        let engine = &mut self.engine;
        self.ledger
            .time(Span::Balloon, 1, || engine.abort_balloon());
    }

    fn commit_balloon(&mut self) {
        let engine = &mut self.engine;
        self.ledger
            .time(Span::Balloon, 1, || engine.commit_balloon());
    }
}

/// A policy whose decisions are timed; its lifetime is the tenant span.
pub struct TracedPolicy {
    inner: Box<dyn ScalingPolicy>,
    ledger: Arc<Ledger>,
    born: Instant,
}

impl TracedPolicy {
    /// Wraps `inner`; the tenant span starts now.
    pub fn new(inner: Box<dyn ScalingPolicy>, ledger: Arc<Ledger>) -> Self {
        Self {
            inner,
            ledger,
            born: Instant::now(),
        }
    }
}

impl ScalingPolicy for TracedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn decide(&mut self, ctx: &PolicyContext<'_>) -> PolicyDecision {
        let inner = &mut self.inner;
        self.ledger.time(Span::Decide, 1, || inner.decide(ctx))
    }
}

impl Drop for TracedPolicy {
    fn drop(&mut self) {
        let ns = ns_since(self.born);
        self.ledger.add(Span::Tenant, ns, 1);
        if let Ok(mut v) = self.ledger.tenant_ms.lock() {
            v.push(ns as f64 / 1e6);
        }
    }
}

/// A workload whose request draws are timed — the only engine-side seam
/// the fleet runner exposes.
#[derive(Clone)]
pub struct TracedWorkload<W> {
    inner: W,
    ledger: Arc<Ledger>,
}

impl<W> TracedWorkload<W> {
    /// Wraps `inner`.
    pub fn new(inner: W, ledger: Arc<Ledger>) -> Self {
        Self { inner, ledger }
    }
}

impl<W: Workload> Workload for TracedWorkload<W> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn next_request(&mut self, rng: &mut StdRng) -> RequestSpec {
        let inner = &mut self.inner;
        self.ledger
            .time(Span::NextRequest, 1, || inner.next_request(rng))
    }

    fn hot_pages(&self) -> u64 {
        self.inner.hot_pages()
    }
}

/// An event sink whose `emit`/`finish` are timed, and which notes every
/// tenant-interval that completed nothing (for the quiescent census).
pub struct TracedSink<S> {
    inner: S,
    ledger: Arc<Ledger>,
    intervals: u64,
    /// `idle[tenant * intervals + interval]`: the interval's `IntervalEnd`
    /// reported zero completions.
    idle: Vec<bool>,
}

impl<S> TracedSink<S> {
    /// Wraps `inner` for a fleet of `tenants` × `intervals`.
    pub fn new(inner: S, ledger: Arc<Ledger>, tenants: u64, intervals: u64) -> Self {
        Self {
            inner,
            ledger,
            intervals,
            idle: vec![false; (tenants * intervals) as usize],
        }
    }

    /// The wrapped sink and the idle map.
    pub fn into_parts(self) -> (S, Vec<bool>) {
        (self.inner, self.idle)
    }
}

impl<S: EventSink> EventSink for TracedSink<S> {
    fn emit(&mut self, event: &RunEvent) {
        let inner = &mut self.inner;
        self.ledger.time(Span::Emit, 1, || inner.emit(event));
        if let (Some(t), EventKind::IntervalEnd { completed: 0, .. }) = (event.tenant, event.kind) {
            if let Some(slot) = self
                .idle
                .get_mut((t * self.intervals + event.interval) as usize)
            {
                *slot = true;
            }
        }
    }

    fn finish(&mut self) {
        let inner = &mut self.inner;
        self.ledger.time(Span::SinkFinish, 1, || inner.finish());
    }
}

/// A replay source whose per-interval reads are timed.
pub struct TracedReplay {
    inner: ReplaySource,
    ledger: Arc<Ledger>,
}

impl TracedReplay {
    /// Wraps `inner`.
    pub fn new(inner: ReplaySource, ledger: Arc<Ledger>) -> Self {
        Self { inner, ledger }
    }
}

impl TelemetrySource for TracedReplay {
    fn intervals(&self) -> usize {
        self.inner.intervals()
    }

    fn workload_name(&self) -> &str {
        self.inner.workload_name()
    }

    fn trace_name(&self) -> &str {
        self.inner.trace_name()
    }

    fn observe_interval(&mut self, interval: u64, goal: LatencyGoal) -> TelemetrySample {
        let inner = &mut self.inner;
        self.ledger.time(Span::ReplaySource, 1, || {
            inner.observe_interval(interval, goal)
        })
    }

    fn interval_latencies_ms(&self) -> &[f64] {
        self.inner.interval_latencies_ms()
    }

    fn probe(&self) -> ProbeStatus {
        self.inner.probe()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dasr_core::policy::AutoPolicy;
    use dasr_core::{ClosedLoop, TenantKnobs};
    use dasr_workloads::{CpuIoConfig, CpuIoWorkload};

    #[test]
    fn traced_loop_reproduces_the_plain_loop() {
        let cfg = RunConfig {
            knobs: TenantKnobs::none().with_latency_goal(LatencyGoal::P95(20.0)),
            ..RunConfig::default()
        };
        let trace = Trace::new("steps", vec![5.0, 40.0, 80.0, 10.0, 0.0, 30.0]);
        let workload = CpuIoWorkload::new(CpuIoConfig::small());
        let plain = ClosedLoop::run(
            &cfg,
            &trace,
            workload.clone(),
            &mut AutoPolicy::with_knobs(cfg.knobs),
        );

        let ledger = Arc::new(Ledger::default());
        let mut src = SeamSource::new(&cfg, &trace, workload, ledger.clone());
        let mut policy =
            TracedPolicy::new(Box::new(AutoPolicy::with_knobs(cfg.knobs)), ledger.clone());
        let traced = ClosedLoop::run_source(&cfg, &mut src, &mut policy);
        drop(policy);

        assert_eq!(traced, plain);
        assert_eq!(ledger.count(Span::Drain), 6);
        assert_eq!(ledger.count(Span::Decide), 6);
        assert_eq!(ledger.count(Span::Tenant), 1);
        assert_eq!(ledger.count(Span::EngineSetup), 1);
        assert_eq!(ledger.count(Span::Quiescent), 1, "the zero-rate minute");
        assert_eq!(ledger.count(Span::Dispatch), ledger.count(Span::Arrivals));
        assert!(
            ledger.count(Span::Arrivals) >= plain.completed_total() + plain.rejected_total,
            "every completed or rejected request was generated and dispatched"
        );
        assert_eq!(ledger.tenant_ms().len(), 1);
    }
}
