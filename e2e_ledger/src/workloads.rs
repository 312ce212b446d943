//! The three workloads: inputs made from the seed, one timed pass each,
//! output checks, and the per-layer figures of a traced pass.

use std::collections::BTreeMap;
use std::error::Error;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use dasr_core::obs::{CounterId, EventSink, EventVerbosity, ObsConfig, TimerId};
use dasr_core::policy::{AutoPolicy, ScalingPolicy, StaticPolicy, UtilPolicy};
use dasr_core::replay::RecordingSource;
use dasr_core::{
    tenant_seed, ClosedLoop, FleetRunner, FleetSummary, ReplayDiff, ReplaySource, RunConfig,
    RunRecording, RunReport, TenantKnobs, TenantSpec,
};
use dasr_fleet::{TenantArchetype, TenantPopulation};
use dasr_store::{Query, RunId, Store};
use dasr_telemetry::{CounterfactualActuator, LatencyGoal, SourcePair};
use dasr_workloads::{
    CpuIoConfig, CpuIoWorkload, Ds2Config, Ds2Workload, TpccConfig, TpccWorkload, Trace,
    TraceDriver, Workload,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::metrics::{Digest, Summary};
use crate::seams::{
    ns_since, ratio, timed, Ledger, SeamSource, Span, TracedPolicy, TracedReplay, TracedSink,
    TracedWorkload,
};

/// Result type of the workloads: any store or I/O error aborts the run.
pub type Res<T> = Result<T, Box<dyn Error + Send + Sync>>;

/// The three kinds of store query an operator asks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// `Store::load_recording` of one tenant.
    LoadRecording,
    /// `Store::tenant_events` of one tenant.
    TenantEvents,
    /// `Store::fire_counts` over an interval window.
    FireCounts,
}

/// The simulated outcome of a pass: deterministic for a seed.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimOutcome {
    /// Summed container cost.
    pub cost: f64,
    /// Billing intervals the cost covers.
    pub intervals: u64,
    /// Intervals whose latency missed the goal (`SloViolations`).
    pub goal_misses: u64,
    /// Intervals the loop ran (`IntervalsRun`).
    pub intervals_run: u64,
    /// Digest of the simulated outputs.
    pub digest: u64,
}

/// What one pass of a workload did.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Wall time of the timed job, s.
    pub secs: f64,
    /// Worker threads the job kept busy.
    pub threads: usize,
    /// Tenant-intervals simulated or replayed.
    pub tenant_intervals: u64,
    /// Requests simulated (or carried by the replayed samples).
    pub requests: u64,
    /// The simulated outcome.
    pub sim: SimOutcome,
    /// Operations checked.
    pub attempted: u64,
    /// Operations whose check failed, with the reason.
    pub failures: Vec<String>,
    /// Store query latencies, µs.
    pub queries: Vec<(QueryKind, f64)>,
    /// `TimerId::SignalsNs` total of the pass's runs, ns.
    pub signals_ns: f64,
    /// Run events produced.
    pub events: u64,
    /// The archive the pass wrote or read.
    pub archive: Option<ArchiveSize>,
    /// Peak resident set while the pass ran, MiB.
    pub peak_rss_mib: f64,
}

/// An archive's size.
#[derive(Debug, Clone, Copy)]
pub struct ArchiveSize {
    /// Records stored.
    pub records: u64,
    /// Segment bytes on disk.
    pub bytes: u64,
    /// Tenant-intervals archived.
    pub tenant_intervals: u64,
}

impl Pass {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Per-layer figures of the traced passes, by metric name, plus notes on
/// how the residual ones were obtained.
#[derive(Debug, Default)]
pub struct Layers {
    /// Metric name → value.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable notes printed with the figures.
    pub notes: Vec<String>,
    /// Self time measured directly at a seam, ns (coverage numerator).
    pub seam_ns: f64,
    /// Operations the layer measurements checked.
    pub attempted: u64,
    /// Their failed checks.
    pub failures: Vec<String>,
}

/// A benchmark workload.
pub trait Bench: Send {
    /// Runs one pass; `ledger` is `Some` in the traced run.
    fn pass(&mut self, ledger: Option<&Arc<Ledger>>) -> Res<Pass>;

    /// Prepares the traced passes; returns failed checks. Only
    /// `replay_mill` has traced set-up work: it rebuilds its archive.
    fn trace_setup(&mut self, _ledger: &Arc<Ledger>) -> Res<Vec<String>> {
        Ok(Vec::new())
    }

    /// Per-layer figures from the traced passes `traced` and their ledger.
    fn layers(&mut self, ledger: &Ledger, traced: &[Pass]) -> Res<Layers>;
}

/// Sums a field over passes.
fn total(passes: &[Pass], f: impl Fn(&Pass) -> u64) -> u64 {
    passes.iter().map(f).sum()
}

fn goal_outcome(report: &RunReport, sim: &mut SimOutcome) {
    sim.cost += report.total_cost();
    sim.intervals += report.intervals.len() as u64;
    sim.goal_misses += report.obs.metrics.counter(CounterId::SloViolations);
    sim.intervals_run += report.obs.metrics.counter(CounterId::IntervalsRun);
}

/// Folds the simulated content of `report` (not its wall-clock timers).
fn digest_report(d: &mut Digest, report: &RunReport) {
    d.bytes(report.policy.as_bytes());
    for rec in &report.intervals {
        d.u64(rec.minute);
        d.u64(u64::from(rec.container.0));
        d.f64(rec.cost);
        d.f64(rec.latency_ms.unwrap_or(-1.0));
        d.u64(rec.completed);
        d.u64(rec.rejected);
        d.u64(u64::from(rec.trace.target.0));
    }
    d.u64(report.resizes);
    d.u64(report.rejected_total);
    d.u64(report.all_latencies_ms.len() as u64);
    for id in CounterId::ALL {
        d.u64(report.obs.metrics.counter(id));
    }
    d.u64(report.obs.events.len() as u64);
}

fn signals_ns(report: &RunReport) -> f64 {
    report.obs.metrics.timer(TimerId::SignalsNs).sum()
}

/// Checks every interval was billed for a catalog container at its price
/// and the budget was never overspent.
fn budget_and_catalog_hold(cfg: &RunConfig, report: &RunReport) -> Result<(), String> {
    for rec in &report.intervals {
        match cfg.catalog.get(rec.container) {
            Some(c) if c.cost.to_bits() == rec.cost.to_bits() => {}
            _ => return Err(format!("minute {} billed off-catalog", rec.minute)),
        }
    }
    if let Some(budget) = cfg.knobs.budget {
        if report.total_cost() > budget + 1e-6 {
            return Err(format!("spent {} of budget {budget}", report.total_cost()));
        }
    }
    Ok(())
}

/// A tenant's run through the traced seams: `SeamSource` under a
/// `RecordingSource`, an `AutoPolicy` in a `TracedPolicy`, the loop in a
/// [`Span::Loop`]. Returns the report and the recording.
fn traced_run<W: Workload>(
    cfg: &RunConfig,
    trace: &Trace,
    workload: W,
    l: &Arc<Ledger>,
) -> (RunReport, RunRecording) {
    let mut backend = RecordingSource::new(SeamSource::new(cfg, trace, workload, l.clone()));
    let mut policy = TracedPolicy::new(Box::new(AutoPolicy::with_knobs(cfg.knobs)), l.clone());
    let report = l.time(Span::Loop, trace.minutes() as u64, || {
        ClosedLoop::run_source(cfg, &mut backend, &mut policy)
    });
    drop(policy);
    let recording = RunRecording {
        header: dasr_core::RecordingHeader {
            policy: report.policy.clone(),
            workload: report.workload.clone(),
            trace: report.trace.clone(),
            seed: cfg.seed,
        },
        records: backend.into_records(),
    };
    (report, recording)
}

/// `run_source` time left after its seams, ns per interval.
fn loop_residual(l: &Ledger, signals_ns: f64) -> f64 {
    let seams = [
        Span::Arrivals,
        Span::Dispatch,
        Span::Drain,
        Span::Resize,
        Span::Balloon,
        Span::Decide,
        Span::ReplaySource,
    ];
    let inner: u64 = seams.iter().map(|&s| l.ns(s)).sum();
    ratio(
        l.ns(Span::Loop) as f64 - inner as f64 - signals_ns,
        l.count(Span::Loop) as f64,
    )
}

/// Archives `runs` into a scratch store under `work`, asks the three
/// store queries for every tenant and replays each recording through its
/// own policy, all traced into `p`: the store, query and replay seams
/// measured in isolation, for workloads whose passes do not reach them.
/// Returns the query latencies and the archive's size; each self-replay
/// is checked into `out`.
fn probe_archive(
    work: &Path,
    runs: &[(RunConfig, RunReport, RunRecording)],
    p: &Arc<Ledger>,
    out: &mut Layers,
) -> Res<(Vec<(QueryKind, f64)>, ArchiveSize)> {
    let dir = work.join("probe");
    let mut store = Store::open(&dir)?;
    store.set_read_threads(fleet_threads());
    let run = store.begin_run(dasr_store::RunMeta::new("auto", "mixed", "probe", 0));
    let mut sink = store.event_sink(run)?;
    for (i, (_, report, recording)) in runs.iter().enumerate() {
        let mut recording = recording.clone();
        recording.stamp_tenant(i as u64);
        let n = recording.records.len() as u64;
        p.time(Span::AppendRecording, n, || {
            store.append_recording(run, &recording)
        })?;
        for ev in &report.obs.events {
            let ev = dasr_core::obs::RunEvent {
                tenant: Some(i as u64),
                ..*ev
            };
            p.time(Span::Emit, 1, || sink.emit(&ev));
        }
    }
    p.time(Span::SinkFinish, 1, || sink.finish());
    if let Some(e) = sink.error() {
        return Err(format!("probe sink failed: {e}").into());
    }
    drop(sink);
    p.time(Span::Commit, 1, || store.end_run(run))?;
    let mut queries = Vec::with_capacity(3 * runs.len());
    for (i, (cfg, report, _)) in runs.iter().enumerate() {
        let tenant = i as u64;
        let recording = ask(&mut queries, QueryKind::LoadRecording, || {
            store.load_recording(run, Some(tenant))
        })?;
        ask(&mut queries, QueryKind::TenantEvents, || {
            store.tenant_events(run, tenant)
        })?;
        let to = (report.intervals.len() as u64).min(MILL_WINDOW);
        ask(&mut queries, QueryKind::FireCounts, || {
            store.fire_counts(Some(run), 0..to)
        })?;
        let src = TracedReplay::new(ReplaySource::new(recording), p.clone());
        let mut backend = SourcePair::new(src, CounterfactualActuator::default());
        let mut policy = TracedPolicy::new(Box::new(AutoPolicy::with_knobs(cfg.knobs)), p.clone());
        let replayed = ClosedLoop::run_source(cfg, &mut backend, &mut policy);
        let diff = ReplayDiff::between(report, &replayed);
        out.attempted += 1;
        if !diff.identical() {
            out.failures
                .push(format!("probe tenant {i}: self-replay: {diff}"));
        }
    }
    let stats = store.stats()?;
    store.close()?;
    std::fs::remove_dir_all(&dir)?;
    let size = ArchiveSize {
        records: stats.records,
        bytes: stats.bytes,
        tenant_intervals: runs.iter().map(|(_, r, _)| r.intervals.len() as u64).sum(),
    };
    Ok((queries, size))
}

/// The store, query and replay metrics: from the ledger `s` of the
/// archive's writes, the query latencies, and the ledger `r` of the
/// replays.
fn store_metrics(
    v: &mut BTreeMap<&'static str, f64>,
    notes: &mut Vec<String>,
    s: &Ledger,
    r: &Ledger,
    queries: &[(QueryKind, f64)],
    size: ArchiveSize,
) {
    let append_ns =
        (s.ns(Span::AppendRecording) + s.ns(Span::Emit) + s.ns(Span::SinkFinish)) as f64;
    let appended = (s.count(Span::AppendRecording) + s.count(Span::Emit)) as f64;
    v.insert("store.append_ns_per_record", ratio(append_ns, appended));
    v.insert("store.commit_ms", s.ns_per(Span::Commit) / 1e6);
    v.insert(
        "store.bytes_per_record",
        ratio(size.bytes as f64, size.records as f64),
    );
    v.insert("store.records", size.records as f64);
    v.insert(
        "archive_bytes_per_tenant_interval",
        ratio(size.bytes as f64, size.tenant_intervals as f64),
    );
    v.insert(
        "replay.source_ns_per_interval",
        r.ns_per(Span::ReplaySource),
    );
    for (kind, name) in [
        (QueryKind::LoadRecording, "store.load_recording_us_p50"),
        (QueryKind::TenantEvents, "store.tenant_events_us_p50"),
        (QueryKind::FireCounts, "store.fire_counts_us_p50"),
    ] {
        let us: Vec<f64> = queries
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, us)| *us)
            .collect();
        if let Some(sum) = Summary::of(&us) {
            v.insert(name, sum.median);
            notes.push(format!("{name}: {}", sum.describe("us")));
        }
    }
    let all: Vec<f64> = queries.iter().map(|(_, us)| *us).collect();
    if let Some(sum) = Summary::of(&all) {
        v.insert("query_us_p50", sum.median);
        v.insert("query_us_p99", sum.p99_or_tail());
        notes.push(format!("query_us: {}", sum.describe("us")));
    }
}

/// Tenant-span percentiles from `l`, with their sample count noted.
fn tenant_metrics(v: &mut BTreeMap<&'static str, f64>, notes: &mut Vec<String>, l: &Ledger) {
    if let Some(t) = Summary::of(&l.tenant_ms()) {
        v.insert("fleet.tenant_ms_p50", t.median);
        v.insert("fleet.tenant_ms_p99", t.p99_or_tail());
        notes.push(format!("tenant span: {}", t.describe("ms")));
    }
}

// ---------------------------------------------------------------------
// paper_cells
// ---------------------------------------------------------------------

/// Minutes per paper cell.
const CELL_MINUTES: usize = 60;
/// Mean budget per interval of every cell (rung 4 costs 60).
const CELL_BUDGET_PER_INTERVAL: f64 = 90.0;
/// A cell's latency goal as a multiple of its p95 under the Max policy:
/// the paper's tight setting (§7.2).
const CELL_GOAL_FACTOR: f64 = 1.25;

struct Cell<W> {
    cfg: RunConfig,
    trace: Trace,
    workload: W,
}

impl<W: Workload + Clone> Cell<W> {
    /// The paper's trace `n`, each minute jittered by ±2% from `rng`. As
    /// in the paper, the goal comes from a run of the cell under Max.
    fn new(n: usize, workload: W, seed: u64, rng: &mut StdRng) -> Self {
        let base = Trace::paper_with_len(n, CELL_MINUTES);
        let rps = base
            .rps
            .iter()
            .map(|r| r * rng.gen_range(0.98..1.02))
            .collect();
        let trace = Trace::new(base.name, rps);
        let mut cfg = RunConfig {
            prewarm_pages: workload.hot_pages(),
            seed: tenant_seed(seed, n as u64),
            ..RunConfig::default()
        };
        let mut max = StaticPolicy::max(&cfg.catalog);
        let max_p95 = ClosedLoop::run(&cfg, &trace, workload.clone(), &mut max)
            .p95_ms()
            .unwrap_or(f64::INFINITY);
        cfg.knobs = TenantKnobs::none()
            .with_latency_goal(LatencyGoal::P95(CELL_GOAL_FACTOR * max_p95))
            .with_budget(CELL_BUDGET_PER_INTERVAL * CELL_MINUTES as f64);
        Self {
            cfg,
            trace,
            workload,
        }
    }

    fn run(&self, ledger: Option<&Arc<Ledger>>) -> (RunReport, Option<RunRecording>) {
        match ledger {
            None => {
                let mut policy = AutoPolicy::with_knobs(self.cfg.knobs);
                let report =
                    ClosedLoop::run(&self.cfg, &self.trace, self.workload.clone(), &mut policy);
                (report, None)
            }
            Some(l) => {
                let (report, recording) =
                    traced_run(&self.cfg, &self.trace, self.workload.clone(), l);
                (report, Some(recording))
            }
        }
    }
}

/// The paper's three single-tenant §7 cells under `AutoPolicy`, back to
/// back on one thread: CPUIO on trace 2, TPC-C-lite on trace 4, DS2-lite
/// on trace 1.
pub struct PaperCells {
    cpuio: Cell<CpuIoWorkload>,
    tpcc: Cell<TpccWorkload>,
    ds2: Cell<Ds2Workload>,
    /// The first untraced pass's reports: every later pass must match.
    reference: Option<Vec<RunReport>>,
    /// The last traced pass's runs, for the isolation probe.
    recorded: Vec<(RunConfig, RunReport, RunRecording)>,
    work: PathBuf,
}

impl PaperCells {
    /// Builds the cells from `seed`; the isolation probe's store goes
    /// under `work`.
    pub fn setup(seed: u64, work: &Path) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Self {
            cpuio: Cell::new(
                2,
                CpuIoWorkload::new(CpuIoConfig::default()),
                seed,
                &mut rng,
            ),
            tpcc: Cell::new(4, TpccWorkload::new(TpccConfig::default()), seed, &mut rng),
            ds2: Cell::new(1, Ds2Workload::new(Ds2Config::default()), seed, &mut rng),
            reference: None,
            recorded: Vec::new(),
            work: work.to_path_buf(),
        }
    }
}

impl Bench for PaperCells {
    fn pass(&mut self, ledger: Option<&Arc<Ledger>>) -> Res<Pass> {
        let t0 = Instant::now();
        let runs = [
            self.cpuio.run(ledger),
            self.tpcc.run(ledger),
            self.ds2.run(ledger),
        ];
        let secs = t0.elapsed().as_secs_f64();
        let cfgs = [&self.cpuio.cfg, &self.tpcc.cfg, &self.ds2.cfg];
        if ledger.is_some() {
            self.recorded = cfgs
                .iter()
                .zip(&runs)
                .filter_map(|(cfg, (report, rec))| {
                    Some(((*cfg).clone(), report.clone(), rec.clone()?))
                })
                .collect();
        }
        let reports: Vec<RunReport> = runs.into_iter().map(|(report, _)| report).collect();
        let mut pass = Pass {
            secs,
            threads: 1,
            ..Pass::default()
        };
        let mut digest = Digest::default();
        for (cfg, report) in cfgs.iter().zip(&reports) {
            pass.tenant_intervals += report.intervals.len() as u64;
            pass.requests += report.completed_total() + report.rejected_total;
            pass.signals_ns += signals_ns(report);
            pass.events += report.obs.events.len() as u64;
            goal_outcome(report, &mut pass.sim);
            digest_report(&mut digest, report);
            let held = budget_and_catalog_hold(cfg, report);
            pass.check(held.is_ok(), || {
                format!("{}: {}", report.trace, held.unwrap_err())
            });
        }
        pass.sim.digest = digest.finish();
        match &self.reference {
            None => self.reference = Some(reports),
            Some(reference) => {
                for (r, want) in reports.iter().zip(reference) {
                    pass.check(r == want, || {
                        format!("{}: report differs from the first pass", r.trace)
                    });
                }
            }
        }
        Ok(pass)
    }

    fn layers(&mut self, l: &Ledger, traced: &[Pass]) -> Res<Layers> {
        let intervals = l.count(Span::Drain) as f64;
        let signals: f64 = traced.iter().map(|p| p.signals_ns).sum();
        let busy_ns: f64 = traced.iter().map(|p| p.secs * 1e9).sum();
        let mut out = Layers::default();
        engine_metrics(&mut out.values, l, signals);
        let v = &mut out.values;
        v.insert("runner.loop_ns_per_interval", loop_residual(l, signals));
        v.insert(
            "fleet.worker_busy_frac",
            ratio(l.ns(Span::Tenant) as f64, busy_ns),
        );
        v.insert(
            "obs.events_per_tenant_interval",
            ratio(total(traced, |p| p.events) as f64, intervals),
        );
        tenant_metrics(&mut out.values, &mut out.notes, l);
        out.seam_ns = seam_ns(l) + signals;

        let p = Arc::new(Ledger::default());
        let (queries, size) = probe_archive(&self.work, &self.recorded, &p, &mut out)?;
        store_metrics(&mut out.values, &mut out.notes, &p, &p, &queries, size);
        out.notes.push(
            "runner.loop_ns_per_interval is the residual of run_source after its seams; \
             fleet.* treat the three cells as tenants of one worker"
                .into(),
        );
        out.notes.push(
            "store.*, query_us_*, archive_bytes_* and replay.* are measured in isolation: \
             the last traced pass's cells archived, queried and self-replayed"
                .into(),
        );
        Ok(out)
    }
}

/// The engine, workload, telemetry and policy metrics a ledger of
/// `SeamSource` runs gives.
fn engine_metrics(v: &mut BTreeMap<&'static str, f64>, l: &Ledger, signals_ns: f64) {
    let intervals = l.count(Span::Drain) as f64;
    v.insert(
        "workloads.arrivals_ns_per_request",
        l.ns_per(Span::Arrivals),
    );
    v.insert(
        "workloads.requests_per_interval",
        ratio(l.count(Span::Arrivals) as f64, intervals),
    );
    v.insert("engine.dispatch_ns_per_request", l.ns_per(Span::Dispatch));
    v.insert("engine.drain_ns_per_interval", l.ns_per(Span::Drain));
    v.insert("engine.resize_ns_per_call", l.ns_per(Span::Resize));
    v.insert(
        "engine.setup_us_per_tenant",
        l.ns_per(Span::EngineSetup) / 1e3,
    );
    v.insert(
        "engine.quiescent_interval_frac",
        ratio(l.count(Span::Quiescent) as f64, intervals),
    );
    v.insert(
        "engine.disk_reads_per_request",
        ratio(
            l.count(Span::DiskReads) as f64,
            l.count(Span::Dispatch) as f64,
        ),
    );
    v.insert(
        "telemetry.signals_ns_per_interval",
        ratio(signals_ns, intervals),
    );
    v.insert("policy.decide_ns_per_interval", l.ns_per(Span::Decide));
}

/// Self time measured directly at the `SeamSource` and policy seams, ns.
fn seam_ns(l: &Ledger) -> f64 {
    [
        Span::Arrivals,
        Span::Dispatch,
        Span::Drain,
        Span::Resize,
        Span::Balloon,
        Span::EngineSetup,
        Span::Decide,
    ]
    .iter()
    .map(|&s| l.ns(s) as f64)
    .sum()
}

// ---------------------------------------------------------------------
// Archetype fleets (fleet_archive, replay_mill)
// ---------------------------------------------------------------------

/// Billing intervals per fleet tenant.
const FLEET_INTERVALS: usize = 60;
/// Mean offered load over a fleet, requests per second per tenant.
const FLEET_MEAN_RPS: f64 = 1.0;
/// Latency goal of every fleet tenant, ms (p95).
const FLEET_GOAL_MS: f64 = 10.0;
/// Mean budget per interval of every fleet tenant.
const FLEET_BUDGET_PER_INTERVAL: f64 = 30.0;

/// A fleet of small tenants whose demand follows the archetype mix.
struct Fleet {
    specs: Vec<TenantSpec<CpuIoWorkload>>,
    archetypes: Vec<TenantArchetype>,
}

impl Fleet {
    /// `tenants` tenants from `TenantPopulation`'s archetype mixture (the
    /// one calibrated to Fig 2): each tenant's CPU demand series becomes
    /// its offered load, scaled so the fleet's mean is [`FLEET_MEAN_RPS`].
    fn new(seed: u64, tenants: usize) -> Self {
        let population = TenantPopulation::generate_with_len(tenants, FLEET_INTERVALS, seed);
        let shapes: Vec<(TenantArchetype, Vec<f64>)> = population
            .tenants
            .iter()
            .map(|t| {
                (
                    t.archetype,
                    t.intervals.iter().map(|r| r.cpu_cores).collect(),
                )
            })
            .collect();
        let mean =
            shapes.iter().flat_map(|(_, s)| s).sum::<f64>() / (tenants * FLEET_INTERVALS) as f64;
        let scale = FLEET_MEAN_RPS / mean;
        let knobs = TenantKnobs::none()
            .with_latency_goal(LatencyGoal::P95(FLEET_GOAL_MS))
            .with_budget(FLEET_BUDGET_PER_INTERVAL * FLEET_INTERVALS as f64);
        let workload = CpuIoWorkload::new(CpuIoConfig::small());
        let specs = shapes
            .iter()
            .enumerate()
            .map(|(i, (a, demand))| TenantSpec {
                cfg: RunConfig {
                    knobs,
                    prewarm_pages: workload.hot_pages(),
                    seed: tenant_seed(seed, i as u64),
                    obs: ObsConfig {
                        verbosity: EventVerbosity::Verbose,
                    },
                    ..RunConfig::default()
                },
                trace: Trace::new(a.name(), demand.iter().map(|d| d * scale).collect()),
                workload: workload.clone(),
            })
            .collect();
        Self {
            specs,
            archetypes: shapes.into_iter().map(|(a, _)| a).collect(),
        }
    }

    fn tenant_intervals(&self) -> u64 {
        (self.specs.len() * FLEET_INTERVALS) as u64
    }

    /// Quiescent share per archetype and overall, from a per-tenant,
    /// per-interval quiescence test.
    fn census(&self, quiet: impl Fn(usize, usize) -> bool) -> (f64, Vec<String>) {
        let mut by: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (i, a) in self.archetypes.iter().enumerate() {
            let e = by.entry(a.name()).or_default();
            for m in 0..FLEET_INTERVALS {
                e.0 += u64::from(quiet(i, m));
                e.1 += 1;
            }
        }
        let (q, n) = by
            .values()
            .fold((0, 0), |(q, n), (bq, bn)| (q + bq, n + bn));
        let lines = by
            .iter()
            .map(|(name, (bq, bn))| {
                format!(
                    "quiescent intervals, {name}: {:.4} ({bq} of {bn})",
                    ratio(*bq as f64, *bn as f64)
                )
            })
            .collect();
        (ratio(q as f64, n as f64), lines)
    }
}

/// Fleet worker threads: two, or fewer on a smaller machine.
fn fleet_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Records of `run` read back through a streaming cursor.
fn records_read_back(store: &Store, run: RunId) -> Res<u64> {
    let mut n = 0;
    for rec in store.cursor(Query {
        run: Some(run),
        ..Query::default()
    })? {
        rec?;
        n += 1;
    }
    Ok(n)
}

// ---------------------------------------------------------------------
// fleet_archive
// ---------------------------------------------------------------------

/// Tenants in the archived fleet.
const ARCHIVE_TENANTS: usize = 1024;
/// Tenants the isolation probe runs through the traced seams.
const FLEET_PROBE_TENANTS: usize = 64;

/// A 1024-tenant × 60-interval archetype fleet through
/// `FleetRunner::run_fleet_summary`, its verbose event stream archived
/// through a `StoreSink`.
pub struct FleetArchive {
    seed: u64,
    fleet: Fleet,
    work: PathBuf,
    traced_specs: Option<Vec<TenantSpec<TracedWorkload<CpuIoWorkload>>>>,
    reference: Option<FleetSummary>,
    idle: Vec<bool>,
    passes: u64,
}

impl FleetArchive {
    /// Builds the fleet from `seed`; stores go under `work`.
    pub fn setup(seed: u64, work: &Path) -> Self {
        Self {
            seed,
            fleet: Fleet::new(seed, ARCHIVE_TENANTS),
            work: work.to_path_buf(),
            traced_specs: None,
            reference: None,
            idle: Vec::new(),
            passes: 0,
        }
    }
}

fn auto_for<W: Workload>(_: usize, t: &TenantSpec<W>) -> Box<dyn ScalingPolicy> {
    Box::new(AutoPolicy::with_knobs(t.cfg.knobs))
}

impl Bench for FleetArchive {
    fn pass(&mut self, ledger: Option<&Arc<Ledger>>) -> Res<Pass> {
        let dir = self.work.join(format!("fleet-{}", self.passes));
        self.passes += 1;
        let tenants = self.fleet.specs.len() as u64;
        let intervals = FLEET_INTERVALS as u64;
        let runner = FleetRunner::new(fleet_threads());

        let t0 = Instant::now();
        let mut store = Store::open(&dir)?;
        let meta = dasr_store::RunMeta::new("auto", "cpuio", "archetype-fleet", self.seed)
            .fleet(tenants, intervals);
        let run = store.begin_run(meta);
        let mut sink = store.event_sink(run)?;
        let (summary, sink) = match ledger {
            None => (
                runner.run_fleet_summary(&self.fleet.specs, auto_for, &mut sink),
                sink,
            ),
            Some(l) => {
                let specs = self.traced_specs.get_or_insert_with(|| {
                    self.fleet
                        .specs
                        .iter()
                        .map(|s| TenantSpec {
                            cfg: s.cfg.clone(),
                            trace: s.trace.clone(),
                            workload: TracedWorkload::new(s.workload.clone(), l.clone()),
                        })
                        .collect()
                });
                let mut traced = TracedSink::new(sink, l.clone(), tenants, intervals);
                let policy = |i: usize, t: &TenantSpec<TracedWorkload<CpuIoWorkload>>| {
                    Box::new(TracedPolicy::new(auto_for(i, t), l.clone())) as Box<dyn ScalingPolicy>
                };
                let summary = runner.run_fleet_summary(specs, policy, &mut traced);
                let (sink, idle) = traced.into_parts();
                self.idle = idle;
                (summary, sink)
            }
        };
        let manifest = timed(ledger, Span::Commit, 1, || store.end_run(run))?;
        let secs = t0.elapsed().as_secs_f64();

        let mut pass = Pass {
            secs,
            threads: runner.threads(),
            tenant_intervals: summary.intervals_total,
            requests: summary.completed_total + summary.rejected_total,
            signals_ns: summary.metrics.timer(TimerId::SignalsNs).sum(),
            events: summary.events_emitted,
            ..Pass::default()
        };
        pass.sim = SimOutcome {
            cost: summary.total_cost,
            intervals: summary.intervals_total,
            goal_misses: summary.metrics.counter(CounterId::SloViolations),
            intervals_run: summary.metrics.counter(CounterId::IntervalsRun),
            digest: digest_summary(&summary),
        };
        pass.check(sink.error().is_none(), || {
            format!("store sink failed: {:?}", sink.error())
        });
        let read_back = records_read_back(&store, run)?;
        pass.check(
            summary.events_emitted == manifest.events && manifest.events == read_back,
            || {
                format!(
                    "events emitted {}, committed {}, read back {read_back}",
                    summary.events_emitted, manifest.events
                )
            },
        );
        pass.check(
            summary.intervals_total == self.fleet.tenant_intervals(),
            || format!("{} tenant-intervals ran", summary.intervals_total),
        );
        match &self.reference {
            None => self.reference = Some(summary),
            Some(want) => pass.check(&summary == want, || {
                "fleet summary differs from the first pass".into()
            }),
        }
        let stats = store.stats()?;
        pass.archive = Some(ArchiveSize {
            records: stats.records,
            bytes: stats.bytes,
            tenant_intervals: pass.tenant_intervals,
        });
        drop(sink);
        store.close()?;
        std::fs::remove_dir_all(&dir)?;
        Ok(pass)
    }

    fn layers(&mut self, l: &Ledger, traced: &[Pass]) -> Res<Layers> {
        let intervals = total(traced, |p| p.tenant_intervals) as f64;
        let requests = l.count(Span::NextRequest) as f64;
        let signals: f64 = traced.iter().map(|p| p.signals_ns).sum();
        let tenant_ns = l.ns(Span::Tenant) as f64;
        let busy_ns: f64 = traced.iter().map(|p| p.secs * 1e9 * p.threads as f64).sum();
        let (records, bytes) = traced
            .iter()
            .filter_map(|p| p.archive)
            .fold((0, 0), |(r, b), a| (r + a.records, b + a.bytes));
        let residual =
            tenant_ns - l.ns(Span::NextRequest) as f64 - l.ns(Span::Decide) as f64 - signals;

        // No public seam reaches the engine, the runner loop or the store
        // reads inside run_fleet_summary: run a sample of the tenants
        // through the traced seams outside the fleet run, then archive,
        // query and self-replay them.
        let iso = Arc::new(Ledger::default());
        let sample: Vec<(RunConfig, RunReport, RunRecording)> = self.fleet.specs
            [..FLEET_PROBE_TENANTS.min(self.fleet.specs.len())]
            .iter()
            .map(|s| {
                let (report, recording) = traced_run(&s.cfg, &s.trace, s.workload.clone(), &iso);
                (s.cfg.clone(), report, recording)
            })
            .collect();
        let iso_signals: f64 = sample.iter().map(|(_, r, _)| signals_ns(r)).sum();
        let p = Arc::new(Ledger::default());
        let mut out = Layers::default();
        let (queries, size) = probe_archive(&self.work, &sample, &p, &mut out)?;
        // Quiescent census: arrivals regenerated from each tenant's own
        // TraceDriver inputs, completions from its IntervalEnd events.
        let arrivals: Vec<Vec<bool>> = self
            .fleet
            .specs
            .iter()
            .map(|s| {
                let mut d = TraceDriver::new(s.trace.clone(), s.workload.clone(), s.cfg.seed);
                (0..FLEET_INTERVALS)
                    .map(|m| d.arrivals_for_minute(m).is_empty())
                    .collect()
            })
            .collect();
        let idle = &self.idle;
        let (quiescent, lines) = self
            .fleet
            .census(|i, m| arrivals[i][m] && idle[i * FLEET_INTERVALS + m]);

        engine_metrics(&mut out.values, &iso, iso_signals);
        store_metrics(&mut out.values, &mut out.notes, &p, &p, &queries, size);
        tenant_metrics(&mut out.values, &mut out.notes, l);
        let v = &mut out.values;
        v.insert(
            "runner.loop_ns_per_interval",
            loop_residual(&iso, iso_signals),
        );
        v.insert(
            "workloads.arrivals_ns_per_request",
            l.ns_per(Span::NextRequest),
        );
        v.insert(
            "workloads.requests_per_interval",
            ratio(requests, intervals),
        );
        v.insert("engine.dispatch_ns_per_request", ratio(residual, requests));
        v.insert("engine.quiescent_interval_frac", quiescent);
        v.insert(
            "telemetry.signals_ns_per_interval",
            ratio(signals, intervals),
        );
        v.insert("policy.decide_ns_per_interval", l.ns_per(Span::Decide));
        v.insert("fleet.worker_busy_frac", ratio(tenant_ns, busy_ns));
        v.insert(
            "obs.events_per_tenant_interval",
            ratio(total(traced, |p| p.events) as f64, intervals),
        );
        let append_ns = (l.ns(Span::Emit) + l.ns(Span::SinkFinish)) as f64;
        v.insert(
            "store.append_ns_per_record",
            ratio(append_ns, l.count(Span::Emit) as f64),
        );
        v.insert("store.commit_ms", l.ns_per(Span::Commit) / 1e6);
        v.insert(
            "store.bytes_per_record",
            ratio(bytes as f64, records as f64),
        );
        v.insert("store.records", ratio(records as f64, traced.len() as f64));
        v.insert(
            "archive_bytes_per_tenant_interval",
            ratio(bytes as f64, intervals),
        );
        out.seam_ns = (l.ns(Span::NextRequest) + l.ns(Span::Decide) + l.ns(Span::Commit)) as f64
            + append_ns
            + signals;
        out.notes.push(
            "workloads.arrivals_ns_per_request times Workload::next_request only here: the \
             fleet runner's TraceDriver is out of reach, so gap sampling and the arrival \
             buffer fall into the engine.dispatch residual (paper_cells and replay_mill \
             time the whole of arrivals_for_minute)"
                .into(),
        );
        out.notes.push(
            "engine.dispatch_ns_per_request is a residual: tenant span minus next_request, \
             decide and signals (engine, runner loop and exponential gaps; no public seam \
             reaches the engine inside run_fleet_summary)"
                .into(),
        );
        out.notes.push(format!(
            "engine.{{setup,drain,resize,disk_reads}}, runner.*, replay.*, store reads and \
             query_us_* are measured in isolation on the first {FLEET_PROBE_TENANTS} tenants, \
             outside the fleet run"
        ));
        out.notes.extend(lines);
        Ok(out)
    }
}

fn digest_summary(s: &FleetSummary) -> u64 {
    let mut d = Digest::default();
    d.u64(s.tenants);
    d.u64(s.intervals_total);
    d.f64(s.total_cost);
    d.u64(s.completed_total);
    d.u64(s.rejected_total);
    d.u64(s.resizes_total);
    d.u64(s.events_emitted);
    for &c in s.latency.counts() {
        d.u64(c);
    }
    for id in CounterId::ALL {
        d.u64(s.metrics.counter(id));
    }
    d.finish()
}

// ---------------------------------------------------------------------
// replay_mill
// ---------------------------------------------------------------------

/// Tenants in the archived fleet the mill replays.
const MILL_TENANTS: usize = 128;
/// Interval window of each `fire_counts` question.
const MILL_WINDOW: u64 = 15;

/// One point of the counterfactual policy grid.
#[derive(Debug, Clone, Copy)]
enum GridPolicy {
    /// `AutoPolicy` with the recorded goal scaled by this factor.
    Auto(f64),
    /// `UtilPolicy` under the recorded knobs.
    Util,
}

/// The grid; `Auto(1.0)` is the recording policy itself.
const GRID: [GridPolicy; 4] = [
    GridPolicy::Auto(1.0),
    GridPolicy::Auto(0.5),
    GridPolicy::Auto(2.0),
    GridPolicy::Util,
];

/// The archive the mill reads: a small low-demand fleet simulated once
/// and stored with `Store::append_recording`, events alongside.
struct Archive {
    store: Store,
    run: RunId,
    reports: Vec<RunReport>,
    /// `quiet[tenant * FLEET_INTERVALS + interval]`: the recorded sample
    /// had zero arrivals and zero completions.
    quiet: Vec<bool>,
    digest: u64,
}

/// The counterfactual policy mill: per tenant, three operator queries
/// against the archive, then the tenant's recording replayed through a
/// policy grid. The engine is not run in the timed phase.
pub struct ReplayMill {
    seed: u64,
    fleet: Fleet,
    work: PathBuf,
    archive: Option<Archive>,
    builds: u64,
    reference: Option<u64>,
    /// The traced set-up's ledger and its simulation's busy time, ns.
    setup_ledger: Option<(Arc<Ledger>, f64)>,
}

impl ReplayMill {
    /// Builds the fleet inputs from `seed`; the archive is built by
    /// [`ReplayMill::build_archive`].
    pub fn new(seed: u64, work: &Path) -> Self {
        Self {
            seed,
            fleet: Fleet::new(seed, MILL_TENANTS),
            work: work.to_path_buf(),
            archive: None,
            builds: 0,
            reference: None,
            setup_ledger: None,
        }
    }

    /// Simulates the fleet once and archives it (the set-up). With a
    /// ledger, the simulation and the store writes are traced. Returns
    /// the archive digest.
    pub fn build_archive(&mut self, ledger: Option<&Arc<Ledger>>) -> Res<u64> {
        if let Some(old) = self.archive.take() {
            let dir = old.store.dir().to_path_buf();
            old.store.close()?;
            std::fs::remove_dir_all(dir)?;
        }
        // Every set-up repeat builds a mill of its own, all numbering from
        // zero: a directory left by an earlier one is cleared, so the
        // archive holds exactly one copy of the fleet.
        let dir = self.work.join(format!("archive-{}", self.builds));
        self.builds += 1;
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        let specs = &self.fleet.specs;
        let runner = FleetRunner::new(fleet_threads());
        let t0 = Instant::now();
        let runs: Vec<(RunReport, RunRecording)> = runner.map(specs.len(), |i| {
            let s = &specs[i];
            match ledger {
                None => dasr_core::record_run(
                    &s.cfg,
                    &s.trace,
                    s.workload.clone(),
                    &mut AutoPolicy::with_knobs(s.cfg.knobs),
                ),
                Some(l) => traced_run(&s.cfg, &s.trace, s.workload.clone(), l),
            }
        });
        let map_busy_ns = t0.elapsed().as_secs_f64() * 1e9 * runner.threads() as f64;
        let mut store = Store::open(&dir)?;
        store.set_read_threads(fleet_threads());
        let meta = dasr_store::RunMeta::new("auto", "cpuio", "archetype-fleet", self.seed)
            .fleet(specs.len() as u64, FLEET_INTERVALS as u64);
        let run = store.begin_run(meta);
        let mut digest = Digest::default();
        let mut reports = Vec::with_capacity(runs.len());
        let mut quiet = Vec::with_capacity(runs.len() * FLEET_INTERVALS);
        let mut sink = store.event_sink(run)?;
        for (i, (mut report, mut recording)) in runs.into_iter().enumerate() {
            report.obs.stamp_tenant(i as u64);
            recording.stamp_tenant(i as u64);
            digest_report(&mut digest, &report);
            quiet.extend(
                recording
                    .records
                    .iter()
                    .map(|r| r.sample.arrivals == 0 && r.sample.completed == 0),
            );
            let n = recording.records.len() as u64;
            timed(ledger, Span::AppendRecording, n, || {
                store.append_recording(run, &recording)
            })?;
            for ev in &report.obs.events {
                timed(ledger, Span::Emit, 1, || sink.emit(ev));
            }
            reports.push(report);
        }
        timed(ledger, Span::SinkFinish, 1, || sink.finish());
        if let Some(e) = sink.error() {
            return Err(format!("archive sink failed: {e}").into());
        }
        drop(sink);
        timed(ledger, Span::Commit, 1, || store.end_run(run))?;
        let digest = digest.finish();
        self.archive = Some(Archive {
            store,
            run,
            reports,
            quiet,
            digest,
        });
        if let Some(l) = ledger {
            self.setup_ledger = Some((l.clone(), map_busy_ns));
        }
        Ok(digest)
    }
}

/// Runs one store query, noting its latency (µs) under `kind`.
fn ask<T>(queries: &mut Vec<(QueryKind, f64)>, kind: QueryKind, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    queries.push((kind, ns_since(t0) as f64 / 1e3));
    out
}

fn grid_cfg(base: &RunConfig, g: GridPolicy) -> (RunConfig, Box<dyn ScalingPolicy>) {
    let mut cfg = base.clone();
    cfg.obs = ObsConfig::default();
    match g {
        GridPolicy::Auto(f) => {
            if let Some(LatencyGoal::P95(ms)) = base.knobs.latency_goal {
                cfg.knobs.latency_goal = Some(LatencyGoal::P95(ms * f));
            }
            let policy = Box::new(AutoPolicy::with_knobs(cfg.knobs));
            (cfg, policy)
        }
        GridPolicy::Util => (cfg, Box::new(UtilPolicy::new())),
    }
}

impl Bench for ReplayMill {
    /// Rebuilds the archive with the set-up traced into a ledger of its
    /// own; the rebuilt archive must match the untraced one.
    fn trace_setup(&mut self, _ledger: &Arc<Ledger>) -> Res<Vec<String>> {
        let want = self.archive.as_ref().map(|a| a.digest);
        let got = self.build_archive(Some(&Arc::new(Ledger::default())))?;
        Ok(if want == Some(got) {
            Vec::new()
        } else {
            vec![format!(
                "traced archive digest {got:016x} differs from {want:016x?}"
            )]
        })
    }

    fn pass(&mut self, ledger: Option<&Arc<Ledger>>) -> Res<Pass> {
        let archive = self.archive.as_ref().ok_or("replay_mill has no archive")?;
        let (store, run) = (&archive.store, archive.run);
        let mut pass = Pass {
            threads: 1,
            ..Pass::default()
        };
        let mut digest = Digest::default();
        let mut queries = Vec::with_capacity(3 * self.fleet.specs.len());
        let mut replays = Vec::with_capacity(GRID.len() * self.fleet.specs.len());
        let t0 = Instant::now();
        for (i, spec) in self.fleet.specs.iter().enumerate() {
            let tenant = i as u64;
            let recording = ask(&mut queries, QueryKind::LoadRecording, || {
                store.load_recording(run, Some(tenant))
            })?;
            let events = ask(&mut queries, QueryKind::TenantEvents, || {
                store.tenant_events(run, tenant)
            })?;
            let from = (tenant % 4) * MILL_WINDOW;
            let fires = ask(&mut queries, QueryKind::FireCounts, || {
                store.fire_counts(Some(run), from..from + MILL_WINDOW)
            })?;
            for g in GRID {
                let (cfg, policy) = grid_cfg(&spec.cfg, g);
                let report = match ledger {
                    None => {
                        let mut policy = policy;
                        dasr_core::replay_with(
                            &cfg,
                            recording.clone(),
                            policy.as_mut(),
                            CounterfactualActuator::default(),
                        )
                        .0
                    }
                    Some(l) => {
                        let src =
                            TracedReplay::new(ReplaySource::new(recording.clone()), l.clone());
                        let mut backend = SourcePair::new(src, CounterfactualActuator::default());
                        let mut policy = TracedPolicy::new(policy, l.clone());
                        let n = recording.records.len() as u64;
                        l.time(Span::Loop, n, || {
                            ClosedLoop::run_source(&cfg, &mut backend, &mut policy)
                        })
                    }
                };
                replays.push((i, g, report, recording.records.len(), events.len(), fires));
            }
            for rec in &recording.records {
                pass.requests += GRID.len() as u64 * (rec.sample.completed + rec.sample.rejected);
            }
        }
        pass.secs = t0.elapsed().as_secs_f64();
        let stats = store.stats()?;
        pass.archive = Some(ArchiveSize {
            records: stats.records,
            bytes: stats.bytes,
            tenant_intervals: self.fleet.tenant_intervals(),
        });

        for (i, g, report, records, events, fires) in &replays {
            let original = &archive.reports[*i];
            pass.tenant_intervals += report.intervals.len() as u64;
            pass.signals_ns += signals_ns(report);
            pass.events += report.obs.events.len() as u64;
            goal_outcome(report, &mut pass.sim);
            digest_report(&mut digest, report);
            digest.u64(fires.total_fires());
            if let GridPolicy::Auto(f) = g {
                if *f == 1.0 {
                    let diff = ReplayDiff::between(original, report);
                    pass.check(
                        diff.identical()
                            && *records == original.intervals.len()
                            && *events == original.obs.events.len(),
                        || format!("tenant {i}: replay of its own archive: {diff}"),
                    );
                    continue;
                }
            }
            let held = budget_and_catalog_hold(&self.fleet.specs[*i].cfg, report);
            pass.check(held.is_ok(), || {
                format!("tenant {i} {g:?}: {}", held.unwrap_err())
            });
        }
        pass.queries = queries;
        pass.sim.digest = digest.finish();
        match self.reference {
            None => self.reference = Some(pass.sim.digest),
            Some(want) => pass.check(pass.sim.digest == want, || {
                "replay outputs differ from the first pass".into()
            }),
        }
        Ok(pass)
    }

    fn layers(&mut self, l: &Ledger, traced: &[Pass]) -> Res<Layers> {
        let (s, setup_busy_ns) = self
            .setup_ledger
            .as_ref()
            .ok_or("replay_mill set-up was not traced")?;
        let archive = self.archive.as_ref().ok_or("replay_mill has no archive")?;
        let intervals = total(traced, |p| p.tenant_intervals) as f64;
        let signals: f64 = traced.iter().map(|p| p.signals_ns).sum();
        let setup_signals: f64 = archive.reports.iter().map(signals_ns).sum();
        let setup_intervals = s.count(Span::Drain) as f64;
        let stats = archive.store.stats()?;
        let quiet = &archive.quiet;
        let (quiescent, lines) = self.fleet.census(|i, m| quiet[i * FLEET_INTERVALS + m]);
        let queries: Vec<(QueryKind, f64)> = traced
            .iter()
            .flat_map(|p| p.queries.iter().copied())
            .collect();
        let query_ns: f64 = queries.iter().map(|(_, us)| us * 1e3).sum();
        let size = ArchiveSize {
            records: stats.records,
            bytes: stats.bytes,
            tenant_intervals: self.fleet.tenant_intervals(),
        };

        let mut out = Layers::default();
        engine_metrics(&mut out.values, s, setup_signals);
        store_metrics(&mut out.values, &mut out.notes, s, l, &queries, size);
        tenant_metrics(&mut out.values, &mut out.notes, s);
        let v = &mut out.values;
        v.insert("engine.quiescent_interval_frac", quiescent);
        v.insert(
            "telemetry.signals_ns_per_interval",
            ratio(signals, intervals),
        );
        v.insert("policy.decide_ns_per_interval", l.ns_per(Span::Decide));
        v.insert("runner.loop_ns_per_interval", loop_residual(l, signals));
        v.insert(
            "fleet.worker_busy_frac",
            ratio(s.ns(Span::Tenant) as f64, *setup_busy_ns),
        );
        v.insert(
            "obs.events_per_tenant_interval",
            ratio(stats.records as f64 - setup_intervals, setup_intervals),
        );
        out.seam_ns = (l.ns(Span::ReplaySource) + l.ns(Span::Decide)) as f64 + signals + query_ns;
        out.notes.push(
            "workloads.*, engine.*, store writes and fleet.* come from the traced set-up \
             (its simulation on 2 threads and its archive); the timed phase runs no engine"
                .into(),
        );
        out.notes.extend(lines);
        Ok(out)
    }
}
