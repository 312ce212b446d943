//! `e2e_ledger` — the dasr benchmark.
//!
//! ```text
//! cargo run --release --manifest-path e2e_ledger/Cargo.toml -- \
//!     --workload paper_cells --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Runs one workload (`paper_cells`, `fleet_archive` or `replay_mill`,
//! see `README.md`) for `--seconds` seconds and prints, as its last line,
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones, measured with no
//! decorator in the path; with `--trace 1` half the time runs untraced
//! and half traced, and the metrics are the per-layer ones.

mod metrics;
mod seams;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use metrics::{Metric, RunResult, Summary};
use seams::{ratio, Ledger};
use workloads::{Bench, FleetArchive, Layers, PaperCells, Pass, ReplayMill, Res};

/// The workloads, by name.
const WORKLOADS: [&str; 3] = ["paper_cells", "fleet_archive", "replay_mill"];

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 6] = [
    ("tenant_intervals_per_s", "1/s"),
    ("sim_requests_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("sim_cost_per_interval", "cost"),
    ("sim_goal_miss_frac", "frac"),
];

/// Per-layer metrics (`--trace 1`), with units.
const PER_LAYER: [(&str, &str); 29] = [
    ("workloads.arrivals_ns_per_request", "ns"),
    ("workloads.requests_per_interval", "count"),
    ("engine.dispatch_ns_per_request", "ns"),
    ("engine.drain_ns_per_interval", "ns"),
    ("engine.resize_ns_per_call", "ns"),
    ("engine.setup_us_per_tenant", "us"),
    ("engine.quiescent_interval_frac", "frac"),
    ("engine.disk_reads_per_request", "count"),
    ("telemetry.signals_ns_per_interval", "ns"),
    ("policy.decide_ns_per_interval", "ns"),
    ("runner.loop_ns_per_interval", "ns"),
    ("replay.source_ns_per_interval", "ns"),
    ("fleet.worker_busy_frac", "frac"),
    ("fleet.tenant_ms_p50", "ms"),
    ("fleet.tenant_ms_p99", "ms"),
    ("obs.events_per_tenant_interval", "count"),
    ("store.append_ns_per_record", "ns"),
    ("store.commit_ms", "ms"),
    ("store.bytes_per_record", "B"),
    ("store.records", "count"),
    ("store.load_recording_us_p50", "us"),
    ("store.tenant_events_us_p50", "us"),
    ("store.fire_counts_us_p50", "us"),
    ("query_us_p50", "us"),
    ("query_us_p99", "us"),
    ("archive_bytes_per_tenant_interval", "B"),
    ("error_rate", "frac"),
    ("trace.coverage", "frac"),
    ("trace.overhead", "frac"),
];

/// Set-up repeats at least this often, and until [`SETUP_MIN_SECS`]: a
/// `paper_cells` set-up takes about 2 s, so its median is of five.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_SECS: f64 = 2.0;
const SETUP_MAX_REPS: usize = 10_000;
/// Timed passes per phase, at least.
const MIN_PASSES: usize = 2;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// A per-process scratch directory for stores, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(workload: &str) -> Res<Self> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".work")
            .join(format!("{workload}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too once no other run uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Resets the process's peak resident set size (VmHWM) to its current
/// resident set (Linux `clear_refs`, value 5), so the next reading is the
/// peak of what ran in between.
fn reset_peak_rss() -> Res<()> {
    std::fs::write("/proc/self/clear_refs", "5")?;
    Ok(())
}

/// Peak resident set size (VmHWM), MiB.
fn peak_rss_mib() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .ok_or("no VmHWM in /proc/self/status")?
        .parse()?;
    Ok(kib / 1024.0)
}

/// Builds the workload's inputs: the Max runs that fix the goals for
/// `paper_cells`, the archive for `replay_mill`.
fn build(args: &Args, work: &Path) -> Res<Box<dyn Bench>> {
    Ok(match args.workload.as_str() {
        "paper_cells" => Box::new(PaperCells::setup(args.seed, work)),
        "fleet_archive" => Box::new(FleetArchive::setup(args.seed, work)),
        _ => {
            let mut mill = ReplayMill::new(args.seed, work);
            mill.build_archive(None)?;
            Box::new(mill)
        }
    })
}

/// Sets the workload up repeatedly; returns the last build and the set-up
/// time distribution. Each build runs on a thread of its own: the fleet
/// set-up is allocation-bound, and on the main thread it took about 40%
/// more page faults (2-vCPU VM).
fn setup(args: &Args, work: &Path) -> Res<(Box<dyn Bench>, Summary)> {
    let mut times = Vec::new();
    let t_all = Instant::now();
    loop {
        let t0 = Instant::now();
        let bench = std::thread::scope(|s| s.spawn(|| build(args, work)).join())
            .map_err(|_| "set-up panicked")??;
        times.push(t0.elapsed().as_secs_f64());
        let enough =
            times.len() >= SETUP_MIN_REPS && t_all.elapsed().as_secs_f64() >= SETUP_MIN_SECS;
        if enough || times.len() >= SETUP_MAX_REPS {
            let summary = Summary::of(&times).ok_or("no set-up ran")?;
            return Ok((bench, summary));
        }
    }
}

/// Runs passes for at least `seconds` and [`MIN_PASSES`], noting each
/// pass's own peak resident set. A pass's peak varies with how far the
/// store writer lags (its queue is unbounded), so the process-wide peak,
/// the largest of them, varied more from run to run: IQR/median 0.23
/// against 0.15 over ten `fleet_archive` runs on a 2-vCPU VM.
fn measure(bench: &mut dyn Bench, ledger: Option<&Arc<Ledger>>, seconds: f64) -> Res<Vec<Pass>> {
    let t0 = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || t0.elapsed().as_secs_f64() < seconds {
        reset_peak_rss()?;
        let mut pass = bench.pass(ledger)?;
        pass.peak_rss_mib = peak_rss_mib()?;
        passes.push(pass);
    }
    Ok(passes)
}

/// The distribution over passes of `work(pass) / pass.secs`.
fn rate(passes: &[Pass], work: impl Fn(&Pass) -> u64) -> Res<Summary> {
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| ratio(work(p) as f64, p.secs))
        .collect();
    Ok(Summary::of(&rates).ok_or("no timed pass")?)
}

fn run(args: &Args) -> Res<RunResult> {
    let work = WorkDir::new(&args.workload)?;
    let (mut bench, setup_s) = setup(args, &work.0)?;
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "workload {} seed {} seconds {} trace {} (available parallelism {threads})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    // The warm-up pass fills caches and fixes the reference outputs every
    // later pass, traced or not, is checked against.
    let warmup = bench.pass(None)?;
    let phase = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let untraced = measure(bench.as_mut(), None, phase)?;
    let ledger = Arc::new(Ledger::default());
    let mut extra_failures = Vec::new();
    let mut extra_attempted = 0;
    let traced = if args.trace {
        extra_attempted += 1;
        extra_failures.extend(bench.trace_setup(&ledger)?);
        measure(bench.as_mut(), Some(&ledger), phase)?
    } else {
        Vec::new()
    };

    let layers = if args.trace {
        Some(bench.layers(&ledger, &traced)?)
    } else {
        None
    };
    let all = || std::iter::once(&warmup).chain(&untraced).chain(&traced);
    let attempted = all().map(|p| p.attempted).sum::<u64>()
        + extra_attempted
        + layers.as_ref().map_or(0, |l| l.attempted);
    let failures: Vec<&String> = all()
        .flat_map(|p| p.failures.iter())
        .chain(&extra_failures)
        .chain(layers.iter().flat_map(|l| l.failures.iter()))
        .collect();
    for f in failures.iter().take(10) {
        eprintln!("check failed: {f}");
    }
    let failed = failures.len() as u64;
    let error_rate = ratio(failed as f64, attempted as f64);

    let sim = warmup.sim;
    println!("output digest {:016x}", sim.digest);
    let intervals_rate = rate(&untraced, |p| p.tenant_intervals)?;
    let requests_rate = rate(&untraced, |p| p.requests)?;
    let peaks: Vec<f64> = untraced.iter().map(|p| p.peak_rss_mib).collect();
    let peak_rss = Summary::of(&peaks).ok_or("no timed pass")?;
    let e2e = [
        intervals_rate.median,
        requests_rate.median,
        setup_s.median,
        peak_rss.median,
        ratio(sim.cost, sim.intervals as f64),
        ratio(sim.goal_misses as f64, sim.intervals_run as f64),
    ];
    println!(
        "{} untraced passes of {} tenant-intervals and {} requests",
        untraced.len(),
        warmup.tenant_intervals,
        warmup.requests
    );
    println!(
        "per-pass tenant_intervals_per_s: {}",
        intervals_rate.describe("1/s")
    );
    let rates: Vec<String> = untraced
        .iter()
        .map(|p| format!("{:.1}", ratio(p.tenant_intervals as f64, p.secs)))
        .collect();
    println!("per-pass rates, in run order: {}", rates.join(" "));
    println!("set-up: {}", setup_s.describe("s"));
    println!("per-pass peak resident set: {}", peak_rss.describe("MiB"));
    for ((name, unit), value) in END_TO_END.iter().zip(e2e) {
        println!("{name} = {value} {unit}");
    }
    println!("error_rate = {error_rate} frac ({failed} of {attempted} checks failed)");
    let queries: Vec<f64> = untraced
        .iter()
        .flat_map(|p| p.queries.iter().map(|(_, us)| *us))
        .collect();
    if let Some(q) = Summary::of(&queries) {
        println!("query_us_p50 = {} us", q.median);
        println!(
            "query_us_p99 = {} us ({})",
            q.p99_or_tail(),
            q.describe("us")
        );
    }
    if let Some(a) = warmup.archive {
        println!(
            "archive_bytes_per_tenant_interval = {} B",
            ratio(a.bytes as f64, a.tenant_intervals as f64)
        );
    }

    let metrics = if let Some(layers) = layers {
        per_layer(layers, &untraced, &traced, error_rate)?
    } else {
        END_TO_END
            .iter()
            .zip(e2e)
            .map(|((name, unit), value)| Metric::new(name, value, unit))
            .collect()
    };
    Ok(RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}

/// The per-layer metrics of the traced passes: every one of
/// [`PER_LAYER`], each measured.
fn per_layer(
    layers: Layers,
    untraced: &[Pass],
    traced: &[Pass],
    error_rate: f64,
) -> Res<Vec<Metric>> {
    let secs = |ps: &[Pass]| Summary::of(&ps.iter().map(|p| p.secs).collect::<Vec<_>>());
    let (Some(plain), Some(with)) = (secs(untraced), secs(traced)) else {
        return Err("no timed passes".into());
    };
    let busy_ns: f64 = traced.iter().map(|p| p.secs * 1e9 * p.threads as f64).sum();
    let mut values = layers.values;
    values.insert("error_rate", error_rate);
    values.insert("trace.coverage", ratio(layers.seam_ns, busy_ns));
    values.insert("trace.overhead", with.median / plain.median - 1.0);
    println!("{} traced passes", traced.len());
    for note in &layers.notes {
        println!("{note}");
    }
    let mut out = Vec::with_capacity(PER_LAYER.len());
    for (name, unit) in PER_LAYER {
        let value = values
            .remove(name)
            .ok_or_else(|| format!("workload did not measure {name}"))?;
        println!("{name} = {value} {unit}");
        out.push(Metric::new(name, value, unit));
    }
    if let Some(extra) = values.keys().next() {
        return Err(format!("workload reported unlisted metric {extra}").into());
    }
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&argv)
        .map_err(Into::into)
        .and_then(|args| run(&args))
        .and_then(|r| Ok(r.to_json_line()?));
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2e_ledger: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&argv(
            "--workload replay_mill --seed 7 --seconds 20 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            a,
            Args {
                workload: "replay_mill".into(),
                seed: 7,
                seconds: 20.0,
                trace: true
            }
        );
    }

    #[test]
    fn refuses_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1",
            "--workload paper_cells",
            "--workload paper_cells --seed x",
            "--workload paper_cells --seed 1 --trace 2",
            "--workload paper_cells --seed 1 --seconds 0",
            "--workload paper_cells --seed 1 --bogus 1",
            "--workload paper_cells --seed",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn metric_lists_are_valid_and_distinct() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        for (i, (name, unit)) in END_TO_END.iter().chain(PER_LAYER.iter()).enumerate() {
            assert!(metrics::valid_name(name), "{name}");
            assert!(metrics::valid_unit(unit), "{unit}");
            assert!(!names[..i].contains(name), "{name} listed twice");
        }
        for w in WORKLOADS {
            assert!(metrics::valid_name(w));
        }
    }

    #[test]
    fn benchmark_json_lists_what_the_runs_print() {
        let spec = dasr_core::json::parse(include_str!("../../BENCHMARK.json")).expect("parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(|v| v.arr())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |k: &str| m.get(k).and_then(|v| v.str()).expect(k).to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), owned(&END_TO_END));
        assert_eq!(listed("per_layer"), owned(&PER_LAYER));
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(|v| v.arr())
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(|v| v.str()).expect("name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
