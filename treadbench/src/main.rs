//! `treadbench` — end-to-end and per-layer benchmark of the Treadmill
//! reproduction.
//!
//! ```text
//! treadbench --workload NAME --seed N --seconds S --trace 0|1
//!            [--smoke] [--corrupt-digest] [--out DIR] [--serve-bin PATH]
//!            [--window-ms MS]
//! ```
//!
//! Runs one workload (`loadtest_high`, `sharded_1m`, `pipeline_table4`,
//! `service_screened`) for `S` seconds on inputs generated from seed `N`,
//! checks every output, prints a report, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, timed on the plain paths; with
//! `--trace 1` they are the per-layer ones, taken from traced replicas of
//! the same paths. `--smoke` shrinks every workload to seconds;
//! `--corrupt-digest` flips one bit of the first reference output so the
//! checks must count a failure (the negative control of the self-test).
//! `--window-ms` sets the simulated duration of `loadtest_high` and
//! `sharded_1m` runs, to compare their layer shares with longer windows.
//! See README.md beside this crate.

mod pipeline;
mod replica;
mod service;
mod sim;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Times the set-ups of an in-process workload; `setup_s` is the
/// fastest. After the first set-up, the measured loop repeats one
/// whenever one is `due`. The host's slow phases last from under a
/// second to minutes, so set-ups taken only at the start of a run land
/// in one phase or another by chance; spread over the run, they also
/// meet its quick phases.
pub(crate) struct Setups {
    pub secs: Vec<f64>,
    next: Instant,
}

impl Setups {
    pub fn new() -> Self {
        Setups {
            secs: Vec::new(),
            next: Instant::now(),
        }
    }

    /// Runs and times one set-up. The next one is due after a pause of
    /// a second, or of three set-ups if longer, so set-ups take at most
    /// a quarter of the measured time.
    pub fn time<T>(&mut self, set_up: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let built = set_up();
        let took = start.elapsed();
        self.secs.push(took.as_secs_f64());
        self.next = Instant::now() + (3 * took).max(Duration::from_secs(1));
        built
    }

    pub fn due(&self) -> bool {
        Instant::now() >= self.next
    }
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub corrupt: bool,
    pub out_dir: PathBuf,
    pub serve_bin: Option<PathBuf>,
    pub window_ms: Option<u64>,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 0,
            seconds: 10.0,
            trace: false,
            smoke: false,
            corrupt: false,
            out_dir: PathBuf::from(".bench_out"),
            serve_bin: None,
            window_ms: None,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => args.workload = value()?,
                "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                }
                "--trace" => args.trace = value()? == "1",
                "--out" => args.out_dir = PathBuf::from(value()?),
                "--serve-bin" => args.serve_bin = Some(PathBuf::from(value()?)),
                "--window-ms" => {
                    let ms = value()?.parse().map_err(|e| format!("--window-ms: {e}"))?;
                    args.window_ms = Some(ms);
                }
                "--smoke" => args.smoke = true,
                "--corrupt-digest" => args.corrupt = true,
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(args)
    }

    /// When the measured loop stops taking new operations.
    pub fn deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds)
    }

    /// The simulated (duration, warm-up) in ms of one run: `default`, or
    /// the `--window-ms` duration with the warm-up scaled in proportion.
    pub fn window(&self, default: (u64, u64)) -> (u64, u64) {
        self.window_ms
            .map_or(default, |ms| (ms, ms * default.1 / default.0))
    }

    /// Worker threads the in-process workloads may use: the host's
    /// available parallelism.
    pub fn threads(&self) -> usize {
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
    }
}

/// Everything one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: String,
}

impl Outcome {
    /// Counts one checked operation; `ok` false counts it as failed.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.note(format!("check failed: {what}"));
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// A report line: printed, not part of the result object.
    pub fn note(&mut self, line: impl AsRef<str>) {
        let _ = writeln!(self.notes, "{}", line.as_ref());
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median of `values` (which it sorts).
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The smallest of `values`.
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Emits the end-to-end metrics of an untraced run.
///
/// Every operation repeats deterministic work (its outputs are checked
/// bit for bit), so time beyond its fastest repetition is interference.
/// The host is shared, and its slow phases last seconds to minutes, so
/// between runs the median moves far more than the fastest (README.md
/// has the figures). Set-up time is therefore the run's fastest set-up.
/// The workload picks the operation time and throughput it passes in:
/// the fastest operation and rate for the in-process workloads, the
/// median job for the service. Medians and tails are printed in the
/// report beside them.
///
/// Memory is the high-water RSS of a fresh process at the end of its
/// first set-up. Every later set-up or operation raises it by a
/// different amount, as the allocator's heap fragments.
pub fn end_to_end(
    out: &mut Outcome,
    setup_s: &[f64],
    op_ms: f64,
    responses_per_s: f64,
    setup_peak_rss_mb: f64,
) {
    out.note(format!(
        "setup_s: median {:.4} s; each set-up, in order: {setup_s:.4?}",
        median(&mut setup_s.to_vec())
    ));
    out.metric("setup_s", fastest(setup_s), "s");
    out.metric("op_ms", op_ms, "ms");
    out.metric("sim_responses_per_s", responses_per_s, "responses/s");
    out.metric("peak_rss_mb", setup_peak_rss_mb, "MB");
}

/// The highest of p50/p75/p90/p95/p99/p99.9 with at least ten samples
/// beyond it, as (percentile, value, samples beyond).
pub fn tail(values: &mut [f64]) -> Option<(f64, f64, usize)> {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find_map(|pct| {
            let rank = ((pct / 100.0 * n as f64).ceil() as usize).max(1);
            let beyond = n - rank;
            (beyond >= 10).then(|| (pct, values[rank - 1], beyond))
        })
}

/// Reports a timing sample set as median plus tail, in the notes.
pub fn note_timing(out: &mut Outcome, name: &str, values: &[f64]) {
    let mut v = values.to_vec();
    let p50 = median(&mut v);
    let tail = match tail(&mut v) {
        Some((pct, value, beyond)) => format!("p{pct} {value:.3} ms ({beyond} beyond)"),
        None => "tail: too few samples for a percentile with 10 beyond".to_string(),
    };
    out.note(format!(
        "{name}: p50 {p50:.3} ms, {tail}, n={}",
        values.len()
    ));
}

/// Emits the per-layer metrics from a traced run: per operation, the
/// median self time of each layer's calls, the engine's event count and
/// cost per event, the report layers' share, and the tracing overhead
/// (traced replica against the plain path, both timed in this run).
/// Also writes the spans to `spans.jsonl` in the output directory.
pub fn layer_metrics(
    args: &Args,
    out: &mut Outcome,
    tr: &trace::Tracer,
    events: &[u64],
    plain_ms: &[f64],
    traced_ms: &[f64],
) {
    // (span, metric, the end-to-end metric it should move).
    const LAYERS: [(&str, &str, &str); 6] = [
        ("cluster.build", "cluster.build_ms", "setup_s and op_ms on sharded_1m"),
        (
            "engine.run",
            "engine.run_ms",
            "op_ms and sim_responses_per_s on every workload, most on loadtest_high",
        ),
        (
            "cluster.extract",
            "cluster.extract_ms",
            "op_ms on loadtest_high; the shard merge on sharded_1m",
        ),
        ("core.summarise", "core.summarise_ms", REPORT_MOVES),
        ("cluster.capture", "cluster.capture_ms", REPORT_MOVES),
        ("core.pooled", "core.pooled_ms", REPORT_MOVES),
    ];
    const REPORT_MOVES: &str =
        "op_ms up to core.report_share on loadtest_high; pipeline_table4; peak_rss_mb";
    // The first operation's count: it repeats exactly for a given seed,
    // whatever the number of operations the run fits in.
    out.metric("engine.events", events[0] as f64, "count");
    let total_events = events.iter().sum::<u64>() as f64;
    for (span, name, moves) in LAYERS {
        let ms = median(&mut tr.per_op_ms(span));
        out.metric(name, ms, "ms");
        out.note(format!("layer {name} {ms:.3} ms -> {moves}"));
    }
    out.metric(
        "engine.ns_per_event",
        tr.total_ms("engine.run") * 1e6 / total_events,
        "ns",
    );
    let total: f64 = LAYERS.iter().map(|(span, ..)| tr.total_ms(span)).sum();
    // Report building: summaries, aggregate, capture and pooled view.
    // `cluster.extract` (or the shard merge) is not part of it.
    let report: f64 = LAYERS[3..].iter().map(|(span, ..)| tr.total_ms(span)).sum();
    out.metric("core.report_share", report / total, "ratio");
    let overhead = fastest(traced_ms) / fastest(plain_ms) - 1.0;
    out.metric("trace.overhead_pct", overhead * 100.0, "%");
    let path = args.out_dir.join("spans.jsonl");
    if let Err(e) = tr.write_jsonl(&path) {
        out.note(format!("cannot write {}: {e}", path.display()));
    }
}

/// High-water resident set size of process `pid` ("self" for this one),
/// in MB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn main() {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("treadbench: {message}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("treadbench: cannot create {}: {e}", args.out_dir.display());
        std::process::exit(2);
    }
    let outcome = match args.workload.as_str() {
        "loadtest_high" => sim::loadtest_high(&args),
        "sharded_1m" => sim::sharded_1m(&args),
        "pipeline_table4" => pipeline::run(&args),
        "service_screened" => service::run(&args),
        other => {
            eprintln!("treadbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    println!(
        "env available_parallelism={} workload={} seed={} trace={}",
        args.threads(),
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    print!("{}", outcome.notes);
    let failed_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "failed_frac: {failed_frac} ({} of {} checked operations)",
        outcome.failed, outcome.attempted
    );
    println!("{}", outcome.json());
}
