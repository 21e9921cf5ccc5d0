//! `treadmill-cli` — drive the reproduction from the command line.
//!
//! ```text
//! treadmill-cli run <config.json> [--runs N] [--seed S]
//!     Run a JSON-configured load test with the repeated-run procedure
//!     and print per-run and aggregated summaries.
//!
//! treadmill-cli sweep <config.json> --out DIR [--runs N] [--seed S] [--ckpt-events K]
//!     Crash-tolerant sweep of the config as a treadmill-serve job runs
//!     it, printing the lines its /events streams: with a `screen` block,
//!     the screened 16-cell factorial (screen.tsv, factorial.tsv and one
//!     N-run sweep per flagged cell in DIR/hw_NN/); without one, N
//!     repeated runs (cell_N.tsv, summary.tsv, attribution.tsv). Journals
//!     per-cell status to manifest.jsonl, checkpoints the running cell
//!     every K events, and writes atomic TSV artifacts. Rerunning the
//!     same command skips done cells and resumes the in-flight one from
//!     its checkpoint, producing byte-identical artifacts to an
//!     uninterrupted sweep; an empty DIR computes from scratch.
//!
//! treadmill-cli attribute <memcached|mcrouter> [--rps R] [--runs N] [--seed S]
//!     Run the 2^4 factorial campaign, print the Table IV-style
//!     coefficient table at p50/p95/p99 and the recommended config.
//!
//! treadmill-cli compare <config.json> <configA-index> <configB-index> [--runs N]
//!     Run two hardware configurations under the same JSON load test
//!     and compare their per-run p99s with Welch's t-test.
//!
//! treadmill-cli screen <config.json>
//!     Analytic screening: rank all 16 hardware cells with the
//!     closed-form M/G/k estimator and flag the ones whose predicted
//!     tail effect reaches the config's `screen` threshold (0.25 without
//!     a `screen` block). Simulates nothing: `sweep` on a config with a
//!     `screen` block simulates the flagged cells.
//!
//! treadmill-cli screen <memcached|mcrouter> [--rps R] [--runs N] [--seed S]
//!     Randomised factor screening (§IV-B): which factors measurably
//!     move p99 at this load?
//!
//! treadmill-cli submit <spec.json> --addr HOST:PORT [--key K]
//!     Submit an experiment spec to a running treadmill-serve (with an
//!     optional idempotency key) and print the assigned job id.
//!
//! treadmill-cli status <job-id> --addr HOST:PORT
//!     Print a submitted experiment's status JSON.
//!
//! treadmill-cli fetch <job-id> --addr HOST:PORT [--artifact NAME] [--out FILE]
//!     Fetch a finished experiment's artifact (attribution, the
//!     default, or summary, screen, factorial) to stdout or FILE.
//! ```
//!
//! `sweep` installs SIGINT/SIGTERM handlers: an interrupted sweep seals
//! the in-flight checkpoint before exiting (its journal appends are
//! fsynced one by one), so rerunning it continues exactly like after a
//! crash.
//!
//! A `--runs` that a command's procedure cannot use (below 2 for `run`
//! and `compare`, 0 for the others that simulate) is rejected before
//! anything is simulated, and so is a sweep's `--ckpt-events` below
//! every sweep's floor (`MIN_CKPT_EVENTS`, 1,000): at 0 a sweep would
//! neither checkpoint nor notice Ctrl-C until its cell ends. Every
//! command that simulates validates a `LoadTestConfig` first, so a bad
//! `--rps` is an error naming `target_rps`, not a panic.

use std::path::Path;
use std::process::ExitCode;

use treadmill::cluster::HardwareConfig;
use treadmill::core::experiment::run_until_converged_with;
use treadmill::core::sweep::MIN_CKPT_EVENTS;
use treadmill::core::{ExperimentOptions, LoadTestConfig, SweepControl, SweepEvent, SweepOptions};
use treadmill::inference::{
    attribute, collect, run_config_sweep, screen_factors, screen_hardware, CollectionPlan,
    ScreeningOptions, TABLE_IV_PERCENTILES,
};
use treadmill::sim::SimDuration;
use treadmill::stats::compare::welch_t_test;

struct Flags {
    positional: Vec<String>,
    runs: usize,
    rps: f64,
    seed: u64,
    out: Option<String>,
    ckpt_events: Option<u64>,
    addr: Option<String>,
    key: Option<String>,
    artifact: String,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        positional: Vec::new(),
        runs: 6,
        rps: 700_000.0,
        seed: 2016,
        out: None,
        ckpt_events: None,
        addr: None,
        key: None,
        artifact: "attribution".to_string(),
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--runs" => {
                flags.runs = iter
                    .next()
                    .ok_or("--runs needs a value")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
            }
            "--rps" => {
                flags.rps = iter
                    .next()
                    .ok_or("--rps needs a value")?
                    .parse()
                    .map_err(|e| format!("--rps: {e}"))?;
            }
            "--seed" => {
                flags.seed = iter
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--out" => {
                flags.out = Some(iter.next().ok_or("--out needs a directory")?.clone());
            }
            "--ckpt-events" => {
                flags.ckpt_events = Some(
                    iter.next()
                        .ok_or("--ckpt-events needs a value")?
                        .parse()
                        .map_err(|e| format!("--ckpt-events: {e}"))?,
                );
            }
            "--addr" => {
                flags.addr = Some(iter.next().ok_or("--addr needs host:port")?.clone());
            }
            "--key" => {
                flags.key = Some(iter.next().ok_or("--key needs a value")?.clone());
            }
            "--artifact" => {
                flags.artifact = iter
                    .next()
                    .ok_or("--artifact needs a name (attribution|summary|screen|factorial)")?
                    .clone();
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown flag {other}"));
            }
            other => flags.positional.push(other.to_string()),
        }
    }
    Ok(flags)
}

fn usage() -> &'static str {
    "usage:\n  treadmill-cli run <config.json> [--runs N] [--seed S]\n  \
     treadmill-cli sweep <config.json> --out DIR [--runs N] [--seed S] [--ckpt-events K]\n  \
     treadmill-cli attribute <memcached|mcrouter> [--rps R] [--runs N] [--seed S]\n  \
     treadmill-cli compare <config.json> <cfgA 0-15> <cfgB 0-15> [--runs N]\n  \
     treadmill-cli screen <config.json>\n  \
     treadmill-cli screen <memcached|mcrouter> [--rps R] [--runs N] [--seed S]\n  \
     treadmill-cli submit <spec.json> --addr HOST:PORT [--key K]\n  \
     treadmill-cli status <job-id> --addr HOST:PORT\n  \
     treadmill-cli fetch <job-id> --addr HOST:PORT [--artifact NAME] [--out FILE]"
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    }
    let command = args[0].clone();
    let flags = match parse_flags(&args[1..]) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "run" => cmd_run(&flags),
        "sweep" => cmd_sweep(&flags),
        "attribute" => cmd_attribute(&flags),
        "compare" => cmd_compare(&flags),
        "screen" => cmd_screen(&flags),
        "submit" => cmd_submit(&flags),
        "status" => cmd_status(&flags),
        "fetch" => cmd_fetch(&flags),
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Rejects a `--runs` below `min`, the fewest runs the command's
/// procedure can use, before anything is simulated.
fn require_runs(flags: &Flags, min: usize, why: &str) -> Result<(), String> {
    if flags.runs < min {
        return Err(format!("--runs must be at least {min} ({why}), got {}", flags.runs));
    }
    Ok(())
}

fn load_config(path: &str) -> Result<LoadTestConfig, String> {
    let json = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {path}: {e}"))?;
    LoadTestConfig::from_json(&json).map_err(|e| e.to_string())
}

fn cmd_run(flags: &Flags) -> Result<(), String> {
    let path = flags
        .positional
        .first()
        .ok_or("run needs a config file path")?;
    require_runs(flags, 2, "the repeated-run procedure needs two runs to converge")?;
    let mut config = load_config(path)?;
    config.seed = flags.seed;
    let test = config.build().map_err(|e| e.to_string())?;
    println!(
        "running up to {} restarts of {} at {} RPS ...",
        flags.runs, config.workload.workload, config.target_rps
    );
    // The last run's full report is kept for the health checks below,
    // one report alive at a time.
    let mut last = None;
    let options = ExperimentOptions {
        min_runs: 2.max(flags.runs / 3),
        max_runs: flags.runs,
        relative_tolerance: 0.05,
        confidence: 0.95,
    };
    let outcome = run_until_converged_with(options, |i| {
        last = None;
        let report = test.run(i);
        let summary = report.aggregated;
        last = Some(report);
        summary
    });
    for (i, run) in outcome.runs.iter().enumerate() {
        println!(
            "  run {i}: p50 {:7.1}us  p95 {:7.1}us  p99 {:7.1}us  ({} samples)",
            run.p50, run.p95, run.p99, run.count
        );
    }
    println!(
        "converged: {} after {} runs",
        outcome.converged,
        outcome.num_runs()
    );
    println!(
        "estimate: p50 {:.1}us, p99 {:.1} ± {:.1}us\n",
        outcome.mean_p50, outcome.mean_p99, outcome.stddev_p99
    );
    // Full report (incl. pitfall health checks) for the last run.
    if let Some(last) = &last {
        print!("{}", treadmill::core::render_report(last, config.target_rps));
    }
    Ok(())
}

fn cmd_sweep(flags: &Flags) -> Result<(), String> {
    let path = flags
        .positional
        .first()
        .ok_or("sweep needs a config file path")?;
    let out = flags.out.as_ref().ok_or("sweep needs --out DIR")?;
    require_runs(flags, 1, "a sweep runs each cell at least once")?;
    let mut opts = SweepOptions {
        runs: flags.runs as u64,
        ..SweepOptions::default()
    };
    if let Some(k) = flags.ckpt_events {
        if k < MIN_CKPT_EVENTS {
            return Err(format!(
                "--ckpt-events must be at least {MIN_CKPT_EVENTS}, got {k}"
            ));
        }
        opts.ckpt_events = k;
    }
    let mut config = load_config(path)?;
    config.seed = flags.seed;
    // Ctrl-C / SIGTERM cancels at the next checkpoint boundary: the
    // checkpoint is sealed (the journal is fsynced per append), so a
    // rerun continues exactly like after a SIGKILL — same plumbing the
    // server's drain path uses.
    treadmill::server::shutdown::install();
    let mut on_event = |event: SweepEvent| println!("{event}");
    let mut ctrl = SweepControl {
        cancel: Some(treadmill::server::shutdown::flag()),
        progress: Some(&mut on_event),
    };
    let swept =
        run_config_sweep(&config, Path::new(out), &opts, &mut ctrl).map_err(|e| e.to_string())?;
    for warning in &swept.warnings {
        println!("note: {warning}");
    }
    if swept.interrupted {
        println!(
            "interrupted: checkpoint sealed and journal flushed; \
             rerun the same command to continue"
        );
    }
    for artifact in &swept.artifacts {
        println!("wrote {}", artifact.display());
    }
    Ok(())
}

fn addr_flag(flags: &Flags) -> Result<&str, String> {
    flags
        .addr
        .as_deref()
        .ok_or_else(|| "--addr HOST:PORT is required (see DIR/addr.txt)".to_string())
}

const CLIENT_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(5);

fn cmd_submit(flags: &Flags) -> Result<(), String> {
    let path = flags
        .positional
        .first()
        .ok_or("submit needs a spec file path")?;
    let addr = addr_flag(flags)?;
    let body = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut headers: Vec<(&str, &str)> =
        vec![("Content-Type", "application/json")];
    if let Some(key) = &flags.key {
        headers.push(("Idempotency-Key", key));
    }
    let resp = treadmill::server::client::request(
        addr,
        "POST",
        "/experiments",
        &headers,
        &body,
        CLIENT_TIMEOUT,
    )
    .map_err(|e| format!("submit to {addr} failed: {e}"))?;
    println!("{}", resp.text());
    if resp.status == 201 || resp.status == 200 {
        Ok(())
    } else {
        Err(format!("server rejected the spec (HTTP {})", resp.status))
    }
}

fn cmd_status(flags: &Flags) -> Result<(), String> {
    let id = flags.positional.first().ok_or("status needs a job id")?;
    let addr = addr_flag(flags)?;
    let resp = treadmill::server::client::request(
        addr,
        "GET",
        &format!("/experiments/{id}"),
        &[],
        &[],
        CLIENT_TIMEOUT,
    )
    .map_err(|e| format!("status from {addr} failed: {e}"))?;
    println!("{}", resp.text());
    if resp.status == 200 {
        Ok(())
    } else {
        Err(format!("HTTP {}", resp.status))
    }
}

fn cmd_fetch(flags: &Flags) -> Result<(), String> {
    let id = flags.positional.first().ok_or("fetch needs a job id")?;
    let addr = addr_flag(flags)?;
    let resp = treadmill::server::client::request(
        addr,
        "GET",
        &format!("/experiments/{id}/{}", flags.artifact),
        &[],
        &[],
        CLIENT_TIMEOUT,
    )
    .map_err(|e| format!("fetch from {addr} failed: {e}"))?;
    if resp.status != 200 {
        return Err(format!("HTTP {}: {}", resp.status, resp.text()));
    }
    match &flags.out {
        Some(out) => {
            std::fs::write(out, &resp.body)
                .map_err(|e| format!("cannot write {out}: {e}"))?;
            println!("wrote {} bytes to {out}", resp.body.len());
        }
        None => print!("{}", resp.text()),
    }
    Ok(())
}

/// The load test `attribute` and `screen <workload>` simulate: the named
/// workload at `--rps` in the command's own `shape` (clients and
/// windows, as JSON fields), validated as `run`, `sweep` and the service
/// validate theirs.
fn workload_config(name: &str, flags: &Flags, shape: &str) -> Result<LoadTestConfig, String> {
    let name = serde_json::to_string(&name.to_string()).map_err(|e| e.to_string())?;
    let seed = flags.seed;
    let json = format!(
        r#"{{"workload": {{"workload": {name}}}, "target_rps": 0, "seed": {seed}, {shape}}}"#
    );
    let mut config = LoadTestConfig::from_json(&json).map_err(|e| e.to_string())?;
    // JSON has no NaN: the rate goes in after parsing.
    config.target_rps = flags.rps;
    config.validate().map_err(|e| e.to_string())?;
    Ok(config)
}

fn cmd_attribute(flags: &Flags) -> Result<(), String> {
    let name = flags
        .positional
        .first()
        .ok_or("attribute needs a workload name")?;
    require_runs(flags, 1, "every hardware configuration needs a run")?;
    let shape = r#""clients": 8, "duration_ms": 400, "warmup_ms": 100"#;
    let config = workload_config(name, flags, shape)?;
    let workload = config.workload.build().map_err(|e| e.to_string())?;
    let plan = CollectionPlan {
        runs_per_config: flags.runs,
        samples_per_run: 10_000,
        clients: config.clients,
        duration: SimDuration::from_millis(config.duration_ms),
        warmup: SimDuration::from_millis(config.warmup_ms),
        seed: config.seed,
        ..CollectionPlan::new(workload, config.target_rps)
    };
    println!(
        "collecting {} experiments for {name} at {} RPS ...",
        plan.total_experiments(),
        flags.rps
    );
    let dataset = collect(&plan);
    println!(
        "{:<22} {:>18} {:>18} {:>18}",
        "factor", "p50 est (p)", "p95 est (p)", "p99 est (p)"
    );
    let models: Vec<_> = TABLE_IV_PERCENTILES
        .iter()
        .map(|&tau| attribute(&dataset, tau, 200, flags.seed))
        .collect();
    for t in 0..models[0].coefficients.len() {
        let mut line = format!("{:<22}", models[0].coefficients[t].term);
        for model in &models {
            let c = &model.coefficients[t];
            let star = if c.p_value < 0.05 { "*" } else { " " };
            line.push_str(&format!(" {:>+9.1} ({:.2}){star}", c.estimate, c.p_value));
        }
        println!("{line}");
    }
    let best = models.last().expect("models nonempty").best_config();
    println!("\nrecommended configuration for p99: {best} (index {})", best.index());
    Ok(())
}

fn cmd_screen(flags: &Flags) -> Result<(), String> {
    let target = flags
        .positional
        .first()
        .ok_or("screen needs a workload name or config.json")?;
    if flags.out.is_some() {
        return Err("screen writes nothing: `sweep` a config with a `screen` block".to_string());
    }
    if target.ends_with(".json") {
        return cmd_screen_analytic(target);
    }
    let shape = r#""clients": 4, "duration_ms": 200, "warmup_ms": 50"#;
    let test = workload_config(target, flags, shape)?
        .build()
        .map_err(|e| e.to_string())?;
    let experiments = (flags.runs * 8).max(16);
    println!(
        "screening 4 factors with {experiments} randomised experiments at {} RPS ...",
        flags.rps
    );
    let results = screen_factors(
        &["numa", "turbo", "dvfs", "nic"],
        ScreeningOptions {
            experiments,
            alpha: 0.05,
            seed: flags.seed,
        },
        |levels: &[bool], i: usize| {
            let index = levels
                .iter()
                .enumerate()
                .fold(0usize, |acc, (b, &on)| acc | (usize::from(on) << b));
            test.clone()
                .hardware(HardwareConfig::from_index(index))
                .seed(flags.seed ^ (i as u64).wrapping_mul(0x9E37_79B9))
                .run(0)
                .aggregated
                .p99
        },
    )
    .map_err(|e| e.to_string())?;
    println!(
        "{:<8} {:>12} {:>12} {:>10} {:>12}",
        "factor", "p99@low", "p99@high", "p-value", "significant"
    );
    for r in &results {
        println!(
            "{:<8} {:>10.1}us {:>10.1}us {:>10.4} {:>12}",
            r.factor,
            r.mean_low,
            r.mean_high,
            r.p_value,
            if r.significant { "YES" } else { "no" }
        );
    }
    Ok(())
}

/// Analytic screening of a JSON-configured load test: the closed-form
/// M/G/k estimator ranks all 16 hardware cells at the config's own
/// threshold, the one `sweep` applies to it.
fn cmd_screen_analytic(path: &str) -> Result<(), String> {
    let config = load_config(path)?;
    config.validate().map_err(|e| e.to_string())?;
    let threshold = config.screen.unwrap_or_default().threshold;
    let plan = screen_hardware(&config, threshold).map_err(|e| e.to_string())?;
    println!(
        "analytic screen of 16 hardware cells at {} RPS (threshold {:.3}):",
        config.target_rps, threshold
    );
    println!(
        "{:<5} {:<24} {:>10} {:>10} {:>10} {:>6} {:>8} {:>8}",
        "cell", "config", "p50", "p95", "p99", "util", "effect", "flagged"
    );
    for &index in &plan.ranking {
        let cell = &plan.cells[index];
        println!(
            "{:<5} {:<24} {:>8.1}us {:>8.1}us {:>8.1}us {:>6.2} {:>8.3} {:>8}",
            cell.index,
            HardwareConfig::from_index(cell.index).to_string(),
            cell.p50_us,
            cell.p95_us,
            cell.p99_us,
            cell.utilization,
            cell.tail_effect,
            if cell.flagged { "YES" } else { "no" }
        );
    }
    println!(
        "flagged {} of {} cells (baseline p99 {:.1}us)",
        plan.flagged.len(),
        plan.cells.len(),
        plan.baseline_p99_us
    );
    Ok(())
}

fn cmd_compare(flags: &Flags) -> Result<(), String> {
    if flags.positional.len() < 3 {
        return Err("compare needs <config.json> <cfgA> <cfgB>".to_string());
    }
    require_runs(flags, 2, "Welch's t-test needs two runs per configuration")?;
    let mut config = load_config(&flags.positional[0])?;
    config.seed = flags.seed;
    let a_index: usize = flags.positional[1]
        .parse()
        .map_err(|e| format!("cfgA: {e}"))?;
    let b_index: usize = flags.positional[2]
        .parse()
        .map_err(|e| format!("cfgB: {e}"))?;
    if a_index > 15 || b_index > 15 {
        return Err("configuration indices must be 0..=15".to_string());
    }
    let base = config.build().map_err(|e| e.to_string())?;
    let run_arm = |idx: usize| -> Vec<f64> {
        let test = base.clone().hardware(HardwareConfig::from_index(idx));
        (0..flags.runs as u64)
            .map(|i| test.run(i).aggregated.p99)
            .collect()
    };
    println!("running {} restarts per configuration ...", flags.runs);
    let a = run_arm(a_index);
    let b = run_arm(b_index);
    let cmp = welch_t_test(&a, &b);
    println!(
        "config {a_index} ({}): mean p99 {:.1}us",
        HardwareConfig::from_index(a_index),
        cmp.mean_a
    );
    println!(
        "config {b_index} ({}): mean p99 {:.1}us",
        HardwareConfig::from_index(b_index),
        cmp.mean_b
    );
    println!(
        "difference {:+.1}us ({:+.1}%), t = {:.2}, df = {:.1}, p = {:.4}",
        cmp.difference,
        cmp.relative_change() * 100.0,
        cmp.t_statistic,
        cmp.degrees_of_freedom,
        cmp.p_value
    );
    if cmp.is_significant(0.05) {
        println!("verdict: statistically significant at the 5% level");
    } else {
        println!("verdict: NOT significant — run more restarts before concluding anything");
    }
    Ok(())
}
