//! `pipeline_table4`: the paper pipeline at reduced scale —
//! `inference::collect` over all 16 hardware cells × R runs with
//! subsampling, then `attribution_table` with bootstrap (Table IV).
//! Every simulated experiment is open loop at a fixed rate.

use std::sync::Arc;
use std::time::Instant;

use treadmill_cluster::HardwareConfig;
use treadmill_core::LoadTestConfig;
use treadmill_inference::{attribution_table, collect, AttributionResult, CollectionPlan, Dataset};
use treadmill_sim_core::{SeedStream, SimDuration};
use treadmill_stats::regression::Cell;
use treadmill_workloads::Workload;

use crate::replica;
use crate::trace::Tracer;
use crate::{
    end_to_end, fastest, layer_metrics, median, note_timing, peak_rss_mb, Args, Outcome, Setups,
};

/// Fewest measured pipelines, whatever the time budget.
const MIN_OPS: usize = 3;

/// FNV-1a over a sequence of 64-bit words.
fn digest_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut bytes = Vec::new();
    for w in words {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    treadmill_sim_core::fnv1a64(&bytes)
}

struct Pipeline {
    config: LoadTestConfig,
    workload: Arc<dyn Workload>,
    plan: CollectionPlan,
    replicates: usize,
}

/// What a pipeline must reproduce: its dataset and its Table IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Digest {
    dataset: u64,
    table: u64,
}

impl Digest {
    fn of(dataset: &Dataset, table: &[AttributionResult]) -> Self {
        let samples = dataset
            .cells
            .iter()
            .flat_map(|c| c.runs().iter().flatten().map(|v| v.to_bits()));
        let coefficients = table.iter().flat_map(|r| {
            std::iter::once(r.tau.to_bits()).chain(r.coefficients.iter().flat_map(|c| {
                [
                    c.estimate.to_bits(),
                    c.std_error.to_bits(),
                    c.p_value.to_bits(),
                ]
            }))
        });
        Digest {
            dataset: digest_words(samples),
            table: digest_words(coefficients),
        }
    }
}

impl Pipeline {
    /// Parses the generated base config and derives the collection plan
    /// from it.
    fn parse(json: &str, runs: usize, samples: usize, replicates: usize, threads: usize) -> Self {
        let config = LoadTestConfig::from_json(json).expect("generated config parses");
        let workload = config.workload.build().expect("generated workload builds");
        let plan = CollectionPlan {
            runs_per_config: runs,
            samples_per_run: samples,
            clients: config.clients,
            duration: SimDuration::from_millis(config.duration_ms),
            warmup: SimDuration::from_millis(config.warmup_ms),
            seed: config.seed,
            threads,
            ..CollectionPlan::new(Arc::clone(&workload), config.target_rps)
        };
        Pipeline {
            config,
            workload,
            plan,
            replicates,
        }
    }

    /// The plain path: (digest, collect ms, attribution ms, samples kept).
    fn run(&self) -> (Digest, f64, f64, usize) {
        let start = Instant::now();
        let dataset = collect(&self.plan);
        let collected = Instant::now();
        let table = attribution_table(&dataset, self.replicates, self.plan.seed);
        let end = Instant::now();
        (
            Digest::of(&dataset, &table),
            (collected - start).as_secs_f64() * 1e3,
            (end - collected).as_secs_f64() * 1e3,
            dataset.total_samples(),
        )
    }

    /// The traced replica: every experiment `collect` runs, replayed in
    /// cell order on this thread, then the same Table IV fit.
    /// Returns (digest, window responses simulated, events).
    fn replica(&self, tr: &mut Tracer) -> (Digest, usize, u64) {
        let plan = &self.plan;
        let (mut window, mut events) = (0usize, 0u64);
        let cells = (0..16)
            .map(|c| {
                let mut cell = self.config.clone();
                cell.hardware = Some(u8::try_from(c).expect("16 cells"));
                cell.seed = SeedStream::new(plan.seed).derive("experiment", c as u64);
                let runs = (0..plan.runs_per_config)
                    .map(|rep| {
                        let run = replica::run(&cell, &self.workload, rep as u64, 1, tr);
                        window += run.digest.window;
                        events += run.digest.events;
                        let rng = SeedStream::new(plan.seed)
                            .child("subsample", c as u64)
                            .stream("rep", rep as u64);
                        tr.span("collect.subsample", |_| {
                            replica::subsample(&run.pooled, plan.samples_per_run, rng)
                        })
                    })
                    .collect();
                Cell::new(HardwareConfig::from_index(c).levels(), runs)
            })
            .collect();
        let dataset = Dataset {
            cells,
            target_rps: plan.target_rps,
            workload_name: self.workload.name().to_string(),
        };
        let table = tr.span("attribute", |_| {
            attribution_table(&dataset, self.replicates, plan.seed)
        });
        (Digest::of(&dataset, &table), window, events)
    }
}

pub fn run(args: &Args) -> Outcome {
    let (runs, duration_ms, warmup_ms, samples, replicates) = if args.smoke {
        (1, 10, 2, 300, 5)
    } else {
        (2, 10, 3, 500, 20)
    };
    // One job slot: on a host with few cores, parallel slots need every
    // core at once, so their time follows the neighbours' load
    // (README.md). The traced replica also replays on one thread.
    let threads = 1;
    let json = format!(
        r#"{{"workload": {{"workload": "memcached"}}, "target_rps": 750000,
            "clients": 4, "duration_ms": {duration_ms}, "warmup_ms": {warmup_ms}, "seed": {}}}"#,
        args.seed
    );
    let mut out = Outcome::default();

    // Set-up: parse the generated config into a plan and run one
    // untimed warm-up pipeline. The first set-up pins the reference
    // Table IV; later ones are checked against it.
    let set_up = |out: &mut Outcome, reference: &mut Option<Digest>| {
        let p = Pipeline::parse(&json, runs, samples, replicates, threads);
        let (digest, ..) = p.run();
        match reference {
            Some(r) => out.check(*r == digest, "warm-up pipeline repeats"),
            None => {
                let mut pinned = digest;
                if args.corrupt {
                    pinned.table ^= 1;
                }
                *reference = Some(pinned);
                out.check(true, "");
            }
        }
        p
    };
    let mut setups = Setups::new();
    let mut reference: Option<Digest> = None;
    let p = setups.time(|| set_up(&mut out, &mut reference));
    let peak = peak_rss_mb("self");

    let mut tr = Tracer::new();
    let (mut plain_ms, mut traced_ms, mut events) = (Vec::new(), Vec::new(), Vec::new());
    let (mut collect_ms, mut attribute_ms) = (Vec::new(), Vec::new());
    let mut kept = 0;
    let deadline = args.deadline();
    let mut op = 0u64;
    while plain_ms.len() < MIN_OPS || Instant::now() < deadline {
        if setups.due() {
            setups.time(|| set_up(&mut out, &mut reference));
        }
        let reference = reference.expect("set-up ran");
        let start = Instant::now();
        let (digest, c_ms, a_ms, k) = p.run();
        plain_ms.push(start.elapsed().as_secs_f64() * 1e3);
        collect_ms.push(c_ms);
        attribute_ms.push(a_ms);
        kept = k;
        out.check(
            digest == reference,
            "Table IV digest is stable across repetitions",
        );
        if args.trace {
            tr.set_op(op);
            let start = Instant::now();
            let (digest, _, ev) = p.replica(&mut tr);
            traced_ms.push(start.elapsed().as_secs_f64() * 1e3);
            events.push(ev);
            out.check(
                digest == reference,
                "traced replica reproduces the pipeline",
            );
        }
        op += 1;
    }

    // The plain `collect` keeps no count of what it simulated; one
    // replica pass (untimed, checked) supplies the window responses.
    let (digest, window, _) = p.replica(&mut Tracer::new());
    out.check(
        Some(digest) == reference,
        "replica reproduces the pipeline",
    );

    out.note(format!(
        "threads={threads} experiments={} ops={op}",
        p.plan.total_experiments()
    ));
    note_timing(&mut out, "pipeline_ms", &plain_ms);
    let kept_ratio = kept as f64 / window as f64;
    out.note(format!(
        "collect.ms {:.3}; attribute.ms {:.3} (stats + inference: cannot show end to end against \
         collect); collect.experiments {}; collect.kept_ratio {kept_ratio:.6} ({kept} kept of {window} \
         window responses) -> op_ms on pipeline_table4 only",
        median(&mut collect_ms),
        median(&mut attribute_ms),
        p.plan.total_experiments()
    ));
    if args.trace {
        out.note(format!(
            "layer collect.subsample_ms {:.3}; replica attribute.ms {:.3} \
             -> op_ms on pipeline_table4 only",
            median(&mut tr.per_op_ms("collect.subsample")),
            median(&mut tr.per_op_ms("attribute"))
        ));
        layer_metrics(args, &mut out, &tr, &events, &plain_ms, &traced_ms);
    } else {
        let best_ms = fastest(&plain_ms);
        end_to_end(
            &mut out,
            &setups.secs,
            best_ms,
            window as f64 / (best_ms / 1e3),
            peak,
        );
    }
    out
}
