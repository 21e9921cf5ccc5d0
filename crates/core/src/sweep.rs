//! Crash-tolerant sweep orchestration.
//!
//! A sweep executes `runs` repeated cells of one load-test
//! configuration (fresh server start per cell, per the repeated-run
//! procedure) and persists everything needed to survive a SIGKILL at
//! any instant:
//!
//! * **manifest journal** — `manifest.jsonl` in the output directory is
//!   a [`Journal`] with one line per state transition (`running` when a
//!   cell starts from event zero, `done` with its results), each
//!   carrying the cell's derived seed and the configuration hash. A
//!   cell with no line has not started. Appends are fsynced; a line torn
//!   by a crash mid-write is sealed on resume and ignored on replay.
//! * **atomic artifacts** — every `.tsv` and checkpoint envelope goes
//!   through [`write_atomic`] (a `*.tmp` sibling, fsynced, then renamed
//!   into place), so a reader (or a resumed sweep) never observes a
//!   half-written file.
//! * **checkpoints** — every `ckpt_events` events the running cell
//!   appends the records completed since its previous checkpoint to
//!   `cell_N.records` and fsyncs them, then publishes `cell_N.ckpt`, a
//!   small envelope holding the rest of its state and the segment's
//!   committed length and checksum (see
//!   [`crate::resumable::ResumableRun`]). A crash between the two leaves
//!   the previous envelope in charge and a tail it does not commit.
//! * **recovery** — every sweep replays the journal in its directory
//!   (there is no fresh-start mode): it skips cells already `done`
//!   (their artifacts are left untouched), resumes the in-flight cell
//!   from its checkpoint — reading exactly the committed prefix of its
//!   segment and cutting off the rest — and runs the rest. Because
//!   checkpointed resume is bit-identical, the final artifacts are
//!   byte-for-byte the same as an uninterrupted sweep's. A line
//!   journaled under another configuration hash means that
//!   configuration has since rewritten the cell's files, so it undoes
//!   what earlier lines said about the cell; and only cells below
//!   `runs` reach `summary.tsv`. A cell that starts from event zero
//!   clears its checkpoint files before it journals `running`.
//!
//! Each cell's quantiles are journaled as exact `f64` bit patterns, so
//! `summary.tsv` rows for skipped cells reproduce without re-running.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

use serde::{Deserialize, Serialize};
use treadmill_cluster::{HardwareConfig, PacketCapture};
use treadmill_sim_core::fnv1a64;

use crate::aggregation::tail_composition;
use crate::config::{ConfigError, LoadTestConfig};
use crate::journal::{
    append_synced_with, remove_synced, truncate_synced, write_atomic, Journal, Replay,
};
use crate::report::health_warnings;
use crate::resumable::ResumableRun;
use crate::runner::{LoadTest, LoadTestReport};

/// Progress notifications a sweep emits as it advances — the hook a
/// long-running service uses to stream per-cell status to clients
/// without polling artifact files.
#[derive(Debug, Clone)]
pub enum SweepEvent {
    /// A screened factorial's plan, before any hardware cell runs.
    Screened {
        /// The relative tail-effect threshold the screen applied.
        threshold: f64,
        /// The hardware cells it simulates, in index order.
        flagged: Vec<usize>,
    },
    /// A factorial turns to one hardware cell; the run events up to the
    /// next hardware cell are this cell's.
    HardwareCellStarted {
        /// Hardware cell index (`HardwareConfig::from_index`).
        index: usize,
        /// The cell's hardware configuration.
        hardware: HardwareConfig,
    },
    /// A cell was skipped because the journal already marks it done.
    CellSkipped {
        /// Cell index.
        cell: u64,
    },
    /// A cell started executing (fresh or from a checkpoint).
    CellStarted {
        /// Cell index.
        cell: u64,
        /// The cell's derived seed.
        seed: u64,
        /// Events already executed when (re)starting — 0 for a fresh
        /// cell, the checkpoint position for a resumed one.
        resumed_at_events: u64,
    },
    /// A checkpoint of the running cell was sealed to disk.
    Checkpointed {
        /// Cell index.
        cell: u64,
        /// Events executed so far.
        events: u64,
        /// Post-warm-up samples folded into the tail monitor so far.
        samples: u64,
        /// The live streaming p99 estimate (µs).
        p99_us: f64,
    },
    /// A cell finished and its artifacts were written.
    CellDone {
        /// Cell index.
        cell: u64,
        /// Measurement-window samples in the aggregate.
        samples: u64,
        /// The cell's aggregated p99 (µs).
        p99_us: f64,
    },
    /// The sweep stopped early because cancellation was requested. The
    /// in-flight cell's checkpoint is sealed; rerunning the sweep
    /// continues it.
    Interrupted {
        /// The cell that was in flight (if any was running).
        cell: Option<u64>,
    },
}

/// One progress line per event: the text of the service's `/events`
/// stream and of `treadmill-cli sweep`'s progress, byte for byte.
impl fmt::Display for SweepEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepEvent::Screened { threshold, flagged } => write!(
                f,
                "analytic screen at threshold {threshold:.3} flagged hardware cells \
                 {flagged:?} of {FACTORIAL_CELLS}"
            ),
            SweepEvent::HardwareCellStarted { index, hardware } => {
                write!(f, "hardware cell {index}: {hardware}")
            }
            SweepEvent::CellSkipped { cell } => {
                write!(f, "cell {cell}: skipped (already done)")
            }
            SweepEvent::CellStarted { cell, seed, resumed_at_events: 0 } => {
                write!(f, "cell {cell}: started (seed {seed})")
            }
            SweepEvent::CellStarted { cell, seed, resumed_at_events } => write!(
                f,
                "cell {cell}: resumed at {resumed_at_events} events (seed {seed})"
            ),
            // A checkpoint sealed before the warm-up ends has no tail yet.
            SweepEvent::Checkpointed { cell, events, samples: 0, .. } => write!(
                f,
                "cell {cell}: checkpoint @ {events} events (0 samples, p99 n/a)"
            ),
            SweepEvent::Checkpointed { cell, events, samples, p99_us } => write!(
                f,
                "cell {cell}: checkpoint @ {events} events ({samples} samples, p99 {p99_us:.1}us)"
            ),
            SweepEvent::CellDone { cell, samples, p99_us } => {
                write!(f, "cell {cell}: done ({samples} samples, p99 {p99_us:.1}us)")
            }
            SweepEvent::Interrupted { cell: Some(cell) } => write!(
                f,
                "interrupted in cell {cell}: checkpoint sealed; resume continues it"
            ),
            SweepEvent::Interrupted { cell: None } => f.write_str("interrupted between cells"),
        }
    }
}

/// Cooperative control handles for [`run_sweep_controlled`].
///
/// `cancel` is polled at every checkpoint boundary and between cells;
/// once observed `true`, the sweep seals the in-flight checkpoint
/// (journal appends are already fsynced one by one) and returns
/// with [`SweepOutcome::interrupted`] set — exactly the state a SIGKILL
/// would leave, minus the lost batch. `progress` receives a
/// [`SweepEvent`] for every state transition.
#[derive(Default)]
pub struct SweepControl<'a> {
    /// Cancellation flag shared with a signal handler or drain path.
    pub cancel: Option<&'a AtomicBool>,
    /// Progress sink.
    pub progress: Option<&'a mut dyn FnMut(SweepEvent)>,
}

impl fmt::Debug for SweepControl<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SweepControl")
            .field("cancel", &self.cancel.map(|c| c.load(Ordering::Relaxed)))
            .field("progress", &self.progress.is_some())
            .finish()
    }
}

impl SweepControl<'_> {
    fn cancelled(&self) -> bool {
        self.cancel.is_some_and(|c| c.load(Ordering::Relaxed))
    }

    fn emit(&mut self, event: SweepEvent) {
        if let Some(progress) = self.progress.as_deref_mut() {
            progress(event);
        }
    }
}

/// Knobs for [`run_sweep_controlled`].
#[derive(Debug, Clone, Copy)]
pub struct SweepOptions {
    /// Cells (repeated runs) to execute, at least 1.
    pub runs: u64,
    /// Events between checkpoints of the running cell, at least
    /// [`MIN_CKPT_EVENTS`]. Smaller values lose less work to a crash but
    /// cost more checkpoints: each writes the records completed since
    /// the previous one, plus an envelope of fixed size (the pending
    /// events and in-flight state).
    pub ckpt_events: u64,
}

impl SweepOptions {
    /// Rejects a sweep of no runs, naming `runs`, and a checkpoint
    /// interval under [`MIN_CKPT_EVENTS`], naming `ckpt_events`.
    fn validate(&self) -> Result<(), SweepError> {
        if self.runs == 0 {
            return Err(SweepError::Config(ConfigError::Invalid {
                field: "runs",
                message: "must be >= 1, got 0".to_string(),
            }));
        }
        if self.ckpt_events < MIN_CKPT_EVENTS {
            return Err(SweepError::Config(ConfigError::Invalid {
                field: "ckpt_events",
                message: format!("must be >= {MIN_CKPT_EVENTS}, got {}", self.ckpt_events),
            }));
        }
        Ok(())
    }
}

/// Floor on [`SweepOptions::ckpt_events`], for every sweep: the CLI's
/// `--ckpt-events`, a service job's `ckpt_events` and a library caller's
/// options. A cell checks for cancellation only between checkpoint
/// intervals, and an interval of 0 executes nothing, which reads as a
/// drained cell: the cell would then run to its end in one piece, with
/// no checkpoint. Each checkpoint writes only the records completed
/// since the previous one, but also costs two fsyncs, an envelope of
/// the pending state and an invariant audit; tighter intervals would
/// make those fixed costs dominate the run.
pub const MIN_CKPT_EVENTS: u64 = 1_000;

/// Event-heap ceiling for the per-checkpoint invariant audit.
const MAX_PENDING_EVENTS: usize = 10_000_000;

/// The default checkpoint interval, sized so checkpointing costs a few
/// percent of a cell: the tests
/// `checkpoint_serialisation_stays_within_five_percent_of_a_run` (a
/// 400 ms run) and `checkpoint_serialisation_of_a_3_s_run_stays_within_five_percent`
/// (`resumable.rs`) pin at most 5%. A checkpoint writes only the records
/// completed since the previous one, so the share does not grow with
/// run length.
pub const DEFAULT_CKPT_EVENTS: u64 = 1_000_000;

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            runs: 6,
            ckpt_events: DEFAULT_CKPT_EVENTS,
        }
    }
}

/// One finished cell's headline numbers, decoded from the journal —
/// what [`SweepOutcome::cells`] reports per repeated run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CellSummary {
    /// Cell (repeated-run) index.
    pub cell: u64,
    /// The cell's derived seed.
    pub seed: u64,
    /// Measurement-window samples.
    pub samples: u64,
    /// Mean latency, µs.
    pub mean_us: f64,
    /// Median latency, µs.
    pub p50_us: f64,
    /// 90th percentile, µs.
    pub p90_us: f64,
    /// 95th percentile, µs.
    pub p95_us: f64,
    /// 99th percentile, µs.
    pub p99_us: f64,
    /// 99.9th percentile, µs.
    pub p999_us: f64,
}

/// What [`run_sweep_controlled`] did beside its [`SweepEvent`]s.
#[derive(Debug, Clone, Default)]
pub struct SweepOutcome {
    /// Warnings accumulated across cells (audit findings, health
    /// checks, recovery notes).
    pub warnings: Vec<String>,
    /// Path of the sweep summary artifact.
    pub summary_path: PathBuf,
    /// True if the sweep stopped early on a cancellation request. The
    /// journal and the in-flight cell's checkpoint are sealed; running
    /// the sweep again continues where it stopped.
    pub interrupted: bool,
    /// Every known-done cell below `runs` (executed this invocation or
    /// replayed from the journal), in cell order.
    pub cells: Vec<CellSummary>,
}

/// Errors from sweep orchestration.
#[derive(Debug)]
pub enum SweepError {
    /// Filesystem trouble.
    Io(io::Error),
    /// The configuration does not build.
    Config(ConfigError),
    /// A screened-sweep plan is malformed (wrong cell count, bad
    /// indices) and cannot drive the factorial orchestration.
    Screen {
        /// Why the plan is unusable.
        message: String,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Io(e) => write!(f, "sweep I/O error: {e}"),
            SweepError::Config(e) => write!(f, "sweep configuration error: {e}"),
            SweepError::Screen { message } => write!(f, "sweep screen plan error: {message}"),
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SweepError::Io(e) => Some(e),
            SweepError::Config(e) => Some(e),
            SweepError::Screen { .. } => None,
        }
    }
}

impl From<io::Error> for SweepError {
    fn from(e: io::Error) -> Self {
        SweepError::Io(e)
    }
}

impl From<ConfigError> for SweepError {
    fn from(e: ConfigError) -> Self {
        SweepError::Config(e)
    }
}

/// One journal line: a cell state transition.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ManifestLine {
    cell: u64,
    status: CellStatus,
    seed: u64,
    config_hash: String,
    #[serde(default)]
    result: Option<CellResult>,
}

/// A cell's journaled state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
enum CellStatus {
    /// Written by older builds before any cell ran; replay ignores it.
    Pending,
    Running,
    Done,
}

/// A finished cell's headline numbers, journaled as exact bit patterns
/// (`%016x` of [`f64::to_bits`]) so replay is bit-exact.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CellResult {
    samples: u64,
    mean_bits: String,
    p50_bits: String,
    p90_bits: String,
    p95_bits: String,
    p99_bits: String,
    p999_bits: String,
}

impl CellResult {
    fn from_report(report: &LoadTestReport) -> Self {
        let agg = &report.aggregated;
        CellResult {
            samples: agg.count,
            mean_bits: bits(agg.mean),
            p50_bits: bits(agg.p50),
            p90_bits: bits(agg.p90),
            p95_bits: bits(agg.p95),
            p99_bits: bits(agg.p99),
            p999_bits: bits(agg.p999),
        }
    }
}

fn bits(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn from_bits(s: &str) -> f64 {
    u64::from_str_radix(s, 16).map_or(f64::NAN, f64::from_bits)
}

/// The journal replayed into per-cell knowledge.
#[derive(Debug, Default)]
struct Manifest {
    done: std::collections::BTreeMap<u64, CellResult>,
    running: std::collections::BTreeSet<u64>,
}

/// Folds the replayed journal into per-cell knowledge. A line journaled
/// under another configuration means that configuration has since run
/// the cell and rewritten its files, so it forgets whatever earlier
/// lines said about the cell; a cell journaled last under another
/// configuration gets a warning.
fn read_manifest(
    replay: Replay<ManifestLine>,
    config_hash: &str,
    warnings: &mut Vec<String>,
) -> Manifest {
    let mut manifest = Manifest::default();
    let mut foreign = std::collections::BTreeMap::new();
    for entry in replay.records {
        if entry.config_hash != config_hash {
            manifest.done.remove(&entry.cell);
            manifest.running.remove(&entry.cell);
            foreign.insert(entry.cell, entry.config_hash);
            continue;
        }
        foreign.remove(&entry.cell);
        match (entry.status, entry.result) {
            (CellStatus::Done, Some(result)) => {
                manifest.running.remove(&entry.cell);
                manifest.done.insert(entry.cell, result);
            }
            (CellStatus::Running, _) => {
                manifest.running.insert(entry.cell);
            }
            _ => {}
        }
    }
    for (cell, hash) in foreign {
        warnings.push(format!(
            "cell {cell} was journaled last under config hash {hash} \
             (current {config_hash}); its files are that configuration's, so it is not done"
        ));
    }
    // A SIGKILL can tear the final line mid-write; the journal skips
    // anything that does not parse rather than refusing to resume.
    for _ in 0..replay.unparseable {
        warnings.push("manifest has a torn/unparseable line (ignored)".to_string());
    }
    manifest
}

/// The `# seed=… config_hash=… version=…` provenance line every
/// results artifact starts with.
pub fn provenance_line(seed: u64, config_hash: &str) -> String {
    format!(
        "# seed={seed} config_hash={config_hash} version={}",
        env!("CARGO_PKG_VERSION")
    )
}

fn cell_tsv(cell: u64, seed: u64, config_hash: &str, report: &LoadTestReport) -> String {
    let mut out = String::new();
    out.push_str(&provenance_line(seed, config_hash));
    out.push('\n');
    out.push_str(&format!("# cell={cell}\n"));
    out.push_str("scope\tsamples\tmean_us\tp50_us\tp90_us\tp95_us\tp99_us\tp999_us\n");
    let agg = &report.aggregated;
    out.push_str(&format!(
        "aggregate\t{}\t{:.6}\t{:.6}\t{:.6}\t{:.6}\t{:.6}\t{:.6}\n",
        agg.count, agg.mean, agg.p50, agg.p90, agg.p95, agg.p99, agg.p999
    ));
    for (i, s) in report.per_instance.iter().enumerate() {
        out.push_str(&format!(
            "instance_{i}\t{}\t{:.6}\t{:.6}\t{:.6}\t{:.6}\t{:.6}\t{:.6}\n",
            s.count, s.mean, s.p50, s.p90, s.p95, s.p99, s.p999
        ));
    }
    out
}

fn summary_tsv(
    master_seed: u64,
    config_hash: &str,
    cells: &std::collections::BTreeMap<u64, (u64, CellResult)>,
) -> String {
    let mut out = String::new();
    out.push_str(&provenance_line(master_seed, config_hash));
    out.push('\n');
    out.push_str("cell\tseed\tsamples\tmean_us\tp50_us\tp90_us\tp95_us\tp99_us\tp999_us\n");
    for (cell, (seed, r)) in cells {
        out.push_str(&format!(
            "{cell}\t{seed}\t{}\t{:.6}\t{:.6}\t{:.6}\t{:.6}\t{:.6}\t{:.6}\n",
            r.samples,
            from_bits(&r.mean_bits),
            from_bits(&r.p50_bits),
            from_bits(&r.p90_bits),
            from_bits(&r.p95_bits),
            from_bits(&r.p99_bits),
            from_bits(&r.p999_bits),
        ));
    }
    out
}

/// A cell's checkpoint envelope.
fn ckpt_path(out_dir: &Path, cell: u64) -> PathBuf {
    out_dir.join(format!("cell_{cell}.ckpt"))
}

/// A cell's append-only record segment, committed by its envelope.
fn records_path(out_dir: &Path, cell: u64) -> PathBuf {
    out_dir.join(format!("cell_{cell}.records"))
}

/// Restores in-flight `cell` from its checkpoint: the envelope, then
/// exactly the committed prefix of its record segment, which is then cut
/// back to that prefix so the next chunk continues it instead of landing
/// on what a crash appended. `None`, with a warning, when there is no
/// usable checkpoint: the cell restarts from event zero.
///
/// A segment that cannot be opened holds no records, so an envelope
/// that committed some fails closed as truncated.
fn resume_cell(
    test: &LoadTest,
    out_dir: &Path,
    cell: u64,
    warnings: &mut Vec<String>,
) -> io::Result<Option<ResumableRun>> {
    let Ok(envelope) = fs::read(ckpt_path(out_dir, cell)) else {
        warnings.push(format!(
            "cell {cell}: was in flight but left no checkpoint; restarting from event zero"
        ));
        return Ok(None);
    };
    let segment_path = records_path(out_dir, cell);
    let resumed = match fs::File::open(&segment_path) {
        Ok(segment) => ResumableRun::resume(test.clone(), cell, &envelope, segment),
        Err(_) => ResumableRun::resume(test.clone(), cell, &envelope, io::empty()),
    };
    match resumed {
        Ok(run) => {
            truncate_synced(&segment_path, run.segment_len())?;
            warnings.push(format!(
                "cell {cell}: resumed from checkpoint at {} events",
                run.events_executed()
            ));
            Ok(Some(run))
        }
        Err(e) => {
            warnings.push(format!(
                "cell {cell}: checkpoint unusable ({e}); restarting from event zero"
            ));
            Ok(None)
        }
    }
}

/// Starts `cell` from event zero. Whatever an earlier attempt (or
/// another configuration) left goes first: the envelope is removed and
/// the removal made durable, and the record segment is emptied. The
/// sweep journals `running` only after this, so no crash can leave a
/// `running` line beside an envelope this attempt did not write.
fn fresh_cell(test: &LoadTest, out_dir: &Path, cell: u64) -> io::Result<ResumableRun> {
    remove_synced(&ckpt_path(out_dir, cell))?;
    truncate_synced(&records_path(out_dir, cell), 0)?;
    Ok(ResumableRun::new(test.clone(), cell))
}

/// Checkpoints running `cell`: its new records onto the segment,
/// fsynced, and only then the envelope that commits them.
fn checkpoint_cell(run: &mut ResumableRun, out_dir: &Path, cell: u64) -> io::Result<()> {
    let envelope = append_synced_with(&records_path(out_dir, cell), |segment| {
        run.checkpoint(segment)
    })?;
    write_atomic(&ckpt_path(out_dir, cell), &envelope)
}

fn attr_path(out_dir: &Path, cell: u64) -> PathBuf {
    out_dir.join(format!("cell_{cell}.attr.tsv"))
}

/// The quantiles the per-cell attribution artifact decomposes.
const ATTRIBUTION_QUANTILES: [f64; 4] = [0.5, 0.9, 0.99, 0.999];

/// Renders one cell's tail-attribution artifact: for each quantile,
/// which instance the pooled tail samples come from (the paper's
/// Figure 2 decomposition, the "source" in *attributing the source of
/// tail latency*). Pure function of the per-client latencies (which it
/// sorts in place), so killed-and-resumed sweeps reproduce it
/// byte-for-byte.
fn attribution_tsv(
    cell: u64,
    seed: u64,
    config_hash: &str,
    per_client: &mut [Vec<f64>],
) -> String {
    let mut out = String::new();
    out.push_str(&provenance_line(seed, config_hash));
    out.push('\n');
    out.push_str(&format!("# cell={cell}\n"));
    out.push_str("cell\tquantile\tlatency_us");
    for i in 0..per_client.len() {
        out.push_str(&format!("\tshare_instance_{i}"));
    }
    out.push('\n');
    if per_client.iter().all(|v| v.is_empty()) {
        return out;
    }
    for row in tail_composition(per_client, &ATTRIBUTION_QUANTILES) {
        out.push_str(&format!("{cell}\t{:.4}\t{:.6}", row.quantile, row.latency_us));
        for share in &row.shares {
            out.push_str(&format!("\t{share:.6}"));
        }
        out.push('\n');
    }
    out
}

/// Concatenates the per-cell attribution artifacts into one sweep-wide
/// `attribution.tsv`. Skipped (already-done) cells contribute their
/// on-disk rows, so a resumed sweep reconstructs the aggregate without
/// re-running anything.
fn aggregate_attribution(
    out_dir: &Path,
    master_seed: u64,
    config_hash: &str,
    runs: u64,
    warnings: &mut Vec<String>,
) -> String {
    let mut out = String::new();
    out.push_str(&provenance_line(master_seed, config_hash));
    out.push('\n');
    let mut wrote_header = false;
    for cell in 0..runs {
        let Ok(text) = fs::read_to_string(attr_path(out_dir, cell)) else {
            warnings.push(format!(
                "cell {cell}: attribution artifact missing; aggregate omits it"
            ));
            continue;
        };
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let is_header = line.starts_with("cell\t");
            if is_header {
                if wrote_header {
                    continue;
                }
                wrote_header = true;
            }
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// Executes a sweep of `opts.runs` cells into `out_dir`, continuing
/// whatever the journal there records (an empty directory starts from
/// scratch), with cooperative cancellation and progress reporting
/// through `ctrl` (`SweepControl::default()` for neither).
///
/// # Errors
///
/// Returns [`SweepError::Config`] if the configuration does not build,
/// `opts.runs` is 0 or `opts.ckpt_events` is under [`MIN_CKPT_EVENTS`]
/// (all before anything is written), and [`SweepError::Io`] on
/// filesystem trouble.
/// A corrupt or missing checkpoint is *not* an error: the affected cell
/// restarts from event zero (with a warning) and the sweep continues.
/// Cancellation is not an error either: the outcome comes back `Ok`
/// with [`SweepOutcome::interrupted`] set.
pub fn run_sweep_controlled(
    config: &LoadTestConfig,
    out_dir: &Path,
    opts: &SweepOptions,
    ctrl: &mut SweepControl<'_>,
) -> Result<SweepOutcome, SweepError> {
    opts.validate()?;
    sweep_cells(config, out_dir, opts, ctrl)
}

/// [`run_sweep_controlled`] past its check of `opts`.
fn sweep_cells(
    config: &LoadTestConfig,
    out_dir: &Path,
    opts: &SweepOptions,
    ctrl: &mut SweepControl<'_>,
) -> Result<SweepOutcome, SweepError> {
    let test = config.build()?;
    let config_hash = format!("{:016x}", fnv1a64(config.to_json().as_bytes()));
    fs::create_dir_all(out_dir)?;
    let manifest_path = out_dir.join("manifest.jsonl");

    let mut outcome = SweepOutcome {
        summary_path: out_dir.join("summary.tsv"),
        ..SweepOutcome::default()
    };

    let (journal, replay) = Journal::open(&manifest_path)?;
    let manifest = read_manifest(replay, &config_hash, &mut outcome.warnings);

    // Cells a longer sweep left done past `runs` stay on disk but out of
    // this sweep's summary, as they are out of its attribution.
    let mut summary_cells: std::collections::BTreeMap<u64, (u64, CellResult)> = manifest
        .done
        .range(..opts.runs)
        .map(|(&cell, result)| (cell, (test.derive_run_seed(cell), result.clone())))
        .collect();

    'cells: for cell in 0..opts.runs {
        let seed = test.derive_run_seed(cell);
        if manifest.done.contains_key(&cell) {
            ctrl.emit(SweepEvent::CellSkipped { cell });
            continue;
        }
        if ctrl.cancelled() {
            outcome.interrupted = true;
            ctrl.emit(SweepEvent::Interrupted { cell: None });
            break 'cells;
        }

        let resumed = if manifest.running.contains(&cell) {
            resume_cell(&test, out_dir, cell, &mut outcome.warnings)?
        } else {
            None
        };
        let mut run = match resumed {
            Some(run) => run,
            None => {
                let run = fresh_cell(&test, out_dir, cell)?;
                journal.append(&ManifestLine {
                    cell,
                    status: CellStatus::Running,
                    seed,
                    config_hash: config_hash.clone(),
                    result: None,
                })?;
                run
            }
        };
        ctrl.emit(SweepEvent::CellStarted {
            cell,
            seed,
            resumed_at_events: run.events_executed(),
        });

        // The crash-tolerance loop: execute a batch, persist a
        // checkpoint, audit. A SIGKILL between any two statements loses
        // at most one batch of work; a cancellation request observed
        // here returns with the just-sealed checkpoint as the resume
        // point. The new records reach the segment and are fsynced
        // before the envelope that commits them is published.
        while run.step(opts.ckpt_events) > 0 {
            if run.is_finished() {
                break;
            }
            checkpoint_cell(&mut run, out_dir, cell)?;
            for finding in run.audit(MAX_PENDING_EVENTS) {
                outcome.warnings.push(format!("cell {cell}: auditor: {finding}"));
            }
            ctrl.emit(SweepEvent::Checkpointed {
                cell,
                events: run.events_executed(),
                samples: run.tail().count(),
                p99_us: run.tail().p99_us(),
            });
            if ctrl.cancelled() {
                outcome.interrupted = true;
                outcome.warnings.push(format!(
                    "cell {cell}: interrupted at {} events; checkpoint sealed — \
                     rerun the sweep to continue",
                    run.events_executed()
                ));
                ctrl.emit(SweepEvent::Interrupted { cell: Some(cell) });
                break 'cells;
            }
        }

        let mut report = run.finish();
        // End-of-run audit findings arrive through `health_warnings`.
        for warning in health_warnings(&report, config.target_rps) {
            outcome.warnings.push(format!("cell {cell}: {warning}"));
        }
        let result = CellResult::from_report(&report);
        write_atomic(
            &out_dir.join(format!("cell_{cell}.tsv")),
            cell_tsv(cell, seed, &config_hash, &report).as_bytes(),
        )?;
        // The attribution needs only the latencies: the capture goes
        // before they are extracted, the records before its sorts and
        // pooled copy allocate.
        report.ground_truth = PacketCapture::default();
        let mut per_client = test.raw_latencies(&report);
        drop(report);
        write_atomic(
            &attr_path(out_dir, cell),
            attribution_tsv(cell, seed, &config_hash, &mut per_client).as_bytes(),
        )?;
        journal.append(&ManifestLine {
            cell,
            status: CellStatus::Done,
            seed,
            config_hash: config_hash.clone(),
            result: Some(result.clone()),
        })?;
        let _ = fs::remove_file(ckpt_path(out_dir, cell));
        let _ = fs::remove_file(records_path(out_dir, cell));
        let (samples, p99_us) = (result.samples, from_bits(&result.p99_bits));
        summary_cells.insert(cell, (seed, result));
        ctrl.emit(SweepEvent::CellDone {
            cell,
            samples,
            p99_us,
        });
    }

    outcome.cells = summary_cells
        .iter()
        .map(|(&cell, (seed, r))| CellSummary {
            cell,
            seed: *seed,
            samples: r.samples,
            mean_us: from_bits(&r.mean_bits),
            p50_us: from_bits(&r.p50_bits),
            p90_us: from_bits(&r.p90_bits),
            p95_us: from_bits(&r.p95_bits),
            p99_us: from_bits(&r.p99_bits),
            p999_us: from_bits(&r.p999_bits),
        })
        .collect();
    write_atomic(
        &outcome.summary_path,
        summary_tsv(config.seed, &config_hash, &summary_cells).as_bytes(),
    )?;
    if !outcome.interrupted {
        // The sweep-wide attribution aggregate is only meaningful (and
        // only byte-stable) once every cell has contributed its rows.
        let attribution = aggregate_attribution(
            out_dir,
            config.seed,
            &config_hash,
            opts.runs,
            &mut outcome.warnings,
        );
        write_atomic(&out_dir.join("attribution.tsv"), attribution.as_bytes())?;
    }
    Ok(outcome)
}

/// The number of hardware cells in the paper's 2⁴ factor space.
pub const FACTORIAL_CELLS: usize = 16;

/// One hardware cell's analytic prediction, as handed to the screened
/// sweep. `treadmill_inference::screen_hardware` computes these; this
/// crate only consumes them (core cannot depend on inference).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScreenedCell {
    /// Hardware cell index (`HardwareConfig::from_index`).
    pub index: usize,
    /// Predicted median latency, µs.
    pub p50_us: f64,
    /// Predicted 95th percentile, µs.
    pub p95_us: f64,
    /// Predicted 99th percentile, µs.
    pub p99_us: f64,
    /// Predicted per-core utilisation.
    pub utilization: f64,
    /// Relative predicted p99 excess over the best cell.
    pub tail_effect: f64,
    /// True when the cell should be DES-simulated.
    pub flagged: bool,
}

/// The analytic screen's verdict over the whole factor space — the
/// contract between the inference crate's estimator and this crate's
/// orchestration.
#[derive(Debug, Clone, PartialEq)]
pub struct ScreenedSweepPlan {
    /// The relative tail-effect threshold the screen applied.
    pub threshold: f64,
    /// All [`FACTORIAL_CELLS`] predictions, in index order.
    pub cells: Vec<ScreenedCell>,
}

impl ScreenedSweepPlan {
    fn validate(&self) -> Result<(), SweepError> {
        if self.cells.len() != FACTORIAL_CELLS {
            return Err(SweepError::Screen {
                message: format!(
                    "plan has {} cells, expected {FACTORIAL_CELLS}",
                    self.cells.len()
                ),
            });
        }
        for (i, cell) in self.cells.iter().enumerate() {
            if cell.index != i {
                return Err(SweepError::Screen {
                    message: format!("plan cell {i} carries index {}", cell.index),
                });
            }
        }
        Ok(())
    }
}

/// One simulated hardware cell's aggregate in a factorial sweep: the
/// across-run mean of each per-run quantile.
#[derive(Debug, Clone, PartialEq)]
pub struct FactorialCellResult {
    /// Hardware cell index.
    pub index: usize,
    /// The cell's sweep directory (`hw_NN/`) under the factorial root.
    pub dir: PathBuf,
    /// Repeated runs aggregated.
    pub runs: u64,
    /// Total measurement-window samples across runs.
    pub samples: u64,
    /// Across-run mean of per-run mean latency, µs.
    pub mean_us: f64,
    /// Across-run mean of per-run p50, µs.
    pub p50_us: f64,
    /// Across-run mean of per-run p95, µs.
    pub p95_us: f64,
    /// Across-run mean of per-run p99, µs.
    pub p99_us: f64,
    /// Across-run mean of per-run p99.9, µs.
    pub p999_us: f64,
}

/// What a factorial (optionally screened) sweep did.
#[derive(Debug, Clone, Default)]
pub struct FactorialOutcome {
    /// Hardware cells that were DES-simulated, in index order.
    pub simulated: Vec<usize>,
    /// Hardware cells the analytic screen dropped, in index order.
    pub screened_out: Vec<usize>,
    /// Per simulated cell, the across-run aggregate.
    pub cells: Vec<FactorialCellResult>,
    /// Warnings from every inner sweep, prefixed with the cell.
    pub warnings: Vec<String>,
    /// Path of the `factorial.tsv` measurement artifact.
    pub factorial_path: PathBuf,
    /// Path of the `screen.tsv` prediction artifact (screened sweeps
    /// only).
    pub screen_path: Option<PathBuf>,
    /// True if an inner sweep was interrupted; rerunning the sweep
    /// continues it.
    pub interrupted: bool,
}

/// The per-cell configuration a factorial sweep runs: the base config
/// pinned to one hardware cell, with the screen knob stripped and a
/// cell-derived seed. Stripping `screen` makes the per-cell artifacts
/// (and their provenance hashes) independent of *how* the cell was
/// selected — a threshold-0 screened sweep is byte-identical to a
/// full-factorial one.
fn factorial_cell_config(config: &LoadTestConfig, index: usize) -> LoadTestConfig {
    let mut cell = config.clone();
    cell.hardware = Some(u8::try_from(index).unwrap_or(u8::MAX));
    cell.screen = None;
    cell.seed = fnv1a64(format!("{}/factorial/{index}", config.seed).as_bytes());
    cell
}

fn factorial_cell_dir(out_dir: &Path, index: usize) -> PathBuf {
    out_dir.join(format!("hw_{index:02}"))
}

/// The screen-stripped base hash that stamps factorial-level artifacts.
fn factorial_hash(config: &LoadTestConfig) -> String {
    let mut base = config.clone();
    base.screen = None;
    format!("{:016x}", fnv1a64(base.to_json().as_bytes()))
}

fn factorial_tsv(
    master_seed: u64,
    base_hash: &str,
    cells: &[FactorialCellResult],
) -> String {
    let mut out = String::new();
    out.push_str(&provenance_line(master_seed, base_hash));
    out.push('\n');
    out.push_str("cell\tnuma\tturbo\tdvfs\tnic\truns\tsamples\tmean_us\tp50_us\tp95_us\tp99_us\tp999_us\n");
    for c in cells {
        let hw = HardwareConfig::from_index(c.index);
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:.6}\t{:.6}\t{:.6}\t{:.6}\t{:.6}\n",
            c.index,
            hw.numa,
            hw.turbo,
            hw.dvfs,
            hw.nic,
            c.runs,
            c.samples,
            c.mean_us,
            c.p50_us,
            c.p95_us,
            c.p99_us,
            c.p999_us,
        ));
    }
    out
}

fn screen_tsv(master_seed: u64, base_hash: &str, plan: &ScreenedSweepPlan) -> String {
    let mut out = String::new();
    out.push_str(&provenance_line(master_seed, base_hash));
    out.push('\n');
    out.push_str(&format!("# threshold={:.6}\n", plan.threshold));
    out.push_str(
        "cell\tnuma\tturbo\tdvfs\tnic\tpred_p50_us\tpred_p95_us\tpred_p99_us\tutilization\ttail_effect\tflagged\n",
    );
    for c in &plan.cells {
        let hw = HardwareConfig::from_index(c.index);
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\t{:.6}\t{:.6}\t{:.6}\t{:.6}\t{:.6}\t{}\n",
            c.index,
            hw.numa,
            hw.turbo,
            hw.dvfs,
            hw.nic,
            c.p50_us,
            c.p95_us,
            c.p99_us,
            c.utilization,
            c.tail_effect,
            u8::from(c.flagged),
        ));
    }
    out
}

/// Runs the 2⁴ factorial sweep: every hardware cell gets its own
/// crash-tolerant [`run_sweep_controlled`] into `hw_NN/` under
/// `out_dir`, and the across-run aggregates land in `factorial.tsv`.
/// With a screen `plan`, DES runs are spent only on the cells it
/// flagged and the predictions land in `screen.tsv`; a threshold-0
/// plan (every cell flagged) reproduces `plan: None`'s artifacts
/// byte-for-byte. A plan is announced by [`SweepEvent::Screened`], then
/// cells run one at a time, in index order, each announced by
/// [`SweepEvent::HardwareCellStarted`] before its runs' events.
///
/// # Errors
///
/// [`SweepError::Screen`] for a malformed plan, otherwise the same as
/// [`run_sweep_controlled`].
pub fn run_factorial_sweep_controlled(
    config: &LoadTestConfig,
    out_dir: &Path,
    opts: &SweepOptions,
    plan: Option<&ScreenedSweepPlan>,
    ctrl: &mut SweepControl<'_>,
) -> Result<FactorialOutcome, SweepError> {
    opts.validate()?;
    config.validate()?;
    if let Some(plan) = plan {
        plan.validate()?;
    }
    fs::create_dir_all(out_dir)?;
    let base_hash = factorial_hash(config);
    let mut outcome = FactorialOutcome {
        factorial_path: out_dir.join("factorial.tsv"),
        ..FactorialOutcome::default()
    };

    if let Some(plan) = plan {
        let screen_path = out_dir.join("screen.tsv");
        write_atomic(
            &screen_path,
            screen_tsv(config.seed, &base_hash, plan).as_bytes(),
        )?;
        outcome.screen_path = Some(screen_path);
        outcome.screened_out = plan
            .cells
            .iter()
            .filter(|c| !c.flagged)
            .map(|c| c.index)
            .collect();
        let flagged = plan.cells.iter().filter(|c| c.flagged);
        ctrl.emit(SweepEvent::Screened {
            threshold: plan.threshold,
            flagged: flagged.map(|c| c.index).collect(),
        });
    }

    for index in 0..FACTORIAL_CELLS {
        if let Some(plan) = plan {
            if !plan.cells[index].flagged {
                continue;
            }
        }
        let cell_config = factorial_cell_config(config, index);
        let cell_dir = factorial_cell_dir(out_dir, index);
        ctrl.emit(SweepEvent::HardwareCellStarted {
            index,
            hardware: HardwareConfig::from_index(index),
        });
        let inner = run_sweep_controlled(&cell_config, &cell_dir, opts, ctrl)?;
        for warning in &inner.warnings {
            outcome.warnings.push(format!("hw {index}: {warning}"));
        }
        if inner.interrupted {
            outcome.interrupted = true;
            break;
        }
        let runs = inner.cells.len() as u64;
        let mean_of = |f: &dyn Fn(&CellSummary) -> f64| {
            inner.cells.iter().map(f).sum::<f64>() / runs.max(1) as f64
        };
        outcome.cells.push(FactorialCellResult {
            index,
            dir: cell_dir,
            runs,
            samples: inner.cells.iter().map(|c| c.samples).sum(),
            mean_us: mean_of(&|c| c.mean_us),
            p50_us: mean_of(&|c| c.p50_us),
            p95_us: mean_of(&|c| c.p95_us),
            p99_us: mean_of(&|c| c.p99_us),
            p999_us: mean_of(&|c| c.p999_us),
        });
        outcome.simulated.push(index);
    }

    if !outcome.interrupted {
        write_atomic(
            &outcome.factorial_path,
            factorial_tsv(config.seed, &base_hash, &outcome.cells).as_bytes(),
        )?;
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> LoadTestConfig {
        LoadTestConfig::from_json(
            r#"{
                "workload": { "workload": "memcached" },
                "target_rps": 120000,
                "clients": 2,
                "duration_ms": 60,
                "warmup_ms": 15,
                "seed": 5
            }"#,
        )
        .expect("valid config")
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tml-sweep-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    /// A sweep directory a crash left with cell 0 journaled `running`.
    fn crashed_dir(tag: &str, config: &LoadTestConfig) -> PathBuf {
        let dir = tempdir(tag);
        let test = config.build().expect("build");
        let (journal, _) = Journal::open(&dir.join("manifest.jsonl")).expect("open journal");
        journal
            .append(&ManifestLine {
                cell: 0,
                status: CellStatus::Running,
                seed: test.derive_run_seed(0),
                config_hash: format!("{:016x}", fnv1a64(config.to_json().as_bytes())),
                result: None,
            })
            .expect("journal");
        dir
    }

    /// A sweep with no cancellation or progress hooks.
    fn sweep(
        config: &LoadTestConfig,
        dir: &Path,
        opts: &SweepOptions,
    ) -> Result<SweepOutcome, SweepError> {
        run_sweep_controlled(config, dir, opts, &mut SweepControl::default())
    }

    /// [`sweep`] without the floor on `ckpt_events`: the crash-state
    /// tests enumerate the files a cell of a few hundred events leaves
    /// when it checkpoints every third of its run, and a cell long
    /// enough for 1,000-event intervals would multiply the states and
    /// the cost of each.
    fn sweep_below_floor(
        config: &LoadTestConfig,
        dir: &Path,
        opts: &SweepOptions,
    ) -> Result<SweepOutcome, SweepError> {
        sweep_cells(config, dir, opts, &mut SweepControl::default())
    }

    /// What a sweep's events say it decided for each cell.
    #[derive(Debug, Default, PartialEq)]
    struct Decisions {
        /// Cells the journal already marked done.
        skipped: Vec<u64>,
        /// The cell resumed from a checkpoint, if any.
        resumed: Option<u64>,
        /// Cells run to their end (fresh or resumed).
        done: Vec<u64>,
    }

    /// Runs `sweep` under a control that records its events (and, with
    /// `cancel`, stops once `stop_at` returns true for one), and reads
    /// the decisions off them.
    fn decided<T>(
        cancel: Option<&AtomicBool>,
        stop_at: impl Fn(&SweepEvent) -> bool,
        sweep: impl FnOnce(&mut SweepControl<'_>) -> T,
    ) -> (T, Decisions) {
        let mut decisions = Decisions::default();
        let mut record = |event: SweepEvent| {
            if let Some(cancel) = cancel {
                if stop_at(&event) {
                    cancel.store(true, Ordering::Relaxed);
                }
            }
            match event {
                SweepEvent::CellSkipped { cell } => decisions.skipped.push(cell),
                SweepEvent::CellStarted {
                    cell,
                    resumed_at_events,
                    ..
                } if resumed_at_events > 0 => decisions.resumed = Some(cell),
                SweepEvent::CellDone { cell, .. } => decisions.done.push(cell),
                _ => {}
            }
        };
        let out = sweep(&mut SweepControl {
            cancel,
            progress: Some(&mut record),
        });
        (out, decisions)
    }

    /// [`sweep`] with its decisions.
    fn decided_sweep(
        config: &LoadTestConfig,
        dir: &Path,
        opts: &SweepOptions,
    ) -> (SweepOutcome, Decisions) {
        let (outcome, decisions) = decided(
            None,
            |_| false,
            |ctrl| run_sweep_controlled(config, dir, opts, ctrl),
        );
        (outcome.expect("sweep"), decisions)
    }

    /// [`sweep_below_floor`] with its decisions.
    fn decided_below_floor(
        config: &LoadTestConfig,
        dir: &Path,
        opts: &SweepOptions,
    ) -> (SweepOutcome, Decisions) {
        let (outcome, decisions) =
            decided(None, |_| false, |ctrl| sweep_cells(config, dir, opts, ctrl));
        (outcome.expect("sweep"), decisions)
    }

    /// The service's `/events` lines and the CLI's per-cell lines are
    /// these strings byte for byte.
    #[test]
    fn every_event_renders_its_progress_line() {
        let lines = [
            (SweepEvent::CellSkipped { cell: 2 }, "cell 2: skipped (already done)"),
            (
                SweepEvent::CellStarted { cell: 0, seed: 7, resumed_at_events: 0 },
                "cell 0: started (seed 7)",
            ),
            (
                SweepEvent::CellStarted { cell: 1, seed: 7, resumed_at_events: 50_000 },
                "cell 1: resumed at 50000 events (seed 7)",
            ),
            (
                SweepEvent::Checkpointed { cell: 0, events: 25_000, samples: 0, p99_us: 0.0 },
                "cell 0: checkpoint @ 25000 events (0 samples, p99 n/a)",
            ),
            (
                SweepEvent::Checkpointed {
                    cell: 0,
                    events: 100_000,
                    samples: 883,
                    p99_us: 170.66,
                },
                "cell 0: checkpoint @ 100000 events (883 samples, p99 170.7us)",
            ),
            (
                SweepEvent::CellDone { cell: 3, samples: 36_091, p99_us: 173.31 },
                "cell 3: done (36091 samples, p99 173.3us)",
            ),
            (
                SweepEvent::Interrupted { cell: Some(1) },
                "interrupted in cell 1: checkpoint sealed; resume continues it",
            ),
            (SweepEvent::Interrupted { cell: None }, "interrupted between cells"),
            (
                SweepEvent::Screened {
                    threshold: 0.25,
                    flagged: vec![1, 9],
                },
                "analytic screen at threshold 0.250 flagged hardware cells [1, 9] of 16",
            ),
            (
                SweepEvent::HardwareCellStarted {
                    index: 9,
                    hardware: HardwareConfig::from_index(9),
                },
                "hardware cell 9: numa-high,turbo-low,dvfs-low,nic-high",
            ),
        ];
        for (event, line) in lines {
            assert_eq!(event.to_string(), line);
        }
    }

    fn screened_sweep(
        config: &LoadTestConfig,
        dir: &Path,
        opts: &SweepOptions,
        plan: &ScreenedSweepPlan,
    ) -> Result<FactorialOutcome, SweepError> {
        run_factorial_sweep_controlled(config, dir, opts, Some(plan), &mut SweepControl::default())
    }

    fn opts(runs: u64) -> SweepOptions {
        SweepOptions {
            runs,
            ckpt_events: 20_000,
        }
    }

    /// Library callers get the floors the CLI and the service apply: at
    /// `ckpt_events` 0 the cell would run to its end with no checkpoint
    /// and no look at its cancellation flag, and at `runs` 0 a factorial
    /// would report every cell simulated from no run at all.
    #[test]
    fn checkpoint_intervals_under_the_floor_are_rejected_before_anything_is_written() {
        let config = small_config();
        let dir = std::env::temp_dir().join(format!("tml-sweep-floor-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cases = [
            (1, 0, "ckpt_events"),
            (1, MIN_CKPT_EVENTS - 1, "ckpt_events"),
            (0, MIN_CKPT_EVENTS, "runs"),
        ];
        for (runs, ckpt_events, field) in cases {
            let opts = SweepOptions { runs, ckpt_events };
            let mut ctrl = SweepControl::default();
            let errors = [
                sweep(&config, &dir, &opts).err(),
                run_factorial_sweep_controlled(&config, &dir, &opts, None, &mut ctrl).err(),
            ];
            for err in errors {
                match err {
                    Some(SweepError::Config(e)) => assert_eq!(e.field(), Some(field), "{e}"),
                    other => panic!("runs {runs}, ckpt_events {ckpt_events}: {other:?}"),
                }
            }
            assert!(!dir.exists(), "a rejected sweep writes nothing");
        }
    }

    #[test]
    fn sweep_writes_all_artifacts() {
        let dir = tempdir("basic");
        let (outcome, decisions) = decided_sweep(&small_config(), &dir, &opts(2));
        assert_eq!(
            decisions,
            Decisions {
                done: vec![0, 1],
                ..Decisions::default()
            }
        );
        assert!(!outcome.interrupted);
        for cell in 0..2 {
            let text =
                fs::read_to_string(dir.join(format!("cell_{cell}.tsv"))).expect("cell artifact");
            assert!(text.starts_with("# seed="), "provenance header: {text}");
            assert!(text.contains("config_hash="));
            assert!(text.contains("aggregate\t"));
            assert!(!dir.join(format!("cell_{cell}.ckpt")).exists());
            assert!(!dir.join(format!("cell_{cell}.records")).exists());
            let attr = fs::read_to_string(dir.join(format!("cell_{cell}.attr.tsv")))
                .expect("attribution artifact");
            assert!(attr.starts_with("# seed="), "attr provenance: {attr}");
            assert!(attr.contains("share_instance_0"), "{attr}");
        }
        let summary = fs::read_to_string(dir.join("summary.tsv")).expect("summary");
        assert_eq!(summary.lines().count(), 2 + 2, "header lines + one row per cell");
        let attribution = fs::read_to_string(dir.join("attribution.tsv")).expect("attribution");
        // Provenance + one column header + one row per quantile per cell.
        assert_eq!(
            attribution.lines().count(),
            2 + 2 * ATTRIBUTION_QUANTILES.len(),
            "{attribution}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_skips_done_cells_and_reproduces_summary() {
        let golden_dir = tempdir("golden");
        sweep(&small_config(), &golden_dir, &opts(3)).expect("golden sweep");

        // Run one cell, then "crash" (stop), then resume for all three.
        let dir = tempdir("resumed");
        sweep(&small_config(), &dir, &opts(1)).expect("partial sweep");
        // A fresh cell journals two lines, `running` then `done`. Older
        // builds first journaled a `pending` line per cell; a manifest
        // they wrote still replays without a warning.
        let manifest_path = dir.join("manifest.jsonl");
        let manifest = fs::read_to_string(&manifest_path).expect("manifest");
        let lines: Vec<&str> = manifest.lines().collect();
        assert_eq!(lines.len(), 2, "{manifest}");
        assert!(lines[0].contains(r#""status":"running""#), "{manifest}");
        assert!(lines[1].contains(r#""status":"done""#), "{manifest}");
        let pending = lines[0].replace(r#""status":"running""#, r#""status":"pending""#);
        fs::write(&manifest_path, format!("{pending}\n{manifest}")).expect("old manifest");
        let (outcome, decisions) = decided_sweep(&small_config(), &dir, &opts(3));
        assert_eq!(
            decisions,
            Decisions {
                skipped: vec![0],
                resumed: None,
                done: vec![1, 2]
            }
        );
        assert!(
            !outcome.warnings.iter().any(|w| w.contains("unparseable")),
            "{:?}",
            outcome.warnings
        );

        for artifact in [
            "cell_0.tsv",
            "cell_1.tsv",
            "cell_2.tsv",
            "cell_0.attr.tsv",
            "summary.tsv",
            "attribution.tsv",
        ] {
            let golden = fs::read(golden_dir.join(artifact)).expect("golden artifact");
            let resumed = fs::read(dir.join(artifact)).expect("resumed artifact");
            assert_eq!(golden, resumed, "{artifact} differs after resume");
        }
        let _ = fs::remove_dir_all(&golden_dir);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancelled_sweep_seals_checkpoint_and_resumes_bit_identical() {
        let golden_dir = tempdir("golden-cancel");
        sweep(&small_config(), &golden_dir, &opts(2)).expect("golden sweep");

        // Cancel at the first checkpoint of cell 0 — the graceful
        // SIGTERM path: the sweep returns Ok, interrupted, with the
        // checkpoint sealed and the journal still marking cell 0
        // running.
        let dir = tempdir("cancel");
        let cancel = AtomicBool::new(false);
        let (outcome, decisions) = decided(
            Some(&cancel),
            |event| matches!(event, SweepEvent::Checkpointed { .. }),
            |ctrl| run_sweep_controlled(&small_config(), &dir, &opts(2), ctrl),
        );
        assert!(outcome.expect("sweep").interrupted);
        assert_eq!(decisions, Decisions::default(), "no cell finished");
        assert!(dir.join("cell_0.ckpt").exists(), "checkpoint must be sealed");

        // Rerun without cancellation: byte-identical to the golden.
        let (outcome, decisions) = decided_sweep(&small_config(), &dir, &opts(2));
        assert_eq!(decisions.resumed, Some(0));
        assert!(!outcome.interrupted);
        for artifact in ["cell_0.tsv", "cell_1.tsv", "summary.tsv", "attribution.tsv"] {
            let golden = fs::read(golden_dir.join(artifact)).expect("golden artifact");
            let resumed = fs::read(dir.join(artifact)).expect("resumed artifact");
            assert_eq!(golden, resumed, "{artifact} differs after cancel+resume");
        }
        let _ = fs::remove_dir_all(&golden_dir);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn progress_events_cover_the_cell_lifecycle() {
        let dir = tempdir("events");
        let mut events: Vec<String> = Vec::new();
        let mut sink = |event: SweepEvent| {
            events.push(match event {
                SweepEvent::CellSkipped { cell } => format!("skip {cell}"),
                SweepEvent::CellStarted { cell, .. } => format!("start {cell}"),
                SweepEvent::Checkpointed { cell, .. } => format!("ckpt {cell}"),
                SweepEvent::CellDone { cell, .. } => format!("done {cell}"),
                SweepEvent::Interrupted { .. } => "interrupted".to_string(),
                SweepEvent::Screened { .. } | SweepEvent::HardwareCellStarted { .. } => {
                    "factorial".to_string()
                }
            });
        };
        let mut ctrl = SweepControl {
            cancel: None,
            progress: Some(&mut sink),
        };
        run_sweep_controlled(&small_config(), &dir, &opts(2), &mut ctrl).expect("sweep");
        assert!(events.contains(&"start 0".to_string()), "{events:?}");
        assert!(events.contains(&"done 0".to_string()), "{events:?}");
        assert!(events.contains(&"start 1".to_string()), "{events:?}");
        assert!(events.contains(&"done 1".to_string()), "{events:?}");
        assert!(events.iter().any(|e| e.starts_with("ckpt")), "{events:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_restores_in_flight_cell_from_checkpoint() {
        let golden_dir = tempdir("golden-midcell");
        sweep(&small_config(), &golden_dir, &opts(1)).expect("golden sweep");

        // Hand-craft a crashed sweep: journal says cell 0 is running,
        // and a mid-run checkpoint exists.
        let config = small_config();
        let dir = crashed_dir("midcell", &config);
        let mut run = ResumableRun::new(config.build().expect("build"), 0);
        run.step(30_000);
        checkpoint_cell(&mut run, &dir, 0).expect("checkpoint");

        let (_, decisions) = decided_sweep(&config, &dir, &opts(1));
        assert_eq!(decisions.resumed, Some(0));
        for artifact in ["cell_0.tsv", "summary.tsv"] {
            let golden = fs::read(golden_dir.join(artifact)).expect("golden artifact");
            let resumed = fs::read(dir.join(artifact)).expect("resumed artifact");
            assert_eq!(golden, resumed, "{artifact} differs after mid-cell resume");
        }
        let _ = fs::remove_dir_all(&golden_dir);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_journal_line_is_tolerated() {
        let golden_dir = tempdir("golden-torn");
        sweep(&small_config(), &golden_dir, &opts(2)).expect("golden sweep");

        let dir = tempdir("torn");
        sweep(&small_config(), &dir, &opts(1)).expect("sweep");
        // Append a torn (truncated) line, as a SIGKILL mid-append would.
        use std::io::Write as _;
        let mut file = fs::OpenOptions::new()
            .append(true)
            .open(dir.join("manifest.jsonl"))
            .expect("open journal");
        file.write_all(b"{\"cell\":1,\"status\":\"run").expect("tear");
        drop(file);

        // Resume, and stop again at cell 1's first checkpoint: the
        // `running` line journaled after the torn tail must survive
        // replay, or the second resume throws the checkpoint away.
        let cancel = AtomicBool::new(false);
        let (outcome, decisions) = decided(
            Some(&cancel),
            |event| matches!(event, SweepEvent::Checkpointed { cell: 1, .. }),
            |ctrl| run_sweep_controlled(&small_config(), &dir, &opts(2), ctrl),
        );
        let outcome = outcome.expect("resumed");
        assert_eq!(decisions.skipped, vec![0]);
        assert!(outcome.interrupted);
        assert!(outcome
            .warnings
            .iter()
            .any(|w| w.contains("torn/unparseable")));

        let (_, decisions) = decided_sweep(&small_config(), &dir, &opts(2));
        assert_eq!(
            decisions,
            Decisions {
                skipped: vec![0],
                resumed: Some(1),
                done: vec![1]
            }
        );
        for artifact in ["cell_0.tsv", "cell_1.tsv", "summary.tsv", "attribution.tsv"] {
            let golden = fs::read(golden_dir.join(artifact)).expect("golden artifact");
            let resumed = fs::read(dir.join(artifact)).expect("resumed artifact");
            assert_eq!(
                golden, resumed,
                "{artifact} differs after a torn-tail resume"
            );
        }
        let _ = fs::remove_dir_all(&golden_dir);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checkpoint_restarts_the_cell() {
        let golden_dir = tempdir("golden-corrupt");
        sweep(&small_config(), &golden_dir, &opts(1)).expect("golden sweep");

        let config = small_config();
        let dir = crashed_dir("corrupt", &config);
        fs::write(ckpt_path(&dir, 0), b"not a checkpoint").expect("corrupt ckpt");

        let (outcome, decisions) = decided_sweep(&config, &dir, &opts(1));
        assert_eq!(decisions.resumed, None);
        assert!(outcome.warnings.iter().any(|w| w.contains("unusable")));
        assert_eq!(
            fs::read(golden_dir.join("cell_0.tsv")).expect("golden"),
            fs::read(dir.join("cell_0.tsv")).expect("restarted"),
            "restarted cell must still be bit-identical"
        );
        let _ = fs::remove_dir_all(&golden_dir);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn config_change_invalidates_old_journal() {
        let dir = tempdir("confchange");
        sweep(&small_config(), &dir, &opts(1)).expect("sweep");
        let mut changed = small_config();
        changed.target_rps = 90_000.0;
        let (_, decisions) = decided_sweep(&changed, &dir, &opts(1));
        // The old done line is for a different config hash: re-run.
        assert_eq!(
            decisions,
            Decisions {
                done: vec![0],
                ..Decisions::default()
            }
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// Every `.tsv` artifact in `dir`, by file name.
    fn tsv_artifacts(dir: &Path) -> std::collections::BTreeMap<String, Vec<u8>> {
        fs::read_dir(dir)
            .expect("read sweep dir")
            .flatten()
            .filter(|entry| entry.file_name().to_string_lossy().ends_with(".tsv"))
            .map(|entry| {
                let bytes = fs::read(entry.path()).expect("artifact");
                (entry.file_name().to_string_lossy().into_owned(), bytes)
            })
            .collect()
    }

    #[test]
    fn rerunning_a_finished_sweep_executes_nothing_and_rewrites_the_same_bytes() {
        let dir = tempdir("rerun");
        sweep(&small_config(), &dir, &opts(2)).expect("sweep");
        let summary = fs::read(dir.join("summary.tsv")).expect("summary");
        let attribution = fs::read(dir.join("attribution.tsv")).expect("attribution");
        // Removed, so only the rerun can bring them back.
        fs::remove_file(dir.join("summary.tsv")).expect("remove summary");
        fs::remove_file(dir.join("attribution.tsv")).expect("remove attribution");

        let (_, decisions) = decided_sweep(&small_config(), &dir, &opts(2));
        assert_eq!(
            decisions,
            Decisions {
                skipped: vec![0, 1],
                ..Decisions::default()
            }
        );
        assert_eq!(fs::read(dir.join("summary.tsv")).expect("summary"), summary);
        assert_eq!(
            fs::read(dir.join("attribution.tsv")).expect("attribution"),
            attribution
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rerun_with_fewer_runs_summarises_only_those_runs() {
        let golden_dir = tempdir("golden-fewer");
        sweep(&small_config(), &golden_dir, &opts(2)).expect("golden sweep");

        let dir = tempdir("fewer");
        sweep(&small_config(), &dir, &opts(3)).expect("3-run sweep");
        let (outcome, decisions) = decided_sweep(&small_config(), &dir, &opts(2));
        assert!(decisions.done.is_empty(), "{decisions:?}");
        let cells: Vec<u64> = outcome.cells.iter().map(|c| c.cell).collect();
        assert_eq!(cells, vec![0, 1]);
        for artifact in ["summary.tsv", "attribution.tsv"] {
            assert_eq!(
                fs::read(golden_dir.join(artifact)).expect("golden artifact"),
                fs::read(dir.join(artifact)).expect("rerun artifact"),
                "{artifact} differs from a fresh 2-run sweep's"
            );
        }
        let _ = fs::remove_dir_all(&golden_dir);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Config A, then B, then A again in one directory: B rewrote cell
    /// 0's files, so A must run the cell again rather than trust its own
    /// older `done` line.
    #[test]
    fn returning_to_an_earlier_configuration_runs_the_cell_again() {
        let config_a = small_config();
        let mut config_b = small_config();
        config_b.target_rps = 80_000.0;
        let golden_dir = tempdir("golden-aba");
        sweep(&config_a, &golden_dir, &opts(1)).expect("golden sweep");

        let dir = tempdir("aba");
        sweep(&config_a, &dir, &opts(1)).expect("sweep A");
        let (_, decisions) = decided_sweep(&config_b, &dir, &opts(1));
        assert_eq!(decisions.done, vec![0]);
        let (outcome, decisions) = decided_sweep(&config_a, &dir, &opts(1));
        assert_eq!(decisions.done, vec![0], "cell 0 held B's files");
        assert!(
            outcome.warnings.iter().any(|w| w.contains("journaled last under")),
            "{:?}",
            outcome.warnings
        );
        assert_eq!(tsv_artifacts(&dir), tsv_artifacts(&golden_dir));
        // Journaled last under A again: done, and no warning about B.
        let (outcome, decisions) = decided_sweep(&config_a, &dir, &opts(1));
        assert_eq!(decisions.skipped, vec![0]);
        assert!(outcome.warnings.is_empty(), "{:?}", outcome.warnings);
        let _ = fs::remove_dir_all(&golden_dir);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A cell that starts from event zero clears the checkpoint an
    /// earlier attempt left before it journals `running`: a crash right
    /// after that line finds no envelope it did not write.
    #[test]
    fn a_fresh_cell_clears_an_earlier_checkpoint_before_journaling_running() {
        let config = tiny_config();
        let test = config.build().expect("build");
        let every = test.run(0).run.events_executed / 3 + 1;
        let every_opts = SweepOptions {
            ckpt_events: every,
            ..opts(1)
        };
        let golden_dir = tempdir("golden-stale");
        sweep_below_floor(&config, &golden_dir, &every_opts).expect("golden sweep");

        // Another configuration's in-flight cell 0: its checkpoint
        // files, and its `running` line.
        let mut other = tiny_config();
        other.target_rps = 8_000.0;
        let dir = tempdir("stale-envelope");
        checkpoints_on_disk(&other.build().expect("build"), &dir, every);
        let (journal, _) = Journal::open(&dir.join("manifest.jsonl")).expect("open journal");
        journal
            .append(&ManifestLine {
                cell: 0,
                status: CellStatus::Running,
                seed: 0,
                config_hash: format!("{:016x}", fnv1a64(other.to_json().as_bytes())),
                result: None,
            })
            .expect("journal");
        assert!(ckpt_path(&dir, 0).exists());

        // What a crash right after this attempt's `running` line leaves.
        let mut at_start = None;
        let mut look = |event: SweepEvent| {
            if let SweepEvent::CellStarted {
                cell: 0,
                resumed_at_events,
                ..
            } = event
            {
                assert_eq!(
                    resumed_at_events, 0,
                    "another configuration's checkpoint resumed"
                );
                let manifest = fs::read_to_string(dir.join("manifest.jsonl")).expect("manifest");
                let last = manifest.lines().last().unwrap_or_default().to_string();
                let segment = fs::metadata(records_path(&dir, 0)).map_or(0, |m| m.len());
                at_start = Some((last, ckpt_path(&dir, 0).exists(), segment));
            }
        };
        let mut ctrl = SweepControl {
            cancel: None,
            progress: Some(&mut look),
        };
        sweep_cells(&config, &dir, &every_opts, &mut ctrl).expect("sweep");
        let (last, envelope, segment) = at_start.expect("cell 0 started");
        let hash = format!("{:016x}", fnv1a64(config.to_json().as_bytes()));
        assert!(
            last.contains(r#""status":"running""#) && last.contains(&hash),
            "{last}"
        );
        assert!(!envelope, "an earlier attempt's envelope outlived `running`");
        assert_eq!(segment, 0, "an earlier attempt's records outlived `running`");
        assert_eq!(tsv_artifacts(&dir), tsv_artifacts(&golden_dir));
        let _ = fs::remove_dir_all(&golden_dir);
        let _ = fs::remove_dir_all(&dir);
    }

    fn uniform_plan(flagged: &[usize], threshold: f64) -> ScreenedSweepPlan {
        ScreenedSweepPlan {
            threshold,
            cells: (0..FACTORIAL_CELLS)
                .map(|index| ScreenedCell {
                    index,
                    p50_us: 50.0,
                    p95_us: 80.0,
                    p99_us: 100.0 + index as f64,
                    utilization: 0.4,
                    tail_effect: index as f64 / 100.0,
                    flagged: flagged.contains(&index),
                })
                .collect(),
        }
    }

    #[test]
    fn screened_sweep_simulates_only_flagged_cells() {
        let dir = tempdir("screened");
        let plan = uniform_plan(&[3, 11], 0.05);
        let outcome =
            screened_sweep(&small_config(), &dir, &opts(1), &plan).expect("sweep");
        assert_eq!(outcome.simulated, vec![3, 11]);
        assert_eq!(outcome.screened_out.len(), 14);
        assert!(!outcome.interrupted);
        assert!(dir.join("hw_03/summary.tsv").exists());
        assert!(dir.join("hw_11/summary.tsv").exists());
        assert!(!dir.join("hw_00").exists(), "unflagged cell must not run");
        let screen = fs::read_to_string(dir.join("screen.tsv")).expect("screen artifact");
        assert!(screen.contains("# threshold=0.050000"), "{screen}");
        assert_eq!(screen.lines().count(), 3 + FACTORIAL_CELLS, "{screen}");
        let factorial =
            fs::read_to_string(dir.join("factorial.tsv")).expect("factorial artifact");
        assert_eq!(factorial.lines().count(), 2 + 2, "one row per simulated cell");
        // Rows are exactly the two flagged cells.
        assert!(factorial.contains("\n3\thigh\thigh\tlow\tlow\t"), "{factorial}");
        assert!(factorial.contains("\n11\thigh\thigh\tlow\thigh\t"), "{factorial}");
        let _ = fs::remove_dir_all(&dir);
    }

    /// A factorial sweep announces its plan, then each hardware cell
    /// before that cell's run events; without a plan, all 16 in order.
    #[test]
    fn factorial_events_name_each_hardware_cell_before_its_runs() {
        let kinds = |plan: Option<&ScreenedSweepPlan>, tag: &str| -> Vec<String> {
            let dir = tempdir(tag);
            let mut kinds = Vec::new();
            let mut record = |event: SweepEvent| {
                kinds.push(match event {
                    SweepEvent::Screened { flagged, .. } => format!("screened {flagged:?}"),
                    SweepEvent::HardwareCellStarted { index, hardware } => {
                        assert_eq!(hardware, HardwareConfig::from_index(index));
                        format!("hw {index}")
                    }
                    SweepEvent::CellStarted { cell, .. } => format!("start {cell}"),
                    SweepEvent::CellDone { cell, .. } => format!("done {cell}"),
                    other => other.to_string(),
                });
            };
            let mut ctrl = SweepControl {
                cancel: None,
                progress: Some(&mut record),
            };
            run_factorial_sweep_controlled(&tiny_config(), &dir, &opts(1), plan, &mut ctrl)
                .expect("sweep");
            let _ = fs::remove_dir_all(&dir);
            kinds
        };
        let runs = |index: usize| [format!("hw {index}"), "start 0".into(), "done 0".into()];

        let mut screened = vec!["screened [3, 11]".to_string()];
        screened.extend(runs(3));
        screened.extend(runs(11));
        let plan = uniform_plan(&[3, 11], 0.05);
        assert_eq!(kinds(Some(&plan), "events-screened"), screened);

        let full: Vec<String> = (0..FACTORIAL_CELLS).flat_map(runs).collect();
        assert_eq!(kinds(None, "events-full"), full);
    }

    #[test]
    fn malformed_plans_are_typed_errors() {
        let dir = tempdir("badplan");
        let mut plan = uniform_plan(&[0], 0.0);
        plan.cells.truncate(4);
        let err = screened_sweep(&small_config(), &dir, &opts(1), &plan)
            .expect_err("short plan must be rejected");
        assert!(matches!(err, SweepError::Screen { .. }), "{err}");
        let mut plan = uniform_plan(&[0], 0.0);
        plan.cells[5].index = 9;
        let err = screened_sweep(&small_config(), &dir, &opts(1), &plan)
            .expect_err("misindexed plan must be rejected");
        assert!(err.to_string().contains("cell 5"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_outcome_reports_cell_summaries() {
        let dir = tempdir("cellsummaries");
        let outcome = sweep(&small_config(), &dir, &opts(2)).expect("sweep");
        assert_eq!(outcome.cells.len(), 2);
        for (i, cell) in outcome.cells.iter().enumerate() {
            assert_eq!(cell.cell, i as u64);
            assert!(cell.samples > 0);
            assert!(cell.p50_us > 0.0 && cell.p99_us >= cell.p95_us);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A cell of about 60 responses: checkpointing every third of its
    /// events takes exactly two checkpoints, and the second record chunk
    /// is about 1.5 KB, small enough to cut after every byte.
    fn tiny_config() -> LoadTestConfig {
        LoadTestConfig::from_json(
            r#"{
                "workload": { "workload": "memcached" },
                "target_rps": 10000,
                "clients": 1,
                "duration_ms": 6,
                "warmup_ms": 1,
                "seed": 17
            }"#,
        )
        .expect("valid config")
    }

    /// The files one checkpoint of an uninterrupted cell leaves.
    struct OnDisk {
        events: u64,
        envelope: Vec<u8>,
        segment: Vec<u8>,
    }

    /// Runs cell 0 of `test` into `dir` without a crash, checkpointing
    /// every `every` events, and keeps each checkpoint's files.
    fn checkpoints_on_disk(test: &LoadTest, dir: &Path, every: u64) -> Vec<OnDisk> {
        let mut run = fresh_cell(test, dir, 0).expect("fresh cell");
        let mut states = Vec::new();
        while run.step(every) > 0 && !run.is_finished() {
            checkpoint_cell(&mut run, dir, 0).expect("checkpoint");
            states.push(OnDisk {
                events: run.events_executed(),
                envelope: fs::read(ckpt_path(dir, 0)).expect("envelope"),
                segment: fs::read(records_path(dir, 0)).expect("segment"),
            });
        }
        states
    }

    /// Recovers cell 0 of `dir` the way the sweep does (resume, or a
    /// restart when no checkpoint is usable), takes the next checkpoint
    /// and finishes. Returns the events it resumed at (`None` for a
    /// restart), the segment right after that checkpoint, and the report.
    fn recover(test: &LoadTest, dir: &Path, every: u64) -> (Option<u64>, Vec<u8>, LoadTestReport) {
        let mut warnings = Vec::new();
        let resumed = resume_cell(test, dir, 0, &mut warnings).expect("resume");
        let (mut run, resumed_at) = match resumed {
            Some(run) => {
                let at = run.events_executed();
                (run, Some(at))
            }
            None => (fresh_cell(test, dir, 0).expect("fresh cell"), None),
        };
        run.step(every);
        checkpoint_cell(&mut run, dir, 0).expect("checkpoint");
        let segment = fs::read(records_path(dir, 0)).expect("segment");
        while run.step(every) > 0 {}
        (resumed_at, segment, run.finish())
    }

    fn same_bits(a: &LoadTestReport, b: &LoadTestReport) -> bool {
        a.aggregated == b.aggregated
            && a.per_instance == b.per_instance
            && a.run.client_records == b.run.client_records
            && a.run.events_executed == b.run.events_executed
    }

    /// Crash points of the two-file checkpoint protocol, enumerated
    /// rather than sampled: every state a crash can leave between and
    /// inside the two checkpoints of a cell, down to a second record
    /// chunk cut after every byte.
    #[test]
    fn every_crash_state_of_the_two_file_protocol_resumes_or_restarts() {
        let config = tiny_config();
        let test = config.build().expect("build");
        let golden = test.run(0);
        let every = golden.run.events_executed / 3 + 1;
        let dir = tempdir("crash-states");
        let states = checkpoints_on_disk(&test, &dir, every);
        assert_eq!(states.len(), 2, "the cell must checkpoint exactly twice");
        let (first, second) = (&states[0], &states[1]);
        let chunk = first.segment.len()..second.segment.len();
        assert!(chunk.len() > 500 && chunk.len() < 4_000, "{chunk:?}");

        let reset = |envelope: Option<&[u8]>, segment: &[u8]| {
            for path in [ckpt_path(&dir, 0), records_path(&dir, 0)] {
                let _ = fs::remove_file(path);
            }
            if let Some(envelope) = envelope {
                fs::write(ckpt_path(&dir, 0), envelope).expect("envelope");
            }
            fs::write(records_path(&dir, 0), segment).expect("segment");
        };

        // The second chunk appended and fsynced, then cut after every
        // byte — the last cut is the whole chunk with its envelope
        // unpublished. The first envelope stays in charge: the run
        // resumes there, the cut tail goes, and the next checkpoint
        // writes the uninterrupted segment byte for byte.
        for end in chunk.start..=chunk.end {
            reset(Some(&first.envelope), &second.segment[..end]);
            let (resumed_at, segment, report) = recover(&test, &dir, every);
            assert_eq!(resumed_at, Some(first.events), "cut at {end}");
            assert!(
                segment == second.segment,
                "cut at {end}: the append landed on debris"
            );
            assert!(fs::read(ckpt_path(&dir, 0)).expect("envelope") == second.envelope);
            assert!(same_bits(&report, &golden), "cut at {end}: report drifted");
        }

        // The second envelope's `.tmp` written (whole or torn) but never
        // renamed: ignored, and overwritten by the next publish.
        let tmp = dir.join("cell_0.ckpt.tmp");
        for torn in [second.envelope.len(), second.envelope.len() / 2] {
            reset(Some(&first.envelope), &second.segment);
            fs::write(&tmp, &second.envelope[..torn]).expect("tmp");
            let (resumed_at, segment, report) = recover(&test, &dir, every);
            assert_eq!(resumed_at, Some(first.events));
            assert!(segment == second.segment);
            assert!(!tmp.exists(), "the publish left its .tmp behind");
            assert!(same_bits(&report, &golden));
        }

        // A segment with no envelope yet (the first chunk whole or torn,
        // its envelope never published): the cell restarts, and its first
        // checkpoint starts the segment afresh rather than after the
        // debris.
        for end in [first.segment.len(), first.segment.len() / 2, 0] {
            reset(None, &first.segment[..end]);
            let (resumed_at, segment, report) = recover(&test, &dir, every);
            assert_eq!(resumed_at, None, "no envelope, yet the cell resumed");
            assert!(
                segment == first.segment,
                "restart at {end}: the append landed on debris"
            );
            assert!(same_bits(&report, &golden));
        }
        let _ = fs::remove_dir_all(&dir);

        // The same states through the whole sweep: artifacts equal an
        // uninterrupted sweep's, resumed or restarted as above.
        let golden_dir = tempdir("golden-crash-states");
        let every_opts = SweepOptions {
            ckpt_events: every,
            ..opts(1)
        };
        sweep_below_floor(&config, &golden_dir, &every_opts).expect("golden sweep");
        let envelope = Some(first.envelope.as_slice());
        let cases = [
            ("unpublished", envelope, second.segment.as_slice(), Some(0)),
            (
                "torn-chunk",
                envelope,
                &second.segment[..chunk.start + 9],
                Some(0),
            ),
            ("no-envelope", None, first.segment.as_slice(), None),
        ];
        for (tag, envelope, segment, resumed) in cases {
            let dir = crashed_dir(tag, &config);
            if let Some(envelope) = envelope {
                fs::write(ckpt_path(&dir, 0), envelope).expect("envelope");
                fs::write(dir.join("cell_0.ckpt.tmp"), &second.envelope[..40]).expect("tmp");
            }
            fs::write(records_path(&dir, 0), segment).expect("segment");
            let (_, decisions) = decided_below_floor(&config, &dir, &every_opts);
            assert_eq!(decisions.resumed, resumed, "{tag}");
            for artifact in [
                "cell_0.tsv",
                "cell_0.attr.tsv",
                "summary.tsv",
                "attribution.tsv",
            ] {
                assert_eq!(
                    fs::read(golden_dir.join(artifact)).expect("golden artifact"),
                    fs::read(dir.join(artifact)).expect("resumed artifact"),
                    "{tag}: {artifact} differs"
                );
            }
            assert!(!ckpt_path(&dir, 0).exists() && !records_path(&dir, 0).exists());
            let _ = fs::remove_dir_all(&dir);
        }
        let _ = fs::remove_dir_all(&golden_dir);
    }

    /// Checkpoints that must not be trusted fail closed: the cell
    /// restarts from event zero and still lands on the golden bytes.
    #[test]
    fn untrustworthy_checkpoints_restart_the_cell() {
        let config = tiny_config();
        let test = config.build().expect("build");
        let every = test.run(0).run.events_executed / 3 + 1;
        let every_opts = SweepOptions {
            ckpt_events: every,
            ..opts(1)
        };
        let golden_dir = tempdir("golden-untrusted");
        sweep_below_floor(&config, &golden_dir, &every_opts).expect("golden sweep");
        let scratch = tempdir("untrusted-checkpoints");
        let states = checkpoints_on_disk(&test, &scratch, every);
        let _ = fs::remove_dir_all(&scratch);
        let second = &states[1];

        // A version-4 envelope (the format before the record segment).
        let mut old = second.envelope.clone();
        old[4..8].copy_from_slice(&4u32.to_le_bytes());
        // A bit flipped inside the committed prefix of the segment.
        let mut flipped = second.segment.clone();
        flipped[second.segment.len() / 2] ^= 0x10;
        let cases: [(&str, &[u8], &[u8], &str); 3] = [
            ("version-4", &old, &second.segment, "version 4"),
            (
                "short-segment",
                &second.envelope,
                &second.segment[..second.segment.len() - 1],
                "truncated",
            ),
            ("bit-flip", &second.envelope, &flipped, "checksum"),
        ];
        for (tag, envelope, segment, why) in cases {
            let dir = crashed_dir(tag, &config);
            fs::write(ckpt_path(&dir, 0), envelope).expect("envelope");
            fs::write(records_path(&dir, 0), segment).expect("segment");
            let (outcome, decisions) = decided_below_floor(&config, &dir, &every_opts);
            assert_eq!(decisions.resumed, None, "{tag}");
            assert!(
                outcome
                    .warnings
                    .iter()
                    .any(|w| w.contains("unusable") && w.contains(why)),
                "{tag}: {:?}",
                outcome.warnings
            );
            for artifact in ["cell_0.tsv", "summary.tsv"] {
                assert_eq!(
                    fs::read(golden_dir.join(artifact)).expect("golden artifact"),
                    fs::read(dir.join(artifact)).expect("restarted artifact"),
                    "{tag}: {artifact} differs"
                );
            }
            let _ = fs::remove_dir_all(&dir);
        }
        let _ = fs::remove_dir_all(&golden_dir);
    }
}
