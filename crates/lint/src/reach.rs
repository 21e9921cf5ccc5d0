//! Reachability analysis over the workspace call graph, and the
//! semantic rules built on it.
//!
//! Two root sets are traced:
//!
//! * **Deterministic roots** — every non-test function in the
//!   deterministic crates (`sim-core`, `cluster`, `core`, `inference`,
//!   `workloads`), seeded from the named entry points (`Engine` run
//!   methods, `ClusterWorld`/`ShardedCluster` rounds, the screening
//!   predictors) so explain chains start at a recognizable boundary.
//!   DET001/002/003 findings outside the deterministic crates fire
//!   only when their containing function is reachable from this set —
//!   replacing PR 5's whole-crate allowlist with a per-path proof.
//! * **Service roots** — every non-test function in `crates/server`.
//!   PANIC002 fires on any panic site reachable from here through
//!   edges *not* contained by `catch_unwind`: a reachable panic is a
//!   crashed sweep, and the budget is zero.
//!
//! BFS parent links are kept for both traversals so `--explain` can
//! print the concrete call chain (or certify unreachability) for any
//! `RULE:file:line`.

use std::collections::{BTreeMap, VecDeque};

use crate::graph::Graph;
use crate::parse::IoKind;
use crate::rules;

/// How a function was reached from a root set.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Reach {
    No,
    Root,
    Via { from: usize, line: usize },
}

/// A semantic finding before suppression handling: rule id + site.
#[derive(Debug, Clone)]
pub struct SemHit {
    pub rule_id: &'static str,
    /// 1-based line.
    pub line: usize,
    /// Site-specific detail appended to the rule summary.
    pub detail: Option<String>,
}

/// Named deterministic entry points: `(impl type, method)`.
const ENTRY_METHODS: &[(&str, &str)] = &[
    ("Engine", "run_to_completion"),
    ("Engine", "run_until"),
    ("Engine", "run_events"),
];
/// Types whose every method is a deterministic entry point.
const ENTRY_TYPES: &[&str] = &["ClusterWorld", "ShardedCluster"];
/// Free functions that are deterministic entry points (sweep drivers
/// and the analytic screening predictors).
const ENTRY_FNS: &[&str] = &[
    "run_sweep_controlled",
    "run_factorial_sweep_controlled",
    "screen_factors",
    "screen_cells",
    "screen_hardware",
    "predict_cell",
    "predict",
    "censoring_prediction",
];

/// Files covered by DUR001 (fsync-before-publish discipline).
fn dur001_scope(path: &str) -> bool {
    path.starts_with("crates/server/")
        || path == "crates/core/src/sweep.rs"
        || path == "crates/core/src/journal.rs"
}

/// Panic-site method names and macros for PANIC002. `debug_assert*` is
/// compiled out of release builds and deliberately absent.
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];
const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// The computed reachability model; owns the graph.
#[derive(Debug)]
pub struct Semantics {
    pub graph: Graph,
    det_parent: Vec<Reach>,
    svc_parent: Vec<Reach>,
    pub det_root_count: usize,
    pub entry_count: usize,
    pub svc_root_count: usize,
    pub edge_count: usize,
}

impl Semantics {
    /// Runs both traversals over a built graph.
    pub fn compute(graph: Graph) -> Semantics {
        let n = graph.fn_count();
        let edge_count = graph.out_edges.iter().map(Vec::len).sum();
        let mut sem = Semantics {
            graph,
            det_parent: vec![Reach::No; n],
            svc_parent: vec![Reach::No; n],
            det_root_count: 0,
            entry_count: 0,
            svc_root_count: 0,
            edge_count,
        };
        sem.trace_deterministic();
        sem.trace_service();
        sem
    }

    fn is_named_entry(&self, id: usize) -> bool {
        let f = self.graph.fn_def(id);
        match f.self_ty.as_deref() {
            Some(ty) => {
                ENTRY_TYPES.contains(&ty)
                    || ENTRY_METHODS.iter().any(|(t, m)| *t == ty && *m == f.name)
            }
            None => ENTRY_FNS.contains(&f.name.as_str()),
        }
    }

    /// Is `id` eligible as a root of the given set? Test fns and
    /// test-path files are never roots: determinism and crash-safety
    /// are contracts on shipped code, and tests only *drive* it.
    fn det_root(&self, id: usize) -> bool {
        let file = self.graph.fn_file(id);
        rules::is_deterministic_crate(file)
            && !rules::is_test_like_path(file)
            && !self.graph.fn_def(id).is_test
    }

    fn svc_root(&self, id: usize) -> bool {
        let file = self.graph.fn_file(id);
        file.starts_with("crates/server/")
            && !rules::is_test_like_path(file)
            && !self.graph.fn_def(id).is_test
    }

    fn trace_deterministic(&mut self) {
        // Seed named entries first so explain chains ground at a
        // recognizable boundary, then every other eligible fn (a
        // not-yet-called pub fn in a deterministic crate is still
        // covered code).
        let mut roots: Vec<usize> = (0..self.graph.fn_count())
            .filter(|&id| self.det_root(id) && self.is_named_entry(id))
            .collect();
        self.entry_count = roots.len();
        roots.extend((0..self.graph.fn_count()).filter(|&id| self.det_root(id)));
        let mut queue = VecDeque::new();
        for id in roots {
            if self.det_parent[id] == Reach::No {
                self.det_parent[id] = Reach::Root;
                self.det_root_count += 1;
                queue.push_back(id);
            }
        }
        while let Some(id) = queue.pop_front() {
            for e in &self.graph.out_edges[id] {
                if self.det_parent[e.to] == Reach::No {
                    self.det_parent[e.to] = Reach::Via { from: id, line: e.line };
                    queue.push_back(e.to);
                }
            }
        }
    }

    fn trace_service(&mut self) {
        let mut queue = VecDeque::new();
        for id in 0..self.graph.fn_count() {
            if self.svc_root(id) {
                self.svc_parent[id] = Reach::Root;
                self.svc_root_count += 1;
                queue.push_back(id);
            }
        }
        while let Some(id) = queue.pop_front() {
            for e in &self.graph.out_edges[id] {
                // An edge inside catch_unwind contains the panic; it
                // does not propagate crash-reachability.
                if !e.caught && self.svc_parent[e.to] == Reach::No {
                    self.svc_parent[e.to] = Reach::Via { from: id, line: e.line };
                    queue.push_back(e.to);
                }
            }
        }
    }

    /// Is the function containing `file:line` reachable from the
    /// deterministic roots? (False when no function contains the line —
    /// module-level code in a non-deterministic crate is not simulated
    /// state.)
    pub fn det_reachable_at(&self, file: &str, line: usize) -> bool {
        self.graph
            .fn_at(file, line)
            .is_some_and(|id| self.det_parent[id] != Reach::No)
    }

    /// Semantic findings (DET008, DUR001, PANIC002, NUM002), grouped by
    /// file path.
    pub fn findings_by_file(&self) -> BTreeMap<String, Vec<SemHit>> {
        let mut out: BTreeMap<String, Vec<SemHit>> = BTreeMap::new();
        for fi in 0..self.graph.files.len() {
            let path = self.graph.files[fi].path.clone();
            let mut hits = Vec::new();
            self.det008_hits(fi, &mut hits);
            self.dur001_hits(fi, &mut hits);
            self.num002_hits(fi, &mut hits);
            self.panic002_hits(fi, &mut hits);
            if !hits.is_empty() {
                hits.sort_by_key(|h| (h.line, h.rule_id));
                out.insert(path, hits);
            }
        }
        out
    }

    /// DET008: overlapping shard-mutex guards in deterministic crates
    /// that use the `Vec<Mutex<…>>` sharding pattern.
    fn det008_hits(&self, fi: usize, hits: &mut Vec<SemHit>) {
        let file = &self.graph.files[fi];
        if file.mutex_vec_lines.is_empty()
            || !rules::is_deterministic_crate(&file.path)
            || rules::is_test_like_path(&file.path)
        {
            return;
        }
        for f in &file.fns {
            if f.is_test {
                continue;
            }
            for ev in &f.lock_overlaps {
                hits.push(SemHit {
                    rule_id: "DET008",
                    line: ev.line,
                    detail: Some(ev.detail.clone()),
                });
            }
        }
    }

    /// DUR001: in journal/artifact code, every rename must be preceded
    /// by a sync, and an opened write handle must be synced before the
    /// function returns once it was written or truncated — an append
    /// handle always, since it may be written through a callee.
    fn dur001_hits(&self, fi: usize, hits: &mut Vec<SemHit>) {
        let file = &self.graph.files[fi];
        if !dur001_scope(&file.path) || rules::is_test_like_path(&file.path) {
            return;
        }
        for f in &file.fns {
            if f.is_test {
                continue;
            }
            let evs = &f.io_events;
            let mut synced = false;
            let mut wrote = false;
            let mut opened = false;
            let mut appending = false;
            for ev in evs {
                match ev.kind {
                    IoKind::Sync => synced = true,
                    IoKind::Write => wrote = true,
                    IoKind::CreateFile => opened = true,
                    IoKind::AppendOpen => {
                        opened = true;
                        appending = true;
                    }
                    IoKind::Rename => {
                        if !synced {
                            hits.push(SemHit {
                                rule_id: "DUR001",
                                line: ev.line,
                                detail: Some(
                                    "rename publishes a file never synced in this fn"
                                        .to_string(),
                                ),
                            });
                        }
                    }
                }
            }
            if opened && (wrote || appending) && !synced {
                let line = evs
                    .iter()
                    .rev()
                    .find(|e| e.kind == IoKind::Write)
                    .or_else(|| evs.iter().find(|e| e.kind == IoKind::AppendOpen))
                    .map_or(f.line, |e| e.line);
                hits.push(SemHit {
                    rule_id: "DUR001",
                    line,
                    detail: Some(
                        "write handle opened and written but never fsynced".to_string(),
                    ),
                });
            }
        }
    }

    /// NUM002: raw arithmetic on tainted time/seq parameters in
    /// deterministic (or deterministically reachable) functions.
    fn num002_hits(&self, fi: usize, hits: &mut Vec<SemHit>) {
        let file = &self.graph.files[fi];
        if rules::is_test_like_path(&file.path) || rules::is_bin_path(&file.path) {
            return;
        }
        for (li, f) in file.fns.iter().enumerate() {
            if f.is_test || f.arith_sites.is_empty() {
                continue;
            }
            let id = match self.fn_id(fi, li) {
                Some(id) => id,
                None => continue,
            };
            let covered = rules::is_deterministic_crate(&file.path)
                || self.det_parent[id] != Reach::No;
            if !covered {
                continue;
            }
            let mut seen = Vec::new();
            for site in &f.arith_sites {
                if seen.contains(&site.line) {
                    continue;
                }
                seen.push(site.line);
                hits.push(SemHit {
                    rule_id: "NUM002",
                    line: site.line,
                    detail: Some(format!(
                        "raw arithmetic on caller-supplied `{}` in fn {}",
                        site.ident, f.name
                    )),
                });
            }
        }
    }

    /// PANIC002: panic sites outside `crates/server` whose containing
    /// fn is service-reachable through uncaught edges. Sites inside
    /// `crates/server` itself are already pinned by the zero PANIC001
    /// budget.
    fn panic002_hits(&self, fi: usize, hits: &mut Vec<SemHit>) {
        let file = &self.graph.files[fi];
        if file.path.starts_with("crates/server/")
            || rules::is_test_like_path(&file.path)
            || rules::is_bin_path(&file.path)
        {
            return;
        }
        for (li, f) in file.fns.iter().enumerate() {
            if f.is_test {
                continue;
            }
            let id = match self.fn_id(fi, li) {
                Some(id) => id,
                None => continue,
            };
            if self.svc_parent[id] == Reach::No {
                continue;
            }
            for call in &f.calls {
                if call.caught {
                    continue;
                }
                let is_panic = (call.method && PANIC_METHODS.contains(&call.name.as_str()))
                    || (call.is_macro && PANIC_MACROS.contains(&call.name.as_str()));
                if is_panic {
                    hits.push(SemHit {
                        rule_id: "PANIC002",
                        line: call.line,
                        detail: Some(format!(
                            "`{}` in fn {} is reachable from the service (run \
                             tml-lint --explain PANIC002:{}:{} for the chain)",
                            call.name, f.name, file.path, call.line
                        )),
                    });
                }
            }
        }
    }

    fn fn_id(&self, fi: usize, li: usize) -> Option<usize> {
        self.graph.fn_locs.iter().position(|&loc| loc == (fi, li))
    }

    /// Root-to-target call chain under a parent map, as display lines.
    fn chain(&self, parents: &[Reach], target: usize) -> Option<Vec<String>> {
        let mut steps: Vec<(usize, Option<usize>)> = Vec::new();
        let mut cur = target;
        loop {
            match parents[cur] {
                Reach::No => return None,
                Reach::Root => {
                    steps.push((cur, None));
                    break;
                }
                Reach::Via { from, line } => {
                    steps.push((cur, Some(line)));
                    cur = from;
                }
            }
        }
        steps.reverse();
        let mut out = Vec::new();
        let mut prev_file: Option<&str> = None;
        for (id, via_line) in steps {
            match via_line {
                None => out.push(format!("  {}", self.graph.fn_display(id))),
                Some(line) => out.push(format!(
                    "    → {} (called at {}:{})",
                    self.graph.fn_display(id),
                    prev_file.unwrap_or("?"),
                    line
                )),
            }
            prev_file = Some(self.graph.fn_file(id));
        }
        Some(out)
    }

    /// Evidence for `--explain RULE:file:line`: why a finding fires, or
    /// the proof that a site is unreachable and therefore silent.
    pub fn explain(&self, rule: &str, file: &str, line: usize) -> String {
        let header = format!("{rule} {file}:{line}");
        let Some(id) = self.graph.fn_at(file, line) else {
            return format!(
                "{header}\n  no function contains this line (module-level code); \
                 reachability rules only cover function bodies.\n  graph: {} fns, {} edges.",
                self.graph.fn_count(),
                self.edge_count
            );
        };
        let fname = self.graph.fn_display(id);
        match rule {
            "PANIC002" => match self.chain(&self.svc_parent, id) {
                Some(chain) => format!(
                    "{header}\n  panic site is reachable from the service through \
                     uncaught edges:\n{}",
                    chain.join("\n")
                ),
                None => format!(
                    "{header}\n  {fname} is NOT service-reachable outside catch_unwind: \
                     no PANIC002 finding.\n  ({} service roots traced over {} fns, {} \
                     edges.)",
                    self.svc_root_count,
                    self.graph.fn_count(),
                    self.edge_count
                ),
            },
            "DET001" | "DET002" | "DET003" => {
                if rules::is_deterministic_crate(file) {
                    return format!(
                        "{header}\n  {fname} lives in a deterministic crate: the rule \
                         applies unconditionally (no reachability proof needed)."
                    );
                }
                match self.chain(&self.det_parent, id) {
                    Some(chain) => format!(
                        "{header}\n  reachable from a deterministic entry point — the \
                         finding fires:\n{}",
                        chain.join("\n")
                    ),
                    None => {
                        let mut out = format!(
                            "{header}\n  proven unreachable: no call path from any of \
                             the {} deterministic root fns ({} named entry points) \
                             reaches {fname}.\n  graph: {} fns, {} edges — the site is \
                             exempt without an allowlist.",
                            self.det_root_count,
                            self.entry_count,
                            self.graph.fn_count(),
                            self.edge_count
                        );
                        if let Some(chain) = self.chain(&self.svc_parent, id) {
                            out.push_str(&format!(
                                "\n  it belongs to the service world instead:\n{}",
                                chain.join("\n")
                            ));
                        }
                        out
                    }
                }
            }
            _ => format!(
                "{header}\n  {fname}; rule {rule} is structural (no reachability \
                 component) — see tml-lint --list-rules."
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::parse::parse_file;
    use crate::scan::scan;
    use std::collections::BTreeMap;

    fn sem(files: &[(&str, &str)]) -> Semantics {
        sem_with_deps(files, &[])
    }

    fn sem_with_deps(files: &[(&str, &str)], deps: &[(&str, &[&str])]) -> Semantics {
        let parsed = files
            .iter()
            .map(|(p, s)| parse_file(p, &scan(s)))
            .collect();
        let map: BTreeMap<String, Vec<String>> = deps
            .iter()
            .map(|(k, v)| (k.to_string(), v.iter().map(|s| s.to_string()).collect()))
            .collect();
        Semantics::compute(Graph::build(parsed, &map))
    }

    fn rule_lines(s: &Semantics, rule: &str, file: &str) -> Vec<usize> {
        s.findings_by_file()
            .get(file)
            .map(|hits| {
                hits.iter()
                    .filter(|h| h.rule_id == rule)
                    .map(|h| h.line)
                    .collect()
            })
            .unwrap_or_default()
    }

    #[test]
    fn every_named_entry_point_matches_shipped_code() {
        // A deleted or renamed entry point would shrink the
        // deterministic roots without a word: every name must still
        // seed at least one root of the workspace.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let analysis =
            crate::analyze_workspace(&root, &crate::baseline::Baseline::default()).unwrap();
        let sem = analysis.semantics.unwrap();
        let roots: Vec<_> = (0..sem.graph.fn_count())
            .filter(|&id| sem.det_root(id))
            .map(|id| sem.graph.fn_def(id))
            .collect();
        let has = |ty: Option<&str>, name: Option<&str>| {
            roots
                .iter()
                .any(|f| f.self_ty.as_deref() == ty && name.is_none_or(|name| f.name == name))
        };
        let mut unmatched: Vec<String> = ENTRY_FNS
            .iter()
            .filter(|name| !has(None, Some(name)))
            .map(|name| format!("fn {name}"))
            .collect();
        unmatched.extend(
            ENTRY_METHODS
                .iter()
                .filter(|(ty, name)| !has(Some(ty), Some(name)))
                .map(|(ty, name)| format!("{ty}::{name}")),
        );
        unmatched.extend(
            ENTRY_TYPES
                .iter()
                .filter(|ty| !has(Some(ty), None))
                .map(|ty| format!("impl {ty}")),
        );
        assert!(
            unmatched.is_empty(),
            "named entry points match nothing: {unmatched:?}"
        );
    }

    #[test]
    fn diamond_reachability_single_visit() {
        // a → b, a → c, b → d, c → d: d reached once, chain well-formed.
        let src = "\
pub fn a() { b(); c(); }
fn b() { d(); }
fn c() { d(); }
fn d() {}
";
        let s = sem(&[("crates/core/src/lib.rs", src)]);
        assert!(s.det_reachable_at("crates/core/src/lib.rs", 4));
        let explain = s.explain("DET002", "crates/core/src/lib.rs", 4);
        assert!(explain.contains("deterministic crate"), "{explain}");
    }

    #[test]
    fn recursion_terminates() {
        let src = "pub fn spin(n: u64) { if n > 0 { spin(n); } other(); }\nfn other() {}\n";
        let s = sem(&[("crates/core/src/lib.rs", src)]);
        assert!(s.det_reachable_at("crates/core/src/lib.rs", 2));
    }

    #[test]
    fn cross_crate_det_reachability_gates_non_det_code() {
        // A stats helper called from inference is det-reachable; an
        // uncalled stats fn is not.
        let inference = "pub fn screen_hardware() { quantile(); }\n";
        let stats = "pub fn quantile() {}\npub fn orphan() {}\n";
        let s = sem_with_deps(
            &[
                ("crates/inference/src/screening.rs", inference),
                ("crates/stats/src/lib.rs", stats),
            ],
            &[
                ("treadmill-inference", &["treadmill-stats"]),
                ("treadmill-stats", &[]),
            ],
        );
        assert!(s.det_reachable_at("crates/stats/src/lib.rs", 1));
        assert!(!s.det_reachable_at("crates/stats/src/lib.rs", 2));
        let reach = s.explain("DET002", "crates/stats/src/lib.rs", 1);
        assert!(reach.contains("reachable from a deterministic entry point"), "{reach}");
        let unreach = s.explain("DET002", "crates/stats/src/lib.rs", 2);
        assert!(unreach.contains("proven unreachable"), "{unreach}");
    }

    #[test]
    fn trait_dispatch_reaches_every_impl() {
        let src = "\
trait W { fn tick(&mut self); }
struct Wa; struct Wb;
impl W for Wa { fn tick(&mut self) { shared(); } }
impl W for Wb { fn tick(&mut self) {} }
pub fn run_events(w: &mut Wa) { w.tick(); }
fn shared() {}
";
        let s = sem(&[("crates/sim-core/src/lib.rs", src)]);
        // `shared` is reached through the Wa impl of the trait method.
        assert!(s.det_reachable_at("crates/sim-core/src/lib.rs", 6));
    }

    #[test]
    fn panic002_fires_only_when_uncaught() {
        let server = "\
pub fn executor() { run_job(); }
pub fn safe_executor() {
    let r = std::panic::catch_unwind(|| contained_job());
}
";
        let core = "\
pub fn run_job() { boom(); }
pub fn contained_job() { contained_boom(); }
fn boom() { inner().unwrap(); }
fn contained_boom() { inner().unwrap(); }
fn inner() -> Option<u32> { None }
";
        let s = sem_with_deps(
            &[
                ("crates/server/src/service.rs", server),
                ("crates/core/src/job.rs", core),
            ],
            &[
                ("treadmill-server", &["treadmill-core"]),
                ("treadmill-core", &[]),
            ],
        );
        let lines = rule_lines(&s, "PANIC002", "crates/core/src/job.rs");
        // boom's unwrap (line 3) is reachable; contained_boom's (line 4)
        // is only reachable through catch_unwind.
        assert_eq!(lines, vec![3], "{:?}", s.findings_by_file());
        let explain = s.explain("PANIC002", "crates/core/src/job.rs", 3);
        assert!(explain.contains("reachable from the service"), "{explain}");
        assert!(explain.contains("executor"), "{explain}");
        let silent = s.explain("PANIC002", "crates/core/src/job.rs", 4);
        assert!(silent.contains("NOT service-reachable"), "{silent}");
    }

    #[test]
    fn det008_overlapping_guards_flagged_sequential_ok() {
        let bad = "\
pub struct Pool { shards: Vec<Mutex<u64>> }
impl Pool {
    pub fn broken(&self) {
        let a = self.shards[0].lock();
        let b = self.shards[1].lock();
    }
    pub fn fine(&self) {
        for s in &self.shards {
            let g = s.lock();
        }
        for s in &self.shards {
            let g = s.lock();
        }
    }
}
";
        let s = sem(&[("crates/cluster/src/shard.rs", bad)]);
        assert_eq!(rule_lines(&s, "DET008", "crates/cluster/src/shard.rs"), vec![5]);
    }

    #[test]
    fn dur001_rename_without_sync() {
        let bad = "\
pub fn publish(tmp: &Path, dst: &Path) {
    let mut f = File::create(tmp).unwrap();
    f.write_all(b\"x\").unwrap();
    fs::rename(tmp, dst).unwrap();
}
";
        let good = "\
pub fn publish(tmp: &Path, dst: &Path) {
    let mut f = File::create(tmp).unwrap();
    f.write_all(b\"x\").unwrap();
    f.sync_all().unwrap();
    fs::rename(tmp, dst).unwrap();
}
";
        let s = sem(&[("crates/server/src/store.rs", bad)]);
        let lines = rule_lines(&s, "DUR001", "crates/server/src/store.rs");
        // Both violations: the unsynced rename and the never-synced handle.
        assert!(lines.contains(&4), "{lines:?}");
        let s = sem(&[("crates/server/src/store.rs", good)]);
        assert!(rule_lines(&s, "DUR001", "crates/server/src/store.rs").is_empty());
    }

    #[test]
    fn dur001_covers_the_journal() {
        let bad = "\
fn append_synced(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut file = OpenOptions::new().create(true).append(true).open(path)?;
    file.write_all(bytes)?;
    Ok(())
}
";
        let good = "\
fn append_synced(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut file = OpenOptions::new().create(true).append(true).open(path)?;
    file.write_all(bytes)?;
    file.sync_all()
}
";
        let s = sem(&[("crates/core/src/journal.rs", bad)]);
        // The append handle is written but never fsynced.
        assert_eq!(rule_lines(&s, "DUR001", "crates/core/src/journal.rs"), vec![3]);
        let s = sem(&[("crates/core/src/journal.rs", good)]);
        assert!(rule_lines(&s, "DUR001", "crates/core/src/journal.rs").is_empty());
    }

    #[test]
    fn dur001_covers_the_record_segment() {
        // A truncation that is never fsynced, and a streamed append whose
        // bytes come from a callee: both can be lost by a crash after
        // the envelope that relies on them is published.
        let bad = "\
fn truncate_synced(path: &Path, len: u64) -> io::Result<()> {
    let file = OpenOptions::new().write(true).open(path)?;
    file.set_len(len)?;
    Ok(())
}
fn append_synced_with(path: &Path, fill: F) -> io::Result<T> {
    let mut file = OpenOptions::new().create(true).append(true).open(path)?;
    fill(&mut file)
}
";
        let good = "\
fn truncate_synced(path: &Path, len: u64) -> io::Result<()> {
    let file = OpenOptions::new().write(true).open(path)?;
    file.set_len(len)?;
    file.sync_all()
}
fn append_synced_with(path: &Path, fill: F) -> io::Result<T> {
    let mut file = OpenOptions::new().create(true).append(true).open(path)?;
    let value = fill(&mut file)?;
    file.sync_all()?;
    Ok(value)
}
";
        let s = sem(&[("crates/core/src/journal.rs", bad)]);
        assert_eq!(
            rule_lines(&s, "DUR001", "crates/core/src/journal.rs"),
            vec![3, 7]
        );
        let s = sem(&[("crates/core/src/journal.rs", good)]);
        assert!(rule_lines(&s, "DUR001", "crates/core/src/journal.rs").is_empty());
    }

    #[test]
    fn dur001_scope_is_limited() {
        // The same unsynced pattern outside server/sweep/journal is not DUR001's
        // business (e.g. a debug dump in stats).
        let bad = "\
pub fn dump(p: &Path) {
    let mut f = File::create(p).unwrap();
    f.write_all(b\"x\").unwrap();
}
";
        let s = sem(&[("crates/stats/src/debug.rs", bad)]);
        assert!(rule_lines(&s, "DUR001", "crates/stats/src/debug.rs").is_empty());
    }

    #[test]
    fn num002_gated_by_det_reachability() {
        let det = "pub fn advance(now_ns: u64, delta_ns: u64) -> u64 { now_ns + delta_ns }\n";
        let unreached = "pub fn fmt_ts(wall_ns: u64) -> u64 { wall_ns * 2 }\n";
        let s = sem_with_deps(
            &[
                ("crates/sim-core/src/time.rs", det),
                ("crates/server/src/audit.rs", unreached),
            ],
            &[
                ("treadmill-server", &["treadmill-sim-core"]),
                ("treadmill-sim-core", &[]),
            ],
        );
        assert_eq!(rule_lines(&s, "NUM002", "crates/sim-core/src/time.rs"), vec![1]);
        // server fn is not det-reachable: raw wall-clock math is fine.
        assert!(rule_lines(&s, "NUM002", "crates/server/src/audit.rs").is_empty());
    }
}
