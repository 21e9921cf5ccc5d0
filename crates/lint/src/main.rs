//! `tml-lint` — CLI for the workspace determinism & soundness analyzer.
//!
//! ```text
//! tml-lint [--check] [--format sarif] [--baseline PATH] [--root PATH]
//!          [--list-rules] [--explain RULE:file:line] [--prune-baseline]
//! ```
//!
//! Default mode prints a human report and always exits 0 (informational);
//! `--format sarif` prints the machine-readable report instead.
//! `--check` is the CI gate: exit 1 on any unsuppressed finding or any
//! baseline ratchet violation, 2 on usage/IO errors. `--explain` prints
//! the call-chain evidence behind a reachability verdict at a site.

use std::path::PathBuf;
use std::process::ExitCode;

use treadmill_lint::{analyze_workspace, baseline, rules, sarif};

#[derive(PartialEq)]
enum Format {
    Human,
    Sarif,
}

struct Options {
    check: bool,
    format: Format,
    root: Option<PathBuf>,
    baseline: Option<PathBuf>,
    list_rules: bool,
    /// `RULE:file:line` to explain.
    explain: Option<(String, String, usize)>,
    prune_baseline: bool,
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("tml-lint: {msg}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    if opts.list_rules {
        for rule in rules::RULES {
            println!("{}  {}", rule.id, compact(rule.summary));
            println!("        fix: {}", compact(rule.hint));
        }
        return ExitCode::SUCCESS;
    }

    let root = match opts.root.clone().or_else(find_workspace_root) {
        Some(root) => root,
        None => {
            eprintln!("tml-lint: could not locate a workspace root (no Cargo.toml with [workspace] above the current directory); pass --root");
            return ExitCode::from(2);
        }
    };

    let baseline_path = opts
        .baseline
        .clone()
        .unwrap_or_else(|| root.join("lint-baseline.toml"));
    let baseline = if baseline_path.exists() {
        match std::fs::read_to_string(&baseline_path)
            .map_err(|e| e.to_string())
            .and_then(|text| baseline::parse(&text))
        {
            Ok(b) => b,
            Err(msg) => {
                eprintln!("tml-lint: bad baseline {}: {msg}", baseline_path.display());
                return ExitCode::from(2);
            }
        }
    } else if opts.baseline.is_some() {
        eprintln!("tml-lint: baseline {} not found", baseline_path.display());
        return ExitCode::from(2);
    } else {
        baseline::Baseline::default()
    };

    let analysis = match analyze_workspace(&root, &baseline) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tml-lint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some((rule, file, line)) = &opts.explain {
        match &analysis.semantics {
            Some(sem) => {
                println!("{}", sem.explain(rule, file, *line));
                return ExitCode::SUCCESS;
            }
            None => {
                eprintln!("tml-lint: no reachability model available");
                return ExitCode::from(2);
            }
        }
    }

    if opts.prune_baseline {
        if !baseline_path.exists() {
            eprintln!(
                "tml-lint: cannot prune: baseline {} not found",
                baseline_path.display()
            );
            return ExitCode::from(2);
        }
        let text = match std::fs::read_to_string(&baseline_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("tml-lint: {e}");
                return ExitCode::from(2);
            }
        };
        let pruned = baseline::prune(&text, &analysis);
        if pruned == text {
            println!("tml-lint: baseline already minimal, nothing to prune");
        } else if let Err(e) = std::fs::write(&baseline_path, &pruned) {
            eprintln!("tml-lint: writing pruned baseline: {e}");
            return ExitCode::from(2);
        } else {
            println!("tml-lint: pruned {}", baseline_path.display());
        }
        return ExitCode::SUCCESS;
    }

    match opts.format {
        Format::Sarif => println!("{}", sarif::to_sarif(&analysis)),
        Format::Human => {
            for f in &analysis.failures {
                println!("FAIL {} {}:{} — {}", f.rule, f.file, f.line, f.message);
                println!("     fix: {}", f.hint);
            }
            for e in &analysis.ratchet_errors {
                println!("RATCHET {e}");
            }
            println!(
                "tml-lint: {} file(s) scanned — {} failure(s), {} budgeted, {} suppressed, {} ratchet error(s)",
                analysis.files_scanned,
                analysis.failures.len(),
                analysis.budgeted.len(),
                analysis.suppressed,
                analysis.ratchet_errors.len(),
            );
        }
    }

    if opts.check && analysis.is_failure() {
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

const USAGE: &str = "\
usage: tml-lint [--check] [--format FMT] [--baseline PATH] [--root PATH]
                [--list-rules] [--explain RULE:file:line] [--prune-baseline]
  --check                  CI gate: exit 1 on unsuppressed findings or ratchet violations
  --format FMT             output format: human (default), sarif
  --baseline PATH          baseline file (default: <root>/lint-baseline.toml when present)
  --root PATH              workspace root (default: nearest ancestor with [workspace])
  --list-rules             print the rule registry and exit
  --explain RULE:file:line print reachability evidence for a site and exit
  --prune-baseline         rewrite the baseline, dropping paid-off entries";

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        check: false,
        format: Format::Human,
        root: None,
        baseline: None,
        list_rules: false,
        explain: None,
        prune_baseline: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => opts.check = true,
            "--list-rules" => opts.list_rules = true,
            "--prune-baseline" => opts.prune_baseline = true,
            "--format" => {
                let fmt = args.next().ok_or("--format requires a value")?;
                opts.format = match fmt.as_str() {
                    "human" => Format::Human,
                    "sarif" => Format::Sarif,
                    other => return Err(format!("unknown format `{other}`")),
                };
            }
            "--explain" => {
                let spec = args.next().ok_or("--explain requires RULE:file:line")?;
                opts.explain = Some(parse_explain(&spec)?);
            }
            "--root" => {
                opts.root = Some(PathBuf::from(
                    args.next().ok_or("--root requires a path")?,
                ));
            }
            "--baseline" => {
                opts.baseline = Some(PathBuf::from(
                    args.next().ok_or("--baseline requires a path")?,
                ));
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

/// Parses `RULE:file:line` (the file part may itself contain no `:` on
/// unix paths, so split at the first and last colon).
fn parse_explain(spec: &str) -> Result<(String, String, usize), String> {
    let (rule, rest) = spec
        .split_once(':')
        .ok_or("--explain expects RULE:file:line")?;
    let (file, line) = rest
        .rsplit_once(':')
        .ok_or("--explain expects RULE:file:line")?;
    let line: usize = line
        .parse()
        .map_err(|_| format!("bad line number `{line}` in --explain"))?;
    if rule.is_empty() || file.is_empty() {
        return Err("--explain expects RULE:file:line".to_string());
    }
    Ok((rule.to_string(), file.to_string(), line))
}

/// Walks up from the current directory to the first `Cargo.toml`
/// declaring `[workspace]`.
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.exists() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn compact(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}
