//! The checked-in baseline (`lint-baseline.toml`) and its ratchet.
//!
//! The baseline records *exactly* how much grandfathered debt exists,
//! and only PANIC001 carries any: a budget per crate, and per file for
//! files carved out of their crate's pool. Every other rule fails on
//! its first finding. `--check` enforces an exact match in both
//! directions — more findings than budgeted fails (new debt), and
//! fewer findings than budgeted also fails with the number to write
//! (the ratchet: once debt is paid down, the baseline must shrink to
//! match and can never grow back).
//!
//! The file is parsed with a deliberately tiny TOML-subset reader
//! (sections, `"key" = integer`, comments) so the lint gate stays
//! dependency-free.

use std::collections::BTreeMap;

/// Parsed baseline. Missing entries mean a budget of zero.
#[derive(Debug, Default, Clone)]
pub struct Baseline {
    /// `[panic-budget]`: crate name → allowed PANIC001 sites in
    /// non-test library code.
    pub panic_budget: BTreeMap<String, usize>,
    /// `[panic-budget-files]`: workspace-relative file path → allowed
    /// PANIC001 sites in that file. A listed file is carved out of its
    /// crate's pool and judged on its own budget — `= 0` pins a file
    /// that must stay panic-free even while its crate still carries
    /// debt.
    pub panic_budget_files: BTreeMap<String, usize>,
}

/// Parses the TOML subset used by `lint-baseline.toml`.
pub fn parse(text: &str) -> Result<Baseline, String> {
    let mut baseline = Baseline::default();
    let mut section = String::new();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = match raw.split_once('#') {
            // A `#` inside a quoted key is part of the key, not a
            // comment; keys here never contain `#`, so plain split is
            // safe for this subset.
            Some((before, _)) if !before.contains('"') || before.matches('"').count() % 2 == 0 => {
                before.trim()
            }
            _ => raw.trim(),
        };
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            section = name.trim().to_string();
            if !matches!(section.as_str(), "panic-budget" | "panic-budget-files") {
                return Err(format!("line {lineno}: unknown section [{section}]"));
            }
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!("line {lineno}: expected `key = value`"));
        };
        let key = key.trim().trim_matches('"').to_string();
        let value: usize = value
            .trim()
            .parse()
            .map_err(|_| format!("line {lineno}: value must be a non-negative integer"))?;
        match section.as_str() {
            "panic-budget" => {
                baseline.panic_budget.insert(key, value);
            }
            "panic-budget-files" => {
                baseline.panic_budget_files.insert(key, value);
            }
            _ => return Err(format!("line {lineno}: entry outside a section")),
        }
    }
    Ok(baseline)
}

/// Rewrites baseline text against the actual counts from an analysis
/// (`--prune-baseline`): entries whose debt is fully paid are dropped,
/// entries above the remaining debt are lowered, and comments, blank
/// lines, and section order are preserved. `[panic-budget-files]`
/// entries are never dropped — they shrink to the actual count, so a
/// paid-off carve-out becomes a permanent `= 0` pin instead of quietly
/// rejoining its crate's pool.
pub fn prune(text: &str, analysis: &crate::Analysis) -> String {
    let mut out = String::new();
    let mut section = String::new();
    for raw in text.lines() {
        // Split a trailing comment off, mirroring `parse`'s rule.
        let (body, comment) = match raw.split_once('#') {
            Some((before, after))
                if !before.contains('"') || before.matches('"').count() % 2 == 0 =>
            {
                (before, Some(after))
            }
            _ => (raw, None),
        };
        let line = body.trim();
        if line.is_empty() {
            out.push_str(raw);
            out.push('\n');
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            section = name.trim().to_string();
            out.push_str(raw);
            out.push('\n');
            continue;
        }
        let Some((key_part, value_part)) = line.split_once('=') else {
            out.push_str(raw);
            out.push('\n');
            continue;
        };
        let key = key_part.trim().trim_matches('"').to_string();
        let budget: usize = match value_part.trim().parse() {
            Ok(v) => v,
            Err(_) => {
                out.push_str(raw);
                out.push('\n');
                continue;
            }
        };
        let (actual, keep_at_zero) = match section.as_str() {
            "panic-budget" => (analysis.panic_actual.get(&key).copied().unwrap_or(0), false),
            "panic-budget-files" => (
                analysis.panic_file_actual.get(&key).copied().unwrap_or(0),
                true,
            ),
            _ => {
                out.push_str(raw);
                out.push('\n');
                continue;
            }
        };
        let new = budget.min(actual);
        if new == budget {
            out.push_str(raw);
            out.push('\n');
        } else if new > 0 || keep_at_zero {
            out.push_str(&format!("\"{key}\" = {new}"));
            if let Some(c) = comment {
                out.push_str("  #");
                out.push_str(c);
            }
            out.push('\n');
        }
        // else: debt fully paid — the entry is dropped.
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Analysis;

    #[test]
    fn parses_sections_comments_and_quoted_keys() {
        let text = "\
# tml-lint baseline
[panic-budget]
\"treadmill-stats\" = 12  # solver invariants
treadmill-core = 3

[panic-budget-files]
\"crates/inference/src/analytic.rs\" = 0  # pinned panic-free
";
        let b = parse(text).expect("parses");
        assert_eq!(b.panic_budget.get("treadmill-stats"), Some(&12));
        assert_eq!(b.panic_budget.get("treadmill-core"), Some(&3));
        assert_eq!(
            b.panic_budget_files.get("crates/inference/src/analytic.rs"),
            Some(&0)
        );
    }

    #[test]
    fn rejects_unknown_sections_and_bad_values() {
        assert!(parse("[mystery]\n").is_err());
        // Only PANIC001 has budgets.
        assert!(parse("[grandfathered]\n\"DET002:crates/x/src/y.rs\" = 1\n").is_err());
        assert!(parse("[panic-budget]\nx = -1\n").is_err());
        assert!(parse("[panic-budget]\nno-equals\n").is_err());
    }

    #[test]
    fn empty_file_is_empty_baseline() {
        let b = parse("").expect("empty ok");
        assert!(b.panic_budget.is_empty());
        assert!(b.panic_budget_files.is_empty());
    }

    #[test]
    fn prune_drops_lowers_and_pins() {
        let text = "\
# header comment stays
[panic-budget]
\"treadmill-stats\" = 4  # solver invariants
treadmill-core = 2

[panic-budget-files]
\"crates/inference/src/analytic.rs\" = 0
\"crates/core/src/sweep.rs\" = 3
";
        let mut analysis = Analysis::default();
        // stats paid one site down (4 → 3); core paid off entirely.
        analysis.panic_actual.insert("treadmill-stats".to_string(), 3);
        // the sweep carve-out is fully paid: it must pin at 0, not vanish.
        analysis
            .panic_file_actual
            .insert("crates/core/src/sweep.rs".to_string(), 0);

        let pruned = prune(text, &analysis);
        assert!(pruned.contains("# header comment stays"));
        assert!(pruned.contains("\"treadmill-stats\" = 3"), "{pruned}");
        assert!(pruned.contains("# solver invariants"), "comment preserved");
        assert!(!pruned.contains("treadmill-core"), "paid-off crate dropped");
        assert!(
            pruned.contains("\"crates/inference/src/analytic.rs\" = 0"),
            "existing pin untouched"
        );
        assert!(
            pruned.contains("\"crates/core/src/sweep.rs\" = 0"),
            "paid-off carve-out becomes a pin: {pruned}"
        );

        // The pruned text reparses, and pruning is idempotent.
        let b = parse(&pruned).expect("pruned baseline parses");
        assert_eq!(b.panic_budget.get("treadmill-stats"), Some(&3));
        assert_eq!(prune(&pruned, &analysis), pruned);
    }
}
