//! Deterministic workspace file discovery.
//!
//! The linter must itself be deterministic: directory entries are
//! sorted by name at every level so findings always appear in the same
//! order regardless of filesystem enumeration order.

use std::io;
use std::path::{Path, PathBuf};

/// Directories never descended into: build output, vendored shims,
/// VCS metadata, generated results, and the linter's own deliberately
/// violating rule fixtures.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", ".github", "results", "fixtures"];

/// Returns every `.rs` file under `root` (workspace-relative paths,
/// unix separators, sorted), skipping [`SKIP_DIRS`] and any nested
/// directory whose `Cargo.toml` declares a `[workspace]` of its own:
/// that is a separate workspace, outside this one's package graph.
pub fn rust_files(root: &Path) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    walk(root, root, &mut out)?;
    out.sort();
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if path.is_dir() {
            if SKIP_DIRS.contains(&name) || name.starts_with('.') || is_own_workspace(&path) {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    Ok(())
}

/// True if `dir/Cargo.toml` has a `[workspace]` table.
fn is_own_workspace(dir: &Path) -> bool {
    std::fs::read_to_string(dir.join("Cargo.toml")).is_ok_and(|text| {
        text.lines()
            .any(|line| line.split('#').next().unwrap_or("").trim() == "[workspace]")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_workspaces_are_not_walked() {
        let root = std::env::temp_dir().join(format!("tml-walk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let write = |rel: &str, text: &str| {
            let path = root.join(rel);
            std::fs::create_dir_all(path.parent().expect("has a parent")).expect("mkdir");
            std::fs::write(path, text).expect("write");
        };
        write("Cargo.toml", "[workspace]\nmembers = [\"crates/*\"]\n");
        write("src/lib.rs", "");
        write(
            "crates/a/Cargo.toml",
            "[package]\n[lints]\nworkspace = true\n",
        );
        write("crates/a/src/lib.rs", "");
        write("bench/Cargo.toml", "[package]\n\n[workspace]\n");
        write("bench/src/main.rs", "");

        let files = rust_files(&root).expect("walk");
        let _ = std::fs::remove_dir_all(&root);
        assert_eq!(files, vec!["crates/a/src/lib.rs", "src/lib.rs"]);
    }
}
