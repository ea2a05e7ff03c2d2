//! Workspace walking: find the `.rs` files to lint, classify crate
//! roots, run [`crate::rules::check_file`] over each, and check the
//! READMEs' test citations against the integration and unit tests found.

use crate::cited::{check_citations, module_stem, test_fns, test_stem};
use crate::rules::{check_file, Finding};
use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};

/// One diagnostic, anchored to a workspace-relative path.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Path relative to the linted root, `/`-separated.
    pub file: String,
    /// 1-based source line (0 for file-level I/O errors).
    pub line: u32,
    /// Stable rule id.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Directories never descended into. `fixtures` keeps the linter's own
/// deliberately-violating test corpus out of a clean workspace run.
const SKIP_DIRS: [&str; 4] = ["target", ".git", "fixtures", "node_modules"];

/// Recursively collects `.rs` files under `root`, sorted for stable
/// output.
pub fn collect_rs_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if !SKIP_DIRS.contains(&name.as_ref()) {
                    stack.push(path);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

/// Whether `rel` names a crate root (`src/lib.rs`, `src/main.rs`,
/// `src/bin/*.rs`) of a package — i.e. the `src`'s parent holds a
/// `Cargo.toml` under `root`.
fn is_crate_root(root: &Path, rel: &str) -> bool {
    let parts: Vec<&str> = rel.split('/').collect();
    let src_at = match parts.as_slice() {
        [.., "src", "lib.rs"] | [.., "src", "main.rs"] => parts.len() - 2,
        [.., "src", "bin", _] => parts.len() - 3,
        _ => return false,
    };
    let crate_dir = parts[..src_at].join("/");
    root.join(crate_dir).join("Cargo.toml").is_file()
}

/// Lints every `.rs` file under `root`, then the READMEs' test citations;
/// diagnostics come back sorted by path and line. Files that cannot be
/// read are reported as diagnostics rather than skipped silently.
pub fn lint_root(root: &Path) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut tests: HashMap<String, HashSet<String>> = HashMap::new();
    let mut units: HashMap<String, HashSet<String>> = HashMap::new();
    for path in collect_rs_files(root) {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let src = match fs::read_to_string(&path) {
            Ok(src) => src,
            Err(e) => {
                out.push(Diagnostic {
                    file: rel,
                    line: 0,
                    rule: "io",
                    message: format!("unreadable: {e}"),
                });
                continue;
            }
        };
        let found = match (test_stem(&rel), module_stem(&rel)) {
            (Some(stem), _) => Some((&mut tests, stem)),
            (None, Some(module)) => Some((&mut units, module)),
            (None, None) => None,
        };
        if let Some((map, stem)) = found {
            map.entry(stem.to_string())
                .or_default()
                .extend(test_fns(&src));
        }
        let crate_root = is_crate_root(root, &rel);
        for Finding {
            line,
            rule,
            message,
        } in check_file(&rel, &src, crate_root)
        {
            out.push(Diagnostic {
                file: rel.clone(),
                line,
                rule,
                message,
            });
        }
    }
    out.extend(check_citations(root, &tests, &units));
    out.sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));
    out
}
