//! Rule 7, **cited-test**: a test the READMEs cite must exist.
//!
//! Docs name tests as proof of a claim — `chaos::composed_…`,
//! `conn::tests::a_lost_…` — and a renamed or deleted test leaves the
//! claim citing nothing. In the root `README.md` and in
//! `crates/*/README.md`, every backticked
//!
//! * `stem::name` whose `stem` names an integration-test file
//!   (`*/tests/<stem>.rs`) must name a `#[test] fn` in such a file;
//! * `module::tests::name` must name a `#[test] fn` in a unit-test module
//!   file, `crates/*/src/**/<module>.rs` or `…/<module>/mod.rs`.
//!
//! Citations of anything else (`slot::admit`, `std::sync`) are not test
//! citations and pass unchecked; fenced code blocks are skipped.

use crate::lexer::{lex, TokKind};
use crate::walk::Diagnostic;
use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::Path;

/// Rule 7: backticked test citations in the READMEs must resolve.
pub const RULE_CITED_TEST: &str = "cited-test";

/// The integration-test stem of a workspace-relative path
/// (`crates/service/tests/chaos.rs` → `chaos`), if it is one.
pub(crate) fn test_stem(rel: &str) -> Option<&str> {
    let (dir, file) = rel.rsplit_once('/')?;
    let in_tests = dir == "tests" || dir.ends_with("/tests");
    in_tests.then(|| file.strip_suffix(".rs")).flatten()
}

/// The module a workspace-relative source file declares, if it sits under
/// a crate's `src` (`crates/service/src/wire/mod.rs` → `wire`,
/// `crates/service/src/core/snapshot.rs` → `snapshot`). Crate roots name
/// no module.
pub(crate) fn module_stem(rel: &str) -> Option<&str> {
    let (dir, file) = rel.rsplit_once('/')?;
    if !rel.starts_with("crates/") || !(dir.ends_with("/src") || dir.contains("/src/")) {
        return None;
    }
    match file.strip_suffix(".rs")? {
        "mod" => dir.rsplit_once('/').map(|(_, module)| module),
        "lib" | "main" => None,
        module => Some(module),
    }
}

/// The names of the `#[test]` functions in `src`, attributes stacked
/// between the `#[test]` and the `fn` (`#[ignore]`, …) included, and
/// inside macro bodies such as `proptest!` too.
pub(crate) fn test_fns(src: &str) -> Vec<String> {
    let toks = lex(src).tokens;
    let text = |i: usize| toks.get(i).map_or("", |t| t.text.as_str());
    let mut names = Vec::new();
    for i in 0..toks.len() {
        if !(text(i) == "#" && text(i + 1) == "[" && text(i + 2) == "test" && text(i + 3) == "]") {
            continue;
        }
        let Some(at) = (i + 4..toks.len()).find(|&j| text(j) == "fn") else {
            continue;
        };
        if toks.get(at + 1).is_some_and(|t| t.kind == TokKind::Ident) {
            names.push(text(at + 1).to_string());
        }
    }
    names
}

fn ident(s: &str) -> bool {
    s.chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Whether `span` is a bare `stem::name` path of two identifiers.
fn citation(span: &str) -> Option<(&str, &str)> {
    let (stem, name) = span.split_once("::")?;
    (ident(stem) && ident(name)).then_some((stem, name))
}

/// Whether `span` is a bare `module::tests::name` path: a unit test's.
fn unit_citation(span: &str) -> Option<(&str, &str)> {
    let (module, name) = span.split_once("::tests::")?;
    (ident(module) && ident(name)).then_some((module, name))
}

/// The READMEs under `root` whose citations are checked: the root one and
/// one per crate, workspace-relative.
fn readmes(root: &Path) -> Vec<String> {
    let mut found = vec!["README.md".to_string()];
    if let Ok(crates) = fs::read_dir(root.join("crates")) {
        for entry in crates.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            found.push(format!("crates/{name}/README.md"));
        }
    }
    found.sort();
    found.retain(|rel| root.join(rel).is_file());
    found
}

/// Checks every README citation under `root` against `tests` and `units`:
/// per integration-test stem and per module, the `#[test]` functions of
/// the files carrying it.
pub(crate) fn check_citations(
    root: &Path,
    tests: &HashMap<String, HashSet<String>>,
    units: &HashMap<String, HashSet<String>>,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for rel in readmes(root) {
        let Ok(text) = fs::read_to_string(root.join(&rel)) else {
            continue;
        };
        let mut fenced = false;
        for (index, line) in text.lines().enumerate() {
            if line.trim_start().starts_with("```") {
                fenced = !fenced;
                continue;
            }
            if fenced {
                continue;
            }
            // Odd pieces of a backtick split are the code spans.
            for span in line.split('`').skip(1).step_by(2) {
                let message = if let Some((module, name)) = unit_citation(span) {
                    let found = units.get(module).is_some_and(|fns| fns.contains(name));
                    (!found).then(|| {
                        format!("`{span}` cites no #[test] fn in a {module}.rs or {module}/mod.rs")
                    })
                } else if let Some((stem, name)) = citation(span) {
                    let fns = tests.get(stem).filter(|fns| !fns.contains(name));
                    fns.map(|_| format!("`{span}` cites no #[test] fn in tests/{stem}.rs"))
                } else {
                    None
                };
                if let Some(message) = message {
                    out.push(Diagnostic {
                        file: rel.clone(),
                        line: index as u32 + 1,
                        rule: RULE_CITED_TEST,
                        message,
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_files_directly_under_a_tests_dir_are_test_stems() {
        assert_eq!(test_stem("crates/service/tests/chaos.rs"), Some("chaos"));
        assert_eq!(test_stem("tests/paper_claims.rs"), Some("paper_claims"));
        assert_eq!(test_stem("crates/service/tests/common/mod.rs"), None);
        assert_eq!(test_stem("crates/service/src/tests.rs"), None);
    }

    #[test]
    fn test_fns_reads_past_stacked_attributes_and_into_macros() {
        let src = "#[test]\n#[ignore]\nfn slow() {}\nfn helper() {}\n\
                   proptest! { #[test] fn prop(x in 0..3) {} }\n\
                   // #[test] fn commented() {}\n";
        assert_eq!(test_fns(src), ["slow", "prop"]);
    }

    #[test]
    fn a_citation_is_two_bare_identifiers() {
        assert_eq!(citation("chaos::heal_works"), Some(("chaos", "heal_works")));
        assert_eq!(citation("core::tests::x"), None);
        assert_eq!(citation("Foo::new()"), None);
        assert_eq!(citation("a :: b"), None);
    }

    #[test]
    fn a_unit_citation_is_a_module_tests_and_a_name() {
        assert_eq!(unit_citation("core::tests::x"), Some(("core", "x")));
        assert_eq!(unit_citation("core::other::x"), None);
        assert_eq!(unit_citation("chaos::heal_works"), None);
        assert_eq!(unit_citation("a::tests::b::c"), None);
    }
}
