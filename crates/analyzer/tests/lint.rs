//! End-to-end linter tests: the fixture mini-workspace must trip every
//! rule at the expected `file:line`, and the real workspace must be
//! clean (this is the same walk the CI `prcc-lint` gate runs).

use prcc_analyzer::{lint_root, Diagnostic};
use std::path::{Path, PathBuf};

fn fixtures_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn hits<'d>(diags: &'d [Diagnostic], rule: &str) -> Vec<(&'d str, u32)> {
    diags
        .iter()
        .filter(|d| d.rule == rule)
        .map(|d| (d.file.as_str(), d.line))
        .collect()
}

#[test]
fn fixtures_trip_every_rule_at_the_expected_lines() {
    let diags = lint_root(&fixtures_root());

    assert_eq!(
        hits(&diags, "forbid-unsafe"),
        [("crates/service/src/lib.rs", 1)],
        "compat/mio/src/lib.rs declares unsafe confinement and is exempt"
    );
    assert_eq!(hits(&diags, "std-lock"), [("crates/service/src/lib.rs", 4)]);
    assert_eq!(
        hits(&diags, "unwrap"),
        [("crates/service/src/lib.rs", 11)],
        "the annotated unwrap and the cfg(test) unwrap must not fire"
    );
    assert_eq!(
        hits(&diags, "hot-path-alloc"),
        [
            ("crates/service/src/hot.rs", 6),
            ("crates/service/src/hot.rs", 7),
            ("crates/service/src/hot.rs", 8),
            ("crates/service/src/hot.rs", 9),
        ],
        "four allocating constructs inside the fence; with_capacity, the \
         allow(alloc) line and unfenced code stay silent"
    );
    assert_eq!(
        hits(&diags, "wal-discard"),
        [
            ("crates/service/src/waluser.rs", 7),
            ("crates/service/src/waluser.rs", 11),
            ("crates/service/src/waluser.rs", 15),
        ],
        "underscore binding, .ok() and bare statement; ? and tail \
         position stay silent"
    );
    assert_eq!(
        hits(&diags, "reactor-blocking"),
        [
            ("crates/service/src/driver.rs", 6),
            ("crates/service/src/driver.rs", 7),
            ("crates/service/src/driver.rs", 8),
        ],
        "spawn, a blocking read and recv_timeout inside the fence; the \
         allow(reactor) line and unfenced code stay silent"
    );
    assert_eq!(
        hits(&diags, "cited-test"),
        [("README.md", 6), ("README.md", 9)],
        "the renamed tests' citations, integration and unit; the resolving \
         ones, a path naming no test file and a fenced block stay silent"
    );
    assert_eq!(
        hits(&diags, "directive"),
        [],
        "all fixture directives are well-formed"
    );
}

#[test]
fn fixture_diagnostics_carry_file_line_and_messages() {
    let diags = lint_root(&fixtures_root());
    assert!(!diags.is_empty());
    for d in &diags {
        let rendered = d.to_string();
        assert!(
            rendered.starts_with(&format!("{}:{}: [{}] ", d.file, d.line, d.rule)),
            "diagnostic format drifted: {rendered}"
        );
        assert!(!d.message.is_empty());
    }
}

#[test]
fn the_workspace_itself_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let diags = lint_root(&root);
    assert!(
        diags.is_empty(),
        "workspace lint violations:\n{}",
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
