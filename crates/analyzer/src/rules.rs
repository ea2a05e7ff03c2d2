//! The six workspace invariants, checked over one file's token stream.
//!
//! Each rule guards a property the test suite can't see directly:
//!
//! 1. **wal-discard** — a `Wal::append` / `append_batch` result must
//!    reach a fail-stop decision; discarding it (`let _ =`, `.ok()`, a
//!    bare statement) silently breaks append-before-apply.
//! 2. **hot-path-alloc** — regions fenced by `// lint: hot-path` /
//!    `// lint: end-hot-path` must not allocate: no `Vec::new`/`vec!`/
//!    `format!`/`.clone()`/`.to_vec()`. `Vec::with_capacity` is allowed
//!    (bounded, up-front).
//! 3. **unwrap** — non-test service/storage code must not `unwrap()` or
//!    `expect()` without a `// lint: allow(unwrap) <reason>` annotation:
//!    replica nodes fail stop on *checked* invariants, not on accidents.
//! 4. **std-lock** — `std::sync::Mutex`/`RwLock` are forbidden outside
//!    `compat/`: the `parking_lot` shim adds lock-order detection, and a
//!    raw std lock would dodge it.
//! 5. **forbid-unsafe** — every crate root carries
//!    `#![forbid(unsafe_code)]`. The single sanctioned escape: a
//!    `compat/` shim confining a raw capability (the `compat/mio` epoll
//!    FFI) may instead carry `#![deny(unsafe_op_in_unsafe_fn)]`.
//! 6. **reactor-blocking** — regions fenced by `// lint: reactor` /
//!    `// lint: end-reactor` run on the event-loop workers: no
//!    `thread::spawn`, no blocking socket reads (`read_exact`,
//!    `read_frame`, …), no `recv`/`sleep`. A driver that blocks stalls
//!    every connection sharing its worker; use timers and commands.
//!
//! Rules 1–4 and 6 accept per-line `// lint: allow(<rule>) <reason>`
//! escapes (the annotation covers its own line and the next; rule 6's
//! allow name is `reactor`).

use crate::lexer::{lex, Directive, TokKind, Token};
use std::collections::{HashMap, HashSet};

/// One finding: `file` is filled in by the walker, not here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// 1-based source line.
    pub line: u32,
    /// Stable rule id (`wal-discard`, `unwrap`, …).
    pub rule: &'static str,
    /// Human-readable explanation with the fix direction.
    pub message: String,
}

/// Rule 1: WAL append results must reach a fail-stop decision.
pub const RULE_WAL_DISCARD: &str = "wal-discard";
/// Rule 2: no allocation inside `// lint: hot-path` fences.
pub const RULE_HOT_PATH: &str = "hot-path-alloc";
/// Rule 3: no unannotated `unwrap`/`expect` in service/storage.
pub const RULE_UNWRAP: &str = "unwrap";
/// Rule 4: no `std::sync` locks outside `compat/`.
pub const RULE_STD_LOCK: &str = "std-lock";
/// Rule 5: crate roots must carry `#![forbid(unsafe_code)]`.
pub const RULE_FORBID_UNSAFE: &str = "forbid-unsafe";
/// Rule 6: no thread spawns or blocking calls in `// lint: reactor` fences.
pub const RULE_REACTOR: &str = "reactor-blocking";
/// Meta rule: malformed or unbalanced `// lint:` directives.
pub const RULE_DIRECTIVE: &str = "directive";

/// The allow-annotation rule names users may write.
const ALLOWED_RULES: [&str; 5] = ["unwrap", "alloc", "std-lock", "wal-discard", "reactor"];

/// WAL mutation methods whose results must not be discarded.
const WAL_METHODS: [&str; 2] = ["append", "append_batch"];

/// Calls that park or monopolize the calling thread; inside a
/// `// lint: reactor` fence any of these stalls every connection
/// multiplexed onto the same event-loop worker.
const REACTOR_BLOCKING: [&str; 9] = [
    "spawn",
    "sleep",
    "recv",
    "recv_timeout",
    "read_exact",
    "read_to_end",
    "read_frame",
    "accept",
    "join",
];

/// Checks one file. `rel` is the workspace-relative path with `/`
/// separators (it drives rule scoping); `is_crate_root` enables rule 5.
pub fn check_file(rel: &str, src: &str, is_crate_root: bool) -> Vec<Finding> {
    let lexed = lex(src);
    let mut findings = Vec::new();

    for (line, why) in &lexed.bad_directives {
        findings.push(Finding {
            line: *line,
            rule: RULE_DIRECTIVE,
            message: why.clone(),
        });
    }

    let allows = allow_map(&lexed.directives, &mut findings);
    let fences = fence_spans(
        &lexed.directives,
        &mut findings,
        Directive::HotPathStart,
        Directive::HotPathEnd,
        "hot-path",
    );
    let reactor_fences = fence_spans(
        &lexed.directives,
        &mut findings,
        Directive::ReactorStart,
        Directive::ReactorEnd,
        "reactor",
    );
    let toks = &lexed.tokens;
    let test_skip = test_spans(toks);
    let in_tests = |i: usize| test_skip.iter().any(|&(a, b)| i >= a && i < b);
    let allowed = |line: u32, rule: &str| allows.get(&line).is_some_and(|set| set.contains(rule));
    let in_fence = |line: u32| fences.iter().any(|&(a, b)| line >= a && line <= b);
    let in_reactor = |line: u32| reactor_fences.iter().any(|&(a, b)| line >= a && line <= b);

    let compat = rel.starts_with("compat/");
    let test_dir = rel
        .split('/')
        .any(|c| c == "tests" || c == "benches" || c == "examples");
    let service_storage = rel.contains("crates/service/src") || rel.contains("crates/storage/src");

    // A `compat/` shim may confine a raw capability behind explicit
    // unsafe blocks instead of forbidding them outright — but only by
    // declaring so with `#![deny(unsafe_op_in_unsafe_fn)]` at the root.
    let unsafe_confinement = compat && has_deny_unsafe_op(toks);
    if is_crate_root && !has_forbid_unsafe(toks) && !unsafe_confinement {
        findings.push(Finding {
            line: 1,
            rule: RULE_FORBID_UNSAFE,
            message: "crate root is missing #![forbid(unsafe_code)]".into(),
        });
    }

    for i in 0..toks.len() {
        if in_tests(i) || test_dir {
            continue;
        }
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let prev_dot = i > 0 && toks[i - 1].text == ".";
        let next_paren = toks.get(i + 1).is_some_and(|t| t.text == "(");
        let next_bang = toks.get(i + 1).is_some_and(|t| t.text == "!");

        // Rule 3: panic hygiene in service/storage.
        if service_storage
            && prev_dot
            && next_paren
            && matches!(t.text.as_str(), "unwrap" | "expect")
            && !allowed(t.line, "unwrap")
        {
            findings.push(Finding {
                line: t.line,
                rule: RULE_UNWRAP,
                message: format!(
                    ".{}() in service/storage code: return the error (fail stop) \
                     or annotate `// lint: allow(unwrap) <why it cannot fire>`",
                    t.text
                ),
            });
        }

        // Rule 1: WAL results must reach a fail-stop decision.
        if service_storage
            && prev_dot
            && next_paren
            && WAL_METHODS.contains(&t.text.as_str())
            && !allowed(t.line, "wal-discard")
        {
            if let Some(message) = wal_discard(toks, i) {
                findings.push(Finding {
                    line: t.line,
                    rule: RULE_WAL_DISCARD,
                    message,
                });
            }
        }

        // Rule 4: std locks outside compat/.
        if !compat && t.text == "std" && path_is(toks, i + 1, &[":", ":", "sync"]) {
            for hit in std_lock_idents(toks, i) {
                if !allowed(toks[hit].line, "std-lock") {
                    findings.push(Finding {
                        line: toks[hit].line,
                        rule: RULE_STD_LOCK,
                        message: format!(
                            "std::sync::{} bypasses the compat/parking_lot shim \
                             (and its lock-order detector)",
                            toks[hit].text
                        ),
                    });
                }
            }
        }

        // Rule 2: allocations inside hot-path fences.
        if in_fence(t.line) && !allowed(t.line, "alloc") {
            let offense = if matches!(t.text.as_str(), "vec" | "format") && next_bang {
                Some(format!("{}! allocates", t.text))
            } else if matches!(t.text.as_str(), "Vec" | "String" | "Box")
                && path_is(toks, i + 1, &[":", ":", "new"])
            {
                Some(format!("{}::new() allocates per call", t.text))
            } else if prev_dot
                && next_paren
                && matches!(
                    t.text.as_str(),
                    "clone" | "to_vec" | "to_string" | "to_owned"
                )
            {
                Some(format!(".{}() copies into a fresh allocation", t.text))
            } else {
                None
            };
            if let Some(what) = offense {
                findings.push(Finding {
                    line: t.line,
                    rule: RULE_HOT_PATH,
                    message: format!(
                        "{what} inside a `// lint: hot-path` fence \
                         (annotate `// lint: allow(alloc) <reason>` if deliberate)"
                    ),
                });
            }
        }

        // Rule 6: blocking calls inside reactor fences.
        if in_reactor(t.line)
            && !allowed(t.line, "reactor")
            && next_paren
            && REACTOR_BLOCKING.contains(&t.text.as_str())
            && !prev_is(toks, i, "fn")
        {
            findings.push(Finding {
                line: t.line,
                rule: RULE_REACTOR,
                message: format!(
                    "{}() blocks the event-loop worker inside a `// lint: reactor` \
                     fence; use ctx timers/commands, or annotate \
                     `// lint: allow(reactor) <reason>` if it cannot block",
                    t.text
                ),
            });
        }
    }

    findings.sort_by_key(|f| f.line);
    findings
}

/// Builds line → allowed-rule-set from `allow` directives; an annotation
/// covers its own line (trailing comment) and the next (its own line).
fn allow_map(
    directives: &[(u32, Directive)],
    findings: &mut Vec<Finding>,
) -> HashMap<u32, HashSet<String>> {
    let mut map: HashMap<u32, HashSet<String>> = HashMap::new();
    for (line, d) in directives {
        if let Directive::Allow { rule, .. } = d {
            if !ALLOWED_RULES.contains(&rule.as_str()) {
                findings.push(Finding {
                    line: *line,
                    rule: RULE_DIRECTIVE,
                    message: format!(
                        "unknown rule in allow({rule}); known: {}",
                        ALLOWED_RULES.join(", ")
                    ),
                });
                continue;
            }
            map.entry(*line).or_default().insert(rule.clone());
            map.entry(*line + 1).or_default().insert(rule.clone());
        }
    }
    map
}

/// Pairs one kind of fence marker (`start`/`end`) into inclusive line
/// spans; unbalanced markers are findings (a fence that never closes
/// would silently fence the rest of the file — or nothing). The two
/// fence kinds pair independently, so a hot-path fence may sit inside a
/// reactor fence.
fn fence_spans(
    directives: &[(u32, Directive)],
    findings: &mut Vec<Finding>,
    start: Directive,
    end: Directive,
    what: &str,
) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    let mut open: Option<u32> = None;
    for (line, d) in directives {
        if *d == start {
            if let Some(at) = open {
                findings.push(Finding {
                    line: *line,
                    rule: RULE_DIRECTIVE,
                    message: format!("{what} fence opened again (previous open at line {at})"),
                });
            } else {
                open = Some(*line);
            }
        } else if *d == end {
            match open.take() {
                Some(at) => spans.push((at, *line)),
                None => findings.push(Finding {
                    line: *line,
                    rule: RULE_DIRECTIVE,
                    message: format!("end-{what} without an open fence"),
                }),
            }
        }
    }
    if let Some(at) = open {
        findings.push(Finding {
            line: at,
            rule: RULE_DIRECTIVE,
            message: format!("{what} fence never closed"),
        });
    }
    spans
}

/// True when `tokens[at..]` spell exactly `expected` (text match).
fn path_is(tokens: &[Token], at: usize, expected: &[&str]) -> bool {
    expected
        .iter()
        .enumerate()
        .all(|(k, want)| tokens.get(at + k).is_some_and(|t| t.text == *want))
}

fn prev_is(tokens: &[Token], at: usize, want: &str) -> bool {
    at > 0 && tokens[at - 1].text == want
}

/// Finds `#![forbid(unsafe_code)]` anywhere in the token stream.
fn has_forbid_unsafe(tokens: &[Token]) -> bool {
    (0..tokens.len()).any(|i| {
        path_is(
            tokens,
            i,
            &["#", "!", "[", "forbid", "(", "unsafe_code", ")", "]"],
        )
    })
}

/// Finds `#![deny(unsafe_op_in_unsafe_fn)]` — the marker a `compat/`
/// unsafe-confinement crate carries instead of the forbid.
fn has_deny_unsafe_op(tokens: &[Token]) -> bool {
    (0..tokens.len()).any(|i| {
        path_is(
            tokens,
            i,
            &[
                "#",
                "!",
                "[",
                "deny",
                "(",
                "unsafe_op_in_unsafe_fn",
                ")",
                "]",
            ],
        )
    })
}

/// Token-index spans `[start, end)` of `#[cfg(test)] mod … { … }` blocks.
fn test_spans(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if path_is(tokens, i, &["#", "[", "cfg", "(", "test", ")", "]"]) {
            let start = i;
            let mut j = i + 7;
            // Skip further attributes, visibility and the mod header up to
            // the opening brace, then swallow the balanced block.
            while j < tokens.len() && tokens[j].text != "{" && tokens[j].text != ";" {
                j += 1;
            }
            if j < tokens.len() && tokens[j].text == "{" {
                let mut depth = 0i32;
                while j < tokens.len() {
                    match tokens[j].text.as_str() {
                        "{" => depth += 1,
                        "}" => {
                            depth -= 1;
                            if depth == 0 {
                                j += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
            }
            spans.push((start, j));
            i = j;
        } else {
            i += 1;
        }
    }
    spans
}

/// Decides whether the WAL call whose method name sits at token `at` has
/// its result discarded. Returns the violation message, or `None` when
/// the result is bound, propagated or consumed.
fn wal_discard(tokens: &[Token], at: usize) -> Option<String> {
    // Walk over the balanced argument list.
    let mut j = at + 1; // the `(`
    let mut depth = 0i32;
    while j < tokens.len() {
        match tokens[j].text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            }
            _ => {}
        }
        j += 1;
    }
    let method = &tokens[at].text;
    // `.ok()` directly on the call swallows the error.
    if path_is(tokens, j, &[".", "ok", "(", ")"]) {
        return Some(format!(
            ".{method}(…).ok() swallows a WAL failure the node must fail stop on"
        ));
    }
    // Anything other than a bare `;` consumes or propagates the value
    // (`?`, a chained `.expect`, `}` tail position, `,` argument, …).
    if tokens.get(j).is_none_or(|t| t.text != ";") {
        return None;
    }
    // Statement ends right after the call: find how it began.
    let mut s = at;
    while s > 0 && !matches!(tokens[s - 1].text.as_str(), ";" | "{" | "}") {
        s -= 1;
    }
    let mut first = &tokens[s].text;
    if first == "let" && tokens.get(s + 1).is_some_and(|t| t.text == "mut") {
        first = &tokens[s + 1].text; // fall through to the binding name
    }
    if first == "let" {
        let bind = &tokens[s + 1].text;
        if bind.starts_with('_') {
            return Some(format!(
                "let {bind} = …{method}(…) discards the WAL result; \
                 handle the error (fail stop) or propagate it"
            ));
        }
        return None; // a real binding: the caller is handling it
    }
    if matches!(
        first.as_str(),
        "return" | "if" | "while" | "match" | "=" | "=>"
    ) {
        return None;
    }
    Some(format!(
        "bare `….{method}(…);` statement ignores the WAL result; \
         handle the error (fail stop) or propagate it"
    ))
}

/// Identifier token indices of `Mutex`/`RwLock` reachable from the
/// `std :: sync` path starting at `at`, within the same statement.
fn std_lock_idents(tokens: &[Token], at: usize) -> Vec<usize> {
    let mut hits = Vec::new();
    let mut j = at;
    while j < tokens.len() && tokens[j].text != ";" {
        if tokens[j].kind == TokKind::Ident && matches!(tokens[j].text.as_str(), "Mutex" | "RwLock")
        {
            hits.push(j);
        }
        j += 1;
    }
    hits
}

#[cfg(test)]
mod tests {
    use super::*;

    const SVC: &str = "crates/service/src/x.rs";

    fn rules_hit(rel: &str, src: &str) -> Vec<&'static str> {
        check_file(rel, src, false)
            .into_iter()
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn wal_discard_patterns() {
        assert_eq!(
            rules_hit(SVC, "fn f() { let _ = wal.append(p); }"),
            [RULE_WAL_DISCARD]
        );
        assert_eq!(
            rules_hit(SVC, "fn f() { wal.append_batch(&refs).ok(); }"),
            [RULE_WAL_DISCARD]
        );
        assert_eq!(
            rules_hit(SVC, "fn f() { wal.append(p); }"),
            [RULE_WAL_DISCARD]
        );
        assert!(rules_hit(
            SVC,
            "fn f() -> io::Result<()> { let n = wal.append(p)?; use_it(n); Ok(()) }"
        )
        .is_empty());
        assert!(rules_hit(
            SVC,
            "fn f() -> io::Result<usize> { self.append_batch(&[payload]) }"
        )
        .is_empty());
        assert!(rules_hit(
            SVC,
            "fn f() { let result = self.wal.append_batch(&payloads); result.expect(\"x\"); }"
        )
        .iter()
        .all(|r| *r == RULE_UNWRAP));
    }

    #[test]
    fn unwrap_needs_annotation_in_service_code() {
        assert_eq!(rules_hit(SVC, "fn f() { x.unwrap(); }"), [RULE_UNWRAP]);
        assert_eq!(rules_hit(SVC, "fn f() { x.expect(\"y\"); }"), [RULE_UNWRAP]);
        assert!(rules_hit(
            SVC,
            "fn f() {\n // lint: allow(unwrap) checked above\n x.unwrap();\n}"
        )
        .is_empty());
        assert!(rules_hit(SVC, "fn f() { x.unwrap_or(0); }").is_empty());
        assert!(
            rules_hit("crates/core/src/x.rs", "fn f() { x.unwrap(); }").is_empty(),
            "rule scoped to service/storage"
        );
        assert!(rules_hit(SVC, "#[cfg(test)]\nmod tests {\n fn f() { x.unwrap(); }\n}").is_empty());
    }

    #[test]
    fn std_locks_flagged_outside_compat() {
        assert_eq!(
            rules_hit("crates/net/src/x.rs", "use std::sync::{Arc, Mutex};"),
            [RULE_STD_LOCK]
        );
        assert_eq!(
            rules_hit(
                "crates/net/src/x.rs",
                "fn f() { let l = std::sync::RwLock::new(0); }"
            ),
            [RULE_STD_LOCK]
        );
        assert!(rules_hit("compat/parking_lot/src/lib.rs", "use std::sync::Mutex;").is_empty());
        assert!(rules_hit("crates/net/src/x.rs", "use std::sync::{Arc, mpsc};").is_empty());
    }

    #[test]
    fn hot_path_fences_forbid_allocation() {
        let src = "// lint: hot-path\nfn f() { let v = Vec::new(); }\n// lint: end-hot-path\n";
        assert_eq!(rules_hit(SVC, src), [RULE_HOT_PATH]);
        let ok = "// lint: hot-path\nfn f() { let v: Vec<u8> = Vec::with_capacity(8); }\n// lint: end-hot-path\n";
        assert!(rules_hit(SVC, ok).is_empty());
        let outside =
            "fn g() { let v = vec![1]; }\n// lint: hot-path\nfn f() {}\n// lint: end-hot-path\n";
        assert!(rules_hit(SVC, outside).is_empty());
    }

    #[test]
    fn crate_root_needs_forbid_unsafe() {
        assert_eq!(
            check_file("crates/x/src/lib.rs", "pub fn f() {}", true)[0].rule,
            RULE_FORBID_UNSAFE
        );
        assert!(check_file(
            "crates/x/src/lib.rs",
            "//! docs\n\n#![forbid(unsafe_code)]\npub fn f() {}",
            true
        )
        .is_empty());
    }

    #[test]
    fn compat_shims_may_confine_unsafe_instead() {
        let confined = "#![deny(unsafe_op_in_unsafe_fn)]\npub fn f() {}";
        assert!(
            check_file("compat/mio/src/lib.rs", confined, true).is_empty(),
            "a compat crate declaring unsafe confinement is exempt"
        );
        assert_eq!(
            check_file("crates/x/src/lib.rs", confined, true)[0].rule,
            RULE_FORBID_UNSAFE,
            "the confinement escape is compat/-only"
        );
        assert_eq!(
            check_file("compat/mio/src/lib.rs", "pub fn f() {}", true)[0].rule,
            RULE_FORBID_UNSAFE,
            "a compat crate without the deny marker still needs the forbid"
        );
    }

    #[test]
    fn reactor_fences_forbid_blocking_calls() {
        let src = "// lint: reactor\nfn f() { thread::spawn(g); }\n// lint: end-reactor\n";
        assert_eq!(rules_hit(SVC, src), [RULE_REACTOR]);
        let read =
            "// lint: reactor\nfn f(s: &mut S) { s.read_exact(&mut b)?; }\n// lint: end-reactor\n";
        assert_eq!(rules_hit(SVC, read), [RULE_REACTOR]);
        let recv = "// lint: reactor\nfn f(rx: &R) { let m = rx.recv_timeout(d); }\n// lint: end-reactor\n";
        assert_eq!(rules_hit(SVC, recv), [RULE_REACTOR]);
        let outside = "fn g(s: &mut S) { s.read_exact(&mut b); }\n// lint: reactor\nfn f() {}\n// lint: end-reactor\n";
        assert!(rules_hit(SVC, outside).is_empty());
        let allowed = "// lint: reactor\nfn f(s: &mut S) {\n // lint: allow(reactor) handshake runs before registration\n s.read_exact(&mut b)?;\n}\n// lint: end-reactor\n";
        assert!(rules_hit(SVC, allowed).is_empty());
        let defn = "// lint: reactor\nfn read_exact(b: &mut [u8]) {}\n// lint: end-reactor\n";
        assert!(rules_hit(SVC, defn).is_empty(), "definitions are not calls");
    }

    #[test]
    fn reactor_and_hot_path_fences_nest_independently() {
        let src = "// lint: reactor\n// lint: hot-path\nfn f() { let v = Vec::new(); thread::spawn(g); }\n// lint: end-hot-path\n// lint: end-reactor\n";
        let mut rules = rules_hit(SVC, src);
        rules.sort_unstable();
        assert_eq!(rules, [RULE_HOT_PATH, RULE_REACTOR]);
    }

    #[test]
    fn unbalanced_fences_and_unknown_allows_are_findings() {
        assert_eq!(
            rules_hit(SVC, "// lint: hot-path\nfn f() {}\n"),
            [RULE_DIRECTIVE]
        );
        assert_eq!(
            rules_hit(SVC, "fn f() {}\n// lint: end-hot-path\n"),
            [RULE_DIRECTIVE]
        );
        assert_eq!(
            rules_hit(SVC, "// lint: allow(nonsense) because\nfn f() {}\n"),
            [RULE_DIRECTIVE]
        );
    }
}
