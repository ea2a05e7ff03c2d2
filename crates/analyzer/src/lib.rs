//! `prcc-analyzer` — a dependency-free static analyzer for the PRCC
//! workspace's safety invariants.
//!
//! The repo's correctness story rests on conventions the compiler does
//! not check: every WAL append result must reach a fail-stop decision,
//! fenced hot-path regions must not allocate, service/storage code must
//! not panic on unchecked `unwrap`s, all locking must flow through the
//! `compat/parking_lot` shim (where the lock-order detector lives),
//! every crate root must forbid `unsafe` (with `compat/mio` confining
//! the epoll FFI instead), fenced reactor regions must never block
//! the event-loop workers, and every test a README cites must exist.
//! This crate scans the source
//! tree at the token level and turns each convention into a `file:line`
//! diagnostic; the `prcc-lint` binary exits nonzero when any fires.
//!
//! See the README's *Static analysis* section for the rule list and the
//! `// lint: …` marker syntax.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cited;
mod lexer;
mod rules;
mod walk;

pub use cited::RULE_CITED_TEST;
pub use lexer::{lex, Directive, Lexed, TokKind, Token};
pub use rules::{
    check_file, Finding, RULE_DIRECTIVE, RULE_FORBID_UNSAFE, RULE_HOT_PATH, RULE_REACTOR,
    RULE_STD_LOCK, RULE_UNWRAP, RULE_WAL_DISCARD,
};
pub use walk::{collect_rs_files, lint_root, Diagnostic};
