//! Architecture linter for the availbw workspace.
//!
//! `cargo clippy` enforces Rust hygiene; this crate enforces the
//! *architecture* — the invariants ARCHITECTURE.md states in prose and
//! this workspace's whole design rests on. They are not expressible as
//! rustc lints, so they get their own scanner:
//!
//! * **AL001 `sans-io`** — the estimation crates (`slops`, `netsim`,
//!   `simprobe`, `telemetry`) must stay free of wall-clock time, real
//!   sockets, threads, and libc. Time and packets *enter* the machine as
//!   values; drivers own the syscalls. Driver files are exempted by the
//!   policy, one line each, with a reason; a sans-IO core living inside a
//!   crate that is rightly *not* sans-IO (the receiver's protocol core in
//!   `sockets`) is held to the rule by a per-file `sans-io module` line.
//! * **AL002 `trace-mint`** — [`TraceEvent`] values are *minted* only by
//!   the session machine (`slops::machine`). Everything else relays or
//!   matches them. A driver inventing trace events would forge the very
//!   evidence the telemetry exists to collect.
//! * **AL003 `unsafe-scope`** — `unsafe` lives only in the declared FFI
//!   modules (epoll, `recvmmsg`/`sendmmsg`, `signal(2)`), and every
//!   crate root carries `#![forbid(unsafe_code)]` or
//!   `#![deny(unsafe_code)]`.
//! * **AL004 `panic-free`** — the datapath modules (receivers, batch
//!   I/O, the event loops, the drivers) must not contain `unwrap`,
//!   `expect`, `panic!`-family or `assert!`-family macros
//!   (`debug_assert!` included), or (unless the policy grants
//!   `allow-index`) slice indexing in non-test code. A panicking branch
//!   there takes a whole fleet down.
//! * **AL005 `cfg-gate`** — raw-fd surface (`RawFd`, `AsRawFd`,
//!   `std::os::fd`, ...) in the gated crates must sit behind
//!   `#[cfg(target_os = "linux")]`, either in-file or at the `mod`
//!   declaration in the crate root. The wire stack has one platform, so
//!   `cfg(unix)` or a negated gate does not count.
//! * **AL000 `suppression`** — a malformed `// archlint: allow(...)`
//!   comment (unknown rule, missing ` -- reason`) is itself a finding,
//!   so suppressions cannot silently rot.
//!
//! The scanner is deliberately line-level — no `syn`, no new
//! dependencies, matching the workspace's no-new-deps rule. It strips
//! comments and string literals (state carried across lines for block
//! comments and raw strings), tracks `#[cfg(test)]` regions by brace
//! counting, and then matches word-bounded tokens. The cost of that
//! simplicity is a handful of documented heuristics (see
//! `docs/LINTS.md`); the escape hatch for a heuristic misfire is an
//! inline suppression:
//!
//! ```text
//! // archlint: allow(panic-free) -- bounded by the assert two lines up
//! ```
//!
//! which silences that rule on the same and the next line. Policy —
//! which crates are walked and which rule applies where — lives in
//! `archlint.policy` at the repository root; see [`Policy`].
//!
//! [`TraceEvent`]: https://example.invalid/availbw (telemetry::TraceEvent)

#![forbid(unsafe_code)]

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The rules archlint enforces. The numeric IDs are stable: findings,
/// suppressions, the policy file, and docs/LINTS.md all refer to them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// AL000: a malformed `// archlint: allow(...)` comment.
    Suppression,
    /// AL001: wall-clock/socket/thread/libc use in a sans-IO crate.
    SansIo,
    /// AL002: `TraceEvent` constructed outside the minting module.
    TraceMint,
    /// AL003: `unsafe` outside a declared FFI module, or a crate root
    /// missing its `forbid`/`deny(unsafe_code)` attribute.
    UnsafeScope,
    /// AL004: `unwrap`/`expect`/panic and assert macros/indexing in a
    /// datapath module.
    PanicFree,
    /// AL005: raw-fd surface not behind a Linux cfg gate.
    CfgGate,
}

/// Every rule, in ID order.
pub const ALL_RULES: [Rule; 6] = [
    Rule::Suppression,
    Rule::SansIo,
    Rule::TraceMint,
    Rule::UnsafeScope,
    Rule::PanicFree,
    Rule::CfgGate,
];

impl Rule {
    /// The stable identifier, `AL000` through `AL005`.
    pub fn id(self) -> &'static str {
        match self {
            Rule::Suppression => "AL000",
            Rule::SansIo => "AL001",
            Rule::TraceMint => "AL002",
            Rule::UnsafeScope => "AL003",
            Rule::PanicFree => "AL004",
            Rule::CfgGate => "AL005",
        }
    }

    /// The short name used in policy lines and suppression comments.
    pub fn name(self) -> &'static str {
        match self {
            Rule::Suppression => "suppression",
            Rule::SansIo => "sans-io",
            Rule::TraceMint => "trace-mint",
            Rule::UnsafeScope => "unsafe-scope",
            Rule::PanicFree => "panic-free",
            Rule::CfgGate => "cfg-gate",
        }
    }

    /// Parse a short name back into a rule.
    pub fn from_name(name: &str) -> Option<Rule> {
        ALL_RULES.iter().copied().find(|r| r.name() == name)
    }
}

/// One violation: where, which rule, and what the scanner saw.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Repository-relative path of the offending file.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The rule that fired.
    pub rule: Rule,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{} {}] {}",
            self.path,
            self.line,
            self.rule.id(),
            self.rule.name(),
            self.message
        )
    }
}

/// A policy-file error, reported with its line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PolicyError {
    /// 1-based line in `archlint.policy`.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "archlint.policy:{}: {}", self.line, self.message)
    }
}

/// The parsed `archlint.policy`: which crate directories are walked and
/// which rule applies to which file. Paths are repository-relative with
/// forward slashes, exactly as written in the policy file.
#[derive(Clone, Debug, Default)]
pub struct Policy {
    /// Crate directories whose `src/` trees are scanned.
    pub crates: Vec<String>,
    /// Crates whose non-exempt files must be sans-IO (AL001).
    pub sans_io_crates: Vec<String>,
    /// Files inside sans-IO crates that are drivers/endpoints (exempt).
    pub sans_io_exempt: Vec<String>,
    /// Single files held to AL001 inside crates that are not sans-IO.
    pub sans_io_modules: Vec<String>,
    /// Files allowed to construct `TraceEvent` values (AL002).
    pub trace_mint: Vec<String>,
    /// Files allowed to contain `unsafe` (AL003).
    pub unsafe_ffi: Vec<String>,
    /// Datapath files held to panic-freedom (AL004).
    pub panic_free: Vec<String>,
    /// Panic-free files where slice indexing is tolerated.
    pub allow_index: Vec<String>,
    /// Crates whose raw-fd surface must be cfg-gated (AL005).
    pub cfg_gate_crates: Vec<String>,
}

fn split_reason(rest: &str) -> Option<(&str, &str)> {
    let (path, reason) = rest.split_once(" -- ")?;
    let (path, reason) = (path.trim(), reason.trim());
    if path.is_empty() || reason.is_empty() {
        return None;
    }
    Some((path, reason))
}

impl Policy {
    /// Parse the policy text. Unknown verbs, missing paths, and missing
    /// `-- reason` clauses are errors with the offending line number.
    pub fn parse(text: &str) -> Result<Policy, PolicyError> {
        let mut p = Policy::default();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            let lineno = idx + 1;
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |message: String| PolicyError {
                line: lineno,
                message,
            };
            let (verb, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
            let rest = rest.trim();
            match verb {
                "crate" => {
                    if rest.is_empty() {
                        return Err(err("`crate` needs a directory".into()));
                    }
                    p.crates.push(rest.to_string());
                }
                "sans-io" => match rest.split_once(char::is_whitespace) {
                    Some(("crate", dir)) => p.sans_io_crates.push(dir.trim().to_string()),
                    Some(("module", file)) => p.sans_io_modules.push(file.trim().to_string()),
                    Some(("exempt", spec)) => {
                        let (path, _reason) = split_reason(spec).ok_or_else(|| {
                            err("`sans-io exempt` needs `<file> -- <reason>`".into())
                        })?;
                        p.sans_io_exempt.push(path.to_string());
                    }
                    _ => {
                        return Err(err(
                            "`sans-io` takes `crate <dir>`, `module <file>` or `exempt <file> -- <reason>`"
                                .into(),
                        ))
                    }
                },
                "trace-mint" => match rest.split_once(char::is_whitespace) {
                    Some(("mint", file)) => p.trace_mint.push(file.trim().to_string()),
                    _ => return Err(err("`trace-mint` takes `mint <file>`".into())),
                },
                "unsafe" => match rest.split_once(char::is_whitespace) {
                    Some(("ffi", spec)) => {
                        let (path, _reason) = split_reason(spec)
                            .ok_or_else(|| err("`unsafe ffi` needs `<file> -- <reason>`".into()))?;
                        p.unsafe_ffi.push(path.to_string());
                    }
                    _ => return Err(err("`unsafe` takes `ffi <file> -- <reason>`".into())),
                },
                "panic-free" => match rest.split_once(char::is_whitespace) {
                    Some(("module", file)) => p.panic_free.push(file.trim().to_string()),
                    Some(("allow-index", spec)) => {
                        let (path, _reason) = split_reason(spec).ok_or_else(|| {
                            err("`panic-free allow-index` needs `<file> -- <reason>`".into())
                        })?;
                        p.allow_index.push(path.to_string());
                    }
                    _ => return Err(err(
                        "`panic-free` takes `module <file>` or `allow-index <file> -- <reason>`"
                            .into(),
                    )),
                },
                "cfg-gate" => match rest.split_once(char::is_whitespace) {
                    Some(("crate", dir)) => p.cfg_gate_crates.push(dir.trim().to_string()),
                    _ => return Err(err("`cfg-gate` takes `crate <dir>`".into())),
                },
                other => return Err(err(format!("unknown policy verb `{other}`"))),
            }
        }
        Ok(p)
    }

    fn in_crate(path: &str, dirs: &[String]) -> bool {
        dirs.iter().any(|d| {
            path.strip_prefix(d.as_str())
                .is_some_and(|r| r.starts_with('/'))
                || path == d
        })
    }

    fn listed(path: &str, files: &[String]) -> bool {
        files.iter().any(|f| f == path)
    }
}

// ---------------------------------------------------------------------------
// Source preprocessing: comment/string stripping and test-region tracking.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq)]
enum StripState {
    Code,
    Block(usize),     // nested block-comment depth
    RawString(usize), // number of `#`s the raw string opened with
}

/// Replace comments and string/char-literal contents with spaces,
/// carrying block-comment and raw-string state across lines. Column
/// positions are preserved so the indexing heuristic can inspect the
/// character before a `[`. The second return is the body of a line
/// comment that started in code context (where suppressions live) —
/// comment text inside string literals is never mistaken for one.
fn strip_line(raw: &str, state: &mut StripState) -> (String, Option<String>) {
    let bytes = raw.as_bytes();
    let mut out = vec![b' '; bytes.len()];
    let mut comment = None;
    let mut i = 0;
    while i < bytes.len() {
        match *state {
            StripState::Block(depth) => {
                if bytes[i..].starts_with(b"*/") {
                    *state = if depth > 1 {
                        StripState::Block(depth - 1)
                    } else {
                        StripState::Code
                    };
                    i += 2;
                } else if bytes[i..].starts_with(b"/*") {
                    *state = StripState::Block(depth + 1);
                    i += 2;
                } else {
                    i += 1;
                }
            }
            StripState::RawString(hashes) => {
                if bytes[i] == b'"' {
                    let close = &bytes[i + 1..];
                    if close.len() >= hashes && close[..hashes].iter().all(|&b| b == b'#') {
                        *state = StripState::Code;
                        i += 1 + hashes;
                        continue;
                    }
                }
                i += 1;
            }
            StripState::Code => {
                let b = bytes[i];
                if bytes[i..].starts_with(b"//") {
                    comment = Some(raw[i + 2..].to_string());
                    break; // rest of the line is a comment
                }
                if bytes[i..].starts_with(b"/*") {
                    *state = StripState::Block(1);
                    i += 2;
                    continue;
                }
                if b == b'r' {
                    // Possible raw string: r"..." or r#"..."#.
                    let mut j = i + 1;
                    while j < bytes.len() && bytes[j] == b'#' {
                        j += 1;
                    }
                    if j < bytes.len() && bytes[j] == b'"' {
                        out[i] = b'r';
                        *state = StripState::RawString(j - i - 1);
                        i = j + 1;
                        continue;
                    }
                }
                if b == b'"' {
                    // Ordinary string literal: consume to the closing quote.
                    out[i] = b'"';
                    i += 1;
                    while i < bytes.len() {
                        match bytes[i] {
                            b'\\' => i += 2,
                            b'"' => {
                                out[i] = b'"';
                                i += 1;
                                break;
                            }
                            _ => i += 1,
                        }
                    }
                    continue;
                }
                if b == b'\'' {
                    // Char literal or lifetime. A char literal closes within
                    // a few bytes; a lifetime never has a closing quote.
                    let rest = &bytes[i + 1..];
                    let close = if rest.first() == Some(&b'\\') {
                        rest.iter().skip(1).position(|&c| c == b'\'').map(|p| p + 1)
                    } else {
                        (rest.get(1) == Some(&b'\'')).then_some(1)
                    };
                    if let Some(p) = close {
                        out[i] = b'\'';
                        i += p + 2;
                        continue;
                    }
                    out[i] = b'\'';
                    i += 1;
                    continue;
                }
                out[i] = b;
                i += 1;
            }
        }
    }
    (String::from_utf8(out).unwrap_or_default(), comment)
}

/// Mark the lines belonging to `#[cfg(test)]` / `#[cfg(all(test, ...))]`
/// items by brace-counting from the attribute to the item's end.
fn test_regions(code_lines: &[String]) -> Vec<bool> {
    let mut test = vec![false; code_lines.len()];
    let mut i = 0;
    while i < code_lines.len() {
        let line = &code_lines[i];
        if line.contains("#[cfg(test)]") || line.contains("#[cfg(all(test") {
            let mut depth = 0usize;
            let mut entered = false;
            let mut j = i;
            while j < code_lines.len() {
                test[j] = true;
                for b in code_lines[j].bytes() {
                    match b {
                        b'{' => {
                            depth += 1;
                            entered = true;
                        }
                        b'}' => depth = depth.saturating_sub(1),
                        // An attribute can gate a single brace-less item
                        // (`#[cfg(test)] use foo;`): a top-level `;` before
                        // any `{` ends it.
                        b';' if !entered && depth == 0 => {
                            entered = true;
                            depth = 0;
                        }
                        _ => {}
                    }
                }
                if entered && depth == 0 {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    test
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// `true` if `needle` occurs in `hay` with non-identifier characters (or
/// the line boundary) on both sides.
fn has_token(hay: &str, needle: &str) -> bool {
    let h = hay.as_bytes();
    let mut from = 0;
    while let Some(pos) = hay[from..].find(needle) {
        let start = from + pos;
        let end = start + needle.len();
        let pre_ok = start == 0 || !is_ident(h[start - 1]);
        let post_ok = end >= h.len() || !is_ident(h[end]);
        if pre_ok && post_ok {
            return true;
        }
        from = start + 1;
    }
    false
}

// ---------------------------------------------------------------------------
// Suppressions.
// ---------------------------------------------------------------------------

const SUPPRESS_PREFIX: &str = "archlint:";

/// A parsed-or-not suppression comment on one raw line.
enum Suppression {
    Valid(Rule),
    Malformed(String),
}

/// Parse a line-comment body as a suppression. Only a comment whose
/// text *starts* with `archlint:` counts — prose that merely mentions
/// the syntax (docs, error messages) is left alone.
fn parse_suppression(comment: &str) -> Option<Suppression> {
    // Doc comments arrive as `/ ...` or `! ...` bodies; drop the marker.
    let body = comment
        .strip_prefix(['/', '!'])
        .unwrap_or(comment)
        .trim_start();
    let rest = body.strip_prefix(SUPPRESS_PREFIX)?.trim();
    let Some(inner) = rest.strip_prefix("allow(") else {
        return Some(Suppression::Malformed(
            "expected `// archlint: allow(<rule>) -- <reason>`".to_string(),
        ));
    };
    let Some((name, tail)) = inner.split_once(')') else {
        return Some(Suppression::Malformed(
            "unclosed `allow(`: expected `allow(<rule>) -- <reason>`".to_string(),
        ));
    };
    let Some(rule) = Rule::from_name(name.trim()) else {
        return Some(Suppression::Malformed(format!(
            "unknown rule `{}` (known: {})",
            name.trim(),
            ALL_RULES.map(Rule::name).join(", ")
        )));
    };
    let reason = tail.trim().strip_prefix("--").map(str::trim);
    if reason.is_none_or(str::is_empty) {
        return Some(Suppression::Malformed(format!(
            "suppression of `{}` is missing its ` -- <reason>` clause",
            rule.name()
        )));
    }
    Some(Suppression::Valid(rule))
}

// ---------------------------------------------------------------------------
// The per-file check.
// ---------------------------------------------------------------------------

const SANS_IO_TOKENS: [&str; 6] = [
    "std::time::Instant",
    "SystemTime",
    "std::net",
    "std::thread",
    "libc",
    // OS entropy: a seeded simulator cannot replay it.
    "RandomState",
];

const PANIC_TOKENS: [&str; 9] = [
    ".unwrap()",
    ".expect(",
    "panic!",
    "unreachable!",
    "unimplemented!",
    "todo!",
    // Matched as substrings, so `debug_assert!(` and its `_eq`/`_ne`
    // kin count too: they panic in every debug and test build.
    "assert!(",
    "assert_eq!(",
    "assert_ne!(",
];

const RAW_FD_TOKENS: [&str; 7] = [
    "RawFd",
    "AsRawFd",
    "as_raw_fd",
    "FromRawFd",
    "from_raw_fd",
    "std::os::unix",
    "std::os::fd",
];

/// True when a line carries a cfg attribute that admits Linux only:
/// `target_os = "linux"`, neither negated nor widened by `any(..)`.
/// `code` is the line with comments
/// and string contents blanked (so a commented-out gate does not count),
/// `raw` the line as written (the string that names the OS).
fn is_linux_gate_line(code: &str, raw: &str) -> bool {
    code.contains("cfg(")
        && !code.contains("not(")
        && !code.contains("any(")
        && raw.contains("target_os = \"linux\"")
}

/// Check one file's source against the policy. `rel_path` is the
/// repository-relative path (forward slashes) the policy refers to;
/// `mod_gated` says the file's `mod` declaration in its crate root is
/// already behind a Linux cfg gate (so AL005 is satisfied file-wide).
///
/// This is the pure core: the fixture tests drive it directly with
/// in-memory sources.
pub fn check_file(policy: &Policy, rel_path: &str, source: &str, mod_gated: bool) -> Vec<Finding> {
    let sans_io = Policy::listed(rel_path, &policy.sans_io_modules)
        || Policy::in_crate(rel_path, &policy.sans_io_crates)
            && !Policy::listed(rel_path, &policy.sans_io_exempt);
    let can_mint = Policy::listed(rel_path, &policy.trace_mint);
    let ffi_ok = Policy::listed(rel_path, &policy.unsafe_ffi);
    let panic_free = Policy::listed(rel_path, &policy.panic_free);
    let index_ok = Policy::listed(rel_path, &policy.allow_index);
    let cfg_gated_crate = Policy::in_crate(rel_path, &policy.cfg_gate_crates) && !mod_gated;

    let mut state = StripState::Code;
    let (code_lines, comments): (Vec<String>, Vec<Option<String>>) =
        source.lines().map(|l| strip_line(l, &mut state)).unzip();
    let tests = test_regions(&code_lines);

    let mut findings = Vec::new();
    let mut suppressed: Vec<(usize, Rule)> = Vec::new();
    for (idx, comment) in comments.iter().enumerate() {
        match comment.as_deref().and_then(parse_suppression) {
            Some(Suppression::Valid(rule)) => {
                suppressed.push((idx, rule));
                suppressed.push((idx + 1, rule));
            }
            Some(Suppression::Malformed(message)) => findings.push(Finding {
                path: rel_path.to_string(),
                line: idx + 1,
                rule: Rule::Suppression,
                message,
            }),
            None => {}
        }
    }

    // AL005 needs to know whether any Linux gate appears at or before a
    // given line; precompute the first gate's line index.
    let first_gate = code_lines
        .iter()
        .zip(source.lines())
        .position(|(code, raw)| is_linux_gate_line(code, raw));

    for (idx, code) in code_lines.iter().enumerate() {
        let mut push = |rule: Rule, message: String| {
            findings.push(Finding {
                path: rel_path.to_string(),
                line: idx + 1,
                rule,
                message,
            });
        };
        let in_test = tests[idx];

        if sans_io && !in_test {
            for tok in SANS_IO_TOKENS {
                if has_token(code, tok) {
                    push(
                        Rule::SansIo,
                        format!("`{tok}` in sans-IO code: real time/sockets/threads belong to drivers (policy: `sans-io exempt` for driver files)"),
                    );
                }
            }
        }

        if !can_mint && !in_test {
            if let Some(found) = trace_construction(code) {
                push(
                    Rule::TraceMint,
                    format!("`{found}` constructed outside the minting module: drivers relay trace events, only `slops::machine` mints them"),
                );
            }
        }

        if !ffi_ok && has_token(code, "unsafe") {
            push(
                Rule::UnsafeScope,
                "`unsafe` outside a declared FFI module (policy: `unsafe ffi <file> -- <reason>`)"
                    .to_string(),
            );
        }

        if panic_free && !in_test {
            for tok in PANIC_TOKENS {
                if code.contains(tok) {
                    push(
                        Rule::PanicFree,
                        format!("`{tok}` in a datapath module: a panic here takes the whole fleet down; return an error instead"),
                    );
                }
            }
            if !index_ok && has_indexing(code) {
                push(
                    Rule::PanicFree,
                    "slice/array indexing in a datapath module: use `.get(..)` (or policy `panic-free allow-index` with a reason)"
                        .to_string(),
                );
            }
        }

        if cfg_gated_crate {
            for tok in RAW_FD_TOKENS {
                if has_token(code, tok) && first_gate.is_none_or(|g| g > idx) {
                    push(
                        Rule::CfgGate,
                        format!("`{tok}` with no `#[cfg(target_os = \"linux\")]` gate above it (gate the item, or gate the `mod` in the crate root)"),
                    );
                }
            }
        }
    }

    findings.retain(|f| !suppressed.contains(&(f.line - 1, f.rule)));
    findings.sort_by_key(|f| (f.line, f.rule));
    findings.dedup();
    findings
}

/// Detect a `TraceEvent::Variant {` / `TraceEvent::Variant(` construction.
/// Lines that are visibly patterns (`=>`, `let`, `matches!`) are skipped —
/// the workspace writes match arms single-line, and a multi-line arm can
/// use an inline suppression. Returns the matched `TraceEvent::Variant`.
fn trace_construction(code: &str) -> Option<String> {
    if code.contains("=>") || has_token(code, "let") || code.contains("matches!") {
        return None;
    }
    let start = code.find("TraceEvent::")?;
    let rest = &code[start + "TraceEvent::".len()..];
    let ident_len = rest.bytes().take_while(|&b| is_ident(b)).count();
    if ident_len == 0 {
        return None;
    }
    let after = rest[ident_len..].trim_start();
    if after.starts_with('{') || after.starts_with('(') {
        return Some(format!("TraceEvent::{}", &rest[..ident_len]));
    }
    None
}

/// Indexing heuristic: a `[` directly preceded by an identifier
/// character, `)`, or `]` is an index expression (`xs[i]`, `f()[0]`).
/// Attributes (`#[...]`, `#![...]`) and macros (`vec![...]`) are
/// naturally excluded by their preceding `#`/`!`.
fn has_indexing(code: &str) -> bool {
    let b = code.as_bytes();
    (1..b.len())
        .any(|i| b[i] == b'[' && (is_ident(b[i - 1]) || b[i - 1] == b')' || b[i - 1] == b']'))
}

// ---------------------------------------------------------------------------
// Workspace walking.
// ---------------------------------------------------------------------------

/// The result of a full workspace check.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Every finding, sorted by path then line.
    pub findings: Vec<Finding>,
    /// How many `.rs` files were scanned.
    pub files: usize,
    /// How many crate directories were walked.
    pub crates: usize,
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.path());
    for entry in entries {
        let path = entry.path();
        if path.is_dir() {
            walk_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Scan a crate root (`lib.rs`) for `mod` declarations sitting directly
/// under a Linux cfg gate; returns the gated module names.
fn gated_mods(lib_source: &str) -> BTreeSet<String> {
    let mut state = StripState::Code;
    let mut gated = BTreeSet::new();
    let mut pending_gate = false;
    for raw in lib_source.lines() {
        let code = strip_line(raw, &mut state).0;
        let t = code.trim();
        if t.is_empty() {
            continue;
        }
        if t.starts_with("#[") {
            if is_linux_gate_line(t, raw) {
                pending_gate = true;
            }
            continue;
        }
        if pending_gate {
            for prefix in ["pub mod ", "mod "] {
                if let Some(rest) = t.strip_prefix(prefix) {
                    if let Some(name) = rest.strip_suffix(';') {
                        gated.insert(name.trim().to_string());
                    }
                }
            }
        }
        pending_gate = false;
    }
    gated
}

/// Check every declared crate's `src/` tree under `root`.
///
/// Beyond the per-file rules this adds the AL003 crate-root check: each
/// declared crate's `src/lib.rs` must carry `#![forbid(unsafe_code)]`
/// or `#![deny(unsafe_code)]`.
pub fn check_workspace(root: &Path, policy: &Policy) -> io::Result<Report> {
    let mut report = Report::default();
    for crate_dir in &policy.crates {
        report.crates += 1;
        let src = root.join(crate_dir).join("src");
        let mut files = Vec::new();
        walk_rs(&src, &mut files)?;

        // Which modules does the crate root gate behind the Linux cfg?
        let lib = src.join("lib.rs");
        let mut gated = BTreeSet::new();
        if let Ok(lib_src) = fs::read_to_string(&lib) {
            if Policy::in_crate(crate_dir, &policy.cfg_gate_crates)
                || policy.cfg_gate_crates.contains(crate_dir)
            {
                gated = gated_mods(&lib_src);
            }
            if !lib_src.contains("#![forbid(unsafe_code)]")
                && !lib_src.contains("#![deny(unsafe_code)]")
            {
                report.findings.push(Finding {
                    path: format!("{crate_dir}/src/lib.rs"),
                    line: 1,
                    rule: Rule::UnsafeScope,
                    message:
                        "crate root is missing `#![forbid(unsafe_code)]` (or `deny` for declared FFI crates)"
                            .to_string(),
                });
            }
        }

        for file in files {
            report.files += 1;
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace('\\', "/");
            let stem = file
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_default();
            // A file is mod-gated if its stem (or any ancestor directory
            // under src/) is a cfg-gated module of the crate root.
            let mod_gated = gated.contains(&stem)
                || file
                    .strip_prefix(&src)
                    .ok()
                    .map(|p| {
                        p.components()
                            .any(|c| gated.contains(&c.as_os_str().to_string_lossy().into_owned()))
                    })
                    .unwrap_or(false);
            let source = fs::read_to_string(&file)?;
            report
                .findings
                .extend(check_file(policy, &rel, &source, mod_gated));
        }
    }
    report
        .findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strip_handles_block_comments_across_lines() {
        let mut st = StripState::Code;
        let (a, _) = strip_line("let x = 1; /* start", &mut st);
        assert!(a.contains("let x = 1;"));
        assert!(!a.contains("start"));
        let (b, _) = strip_line("unsafe { } end */ let y = 2;", &mut st);
        assert!(!b.contains("unsafe"));
        assert!(b.contains("let y = 2;"));
    }

    #[test]
    fn strip_preserves_columns() {
        let mut st = StripState::Code;
        let (s, _) = strip_line(r#"foo("bar")[0]"#, &mut st);
        assert_eq!(s.len(), r#"foo("bar")[0]"#.len());
        assert!(has_indexing(&s));
    }

    #[test]
    fn comment_in_string_is_not_a_comment() {
        let mut st = StripState::Code;
        let (_, c) = strip_line(r#"let m = "see // archlint: allow(x)";"#, &mut st);
        assert!(c.is_none());
        let (_, c) = strip_line("do_it(); // archlint: allow(panic-free) -- why", &mut st);
        assert!(c.is_some());
    }

    #[test]
    fn lifetimes_are_not_strings() {
        let mut st = StripState::Code;
        let (s, _) = strip_line("fn f<'a>(x: &'a str) -> &'a str { x }", &mut st);
        assert!(s.contains("fn f"));
        assert!(s.contains("{ x }"));
    }

    #[test]
    fn token_boundaries() {
        assert!(has_token("use std::thread;", "std::thread"));
        assert!(!has_token("my_std::thread_pool", "std::thread"));
        assert!(has_token("unsafe {", "unsafe"));
        assert!(!has_token("unsafe_code", "unsafe"));
    }

    #[test]
    fn test_region_covers_mod_and_single_item() {
        let src = "\
fn a() {}
#[cfg(test)]
mod tests {
    fn b() {}
}
fn c() {}
#[cfg(test)]
use foo;
fn d() {}
";
        let mut st = StripState::Code;
        let code: Vec<String> = src.lines().map(|l| strip_line(l, &mut st).0).collect();
        let t = test_regions(&code);
        assert_eq!(
            t,
            vec![false, true, true, true, true, false, true, true, false]
        );
    }

    #[test]
    fn gated_mods_reads_cfg_above_mod() {
        let lib = "\
pub mod plain;
#[cfg(target_os = \"linux\")]
pub mod evented;
// a comment between
#[cfg(target_os = \"linux\")]
mod inner;
#[cfg(unix)]
pub mod unix_only;
#[cfg(not(target_os = \"linux\"))]
mod elsewhere;
";
        let g = gated_mods(lib);
        assert!(g.contains("evented"));
        assert!(g.contains("inner"));
        assert!(!g.contains("plain"));
        assert!(!g.contains("unix_only"), "cfg(unix) is not the Linux gate");
        assert!(
            !g.contains("elsewhere"),
            "a negated gate admits other targets"
        );
    }
}
