//! Per-rule fixtures: each rule must fire on a minimal violating source,
//! and an inline `// archlint: allow(<rule>) -- reason` must silence it.

use archlint::{check_file, Policy, Rule};

/// A policy that puts the fixture file under every rule at once.
fn strict_policy() -> Policy {
    Policy::parse(
        "\
crate fix
sans-io crate fix
trace-mint mint fix/src/machine.rs
panic-free module fix/src/hot.rs
cfg-gate crate fix
",
    )
    .expect("fixture policy parses")
}

fn findings_for(path: &str, src: &str) -> Vec<Rule> {
    check_file(&strict_policy(), path, src, false)
        .into_iter()
        .map(|f| f.rule)
        .collect()
}

// --- AL001 sans-io ---------------------------------------------------------

#[test]
fn sans_io_fires_on_wall_clock_and_sockets() {
    for line in [
        "let t0 = std::time::Instant::now();",
        "use std::net::UdpSocket;",
        "std::thread::sleep(d);",
        "let fd = libc::socket(0, 0, 0);",
        "let now = SystemTime::now();",
    ] {
        assert_eq!(
            findings_for("fix/src/pure.rs", line),
            vec![Rule::SansIo],
            "expected sans-io on {line:?}"
        );
    }
}

#[test]
fn sans_io_ignores_tests_lookalikes_and_comments() {
    assert!(findings_for(
        "fix/src/pure.rs",
        "#[cfg(test)]\nmod tests {\n    use std::thread;\n}\n"
    )
    .is_empty());
    assert!(findings_for("fix/src/pure.rs", "let my_std_thread = 1;").is_empty());
    assert!(findings_for("fix/src/pure.rs", "// drivers use std::thread").is_empty());
}

/// OS entropy is a real-world input too: a token base drawn from std's
/// hasher seed inside a core is one a seeded simulator cannot replay.
#[test]
fn sans_io_fires_on_os_entropy() {
    for line in [
        "use std::collections::hash_map::RandomState;",
        "let base = RandomState::new().build_hasher().finish();",
    ] {
        assert_eq!(
            findings_for("fix/src/pure.rs", line),
            vec![Rule::SansIo],
            "expected sans-io on {line:?}"
        );
    }
    assert!(findings_for("fix/src/pure.rs", "let base = token_base;").is_empty());
}

#[test]
fn sans_io_suppression() {
    let src = "\
// archlint: allow(sans-io) -- fixture exercises the escape hatch
use std::thread;
";
    assert!(findings_for("fix/src/pure.rs", src).is_empty());
}

/// A crate that is not sans-IO, with one core file declared sans-IO.
fn module_policy() -> Policy {
    Policy::parse("crate wire\nsans-io module wire/src/core.rs\n").expect("fixture policy parses")
}

#[test]
fn sans_io_module_fires_only_in_the_declared_file() {
    let src = "let t0 = std::time::Instant::now();";
    let rules = |path: &str| -> Vec<Rule> {
        check_file(&module_policy(), path, src, false)
            .into_iter()
            .map(|f| f.rule)
            .collect()
    };
    assert_eq!(rules("wire/src/core.rs"), vec![Rule::SansIo]);
    assert!(
        rules("wire/src/pump.rs").is_empty(),
        "the rest of the crate may touch the real world"
    );
}

#[test]
fn sans_io_module_suppression() {
    let src = "\
// archlint: allow(sans-io) -- fixture exercises the escape hatch
use std::thread;
";
    assert!(check_file(&module_policy(), "wire/src/core.rs", src, false).is_empty());
}

// --- AL002 trace-mint ------------------------------------------------------

#[test]
fn trace_mint_fires_outside_the_minting_module() {
    let src = "sink.record(&TraceEvent::Phase { from, to });";
    assert_eq!(
        findings_for("fix/src/driver.rs", src),
        vec![Rule::TraceMint]
    );
}

#[test]
fn trace_mint_allows_the_minting_module_and_patterns() {
    let construct = "self.trace.push(TraceEvent::Phase { from, to });";
    assert!(findings_for("fix/src/machine.rs", construct).is_empty());
    for pattern in [
        "TraceEvent::Phase { from, to } => self.on_phase(from, to),",
        "if let TraceEvent::Stream { id, .. } = ev {",
        "matches!(ev, TraceEvent::TimerLag { .. })",
    ] {
        assert!(
            findings_for("fix/src/driver.rs", pattern).is_empty(),
            "pattern misread as construction: {pattern:?}"
        );
    }
}

#[test]
fn trace_mint_suppression() {
    let src = "\
// archlint: allow(trace-mint) -- fixture exercises the escape hatch
sink.record(&TraceEvent::Phase { from, to });
";
    assert!(findings_for("fix/src/driver.rs", src).is_empty());
}

// --- AL003 unsafe-scope ----------------------------------------------------

#[test]
fn unsafe_scope_fires_outside_ffi_modules() {
    let src = "let n = unsafe { recvmmsg(fd, ptr, len, 0) };";
    assert_eq!(
        findings_for("fix/src/anywhere.rs", src),
        vec![Rule::UnsafeScope]
    );
}

#[test]
fn unsafe_scope_respects_declared_ffi_and_strings() {
    let policy = Policy::parse(
        "\
crate fix
unsafe ffi fix/src/sys.rs -- fixture FFI module
",
    )
    .expect("policy parses");
    let src = "let n = unsafe { recvmmsg(fd, ptr, len, 0) };";
    assert!(check_file(&policy, "fix/src/sys.rs", src, false).is_empty());
    // `unsafe` inside a string or comment is not code.
    assert!(findings_for("fix/src/anywhere.rs", r#"let s = "unsafe";"#).is_empty());
    assert!(findings_for("fix/src/anywhere.rs", "// unsafe is forbidden here").is_empty());
}

#[test]
fn unsafe_scope_suppression() {
    let src = "\
// archlint: allow(unsafe-scope) -- fixture exercises the escape hatch
let n = unsafe { recvmmsg(fd, ptr, len, 0) };
";
    assert!(findings_for("fix/src/anywhere.rs", src).is_empty());
}

// --- AL004 panic-free ------------------------------------------------------

#[test]
fn panic_free_fires_on_each_panic_path() {
    for line in [
        "let v = x.unwrap();",
        "let v = x.expect(\"always\");",
        "panic!(\"boom\");",
        "unreachable!(\"cannot happen\");",
        "let b = buf[0];",
    ] {
        assert_eq!(
            findings_for("fix/src/hot.rs", line),
            vec![Rule::PanicFree],
            "expected panic-free on {line:?}"
        );
    }
}

#[test]
fn panic_free_skips_tests_and_non_panicking_kin() {
    assert!(findings_for(
        "fix/src/hot.rs",
        "#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n"
    )
    .is_empty());
    for line in [
        "let v = x.unwrap_or(0);",
        "let v = x.unwrap_or_else(Vec::new);",
        "let b = buf.get(0);",
        "let a = [0u8; 16];",
        "#[derive(Clone)]",
        "let v = vec![1, 2, 3];",
    ] {
        assert!(
            findings_for("fix/src/hot.rs", line).is_empty(),
            "false positive on {line:?}"
        );
    }
}

#[test]
fn panic_free_allow_index_policy() {
    let policy = Policy::parse(
        "\
crate fix
panic-free module fix/src/hot.rs
panic-free allow-index fix/src/hot.rs -- fixture: bounded indices
",
    )
    .expect("policy parses");
    assert!(check_file(&policy, "fix/src/hot.rs", "let b = buf[0];", false).is_empty());
    // The panic macros are still caught even with allow-index.
    assert_eq!(
        check_file(&policy, "fix/src/hot.rs", "panic!(\"boom\");", false).len(),
        1
    );
}

#[test]
fn panic_free_suppression() {
    let src = "\
let v = x.unwrap(); // archlint: allow(panic-free) -- fixture: same-line form
";
    assert!(findings_for("fix/src/hot.rs", src).is_empty());
}

// --- AL005 cfg-gate --------------------------------------------------------

#[test]
fn cfg_gate_fires_on_ungated_raw_fd() {
    let src = "use std::os::fd::AsRawFd;";
    let rules = findings_for("fix/src/io.rs", src);
    assert!(
        rules.iter().all(|r| *r == Rule::CfgGate) && !rules.is_empty(),
        "expected cfg-gate findings, got {rules:?}"
    );
}

#[test]
fn cfg_gate_satisfied_by_in_file_gate_or_mod_gate() {
    let gated_in_file = "\
#[cfg(target_os = \"linux\")]
use std::os::fd::AsRawFd;
";
    assert!(findings_for("fix/src/io.rs", gated_in_file).is_empty());
    // `mod_gated = true` models a `#[cfg(target_os = "linux")] mod io;` in
    // the crate root.
    assert!(check_file(
        &strict_policy(),
        "fix/src/io.rs",
        "use std::os::fd::AsRawFd;",
        true
    )
    .is_empty());
}

#[test]
fn cfg_gate_fires_behind_a_unix_or_negated_gate() {
    for gate in [
        "#[cfg(unix)]",
        "#[cfg(not(unix))]",
        "#[cfg(not(target_os = \"linux\"))]",
        "#[cfg(any(unix, target_os = \"linux\"))]",
        "// #[cfg(target_os = \"linux\")]",
    ] {
        let src = format!("{gate}\nuse std::os::fd::AsRawFd;\n");
        let rules = findings_for("fix/src/io.rs", &src);
        assert!(
            !rules.is_empty() && rules.iter().all(|r| *r == Rule::CfgGate),
            "{gate}: expected cfg-gate findings, got {rules:?}"
        );
    }
}

#[test]
fn cfg_gate_suppression() {
    let src = "\
// archlint: allow(cfg-gate) -- fixture exercises the escape hatch
use std::os::unix::io::RawFd;
";
    assert!(findings_for("fix/src/io.rs", src).is_empty());
}

// --- AL000 suppression hygiene --------------------------------------------

#[test]
fn malformed_suppressions_are_findings() {
    for src in [
        "// archlint: allow(no-such-rule) -- reason\n",
        "// archlint: allow(panic-free)\n",
        "// archlint: allow(panic-free) --\n",
        "// archlint: deny(panic-free) -- wrong verb\n",
    ] {
        let rules = findings_for("fix/src/any.rs", src);
        assert_eq!(rules, vec![Rule::Suppression], "expected AL000 on {src:?}");
    }
}

#[test]
fn prose_mentioning_the_marker_is_not_a_suppression() {
    // Doc text and strings that merely *mention* the syntax don't count.
    for src in [
        "//! Use `// archlint: allow(panic-free) -- why` to suppress.\n",
        "let msg = \"expected `// archlint: allow(<rule>) -- <reason>`\";\n",
    ] {
        assert!(
            findings_for("fix/src/any.rs", src).is_empty(),
            "prose misread as suppression: {src:?}"
        );
    }
}

// --- policy parsing --------------------------------------------------------

#[test]
fn policy_errors_carry_line_numbers() {
    let err = Policy::parse("crate fix\nbogus verb\n").expect_err("must fail");
    assert_eq!(err.line, 2);

    let err = Policy::parse("unsafe ffi fix/src/sys.rs\n").expect_err("reason required");
    assert_eq!(err.line, 1);

    let err =
        Policy::parse("panic-free allow-index fix/src/hot.rs\n").expect_err("reason required");
    assert_eq!(err.line, 1);
}
