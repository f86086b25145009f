//! The `monitord` command line: every usage error exits 2 with the usage
//! on stderr before a socket is bound or dialled, and `--help` prints the
//! usage on stdout and exits 0.

use std::process::{Command, Output};

fn monitord(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_monitord"))
        .args(args)
        .output()
        .expect("monitord runs")
}

#[test]
fn usage_errors_exit_2_with_the_usage_on_stderr() {
    for args in [
        &[][..],
        &["--loopback"],
        &["--loopback", "0"],
        &["--loopback", "513"],
        &["--loopback", "3", "0"],
        &["--loopback", "3", "8", "x"],
        &["--metrics"],
        &["a.conf", "b.conf"],
    ] {
        let out = monitord(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: monitord"), "{args:?}: {stderr}");
    }
}

#[test]
fn help_prints_the_usage_on_stdout_and_exits_0() {
    for flag in ["--help", "-h"] {
        let out = monitord(&[flag]);
        assert_eq!(out.status.code(), Some(0), "{flag}: {out:?}");
        assert!(out.stderr.is_empty(), "{flag}: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("usage: monitord"), "{flag}: {stdout}");
    }
}

/// A config that cannot be read is a runtime failure, not a usage error.
#[cfg(target_os = "linux")]
#[test]
fn an_unreadable_config_exits_1() {
    let out = monitord(&["/nonexistent/monitord.conf"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot read"), "{stderr}");
}
