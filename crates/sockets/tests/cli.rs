//! The two binaries' command lines: every usage error exits 2 before a
//! socket is bound or dialled.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("binary runs")
}

fn assert_usage_error(out: &Output, says: &str) {
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(says), "{stderr}");
}

#[test]
fn pathload_snd_usage_errors_exit_2() {
    let snd = env!("CARGO_BIN_EXE_pathload_snd");
    assert_usage_error(&run(snd, &[]), "usage: pathload_snd");
    assert_usage_error(&run(snd, &["not-an-address"]), "bad receiver address");
    assert_usage_error(&run(snd, &["127.0.0.1:9", "x"]), "bad resolution");
    assert_usage_error(
        &run(snd, &["127.0.0.1:9", "8", "extra"]),
        "usage: pathload_snd",
    );
}

#[test]
fn pathload_rcv_usage_errors_exit_2() {
    let rcv = env!("CARGO_BIN_EXE_pathload_rcv");
    assert_usage_error(&run(rcv, &[]), "usage: pathload_rcv");
    assert_usage_error(
        &run(rcv, &["127.0.0.1:0", "127.0.0.1:1"]),
        "usage: pathload_rcv",
    );
    assert_usage_error(&run(rcv, &["not-an-address"]), "bad listen address");
}
