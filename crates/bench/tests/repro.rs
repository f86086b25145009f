//! The `repro` binary end to end: its registry listing, one figure run
//! through the registry, and the refusal of a name it does not know.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

#[test]
fn list_prints_every_figure_once_in_paper_order() {
    let out = repro(&["--list"]);
    assert!(out.status.success());
    let names: Vec<String> = String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .map(str::to_owned)
        .collect();
    let expected = [
        "fig01_03",
        "fig05",
        "fig06",
        "fig07",
        "fig08",
        "fig09",
        "fig10",
        "fig11",
        "fig12",
        "fig13",
        "fig14",
        "fig15_16",
        "fig17_18",
        "ablations",
        "comparison",
        "ssthresh",
    ];
    assert_eq!(names, expected);
}

#[test]
fn a_named_figure_runs_through_the_registry() {
    let out = repro(&["--quick", "fig01_03"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("=== Figures 1-3"), "{stdout}");
}

#[test]
fn an_unknown_name_exits_2_and_names_the_valid_ones() {
    let out = repro(&["fig04"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown figure fig04"), "{stderr}");
    for name in ["fig01_03", "fig17_18", "ssthresh"] {
        assert!(stderr.contains(name), "{stderr}");
    }
}
