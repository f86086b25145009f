//! `repro` — regenerate the paper's figures from the registry in
//! `availbw_bench::figs`, each report printed to stdout in the order asked.
//!
//! ```text
//! cargo run --release -p availbw-bench --bin repro -- fig05 fig07
//! cargo run --release -p availbw-bench --bin repro -- --all --quick
//! ```

use availbw_bench::{figs, RunOpts};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "\
usage: repro [--quick] [--runs N] (--all | --list | NAME...)
  --all      run every figure, in paper order
  --list     print the figure names, in paper order
  --quick    reduced preset (6 runs per point, 45 s TCP phases)
             instead of the paper's full fidelity
  --runs N   pathload runs per configuration point (default 50,
             6 with --quick)";

fn main() -> ExitCode {
    let (mut quick, mut runs, mut all, mut names) = (false, None, false, Vec::new());
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--all" => all = true,
            "--list" => {
                for (name, _) in figs::REGISTRY {
                    println!("{name}");
                }
                return ExitCode::SUCCESS;
            }
            "--runs" => match args.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) => runs = Some(n.max(1)),
                None => return usage_error("--runs takes a count"),
            },
            flag if flag.starts_with('-') => return usage_error(&format!("unknown flag {flag}")),
            _ => names.push(arg.clone()),
        }
    }
    let mut opts = if quick {
        RunOpts::quick()
    } else {
        RunOpts::full()
    };
    opts.runs = runs.unwrap_or(opts.runs);
    if all {
        names = figs::REGISTRY.iter().map(|(n, _)| n.to_string()).collect();
    }
    if names.is_empty() {
        return usage_error("name a figure, or pass --all or --list");
    }
    let mut figures = Vec::new();
    for name in &names {
        match figs::REGISTRY.iter().find(|(n, _)| n == name) {
            Some(&(_, figure)) => figures.push((name, figure)),
            None => {
                let valid: Vec<&str> = figs::REGISTRY.iter().map(|(n, _)| *n).collect();
                let msg = format!("unknown figure {name}; valid: {}", valid.join(" "));
                return usage_error(&msg);
            }
        }
    }
    for (name, figure) in figures {
        let t = Instant::now();
        figure(&opts);
        eprintln!("[{name} done in {:.1?}]", t.elapsed());
    }
    ExitCode::SUCCESS
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("repro: {msg}\n{USAGE}");
    ExitCode::from(2)
}
