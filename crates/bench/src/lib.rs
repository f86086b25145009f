//! # availbw-bench — the reproduction harness
//!
//! One module per figure of the paper's evaluation, named in one
//! registry ([`figs::REGISTRY`]) that the `repro` binary runs. Each
//! figure function takes a [`RunOpts`] and returns the formatted report it
//! also prints.
//!
//! ```text
//! cargo run --release -p availbw-bench --bin repro -- fig05         # full fidelity
//! cargo run --release -p availbw-bench --bin repro -- --all --quick # every figure, seconds
//! ```
//!
//! `--quick` selects [`RunOpts::quick`] instead of [`RunOpts::full`];
//! `--runs N` overrides the per-point run count.

#![forbid(unsafe_code)]

pub mod figs;
pub mod report;

use units::TimeNs;

/// Execution options shared by all figures.
#[derive(Clone, Copy, Debug)]
pub struct RunOpts {
    /// pathload runs per configuration point (the paper uses 50 for
    /// Figs. 5–7 and 110 for Figs. 11–14).
    pub runs: usize,
    /// Experiment phase length for the 25-minute TCP experiments
    /// (5 minutes in the paper; shorter in quick mode).
    pub phase: TimeNs,
    /// Root seed; every run derives its own.
    pub seed: u64,
}

impl RunOpts {
    /// The paper's full fidelity.
    pub fn full() -> RunOpts {
        RunOpts {
            runs: 50,
            phase: TimeNs::from_secs(300),
            seed: 20020819, // SIGCOMM 2002 started August 19
        }
    }

    /// Reduced preset for smoke testing (`repro --quick`).
    pub fn quick() -> RunOpts {
        RunOpts {
            runs: 6,
            phase: TimeNs::from_secs(45),
            seed: 20020819,
        }
    }

    /// Per-run derived seed.
    pub fn run_seed(&self, point: usize, run: usize) -> u64 {
        self.seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((point as u64) << 32)
            .wrapping_add(run as u64)
    }
}
