//! One module per figure of the paper's evaluation section, and the
//! [`REGISTRY`] that names them for the `repro` binary.

pub mod ablations;
pub mod btc;
pub mod common;
pub mod comparison;
pub mod fig01_03;
pub mod fig05;
pub mod fig06;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15_16;
pub mod fig17_18;
pub mod ssthresh;

use crate::RunOpts;

/// A report: runs its experiment, prints the report and returns it.
pub type Figure = fn(&RunOpts) -> String;

/// Every report, in paper order, under the name `repro` takes: the
/// figures, then the studies beyond the paper.
pub const REGISTRY: [(&str, Figure); 16] = [
    ("fig01_03", fig01_03::run),
    ("fig05", fig05::run),
    ("fig06", fig06::run),
    ("fig07", fig07::run),
    ("fig08", fig08::run),
    ("fig09", fig09::run),
    ("fig10", fig10::run),
    ("fig11", fig11::run),
    ("fig12", fig12::run),
    ("fig13", fig13::run),
    ("fig14", fig14::run),
    ("fig15_16", fig15_16::run),
    ("fig17_18", fig17_18::run),
    ("ablations", ablations::run),
    ("comparison", comparison::run),
    ("ssthresh", ssthresh::run),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique() {
        let mut names: Vec<&str> = REGISTRY.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), REGISTRY.len());
    }
}
