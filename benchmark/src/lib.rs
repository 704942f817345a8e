//! Harness shared by the two benchmark binaries.
//!
//! * `e2e` runs one workload untraced and reports the end-to-end metrics. It
//!   and the modules it uses ([`workloads`] in particular) touch only the
//!   narrow library surface listed in `README.md`, so internal refactors of
//!   the workspace cannot stop it from building.
//! * `layers` times public functions of every layer from outside and repeats
//!   the workload at one fifth length with spans kept in memory.
//!
//! Everything here is the harness's own arithmetic — percentiles, span
//! self-time, digests, the metric manifest, result files and `--compare` —
//! and is unit-tested in place.

pub mod compare;
pub mod manifest;
pub mod report;
pub mod span;
pub mod stats;
pub mod workloads;

/// The flags both binaries take (the driver contract's four, plus where
/// result files go).
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name (see [`manifest::WORKLOADS`]).
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Nominal length of the timed section; round counts scale with it.
    pub seconds: u64,
    /// Directory result and trace files are written to.
    pub out: std::path::PathBuf,
}

impl Args {
    /// Parse `--workload W --seed N --seconds S --out DIR` (`--trace` is
    /// consumed by `run.sh`, which picks the binary, and ignored here).
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut out = Args {
            workload: String::new(),
            seed: 2023,
            seconds: manifest::RUN_SECONDS,
            out: "benchmark/out".into(),
        };
        let mut args = args;
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
            };
            match flag.as_str() {
                "--workload" => out.workload = value,
                "--seed" => out.seed = number()?,
                "--seconds" => out.seconds = number()?.max(1),
                "--out" => out.out = value.into(),
                "--trace" => {}
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !manifest::WORKLOADS.iter().any(|w| w.name == out.workload) {
            let names: Vec<_> = manifest::WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "--workload must be one of {}; got `{}`",
                names.join(", "),
                out.workload
            ));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn contract_flags_parse() {
        let a = parse("--workload paper_cnn --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds),
            ("paper_cnn", 7, 3)
        );
    }

    #[test]
    fn bad_flags_are_errors() {
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload paper_cnn --seed x").is_err());
        assert!(parse("--workload paper_cnn --seed").is_err());
        assert!(parse("--bogus 1").is_err());
    }
}
