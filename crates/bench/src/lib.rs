//! # fedtrip-bench
//!
//! Experiment drivers for the paper's evaluation. One `reproduce` binary
//! regenerates every table and figure (`reproduce table4_comm_rounds`,
//! `reproduce all`, ...) and the runtime-extension sweeps:
//! `ext_time_to_accuracy` (sync-barrier vs semi-async virtual wall-clock
//! under heterogeneous device profiles), `ext_comm_efficiency` (codec pair
//! × device spread, scored by virtual seconds and bytes to an adaptive
//! accuracy target) and `ext_scenario` (availability regime × selection ×
//! codec). Its claims share:
//!
//! * [`Cli`] — a tiny flag parser (`--scale smoke|default|paper`,
//!   `--trials N`, `--seed S`, `--results DIR`),
//! * [`cases`] — the paper's cases, the default paper cell, the
//!   six-method sweep and the extension sweeps' scoring helpers,
//! * [`cells`] — the one cached run path of every claim: a *cell* is one
//!   simulation, keyed on its `{config, algorithm, hyper}` header, and its
//!   round records are cached as JSON under `results/` so that claims
//!   sharing cells (Table IV and Table V, Fig. 5, the extension sweeps'
//!   uncompressed runs, ...) never re-run them.
//!
//! Run everything at default scale with:
//!
//! ```bash
//! cargo run --release -p fedtrip-bench --bin reproduce -- all
//! ```

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason,
    clippy::iter_over_hash_type
)]

pub mod cases;
pub mod cells;

use fedtrip_core::experiment::Scale;
use std::path::PathBuf;

/// Common command-line options of the `reproduce` claims.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Execution scale.
    pub scale: Scale,
    /// Repeated trials per cell, read by `fig6_boxplots` (paper: 10;
    /// default here: 1 for tractable single-core runtimes).
    pub trials: usize,
    /// Base seed.
    pub seed: u64,
    /// Directory for JSON artifacts.
    pub results: PathBuf,
}

impl Default for Cli {
    fn default() -> Self {
        Cli {
            scale: Scale::Default,
            trials: 1,
            seed: 2023,
            results: PathBuf::from("results"),
        }
    }
}

/// The experiment flags, printed after every parse error.
pub const USAGE: &str = "--scale smoke|default|paper --trials N --seed S --results DIR";

impl Cli {
    /// Parse flags (program name already stripped). `--trials` must be at
    /// least 1: every trial summary needs a cell to summarise.
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
        let mut cli = Cli::default();
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut value = || {
                args.next()
                    .ok_or_else(|| format!("missing value for {flag}"))
            };
            match flag.as_str() {
                "--scale" => {
                    cli.scale =
                        Scale::parse(&value()?).ok_or("bad --scale (want smoke|default|paper)")?
                }
                "--trials" => {
                    cli.trials = value()?
                        .parse()
                        .ok()
                        .filter(|&t| t > 0)
                        .ok_or("bad --trials (want N >= 1)")?
                }
                "--seed" => cli.seed = value()?.parse().map_err(|_| "bad --seed")?,
                "--results" => cli.results = PathBuf::from(value()?),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(cli)
    }

    /// Human-readable run banner: the claim, the scale and the seed.
    pub fn banner(&self, what: &str) {
        println!("{what}  [scale {:?}, seed {}]\n", self.scale, self.seed);
    }
}

/// Format an accuracy fraction as the paper's percentage style.
pub fn pct(a: f64) -> String {
    format!("{:.2}", a * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_cli() {
        let c = Cli::default();
        assert_eq!(c.scale, Scale::Default);
        assert_eq!(c.trials, 1);
        assert_eq!(c.results, PathBuf::from("results"));
    }

    fn parse(s: &str) -> Result<Cli, String> {
        Cli::parse_from(s.split_whitespace().map(String::from))
    }

    #[test]
    fn flags_parse() {
        let c = parse("--scale smoke --trials 3 --seed 7 --results out").unwrap();
        assert_eq!(c.scale, Scale::Smoke);
        assert_eq!((c.trials, c.seed), (3, 7));
        assert_eq!(c.results, PathBuf::from("out"));
    }

    #[test]
    fn bad_flags_are_errors() {
        assert!(parse("--trials 0").unwrap_err().contains("--trials"));
        assert!(parse("--trials x").is_err());
        assert!(parse("--scale huge").is_err());
        assert_eq!(parse("--seed").unwrap_err(), "missing value for --seed");
        assert_eq!(parse("--bogus 1").unwrap_err(), "unknown flag --bogus");
        assert_eq!(parse("--bogus").unwrap_err(), "unknown flag --bogus");
    }

    #[test]
    fn pct_formats_two_decimals() {
        assert_eq!(pct(0.8765), "87.65");
        assert_eq!(pct(1.0), "100.00");
    }
}
