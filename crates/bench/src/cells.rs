//! Cached experiment-cell execution.
//!
//! A *cell* is one complete simulation run, named by the same
//! `{config, algorithm, hyper}` header a checkpoint carries. Because several
//! claims share cells (Table IV and Table V report the same runs in
//! different units; Fig. 5's Dir-0.5 panels are Table IV's CNN rows; the
//! `ext_*` sweeps' uncompressed runs recur across sweeps), every finished
//! cell's round records are persisted under `results/cells/<key>.json` and
//! transparently reused.

use fedtrip_core::algorithms::{AlgorithmKind, HyperParams};
use fedtrip_core::engine::{RoundRecord, Simulation, SimulationConfig};
use fedtrip_core::experiment::ExperimentSpec;
use serde::{Deserialize, Serialize};
use std::fs;
use std::path::Path;

/// A finished cell: the run's header plus its per-round records.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellResult {
    /// The engine configuration that was run.
    pub config: SimulationConfig,
    /// The method that was run.
    pub algorithm: AlgorithmKind,
    /// Its hyper-parameters.
    pub hyper: HyperParams,
    /// Per-round measurements.
    pub records: Vec<RoundRecord>,
}

impl CellResult {
    /// Accuracy trajectory (evaluated rounds only).
    pub fn accuracies(&self) -> Vec<f64> {
        self.records.iter().filter_map(|r| r.accuracy).collect()
    }

    /// First round reaching `target` accuracy.
    pub fn rounds_to(&self, target: f64) -> Option<usize> {
        fedtrip_core::engine::rounds_to_accuracy(&self.records, target)
    }

    /// Cumulative local-compute GFLOPs at the first round reaching `target`.
    pub fn gflops_to(&self, target: f64) -> Option<f64> {
        self.records
            .iter()
            .find(|r| r.accuracy.map(|a| a >= target).unwrap_or(false))
            .map(|r| r.cum_flops / 1e9)
    }

    /// Mean accuracy over the last `n` evaluated rounds.
    pub fn final_accuracy(&self, n: usize) -> f64 {
        fedtrip_core::engine::final_accuracy(&self.records, n)
    }

    /// Accuracy at a given round (last evaluated round `<= round`).
    pub fn accuracy_at(&self, round: usize) -> Option<f64> {
        self.records
            .iter()
            .take_while(|r| r.round <= round)
            .filter_map(|r| r.accuracy)
            .last()
    }
}

/// Stable, filesystem-safe cache key for a run header.
fn cell_key(config: &SimulationConfig, algorithm: AlgorithmKind, hyper: &HyperParams) -> String {
    // hash the canonical JSON encoding
    #[expect(
        clippy::expect_used,
        reason = "plain data structs, shim serializer has no failure path"
    )]
    let json = serde_json::to_string(&(config, algorithm, hyper)).expect("header serializes");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in json.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    format!(
        "{}_{}_{}_r{}_s{}_{:016x}",
        algorithm.name().to_lowercase(),
        config.dataset.name().to_lowercase().replace('-', ""),
        config.model.name().to_lowercase(),
        config.rounds,
        config.seed,
        h
    )
}

/// Run `config` with `algorithm` at `hyper`, or load the cell from the
/// cache when that exact header has already been run. Prints one progress
/// line either way.
pub fn run_or_load(
    results: &Path,
    config: SimulationConfig,
    algorithm: AlgorithmKind,
    hyper: HyperParams,
) -> CellResult {
    let key = cell_key(&config, algorithm, &hyper);
    let path = results.join("cells").join(format!("{key}.json"));
    // the key's hash suffix tells apart cells that differ beyond these columns
    let what = format!(
        "{:<8} {:<8} {:<9} {:<14} {:<9} {}/{} {}",
        algorithm.name(),
        config.dataset.name(),
        config.model.name(),
        config.heterogeneity.name(),
        config.mode.name(),
        config.compression.name(),
        config.downlink_compression.name(),
        &key[key.len() - 16..]
    );
    if let Ok(body) = fs::read_to_string(&path) {
        if let Ok(cell) = serde_json::from_str::<CellResult>(&body) {
            if (cell.config, cell.algorithm, cell.hyper) == (config, algorithm, hyper) {
                println!("  [cached] {what}");
                return cell;
            }
        }
    }
    #[expect(
        clippy::disallowed_methods,
        reason = "the cell's wall time is reported to the user, never fed back into the run"
    )]
    let t0 = std::time::Instant::now();
    let records = Simulation::new(config, algorithm.build(&hyper))
        .run()
        .to_vec();
    let wall = t0.elapsed().as_secs_f64();
    let cell = CellResult {
        config,
        algorithm,
        hyper,
        records,
    };
    if let Some(dir) = path.parent() {
        let _ = fs::create_dir_all(dir);
    }
    if let Ok(json) = serde_json::to_string(&cell) {
        let _ = fs::write(&path, json);
    }
    println!(
        "  [ran {wall:>6.1}s] {what} final {:.1}%",
        cell.final_accuracy(5) * 100.0
    );
    cell
}

/// Run `trials` seeds of the same cell and return all results.
pub fn run_trials(results: &Path, spec: &ExperimentSpec, trials: usize) -> Vec<CellResult> {
    (0..trials)
        .map(|t| {
            let s = spec.with_seed(spec.seed.wrapping_add(1000 * t as u64));
            run_or_load(results, s.to_config(), s.algorithm, s.hyper)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedtrip_core::compression::CompressionKind;
    use fedtrip_core::experiment::Scale;

    fn smoke_spec() -> ExperimentSpec {
        ExperimentSpec::quickstart().with_scale(Scale::Smoke)
    }

    fn run_spec(dir: &Path, spec: &ExperimentSpec) -> CellResult {
        run_or_load(dir, spec.to_config(), spec.algorithm, spec.hyper)
    }

    fn spec_key(spec: &ExperimentSpec) -> String {
        cell_key(&spec.to_config(), spec.algorithm, &spec.hyper)
    }

    #[test]
    fn cache_round_trip() {
        let dir = std::env::temp_dir().join("fedtrip_cells_test");
        let _ = std::fs::remove_dir_all(&dir);
        let spec = smoke_spec();
        let a = run_spec(&dir, &spec);
        let b = run_spec(&dir, &spec);
        // loaded from cache: identical records
        assert!(!a.records.is_empty());
        assert_eq!(a.records, b.records);
    }

    #[test]
    fn different_seeds_get_different_keys() {
        let spec = smoke_spec();
        let (alg, hyper) = (spec.algorithm, spec.hyper);
        let q8 = SimulationConfig {
            compression: CompressionKind::Q8,
            ..spec.to_config()
        };
        for (what, key, same) in [
            ("another seed", spec_key(&spec.with_seed(999)), false),
            ("another codec", cell_key(&q8, alg, &hyper), false),
            (
                "the spec's config",
                cell_key(&spec.to_config(), alg, &hyper),
                true,
            ),
        ] {
            assert_eq!(key == spec_key(&spec), same, "{what}: {key}");
        }
    }

    #[test]
    fn accuracy_at_round_is_monotone_in_round_index() {
        let dir = std::env::temp_dir().join("fedtrip_cells_test2");
        let cell = run_spec(&dir, &smoke_spec());
        let at2 = cell.accuracy_at(2);
        assert!(at2.is_some());
        assert!(cell.accuracy_at(0).is_none());
    }

    #[test]
    fn trials_produce_distinct_seeds() {
        let dir = std::env::temp_dir().join("fedtrip_cells_test3");
        let cells = run_trials(&dir, &smoke_spec(), 2);
        assert_eq!(cells.len(), 2);
        assert_ne!(cells[0].config.seed, cells[1].config.seed);
    }
}
