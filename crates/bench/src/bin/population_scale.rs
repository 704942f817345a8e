//! `population_scale` — prove the population axis is flat.
//!
//! Sweeps the federation size `N ∈ {50, 1k, 10k, 100k}` at a fixed `K = 4`
//! and reports, per point, the median wall time of one synchronous round,
//! the resident client-state entries and partition shards (both bounded by
//! `rounds × K`), and the communication bytes charged per round. With the
//! sparse store + lazy shards + lazy profiles, round time and residency
//! must stay flat from `N = 1k` to `N = 100k` — the engine-side analogue
//! of the paper's Table VI scalability study, pushed three orders of
//! magnitude beyond it.
//!
//! ```bash
//! cargo run --release -p fedtrip-bench --bin population_scale -- --trials 3
//! ```
//!
//! Writes `results/population_scale.json`.

use fedtrip_bench::population::{measure_population, PopulationPoint, SWEEP_K, SWEEP_NS};
use fedtrip_bench::Cli;
use std::fs;

fn main() {
    let cli = Cli::parse();
    cli.banner("population_scale — round cost & resident state vs federation size (K = 4 fixed)");

    let rounds = 3;
    let reps = cli.trials;
    println!(
        "{:>9}  {:>14}  {:>16}  {:>15}  {:>13}",
        "N", "ms/round (med)", "resident entries", "resident shards", "MB/round"
    );
    let mut points: Vec<PopulationPoint> = Vec::new();
    for &n in &SWEEP_NS {
        let p = measure_population(n, SWEEP_K, rounds, reps, cli.seed);
        println!(
            "{:>9}  {:>14.3}  {:>10} / {:>3}  {:>9} / {:>3}  {:>13.3}",
            p.n_clients,
            p.median_round_ns as f64 / 1e6,
            p.resident_entries,
            rounds * SWEEP_K,
            p.resident_shards,
            rounds * SWEEP_K,
            p.bytes_per_round / 1e6,
        );
        points.push(p);
    }

    // flatness: N=1k vs N=100k, ignoring the tiny-N point where constant
    // overheads dominate
    let big = points
        .iter()
        .filter(|p| p.n_clients >= 1_000)
        .collect::<Vec<_>>();
    if big.len() >= 2 {
        let first = big.first().unwrap().median_round_ns as f64;
        let last = big.last().unwrap().median_round_ns as f64;
        println!(
            "\nround-time ratio N={} / N={}: {:.2}x (flat ≈ 1.0x)",
            big.last().unwrap().n_clients,
            big.first().unwrap().n_clients,
            last / first,
        );
    }

    fs::create_dir_all(&cli.results).expect("create results dir");
    let path = cli.results.join("population_scale.json");
    fs::write(
        &path,
        serde_json::to_string_pretty(&points).expect("serialize"),
    )
    .expect("write results");
    println!("wrote {}", path.display());
}
