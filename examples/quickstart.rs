//! Quickstart: FedTrip vs FedAvg on a non-IID MNIST-like federation.
//!
//! Runs the paper's default cell (CNN, Dir-0.5, 4-of-10 clients) at reduced
//! scale and prints the accuracy trajectory of both methods side by side.
//!
//! ```bash
//! cargo run --release --example quickstart [-- smoke|default|paper]
//! ```

use fedtrip::prelude::*;
use fedtrip_core::engine::rounds_to_accuracy;

fn main() {
    let scale = std::env::args()
        .nth(1)
        .and_then(|s| Scale::parse(&s))
        .unwrap_or(Scale::Default);

    let base = ExperimentSpec::quickstart().with_scale(scale);
    println!(
        "FedTrip quickstart — CNN on MNIST-like, Dir-0.5, {}-of-{} clients, {:?} scale\n",
        base.clients_per_round, base.n_clients, scale
    );

    let mut curves = Vec::new();
    for alg in [AlgorithmKind::FedTrip, AlgorithmKind::FedAvg] {
        let spec = base.with_algorithm(alg);
        #[expect(
            clippy::disallowed_methods,
            reason = "wall time is printed, never fed back into the run"
        )]
        let t0 = std::time::Instant::now();
        let records = spec.run();
        let accs: Vec<f64> = records.iter().filter_map(|r| r.accuracy).collect();
        println!(
            "{:<8} final accuracy {:.2}%  (rounds: {}, wall: {:.1?})",
            alg.name(),
            accs.last().unwrap_or(&0.0) * 100.0,
            records.len(),
            t0.elapsed()
        );
        if let Some(r) = rounds_to_accuracy(&records, 0.80) {
            println!("         reached 80% at round {r}");
        }
        curves.push((alg.name(), accs));
    }

    println!("\nround   FedTrip   FedAvg");
    let n = curves[0].1.len().min(curves[1].1.len());
    for i in (0..n).step_by((n / 20).max(1)) {
        println!(
            "{:>5}   {:>6.2}%   {:>6.2}%",
            i + 1,
            curves[0].1[i] * 100.0,
            curves[1].1[i] * 100.0
        );
    }
}
