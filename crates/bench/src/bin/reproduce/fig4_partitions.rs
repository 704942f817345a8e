//! Fig. 4 — per-client label distributions under the four heterogeneity
//! settings (Dir-0.1, Dir-0.5, Orthogonal-5, Orthogonal-10).
//!
//! Renders the histograms as ASCII heat rows (the paper's bubble plot) and
//! saves the raw counts as JSON.

use fedtrip_bench::Cli;
use fedtrip_data::partition::{HeterogeneityKind, Partition};
use fedtrip_data::synth::DatasetKind;
use serde_json::{json, Value};

fn shade(frac: f64) -> char {
    match (frac * 5.0) as usize {
        0 => '.',
        1 => '-',
        2 => 'o',
        3 => 'O',
        _ => '@',
    }
}

pub fn run(cli: &Cli) -> Value {
    let spec = DatasetKind::MnistLike.spec();
    let mut artifacts = Vec::new();
    for h in [
        HeterogeneityKind::Dirichlet(0.1),
        HeterogeneityKind::Dirichlet(0.5),
        HeterogeneityKind::Orthogonal(5),
        HeterogeneityKind::Orthogonal(10),
    ] {
        let p = Partition::build(&spec, h, 10, cli.seed);
        let hists = p.label_histograms();
        println!("--- {} (skew {:.3}) ---", h.name(), p.skew());
        println!("          class: 0 1 2 3 4 5 6 7 8 9");
        for (ci, hist) in hists.iter().enumerate() {
            let n: usize = hist.iter().sum();
            let row: String = hist
                .iter()
                .map(|&c| format!("{} ", shade(c as f64 / n as f64)))
                .collect();
            let max_class = hist
                .iter()
                .enumerate()
                .max_by_key(|(_, &c)| c)
                .map(|(i, _)| i)
                .unwrap_or(0);
            println!("client {ci:>2}       : {row}  (dominant: {max_class})");
        }
        println!();
        artifacts.push(json!({"regime": h.name(), "skew": p.skew(), "histograms": hists}));
    }
    Value::Array(artifacts)
}
