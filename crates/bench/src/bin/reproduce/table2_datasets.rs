//! Table II — dataset statistics.
//!
//! Prints the paper's dataset description table next to the synthetic
//! presets actually used, plus the measured label-flip rate and partition
//! skew sanity numbers that define each preset's difficulty.

use fedtrip_bench::Cli;
use fedtrip_data::partition::{HeterogeneityKind, Partition};
use fedtrip_data::synth::{DatasetKind, SampleRef, SyntheticVision};
use fedtrip_metrics::report::Table;
use serde_json::Value;

pub fn run(cli: &Cli) -> Value {
    let mut table = Table::new(
        "Table II (paper values match by construction)",
        &[
            "Dataset",
            "Total",
            "Classes",
            "Channels",
            "Client Samples",
            "flip-rate(meas)",
        ],
    );
    let mut artifacts = Vec::new();
    for kind in DatasetKind::ALL {
        let ds = SyntheticVision::new(kind, cli.seed);
        let spec = *ds.spec();
        // measured flip rate on held-out ids
        let pool = (spec.total_samples / spec.classes) as u32;
        let mut flips = 0usize;
        let mut total = 0usize;
        for c in 0..spec.classes as u16 {
            for i in 0..100u32 {
                if ds.label_of(SampleRef {
                    class: c,
                    id: pool + i,
                }) != c as usize
                {
                    flips += 1;
                }
                total += 1;
            }
        }
        let rate = flips as f64 / total as f64;
        table.row(&[
            kind.name().to_string(),
            spec.total_samples.to_string(),
            spec.classes.to_string(),
            spec.channels.to_string(),
            spec.client_samples.to_string(),
            format!("{rate:.3}"),
        ]);
        artifacts.push((kind.name(), spec, rate));
    }
    println!("{}", table.render());

    // partition snapshot (feeds Fig. 4 too)
    let mnist = DatasetKind::MnistLike.spec();
    let mut skew_table = Table::new(
        "Partition skew (mean TV distance to uniform; 10 clients)",
        &["Regime", "skew", "mean classes/client"],
    );
    for h in [
        HeterogeneityKind::Iid,
        HeterogeneityKind::Dirichlet(0.5),
        HeterogeneityKind::Dirichlet(0.1),
        HeterogeneityKind::Orthogonal(5),
        HeterogeneityKind::Orthogonal(10),
    ] {
        let p = Partition::build(&mnist, h, 10, cli.seed);
        let cpc = p.classes_per_client();
        let mean_cpc = cpc.iter().sum::<usize>() as f64 / cpc.len() as f64;
        skew_table.row(&[
            h.name(),
            format!("{:.3}", p.skew()),
            format!("{mean_cpc:.1}"),
        ]);
    }
    println!("{}", skew_table.render());
    serde_json::to_value(&artifacts)
}
