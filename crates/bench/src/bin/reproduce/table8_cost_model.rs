//! Table VIII (Appendix A) — attaching-operation overhead of every method.
//!
//! This table is fully analytic: it evaluates the Appendix-A formulas on the
//! paper's three model/dataset configurations and reports both the symbolic
//! row and the concrete per-round numbers, including the MOON/FedTrip ratios
//! the paper quotes in §V-B (50x on MLP, 171.4x on CNN, 1336x on AlexNet).

use fedtrip_bench::Cli;
use fedtrip_core::algorithms::{AlgorithmKind, HyperParams};
use fedtrip_core::costs::CostModel;
use fedtrip_metrics::report::Table;
use fedtrip_models::{ModelKind, ModelStats};
use serde_json::{json, Value};

fn cost_model(kind: ModelKind, shape: [usize; 3], classes: usize, samples: usize) -> CostModel {
    let net = kind.build(&shape, classes, 0);
    let s = ModelStats::of(&net);
    CostModel {
        n_params: s.params,
        fp_per_sample: s.flops_forward,
        bp_per_sample: s.flops_backward,
        batch_size: 50,
        local_iterations: samples.div_ceil(50),
        local_samples: samples,
    }
}

pub fn run(_: &Cli) -> Value {
    let symbolic = [
        ("SCAFFOLD", "2(K+1)|w| + n(FP+BP)", "2|w|"),
        ("MimeLite", "n(FP+BP)", "2|w|"),
        ("MOON", "K*M*(1+p)*FP", "0"),
        ("FedProx", "2K|w|", "0"),
        ("FedDyn", "4K|w|", "0"),
        ("FedTrip", "4K|w|", "0"),
    ];
    let mut sym = Table::new(
        "Symbolic rows (paper Table VIII)",
        &["Method", "Computation overhead", "Comm overhead"],
    );
    for (m, c, comm) in symbolic {
        sym.row(&[m.to_string(), c.to_string(), comm.to_string()]);
    }
    println!("{}", sym.render());

    let configs = [
        (
            "MLP/MNIST",
            cost_model(ModelKind::Mlp, [1, 28, 28], 10, 600),
        ),
        (
            "CNN/MNIST",
            cost_model(ModelKind::Cnn, [1, 28, 28], 10, 600),
        ),
        (
            "AlexNet/CIFAR",
            cost_model(ModelKind::AlexNet, [3, 32, 32], 10, 2000),
        ),
    ];
    let hp = HyperParams::default();
    let mut artifacts = Vec::new();
    for (name, m) in &configs {
        let mut t = Table::new(
            format!("{name}: per-client per-round overhead (GFLOPs / comm bytes)"),
            &["Method", "attach GFLOPs", "extra comm MB", "vs FedTrip"],
        );
        let trip = AlgorithmKind::FedTrip.build(&hp).attach_cost(m).flops;
        for kind in AlgorithmKind::ALL {
            let alg = kind.build(&hp);
            let c = alg.attach_cost(m);
            let ratio = if trip > 0.0 { c.flops / trip } else { 0.0 };
            t.row(&[
                kind.name().to_string(),
                format!("{:.4}", c.flops / 1e9),
                format!("{:.2}", c.extra_comm_bytes() as f64 / 1e6),
                format!("{ratio:.1}x"),
            ]);
            artifacts.push(json!({
                "config": name,
                "method": kind.name(),
                "attach_flops": c.flops,
                "extra_comm_bytes": c.extra_comm_bytes(),
                "ratio_vs_fedtrip": ratio,
            }));
        }
        println!("{}", t.render());
    }

    println!(
        "paper §V-B quotes MOON/FedTrip attach ratios: 50x (MLP), 171.4x (CNN), 1336x (AlexNet)"
    );
    let moon_ratios: Vec<f64> = configs
        .iter()
        .map(|(_, m)| {
            AlgorithmKind::Moon.build(&hp).attach_cost(m).flops
                / AlgorithmKind::FedTrip.build(&hp).attach_cost(m).flops
        })
        .collect();
    println!(
        "measured ratios: {:.1}x (MLP), {:.1}x (CNN), {:.1}x (AlexNet)\n",
        moon_ratios[0], moon_ratios[1], moon_ratios[2]
    );
    Value::Array(artifacts)
}
