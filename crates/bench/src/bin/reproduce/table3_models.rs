//! Table III — communication and computation statistics of the models.
//!
//! Paper values: MLP 0.3 MB / 0.08 MFLOPs; CNN 0.24 MB / 0.42 MFLOPs;
//! AlexNet 10.42 MB / 2.72 M params / 145.93 MFLOPs. (The paper's "Params"
//! column for MLP/CNN is inconsistent with its own communication sizes by a
//! factor of 10; we report true parameter counts.)

use fedtrip_bench::Cli;
use fedtrip_metrics::report::Table;
use fedtrip_models::{ModelKind, ModelStats};
use serde_json::{json, Value};

pub fn run(cli: &Cli) -> Value {
    // (model, input, classes, paper comm MB, paper params M, paper MFLOPs)
    let rows: Vec<(ModelKind, [usize; 3], usize, f64, f64, f64)> = vec![
        (ModelKind::Mlp, [1, 28, 28], 10, 0.3, 0.8, 0.08),
        (ModelKind::Cnn, [1, 28, 28], 10, 0.24, 0.62, 0.42),
        (ModelKind::AlexNet, [3, 32, 32], 10, 10.42, 2.72, 145.93),
        (
            ModelKind::CifarCnn,
            [3, 32, 32],
            10,
            f64::NAN,
            f64::NAN,
            f64::NAN,
        ),
    ];

    let mut table = Table::new(
        "Table III (paper vs measured; MACs = FLOPs/2 for the paper's counting)",
        &[
            "Model",
            "Comm MB (paper)",
            "Comm MB (ours)",
            "Params M (paper)",
            "Params M (ours)",
            "MFLOPs fwd (paper)",
            "MFLOPs fwd (ours)",
            "MMACs (ours)",
        ],
    );
    let mut artifacts = Vec::new();
    for (kind, shape, classes, p_comm, p_params, p_mflops) in rows {
        let net = kind.build(&shape, classes, cli.seed);
        let s = ModelStats::of(&net);
        let fmt = |v: f64| {
            if v.is_nan() {
                "-".to_string()
            } else {
                format!("{v:.2}")
            }
        };
        table.row(&[
            kind.name().to_string(),
            fmt(p_comm),
            format!("{:.2}", s.comm_mb()),
            fmt(p_params),
            format!("{:.3}", s.params as f64 / 1e6),
            fmt(p_mflops),
            format!("{:.2}", s.mflops_forward()),
            format!("{:.2}", s.mflops_forward() / 2.0),
        ]);
        artifacts.push(json!({
            "model": kind.name(),
            "params": s.params,
            "comm_mb": s.comm_mb(),
            "mflops_forward": s.mflops_forward(),
            "mflops_backward": s.flops_backward as f64 / 1e6,
        }));
    }
    println!("{}", table.render());
    Value::Array(artifacts)
}
