//! Fig. 2 — t-SNE visualization of feature representations: the global
//! model at the final round versus client 1's *local* model at the middle
//! and final rounds (FedAvg, CNN on MNIST-like data).
//!
//! The paper's qualitative claim: global-model features separate classes
//! cleanly, local models leave classes mixed, and newer local models beat
//! older ones. We reproduce the local models by fine-tuning the global
//! snapshot on client 1's data (exactly one local round, as the engine
//! does), quantify "mixedness" with a nearest-neighbour separation score on
//! the 2-d embedding, and print coarse ASCII scatter plots.

use fedtrip_bench::cases::paper_cell;
use fedtrip_bench::Cli;
use fedtrip_core::algorithms::AlgorithmKind;
use fedtrip_core::experiment::{ExperimentSpec, Scale};
use fedtrip_data::loader::BatchIter;
use fedtrip_data::partition::HeterogeneityKind;
use fedtrip_data::synth::{DatasetKind, SyntheticVision};
use fedtrip_metrics::tsne::{Tsne, TsneConfig};
use fedtrip_models::ModelKind;
use fedtrip_tensor::optim::{Optimizer, SgdMomentum};
use fedtrip_tensor::rng::Prng;
use fedtrip_tensor::rng_tags;
use serde_json::{json, Value};

/// Mean ratio of nearest same-class distance to nearest other-class
/// distance; lower means classes form tighter, cleaner groups.
fn separation_score(emb: &[(f64, f64)], labels: &[usize]) -> f64 {
    let mut total = 0.0;
    for i in 0..emb.len() {
        let mut same = f64::INFINITY;
        let mut other = f64::INFINITY;
        for j in 0..emb.len() {
            if i == j {
                continue;
            }
            let d = (emb[i].0 - emb[j].0).powi(2) + (emb[i].1 - emb[j].1).powi(2);
            if labels[i] == labels[j] {
                same = same.min(d);
            } else {
                other = other.min(d);
            }
        }
        total += (same / other.max(1e-12)).sqrt();
    }
    total / emb.len() as f64
}

fn ascii_scatter(emb: &[(f64, f64)], labels: &[usize], w: usize, h: usize) -> String {
    let (mut lo_x, mut hi_x, mut lo_y, mut hi_y) = (f64::MAX, f64::MIN, f64::MAX, f64::MIN);
    for &(x, y) in emb {
        lo_x = lo_x.min(x);
        hi_x = hi_x.max(x);
        lo_y = lo_y.min(y);
        hi_y = hi_y.max(y);
    }
    let mut grid = vec![vec![' '; w]; h];
    for (&(x, y), &l) in emb.iter().zip(labels) {
        let cx = (((x - lo_x) / (hi_x - lo_x).max(1e-9)) * (w - 1) as f64) as usize;
        let cy = (((y - lo_y) / (hi_y - lo_y).max(1e-9)) * (h - 1) as f64) as usize;
        grid[cy][cx] = char::from_digit((l % 10) as u32, 10).unwrap_or('?');
    }
    grid.into_iter()
        .map(|row| row.into_iter().collect::<String>())
        .collect::<Vec<_>>()
        .join("\n")
}

/// One local round of client `client` from the given global snapshot.
fn local_round(
    sim: &fedtrip_core::engine::Simulation,
    ds: &SyntheticVision,
    global: &[f32],
    client: usize,
    seed: u64,
) -> Vec<f32> {
    let mut net = sim.global_model();
    net.set_params_flat(global);
    let mut opt = SgdMomentum::new(0.01, 0.9);
    let refs = sim.partition().shard(client);
    let mut rng = Prng::derive(seed, rng_tags::TSNE_INIT, &[client as u64]);
    for (x, y) in BatchIter::new(ds, &refs, sim.config().batch_size, &mut rng) {
        net.zero_grads();
        net.train_step(&x, &y);
        opt.step(&mut net);
    }
    net.params_flat()
}

pub fn run(cli: &Cli) -> Value {
    let rounds_total = if cli.scale == Scale::Smoke { 6 } else { 50 };
    let checkpoint = if cli.scale == Scale::Smoke { 3 } else { 30 };

    let spec = ExperimentSpec {
        rounds: rounds_total,
        algorithm: AlgorithmKind::FedAvg,
        ..paper_cell(
            cli,
            DatasetKind::MnistLike,
            ModelKind::Cnn,
            HeterogeneityKind::Dirichlet(0.5),
        )
    };
    let mut sim = spec.build();
    let ds = SyntheticVision::new(DatasetKind::MnistLike, sim.config().seed);

    let mut global_mid: Option<Vec<f32>> = None;
    for _ in 0..sim.config().rounds {
        sim.run_round();
        if sim.rounds_done() == checkpoint {
            global_mid = Some(sim.global_params().to_vec());
        }
    }
    let global_final = sim.global_params().to_vec();
    let local_mid = local_round(
        &sim,
        &ds,
        global_mid.as_ref().unwrap_or(&global_final),
        1,
        cli.seed,
    );
    let local_final = local_round(&sim, &ds, &global_final, 1, cli.seed);

    let per_class = if cli.scale == Scale::Smoke { 4 } else { 12 };
    let (tx, ty) = ds.test_set(per_class);

    let mut artifacts = Vec::new();
    let mut eval = |name: &str, params: &[f32]| -> f64 {
        let mut net = sim.global_model();
        net.set_params_flat(params);
        let (_, feats) = net.forward_with_features(&tx);
        let dim = feats.len() / ty.len();
        let emb = Tsne::new(TsneConfig {
            perplexity: 10.0,
            iterations: if cli.scale == Scale::Smoke { 60 } else { 300 },
            seed: cli.seed,
            ..TsneConfig::default()
        })
        .embed(feats.as_slice(), dim);
        let score = separation_score(&emb, &ty);
        println!("--- {name}: separation score {score:.3} (lower = cleaner classes) ---");
        println!("{}\n", ascii_scatter(&emb, &ty, 60, 18));
        artifacts.push(json!({"model": name, "separation": score, "embedding": emb, "labels": ty}));
        score
    };

    let s_global = eval(
        &format!("global model @ round {rounds_total} (Fig. 2a)"),
        &global_final,
    );
    let s_local_final = eval(
        &format!("client 1 local model @ round {rounds_total} (Fig. 2b)"),
        &local_final,
    );
    let s_local_mid = eval(
        &format!("client 1 local model @ round {checkpoint} (Fig. 2c)"),
        &local_mid,
    );
    println!(
        "paper's qualitative ordering (global cleanest, older local most mixed):\n  global {s_global:.3} | local@final {s_local_final:.3} | local@mid {s_local_mid:.3}"
    );
    Value::Array(artifacts)
}
