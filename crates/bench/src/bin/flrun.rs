//! `flrun` — run any single federated experiment from the command line.
//!
//! ```bash
//! cargo run --release -p fedtrip-bench --bin flrun -- \
//!     --alg fedtrip --dataset mnist --model cnn --het dir0.5 \
//!     --clients 10 --per-round 4 --rounds 30 --mu 0.4 \
//!     --scale default --checkpoint run.ckpt
//! ```
//!
//! Prints the accuracy trajectory and summary on stdout (diagnostics —
//! partition-regime notes, residency, checkpoint paths — go to stderr so
//! piped output stays a clean table); optionally checkpoints the finished
//! run so it can be extended later with `--resume run.ckpt --rounds N`.
//! Upload compression is `--compress q8|q4|topk:0.01` (optionally with
//! `--error-feedback`); the virtual clock then charges the encoded uplink
//! bytes, visible in the `up-MB/rnd` column. Downlink compression is
//! `--compress-down q8|q4|topk:F`: the server broadcasts quantized global
//! *deltas* with its own error-feedback residual, re-anchoring with a
//! dense full-model resync every `--resync R` rounds (and on demand for
//! churn joiners that lack a broadcast base); encoded downlink bytes show
//! up in the `down-MB/rnd` column. `--edges E` shards clients
//! across `E` edge aggregators with per-edge clocks and a parallel root
//! merge — the knob that makes million-client federations tractable.
//! `--availability diurnal[:PERIOD[:FRAC]]` gives every client a
//! seed-derived on/off day, `--churn JOIN[:RESIDENCY]` staggers joins and
//! departures across the run, `--deadline SECS` drops synchronous
//! stragglers at the reporting deadline, and `--selection oort` switches
//! to utility-aware (loss × speed) client selection.

use fedtrip_core::algorithms::AlgorithmKind;
use fedtrip_core::checkpoint::Checkpoint;
use fedtrip_core::compression::CompressionKind;
use fedtrip_core::engine::{RunMode, SelectionStrategy, Simulation, SimulationConfig};
use fedtrip_core::experiment::{ExperimentSpec, Scale};
use fedtrip_data::partition::{HeterogeneityKind, ShardRegime};
use fedtrip_data::synth::DatasetKind;
use fedtrip_models::ModelKind;
use fedtrip_tensor::optim::LrSchedule;
use std::path::PathBuf;

fn die(msg: &str) -> ! {
    eprintln!("flrun: {msg}");
    eprintln!(
        "usage: flrun [--alg NAME] [--dataset mnist|fmnist|emnist|cifar] \
         [--model mlp|cnn|alexnet|cifarcnn] [--het iid|dirA|orthK] \
         [--clients N] [--per-round K] [--rounds T] [--epochs E] [--mu X] \
         [--seed S] [--scale smoke|default|paper] \
         [--selection uniform|roundrobin|weighted|oort] [--failure-prob P] \
         [--lr-schedule const|step:E:F|cosine:T:M] [--mode sync|semiasync] \
         [--device-het S] [--buffer B] [--compress none|q8|q4|topk:F] \
         [--error-feedback] [--compress-down none|q8|q4|topk:F] [--resync R] \
         [--edges E] \
         [--availability always|diurnal[:PERIOD[:FRAC]]] [--churn JOIN[:RESIDENCY]] \
         [--deadline SECS] [--checkpoint FILE] [--resume FILE]"
    );
    std::process::exit(2);
}

/// Parse `always` / `diurnal[:PERIOD[:FRAC]]` into
/// `(availability_period, availability_on_fraction)`; the diurnal
/// defaults are a 24-round day with a 50% duty cycle.
fn parse_availability(s: &str) -> Option<(usize, f32)> {
    let l = s.to_ascii_lowercase();
    if l == "always" || l == "always-on" {
        return Some((0, 0.5));
    }
    let mut parts = l.split(':');
    if parts.next()? != "diurnal" {
        return None;
    }
    let period: usize = match parts.next() {
        Some(p) => p.parse().ok()?,
        None => 24,
    };
    let frac: f32 = match parts.next() {
        Some(f) => f.parse().ok()?,
        None => 0.5,
    };
    if parts.next().is_some() || period == 0 || frac <= 0.0 || frac > 1.0 {
        return None;
    }
    Some((period, frac))
}

/// Parse `JOIN[:RESIDENCY]` into `(churn_join_window, churn_residency)`;
/// residency defaults to 16 rounds.
fn parse_churn(s: &str) -> Option<(usize, usize)> {
    let mut parts = s.split(':');
    let join: usize = parts.next()?.parse().ok()?;
    let residency: usize = match parts.next() {
        Some(r) => r.parse().ok()?,
        None => 16,
    };
    if parts.next().is_some() || residency == 0 {
        return None;
    }
    Some((join, residency))
}

/// Parse `const` / `step:EVERY:FACTOR` / `cosine:TOTAL:MIN_LR`.
fn parse_lr_schedule(s: &str) -> Option<LrSchedule> {
    let l = s.to_ascii_lowercase();
    if l == "const" || l == "constant" {
        return Some(LrSchedule::Constant);
    }
    let mut parts = l.split(':');
    match parts.next()? {
        "step" => {
            let every = parts.next()?.parse().ok()?;
            let factor = parts.next()?.parse().ok()?;
            Some(LrSchedule::StepDecay { every, factor })
        }
        "cosine" => {
            let total = parts.next()?.parse().ok()?;
            let min_lr = parts.next()?.parse().ok()?;
            Some(LrSchedule::Cosine { total, min_lr })
        }
        _ => None,
    }
}

/// An engine flag's edit of the config `to_config()` builds: these knobs
/// sit on `SimulationConfig` but not on `ExperimentSpec`, and a resumed
/// checkpoint pins them.
type ConfigEdit = Box<dyn FnOnce(&mut SimulationConfig)>;

fn parse_het(s: &str) -> Option<HeterogeneityKind> {
    let l = s.to_ascii_lowercase();
    if l == "iid" {
        return Some(HeterogeneityKind::Iid);
    }
    if let Some(a) = l.strip_prefix("dir") {
        return a.parse().ok().map(HeterogeneityKind::Dirichlet);
    }
    if let Some(k) = l.strip_prefix("orth") {
        return k.parse().ok().map(HeterogeneityKind::Orthogonal);
    }
    None
}

fn parse_dataset(s: &str) -> Option<DatasetKind> {
    match s.to_ascii_lowercase().as_str() {
        "mnist" => Some(DatasetKind::MnistLike),
        "fmnist" => Some(DatasetKind::FmnistLike),
        "emnist" => Some(DatasetKind::EmnistLike),
        "cifar" | "cifar10" => Some(DatasetKind::Cifar10Like),
        _ => None,
    }
}

fn parse_model(s: &str) -> Option<ModelKind> {
    match s.to_ascii_lowercase().as_str() {
        "mlp" => Some(ModelKind::Mlp),
        "cnn" => Some(ModelKind::Cnn),
        "alexnet" => Some(ModelKind::AlexNet),
        "cifarcnn" => Some(ModelKind::CifarCnn),
        "tinymlp" => Some(ModelKind::TinyMlp),
        "tinycnn" => Some(ModelKind::TinyCnn),
        _ => None,
    }
}

fn main() {
    let mut spec = ExperimentSpec::quickstart().with_scale(Scale::Default);
    spec.rounds = 30;
    let mut edits: Vec<ConfigEdit> = Vec::new();
    let mut checkpoint: Option<PathBuf> = None;
    let mut resume: Option<PathBuf> = None;
    let mut extra_rounds: Option<usize> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let val = || -> &str {
            args.get(i + 1)
                .map(|s| s.as_str())
                .unwrap_or_else(|| die(&format!("missing value for {}", args[i])))
        };
        match args[i].as_str() {
            "--alg" => {
                spec.algorithm = AlgorithmKind::parse(val()).unwrap_or_else(|| die("unknown --alg"))
            }
            "--dataset" => {
                spec.dataset = parse_dataset(val()).unwrap_or_else(|| die("unknown --dataset"))
            }
            "--model" => spec.model = parse_model(val()).unwrap_or_else(|| die("unknown --model")),
            "--het" => {
                spec.heterogeneity = parse_het(val()).unwrap_or_else(|| die("unknown --het"))
            }
            "--clients" => spec.n_clients = val().parse().unwrap_or_else(|_| die("bad --clients")),
            "--per-round" => {
                spec.clients_per_round = val().parse().unwrap_or_else(|_| die("bad --per-round"))
            }
            "--rounds" => {
                let r: usize = val().parse().unwrap_or_else(|_| die("bad --rounds"));
                spec.rounds = r;
                extra_rounds = Some(r);
            }
            "--epochs" => spec.local_epochs = val().parse().unwrap_or_else(|_| die("bad --epochs")),
            "--mu" => spec.hyper.fedtrip_mu = val().parse().unwrap_or_else(|_| die("bad --mu")),
            "--seed" => spec.seed = val().parse().unwrap_or_else(|_| die("bad --seed")),
            "--scale" => spec.scale = Scale::parse(val()).unwrap_or_else(|| die("bad --scale")),
            "--selection" => {
                let s = SelectionStrategy::parse(val()).unwrap_or_else(|| die("bad --selection"));
                edits.push(Box::new(move |c| c.selection = s));
            }
            "--failure-prob" => {
                let p: f32 = val().parse().unwrap_or_else(|_| die("bad --failure-prob"));
                if !(0.0..=1.0).contains(&p) {
                    die("--failure-prob must be in [0, 1]");
                }
                edits.push(Box::new(move |c| c.failure_prob = p));
            }
            "--lr-schedule" => {
                let ls = parse_lr_schedule(val()).unwrap_or_else(|| die("bad --lr-schedule"));
                edits.push(Box::new(move |c| c.lr_schedule = ls));
            }
            "--mode" => {
                let m = RunMode::parse(val()).unwrap_or_else(|| die("bad --mode"));
                edits.push(Box::new(move |c| c.mode = m));
            }
            "--device-het" => {
                let d = val().parse().unwrap_or_else(|_| die("bad --device-het"));
                edits.push(Box::new(move |c| c.device_het = d));
            }
            "--buffer" => {
                let b = val().parse().unwrap_or_else(|_| die("bad --buffer"));
                edits.push(Box::new(move |c| c.async_buffer = b));
            }
            "--compress" => {
                let k = CompressionKind::parse(val()).unwrap_or_else(|| die("bad --compress"));
                edits.push(Box::new(move |c| c.compression = k));
            }
            "--error-feedback" => {
                // boolean flag: consumes no value
                edits.push(Box::new(|c| c.error_feedback = true));
                i += 1;
                continue;
            }
            "--compress-down" => {
                let k = CompressionKind::parse(val()).unwrap_or_else(|| die("bad --compress-down"));
                edits.push(Box::new(move |c| c.downlink_compression = k));
            }
            "--resync" => {
                let r = val().parse().unwrap_or_else(|_| die("bad --resync"));
                edits.push(Box::new(move |c| c.resync_interval = r));
            }
            "--edges" => {
                let e = val().parse().unwrap_or_else(|_| die("bad --edges"));
                edits.push(Box::new(move |c| c.edges = e));
            }
            "--availability" => {
                let (period, frac) =
                    parse_availability(val()).unwrap_or_else(|| die("bad --availability"));
                edits.push(Box::new(move |c| {
                    c.availability_period = period;
                    c.availability_on_fraction = frac;
                }));
            }
            "--churn" => {
                let (join, residency) = parse_churn(val()).unwrap_or_else(|| die("bad --churn"));
                edits.push(Box::new(move |c| {
                    c.churn_join_window = join;
                    c.churn_residency = residency;
                }));
            }
            "--deadline" => {
                let d: f32 = val().parse().unwrap_or_else(|_| die("bad --deadline"));
                if !d.is_finite() || d < 0.0 {
                    die("--deadline must be a finite number of virtual seconds >= 0");
                }
                edits.push(Box::new(move |c| c.deadline_secs = d));
            }
            "--checkpoint" => checkpoint = Some(PathBuf::from(val())),
            "--resume" => resume = Some(PathBuf::from(val())),
            other => die(&format!("unknown flag {other}")),
        }
        i += 2;
    }

    let mut sim = match &resume {
        Some(path) => {
            if !edits.is_empty() {
                die("engine overrides (--selection/--failure-prob/--lr-schedule/--mode/--device-het/--buffer/--compress/--error-feedback/--compress-down/--resync/--edges/--availability/--churn/--deadline) cannot be combined with --resume; the checkpoint pins them");
            }
            let ckpt = Checkpoint::load(path).unwrap_or_else(|e| die(&format!("resume: {e}")));
            eprintln!(
                "resuming {} on {} from round {}",
                ckpt.algorithm.name(),
                ckpt.config.dataset.name(),
                ckpt.state.records.len()
            );
            spec.algorithm = ckpt.algorithm;
            spec.hyper = ckpt.hyper;
            let mut sim = ckpt
                .restore()
                .unwrap_or_else(|e| die(&format!("resume: {e}")));
            if let Some(r) = extra_rounds {
                sim.extend_rounds(r);
            }
            sim
        }
        None => {
            let mut cfg = spec.to_config();
            for edit in edits {
                edit(&mut cfg);
            }
            if let CompressionKind::TopK(f) = cfg.compression {
                if f > 0.5 {
                    eprintln!(
                        "flrun: warning: topk:{f} expands the uplink (8 bytes per kept \
                         coordinate vs 4 dense); fractions <= 0.5 compress"
                    );
                }
            }
            cfg.validate()
                .and_then(|()| spec.algorithm.validate(&spec.hyper))
                .unwrap_or_else(|e| die(&e));
            let avail = if cfg.availability_period > 0 {
                format!(
                    " | avail diurnal:{}:{:.2}",
                    cfg.availability_period, cfg.availability_on_fraction
                )
            } else {
                String::new()
            };
            let churn = if cfg.churn_join_window > 0 {
                format!(" | churn {}:{}", cfg.churn_join_window, cfg.churn_residency)
            } else {
                String::new()
            };
            let deadline = if cfg.deadline_secs > 0.0 {
                format!(" | deadline {:.1}s", cfg.deadline_secs)
            } else {
                String::new()
            };
            let down = if cfg.downlink_compression != CompressionKind::None {
                format!(
                    " | compress-down {} (resync {})",
                    cfg.downlink_compression.name(),
                    cfg.resync_interval,
                )
            } else {
                String::new()
            };
            println!(
                "{} | {} / {} | {} | {}-of-{} clients | {} rounds | scale {:?} | mode {} | device-het {:.1}x | compress {}{}{down} | edges {}{avail}{churn}{deadline}",
                spec.algorithm.name(),
                spec.model.name(),
                spec.dataset.name(),
                spec.heterogeneity.name(),
                spec.clients_per_round,
                spec.n_clients,
                spec.rounds,
                spec.scale,
                cfg.mode.name(),
                cfg.device_het,
                cfg.compression.name(),
                if cfg.error_feedback { " +ef" } else { "" },
                cfg.edges,
            );
            Simulation::new(cfg, spec.algorithm.build(&spec.hyper))
        }
    };

    // diagnostics go to stderr so piped stdout stays a clean results table
    if sim.partition().regime() == ShardRegime::Independent {
        eprintln!(
            "note: {} clients x {} samples exceeds the dataset's finite pools; shards draw \
             per-client with replacement (independent regime) instead of disjointly",
            sim.partition().n_clients(),
            sim.partition().client_samples(),
        );
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "the `wall:` line reports run time to the user, never fed back into the run"
    )]
    let t0 = std::time::Instant::now();
    sim.run();
    let records = sim.records();
    println!(
        "\nround  acc%    loss    cum-GFLOPs  cum-comm-MB  up-MB/rnd  down-MB/rnd      virt-s  staleness"
    );
    let step = (records.len() / 15).max(1);
    for r in records.iter().step_by(step) {
        println!(
            "{:>5}  {:>5.1}  {:>6.3}  {:>10.2}  {:>11.2}  {:>9.3}  {:>11.3}  {:>10.1}  {:>9.2}",
            r.round,
            r.accuracy.unwrap_or(f64::NAN) * 100.0,
            r.mean_loss,
            r.cum_flops / 1e9,
            r.cum_comm_bytes / 1e6,
            r.comm_bytes_up / 1e6,
            r.comm_bytes_down / 1e6,
            r.virtual_time,
            r.mean_staleness,
        );
    }
    let ratio = records.last().map(|r| r.compression_ratio).unwrap_or(1.0);
    let ratio_down = records
        .last()
        .map(|r| r.compression_ratio_down)
        .unwrap_or(1.0);
    println!(
        "\nfinal accuracy (last 10 evals): {:.2}%   virtual: {:.1}s   uplink ratio: {:.2}x   downlink ratio: {:.2}x   wall: {:.1?}",
        sim.final_accuracy(10) * 100.0,
        sim.virtual_time(),
        ratio,
        ratio_down,
        t0.elapsed()
    );
    eprintln!(
        "resident client state: {} of {} clients (sparse store + lazy shards keep memory O(participants))",
        sim.client_states().resident(),
        sim.config().n_clients,
    );
    let edges = sim.config().edges;
    if edges > 1 {
        eprintln!(
            "edge tier: {} aggregators, ~{} resident clients per edge (cohorts shard client mod E)",
            edges,
            sim.client_states().resident().div_ceil(edges),
        );
    }

    if let Some(path) = checkpoint {
        Checkpoint::capture(&sim, spec.algorithm, spec.hyper)
            .save(&path)
            .unwrap_or_else(|e| die(&format!("checkpoint: {e}")));
        eprintln!("checkpoint written to {}", path.display());
    }
}
