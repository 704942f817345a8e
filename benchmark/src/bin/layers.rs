//! `layers`: the traced run and the per-layer probes.
//!
//! ```text
//! layers --workload W [--seed N] [--seconds S] [--out DIR]
//! ```
//!
//! First the workload is repeated at one fifth length twice — once with
//! spans kept in memory, once without (their difference is the tracing
//! overhead). Then public functions of every layer are timed from outside at
//! the workload's shape: its model, batch, samples per client, clients per
//! step and codecs. A probe is the median of at least three repetitions
//! after one warm-up, more while its time slice lasts.
//!
//! Unlike `e2e` this binary may call any `pub fn`; it is a separate binary
//! so that a signature change there cannot stop `e2e` from building.

use fedtrip_benchmark::manifest::PER_LAYER;
use fedtrip_benchmark::report::{self, Report};
use fedtrip_benchmark::span::Tracer;
use fedtrip_benchmark::stats::median;
use fedtrip_benchmark::workloads::{self, Plan};
use fedtrip_benchmark::Args;
use fedtrip_core::algorithms::{
    Algorithm, ClientData, ClientState, ClientStateStore, FoldPlan, LocalContext, LocalOutcome,
    ServerFold,
};
use fedtrip_core::compression::{error_feedback_step, Identity};
use fedtrip_core::runtime::{
    AvailabilityModel, ClientExecutor, ClientSizes, DeviceProfiles, EdgeTier, UtilityTable,
};
use fedtrip_core::{
    AlgorithmKind, Checkpoint, CompressionKind, Compressor, RunMode, Sampler, SelectionStrategy,
    Simulation, SimulationConfig,
};
use fedtrip_data::loader::BatchIter;
use fedtrip_data::partition::Partition;
use fedtrip_data::synth::{DatasetSpec, SampleRef, SyntheticVision};
use fedtrip_tensor::conv::ConvGeom;
use fedtrip_tensor::layers::{Conv2d, Layer};
use fedtrip_tensor::optim::{GradAdjust, Optimizer, SgdMomentum};
use fedtrip_tensor::rng::Prng;
use fedtrip_tensor::{compress, linalg, vecops, Scratch, Sequential, Tensor};
use rayon::prelude::*;
use std::hint::black_box;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Time slice of one probe: repetitions continue (beyond the minimum) while
/// it lasts. ~80 probes at this slice keep a traced run near 20 s.
const SLICE: Duration = Duration::from_millis(60);
const MIN_REPS: usize = 3;

/// Wall of `f` in seconds.
fn timed<T>(f: impl FnOnce() -> T) -> f64 {
    let t = Instant::now();
    black_box(f());
    t.elapsed().as_secs_f64()
}

/// Median over repetitions of what `rep` returns — the wall of the part of
/// one repetition it chose to time with [`timed`] — and their number.
fn sample(mut rep: impl FnMut() -> f64) -> (f64, usize) {
    rep(); // warm-up: caches, lazy buffers, page faults
    let started = Instant::now();
    let mut walls = Vec::new();
    while walls.len() < MIN_REPS || (started.elapsed() < SLICE && walls.len() < 10_000) {
        walls.push(rep());
    }
    (median(&walls), walls.len())
}

/// [`sample`] for a repetition that is timed whole.
fn time<T>(mut run: impl FnMut() -> T) -> (f64, usize) {
    sample(|| timed(&mut run))
}

/// Everything the engine assembles in `Simulation::new`, rebuilt from the
/// workload's configuration so the layers below it can be called directly.
struct Fixture {
    plan: Plan,
    dataset: SyntheticVision,
    spec: DatasetSpec,
    partition: Partition,
    template: Sequential,
    global: Vec<f32>,
    /// One client's samples.
    shard: Arc<[SampleRef]>,
    /// One mini-batch of that client.
    x: Tensor,
    y: Vec<usize>,
    /// Clients trained per server step: `K` under the barrier, the buffer
    /// size under semi-async (each fold re-dispatches as many as it folded).
    cohort: Vec<usize>,
    /// A real `local_train` result of client `cohort[0]`.
    outcome: LocalOutcome,
}

impl Fixture {
    fn new(plan: Plan) -> Fixture {
        let cfg = plan.cfg;
        let dataset = SyntheticVision::new(cfg.dataset, cfg.seed);
        let mut spec = *dataset.spec();
        if let Some(n) = cfg.client_samples_override {
            spec.client_samples = n;
        }
        let partition = Partition::build(
            &spec,
            cfg.heterogeneity,
            cfg.n_clients,
            cfg.seed ^ 0x009A_2717,
        );
        let template = cfg
            .model
            .build(&spec.sample_shape(), spec.classes, cfg.seed);
        let global = template.params_flat();
        let per_step = match cfg.mode {
            RunMode::Sync => cfg.clients_per_round,
            RunMode::SemiAsync => cfg.effective_buffer(),
        };
        let cohort: Vec<usize> = sampler(&cfg, cfg.n_clients, cfg.clients_per_round, cfg.selection)
            .select(1)
            .into_iter()
            .take(per_step)
            .collect();
        let shard = partition.shard(cohort[0]);
        let (x, y) = dataset.batch(&shard[..cfg.batch_size.min(shard.len())]);
        // a real first-round result of the cohort's first client, dense
        let outcome = {
            let exec = ClientExecutor {
                cfg: &cfg,
                dataset: &dataset,
                partition: &partition,
                template: &template,
                compressor: &Identity,
                down_delta: false,
                resync_round: false,
                broadcast_epoch: 0,
            };
            let algorithm = plan.algorithm.build(&plan.hyper);
            let mut states = ClientStateStore::new(cfg.n_clients);
            exec.train_batch(algorithm.as_ref(), &global, &mut states, &cohort[..1], 1)
                .remove(0)
        };
        Fixture {
            plan,
            dataset,
            spec,
            partition,
            template,
            global,
            shard,
            x,
            y,
            cohort,
            outcome,
        }
    }

    fn n_params(&self) -> usize {
        self.global.len()
    }

    /// The update the codecs see: a real local-training delta.
    fn delta(&self) -> Vec<f32> {
        vecops::sub(&self.outcome.params, &self.global)
    }

    /// One client's local round from the global model, as the executor
    /// calls it.
    fn local_train(
        &self,
        algorithm: &dyn Algorithm,
        net: &mut Sequential,
        state: &mut ClientState,
        round: usize,
    ) -> LocalOutcome {
        let cfg = &self.plan.cfg;
        net.set_params_flat(&self.global);
        let ctx = LocalContext {
            round,
            client_id: self.cohort[0],
            global: &self.global,
            gap: state.last_round.map(|last| round.saturating_sub(last)),
            epochs: cfg.local_epochs,
            batch_size: cfg.batch_size,
            lr: cfg.lr,
            momentum: cfg.momentum,
            seed: cfg.seed,
        };
        let data = ClientData {
            dataset: &self.dataset,
            refs: &self.shard,
        };
        algorithm.local_train(net, &data, state, &ctx)
    }

    /// Median wall of a second-participation local round under `kind` (the
    /// first fills the historical model FedTrip and MOON push away from).
    fn local_train_secs(&self, kind: AlgorithmKind) -> (f64, usize) {
        let algorithm = kind.build(&self.plan.hyper);
        let mut net = self.template.clone();
        let mut first = ClientState::default();
        self.local_train(algorithm.as_ref(), &mut net, &mut first, 1);
        sample(|| {
            let mut state = first.clone();
            timed(|| self.local_train(algorithm.as_ref(), &mut net, &mut state, 2))
        })
    }

    fn executor<'a>(&'a self, codec: &'a dyn Compressor) -> ClientExecutor<'a> {
        ClientExecutor {
            cfg: &self.plan.cfg,
            dataset: &self.dataset,
            partition: &self.partition,
            template: &self.template,
            compressor: codec,
            down_delta: self.plan.cfg.downlink_compression != CompressionKind::None,
            resync_round: false,
            broadcast_epoch: 0,
        }
    }

    /// A fold over `n` copies of the fixture's outcome, begun and absorbed.
    fn fold_of(&self, algorithm: &dyn Algorithm, n: usize) -> ServerFold {
        let outcomes = vec![&self.outcome; n];
        let mut fold = ServerFold::begin(
            self.n_params(),
            FoldPlan::for_outcomes(outcomes.into_iter()),
        );
        algorithm.server_begin(&mut fold);
        for _ in 0..n {
            fold.absorb(algorithm, &self.outcome, &self.global);
        }
        fold
    }
}

/// The engine's sampler for a federation of `n` clients, with `cfg`'s
/// availability and device knobs.
fn sampler(cfg: &SimulationConfig, n: usize, k: usize, strategy: SelectionStrategy) -> Sampler {
    let samples = cfg.client_samples_override.unwrap_or(1);
    let availability = AvailabilityModel::new(
        cfg.seed,
        n,
        cfg.availability_period,
        cfg.availability_on_fraction,
        cfg.churn_join_window,
        cfg.churn_residency,
    );
    Sampler::new(
        cfg.seed,
        k,
        strategy,
        0.0,
        ClientSizes::Uniform {
            n_clients: n,
            samples,
        },
    )
    .with_availability(availability)
    .with_profiles(DeviceProfiles::new(cfg.seed, n, cfg.device_het as f64))
}

/// Record per-layer metric `name` under the manifest's unit.
fn put(r: &mut Report, name: &str, value: f64, samples: usize) {
    let unit = PER_LAYER
        .iter()
        .find(|(n, _, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} is not in the manifest"))
        .1;
    r.push(name, value, unit, samples);
}

/// Record a timing, scaled from seconds (`1e3` → ms, `1e6` → us, …).
fn put_secs(r: &mut Report, name: &str, scale: f64, (secs, reps): (f64, usize)) -> f64 {
    put(r, name, secs * scale, reps);
    secs
}

/// Record a throughput: `amount` per measured second.
fn put_rate(r: &mut Report, name: &str, amount: f64, (secs, reps): (f64, usize)) -> f64 {
    put(r, name, amount / secs, reps);
    amount / secs
}

/// A metric recorded earlier in the run.
fn get(r: &Report, name: &str) -> f64 {
    r.get(name)
        .unwrap_or_else(|| panic!("{name} not measured yet"))
}

fn tensor_probes(fx: &Fixture, r: &mut Report) {
    for (tag, m, k, n) in [
        ("64", 64, 64, 64),
        ("256", 256, 256, 256),
        ("skinny", 16, 784, 100),
    ] {
        let (a, b, mut c) = (
            vec![0.5f32; m * k],
            vec![0.25f32; k * n],
            vec![0.0f32; m * n],
        );
        let t = time(|| linalg::sgemm(m, k, n, &a, &b, &mut c));
        put_rate(
            r,
            &format!("tensor.sgemm_gflops.{tag}"),
            2.0 * (m * k * n) as f64 / 1e9,
            t,
        );
    }

    let mut net = fx.template.clone();
    net.set_training(true);
    put_secs(r, "tensor.forward_ms", 1e3, time(|| net.forward(&fx.x)));
    let backward = sample(|| {
        net.zero_grads();
        let logits = net.forward(&fx.x);
        timed(|| {
            let (_, grad) = net.loss_head().forward_backward(&logits, &fx.y);
            net.backward(&grad)
        })
    });
    put_secs(r, "tensor.backward_ms", 1e3, backward);

    // the paper CNN's first convolution (1→6, 5×5, pad 2, 28×28), batch 12,
    // whatever the workload's model: the one GEMM-lowered conv every CNN
    // round spends most of its forward time in
    let stem = ConvGeom {
        in_c: 1,
        in_h: 28,
        in_w: 28,
        out_c: 6,
        k_h: 5,
        k_w: 5,
        stride: 1,
        pad: 2,
    };
    let mut rng = Prng::seed_from_u64(fx.plan.cfg.seed);
    let mut conv = Conv2d::new(stem, &mut rng);
    let mut scratch = Scratch::new();
    let input = Tensor::randn(&[12, 1, 28, 28], 1.0, &mut rng);
    let grad = Tensor::randn(&[12, 6, 28, 28], 1.0, &mut rng);
    let fwd = time(|| {
        let out = conv.forward(scratch.take_copy(&input), &mut scratch);
        scratch.give_tensor(out);
    });
    put_secs(r, "tensor.conv_fwd_us.stem", 1e6, fwd);
    let bwd = sample(|| {
        let out = conv.forward(scratch.take_copy(&input), &mut scratch);
        scratch.give_tensor(out);
        conv.zero_grads();
        timed(|| {
            let out = conv.backward(scratch.take_copy(&grad), &mut scratch);
            scratch.give_tensor(out);
        })
    });
    put_secs(r, "tensor.conv_bwd_us.stem", 1e6, bwd);

    // optimizer sweeps over real gradients: plain SGDm, and FedTrip's
    // triplet term fused into the same pass
    let cfg = &fx.plan.cfg;
    net.zero_grads();
    net.train_step(&fx.x, &fx.y);
    let mut opt = SgdMomentum::new(cfg.lr, cfg.momentum);
    put_secs(
        r,
        "tensor.optim_sweep_us.plain",
        1e6,
        time(|| opt.step_adjusted(&mut net, &GradAdjust::None)),
    );
    let triplet = GradAdjust::Triplet {
        mu: fx.plan.hyper.fedtrip_mu,
        xi: 0.5,
        global: &fx.global,
        hist: &fx.outcome.params,
    };
    put_secs(
        r,
        "tensor.optim_sweep_us.triplet",
        1e6,
        time(|| opt.step_adjusted(&mut net, &triplet)),
    );

    net.set_params_flat(&fx.global);
    let step = time(|| {
        net.zero_grads();
        let loss = net.train_step(&fx.x, &fx.y);
        opt.step_adjusted(&mut net, &GradAdjust::None);
        loss
    });
    let flops = (net.flops_forward() + net.flops_backward()) as f64 * fx.y.len() as f64;
    let achieved = put_rate(r, "tensor.train_step_gflops", flops / 1e9, step);
    put(
        r,
        "tensor.peak_frac",
        achieved / get(r, "tensor.sgemm_gflops.256"),
        1,
    );

    put_secs(
        r,
        "tensor.set_params_us",
        1e6,
        time(|| net.set_params_flat(&fx.global)),
    );
    put_secs(r, "tensor.params_flat_us", 1e6, time(|| net.params_flat()));

    let delta = fx.delta();
    let mb = 4.0 * delta.len() as f64 / 1e6;
    put_rate(
        r,
        "tensor.quantize_mbps.q8",
        mb,
        time(|| compress::quantize_affine(&delta, 255)),
    );
    let (min, scale, codes) = compress::quantize_affine(&delta, 255);
    put_rate(
        r,
        "tensor.dequantize_mbps.q8",
        mb,
        time(|| compress::dequantize_affine(&codes, min, scale)),
    );
    let k = delta.len().div_ceil(100);
    put_secs(
        r,
        "tensor.topk_select_us",
        1e6,
        time(|| compress::top_k_indices(&delta, k)),
    );
}

fn data_and_model_probes(fx: &Fixture, r: &mut Report) {
    let cfg = &fx.plan.cfg;
    put_secs(
        r,
        "data.dataset_new_ms",
        1e3,
        time(|| SyntheticVision::new(cfg.dataset, cfg.seed)),
    );
    put_secs(
        r,
        "data.test_set_ms",
        1e3,
        time(|| fx.dataset.test_set(cfg.test_per_class)),
    );

    let (mut x, mut y) = (fx.x.clone(), fx.y.clone());
    let batch = &fx.shard[..fx.y.len()];
    let (secs, reps) = time(|| fx.dataset.batch_into(batch, &mut x, &mut y));
    put(
        r,
        "data.sample_synth_us",
        secs * 1e6 / batch.len() as f64,
        reps,
    );

    let epoch = time(|| {
        let mut rng = Prng::seed_from_u64(cfg.seed);
        let mut batches = BatchIter::new(&fx.dataset, &fx.shard, cfg.batch_size, &mut rng);
        while batches.next_into(&mut x, &mut y) {}
    });
    put_secs(r, "data.epoch_iter_ms", 1e3, epoch);

    let build = || Partition::build(&fx.spec, cfg.heterogeneity, cfg.n_clients, cfg.seed);
    put_secs(r, "data.partition_build_us", 1e6, time(build));
    // cold: a fresh partition materialises one step's cohort
    let (secs, reps) = sample(|| {
        let partition = build();
        timed(|| {
            fx.cohort
                .iter()
                .map(|&c| partition.shard(c).len())
                .sum::<usize>()
        })
    });
    put(
        r,
        "data.shard_cold_us",
        secs * 1e6 / fx.cohort.len() as f64,
        reps,
    );
    let (secs, reps) = time(|| {
        for _ in 0..1000 {
            black_box(fx.partition.shard(fx.cohort[0]));
        }
    });
    put(r, "data.shard_warm_ns", secs * 1e9 / 1000.0, reps);

    let shape = fx.spec.sample_shape();
    put_secs(
        r,
        "models.build_ms",
        1e3,
        time(|| cfg.model.build(&shape, fx.spec.classes, cfg.seed)),
    );
    put_secs(r, "models.clone_us", 1e6, time(|| fx.template.clone()));
}

fn algorithm_probes(fx: &Fixture, r: &mut Report) {
    for kind in [
        AlgorithmKind::FedAvg,
        AlgorithmKind::FedProx,
        AlgorithmKind::FedTrip,
        AlgorithmKind::Moon,
    ] {
        let name = kind.name().to_ascii_lowercase();
        put_secs(
            r,
            &format!("algorithms.local_train_ms.{name}"),
            1e3,
            fx.local_train_secs(kind),
        );
    }
    // Table V: the attach cost of each method over plain FedAvg
    let fedavg = get(r, "algorithms.local_train_ms.fedavg");
    for name in ["fedprox", "fedtrip", "moon"] {
        let ms = get(r, &format!("algorithms.local_train_ms.{name}"));
        put(
            r,
            &format!("algorithms.attach_overhead.{name}"),
            ms / fedavg - 1.0,
            1,
        );
    }
    let wait = get(r, "data.epoch_iter_ms") * fx.plan.cfg.local_epochs as f64;
    put(
        r,
        "algorithms.data_wait_share",
        wait / get(r, "algorithms.local_train_ms.fedtrip"),
        1,
    );

    let mut algorithm = fx.plan.algorithm.build(&fx.plan.hyper);
    algorithm.on_init(fx.plan.cfg.n_clients, fx.n_params());
    let n = fx.cohort.len();
    let mut fold = fx.fold_of(algorithm.as_ref(), n);
    let absorb = time(|| fold.absorb(algorithm.as_ref(), &fx.outcome, &fx.global));
    put_secs(r, "algorithms.fold_absorb_us", 1e6, absorb);
    let merge = sample(|| {
        let (mut a, b) = (
            fx.fold_of(algorithm.as_ref(), 1),
            fx.fold_of(algorithm.as_ref(), 1),
        );
        timed(|| a.merge(algorithm.as_ref(), b))
    });
    put_secs(r, "algorithms.fold_merge_us", 1e6, merge);
    let mut global = fx.global.clone();
    let finish = sample(|| {
        let fold = fx.fold_of(algorithm.as_ref(), n);
        timed(|| algorithm.server_finish(&mut global, fold, 2))
    });
    put_secs(r, "algorithms.fold_finish_us", 1e6, finish);
}

fn runtime_probes(fx: &Fixture, r: &mut Report) {
    let cfg = &fx.plan.cfg;
    let always_on = SimulationConfig {
        availability_period: 0,
        churn_join_window: 0,
        device_het: 1.0,
        ..*cfg
    };
    let none = UtilityTable::new();
    for (tag, n, k) in [("uniform_10", 10, 4), ("uniform_1m", 1_000_000, 64)] {
        let s = sampler(&always_on, n, k, SelectionStrategy::Uniform);
        let mut t = 0;
        let secs = time(|| {
            t += 1;
            s.select_with(t, &none)
        });
        put_secs(r, &format!("runtime.select_us.{tag}"), 1e6, secs);
    }
    // pop_1m_edge's selection whatever the workload: diurnal 24:0.5, churn
    // 100:200, 4x device spread, and a utility table of 1 500 observed losses
    let diurnal_churn = SimulationConfig {
        availability_period: 24,
        availability_on_fraction: 0.5,
        churn_join_window: 100,
        churn_residency: 200,
        device_het: 4.0,
        ..*cfg
    };
    let oort = sampler(&diurnal_churn, 1_000_000, 64, SelectionStrategy::Oort);
    let mut utility = UtilityTable::new();
    for i in 0..1500usize {
        utility.record(i * 661 + 7, 0.5 + (i % 97) as f64 / 50.0);
    }
    let mut t = 40;
    let secs = time(|| {
        t += 1;
        oort.select_with(t, &utility)
    });
    put_secs(r, "runtime.select_us.oort_1m", 1e6, secs);
    let availability = *oort.availability();
    let (secs, reps) = time(|| {
        (0..1000usize)
            .filter(|&c| availability.is_available(c * 997, 50))
            .count()
    });
    put(
        r,
        "runtime.availability_query_ns",
        secs * 1e9 / 1000.0,
        reps,
    );

    // one step's training fan-out, codec included where the workload has one
    let algorithm = fx.plan.algorithm.build(&fx.plan.hyper);
    let codec = cfg.compression.build();
    let exec = fx.executor(codec.as_ref());
    let mut states = ClientStateStore::new(cfg.n_clients);
    let mut round = 0;
    let batch = time(|| {
        round += 1;
        exec.train_batch(
            algorithm.as_ref(),
            &fx.global,
            &mut states,
            &fx.cohort,
            round,
        )
    });
    let batch_ms = put_secs(r, "runtime.train_batch_ms", 1e3, batch) * 1e3;
    let threads = rayon::current_num_threads().min(fx.cohort.len()) as f64;
    let serial_ms = fx.cohort.len() as f64 * get(r, "algorithms.local_train_ms.fedtrip");
    put(r, "runtime.fanout_eff", serial_ms / (threads * batch_ms), 1);

    let c = fx.cohort[0];
    let (secs, reps) = time(|| {
        for _ in 0..1000 {
            let s = states.take(c);
            states.put(c, s);
        }
    });
    put(r, "runtime.state_take_put_ns", secs * 1e9 / 1000.0, reps);

    // 64 uploads through a tier of one edge and a tier of 64
    let clients: Vec<usize> = (0..64).collect();
    let mut fold_ms = [0.0; 2];
    for (i, (tag, edges)) in [("e1_k64", 1), ("e64_k64", 64)].into_iter().enumerate() {
        let tier = EdgeTier::new(edges);
        let t = sample(|| {
            let outcomes = vec![fx.outcome.clone(); 64];
            timed(|| tier.fold_streamed(algorithm.as_ref(), &fx.global, &clients, outcomes))
        });
        fold_ms[i] = put_secs(r, &format!("runtime.edge_fold_ms.{tag}"), 1e3, t);
    }
    put(r, "runtime.edge_overhead", fold_ms[1] / fold_ms[0], 1);
}

fn compression_probes(fx: &Fixture, r: &mut Report) {
    let delta = fx.delta();
    let n = delta.len();
    let mb = 4.0 * n as f64 / 1e6;
    let norm = vecops::norm(&delta);
    for (tag, kind) in [
        ("q8", CompressionKind::Q8),
        ("q4", CompressionKind::Q4),
        ("topk01", CompressionKind::TopK(0.01)),
    ] {
        let codec = kind.build();
        put_rate(
            r,
            &format!("compression.encode_mbps.{tag}"),
            mb,
            time(|| codec.encode(&delta)),
        );
        let wire = codec.encode(&delta);
        put_rate(
            r,
            &format!("compression.decode_mbps.{tag}"),
            mb,
            time(|| codec.decode(&wire, n)),
        );
        let mut residual = None;
        let step = time(|| error_feedback_step(codec.as_ref(), &delta, &mut residual, true));
        put_secs(r, &format!("compression.ef_step_us.{tag}"), 1e6, step);
        put(
            r,
            &format!("compression.ratio.{tag}"),
            4.0 * n as f64 / codec.encoded_len(n) as f64,
            1,
        );
        if tag != "topk01" {
            let back = codec.decode(&wire, n);
            let err = vecops::norm(&vecops::sub(&back, &delta)) / norm;
            put(r, &format!("compression.rel_err.{tag}"), err, 1);
        }
    }
}

fn checkpoint_and_shim_probes(fx: &Fixture, r: &mut Report, out: &Path) {
    // resume_cycle's configuration after two rounds (up to 20 resident
    // clients, ~5 MB), whatever the workload: the others' snapshots run to
    // hundreds of MB, and the rates below do not depend on the size
    let smoke = workloads::plan("resume_cycle", fx.plan.cfg.seed, 1).expect("resume_cycle exists");
    let mut sim = Simulation::new(smoke.cfg, smoke.algorithm.build(&smoke.hyper));
    sim.run_round();
    sim.run_round();
    let path = out.join(format!("probe_snapshot_{}.json", std::process::id()));
    let capture = time(|| Checkpoint::capture(&sim, smoke.algorithm, smoke.hyper));
    put_secs(r, "checkpoint.capture_ms", 1e3, capture);
    let snapshot = Checkpoint::capture(&sim, smoke.algorithm, smoke.hyper);
    let save = time(|| snapshot.save(&path).expect("snapshot is writable"));
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len()) as f64;
    put(r, "checkpoint.bytes", bytes, 1);
    put_rate(r, "checkpoint.save_mbps", bytes / 1e6, save);
    put_secs(r, "checkpoint.save_ms", 1e3, save);
    let load = time(|| Checkpoint::load(&path).expect("snapshot loads"));
    put_rate(r, "checkpoint.load_mbps", bytes / 1e6, load);
    put_secs(r, "checkpoint.load_ms", 1e3, load);
    put_secs(
        r,
        "checkpoint.restore_ms",
        1e3,
        time(|| snapshot.restore().map(|_| ()).expect("snapshot restores")),
    );
    let _ = std::fs::remove_file(&path);

    // an empty parallel region over one item per thread: what the shim's
    // scoped-thread spawn costs every fan-out, edge fold and merge level
    let mut items = vec![0u8; rayon::current_num_threads()];
    let region = time(|| items.par_iter_mut().for_each(|x| *x = x.wrapping_add(1)));
    put_secs(r, "shims.rayon_region_us", 1e6, region);

    let floats: Vec<f32> = (0..262_144)
        .map(|i| (i as f32 * 0.37).sin() * 0.05)
        .collect();
    let text = serde_json::to_string(&floats).expect("floats print");
    let mb = text.len() as f64 / 1e6;
    put_rate(
        r,
        "shims.json_write_mbps",
        mb,
        time(|| serde_json::to_string(&floats)),
    );
    put_rate(
        r,
        "shims.json_parse_mbps",
        mb,
        time(|| serde_json::from_str::<Vec<f32>>(&text)),
    );

    // process start-up + set-up + five smoke rounds, as `flrun --scale smoke`
    let e2e = std::env::current_exe()
        .expect("own path")
        .with_file_name("e2e");
    let spawn = time(|| {
        let status = Command::new(&e2e)
            .arg("smoke")
            .stdout(Stdio::null())
            .status();
        assert!(
            status.is_ok_and(|s| s.success()),
            "cannot run {} smoke",
            e2e.display()
        );
    });
    put_secs(r, "bench.smoke_process_ms", 1e3, spawn);
}

/// The workload at one fifth length, traced and untraced; then one round's
/// layer calls replayed under a `replay_round` span, so the trace shows what
/// a round is made of even though no span sits inside the library yet.
fn traced_run(fx: &Fixture, args: &Args, r: &mut Report) -> Tracer {
    let plan = fx.plan.clone().fifth();
    let snapshot = args
        .out
        .join(format!("trace_snapshot_{}.json", std::process::id()));
    let mut quiet = |_: &Simulation, _: &mut Tracer| {};
    let untraced = workloads::run(&plan, 1, &mut Tracer::off(), r, &snapshot, &mut quiet);

    let mut tracer = Tracer::on();
    tracer.enter(plan.name);
    let mut evaluate = |sim: &Simulation, tracer: &mut Tracer| {
        tracer.span("Simulation::evaluate", || black_box(sim.evaluate()));
    };
    let traced = workloads::run(&plan, 1, &mut tracer, r, &snapshot, &mut evaluate);
    let _ = std::fs::remove_file(&snapshot);

    let rounds = tracer.durations_ms("run_round");
    let timed = &rounds[plan.warmup..];
    put(r, "engine.round_ms", median(timed), timed.len());
    put(
        r,
        "engine.trace_overhead",
        median(timed) / median(&untraced.round_ms) - 1.0,
        timed.len(),
    );
    let evals = tracer.durations_ms("Simulation::evaluate");
    put(r, "engine.evaluate_ms", median(&evals), evals.len());

    if plan.name == "pop_1m_edge" {
        // the sparse store's bound: a client becomes resident only by
        // training, so residents never exceed rounds × K
        let resident = traced.sim.client_states().resident();
        let bound = (plan.warmup + plan.timed) * plan.cfg.clients_per_round;
        r.check(resident <= bound, || {
            format!("{resident} resident client states exceed rounds × K = {bound}")
        });
    }
    replay_round(fx, &mut tracer);
    tracer.exit();
    tracer
}

fn replay_round(fx: &Fixture, tracer: &mut Tracer) {
    let cfg = &fx.plan.cfg;
    let mut algorithm = fx.plan.algorithm.build(&fx.plan.hyper);
    algorithm.on_init(cfg.n_clients, fx.n_params());
    let codec = cfg.compression.build();
    let s = sampler(cfg, cfg.n_clients, cfg.clients_per_round, cfg.selection);
    let mut states = ClientStateStore::new(cfg.n_clients);
    tracer.enter("replay_round");
    tracer.span("Sampler::select_with", || {
        black_box(s.select_with(2, &UtilityTable::new()))
    });
    let outcomes = tracer.span("ClientExecutor::train_batch", || {
        fx.executor(codec.as_ref()).train_batch(
            algorithm.as_ref(),
            &fx.global,
            &mut states,
            &fx.cohort,
            2,
        )
    });
    let tier = EdgeTier::new(cfg.edges);
    let (fold, _, _) = tracer.span("EdgeTier::fold_streamed", || {
        tier.fold_streamed(algorithm.as_ref(), &fx.global, &fx.cohort, outcomes)
    });
    let mut global = fx.global.clone();
    tracer.span("Algorithm::server_finish", || {
        algorithm.server_finish(&mut global, fold, 2)
    });
    if cfg.downlink_compression != CompressionKind::None {
        let down = cfg.downlink_compression.build();
        let delta = vecops::sub(&global, &fx.global);
        tracer.span("broadcast error_feedback_step", || {
            black_box(error_feedback_step(down.as_ref(), &delta, &mut None, true))
        });
    }
    tracer.exit();
}

/// `engine.new_ms`, and the shares that need both a probe and the traced
/// round: evaluation's share of a round, and the share of a round the
/// outside probes account for.
fn engine_probes(fx: &Fixture, r: &mut Report) {
    let cfg = fx.plan.cfg;
    let new = time(|| Simulation::new(cfg, fx.plan.algorithm.build(&fx.plan.hyper)));
    put_secs(r, "engine.new_ms", 1e3, new);

    let round_ms = get(r, "engine.round_ms");
    let evals_per_round = if cfg.eval_every == usize::MAX {
        0.0
    } else {
        1.0 / cfg.eval_every as f64
    };
    let eval_ms = get(r, "engine.evaluate_ms") * evals_per_round;
    put(r, "engine.eval_share", eval_ms / round_ms, 1);

    // per server step: one selection, one training fan-out (codec inside),
    // the fold (absorbs on one edge, the tier's fold and merge tree on 64),
    // one finish, one delta broadcast except on resync rounds, and the
    // step's share of an evaluation
    let cohort = fx.cohort.len() as f64;
    let own = sampler(&cfg, cfg.n_clients, cfg.clients_per_round, cfg.selection);
    let select_ms = time(|| own.select_with(2, &UtilityTable::new())).0 * 1e3;
    let fold_ms = if cfg.edges > 1 {
        get(r, "runtime.edge_fold_ms.e64_k64") * cohort / 64.0
    } else {
        get(r, "algorithms.fold_absorb_us") * cohort / 1e3
    };
    let broadcast_ms = match cfg.downlink_compression {
        CompressionKind::None => 0.0,
        _ => {
            let resyncs = if cfg.resync_interval > 0 {
                1.0 / cfg.resync_interval as f64
            } else {
                0.0
            };
            // q8: the codec of the one workload with a lossy downlink
            get(r, "compression.ef_step_us.q8") / 1e3 * (1.0 - resyncs)
        }
    };
    let attributed = select_ms
        + get(r, "runtime.train_batch_ms")
        + fold_ms
        + get(r, "algorithms.fold_finish_us") / 1e3
        + broadcast_ms
        + eval_ms;
    put(r, "engine.attributed_share", attributed / round_ms, 1);
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("layers: {e}");
            return ExitCode::from(2);
        }
    };
    let plan =
        workloads::plan(&args.workload, args.seed, args.seconds).expect("Args checked the name");
    let mut report = Report {
        workload: plan.name.to_string(),
        seed: args.seed,
        seconds: args.seconds,
        ..Report::default()
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("layers: {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    let fx = Fixture::new(plan);

    let tracer = traced_run(&fx, &args, &mut report);
    tensor_probes(&fx, &mut report);
    data_and_model_probes(&fx, &mut report);
    algorithm_probes(&fx, &mut report);
    runtime_probes(&fx, &mut report);
    compression_probes(&fx, &mut report);
    checkpoint_and_shim_probes(&fx, &mut report, &args.out);
    engine_probes(&fx, &mut report);
    // operations: the two short runs' steps and checks, and one per probe
    report.attempted += report.metrics.len() as u64;
    report.counts = vec![
        ("traced_rounds", fx.plan.clone().fifth().timed as u64),
        ("spans", tracer.spans().len() as u64),
        ("probe_slice_ms", SLICE.as_millis() as u64),
    ];

    report.print();
    let trace = args.out.join(format!("trace_{}.json", fx.plan.name));
    let written = report::write_json(&trace, &tracer.to_json(fx.plan.name))
        .and_then(|()| report.write(&args.out, &format!("layers_{}.json", fx.plan.name)));
    if let Err(e) = written {
        eprintln!("layers: cannot write results: {e}");
        return ExitCode::from(2);
    }
    match report.result_line(PER_LAYER.iter().map(|(name, _, _)| *name)) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("layers: {e}");
            return ExitCode::from(2);
        }
    }
    if report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
