//! The four workloads and the loop that drives them.
//!
//! This module and `bin/e2e.rs` use only this surface of the library, so
//! internal refactors cannot break them: `ExperimentSpec::{quickstart,
//! with_scale, with_seed, to_config, paper_hyper}`, the public fields of
//! `SimulationConfig` (and the enums they hold), `AlgorithmKind::build`,
//! `Simulation::{new, run_round, records, global_params, extend_rounds}`,
//! `Checkpoint::{capture, save, load, restore}`.

use crate::manifest::WORKLOADS;
use crate::report::{peak_rss_mb, Report};
use crate::span::Tracer;
use crate::stats::{median, tail_percentile, Digest};
use fedtrip_core::{
    AlgorithmKind, Checkpoint, CompressionKind, ExperimentSpec, HyperParams, RunMode, Scale,
    SelectionStrategy, Simulation, SimulationConfig,
};
use fedtrip_models::ModelKind;
use std::path::Path;
use std::time::Instant;

/// The accuracy the two learning workloads are timed to.
pub const TARGET_ACCURACY: f64 = 0.85;

/// The fewest timed rounds a run may have: a p90 of fewer has under ten
/// samples beyond it.
const MIN_TIMED_ROUNDS: usize = 100;

/// A workload sized for one run.
#[derive(Clone)]
pub struct Plan {
    /// Workload name.
    pub name: &'static str,
    /// The generated configuration — all the library ever sees of the seed.
    pub cfg: SimulationConfig,
    /// Method under test (FedTrip everywhere).
    pub algorithm: AlgorithmKind,
    /// The paper's hyper-parameters for this cell (μ, ξ = gap).
    pub hyper: HyperParams,
    /// Warm-up server steps: part of set-up, excluded from round timings.
    pub warmup: usize,
    /// Timed server steps.
    pub timed: usize,
    /// `Some(n)`: after every `n` rounds (the warm-up's included) the run
    /// is captured, saved, loaded and restored, and continues in the
    /// restored simulation.
    pub cycle: Option<usize>,
    /// Whether the workload is timed to [`TARGET_ACCURACY`].
    pub learns: bool,
}

/// Size workload `name` for `--seed` and `--seconds`. Round counts are a
/// fixed function of `seconds` (a rate measured once on the 2-core
/// reference box, never the clock), so a run's records and digests depend
/// on `(seed, seconds)` alone.
pub fn plan(name: &str, seed: u64, seconds: u64) -> Option<Plan> {
    let seconds = seconds as f64;
    let rounds = |per_second: f64| ((seconds * per_second) as usize).max(MIN_TIMED_ROUNDS);
    let spec = ExperimentSpec::quickstart().with_seed(seed);
    let default_cfg = spec.with_scale(Scale::Default).to_config();
    let name = WORKLOADS.iter().find(|w| w.name == name)?.name;
    let (cfg, warmup, timed, cycle, learns) = match name {
        // the paper's default cell, exactly what `flrun` runs by default:
        // CNN (61 706 parameters), 4 of 10 clients, 150 samples, batch 12
        "paper_cnn" => (default_cfg, 5, rounds(8.0), None, true),
        "comm_q8_async" => {
            let cfg = SimulationConfig {
                model: ModelKind::Mlp,
                n_clients: 200,
                clients_per_round: 32,
                client_samples_override: Some(32),
                batch_size: 16,
                lr: 0.05,
                mode: RunMode::SemiAsync,
                device_het: 4.0,
                compression: CompressionKind::Q8,
                error_feedback: true,
                downlink_compression: CompressionKind::Q8,
                resync_interval: 10,
                eval_every: 10,
                ..default_cfg
            };
            (cfg, 10, rounds(28.0), None, true)
        }
        "pop_1m_edge" => {
            let cfg = SimulationConfig {
                model: ModelKind::TinyMlp,
                n_clients: 1_000_000,
                clients_per_round: 64,
                client_samples_override: Some(40),
                batch_size: 20,
                lr: 0.05,
                edges: 64,
                selection: SelectionStrategy::Oort,
                availability_period: 24,
                availability_on_fraction: 0.5,
                churn_join_window: 100,
                churn_residency: 200,
                device_het: 4.0,
                eval_every: usize::MAX, // evaluation off
                ..default_cfg
            };
            (cfg, 5, rounds(8.5), None, false)
        }
        "resume_cycle" => {
            let cfg = SimulationConfig {
                n_clients: 50,
                clients_per_round: 10,
                ..spec.with_scale(Scale::Smoke).to_config()
            };
            // a cycle costs ~2 s (17 rounds, then a 13.6 MB snapshot saved
            // and parsed back), so 12 s hold six
            let cycle = 17;
            let cycles = ((seconds / 2.0) as usize).max(MIN_TIMED_ROUNDS.div_ceil(cycle));
            (cfg, cycle, cycles * cycle, Some(cycle), false)
        }
        _ => unreachable!("{name} is in the manifest but has no definition"),
    };
    Some(Plan {
        name,
        cfg: SimulationConfig {
            // a cycled run is budgeted one leg at a time and extended by
            // every restore, as `flrun --resume --rounds` does
            rounds: if cycle.is_some() {
                warmup
            } else {
                warmup + timed
            },
            ..cfg
        },
        algorithm: spec.algorithm,
        hyper: ExperimentSpec::paper_hyper(cfg.dataset, cfg.model),
        warmup,
        timed,
        cycle,
        learns,
    })
}

impl Plan {
    /// The same workload at one fifth length, for the traced run.
    pub fn fifth(mut self) -> Plan {
        let unit = self.cycle.unwrap_or(1);
        self.timed = (self.timed.div_ceil(5 * unit) * unit).max(unit);
        if self.cycle.is_none() {
            self.cfg.rounds = self.warmup + self.timed;
        }
        self
    }

    /// Checkpoint cycles in the timed section.
    pub fn cycles(&self) -> usize {
        self.cycle.map_or(0, |n| self.timed / n)
    }
}

/// What one run of a workload measured.
pub struct Run {
    /// Wall of each set-up repetition: `Simulation::new` plus the warm-up.
    pub setup_s: Vec<f64>,
    /// Wall of each timed `run_round`, in ms.
    pub round_ms: Vec<f64>,
    /// Wall of each timed `capture` + `save`, in ms.
    pub checkpoint_ms: Vec<f64>,
    /// Wall of each timed `load` + `restore`, in ms.
    pub resume_ms: Vec<f64>,
    /// Size of the last snapshot.
    pub checkpoint_bytes: u64,
    /// Wall of the timed section, checkpoint cycles included.
    pub timed_wall_s: f64,
    /// `(round, seconds since workload start)` at which an evaluation
    /// first reached the target.
    pub target_hit: Option<(usize, f64)>,
    /// `VmHWM` at the end of the timed section.
    pub peak_rss_mb: Option<f64>,
    /// The simulation as the last round left it.
    pub sim: Simulation,
}

/// Digests of a simulation's outputs so far: every field of every record,
/// and the global parameters, bit for bit.
pub fn digests(sim: &Simulation) -> [(&'static str, String); 2] {
    let mut records = Digest::default();
    for r in sim.records() {
        records.word(r.round as u64);
        records.f64(r.accuracy.unwrap_or(-1.0));
        for x in [
            r.mean_loss,
            r.cum_comm_bytes,
            r.cum_flops,
            r.virtual_time,
            r.mean_staleness,
            r.comm_bytes_up,
            r.compression_ratio,
            r.comm_bytes_down,
            r.compression_ratio_down,
        ] {
            records.f64(x);
        }
        records.word(r.selected.len() as u64);
        for &c in &r.selected {
            records.word(c as u64);
        }
    }
    let mut params = Digest::default();
    params.f32s(sim.global_params());
    [("records", records.hex()), ("global_params", params.hex())]
}

/// One server step inside a `round` span. A non-finite loss or accuracy is
/// a failed operation. Returns the step's wall in ms and its evaluation.
fn step(
    sim: &mut Simulation,
    tracer: &mut Tracer,
    report: &mut Report,
    after_round: &mut dyn FnMut(&Simulation, &mut Tracer),
) -> (f64, Option<f64>) {
    tracer.enter("round");
    tracer.enter("run_round");
    let t = Instant::now();
    let record = sim.run_round();
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    let (round, loss, accuracy) = (record.round, record.mean_loss, record.accuracy);
    tracer.exit();
    after_round(sim, tracer);
    tracer.exit();
    report.check(
        loss.is_finite() && accuracy.is_none_or(f64::is_finite),
        || format!("round {round}: loss {loss}, accuracy {accuracy:?}"),
    );
    (wall_ms, accuracy)
}

/// Note the first evaluation that reaches the target: `(round, seconds since
/// `start`)`.
fn note_target(
    hit: &mut Option<(usize, f64)>,
    accuracy: Option<f64>,
    sim: &Simulation,
    start: Instant,
) {
    if hit.is_none() && accuracy.is_some_and(|a| a >= TARGET_ACCURACY) {
        *hit = Some((sim.records().len(), start.elapsed().as_secs_f64()));
    }
}

/// One checkpoint cycle: capture + save, then load + restore + extend, and
/// the run continues in the restored simulation. Returns it with the two
/// walls in ms and the snapshot's size.
///
/// # Panics
/// Panics on an I/O error or a `RestoreError`: the run cannot continue, and
/// `e2e` counts the caught panic as a failed operation.
fn checkpoint_cycle(
    sim: Simulation,
    plan: &Plan,
    tracer: &mut Tracer,
    report: &mut Report,
    path: &Path,
) -> (Simulation, f64, f64, u64) {
    let before = digests(&sim);
    tracer.enter("checkpoint");
    let t = Instant::now();
    let snapshot = tracer.span("Checkpoint::capture", || {
        Checkpoint::capture(&sim, plan.algorithm, plan.hyper)
    });
    tracer
        .span("Checkpoint::save", || snapshot.save(path))
        .unwrap_or_else(|e| panic!("cannot save {}: {e}", path.display()));
    let checkpoint_ms = t.elapsed().as_secs_f64() * 1e3;
    tracer.exit();
    drop((sim, snapshot));
    let bytes = std::fs::metadata(path).map_or(0, |m| m.len());

    tracer.enter("resume");
    let t = Instant::now();
    let loaded = tracer
        .span("Checkpoint::load", || Checkpoint::load(path))
        .unwrap_or_else(|e| panic!("{e}"));
    let mut restored = tracer
        .span("Checkpoint::restore", || loaded.restore())
        .unwrap_or_else(|e| panic!("{e}"));
    restored.extend_rounds(restored.records().len() + plan.cycle.unwrap_or(0));
    let resume_ms = t.elapsed().as_secs_f64() * 1e3;
    tracer.exit();
    report.check(digests(&restored) == before, || {
        "records or global parameters changed across save/load/restore".to_string()
    });
    (restored, checkpoint_ms, resume_ms, bytes)
}

/// Run `plan`: `setup_reps` ≥ 1 set-ups (the last one's simulation is kept),
/// then the timed section. `snapshot` is the file checkpoint cycles use;
/// `after_round` runs inside each `round` span after `run_round` returned
/// (the traced run evaluates there; `e2e` does nothing).
pub fn run(
    plan: &Plan,
    setup_reps: usize,
    tracer: &mut Tracer,
    report: &mut Report,
    snapshot: &Path,
    after_round: &mut dyn FnMut(&Simulation, &mut Tracer),
) -> Run {
    let mut setup_s = Vec::new();
    let mut prefix = Vec::new();
    let mut target_hit = None;
    let mut kept = None;
    let mut start = Instant::now();
    for _ in 0..setup_reps {
        // earlier repetitions are dropped first, so peak memory is one
        // simulation's
        drop(kept.take());
        target_hit = None;
        start = Instant::now();
        tracer.enter("setup");
        let mut sim = tracer.span("Simulation::new", || {
            Simulation::new(plan.cfg, plan.algorithm.build(&plan.hyper))
        });
        tracer.enter("warmup");
        for _ in 0..plan.warmup {
            let (_, accuracy) = step(&mut sim, tracer, report, after_round);
            note_target(&mut target_hit, accuracy, &sim, start);
        }
        if plan.cycle.is_some() {
            sim = checkpoint_cycle(sim, plan, tracer, report, snapshot).0;
        }
        tracer.exit();
        tracer.exit();
        setup_s.push(start.elapsed().as_secs_f64());
        prefix.push(digests(&sim));
        kept = Some(sim);
    }
    let mut sim = kept.expect("at least one set-up ran");
    // the repetitions are same-seed runs of the same prefix
    report.check(prefix.windows(2).all(|p| p[0] == p[1]), || {
        "same-seed set-up repetitions produced different digests".to_string()
    });

    let mut round_ms = Vec::with_capacity(plan.timed);
    let (mut checkpoint_ms, mut resume_ms, mut checkpoint_bytes) = (Vec::new(), Vec::new(), 0);
    let timed = Instant::now();
    for r in 1..=plan.timed {
        let (wall_ms, accuracy) = step(&mut sim, tracer, report, after_round);
        round_ms.push(wall_ms);
        note_target(&mut target_hit, accuracy, &sim, start);
        if plan.cycle.is_some_and(|n| r % n == 0) {
            let (restored, save_ms, load_ms, bytes) =
                checkpoint_cycle(sim, plan, tracer, report, snapshot);
            sim = restored;
            checkpoint_ms.push(save_ms);
            resume_ms.push(load_ms);
            checkpoint_bytes = bytes;
        }
    }
    Run {
        setup_s,
        round_ms,
        checkpoint_ms,
        resume_ms,
        checkpoint_bytes,
        timed_wall_s: timed.elapsed().as_secs_f64(),
        target_hit,
        peak_rss_mb: peak_rss_mb(),
        sim,
    }
}

/// Mean of the last ten evaluations.
pub fn final_accuracy(sim: &Simulation) -> Option<f64> {
    let evals: Vec<f64> = sim.records().iter().filter_map(|r| r.accuracy).collect();
    let tail = &evals[evals.len().saturating_sub(10)..];
    (!tail.is_empty()).then(|| tail.iter().sum::<f64>() / tail.len() as f64)
}

/// Turn a run into the end-to-end metrics, counts and digests of `report`.
pub fn summarise(plan: &Plan, run: &Run, report: &mut Report) {
    let timed = run.round_ms.len();
    let setup = median(&run.setup_s);
    report.counts = vec![
        ("warmup_rounds", plan.warmup as u64),
        ("timed_rounds", timed as u64),
        ("checkpoint_cycles", run.checkpoint_ms.len() as u64),
        ("setup_repetitions", run.setup_s.len() as u64),
    ];
    report.digests = digests(&run.sim).to_vec();
    report.push("setup_s", setup, "s", run.setup_s.len());
    report.push("run_wall_s", setup + run.timed_wall_s, "s", 1);
    report.push(
        "rounds_per_s",
        timed as f64 / run.timed_wall_s,
        "1/s",
        timed,
    );
    report.push("round_ms_p50", median(&run.round_ms), "ms", timed);
    if let Some(p90) = tail_percentile(&run.round_ms, 0.90) {
        report.push("round_ms_p90", p90, "ms", timed);
    }
    if let Some(mb) = run.peak_rss_mb {
        report.push("peak_rss_mb", mb, "MB", 1);
    }
    if plan.learns {
        if let Some((round, wall_s)) = run.target_hit {
            report.push("wall_to_target_s", wall_s, "s", 1);
            report.push("rounds_to_target", round as f64, "rounds", 1);
        }
        if let Some(acc) = final_accuracy(&run.sim) {
            report.push("final_accuracy", acc, "fraction", 10);
        }
    }
    if !run.checkpoint_ms.is_empty() {
        let n = run.checkpoint_ms.len();
        report.push("checkpoint_ms_p50", median(&run.checkpoint_ms), "ms", n);
        report.push("resume_ms_p50", median(&run.resume_ms), "ms", n);
        report.push("checkpoint_mb", run.checkpoint_bytes as f64 / 1e6, "MB", 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::RUN_SECONDS;

    #[test]
    fn every_workload_has_a_plan_with_a_reportable_p90() {
        for w in &WORKLOADS {
            for seconds in [1, RUN_SECONDS, 60] {
                let p = plan(w.name, 7, seconds).unwrap();
                assert_eq!(p.name, w.name);
                assert!(p.timed >= MIN_TIMED_ROUNDS, "{} at {seconds} s", w.name);
                assert_eq!(p.cfg.seed, 7);
                assert!(p.cfg.validate().is_ok());
            }
        }
        assert!(plan("nope", 7, 12).is_none());
    }

    #[test]
    fn round_counts_grow_with_seconds_and_cycles_stay_whole() {
        assert_eq!(plan("paper_cnn", 1, 12).unwrap().timed, 100);
        assert_eq!(plan("paper_cnn", 1, 30).unwrap().timed, 240);
        assert_eq!(plan("comm_q8_async", 1, 12).unwrap().timed, 336);
        let r = plan("resume_cycle", 1, 12).unwrap();
        assert_eq!((r.cycles(), r.timed, r.warmup), (6, 102, 17));
        let fifth = r.fifth();
        assert_eq!((fifth.cycles(), fifth.timed), (2, 34));
        assert_eq!(plan("paper_cnn", 1, 12).unwrap().fifth().timed, 20);
    }

    #[test]
    fn the_seed_reaches_the_library_through_the_config_only() {
        let (a, b) = (
            plan("pop_1m_edge", 1, 12).unwrap(),
            plan("pop_1m_edge", 2, 12).unwrap(),
        );
        assert_ne!(a.cfg.seed, b.cfg.seed);
        assert_eq!(
            SimulationConfig { seed: 0, ..a.cfg },
            SimulationConfig { seed: 0, ..b.cfg }
        );
    }
}
