//! Extension — availability regime × selection strategy × upload codec.
//!
//! The availability layer (`fedtrip_core::runtime::availability`) turns
//! the always-reachable federation of the paper's engine into the one
//! real cross-device deployments see: seed-derived diurnal on/off traces,
//! clients that join mid-federation and leave for good, and synchronous
//! reporting deadlines that drop stragglers. This claim sweeps those
//! regimes against the selection strategies (uniform sampling vs the
//! Oort-style utility-aware ranking) and the upload codecs, and reports
//! the two figures that frame the trade:
//!
//! * **time-to-accuracy** — virtual seconds to an adaptive target (90% of
//!   the always-on / uniform / uncompressed run's final accuracy), the
//!   metric that rewards picking fast, useful clients;
//! * **participation Gini** — inequality of the per-client participation
//!   counts (0 = every client ran equally often, →1 = a few clients did
//!   all the work), the metric that exposes what utility-aware selection
//!   costs in fairness.
//!
//! All runs share a 4x device-speed spread so the speed half of the Oort
//! score has something to rank. The deadline regime derives its cutoff
//! from the measured always-on round time at the same spread (75% of the
//! mean round), which keeps the dropout rate meaningful at every scale.

use fedtrip_bench::cases::{fmt_time, series};
use fedtrip_bench::cells::{run_or_load, CellResult};
use fedtrip_bench::Cli;
use fedtrip_core::compression::CompressionKind;
use fedtrip_core::engine::{participation_counts, SelectionStrategy, SimulationConfig};
use fedtrip_core::experiment::ExperimentSpec;
use fedtrip_metrics::report::Table;
use fedtrip_metrics::{gini, time_to_target};
use serde_json::{json, Value};

/// Device-speed spread shared by every cell: wide enough that the speed
/// half of the Oort score ranks clients meaningfully.
const DEVICE_HET: f32 = 4.0;

/// One availability regime of the sweep, applied on top of a base config.
#[derive(Clone, Copy)]
struct Regime {
    name: &'static str,
    period: usize,
    on_fraction: f32,
    join_window: usize,
    residency: usize,
    /// Deadline as a fraction of the measured always-on mean round time
    /// (0 = no deadline).
    deadline_frac: f64,
}

/// The sweep's regimes, sized relative to the run length so the diurnal
/// cycle and the churn window both fit inside the horizon at every scale.
fn regimes(rounds: usize) -> [Regime; 4] {
    let period = (rounds / 2).max(2);
    let window = (rounds / 2).max(1);
    [
        Regime {
            name: "always-on",
            period: 0,
            on_fraction: 0.5,
            join_window: 0,
            residency: 0,
            deadline_frac: 0.0,
        },
        Regime {
            name: "diurnal",
            period,
            on_fraction: 0.5,
            join_window: 0,
            residency: 0,
            deadline_frac: 0.0,
        },
        Regime {
            name: "diurnal+churn",
            period,
            on_fraction: 0.5,
            join_window: window,
            residency: window.max(2),
            deadline_frac: 0.0,
        },
        Regime {
            name: "deadline",
            period: 0,
            on_fraction: 0.5,
            join_window: 0,
            residency: 0,
            deadline_frac: 0.75,
        },
    ]
}

fn cell_config(
    spec: &ExperimentSpec,
    regime: &Regime,
    selection: SelectionStrategy,
    codec: CompressionKind,
    deadline_secs: f32,
) -> SimulationConfig {
    let mut cfg = spec.to_config();
    cfg.device_het = DEVICE_HET;
    cfg.selection = selection;
    cfg.compression = codec;
    cfg.error_feedback = codec != CompressionKind::None;
    cfg.availability_period = regime.period;
    cfg.availability_on_fraction = regime.on_fraction;
    cfg.churn_join_window = regime.join_window;
    cfg.churn_residency = regime.residency;
    cfg.deadline_secs = deadline_secs;
    cfg
}

/// Participation Gini over the whole federation: counts for every client,
/// zeros included for clients that never ran.
fn participation_gini(cell: &CellResult) -> f64 {
    let counts = participation_counts(&cell.records);
    let dense: Vec<f64> = (0..cell.config.n_clients)
        .map(|c| counts.get(&c).copied().unwrap_or(0) as f64)
        .collect();
    gini(&dense)
}

pub fn run(cli: &Cli) -> Value {
    let spec = ExperimentSpec::quickstart()
        .with_scale(cli.scale)
        .with_seed(cli.seed);
    let selections = [SelectionStrategy::Uniform, SelectionStrategy::Oort];
    let codecs = [CompressionKind::None, CompressionKind::Q8];

    // calibration run: the always-on / uniform / uncompressed federation
    // sets both the adaptive accuracy target and the deadline cutoff
    let run = |cfg| run_or_load(&cli.results, cfg, spec.algorithm, spec.hyper);
    let base = run(cell_config(
        &spec,
        &regimes(1)[0],
        SelectionStrategy::Uniform,
        CompressionKind::None,
        0.0,
    ));
    let target = 0.90 * base.final_accuracy(5);
    let rounds = base.config.rounds;
    let last_time = base.records.last().map_or(0.0, |r| r.virtual_time);
    let mean_round_secs = last_time / rounds.max(1) as f64;
    println!(
        "adaptive target: {:.1}% accuracy | always-on mean round: {:.1} virtual s\n",
        target * 100.0,
        mean_round_secs
    );

    let mut table = Table::new(
        format!(
            "{} | time to {:.1}% accuracy and participation fairness",
            spec.algorithm.name(),
            target * 100.0
        ),
        &[
            "regime",
            "selection",
            "codec",
            "t-to-target",
            "final acc",
            "gini",
            "clients seen",
        ],
    );
    let mut artifacts = Vec::new();

    for regime in &regimes(rounds) {
        let deadline_secs = (regime.deadline_frac * mean_round_secs) as f32;
        for &selection in &selections {
            for &codec in &codecs {
                let cell = run(cell_config(&spec, regime, selection, codec, deadline_secs));
                let (ts, accs) = series(&cell.records, |r| r.virtual_time);
                let t = time_to_target(&ts, &accs, target);
                let g = participation_gini(&cell);
                let seen = participation_counts(&cell.records).len();
                table.row(&[
                    regime.name.to_string(),
                    selection.name().to_string(),
                    codec.name(),
                    fmt_time(t),
                    format!("{:.1}%", cell.final_accuracy(5) * 100.0),
                    format!("{g:.3}"),
                    format!("{seen}/{}", cell.config.n_clients),
                ]);
                artifacts.push(json!({
                    "regime": regime.name,
                    "selection": selection.name(),
                    "codec": codec.name(),
                    "deadline_secs": deadline_secs as f64,
                    "target": target,
                    "time_to_target": t,
                    "final_accuracy": cell.final_accuracy(5),
                    "participation_gini": g,
                    "clients_seen": seen,
                }));
            }
        }
    }

    println!("{}", table.render());
    println!("Reading: diurnal and churn shrink each round's eligible pool, so uniform");
    println!("selection slows while Oort's loss x speed ranking recovers most of the");
    println!("lost time — at the price of a higher participation Gini (it concentrates");
    println!("work on the useful-and-fast clients until exploration rotates them out).");
    Value::Array(artifacts)
}
