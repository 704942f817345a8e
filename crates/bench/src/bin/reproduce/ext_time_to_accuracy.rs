//! Extension — virtual wall-clock to a target accuracy, sync vs
//! semi-async, under heterogeneous device profiles.
//!
//! The synchronous barrier waits for the slowest selected client every
//! round, so its virtual time per round is governed by the tail of the
//! device-speed distribution; the semi-async scheduler folds the first `B`
//! arrivals and keeps stragglers' (staleness-discounted) work instead of
//! discarding round boundaries. This claim quantifies that trade on one
//! experiment cell across device speed spreads.
//!
//! The semi-async run gets a 2x fold budget (each fold consumes `B = K/2`
//! client results, half a synchronous round's work), and both modes are
//! scored with `fedtrip_metrics::time_to_target` against an adaptive target
//! (90% of the sync run's final accuracy, which keeps the comparison
//! meaningful at reduced scales).

use fedtrip_bench::cases::{fmt_speedup, fmt_time, series};
use fedtrip_bench::cells::run_or_load;
use fedtrip_bench::Cli;
use fedtrip_core::engine::RunMode;
use fedtrip_core::experiment::ExperimentSpec;
use fedtrip_metrics::report::Table;
use fedtrip_metrics::time_to_target;
use serde_json::{json, Value};

pub fn run(cli: &Cli) -> Value {
    let spec = ExperimentSpec::quickstart()
        .with_scale(cli.scale)
        .with_seed(cli.seed);
    let mut table = Table::new(
        format!("{} | virtual seconds to target", spec.algorithm.name()),
        &[
            "device spread",
            "target",
            "sync t",
            "semiasync t",
            "speedup",
            "sync final",
            "semiasync final",
        ],
    );
    let mut artifacts = Vec::new();

    for device_het in [1.0f32, 2.0, 4.0] {
        let run = |mode: RunMode| {
            let mut cfg = spec.to_config();
            cfg.mode = mode;
            cfg.device_het = device_het;
            if mode == RunMode::SemiAsync {
                cfg.rounds *= 2; // fair budget: one fold == B = K/2 client results
            }
            run_or_load(&cli.results, cfg, spec.algorithm, spec.hyper)
        };
        let sync = run(RunMode::Sync);
        let semi = run(RunMode::SemiAsync);

        let sync_final = sync.final_accuracy(5);
        let semi_final = semi.final_accuracy(5);
        let target = 0.90 * sync_final;

        let (ts, accs) = series(&sync.records, |r| r.virtual_time);
        let t_sync = time_to_target(&ts, &accs, target);
        let (ts, accs) = series(&semi.records, |r| r.virtual_time);
        let t_semi = time_to_target(&ts, &accs, target);

        table.row(&[
            format!("{device_het:.0}x"),
            format!("{:.1}%", target * 100.0),
            fmt_time(t_sync),
            fmt_time(t_semi),
            fmt_speedup(t_sync, t_semi),
            format!("{:.1}%", sync_final * 100.0),
            format!("{:.1}%", semi_final * 100.0),
        ]);
        artifacts.push(json!({
            "device_het": device_het as f64,
            "target": target,
            "sync_time_to_target": t_sync,
            "semiasync_time_to_target": t_semi,
            "sync_final_accuracy": sync_final,
            "semiasync_final_accuracy": semi_final,
        }));
    }

    println!("{}", table.render());
    Value::Array(artifacts)
}
