//! Extension — virtual wall-clock and total bytes to a target
//! accuracy across codec pairs (uplink x downlink) and device-speed
//! spreads.
//!
//! Every method ships `|w|` dense f32 parameters up each round and the
//! server broadcasts the global model back down; the compression subsystem
//! (`fedtrip_core::compression`) shrinks both halves of the wire and the
//! virtual clock charges exactly the encoded bytes. Uplinks compress the
//! client update directly (with client-side error feedback); downlinks
//! broadcast quantized global *deltas* with a server-side error-feedback
//! residual and a periodic dense resync. This claim quantifies the trade:
//! lossy codecs slightly perturb each round but cut link seconds and bytes
//! per round, so time-to-target drops — hardest under wide device spreads,
//! where the synchronous barrier waits on the slowest link — and closing
//! the downlink roughly halves the remaining byte bill on top of
//! uplink-only compression.
//!
//! Codec pairs are scored against an *adaptive* target — 90% of the
//! uncompressed run's final accuracy at the same device spread — which
//! keeps the comparison meaningful at reduced scales.

use fedtrip_bench::cases::{fmt_speedup, fmt_time, series};
use fedtrip_bench::cells::{run_or_load, CellResult};
use fedtrip_bench::Cli;
use fedtrip_core::compression::CompressionKind;
use fedtrip_core::experiment::ExperimentSpec;
use fedtrip_metrics::report::Table;
use fedtrip_metrics::time_to_target;
use serde_json::{json, Value};

/// Dense resync cadence whenever a downlink codec is active: frequent
/// enough that quantization drift never accumulates past a handful of
/// rounds, sparse enough that delta rounds dominate the byte bill.
const RESYNC_INTERVAL: usize = 5;

/// One codec pair at one device spread.
fn run_pair(
    cli: &Cli,
    spec: &ExperimentSpec,
    up: CompressionKind,
    down: CompressionKind,
    spread: f32,
) -> CellResult {
    let mut cfg = spec.to_config();
    cfg.compression = up;
    cfg.error_feedback = up != CompressionKind::None;
    cfg.downlink_compression = down;
    cfg.resync_interval = if down != CompressionKind::None {
        RESYNC_INTERVAL
    } else {
        0
    };
    cfg.device_het = spread;
    run_or_load(&cli.results, cfg, spec.algorithm, spec.hyper)
}

fn fmt_mb(b: Option<f64>) -> String {
    b.map(|b| format!("{:.2}", b / 1e6))
        .unwrap_or_else(|| "—".into())
}

pub fn run(cli: &Cli) -> Value {
    let spec = ExperimentSpec::quickstart()
        .with_scale(cli.scale)
        .with_seed(cli.seed);
    let pairs = [
        (CompressionKind::None, CompressionKind::None),
        (CompressionKind::Q8, CompressionKind::None),
        (CompressionKind::Q8, CompressionKind::Q8),
        (CompressionKind::Q4, CompressionKind::Q4),
    ];

    let mut table = Table::new(
        format!(
            "{} | virtual seconds and total MB to target (lossy codecs run with error feedback; \
             downlink deltas resync every {RESYNC_INTERVAL} rounds)",
            spec.algorithm.name()
        ),
        &[
            "up",
            "down",
            "spread",
            "ratio-up",
            "ratio-down",
            "target",
            "t-to-target",
            "MB-to-target",
            "speedup",
            "final acc",
        ],
    );
    let mut artifacts = Vec::new();

    for device_het in [1.0f32, 2.0, 4.0] {
        let mut baseline_time: Option<f64> = None;
        let mut target = 0.0f64;
        for (up, down) in pairs {
            let cell = run_pair(cli, &spec, up, down, device_het);
            let last = cell.records.last().expect("run produced records");
            if up == CompressionKind::None {
                target = 0.90 * cell.final_accuracy(5);
            }
            let (ts, accs) = series(&cell.records, |r| r.virtual_time);
            let t = time_to_target(&ts, &accs, target);
            let (bs, accs_b) = series(&cell.records, |r| r.cum_comm_bytes);
            let bytes = time_to_target(&bs, &accs_b, target);
            // run-level downlink ratio: per-record `compression_ratio_down`
            // is dense/actual for that round, so dense = ratio x actual;
            // summing both sides folds resync rounds (ratio 1) and delta
            // rounds into the whole-run average
            let down_actual: f64 = cell.records.iter().map(|r| r.comm_bytes_down).sum();
            let down_dense: f64 = cell
                .records
                .iter()
                .map(|r| r.comm_bytes_down * r.compression_ratio_down)
                .sum();
            let ratio_down = if down_actual > 0.0 {
                down_dense / down_actual
            } else {
                1.0
            };
            if up == CompressionKind::None {
                baseline_time = t;
            }
            table.row(&[
                up.name(),
                down.name(),
                format!("{device_het:.0}x"),
                format!("{:.2}x", last.compression_ratio),
                format!("{ratio_down:.2}x"),
                format!("{:.1}%", target * 100.0),
                fmt_time(t),
                fmt_mb(bytes),
                fmt_speedup(baseline_time, t),
                format!("{:.1}%", cell.final_accuracy(5) * 100.0),
            ]);
            artifacts.push(json!({
                "codec_up": up.name(),
                "codec_down": down.name(),
                "device_het": device_het as f64,
                "compression_ratio": last.compression_ratio,
                "compression_ratio_down": ratio_down,
                "target": target,
                "time_to_target": t,
                "bytes_to_target": bytes,
                "final_accuracy": cell.final_accuracy(5),
                "cum_comm_mb": last.cum_comm_bytes / 1e6,
            }));
        }
    }

    println!("{}", table.render());
    println!("Reading: the up/down codec pair shrinks each wire half by its ratio;");
    println!("under wider device spreads the sync barrier waits on slower links, so");
    println!("the same byte saving buys more virtual seconds per round. MB-to-target");
    println!("is the total (up + down) traffic when the run first holds the target —");
    println!("closing the downlink beats uplink-only on total bytes at every spread.");
    Value::Array(artifacts)
}
