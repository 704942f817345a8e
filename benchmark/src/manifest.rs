//! The benchmark's table of contents: workloads, end-to-end metrics with
//! their bounds, per-layer metrics. The root `BENCHMARK.json` is generated
//! from this table (`e2e manifest`), and a unit test keeps the two equal.

use serde_json::{json, Value};

/// Nominal seconds one run measures (`run_seconds` in `BENCHMARK.json`).
///
/// The driver makes 4 + 22 × 4 runs that, with two builds, must end within
/// 3420 s, so a run (three set-ups + timed section + checks) has about 30 s;
/// 12 s of timed section leaves every workload at least 100 timed rounds —
/// the fewest for which a p90 still has ten samples beyond it.
pub const RUN_SECONDS: u64 = 12;

/// One workload of the benchmark.
pub struct Workload {
    /// Name on the command line and in result files.
    pub name: &'static str,
    /// Why it is here (one line, goes into `BENCHMARK.json`).
    pub why: &'static str,
}

/// The four workloads; `workloads::plan` holds their definitions.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "paper_cnn",
        why: "The paper's default cell (FedTrip, CNN, Dir-0.5, 4 of 10, sync, dense): local training and evaluation in the tensor layer are ~87% of a round; codecs, edge tier and checkpoint do nothing.",
    },
    Workload {
        name: "comm_q8_async",
        why: "Cross-device shape (MLP, 32 of 200, semi-async, q8 both ways with error feedback): the only workload with codecs, delta broadcast and the buffered scheduler on the path.",
    },
    Workload {
        name: "pop_1m_edge",
        why: "One million clients, 64 edges, Oort, diurnal availability and churn: per-client fixed costs, the filtered sampler and the edge merge tree are as large as they get; GEMM does little.",
    },
    Workload {
        name: "resume_cycle",
        why: "Many short runs instead of one long one: train, checkpoint, load, restore, repeat. core.checkpoint and the serde_json shim do ~75% of the work; fat per-client state shows as a loss.",
    },
];

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric and how far it may worsen.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// How far the value may worsen before it is a regression: a share of
    /// the baseline, or an absolute amount when `absolute`.
    pub bound: f64,
    /// `bound` is absolute, not relative.
    pub absolute: bool,
    /// Reported by every workload and steady across seeds, hence listed in
    /// `BENCHMARK.json` and on the result line the driver reads. The others
    /// exist on some workloads only (or are 0 when all is well), which that
    /// contract does not allow; `e2e` still prints them and `--compare`
    /// still checks them.
    pub contract: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    contract: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        absolute: false,
        contract,
    }
}

/// The 13 end-to-end metrics. `setup_s` has the largest bound because it is
/// a median of three short samples.
pub const END_TO_END: [EndToEnd; 13] = [
    e2e("setup_s", "s", Better::Lower, 0.25, true),
    e2e("run_wall_s", "s", Better::Lower, 0.10, true),
    e2e("rounds_per_s", "1/s", Better::Higher, 0.10, true),
    e2e("round_ms_p50", "ms", Better::Lower, 0.10, true),
    e2e("round_ms_p90", "ms", Better::Lower, 0.15, true),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.10, true),
    e2e("wall_to_target_s", "s", Better::Lower, 0.10, false),
    e2e("rounds_to_target", "rounds", Better::Lower, 0.10, false),
    EndToEnd {
        absolute: true,
        ..e2e("final_accuracy", "fraction", Better::Higher, 0.02, false)
    },
    e2e("checkpoint_ms_p50", "ms", Better::Lower, 0.10, false),
    e2e("resume_ms_p50", "ms", Better::Lower, 0.10, false),
    e2e("checkpoint_mb", "MB", Better::Lower, 0.02, false),
    EndToEnd {
        absolute: true,
        ..e2e("failed_share", "fraction", Better::Lower, 0.0, false)
    },
];

use Better::{Higher, Lower};

/// Per-layer metrics, all measured at the shape of the run's workload
/// unless the name carries a fixed shape (`.64`, `.stem`, `.uniform_1m`, …).
/// README.md maps each to the end-to-end metric it should move.
pub const PER_LAYER: [(&str, &str, Better); 77] = [
    // tensor
    ("tensor.sgemm_gflops.64", "GFLOP/s", Higher),
    ("tensor.sgemm_gflops.256", "GFLOP/s", Higher),
    ("tensor.sgemm_gflops.skinny", "GFLOP/s", Higher),
    ("tensor.forward_ms", "ms", Lower),
    ("tensor.backward_ms", "ms", Lower),
    ("tensor.conv_fwd_us.stem", "us", Lower),
    ("tensor.conv_bwd_us.stem", "us", Lower),
    ("tensor.optim_sweep_us.plain", "us", Lower),
    ("tensor.optim_sweep_us.triplet", "us", Lower),
    ("tensor.train_step_gflops", "GFLOP/s", Higher),
    ("tensor.peak_frac", "ratio", Higher),
    ("tensor.set_params_us", "us", Lower),
    ("tensor.params_flat_us", "us", Lower),
    ("tensor.quantize_mbps.q8", "MB/s", Higher),
    ("tensor.dequantize_mbps.q8", "MB/s", Higher),
    ("tensor.topk_select_us", "us", Lower),
    // data
    ("data.dataset_new_ms", "ms", Lower),
    ("data.test_set_ms", "ms", Lower),
    ("data.sample_synth_us", "us", Lower),
    ("data.epoch_iter_ms", "ms", Lower),
    ("data.partition_build_us", "us", Lower),
    ("data.shard_cold_us", "us", Lower),
    ("data.shard_warm_ns", "ns", Lower),
    // models
    ("models.build_ms", "ms", Lower),
    ("models.clone_us", "us", Lower),
    // core.algorithms
    ("algorithms.local_train_ms.fedavg", "ms", Lower),
    ("algorithms.local_train_ms.fedprox", "ms", Lower),
    ("algorithms.local_train_ms.fedtrip", "ms", Lower),
    ("algorithms.local_train_ms.moon", "ms", Lower),
    ("algorithms.attach_overhead.fedprox", "ratio", Lower),
    ("algorithms.attach_overhead.fedtrip", "ratio", Lower),
    ("algorithms.attach_overhead.moon", "ratio", Lower),
    ("algorithms.data_wait_share", "fraction", Lower),
    ("algorithms.fold_absorb_us", "us", Lower),
    ("algorithms.fold_merge_us", "us", Lower),
    ("algorithms.fold_finish_us", "us", Lower),
    // core.runtime
    ("runtime.select_us.uniform_10", "us", Lower),
    ("runtime.select_us.uniform_1m", "us", Lower),
    ("runtime.select_us.oort_1m", "us", Lower),
    ("runtime.train_batch_ms", "ms", Lower),
    ("runtime.fanout_eff", "ratio", Higher),
    ("runtime.edge_fold_ms.e1_k64", "ms", Lower),
    ("runtime.edge_fold_ms.e64_k64", "ms", Lower),
    ("runtime.edge_overhead", "ratio", Lower),
    ("runtime.state_take_put_ns", "ns", Lower),
    ("runtime.availability_query_ns", "ns", Lower),
    // core.compression
    ("compression.encode_mbps.q8", "MB/s", Higher),
    ("compression.encode_mbps.q4", "MB/s", Higher),
    ("compression.encode_mbps.topk01", "MB/s", Higher),
    ("compression.decode_mbps.q8", "MB/s", Higher),
    ("compression.decode_mbps.q4", "MB/s", Higher),
    ("compression.decode_mbps.topk01", "MB/s", Higher),
    ("compression.ef_step_us.q8", "us", Lower),
    ("compression.ef_step_us.q4", "us", Lower),
    ("compression.ef_step_us.topk01", "us", Lower),
    ("compression.ratio.q8", "ratio", Higher),
    ("compression.ratio.q4", "ratio", Higher),
    ("compression.ratio.topk01", "ratio", Higher),
    ("compression.rel_err.q8", "ratio", Lower),
    ("compression.rel_err.q4", "ratio", Lower),
    // core.engine
    ("engine.new_ms", "ms", Lower),
    ("engine.evaluate_ms", "ms", Lower),
    ("engine.eval_share", "fraction", Lower),
    ("engine.round_ms", "ms", Lower),
    ("engine.attributed_share", "fraction", Higher),
    ("engine.trace_overhead", "ratio", Lower),
    // core.checkpoint (always resume_cycle's shape: the others' snapshots
    // run to hundreds of MB)
    ("checkpoint.capture_ms", "ms", Lower),
    ("checkpoint.save_ms", "ms", Lower),
    ("checkpoint.load_ms", "ms", Lower),
    ("checkpoint.restore_ms", "ms", Lower),
    ("checkpoint.bytes", "B", Lower),
    ("checkpoint.save_mbps", "MB/s", Higher),
    ("checkpoint.load_mbps", "MB/s", Higher),
    // shims
    ("shims.rayon_region_us", "us", Lower),
    ("shims.json_parse_mbps", "MB/s", Higher),
    ("shims.json_write_mbps", "MB/s", Higher),
    // the benchmark's own process
    ("bench.smoke_process_ms", "ms", Lower),
];

/// The root `BENCHMARK.json`, generated from the tables above.
pub fn benchmark_json() -> String {
    let workloads: Vec<Value> = WORKLOADS
        .iter()
        .map(|w| json!({ "name": w.name, "why": w.why }))
        .collect();
    let end_to_end: Vec<Value> = END_TO_END
        .iter()
        .filter(|m| m.contract)
        .map(|m| {
            json!({
                "name": m.name,
                "unit": m.unit,
                "better": m.better.name(),
                "bound": m.bound,
            })
        })
        .collect();
    let per_layer: Vec<Value> = PER_LAYER
        .iter()
        .map(|(name, unit, better)| json!({ "name": name, "unit": unit, "better": better.name() }))
        .collect();
    let doc = json!({
        "command": ["bash", "benchmark/run.sh"],
        "paths": ["benchmark"],
        "run_seconds": RUN_SECONDS,
        "workloads": workloads,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    });
    serde_json::to_string_pretty(&doc).expect("a Value always prints") + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            benchmark_json(),
            "regenerate with: benchmark/run.sh --manifest > BENCHMARK.json"
        );
    }

    #[test]
    fn names_units_and_bounds_fit_the_contract() {
        let name_ok = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.name);
            assert!(
                !m.contract || (m.bound > 0.0 && m.bound <= 0.25),
                "{}",
                m.name
            );
        }
        for (name, unit, _) in &PER_LAYER {
            assert!(name_ok(name) && seen.insert(name), "{name}");
            assert!(unit_ok(unit), "{name}");
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.contract && setup.unit == "s" && setup.better == Better::Lower);
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s carries the largest bound"
        );
        assert!(benchmark_json().len() <= 64 * 1024);
    }
}
