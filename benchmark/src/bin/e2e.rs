//! `e2e`: run one workload untraced and report its end-to-end metrics.
//!
//! ```text
//! e2e --workload W [--seed N] [--seconds S] [--out DIR]   run a workload
//! e2e manifest                                            print BENCHMARK.json
//! e2e merge OUT.json IN.json...                           unite result files
//! e2e compare A.json B.json                               is B no worse than A?
//! e2e smoke                                               five smoke-scale rounds
//! ```
//!
//! Uses only the narrow library surface listed in `workloads.rs`.

use fedtrip_benchmark::manifest::{self, END_TO_END};
use fedtrip_benchmark::report::{self, Report};
use fedtrip_benchmark::span::Tracer;
use fedtrip_benchmark::workloads::{self, Plan, Run};
use fedtrip_benchmark::{compare, Args};
use fedtrip_core::{ExperimentSpec, Scale, Simulation};
use serde_json::Value;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", manifest::benchmark_json());
            Ok(true)
        }
        Some("merge") if args.len() >= 3 => merge(&args[1], &args[2..]),
        Some("compare") if args.len() == 3 => compare_files(&args[1], &args[2]),
        Some("smoke") => {
            smoke();
            Ok(true)
        }
        _ => Args::parse(args.into_iter()).and_then(|a| workload(&a)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::from(2)
        }
    }
}

fn read(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn merge(out: &str, inputs: &[String]) -> Result<bool, String> {
    let files = inputs
        .iter()
        .map(|p| read(p))
        .collect::<Result<Vec<_>, _>>()?;
    report::write_json(Path::new(out), &report::merge(&files))
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    Ok(true)
}

fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let rows = compare::compare(&read(a)?, &read(b)?);
    print!("{}", compare::render(&rows));
    Ok(compare::passed(&rows))
}

/// What `flrun --alg fedtrip --scale smoke` does, less the table: the
/// `layers` binary spawns this to time process start-up plus set-up.
fn smoke() {
    let spec = ExperimentSpec::quickstart().with_scale(Scale::Smoke);
    let mut sim = Simulation::new(spec.to_config(), spec.algorithm.build(&spec.hyper));
    for _ in 0..5 {
        sim.run_round();
    }
    std::hint::black_box(sim.global_params());
}

/// The checks made outside the timed section.
fn verify(plan: &Plan, run: &Run, report: &mut Report) {
    if plan.name == "comm_q8_async" {
        let last = run.sim.records().last().expect("timed rounds ran");
        let (up, down) = (last.compression_ratio, last.compression_ratio_down);
        // q8 ships one byte per f32 plus an 8-byte header; dense resyncs
        // and first-contact bases keep the downlink well under 4
        report.check((up - 4.0).abs() < 0.01 && down > 1.0, || {
            format!("q8 ratios: uplink {up} (want ~4), downlink {down} (want > 1)")
        });
    }
    if plan.cycle.is_some() {
        // the repo's bit-identical-resume invariant: the cycled run ends
        // where an uninterrupted run of the same rounds ends
        let mut straight = Simulation::new(plan.cfg, plan.algorithm.build(&plan.hyper));
        for _ in 0..plan.warmup + plan.timed {
            straight.run_round();
        }
        report.check(workloads::digests(&straight) == workloads::digests(&run.sim), || {
            format!(
                "{} rounds through {} save/load/restore cycles differ from the same rounds uninterrupted",
                plan.warmup + plan.timed,
                plan.cycles() + 1
            )
        });
    }
}

fn workload(args: &Args) -> Result<bool, String> {
    let plan = workloads::plan(&args.workload, args.seed, args.seconds)
        .ok_or_else(|| format!("no such workload: {}", args.workload))?;
    let mut report = Report {
        workload: plan.name.to_string(),
        seed: args.seed,
        seconds: args.seconds,
        ..Report::default()
    };
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let snapshot = args.out.join(format!(
        "snapshot_{}_{}.json",
        plan.name,
        std::process::id()
    ));

    // a panic anywhere in the library is one failed operation, and the run
    // is over: there is no simulation left to continue in
    let ran = catch_unwind(AssertUnwindSafe(|| {
        let run = workloads::run(
            &plan,
            3,
            &mut Tracer::off(),
            &mut report,
            &snapshot,
            &mut |_, _| {},
        );
        workloads::summarise(&plan, &run, &mut report);
        verify(&plan, &run, &mut report);
    }));
    let _ = std::fs::remove_file(&snapshot);
    if let Err(panic) = ran {
        let what = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("a panic without a message");
        report.check(false, || format!("panicked: {what}"));
    }
    let failed_share = report.failures.len() as f64 / report.attempted.max(1) as f64;
    report.push(
        "failed_share",
        failed_share,
        "fraction",
        report.attempted as usize,
    );

    report.print();
    report
        .write(&args.out, &format!("e2e_{}.json", plan.name))
        .map_err(|e| format!("cannot write results: {e}"))?;
    let contract = END_TO_END.iter().filter(|m| m.contract).map(|m| m.name);
    println!("{}", report.result_line(contract)?);
    Ok(report.failures.is_empty())
}
