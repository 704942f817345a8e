//! `reproduce` rejects a bad command line with exit code 2 (before it runs
//! any claim, or when `--results` cannot take the artifact), and an
//! extension sweep's artifact is deterministic, cold or from the cell cache.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Exit code, stdout and stderr of one `reproduce` run.
fn reproduce(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("spawn reproduce");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn unknown_or_missing_claim_exits_2_listing_the_claims() {
    for args in [&["nosuch"][..], &[]] {
        let (code, _, stderr) = reproduce(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("valid: all, table2_datasets"), "{stderr}");
        assert!(stderr.contains("fig7_mu_sensitivity"), "{stderr}");
    }
}

#[test]
fn bad_flags_exit_2_with_usage() {
    for args in [
        &["fig6_boxplots", "--scale", "smoke", "--trials", "0"][..],
        &["all", "--seed"],
        &["all", "--bogus", "1"],
    ] {
        let (code, _, stderr) = reproduce(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: reproduce <claim|all>"), "{stderr}");
    }
}

#[test]
fn unwritable_results_dir_exits_2() {
    let file = std::env::temp_dir().join(format!("fedtrip_repro_file_{}", std::process::id()));
    std::fs::write(&file, b"not a directory").expect("temp file");
    let file_arg = file.to_str().expect("utf-8 temp path");
    let (code, _, stderr) =
        reproduce(&["table2_datasets", "--scale", "smoke", "--results", file_arg]);
    let _ = std::fs::remove_file(&file);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("reproduce: cannot write artifact"),
        "{stderr}"
    );
}

#[test]
fn ext_time_to_accuracy_artifact_is_byte_stable() {
    let dirs: Vec<PathBuf> = (0..2)
        .map(|run| std::env::temp_dir().join(format!("fedtrip_repro_{}_{run}", std::process::id())))
        .collect();
    let run_into = |dir: &Path| {
        let dir_arg = dir.to_str().expect("utf-8 temp dir");
        let (code, stdout, stderr) = reproduce(&[
            "ext_time_to_accuracy",
            "--scale",
            "smoke",
            "--results",
            dir_arg,
        ]);
        assert_eq!(code, Some(0), "{stderr}");
        let bytes = std::fs::read(dir.join("ext_time_to_accuracy.json")).expect("artifact");
        (bytes, stdout)
    };
    let (cold, cold_stdout) = run_into(&dirs[0]);
    let (other, _) = run_into(&dirs[1]);
    // a warm rerun into the first run's results serves every cell from the cache
    let (warm, warm_stdout) = run_into(&dirs[0]);
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
    assert!(!cold.is_empty());
    // every cell's progress line names it: no two agree once the wall time
    // (`[ran    0.1s]`) is dropped
    let ran: Vec<&str> = cold_stdout
        .lines()
        .filter_map(|l| l.trim_start().strip_prefix("[ran"))
        .map(|l| l.split_once(']').map_or(l, |(_, rest)| rest))
        .collect();
    assert!(ran.len() > 1, "{cold_stdout}");
    for (i, a) in ran.iter().enumerate() {
        assert!(!ran[i + 1..].contains(a), "two cells print {a:?}");
    }
    assert!(cold == other, "two runs wrote different artifacts");
    assert!(
        warm_stdout.contains("[cached]") && !warm_stdout.contains("[ran"),
        "{warm_stdout}"
    );
    assert!(cold == warm, "the cached rerun wrote a different artifact");
}
