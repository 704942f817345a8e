//! `reproduce` rejects a bad command line with exit code 2 (before it runs
//! any claim, or when `--results` cannot take the artifact), and an
//! extension sweep's artifact is deterministic.

use std::process::Command;

fn reproduce(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("spawn reproduce");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn unknown_or_missing_claim_exits_2_listing_the_claims() {
    for args in [&["nosuch"][..], &[]] {
        let (code, stderr) = reproduce(args);
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
        let (code, stderr) = reproduce(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: reproduce <claim|all>"), "{stderr}");
    }
}

#[test]
fn unwritable_results_dir_exits_2() {
    let file = std::env::temp_dir().join(format!("fedtrip_repro_file_{}", std::process::id()));
    std::fs::write(&file, b"not a directory").expect("temp file");
    let file_arg = file.to_str().expect("utf-8 temp path");
    let (code, stderr) = reproduce(&["table2_datasets", "--scale", "smoke", "--results", file_arg]);
    let _ = std::fs::remove_file(&file);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("reproduce: cannot write artifact"),
        "{stderr}"
    );
}

#[test]
fn ext_time_to_accuracy_artifact_is_byte_stable() {
    let artifacts: Vec<Vec<u8>> = (0..2)
        .map(|run| {
            let dir =
                std::env::temp_dir().join(format!("fedtrip_repro_{}_{run}", std::process::id()));
            let dir_arg = dir.to_str().expect("utf-8 temp dir");
            let (code, stderr) = reproduce(&[
                "ext_time_to_accuracy",
                "--scale",
                "smoke",
                "--results",
                dir_arg,
            ]);
            assert_eq!(code, Some(0), "{stderr}");
            let bytes = std::fs::read(dir.join("ext_time_to_accuracy.json")).expect("artifact");
            let _ = std::fs::remove_dir_all(&dir);
            bytes
        })
        .collect();
    assert!(!artifacts[0].is_empty());
    assert!(
        artifacts[0] == artifacts[1],
        "two runs wrote different artifacts"
    );
}
