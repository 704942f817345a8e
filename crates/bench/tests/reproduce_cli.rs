//! `reproduce` rejects a bad command line with exit code 2 before it runs
//! any claim.

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
