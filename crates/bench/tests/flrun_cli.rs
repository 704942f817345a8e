//! `flrun` checks the assembled configuration with
//! `SimulationConfig::validate` and rejects an invalid one with exit code 2
//! and validate's message, before it builds or runs anything.

use std::process::Command;

fn flrun(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_flrun"))
        .args(args)
        .output()
        .expect("spawn flrun");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn invalid_config_exits_2_with_validate_message() {
    for (flags, message) in [
        (
            &["--lr-schedule", "step:0:0.5"][..],
            "step decay needs a positive period",
        ),
        (
            &["--lr-schedule", "cosine:5:-1"],
            "cosine decay needs a positive total and min_lr",
        ),
        (&["--device-het", "0.5"], "device_het must be >= 1"),
        (&["--edges", "0"], "need at least one edge aggregator"),
    ] {
        let args = [&["--scale", "smoke", "--rounds", "1"][..], flags].concat();
        let (code, stderr) = flrun(&args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: flrun"), "{args:?}: {stderr}");
    }
}
