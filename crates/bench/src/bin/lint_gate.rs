//! CI gate over `fedtrip-lint`: lints the whole workspace and exits
//! nonzero on any unsanctioned finding.
//!
//! ```text
//! lint_gate [--root <dir>] [--json <path>]
//! ```
//!
//! `--json` writes the machine-readable report (uploaded as a CI
//! artifact).

use std::path::PathBuf;
use std::process::ExitCode;

use fedtrip_lint::{lint_workspace, LintConfig};

/// `(root, json)` from the command line.
fn parse_args() -> Result<(PathBuf, Option<PathBuf>), String> {
    let mut root = PathBuf::from(".");
    let mut json = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => {
                root = PathBuf::from(it.next().ok_or("--root needs a directory")?);
            }
            "--json" => {
                json = Some(PathBuf::from(it.next().ok_or("--json needs a path")?));
            }
            "--help" | "-h" => return Err("usage: lint_gate [--root <dir>] [--json <path>]".into()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok((root, json))
}

fn run() -> Result<bool, String> {
    let (root, json) = parse_args()?;
    if !root.join("crates").is_dir() {
        return Err(format!(
            "{} does not look like the workspace root (no crates/ directory); \
             run from the repo root or pass --root",
            root.display()
        ));
    }
    let report = lint_workspace(&root, &LintConfig::default())
        .map_err(|e| format!("scanning {}: {e}", root.display()))?;

    if let Some(path) = &json {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("creating {}: {e}", dir.display()))?;
            }
        }
        std::fs::write(path, report.to_json())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }

    let annotate = std::env::var_os("GITHUB_ACTIONS").is_some();
    for d in &report.diagnostics {
        println!("{d}");
        if annotate {
            // GitHub workflow command: an inline annotation at the finding's
            // file and line; properties and message need %/CR/LF escaping
            println!(
                "::error file={},line={},title=fedtrip-lint({})::{}",
                annotation_escape(&d.file),
                d.line,
                d.rule,
                annotation_escape(&d.message),
            );
        }
    }
    eprintln!(
        "lint_gate: {} files scanned, {} finding{}",
        report.files_scanned,
        report.diagnostics.len(),
        if report.diagnostics.len() == 1 {
            ""
        } else {
            "s"
        }
    );
    Ok(report.is_clean())
}

/// Escape text for a GitHub workflow-command property or data field:
/// `%`, `\r`, and `\n` would otherwise terminate or corrupt the command.
fn annotation_escape(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("lint_gate: {e}");
            ExitCode::FAILURE
        }
    }
}
