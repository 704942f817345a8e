//! `fedtrip-lint` — workspace-local static analysis.
//!
//! A hand-rolled, token-level scanner (no `syn`, no proc-macro machinery —
//! consistent with the workspace's offline-shim philosophy) plus a rule
//! engine enforcing the invariants the test suite cannot see:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `determinism` | no `HashMap`/`HashSet` iteration or wall-clock reads in deterministic crates |
//! | `rng-tags` | `Prng::derive` first tag element is a named registry constant; registry pairwise-distinct |
//! | `float-fold` | f32/f64 reductions in aggregation code only inside sanctioned fold helpers |
//! | `unsafe` | every `unsafe` carries a `SAFETY` comment; unsafe-free crates `forbid(unsafe_code)` |
//! | `panic` | no `unwrap`/`expect`/`panic!` in library code |
//!
//! Individual sites opt out with `// lint:allow(<rule>) — <reason>`; the
//! reason is mandatory (a reasonless sanction suppresses nothing and is
//! itself flagged). The `lint_gate` binary in `fedtrip-bench` runs
//! [`lint_workspace`] over the repository and fails CI on any finding.

#![forbid(unsafe_code)]

pub mod context;
pub mod diag;
pub mod lexer;
pub mod rules;

pub use diag::{Diagnostic, LintReport};

use context::FileCtx;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// What the rules need to know about the workspace being linted.
///
/// [`LintConfig::default`] encodes this repository's layout; fixtures in
/// `tests/fixtures/` reuse it by mimicking the same crate names and paths.
pub struct LintConfig {
    /// Crates whose library code must be bit-reproducible (R1 map-iteration
    /// check applies).
    pub deterministic_crates: Vec<String>,
    /// Crates allowed to read wall-clock time (`Instant`/`SystemTime`).
    pub time_exempt_crates: Vec<String>,
    /// Path fragments marking aggregation code subject to R3.
    pub float_fold_paths: Vec<String>,
    /// Free functions sanctioned to fold floats.
    pub sanctioned_fold_fns: Vec<String>,
    /// `(impl type, method)` pairs sanctioned to fold floats.
    pub sanctioned_fold_methods: Vec<(String, String)>,
    /// Workspace-relative path of the RNG tag registry (R2 distinctness).
    pub rng_registry: String,
}

impl Default for LintConfig {
    fn default() -> Self {
        let own = |s: &[&str]| s.iter().map(|x| x.to_string()).collect();
        LintConfig {
            deterministic_crates: own(&["core", "tensor", "data", "models"]),
            time_exempt_crates: own(&["bench"]),
            float_fold_paths: own(&["/algorithms/", "runtime/scheduler.rs"]),
            // `server_fold` / `server_merge` are the AlgorithmStrategy fold
            // hooks — the *designated* place for per-outcome accumulation,
            // invoked in deterministic outcome order by the engine
            sanctioned_fold_fns: own(&["weighted_param_average", "server_fold", "server_merge"]),
            sanctioned_fold_methods: vec![
                ("ServerFold".into(), "absorb".into()),
                ("ServerFold".into(), "merge".into()),
                ("ServerFold".into(), "finish".into()),
                ("FoldPlan".into(), "for_outcomes".into()),
            ],
            rng_registry: "crates/tensor/src/rng_tags.rs".into(),
        }
    }
}

/// One loaded source file, pre-lex.
struct SourceFile {
    rel: String,
    crate_name: String,
    lexed: lexer::Lexed,
}

/// Recursively collect `.rs` files under `dir` (sorted for deterministic
/// reports).
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Load every lintable file under `root`: `src/` (the facade crate,
/// `fedtrip`) and `crates/*/src/` (crate name = directory name). Shims are
/// intentionally out of scope — they imitate external APIs.
fn load_workspace(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut paths = Vec::new();
    let facade = root.join("src");
    if facade.is_dir() {
        collect_rs(&facade, &mut paths)?;
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut members: Vec<PathBuf> = fs::read_dir(&crates)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.join("src").is_dir())
            .collect();
        members.sort();
        for m in members {
            collect_rs(&m.join("src"), &mut paths)?;
        }
    }
    let mut out = Vec::new();
    for p in paths {
        let rel = p
            .strip_prefix(root)
            .unwrap_or(&p)
            .to_string_lossy()
            .replace('\\', "/");
        let crate_name = match rel.strip_prefix("crates/") {
            Some(tail) => tail.split('/').next().unwrap_or("").to_string(),
            None => "fedtrip".to_string(),
        };
        let src = fs::read_to_string(&p)?;
        out.push(SourceFile {
            rel,
            crate_name,
            lexed: lexer::lex(&src),
        });
    }
    Ok(out)
}

/// Lint the workspace rooted at `root` with `cfg`.
pub fn lint_workspace(root: &Path, cfg: &LintConfig) -> io::Result<LintReport> {
    let files = load_workspace(root)?;
    let ctxs: Vec<FileCtx<'_>> = files
        .iter()
        .map(|f| FileCtx::new(f.rel.clone(), f.crate_name.clone(), &f.lexed))
        .collect();

    let mut diagnostics = Vec::new();
    for ctx in &ctxs {
        rules::lint_syntax(ctx, &mut diagnostics);
        rules::determinism(ctx, cfg, &mut diagnostics);
        rules::rng_tags_call_sites(ctx, &mut diagnostics);
        rules::float_fold(ctx, cfg, &mut diagnostics);
        rules::unsafe_hygiene(ctx, &mut diagnostics);
        rules::panic_hygiene(ctx, &mut diagnostics);
        if ctx.rel == cfg.rng_registry {
            rules::rng_tags_registry(ctx, &mut diagnostics);
        }
    }

    // R4b: crates with zero unsafe must forbid it at the crate root
    let mut crate_names: Vec<&str> = ctxs.iter().map(|c| c.crate_name.as_str()).collect();
    crate_names.sort_unstable();
    crate_names.dedup();
    for name in crate_names {
        let members: Vec<&FileCtx<'_>> = ctxs.iter().filter(|c| c.crate_name == name).collect();
        if members.iter().any(|c| rules::has_unsafe(c)) {
            continue;
        }
        let root_rel = if name == "fedtrip" {
            "src/lib.rs".to_string()
        } else {
            format!("crates/{name}/src/lib.rs")
        };
        let Some(lib) = members.iter().find(|c| c.rel == root_rel) else {
            continue; // bin-only crate: nothing to attach the attribute to
        };
        if !rules::forbids_unsafe(lib) && !lib.sanctioned("unsafe", 1) {
            diagnostics.push(Diagnostic {
                file: lib.rel.clone(),
                line: 1,
                rule: "unsafe",
                message: format!(
                    "crate `{name}` contains no unsafe code; add #![forbid(unsafe_code)] \
                     so none can creep in unnoticed"
                ),
            });
        }
    }

    diagnostics
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok(LintReport {
        files_scanned: files.len(),
        diagnostics,
    })
}
