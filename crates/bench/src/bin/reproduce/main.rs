//! `reproduce` — regenerate the paper's tables and figures, and the
//! runtime-extension sweeps (`ext_*`).
//!
//! ```bash
//! cargo run --release -p fedtrip-bench --bin reproduce -- all --scale smoke
//! cargo run --release -p fedtrip-bench --bin reproduce -- table4_comm_rounds
//! cargo run --release -p fedtrip-bench --bin reproduce -- ext_scenario --scale default
//! ```
//!
//! Each claim prints its banner and tables, then writes
//! `<results>/<claim>.json`. Every claim runs its simulations through the
//! cell cache under `<results>/cells/`, so `all` runs every cell once and a
//! rerun into the same `--results` runs none.

use fedtrip_bench::{Cli, USAGE};
use fedtrip_metrics::report::save_json;
use serde_json::Value;

/// One artifact: its name (also the artifact file stem), the banner
/// printed before it, and the body that prints its tables and returns the
/// JSON artifact.
struct Claim {
    name: &'static str,
    banner: &'static str,
    run: fn(&Cli) -> Value,
}

/// Declares each claim's module (`<name>.rs`, exporting `run`) and the
/// [`CLAIMS`] registry, so a claim's name is its module's name.
macro_rules! claims {
    ($($name:ident: $banner:literal,)*) => {
        $(mod $name;)*
        const CLAIMS: &[Claim] = &[$(Claim {
            name: stringify!($name),
            banner: $banner,
            run: $name::run,
        }),*];
    };
}

claims! {
    table2_datasets: "Table II — description of datasets",
    table3_models: "Table III — model communication / parameters / MFLOPs",
    table4_comm_rounds: "Table IV — communication rounds to target accuracy (Dir-0.5, 4-of-10)",
    table5_gflops: "Table V — GFLOPs of local computation to reach target accuracy",
    table6_scalability: "Table VI — rounds to target with 4-of-50 clients (CNN)",
    table7_local_epochs: "Table VII — accuracy at rounds 10/20 with 5 and 10 local epochs",
    table8_cost_model: "Table VIII — attaching-operation cost model (Appendix A)",
    fig2_tsne: "Fig. 2 — t-SNE of global vs local feature representations",
    fig4_partitions: "Fig. 4 — client label distributions (MNIST, 10 clients)",
    fig5_convergence: "Fig. 5 — CNN convergence curves under Dir-0.5 and Orthogonal-5",
    fig6_boxplots: "Fig. 6 — final-accuracy boxplots on FMNIST (CNN and MLP)",
    fig7_mu_sensitivity: "Fig. 7 — FedTrip mu sensitivity (+ xi ablation)",
    ext_time_to_accuracy: "Time to target accuracy — sync barrier vs semi-async buffer",
    ext_comm_efficiency: "Communication efficiency — codec pairs (up x down) x device spread (sync barrier)",
    ext_scenario: "Availability scenarios — regime x selection x codec (4x device spread)",
}

/// The claims named by the first argument: one by name, or `all`.
fn select(arg: Option<&str>) -> Result<Vec<&'static Claim>, String> {
    let found: Vec<&Claim> = CLAIMS
        .iter()
        .filter(|c| arg == Some("all") || arg == Some(c.name))
        .collect();
    if !found.is_empty() {
        return Ok(found);
    }
    let names: Vec<&str> = CLAIMS.iter().map(|c| c.name).collect();
    let what = arg.map_or("missing claim".to_string(), |a| {
        format!("unknown claim `{a}`")
    });
    Err(format!("{what}; valid: all, {}", names.join(", ")))
}

fn main() {
    let usage = |e: String| -> ! {
        eprintln!("reproduce: {e}\nusage: reproduce <claim|all> {USAGE}");
        std::process::exit(2);
    };
    let mut args = std::env::args().skip(1);
    let claims = select(args.next().as_deref()).unwrap_or_else(|e| usage(e));
    let cli = Cli::parse_from(args).unwrap_or_else(|e| usage(e));
    for claim in claims {
        cli.banner(claim.banner);
        let artifact = (claim.run)(&cli);
        let path = save_json(&cli.results, claim.name, &artifact).unwrap_or_else(|e| {
            usage(format!(
                "cannot write artifact {}/{}.json: {e}",
                cli.results.display(),
                claim.name
            ))
        });
        println!("artifact: {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claim_names_are_the_paper_and_extension_artifacts() {
        let names: Vec<&str> = CLAIMS.iter().map(|c| c.name).collect();
        assert_eq!(
            names,
            [
                "table2_datasets",
                "table3_models",
                "table4_comm_rounds",
                "table5_gflops",
                "table6_scalability",
                "table7_local_epochs",
                "table8_cost_model",
                "fig2_tsne",
                "fig4_partitions",
                "fig5_convergence",
                "fig6_boxplots",
                "fig7_mu_sensitivity",
                "ext_time_to_accuracy",
                "ext_comm_efficiency",
                "ext_scenario",
            ]
        );
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
    }

    #[test]
    fn select_resolves_one_claim_or_all() {
        assert_eq!(select(Some("all")).unwrap().len(), CLAIMS.len());
        let one = select(Some("fig6_boxplots")).unwrap();
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].name, "fig6_boxplots");
    }

    #[test]
    fn unknown_or_missing_claim_lists_every_name() {
        for arg in [Some("nosuch"), None] {
            let err = select(arg).map(|_| ()).unwrap_err();
            assert!(err.contains("valid: all"), "{err}");
            for c in CLAIMS {
                assert!(err.contains(c.name), "{err} lacks {}", c.name);
            }
        }
    }
}
