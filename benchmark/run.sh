#!/usr/bin/env bash
# The repo benchmark's one command (see README.md).
#
#   run.sh [--seed N] [--seconds S]
#       every workload, one process each, one after another: the untraced
#       end-to-end run, then the traced run with the per-layer probes. Prints
#       every metric by name with its unit, checks outputs, and writes
#       out/e2e_<w>.json, out/layers_<w>.json, out/trace_<w>.json and the
#       merged out/results.json (end-to-end) and out/layers.json.
#   run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload (the driver's contract): --trace 0 runs `e2e`, --trace 1
#       runs `layers`; the last line of stdout is the result object.
#   run.sh --compare A.json B.json
#       per workload and end-to-end metric: both values, how far B is worse,
#       the bound; exits non-zero when any pair is outside its bound.
#   run.sh --manifest
#       print BENCHMARK.json as generated from src/manifest.rs.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
out="$here/out"

# Profiles come from the package being built: benchmark/Cargo.toml carries a
# copy of the root [profile.release]. Fails (and so does this script) where
# the workspace sources are missing.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
e2e="$target/release/e2e"
layers="$target/release/layers"

workload="" trace=0 passthrough=()
while [ $# -gt 0 ]; do
    case "$1" in
        --compare)
            [ $# -eq 3 ] || { echo "usage: run.sh --compare A.json B.json" >&2; exit 2; }
            exec "$e2e" compare "$2" "$3" ;;
        --manifest) exec "$e2e" manifest ;;
        --workload) workload="$2"; shift 2 ;;
        --trace) trace="$2"; shift 2 ;;
        --seed|--seconds) passthrough+=("$1" "$2"); shift 2 ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

if [ -n "$workload" ]; then
    case "$trace" in
        0) exec "$e2e" --workload "$workload" "${passthrough[@]}" --out "$out" ;;
        1) exec "$layers" --workload "$workload" "${passthrough[@]}" --out "$out" ;;
        *) echo "run.sh: --trace takes 0 or 1" >&2; exit 2 ;;
    esac
fi

workloads=(paper_cnn comm_q8_async pop_1m_edge resume_cycle)
status=0 e2e_files=() layers_files=()
for w in "${workloads[@]}"; do
    "$e2e" --workload "$w" "${passthrough[@]}" --out "$out" || status=1
    e2e_files+=("$out/e2e_$w.json")
done
for w in "${workloads[@]}"; do
    "$layers" --workload "$w" "${passthrough[@]}" --out "$out" || status=1
    layers_files+=("$out/layers_$w.json")
done
"$e2e" merge "$out/results.json" "${e2e_files[@]}"
"$e2e" merge "$out/layers.json" "${layers_files[@]}"
echo "results: $out/results.json  layers: $out/layers.json  traces: $out/trace_<workload>.json"
exit $status
