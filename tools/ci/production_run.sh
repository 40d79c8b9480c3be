#!/bin/sh
# Drive the library's production entry points from gcov-instrumented
# builds, then list the src/ functions in which no line ran.
#
#   tools/ci/production_run.sh [WORK_DIR]
#
# Run from the root of a checkout. WORK_DIR (default build-production)
# receives root/, the root project built with -DACDSE_COVERAGE=ON;
# perfbench/, perfbench built with --coverage; and run/, the campaign
# caches and outputs of the runs. The entry points:
#  - the paper benches (every bench_fig*, bench_table1_design_space,
#    bench_ablation, bench_feature_based, bench_sampling_methods,
#    bench_model_families and bench_fidelity) at ACDSE_CONFIGS=256
#    ACDSE_TRACE_LEN=8000 ACDSE_REPEATS=1;
#  - the six examples;
#  - acdse_cli_tests, which drives the three command-line tools;
#  - perfbench's campaign, onboard and serve workloads, 1 s each.
# The last step is check_coverage.py --list-unreached over both trees.
# This is a measurement for reviews, not a CI gate.
set -eu

work=$(realpath -m "${1:-build-production}")
src=$(pwd)
jobs=$(nproc)
if [ ! -f "$src/src/acdse.hh" ]; then
    echo "production_run.sh: run from the root of a checkout" >&2
    exit 2
fi

cmake -S "$src" -B "$work/root" -G Ninja -DACDSE_COVERAGE=ON
cmake --build "$work/root" -j "$jobs"
cmake -S "$src/perfbench" -B "$work/perfbench" -G Ninja \
    -DCMAKE_BUILD_TYPE=Release -DCMAKE_CXX_FLAGS=--coverage
cmake --build "$work/perfbench" -j "$jobs"

# Counters accumulate across runs: start from zero every time.
find "$work/root" "$work/perfbench" -name '*.gcda' -delete
rm -rf "$work/run"
mkdir -p "$work/run/cache"
cd "$work/run"

# The paper-scale knobs apply to the benches and examples only;
# perfbench pins its own workloads.
scaled() {
    ACDSE_CONFIGS=256 ACDSE_TRACE_LEN=8000 ACDSE_REPEATS=1 \
        ACDSE_CACHE_DIR="$work/run/cache" "$@" >/dev/null
}

for bench in "$work"/root/bench/bench_fig* \
             "$work/root/bench/bench_table1_design_space" \
             "$work/root/bench/bench_ablation" \
             "$work/root/bench/bench_feature_based" \
             "$work/root/bench/bench_sampling_methods" \
             "$work/root/bench/bench_model_families" \
             "$work/root/bench/bench_fidelity"; do
    echo "== $(basename "$bench")"
    scaled "$bench"
done

for example in quickstart design_space_explorer benchmark_similarity \
               cross_suite_prediction pareto_frontier energy_breakdown; do
    echo "== $example"
    scaled "$work/root/examples/$example"
done

echo "== acdse_cli_tests"
"$work/root/tests/acdse_cli_tests" >/dev/null

for workload in campaign onboard serve; do
    echo "== perfbench $workload"
    mkdir -p "perfbench-$workload"
    "$work/perfbench/acdse_perfbench" --workload "$workload" --seed 1 \
        --seconds 1 --trace 0 --out "perfbench-$workload/out.json" \
        --cache-dir "perfbench-$workload" >/dev/null
done

cd "$src"
python3 tools/ci/check_coverage.py --list-unreached \
    --build-dir "$work/root" --build-dir "$work/perfbench"
