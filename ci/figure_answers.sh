#!/usr/bin/env bash
# Every paper figure still prints what it printed when it was recorded.
#
# Runs the 14 figures of the paper's evaluation (`paper_figures --figure
# NAME`) at smoke size (`--users 300 --cycles 5 --queries 30`) on seeds 42
# and 7 and compares each run's stdout with ci/figure_answers.txt byte for
# byte. The figures are simulated: their
# stdout repeats on any host and for any P3Q_THREADS, so a mismatch is a
# behaviour change, never noise. Stderr (progress lines) is not compared.
#
#   ci/figure_answers.sh            compare; on a mismatch print the figure,
#                                   the seed and the diff, and exit 1
#   ci/figure_answers.sh --record   run everything twice and rewrite
#                                   ci/figure_answers.txt, unless the two
#                                   runs differ
#
# Record only together with a change that means to alter a figure, and say
# why in the commit message. Honours CARGO_TARGET_DIR.
set -euo pipefail

cd "$(dirname "$0")/.."
answers=ci/figure_answers.txt
mode=${1:-compare}
case "$mode" in
compare | --record) ;;
*)
    echo "usage: ci/figure_answers.sh [--record]" >&2
    exit 2
    ;;
esac

figures=(fig2_convergence fig3_alpha fig4_storage_recall fig5_space
    fig6_query_bandwidth fig7_aur_lazy fig8_users_reached fig9_aur_eager
    fig10_network_evolution fig11_churn table1_storage_distribution
    table2_profile_changes summary_bandwidth theory_validation)
seeds=(42 7)

cargo build --release --quiet -p p3q-bench --bin paper_figures
paper_figures=${CARGO_TARGET_DIR:-target}/release/paper_figures

# Every run's stdout under a `## <figure> seed <seed>` heading.
run_all() {
    for figure in "${figures[@]}"; do
        for seed in "${seeds[@]}"; do
            echo "paper_figures --figure $figure --seed $seed" >&2
            echo "## $figure seed $seed"
            "$paper_figures" --figure "$figure" --users 300 --cycles 5 --queries 30 --seed "$seed"
        done
    done
}

# The stdout recorded under one heading of a file written by run_all.
section() {
    awk -v heading="## $2 seed $3" '$0 == heading { on = 1; next } /^## / { on = 0 } on' "$1"
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
run_all >"$tmp/fresh.txt"

if [ "$mode" = --record ]; then
    run_all >"$tmp/again.txt"
    if ! cmp -s "$tmp/fresh.txt" "$tmp/again.txt"; then
        diff "$tmp/fresh.txt" "$tmp/again.txt" || true
        echo "two runs of this checkout differ; not recording" >&2
        exit 1
    fi
    cp "$tmp/fresh.txt" "$answers"
    echo "recorded $((${#figures[@]} * ${#seeds[@]})) runs in $answers"
    exit 0
fi

mismatches=0
for figure in "${figures[@]}"; do
    for seed in "${seeds[@]}"; do
        section "$answers" "$figure" "$seed" >"$tmp/want"
        section "$tmp/fresh.txt" "$figure" "$seed" >"$tmp/got"
        if ! cmp -s "$tmp/want" "$tmp/got"; then
            echo "MISMATCH $figure seed $seed (< recorded, > fresh):"
            diff "$tmp/want" "$tmp/got" || true
            mismatches=$((mismatches + 1))
        fi
    done
done
if [ "$mismatches" -gt 0 ]; then
    echo "$mismatches run(s) differ from $answers" >&2
    exit 1
fi
if ! cmp -s "$answers" "$tmp/fresh.txt"; then
    echo "$answers holds runs this script no longer makes" >&2
    exit 1
fi
echo "$((${#figures[@]} * ${#seeds[@]})) runs print exactly what $answers records"
