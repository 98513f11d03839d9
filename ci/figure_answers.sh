#!/usr/bin/env bash
# Every paper figure still prints what it printed when it was recorded.
#
# Runs the 14 figures of the paper's evaluation (`paper_figures --figure
# NAME`) at smoke size (`--users 300 --cycles 5 --queries 30`) on seeds 42
# and 7 and compares each run's stdout, and apart from it its stderr, with
# ci/figure_answers.txt byte for byte. The figures are simulated: both
# streams repeat on any host and for any P3Q_THREADS, so a mismatch is a
# behaviour change, never noise. The script's own progress lines are not
# part of the answers.
#
# --paper-scale runs instead the figures pinned at the paper's
# configuration (`--paper-scale --users 10000 --seed 42`): `fig5_space`
# (s = 1 000 and seven storage budgets up to c = 1 000, each installed by
# `init_ideal_networks`), `table1_storage_distribution` and
# `table2_profile_changes`, against ci/figure_answers_paper.txt.
#
#   ci/figure_answers.sh [--paper-scale]            compare; on a mismatch
#                                                   print the figure, the
#                                                   seed and the diff, and
#                                                   exit 1
#   ci/figure_answers.sh [--paper-scale] --record   run everything twice and
#                                                   rewrite the answers file,
#                                                   unless the two runs differ
#
# Both modes print the wall time of each pass. Record only together with a
# change that means to alter a figure, and say why in the commit message.
# Honours CARGO_TARGET_DIR.
set -euo pipefail

cd "$(dirname "$0")/.."
mode=compare
scale=smoke
for arg in "$@"; do
    case "$arg" in
    --record) mode=--record ;;
    --paper-scale) scale=paper ;;
    *)
        echo "usage: ci/figure_answers.sh [--paper-scale] [--record]" >&2
        exit 2
        ;;
    esac
done

# One run per entry: "<figure> <seed> <flags…>".
runs=()
if [ "$scale" = paper ]; then
    answers=ci/figure_answers_paper.txt
    for figure in fig5_space table1_storage_distribution table2_profile_changes; do
        runs+=("$figure 42 --paper-scale --users 10000")
    done
else
    answers=ci/figure_answers.txt
    for figure in fig2_convergence fig3_alpha fig4_storage_recall fig5_space \
        fig6_query_bandwidth fig7_aur_lazy fig8_users_reached fig9_aur_eager \
        fig10_network_evolution fig11_churn table1_storage_distribution \
        table2_profile_changes summary_bandwidth theory_validation; do
        for seed in 42 7; do
            runs+=("$figure $seed --users 300 --cycles 5 --queries 30")
        done
    done
fi

cargo build --release --quiet -p p3q-bench --bin paper_figures
paper_figures=${CARGO_TARGET_DIR:-target}/release/paper_figures

# Every run's stdout under a `## <figure> seed <seed>` heading and its
# stderr under `## <figure> seed <seed> stderr`, into $1; the pass's wall
# time on stdout.
run_all() {
    local start figure seed flags
    start=$(date +%s%N)
    for run in "${runs[@]}"; do
        read -r figure seed flags <<<"$run"
        echo "paper_figures --figure $figure $flags --seed $seed" >&2
        echo "## $figure seed $seed"
        # shellcheck disable=SC2086 # $flags is a word list
        if ! "$paper_figures" --figure "$figure" $flags --seed "$seed" 2>"$tmp/stderr"; then
            cat "$tmp/stderr" >&2
            exit 1
        fi
        echo "## $figure seed $seed stderr"
        cat "$tmp/stderr"
    done >"$1"
    awk -v ns=$(($(date +%s%N) - start)) -v n=${#runs[@]} \
        'BEGIN { printf "wall time of %d run(s): %.1f s\n", n, ns / 1e9 }'
}

# The lines recorded under heading `## $2` of a file written by run_all.
section() {
    awk -v heading="## $2" '$0 == heading { on = 1; next } /^## / { on = 0 } on' "$1"
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
run_all "$tmp/fresh.txt"

if [ "$mode" = --record ]; then
    run_all "$tmp/again.txt"
    if ! cmp -s "$tmp/fresh.txt" "$tmp/again.txt"; then
        diff "$tmp/fresh.txt" "$tmp/again.txt" || true
        echo "two runs of this checkout differ; not recording" >&2
        exit 1
    fi
    cp "$tmp/fresh.txt" "$answers"
    echo "recorded ${#runs[@]} run(s) in $answers"
    exit 0
fi

mismatches=0
for run in "${runs[@]}"; do
    read -r figure seed _ <<<"$run"
    for heading in "$figure seed $seed" "$figure seed $seed stderr"; do
        section "$answers" "$heading" >"$tmp/want"
        section "$tmp/fresh.txt" "$heading" >"$tmp/got"
        if ! cmp -s "$tmp/want" "$tmp/got"; then
            echo "MISMATCH $heading (< recorded, > fresh):"
            diff "$tmp/want" "$tmp/got" || true
            mismatches=$((mismatches + 1))
        fi
    done
done
if [ "$mismatches" -gt 0 ]; then
    echo "$mismatches section(s) differ from $answers" >&2
    exit 1
fi
if ! cmp -s "$answers" "$tmp/fresh.txt"; then
    echo "$answers holds runs this script no longer makes" >&2
    exit 1
fi
echo "${#runs[@]} run(s) print exactly what $answers records"
