#!/usr/bin/env bash
# A perf PR proves it changed no answer.
#
# Runs the e2e benchmark the way BENCHMARK.json's `command` does (built
# through its own manifest) on the two gossip workloads and the two
# similarity workloads, one round each (`--seconds 0`), for seeds 42 and 7,
# and compares what each run *answered* — `correct`, `failed`,
# `quality_ratio`, `bytes_per_op` — with ci/e2e_answers.json. Those four
# are simulated (or, on the similarity side, oracle verdicts and the
# resident index bytes per user): they repeat bit for bit on any host, so
# the comparison is exact and a mismatch is a behaviour change, never
# noise. Timings are not looked at.
#
#   ci/e2e_answers.sh            compare; exit 1 and print both values on a mismatch
#   ci/e2e_answers.sh --record   rewrite ci/e2e_answers.json from this checkout
#
# Record only from the parent of a change that means to alter an answer,
# or together with that change, and say why in the commit message.
set -euo pipefail

cd "$(dirname "$0")/.."
answers=ci/e2e_answers.json
mode=${1:-compare}
case "$mode" in
compare | --record) ;;
*)
    echo "usage: ci/e2e_answers.sh [--record]" >&2
    exit 2
    ;;
esac

fresh=$(mktemp)
trap 'rm -f "$fresh"' EXIT
for workload in lazy_converge eager_burst similarity_sweep similarity_serve; do
    for seed in 42 7; do
        echo "e2e --workload $workload --seed $seed --seconds 0" >&2
        # The last line of a run is its one-line verdict object.
        cargo run --release --quiet --manifest-path crates/bench/src/bin/e2e/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --seconds 0 | tail -n 1 |
            sed "s/^{/{\"workload\": \"$workload\", \"seed\": $seed, /" >>"$fresh"
    done
done

python3 - "$mode" "$answers" "$fresh" <<'EOF'
import json, sys

mode, answers_path, fresh_path = sys.argv[1:]
KEYS = ("correct", "failed", "quality_ratio", "bytes_per_op")

fresh = []
for line in open(fresh_path):
    run = json.loads(line)
    row = {"workload": run["workload"], "seed": run["seed"],
           "correct": run["correct"], "failed": run["failed"]}
    for metric in ("quality_ratio", "bytes_per_op"):
        row[metric] = run["metrics"][metric]["value"]
    fresh.append(row)

if mode == "--record":
    with open(answers_path, "w") as out:
        out.write("[\n" + ",\n".join("  " + json.dumps(row) for row in fresh) + "\n]\n")
    print(f"recorded {len(fresh)} runs in {answers_path}")
    sys.exit(0)

recorded = {(row["workload"], row["seed"]): row for row in json.load(open(answers_path))}
mismatches = 0
for row in fresh:
    run = (row["workload"], row["seed"])
    want = recorded.get(run)
    if want is None:
        print(f"MISSING {run}: no recorded answer")
        mismatches += 1
        continue
    for key in KEYS:
        if row[key] != want[key]:
            print(f"MISMATCH {run[0]} seed {run[1]} {key}: recorded {want[key]!r}, got {row[key]!r}")
            mismatches += 1
if mismatches:
    sys.exit(f"{mismatches} answer(s) differ from {answers_path}")
print(f"{len(fresh)} runs answer exactly what {answers_path} records")
EOF
