#!/usr/bin/env bash
# Measures the benchmark's own repeatability on the checked-out code, the
# way the bounds in BENCHMARK.json are meant: three sets of five runs per
# workload, every run on another seed. Prints, per end-to-end metric and
# workload, each set's median, the largest difference between two set
# medians, and the run-to-run spread (interquartile range / median,
# Python's statistics.quantiles) of each set and of all fifteen runs,
# and writes the evidence to bench/e2e/out/selfcheck.json. Takes about
# 25 minutes.
#
# Exits non-zero if two set medians disagree by more than the metric's
# bound, if the spread of the fifteen runs exceeds the bound (setup_s
# excepted, as in the harness's own check; a set of five is too few for
# quartiles to mean much, so its spread is printed and not judged), if
# any operation failed, or if the metrics a full run reports are not
# exactly the ones BENCHMARK.json names (with the same units).
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/../.." && pwd)
out="$here/out"
cd "$root"
bench() { cargo run --release --quiet --manifest-path bench/e2e/Cargo.toml -- "$@"; }
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

# One full run, both metric families: the reference run of the README.
echo "== full run, seed 1" >&2
bench --seed 1 >"$out/selfcheck_full.txt"
for workload in $workloads; do
    cp "$out/result_$workload.json" "$out/selfcheck_full_$workload.json"
done

for set in 1 2 3; do
    for run in 1 2 3 4 5; do
        echo "== set $set, run $run" >&2
        for workload in $workloads; do
            bench --workload "$workload" --seed $((100 * set + run)) --trace 0 >/dev/null
            cp "$out/result_$workload.json" "$out/selfcheck_${set}_${run}_$workload.json"
        done
    done
done

python3 - "$root/BENCHMARK.json" "$out" <<'EOF'
import itertools, json, statistics, sys

spec = json.load(open(sys.argv[1]))
out = sys.argv[2]
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
sets, runs = [1, 2, 3], [1, 2, 3, 4, 5]
evidence = {"sets": len(sets), "runs_per_set": len(runs), "bounds": bounds, "host": None, "workloads": {}}
ok = True


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


for workload in (w["name"] for w in spec["workloads"]):
    full = json.load(open(f"{out}/selfcheck_full_{workload}.json"))
    evidence["host"] = full["host"]
    reported = {n: m["unit"] for n, m in {**full["end_to_end"], **full["per_layer"]}.items()}
    if reported != declared:
        odd = sorted(set(reported.items()) ^ set(declared.items()))
        print(f"FAIL {workload}: reported metrics differ from BENCHMARK.json: {odd}")
        ok = False
    results = {
        s: [json.load(open(f"{out}/selfcheck_{s}_{r}_{workload}.json")) for r in runs] for s in sets
    }
    for run in [full] + [r for s in sets for r in results[s]]:
        if run["failed"] or not run["correct"]:
            print(f"FAIL {workload}: {run['failed']} of {run['attempted']} operations failed")
            ok = False
    rows = {}
    for name, bound in bounds.items():
        values = {s: [r["end_to_end"][name]["value"] for r in results[s]] for s in sets}
        medians = [statistics.median(values[s]) for s in sets]
        spreads = [spread(values[s]) for s in sets]
        pooled = spread([v for s in sets for v in values[s]])
        apart = max(abs(a - b) / min(a, b) for a, b in itertools.combinations(medians, 2))
        good = apart <= bound and (name == "setup_s" or pooled <= bound)
        ok &= good
        rows[name] = {
            "values": [values[s] for s in sets],
            "set_medians": medians,
            "set_spreads": spreads,
            "spread_of_all_runs": pooled,
            "largest_difference_of_set_medians": apart,
            "bound": bound,
        }
        print(
            f"{'ok' if good else 'FAIL':4} {workload:17} {name:22} set medians "
            + " ".join(f"{m:12.4f}" for m in medians)
            + f"  apart {apart:5.3f}  spreads "
            + " ".join(f"{s:5.3f}" for s in spreads)
            + f"  all {pooled:5.3f}  bound {bound}"
        )
    evidence["workloads"][workload] = rows

json.dump(evidence, open(f"{out}/selfcheck.json", "w"), indent=2)
print(f"wrote {out}/selfcheck.json")
sys.exit(0 if ok else 1)
EOF
