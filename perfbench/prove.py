"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/prove.py --seeds 1-10 [--compare earlier.json]
                               [--out file.json]

Runs run.py once per seed and workload of BENCHMARK.json, for its
run_seconds, interleaving workloads within each seed so that slow drift
of the host hits every workload alike.  For every workload and end-to-end metric it prints the median, the quartiles
(statistics.quantiles, n=4) and their distance as a share of the median,
against the bound in BENCHMARK.json.  With --compare it also reports how
far each median moved from an earlier run of this script, and whether
the digests and the attempted/failed counts of each seed repeat.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: {out.stderr[-400:]}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["digests"] = [x for x in lines if x.startswith("# sha256")]
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--compare", default=None)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    runs = {w: {} for w in workloads}
    for i, seed in enumerate(args.seeds):
        k = i % len(workloads)
        for w in workloads[k:] + workloads[:k]:
            r = one_run(w, seed, seconds)
            runs[w][str(seed)] = r
            print(f"{w:<10} seed {seed:>3} correct {r['correct']} "
                  f"failed {r['failed']}/{r['attempted']} " + " ".join(
                      f"{n}={m['value']:.4g}" for n, m in
                      r["metrics"].items()), flush=True)
    earlier = None
    if args.compare:
        with open(args.compare, encoding="utf-8") as fh:
            earlier = json.load(fh)
    worst = 0.0
    print(f"\n{'workload':<10} {'metric':<16} {'median':>11} {'q1':>11} "
          f"{'q3':>11} {'spread':>7} {'bound':>6}"
          + ("  moved" if earlier else ""))
    for w in workloads:
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs[w].values()]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            if name != "setup_s":
                worst = max(worst, spread / metric["bound"])
            line = (f"{w:<10} {name:<16} {med:>11.4f} {q1:>11.4f} "
                    f"{q3:>11.4f} {spread:>7.4f} {metric['bound']:>6}")
            if earlier and w in earlier:
                old = statistics.median(
                    r["metrics"][name]["value"] for r in earlier[w].values())
                worse = (med - old) / old if metric["better"] == "lower" \
                    else (old - med) / old
                line += f"  {worse:+.4f}"
            print(line)
    print(f"\nlargest spread / bound (setup_s aside): {worst:.3f}")
    if earlier:
        for w in workloads:
            for seed, r in runs[w].items():
                old = earlier.get(w, {}).get(seed)
                if old and (old["digests"] != r["digests"] or
                            old["attempted"] != r["attempted"] or
                            old["failed"] != r["failed"]):
                    print(f"{w} seed {seed}: digests or counts differ")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(runs, fh)


if __name__ == "__main__":
    main()
