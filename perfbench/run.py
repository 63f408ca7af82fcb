"""troplag benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

W is one of enumerate, trees, domains, cli, or "all" for every workload
in turn.  Inputs are generated from the seed, each workload runs in its
own child processes (PYTHONPATH=src, so the working tree is measured),
every output is checked, and the last line of stdout is one JSON object
with the end-to-end metrics (--trace 0) or the per-layer metrics from a
separate traced pass (--trace 1).  See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import random
import subprocess
import sys
import time

sys.dont_write_bytecode = True

import cliload  # noqa: E402
import gen  # noqa: E402
import measure  # noqa: E402

WORKLOADS = ("enumerate", "trees", "domains", "cli")
WORK = os.path.join("perfbench", ".work")
SETUP_PROBES = 4          # extra set-ups per run; setup_s is their median
CHILD_TIMEOUT_S = 170

# Fixed per workload so that two commits are compared at the same
# percentile; each has at least ten samples beyond it at the baseline.
TAIL_PERCENTILE = {"enumerate": 90.0, "trees": 75.0, "domains": 75.0,
                   "cli": 75.0}

END_TO_END = (
    ("setup_s", "s"), ("problems_per_s", "1/s"), ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"), ("peak_rss_mb", "MB"),
    ("answered_share", "share"))

SELF_MS_LAYERS = (
    "lattice.solve_exact", "lattice.det_bareiss", "lattice.smith_normal_form",
    "curve.trivalent_trees", "curve.internal_directions_from_leaves",
    "curve.validate_curve", "curve.incident",
    "multiplicity.enumerate_count", "multiplicity.ev_matrix",
    "multiplicity.build_problem", "multiplicity.mixed_h_product",
    "domain.validate_delzant", "domain.wavefront",
    "domain.check_even_primitive", "topology.h1_order",
    "topology.piece_decomposition", "topology.surface_report",
    "topology.self_intersections", "io_json.parse", "io_json.canonical_json",
    "cli.run_command", measure.ROOT)
CALLS_LAYERS = (
    "lattice.solve_exact", "lattice.det_bareiss", "lattice.smith_normal_form",
    "curve.validate_curve", "curve.incident", "multiplicity.ev_matrix",
    "multiplicity.build_problem", "domain.validate_delzant")
MAXIMA = ("lattice.solve_exact.max_dim", "lattice.solve_exact.max_bits",
          "lattice.det_bareiss.max_dim")
TYPES = ("accepted", "rejected", "degenerate", "singular")
ERROR_CODES = (("multiplicity", "RecursionError"),
               ("topology", "INTERNAL_INCONSISTENCY"))


def per_layer_names():
    names = [f"{layer}.self_ms" for layer in SELF_MS_LAYERS]
    names += [f"{layer}.calls" for layer in CALLS_LAYERS]
    names += list(MAXIMA)
    names += ["curve.trivalent_trees.yielded",
              "domain.validate_delzant.strata_solved"]
    names += [f"multiplicity.types.{t}" for t in TYPES]
    names += ["multiplicity.accept_ratio"]
    names += [f"{m}.errors" for m in measure.MODULES]
    names += [f"{m}.errors.{code}" for m, code in ERROR_CODES]
    names += ["failed_share", "cli.interpreter_start_ms", "cli.import_ms",
              "cli.child_cpu_ms", "trace.overhead_ratio", "trace.spans",
              "trace.accounted_ms", "trace.wall_ms", "machine.ref_ms"]
    return names


def unit_of(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("share"):
        return "share"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("max_bits"):
        return "bits"
    return "count"


# ---------------------------------------------------------------------------
# inputs


def enumerate_inputs(rng):
    """Degree classes by entry size and point classes by rational size.

    Each degree and direction set is placed twice; both placements must
    give the same total.
    """
    classes = (("deg1-pts20", 1, 20, 5), ("deg2-pts300", 2, 300, 40),
               ("deg2-pts5000", 2, 5000, 700))
    pool = []
    for pair in range(24):
        name, bound, num, den = classes[pair % len(classes)]
        degree = gen.enumerate_degree(rng, 6, bound)
        dirs = [gen.rand_transverse(rng, d, 4) for d in degree]
        for side in "ab":
            pool.append({"id": f"e{pair:02d}{side}", "kind": "enumerate",
                         "class": name, "pair": pair,
                         "degree": [list(d) for d in degree],
                         "lines": gen.placement(rng, dirs, num, den)})
    degree = [(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0)]
    dirs = [gen.rand_transverse(rng, d, 4) for d in degree]
    warmup = [{"id": "warm", "kind": "enumerate", "class": "warmup",
               "pair": -1, "degree": [list(d) for d in degree],
               "lines": gen.placement(rng, dirs, 20, 5)}]
    return pool, warmup


# (kappa, shape, weighted): a quarter weighted, one kappa=512 caterpillar.
# Sorted by cost, the median falls inside the four kappa=128 caterpillars
# and the 75th percentile between the two kappa=256 splits.  The weighted
# trees, whose cost depends on where h1 fails, sit among the cheapest.
TREE_SCHEDULE = (
    (64, "split", True), (64, "split", True), (64, "caterpillar", True),
    (64, "caterpillar", False), (128, "caterpillar", False),
    (128, "caterpillar", False), (128, "caterpillar", False),
    (128, "caterpillar", False), (256, "split", False),
    (256, "split", False), (256, "caterpillar", False),
    (512, "caterpillar", False))


def tree_inputs(rng):
    def problem(pid, kappa, shape, weighted):
        c, lines = gen.tree_problem(rng, kappa, shape, weighted)
        name = f"k{kappa}-{shape}" + ("-weighted" if weighted else "")
        return {"id": pid, "kind": "tree", "class": name, "kappa": kappa,
                "weighted": weighted, "curve": c, "lines": lines}

    pool = [problem(f"t{i:02d}", *spec)
            for i, spec in enumerate(TREE_SCHEDULE)]
    return pool, [problem("warm", 8, "split", False)]


# (dimension, facets, spoiled); prisms add two facets to their polygon.
# Sorted by cost, seven problems are cheaper than the six 9-gons and eight
# dearer, so the median falls in the middle of the 9-gons; the 75th
# percentile falls inside the four 11-facet prisms.  Neither sits on the
# boundary between two classes.
DOMAIN_SCHEDULE = (
    (2, 8, True), (2, 9, True), (3, 10, True), (2, 8, False),
    (3, 10, False), (2, 9, False), (2, 9, False), (2, 9, False),
    (2, 9, False), (2, 9, False), (2, 11, True), (3, 11, False),
    (3, 11, False), (3, 11, True), (3, 11, True), (2, 10, False),
    (3, 12, False), (2, 11, False), (2, 9, False), (2, 8, False),
    (3, 10, True))


def domain_inputs(rng):
    def problem(pid, dim, count, spoiled):
        facets, pair = gen.blown_up_polygon(
            rng, count if dim == 2 else count - 2, spoiled)
        p = {"id": pid, "kind": "domain", "spoiled_pair": pair,
             "class": f"{'polygon' if dim == 2 else 'prism'}{count}"
                      + ("-spoiled" if spoiled else "")}
        if dim == 2:
            p["domain"] = gen.polygon_dict(facets)
            if not spoiled:
                p["delta"] = str(gen.wavefront_delta(rng, facets))
        else:
            p["domain"] = gen.prism_dict(rng, facets)
        return p

    pool = [problem(f"d{i:02d}", *spec)
            for i, spec in enumerate(DOMAIN_SCHEDULE)]
    return pool, [problem("warm", 2, 6, False)]


INPUTS = {"enumerate": enumerate_inputs, "trees": tree_inputs,
          "domains": domain_inputs}


# ---------------------------------------------------------------------------
# running


def child_env(pycache):
    """Environment of every child: the working tree, a private bytecode
    cache, and a fixed hash seed."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.path.abspath("src")
    env["PYTHONPYCACHEPREFIX"] = os.path.abspath(pycache)
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(args, env):
    """Run worker.py to the end; returns (result, set-up seconds)."""
    t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(
        [sys.executable, os.path.join("perfbench", "worker.py")] + args,
        env=env)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker timed out")
    if code != 0:
        raise RuntimeError(f"worker exited with {code}")
    with open(args[1], encoding="utf-8") as fh:
        result = json.load(fh)
    return result, result["ready"] - t_spawn


def run_workload(workload, seed, seconds, trace):
    run_dir = os.path.join(WORK, workload)
    os.makedirs(run_dir, exist_ok=True)
    pycache = os.path.join(WORK, f"pycache-{workload}")
    env = child_env(pycache)
    if workload == "cli":
        return cliload.run(seed, seconds, trace, env, pycache, SETUP_PROBES)
    rng = random.Random(f"{workload}:{seed}")
    pool, warmup = INPUTS[workload](rng)
    inputs = os.path.join(run_dir, "inputs.json")
    with open(inputs, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "pool": pool, "warmup": warmup}, fh)
    out = os.path.join(run_dir, "result.json")
    setups = []

    def set_up(mode):
        before = measure.start_reference(env)
        result, seconds_ = start_worker(
            [inputs, out, mode, str(seconds), str(int(trace))], env)
        after = measure.start_reference(env) if mode == "setup" else before
        setups.append((seconds_, before, after))
        return result

    for _ in range(SETUP_PROBES // 2):
        set_up("setup")
    result = set_up("run")
    for _ in range(SETUP_PROBES - SETUP_PROBES // 2):
        set_up("setup")
    result["setups"] = setups
    return result


# ---------------------------------------------------------------------------
# metrics


def end_to_end(workload, r):
    """The end-to-end metrics, their printed bases, and the op counts.

    Times are scaled to the nominal reference speed (measure.scaled); the
    printed bases give the raw times as well.
    """
    raw = [x * 1000.0 for x in r["latencies"]]
    lat = measure.scaled(raw, r["refs"], r["nominal_ms"])
    n = len(lat)
    p = TAIL_PERCENTILE[workload]
    beyond = int(n * (100.0 - p) / 100.0 + 1e-9)
    setup_raw = [s for s, _, _ in r["setups"]]
    setup = [s * measure.START_NOMINAL_MS * 2 / (before + after)
             for s, before, after in r["setups"]]
    attempted, failed = r["attempted"], r["failed"]
    metrics = {
        "setup_s": measure.quantile(setup, 0.5),
        "problems_per_s": n * 1000.0 / sum(lat),
        "latency_p50_ms": measure.quantile(lat, 0.5),
        "latency_tail_ms": measure.quantile(lat, p / 100.0),
        "peak_rss_mb": r["rss_kb"] / 1024.0,
        "answered_share": (attempted - failed) / attempted,
    }
    notes = {
        "setup_s": f"median of {len(setup)} set-ups; raw "
                   f"{measure.quantile(setup_raw, 0.5):.4f} s",
        "problems_per_s": f"{n} problems, {n // r['pool']} passes of "
                          f"{r['pool']}; raw {n * 1000.0 / sum(raw):.4f}",
        "latency_p50_ms": f"n={n}; raw {measure.quantile(raw, 0.5):.4f}",
        "latency_tail_ms": f"p{p:g}, {beyond} samples beyond, n={n}; raw "
                           f"{measure.quantile(raw, p / 100.0):.4f}"
                           + ("" if beyond >= 10 else " (fewer than 10)"),
        "peak_rss_mb": "max over CLI processes" if workload == "cli"
                       else "worker ru_maxrss before the gate",
        "answered_share": f"failed_share {failed / attempted:.4f} = "
                          f"{failed} failed / {attempted} attempted "
                          f"operations of the pool "
                          f"({r['outcomes'].get('rejected', 0)} rejected "
                          f"executions)",
    }
    return metrics, notes, attempted, failed, n * 1000.0 / sum(raw)


def per_layer(workload, r, untraced_pps):
    t = r["trace"]
    calls, self_ms = t["calls"], t["self_ms"]
    m = {}
    for layer in SELF_MS_LAYERS:
        m[f"{layer}.self_ms"] = self_ms.get(layer, 0.0)
    for layer in CALLS_LAYERS:
        m[f"{layer}.calls"] = calls.get(layer, 0)
    for key in MAXIMA:
        m[key] = t["maxima"].get(key, 0)
    m["curve.trivalent_trees.yielded"] = t["yielded"].get(
        "curve.trivalent_trees", 0)
    m["domain.validate_delzant.strata_solved"] = t["strata_solved"]
    outcomes = t.get("outcomes", {})
    types_total = 0
    for status in TYPES:
        m[f"multiplicity.types.{status}"] = outcomes.get("type." + status, 0)
        types_total += m[f"multiplicity.types.{status}"]
    m["multiplicity.accept_ratio"] = (
        m["multiplicity.types.accepted"] / types_total if types_total else 0.0)
    errors = t["errors"]
    for module in measure.MODULES:
        m[f"{module}.errors"] = sum(n for key, n in errors.items()
                                    if key.split(":")[0] == module)
    for module, code in ERROR_CODES:
        m[f"{module}.errors.{code}"] = errors.get(f"{module}:{code}", 0)
    attempted = sum(outcomes.get(k, 0) for k in ("ok", "rejected", "failed"))
    m["failed_share"] = (outcomes.get("failed", 0) / attempted
                         if attempted else 0.0)
    m["cli.interpreter_start_ms"] = (measure.quantile(r["refs"], 0.5)
                                     if workload == "cli" else 0.0)
    m["cli.import_ms"] = t.get("import_ms_median", 0.0)
    m["cli.child_cpu_ms"] = (measure.quantile(r["cpu_ms"], 0.5)
                             if r.get("cpu_ms") else 0.0)
    traced_pps = t["problems"] / t["wall_s"]
    m["trace.overhead_ratio"] = untraced_pps / traced_pps
    m["trace.spans"] = t["spans"]
    m["trace.accounted_ms"] = sum(self_ms.values())
    m["trace.wall_ms"] = t["wall_s"] * 1000.0
    m["machine.ref_ms"] = measure.quantile(r["loops"], 0.5)
    notes = {
        "trace.overhead_ratio": f"untraced {untraced_pps:.4f} / traced "
                                f"{traced_pps:.4f} problems per s",
        "multiplicity.accept_ratio": f"{m['multiplicity.types.accepted']} "
                                     f"accepted / {types_total} types",
        "failed_share": f"{outcomes.get('failed', 0)} / {attempted} "
                        f"operations of the traced pass",
        "trace.accounted_ms": "sum of all self times, bench.problem "
                              "included; compare trace.wall_ms",
    }
    if workload == "cli":
        per_process = (m["cli.interpreter_start_ms"] + m["cli.import_ms"]) \
            * t["problems"]
        notes["trace.accounted_ms"] = (
            f"run_command and below only; plus {t['problems']} x (start + "
            f"import) = {m['trace.accounted_ms'] + per_process:.1f} ms "
            f"against trace.wall_ms")
    return m, notes


def machine_line(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return (f"# machine: python {platform.python_version()}, nproc "
            f"{os.cpu_count()}, cpu {cpu}, seed {seed}")


def report(workload, seed, seconds, trace):
    """Run one workload and print its block; returns the JSON fields."""
    r = run_workload(workload, seed, seconds, trace)
    e2e, notes, attempted, failed, raw_pps = end_to_end(workload, r)
    print(f"# workload {workload}  seed {seed}  seconds {seconds}  "
          f"trace {int(trace)}")
    print(machine_line(seed))
    print(f"# machine.ref_ms {measure.quantile(r['loops'], 0.5):.4f} "
          f"(median of {len(r['loops'])} reference loops); scaling "
          f"reference median {measure.quantile(r['refs'], 0.5):.4f} ms "
          f"against {r['nominal_ms']:g} ms")
    for name, unit in END_TO_END:
        print(f"{name:<18} {e2e[name]:>14.4f} {unit:<6} {notes[name]}")
    if r["codes"]:
        print("# outcome codes: " + ", ".join(
            f"{k} {v}" for k, v in sorted(r["codes"].items())))
    for name in sorted(r["by_class"]):
        xs = [x * 1000.0 for x in r["by_class"][name]]
        print(f"# class {name:<22} p50 {measure.quantile(xs, 0.5):9.2f} ms"
              f"  n={len(xs)}")
    for name, digest in sorted(r["digests"].items()):
        print(f"# sha256 {workload} seed {seed} {name}: {digest}")
    for line in r["gate"][:20]:
        print(f"# CHECK FAILED: {line}")
    if trace:
        t = r["trace"]
        print(f"# layers wrapped: {', '.join(t['wrapped'])}")
        if t["missing"]:
            print(f"# LAYERS NOT WRAPPED (their metrics read 0): "
                  f"{', '.join(t['missing'])}")
        metrics, layer_notes = per_layer(workload, r, raw_pps)
        for name in per_layer_names():
            note = layer_notes.get(name, "")
            print(f"{name:<44} {metrics[name]:>14.4f} {unit_of(name):<6} "
                  f"{note}")
        if r["trace"]["errors"]:
            print("# layer errors: " + ", ".join(
                f"{k} {v}" for k, v in sorted(r["trace"]["errors"].items())))
        out = {k: {"value": metrics[k], "unit": unit_of(k)}
               for k in per_layer_names()}
    else:
        out = {name: {"value": e2e[name], "unit": unit}
               for name, unit in END_TO_END}
    return not r["gate"], attempted, failed, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "troplag", "__init__.py")) or \
            not os.path.isfile(os.path.join("fixtures", "index.json")):
        print("run from the root of a troplag checkout (src/troplag and "
              "fixtures/ are missing)", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for name in names:
            ok, a, f, m = report(name, args.seed, args.seconds,
                                 bool(args.trace))
            correct, attempted, failed = correct and ok, attempted + a, \
                failed + f
            prefix = "" if len(names) == 1 else name + "."
            metrics.update({prefix + k: v for k, v in m.items()})
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
