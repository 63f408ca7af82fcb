"""The ``cli`` workload: fresh ``python -m troplag.cli`` processes.

run.py drives the workload through ``run``.  The traced pass starts
``cli_traced.py`` instead, once per command.
"""

import json
import os
import random
import shutil
import sys
import time
from collections import Counter

import measure

# The README's example commands, with the fixtures/index.json case and the
# fields of stdout that must match it.  "total" of the one-type tripod
# enumeration is its single multiplicity, the case's published determinant.
COMMANDS = (
    (["h1", "--curve", "fixtures/poincare.curve.json",
      "--lines", "fixtures/poincare.lines.json"],
     "homology-sphere-tripod", {"h1Order": "h1Order", "mv": "mv",
                                "leafData.rho": "leafMomenta"}),
    (["h1", "--curve", "fixtures/simplex_tripod.curve.json",
      "--domain", "fixtures/simplex3.domain.json"],
     "simplex-tripod", {"h1Order": "h1Order",
                        "parityWarning": "parityWarning"}),
    (["surface", "--curve", "fixtures/rp2.curve.json",
      "--domain", "fixtures/triangle.domain.json"],
     "rp2-in-cp2", {"surface": "surface", "crosscaps": "crosscaps",
                    "punctures": "punctures", "totalNodes": "totalNodes"}),
    (["surface", "--curve", "fixtures/klein.curve.json",
      "--domain", "fixtures/quadrant.domain.json"],
     "klein-bottle", {"surface": "surface", "crosscaps": "crosscaps",
                      "totalNodes": "totalNodes"}),
    (["lens", "--curve", "fixtures/lens.curve.json",
      "--lines", "fixtures/lens_5_2.lines.json"],
     "lens-spaces", {"p": "parameters.2.0", "qCanonical": "parameters.2.1"}),
    (["pieces", "--curve", "fixtures/poincare.curve.json",
      "--lines", "fixtures/poincare.lines.json"],
     "homology-sphere-tripod", {"pieces.kind": "pieces"}),
    (["wavefront", "--domain", "fixtures/unit_square.domain.json",
      "--delta", "1/4"],
     "wavefront-square", {"betti.b1": "b1"}),
    (["enumerate", "--curve", "fixtures/poincare.curve.json",
      "--lines", "fixtures/poincare.lines.json"],
     "homology-sphere-tripod", {"total": "determinant"}),
    (["suitability", "--curve", "fixtures/poincare.curve.json",
      "--lines", "fixtures/poincare.lines.json"],
     None, {"pass": True}),
)


def _field(report, path):
    """Value at a dotted path.  A number indexes a list; a name applied
    to a list maps over its items."""
    value = report
    for key in path.split("."):
        if isinstance(value, list):
            value = value[int(key)] if key.isdigit() else \
                [item[key] for item in value]
        else:
            value = value[key]
    return value


def check(index, command, code, text):
    """Problems with one command's exit code and stdout, as strings.

    ``code`` is None for exit code 0, else "exit<N>".
    """
    argv, case, fields = command
    if code is not None:
        return [f"{argv[0]}: {code}"]
    try:
        report = json.loads(text)
    except ValueError:
        return [f"{argv[0]}: stdout is not JSON"]
    expected = index.get(case, {})
    bad = []
    for path, want in fields.items():
        if isinstance(want, str):
            want = _field(expected, want)
        try:
            got = _field(report, path)
        except (KeyError, TypeError):
            got = "<missing>"
        if got != want:
            bad.append(f"{argv[0]} {case}: {path} = {got!r}, "
                       f"expected {want!r}")
    return bad


def load_index():
    with open(os.path.join("fixtures", "index.json"), encoding="utf-8") as fh:
        return {case["name"]: case["expected"]
                for case in json.load(fh)["cases"]}


def set_up(env, pycache):
    """Cold troplag bytecode, fixture index, one warming command.

    Only the cache of the working tree is dropped: the standard library's
    bytecode in the same prefix stays warm after the first set-up.
    """
    shutil.rmtree(pycache + os.path.abspath("src"), ignore_errors=True)
    index = load_index()
    measure.spawn([sys.executable, "-m", "troplag.cli"] + COMMANDS[0][0], env)
    return index


def run(seed, seconds, trace, env, pycache, probes):
    """Set up, then time whole shuffled passes over COMMANDS."""
    rng = random.Random(f"cli:{seed}")
    setups = []

    def timed_set_up():
        before = measure.start_reference(env)
        t0 = time.perf_counter()
        index = set_up(env, pycache)
        setups.append((time.perf_counter() - t0, before,
                       measure.start_reference(env)))
        return index

    for _ in range(probes // 2):
        timed_set_up()
    index = timed_set_up()
    pool = [{"id": f"c{k}", "class": " ".join(command[0][:2]),
             "command": command} for k, command in enumerate(COMMANDS)]
    cpu_ms, rss_kb = [], [0]

    def run_one(p):
        argv = p["command"][0]
        code, text, _, used, maxrss = measure.spawn(
            [sys.executable, "-m", "troplag.cli"] + argv, env)
        cpu_ms.append(used * 1000.0)
        rss_kb[0] = max(rss_kb[0], maxrss)
        outcome = {0: "ok", 2: "rejected"}.get(code, "failed")
        return [(argv[0], outcome, f"exit{code}" if code else None, text,
                 None)]

    def shuffled(problems):
        order = list(problems)
        rng.shuffle(order)
        return order

    timed = measure.timed_passes(pool, seconds, run_one,
                                 lambda: measure.start_reference(env),
                                 shuffled)
    first = timed["first"]
    checks = []
    for p in pool:
        (name, _, code, text, _), = first[p["id"]]
        checks += [((p["id"], name), line)
                   for line in check(index, p["command"], code, text)]
    gate, attempted, failed = measure.tally(timed, checks)
    result = {"latencies": timed["latencies"], "refs": timed["refs"],
              "loops": [measure.reference_loop() for _ in range(5)],
              "nominal_ms": measure.START_NOMINAL_MS,
              "attempted": attempted, "failed": failed,
              "outcomes": timed["outcomes"], "codes": timed["codes"],
              "gate": gate, "digests": measure.digests(pool, first),
              "by_class": timed["by_class"], "pool": len(pool),
              "rss_kb": rss_kb[0], "cpu_ms": cpu_ms}
    if trace:
        result["trace"] = traced_pass(env)
    for _ in range(probes - probes // 2):
        timed_set_up()
    result["setups"] = setups
    return result


def traced_pass(env):
    """Each command once through the traced stand-in, summaries merged."""
    out = os.path.join(os.path.dirname(env["PYTHONPYCACHEPREFIX"]),
                       "cli-trace.json")
    stand_in = [sys.executable, os.path.join("perfbench", "cli_traced.py"),
                out]
    summaries, outcomes = [], Counter()
    t0 = time.perf_counter()
    for argv, _, _ in COMMANDS:
        if os.path.exists(out):
            os.remove(out)
        code = measure.spawn(stand_in + argv, env)[0]
        outcomes[{0: "ok", 2: "rejected"}.get(code, "failed")] += 1
        if not os.path.exists(out):
            raise RuntimeError(f"traced cli child failed on {argv}")
        with open(out, encoding="utf-8") as fh:
            summaries.append(json.load(fh))
    wall = time.perf_counter() - t0
    merged = measure.merge_summaries(summaries)
    merged.update(wall_s=wall, problems=len(COMMANDS),
                  outcomes=dict(outcomes),
                  import_ms_median=measure.quantile(merged["import_ms"], 0.5))
    return merged
