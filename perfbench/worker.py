"""One workload in one child process: set up, time whole passes, check.

Usage (started by run.py, with PYTHONPATH pointing at the checkout's src):

    python perfbench/worker.py INPUTS OUT MODE SECONDS TRACE

MODE "setup" stops once set-up is done and records when the first timed
problem would have started; MODE "run" goes on to time whole passes over
the input pool until SECONDS have elapsed.  With TRACE 1 one more pass
runs with layer spans on.  The correctness gate runs after the timed and
traced passes, and the result goes to OUT as JSON.

Each problem is a short sequence of command-equivalent operations that
follow cli.run_command (parse -> compute -> as_dict -> canonical_json)
without argparse and file reads.  Program functions are looked up on
their modules at call time, so the tracer's rebinding reaches them.
"""

import json
import resource
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

from troplag import curve, domain, io_json, multiplicity, topology
from troplag.errors import VALIDATION_CODES, WorkbenchError

import measure
from gen import cross

# ---------------------------------------------------------------------------
# operations


def _curve_and_zs(p):
    c = io_json.curve_from_dict(p["curve"])
    lines = io_json.lines_from_dict(p["lines"])
    if len(lines) != len(c.ends()):
        raise ValueError("line count does not match the curve's ends")
    return c, [line.direction for line in lines.lines]


def op_enumerate(p, _):
    lines = io_json.lines_from_dict(p["lines"])
    res = multiplicity.enumerate_count(p["degree"], lines)
    out = res.as_dict()
    out["kappa"] = len(p["degree"])
    return io_json.canonical_json(out), res


def op_validate_curve(p, _):
    c = io_json.curve_from_dict(p["curve"])
    report = {"curve": curve.validate_curve(c).as_dict()}
    return io_json.canonical_json(report), None


def op_multiplicity(p, _):
    c, zs = _curve_and_zs(p)
    value = multiplicity.mixed_h_product(c, zs, None)
    report = {"mixedHProduct": value, "method": "RECURSIVE"}
    if p["kappa"] <= 64:
        det = abs(multiplicity.ev_matrix(c, zs).determinant())
        report["determinant"] = det
        report["agree"] = det == value
    return io_json.canonical_json(report), None


def op_h1(p, _):
    c, zs = _curve_and_zs(p)
    return io_json.canonical_json(topology.h1_order(c, zs=zs).as_dict()), None


def op_pieces(p, _):
    c, zs = _curve_and_zs(p)
    rep = topology.piece_decomposition(c, zs=zs)
    return io_json.canonical_json(rep.as_dict()), None


def op_validate_domain(p, _):
    d = io_json.domain_from_dict(p["domain"])
    report = {"domain": domain.validate_delzant(d).as_dict()}
    return io_json.canonical_json(report), None


def op_wavefront(p, _):
    d = io_json.domain_from_dict(p["domain"])
    wave = domain.wavefront(d, Fraction(p["delta"]))
    report = io_json.curve_to_dict(wave)
    report["betti"] = curve.betti_and_degree(wave).as_dict()
    return io_json.canonical_json(report), report


def op_surface(p, wave_report):
    c = io_json.curve_from_dict(wave_report)
    d = io_json.domain_from_dict(p["domain"])
    rep = topology.surface_report(c, d, False)
    return io_json.canonical_json(rep.as_dict()), None


def ops_for(p):
    """The operations of one problem, in order."""
    kind = p["kind"]
    if kind == "enumerate":
        return [("enumerate", op_enumerate)]
    if kind == "tree":
        return [("validate", op_validate_curve),
                ("multiplicity", op_multiplicity),
                ("h1", op_h1), ("pieces", op_pieces)]
    if kind == "domain" and p.get("delta") is not None:
        return [("validate", op_validate_domain),
                ("wavefront", op_wavefront), ("surface", op_surface)]
    return [("validate", op_validate_domain)]


def run_problem(p):
    """[(op, outcome, code, text, kept object)] for one problem.

    An operation whose input comes from an earlier one that did not end
    "ok" is not attempted.
    """
    results = []
    carried = None
    for name, fn in ops_for(p):
        if results and name == "surface" and results[-1][1] != "ok":
            break
        try:
            text, carried = fn(p, carried)
            results.append((name, "ok", None, text, carried))
        except WorkbenchError as exc:
            outcome = "rejected" if exc.code in VALIDATION_CODES else "failed"
            results.append((name, outcome, exc.code, None, None))
        except Exception as exc:      # RecursionError included
            results.append((name, "failed", type(exc).__name__, None, None))
    return results


# ---------------------------------------------------------------------------
# correctness gate (outside every timed region)


def _meets(pos, d, point, z):
    """Exact check that the line of a leaf ray meets its constraint line.

    The evaluation map constrains the end's affine line (its position at
    infinity), so the meeting point may lie behind the ray's start.
    """
    w = cross(d, z)
    diff = tuple(a - b for a, b in zip(point, pos))
    return any(w) and sum(a * b for a, b in zip(diff, w)) == 0


def not_ok(pool, first, known=lambda p, name, code: False):
    """Every operation that did not end "ok", unless ``known`` expects it."""
    bad = []
    for p in pool:
        for name, outcome, code, _, _ in first[p["id"]]:
            if outcome != "ok" and not known(p, name, code):
                bad.append(((p["id"], name),
                            f"{p['id']} {name}: {outcome} {code}"))
    return bad


def gate_enumerate(pool, first):
    ok_ids = {p["id"] for p in pool if first[p["id"]][0][1] == "ok"}
    pairs = defaultdict(set)
    for p in pool:
        pairs[p["pair"]].add(p["id"])

    def known(p, name, code):
        """Random small rationals can put a placement on a wall, where
        some tree type has an edge of length 0: NON_GENERIC_CONFIG is then
        the correct answer, provided the other placement of the same
        degree and directions is ok."""
        return code == "NON_GENERIC_CONFIG" and \
            pairs[p["pair"]] - {p["id"]} <= ok_ids

    bad = not_ok(pool, first, known)
    totals = defaultdict(dict)
    for p in pool:
        (_, outcome, _, text, res), = first[p["id"]]
        if outcome != "ok":
            continue
        key = (p["id"], "enumerate")
        totals[p["pair"]][p["id"]] = json.loads(text)["total"]
        zs = [tuple(line["dir"]) for line in p["lines"]["lines"]]
        points = [tuple(Fraction(x) for x in line["point"])
                  for line in p["lines"]["lines"]]
        for t in res.per_type:
            if t.status != "accepted":
                continue
            c = t.curve
            if not curve.validate_curve(c).ok:
                bad.append((key, f"{p['id']}: accepted curve fails "
                                 f"validation"))
            if multiplicity.mixed_h_product(c, zs) != t.multiplicity:
                bad.append((key, f"{p['id']}: multiplicity differs from the "
                                 f"mixed product of the solved curve"))
            for e in c.edges:
                if e.head is not None:
                    continue
                j = e.leaf_label
                if not _meets(c.vertices[e.tail], e.direction, points[j],
                              zs[j]):
                    bad.append((key, f"{p['id']}: leaf {j} misses its line"))
    for pair, by_id in totals.items():
        if len(set(by_id.values())) > 1:
            for pid in by_id:
                bad.append(((pid, "enumerate"), f"pair {pair}: totals differ "
                            f"between placements {sorted(by_id.items())}"))
    return bad


def known_tree_failure(p, name, code):
    """The program's failures on trees today, kept in the data: deep
    recursion on the kappa=512 caterpillar (ROADMAP item 3), and the
    edge-torsion check of h1 on weighted trees (item 4)."""
    return (p["kappa"] == 512 and code == "RecursionError") or (
        p["weighted"] and name == "h1" and code == "INTERNAL_INCONSISTENCY")


def gate_trees(pool, first):
    bad = not_ok(pool, first, known_tree_failure)
    for p in pool:
        pid, kappa = p["id"], p["kappa"]
        ok = {name: json.loads(text)
              for name, outcome, _, text, _ in first[pid] if outcome == "ok"}
        if "validate" in ok and not ok["validate"]["curve"]["ok"]:
            bad.append(((pid, "validate"),
                        f"{pid}: generated tree fails validation"))
        if "multiplicity" in ok:
            key = (pid, "multiplicity")
            value = ok["multiplicity"]["mixedHProduct"]
            if "determinant" in ok["multiplicity"] and \
                    ok["multiplicity"]["determinant"] != value:
                bad.append((key, f"{pid}: mixed product {value} != |det|"))
            c, zs = _curve_and_zs(p)
            for root in (("end", kappa // 2), "v0"):
                if multiplicity.mixed_h_product(c, zs, root) != value:
                    bad.append((key, f"{pid}: mixed product depends on the "
                                     f"root {root}"))
            if "h1" in ok and ok["h1"]["h1Order"] != "INFINITE_H1":
                h1 = ok["h1"]
                if h1["product"] != value or \
                        h1["h1Order"] * h1["mv"] != h1["product"]:
                    bad.append(((pid, "h1"),
                                f"{pid}: h1 order * mv != mixed product"))
        if "pieces" in ok:
            kinds = Counter(x["kind"] for x in ok["pieces"]["pieces"])
            if kinds != Counter({"PANTS_BUNDLE": kappa - 2,
                                 "SOLID_TORUS": kappa}):
                bad.append(((pid, "pieces"),
                            f"{pid}: unexpected pieces {dict(kinds)}"))
    return bad


def gate_domains(pool, first):
    bad = not_ok(pool, first)
    for p in pool:
        pid = p["id"]
        ok = {name: json.loads(text)
              for name, outcome, _, text, _ in first[pid] if outcome == "ok"}
        if "validate" in ok:
            rep = ok["validate"]["domain"]
            pair = p.get("spoiled_pair")
            if pair is None:
                if not rep["ok"]:
                    bad.append(((pid, "validate"), f"{pid}: valid domain "
                                f"reported {rep['issues']}"))
            else:
                fails = rep["failures"]
                if rep["ok"] or not fails or any(
                        f["problem"] != "saturation" or f["index"] != 2
                        or not set(pair) <= set(f["facets"]) for f in fails):
                    bad.append(((pid, "validate"),
                                f"{pid}: spoiled pair {pair} gave {fails}"))
        if "wavefront" in ok:
            wave = io_json.curve_from_dict(ok["wavefront"])
            if not curve.validate_curve(wave).ok:
                bad.append(((pid, "wavefront"),
                            f"{pid}: wavefront fails validation"))
        if "surface" in ok and ok["surface"]["surface"] != "torus":
            bad.append(((pid, "surface"), f"{pid}: wavefront surface is "
                        f"{ok['surface']['surface']}"))
    return bad


GATES = {"enumerate": gate_enumerate, "trees": gate_trees,
         "domains": gate_domains}


# ---------------------------------------------------------------------------
# traced pass


def traced_pass(pool):
    tracer = measure.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        outcomes = Counter()
        for p in pool:
            tracer.problem = p["id"]
            tracer.open(measure.ROOT)
            results = run_problem(p)
            tracer.close()
            for _, outcome, _, _, res in results:
                outcomes[outcome] += 1
                if p["kind"] == "enumerate" and res is not None:
                    for t in res.per_type:
                        outcomes["type." + t.status] += 1
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    summary["wall_s"] = wall
    summary["problems"] = len(pool)
    summary["outcomes"] = dict(outcomes)
    return summary, tracer.spans


def main(argv):
    inputs_path, out_path, mode, seconds, trace = argv
    with open(inputs_path, encoding="utf-8") as fh:
        inputs = json.load(fh)
    workload, pool = inputs["workload"], inputs["pool"]
    for p in inputs["warmup"]:
        run_problem(p)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    result = {"ready": ready}
    if mode == "run":
        timed = measure.timed_passes(pool, float(seconds), run_problem,
                                     measure.reference_loop)
        result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if trace == "1":
            summary, spans = traced_pass(pool)
            result["trace"] = summary
            with open(out_path + ".spans", "w", encoding="utf-8") as fh:
                json.dump(spans, fh, separators=(",", ":"))
        first = timed["first"]
        gate, attempted, failed = measure.tally(
            timed, GATES[workload](pool, first))
        result.update({
            "latencies": timed["latencies"], "refs": timed["refs"],
            "loops": timed["refs"], "nominal_ms": measure.REF_NOMINAL_MS,
            "attempted": attempted, "failed": failed,
            "outcomes": timed["outcomes"], "codes": timed["codes"],
            "gate": gate, "digests": measure.digests(pool, first),
            "by_class": timed["by_class"], "pool": len(pool)})
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
