"""Measurement helpers: layer spans, quantiles and a machine reference.

Layer spans are recorded from outside the program.

``Tracer.install`` wraps the public functions named in ``LAYERS`` and
rebinds every reference to them in every loaded ``troplag`` module: the
modules import each other's functions by name (``from .lattice import
solve_exact``), so patching the defining module alone would miss most
calls.  A wrapped call records one span (name, start, end, parent,
problem id).  A call that returns a generator records one span per
``next()``, so a layer keeps its meaning when a list becomes a generator.
Spans stay in memory until ``summary`` folds them into per-layer self
times, counts and errors.  A layer that a later version of the program
renames or removes cannot be wrapped: ``install`` warns on stderr, the
summary lists it under "missing", and its metrics read zero.

``timed_passes`` and ``tally`` are the pass loop and the operation
counts shared by every workload, in-process and ``cli`` alike.
"""

import gc
import hashlib
import importlib
import inspect
import os
import subprocess
import sys
import time
import types
from collections import Counter, defaultdict
from fractions import Fraction

# (module, attribute, layer name); "Class.method" wraps a method.
LAYERS = (
    ("lattice", "solve_exact", "lattice.solve_exact"),
    ("lattice", "det_bareiss", "lattice.det_bareiss"),
    ("lattice", "smith_normal_form", "lattice.smith_normal_form"),
    ("curve", "trivalent_trees", "curve.trivalent_trees"),
    ("curve", "internal_directions_from_leaves",
     "curve.internal_directions_from_leaves"),
    ("curve", "validate_curve", "curve.validate_curve"),
    ("curve", "TropicalCurve.incident", "curve.incident"),
    ("multiplicity", "enumerate_count", "multiplicity.enumerate_count"),
    ("multiplicity", "ev_matrix", "multiplicity.ev_matrix"),
    ("multiplicity", "build_problem", "multiplicity.build_problem"),
    ("multiplicity", "mixed_h_product", "multiplicity.mixed_h_product"),
    ("domain", "validate_delzant", "domain.validate_delzant"),
    ("domain", "wavefront", "domain.wavefront"),
    ("domain", "check_even_primitive", "domain.check_even_primitive"),
    ("topology", "h1_order", "topology.h1_order"),
    ("topology", "piece_decomposition", "topology.piece_decomposition"),
    ("topology", "surface_report", "topology.surface_report"),
    ("topology", "self_intersections", "topology.self_intersections"),
    ("io_json", "curve_from_dict", "io_json.parse"),
    ("io_json", "domain_from_dict", "io_json.parse"),
    ("io_json", "lines_from_dict", "io_json.parse"),
    ("io_json", "canonical_json", "io_json.canonical_json"),
    ("cli", "run_command", "cli.run_command"),
)

MODULES = ("lattice", "curve", "multiplicity", "domain", "topology",
           "io_json", "cli")

ROOT = "bench.problem"


def _bits(rows, rhs):
    top = 0
    for row in list(rows) + [rhs]:
        for x in row:
            x = abs(x)
            n = getattr(x, "numerator", x).bit_length()
            d = getattr(x, "denominator", 1).bit_length()
            top = max(top, n, d)
    return top


def _solve_shape(args):
    rows, rhs = args[0], args[1]
    cols = len(rows[0]) if len(rows) else 0
    return max(len(rows), cols), _bits(rows, rhs)


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index, problem id]
        self.stack = []
        self.problem = None
        self.errors = Counter()      # (module, code) -> count
        self.yielded = Counter()
        self.maxima = Counter()
        self.wrapped = []
        self.missing = []
        self._undo = []

    # -- spans ---------------------------------------------------------------

    def open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.problem])
        self.stack.append(len(self.spans) - 1)

    def close(self, exc=None):
        idx = self.stack.pop()
        span = self.spans[idx]
        span[2] = time.perf_counter()
        if exc is not None and not getattr(exc, "_perfbench_seen", False):
            try:
                exc._perfbench_seen = True
            except AttributeError:
                pass
            code = getattr(exc, "code", None)
            if not isinstance(code, str):
                code = type(exc).__name__
            self.errors[(span[0].split(".")[0], code)] += 1

    def _iterate(self, name, gen):
        while True:
            self.open(name)
            try:
                item = next(gen)
            except StopIteration:
                self.close()
                return
            except BaseException as exc:
                self.close(exc)
                raise
            self.close()
            self.yielded[name] += 1
            yield item

    def wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            if name == "lattice.solve_exact":
                dim, bits = _solve_shape(args)
                tracer.maxima[name + ".max_dim"] = max(
                    tracer.maxima[name + ".max_dim"], dim)
                tracer.maxima[name + ".max_bits"] = max(
                    tracer.maxima[name + ".max_bits"], bits)
            elif name == "lattice.det_bareiss":
                tracer.maxima[name + ".max_dim"] = max(
                    tracer.maxima[name + ".max_dim"], len(args[0]))
            tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(exc)
                raise
            tracer.close()
            if isinstance(result, types.GeneratorType):
                return tracer._iterate(name, result)
            if name == "curve.trivalent_trees" and isinstance(result, list):
                tracer.yielded[name] += len(result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing ----------------------------------------------------------

    def install(self):
        """Wrap every layer and rebind it wherever troplag refers to it.

        Every layer's module is imported first.  A layer that is not a
        plain function of its module (or method of its class) is listed
        in ``missing`` and reported on stderr.
        """
        for modname in MODULES:
            try:
                importlib.import_module(f"troplag.{modname}")
            except ImportError:
                pass
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "troplag" or name.startswith("troplag.")}
        for modname, attr, layer in LAYERS:
            home = mods.get(f"troplag.{modname}")
            owner, key = home, attr
            if home is not None and "." in attr:
                cls_name, key = attr.split(".")
                owner = getattr(home, cls_name, None)
            fn = getattr(owner, key, None) if owner is not None else None
            if not inspect.isfunction(fn):
                self.missing.append(f"{modname}.{attr}")
                continue
            self.wrapped.append(f"{modname}.{attr}")
            traced = self.wrap(layer, fn)
            if owner is not home:
                self._undo.append((owner, key, fn))
                setattr(owner, key, traced)
                continue
            for mod in mods.values():
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._undo.append((mod, name, fn))
                        setattr(mod, name, traced)
        if self.missing:
            print("perfbench: layers not wrapped, their metrics read 0: "
                  + ", ".join(self.missing), file=sys.stderr)

    def uninstall(self):
        for owner, key, fn in reversed(self._undo):
            setattr(owner, key, fn)
        self._undo = []

    # -- results -------------------------------------------------------------

    def summary(self):
        """Per-layer calls and self time (ms), plus counts and errors."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        calls = Counter()
        self_ms = Counter()
        strata = 0
        for i, (name, start, end, parent, _) in enumerate(spans):
            calls[name] += 1
            self_ms[name] += (end - start - covered[i]) * 1000.0
            if name == "lattice.solve_exact":
                p = parent
                while p >= 0 and spans[p][0] != "domain.validate_delzant":
                    p = spans[p][3]
                strata += p >= 0
        out = {"calls": dict(calls), "self_ms": dict(self_ms),
               "yielded": dict(self.yielded), "maxima": dict(self.maxima),
               "strata_solved": strata, "spans": len(spans),
               "wrapped": self.wrapped, "missing": self.missing,
               "errors": {f"{m}:{c}": n for (m, c), n in self.errors.items()}}
        return out


# Host speed moves by tens of percent within minutes, and a problem's
# time moves with it (slope ~1 against reference_loop when both are
# sampled a few hundred ms apart).  Times are therefore reported scaled
# to a host on which one reference_loop takes REF_NOMINAL_MS.  Process
# start-up does not follow that loop (slope ~0.4) but does follow a bare
# interpreter start, so anything that spawns Python is scaled to a host
# on which start_reference takes START_NOMINAL_MS.
REF_NOMINAL_MS = 8.0
START_NOMINAL_MS = 80.0
REF_WINDOW = 2        # reference samples taken on each side of a problem


def reference_loop():
    """Milliseconds for a fixed pure-stdlib loop, to track the host's speed.

    The collector is off so the loop does not depend on the heap the
    program under test has built up.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 1500):
            total += Fraction(i % 7, i)
        acc = 1
        for i in range(1, 3000):
            acc = (acc * 31 + i) % 1000000007
        return (time.perf_counter() - start) * 1000.0
    finally:
        if was_enabled:
            gc.enable()


def timed_passes(pool, seconds, run_one, reference, order=None):
    """Whole passes over the pool until ``seconds`` have elapsed.

    ``run_one(p)`` runs one problem and gives its operations as
    [(name, outcome, code, text, kept)].  ``reference()`` samples the
    host's speed before the first problem and after every problem.
    ``order(pool)``, if given, gives the problems of each pass.  Only the
    first pass's results are kept; every later execution of an operation
    is compared with them on (outcome, code, text).
    """
    latencies, refs = [], [reference()]
    by_class = defaultdict(list)
    first = {}
    runs, failed, unstable = Counter(), Counter(), Counter()
    outcomes, codes = Counter(), Counter()
    start = time.perf_counter()
    while True:
        this = []
        for p in (order(pool) if order else pool):
            t0 = time.perf_counter()
            results = run_one(p)
            wall = time.perf_counter() - t0
            latencies.append(wall)
            by_class[p["class"]].append(wall)
            this.append((p["id"], results))
            refs.append(reference())
        for pid, results in this:
            before = {r[0]: r[1:4] for r in first.setdefault(pid, results)}
            for name, outcome, code, text, _ in results:
                key = (pid, name)
                runs[key] += 1
                outcomes[outcome] += 1
                if code is not None:
                    codes[code] += 1
                if outcome == "failed":
                    failed[key] += 1
                elif before.get(name) != (outcome, code, text):
                    unstable[key] += 1
        if time.perf_counter() - start >= seconds:
            return {"latencies": latencies, "refs": refs,
                    "by_class": dict(by_class), "first": first,
                    "runs": runs, "failed": failed, "unstable": unstable,
                    "outcomes": dict(outcomes), "codes": dict(codes)}


def tally(timed, gate):
    """Check lines and (attempted, failed) operation counts of a run.

    ``gate`` holds ((problem id, operation), message) pairs for first-pass
    operations that failed a check.  The counts are over the distinct
    operations of the pool, not over executions, so they depend only on
    the seed and not on how many passes fitted in the run.  An operation
    is failed if it failed a check, raised in any pass, or gave in a
    later pass another output than in the first.
    """
    bad = {key for key, _ in gate}
    runs, failed, unstable = timed["runs"], timed["failed"], timed["unstable"]
    lines = [message for _, message in gate]
    lines += [f"{pid} {name}: output differs from the first pass in {n} "
              f"later execution(s)" for (pid, name), n in
              sorted(unstable.items())]
    failures = sum(1 for key in runs
                   if key in bad or failed[key] or unstable[key])
    return lines, len(runs), failures


def digests(pool, first):
    """sha256 over every first-pass report, overall and per operation."""
    total = hashlib.sha256()
    per_op = defaultdict(hashlib.sha256)
    for p in pool:
        for name, outcome, code, text, _ in first[p["id"]]:
            line = f"{p['id']}/{name}/{outcome}/{code}\n{text or ''}\n"
            total.update(line.encode())
            per_op[name].update(line.encode())
    out = {name: h.hexdigest() for name, h in sorted(per_op.items())}
    out["all"] = total.hexdigest()
    return out


def spawn(argv, env):
    """(exit code, stdout, wall s, cpu s, max rss kB) of one child."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, env=env)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, out.decode("utf-8", "replace"), wall,
            usage.ru_utime + usage.ru_stime, usage.ru_maxrss)


def start_reference(env):
    """Milliseconds for one ``python -c pass`` in the children's env."""
    return spawn([sys.executable, "-c", "pass"], env)[2] * 1000.0


def scaled(values, refs, nominal):
    """values[i] scaled by nominal over the median reference sample
    around it; refs[i] is taken just before values[i] and refs[i + 1]
    just after it."""
    out = []
    for i, v in enumerate(values):
        near = refs[max(0, i - REF_WINDOW + 1):i + REF_WINDOW + 1]
        out.append(v * nominal / quantile(near, 0.5))
    return out


def quantile(values, q):
    """Linear-interpolated quantile of a nonempty list, q in [0, 1]."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def merge_summaries(summaries):
    """Sum per-layer summaries of several traced processes."""
    out = {"calls": Counter(), "self_ms": Counter(), "yielded": Counter(),
           "errors": Counter(), "maxima": {}, "strata_solved": 0,
           "spans": 0, "import_ms": [], "wrapped": [], "missing": []}
    for s in summaries:
        for key in ("wrapped", "missing"):
            out[key] += [x for x in s.get(key, []) if x not in out[key]]
        for key in ("calls", "self_ms", "yielded", "errors"):
            out[key].update(s.get(key, {}))
        for key, value in s.get("maxima", {}).items():
            out["maxima"][key] = max(out["maxima"].get(key, 0), value)
        out["strata_solved"] += s.get("strata_solved", 0)
        out["spans"] += s.get("spans", 0)
        extra = s.get("import_ms", [])
        out["import_ms"] += extra if isinstance(extra, list) else [extra]
    return {key: dict(value) if isinstance(value, Counter) else value
            for key, value in out.items()}
