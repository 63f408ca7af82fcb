"""Command line front end.

Exit codes: 0 success, 2 validation failure (a report is still printed),
1 internal or input error, or a report too large to write
(OUTPUT_TOO_LARGE).  Output is deterministic: canonical JSON by
default, a flat key/value table with --format table.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import topology
from .curve import (betti_and_degree, require_valid, toric_degree_of_ends,
                    validate_curve)
from .domain import (check_even_primitive, suitability_check,
                     validate_delzant, wavefront)
from .errors import VALIDATION_CODES, WorkbenchError
from .io_json import (canonical_json, curve_to_dict, load_curve, load_domain,
                      load_lines, output_too_large)
from .multiplicity import (DET_KAPPA_CAP, KAPPA_CAP, build_problem,
                           enumerate_count)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise WorkbenchError("USAGE", message)


def _parser():
    p = _Parser(
        prog="troplag",
        description="Exact workbench for tropical curves in Delzant "
                    "domains and their Lagrangian invariants.")
    p.add_argument("command",
                   choices=["validate", "multiplicity", "h1", "surface",
                            "pieces", "lens", "enumerate", "wavefront",
                            "suitability"])
    p.add_argument("--curve", help="curve JSON file")
    p.add_argument("--domain", help="domain JSON file")
    p.add_argument("--lines", help="line configuration JSON file")
    p.add_argument("--root", help="root for the mixed product: end:<j> or "
                                  "a vertex id")
    p.add_argument("--relaxed", action="store_true",
                   help="allow weights > 1 away from the boundary")
    p.add_argument("--delta", help="offset for the wavefront, as p/q")
    p.add_argument("--kappa-cap", type=int, default=KAPPA_CAP,
                   help=f"end-count cap for the enumerator, at most "
                        f"{KAPPA_CAP}")
    p.add_argument("--format", choices=["json", "table"], default="json")
    return p


def _table(obj, prefix=""):
    lines = []
    if isinstance(obj, dict):
        for k in sorted(obj):
            lines.extend(_table(obj[k], f"{prefix}{k}."))
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            lines.extend(_table(v, f"{prefix}{i}."))
    else:
        lines.append(f"{prefix[:-1]}: {obj}")
    return lines


def _emit(report, fmt):
    if fmt == "table":
        try:
            return "\n".join(_table(report)) + "\n"
        except ValueError as exc:
            raise output_too_large(exc) from None
    return canonical_json(report)


def _require(args, *names):
    for name in names:
        if getattr(args, name) is None:
            raise WorkbenchError("USAGE",
                                 f"--{name} is required for this command")


def _zs_from_lines(curve, lines):
    ends = curve.ends()
    if len(lines) != len(ends):
        raise WorkbenchError("LABEL_MISMATCH",
                             f"{len(lines)} lines for {len(ends)} ends")
    return [l.direction for l in lines.lines]


def _domain_or_zs(args, curve):
    """Keyword arguments for a command taking --domain or else --lines."""
    if args.domain:
        return {"domain": load_domain(args.domain)}
    _require(args, "lines")
    return {"zs": _zs_from_lines(curve, load_lines(args.lines))}


def _parse_root(value):
    if value is None:
        return None
    if value.startswith("end:"):
        try:
            return ("end", int(value[4:]))
        except ValueError:
            raise WorkbenchError("USAGE", f"--root {value!r} is not "
                                          f"end:<integer>") from None
    return value


def _parse_delta(value):
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise WorkbenchError("USAGE", f"--delta {value!r} is not a "
                                      f"rational p/q") from None


def run_command(argv):
    """Run one command; returns (exit code, output text)."""
    fmt = "json"
    try:
        args = _parser().parse_args(argv)
        fmt = args.format
        if args.command == "validate":
            _require(args, "curve")
            curve = load_curve(args.curve)
            report = {"curve": validate_curve(curve).as_dict()}
            ok = report["curve"]["ok"]
            if args.domain:
                dom = load_domain(args.domain)
                even = check_even_primitive(curve, dom, args.relaxed)
                drep = even.delzant
                if drep is None:
                    drep = validate_delzant(dom)
                report["domain"] = drep.as_dict()
                report["evenPrimitive"] = even.as_dict()
                ok = ok and report["domain"]["ok"] and even.ok
            return (0 if ok else 2), _emit(report, fmt)

        if args.command == "multiplicity":
            _require(args, "curve", "lines")
            curve = load_curve(args.curve)
            lines = load_lines(args.lines)
            zs = _zs_from_lines(curve, lines)
            require_valid(curve)
            root = _parse_root(args.root)
            prob = build_problem(curve, zs)
            value = prob.mixed_product(root)
            report = {"mixedHProduct": value, "method": "RECURSIVE"}
            if 3 <= prob.kappa <= DET_KAPPA_CAP:
                det = abs(prob.evaluation_matrix().determinant())
                report["determinant"] = det
                report["agree"] = det == value
            return 0, _emit(report, fmt)

        if args.command == "h1":
            _require(args, "curve")
            curve = load_curve(args.curve)
            rep = topology.h1_order(curve, **_domain_or_zs(args, curve))
            return 0, _emit(rep.as_dict(), fmt)

        if args.command == "surface":
            _require(args, "curve", "domain")
            curve = load_curve(args.curve)
            dom = load_domain(args.domain)
            rep = topology.surface_report(curve, dom, args.relaxed)
            return 0, _emit(rep.as_dict(), fmt)

        if args.command == "pieces":
            _require(args, "curve")
            curve = load_curve(args.curve)
            rep = topology.piece_decomposition(
                curve, relaxed=args.relaxed, **_domain_or_zs(args, curve))
            return 0, _emit(rep.as_dict(), fmt)

        if args.command == "lens":
            _require(args, "curve")
            curve = load_curve(args.curve)
            rep = topology.lens_parameters(curve,
                                           **_domain_or_zs(args, curve))
            return 0, _emit(rep.as_dict(), fmt)

        if args.command == "enumerate":
            _require(args, "curve", "lines")
            if args.kappa_cap > KAPPA_CAP:
                raise WorkbenchError("USAGE", f"--kappa-cap {args.kappa_cap} "
                                              f"exceeds {KAPPA_CAP}")
            curve = load_curve(args.curve)
            lines = load_lines(args.lines)
            degree = toric_degree_of_ends(curve)
            rep = enumerate_count(degree, lines, kappa_cap=args.kappa_cap)
            out = rep.as_dict()
            out["kappa"] = len(degree)
            return 0, _emit(out, fmt)

        if args.command == "wavefront":
            _require(args, "domain", "delta")
            dom = load_domain(args.domain)
            curve = wavefront(dom, _parse_delta(args.delta))
            report = curve_to_dict(curve)
            report["betti"] = betti_and_degree(curve).as_dict()
            return 0, _emit(report, fmt)

        if args.command == "suitability":
            _require(args, "curve", "lines")
            curve = load_curve(args.curve)
            lines = load_lines(args.lines)
            rep = suitability_check(curve, lines)
            return (0 if rep.ok else 2), _emit(rep.as_dict(), fmt)

        raise WorkbenchError("USAGE", f"unknown command {args.command}")
    except WorkbenchError as err:
        payload = {"error": err.code, "message": str(err)}
        code = 2 if err.code in VALIDATION_CODES else 1
        return code, _emit(payload, fmt)


def main(argv=None):
    code, text = run_command(sys.argv[1:] if argv is None else argv)
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
