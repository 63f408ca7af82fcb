import collections
import itertools
import random
from fractions import Fraction

import pytest

import domain_oracle
from conftest import (blown_up_polygon, fixture_path, largest_offset,
                      rand_primitive)
from exact_oracle import solve_exact

from troplag import domain as domain_mod
from troplag.curve import (Edge, TropicalCurve, betti_and_degree,
                           over_one_denominator, validate_curve)
from troplag.domain import (BoundaryPointInfo, DelzantFailure, DelzantReport,
                            LineConfiguration, PolyhedralDomain,
                            check_even_primitive, classify_boundary_point,
                            corner_basis, curve_self_crossings,
                            suitability_check, validate_delzant, wavefront)
from troplag.errors import WorkbenchError
from troplag.io_json import (canonical_json, curve_to_dict, load_curve,
                             load_domain, load_lines)
from troplag.lattice import (content, cross, det_bareiss, dot,
                             elementary_divisors, is_zero, mixed,
                             solve_bareiss, vec_add, vec_neg, vec_scale,
                             vec_sub)


def triangle():
    return PolyhedralDomain(2, [{"normal": (1, 0), "offset": 0},
                                {"normal": (0, 1), "offset": 0},
                                {"normal": (-1, -1), "offset": -1}])


def quadrant():
    return PolyhedralDomain(2, [{"normal": (1, 0), "offset": 0},
                                {"normal": (0, 1), "offset": 0}])


def unit_square():
    return PolyhedralDomain(2, [{"normal": (1, 0), "offset": 0},
                                {"normal": (0, 1), "offset": 0},
                                {"normal": (-1, 0), "offset": -1},
                                {"normal": (0, -1), "offset": -1}])


def rp2_curve():
    return TropicalCurve(2, [("b0", (0, 0)), ("b1", ("1/2", "1/2"))],
                         [Edge("b0", "b1", (1, 1))])


def klein_curve():
    return TropicalCurve(2, [("v", (2, 2)), ("p", (0, 0)), ("q", (0, 5)),
                             ("r", (5, 0))],
                         [Edge("v", "p", (-1, -1)), Edge("v", "q", (-2, 3)),
                          Edge("v", "r", (3, -2))])


# ---------------------------------------------------------------------------
# Delzant validation


def test_delzant_standard_examples():
    assert validate_delzant(triangle()).ok
    assert validate_delzant(quadrant()).ok
    assert validate_delzant(unit_square()).ok
    simplex3 = PolyhedralDomain(3, [{"normal": (1, 0, 0), "offset": 0},
                                    {"normal": (0, 1, 0), "offset": 0},
                                    {"normal": (0, 0, 1), "offset": 0},
                                    {"normal": (-1, -1, -1), "offset": -1}])
    assert validate_delzant(simplex3).ok


def test_delzant_bad_corner_reports_index():
    bad = PolyhedralDomain(2, [{"normal": (1, 0), "offset": 0},
                               {"normal": (1, 2), "offset": 0}])
    rep = validate_delzant(bad)
    assert not rep.ok
    assert any(f.problem == "saturation" and f.index == 2
               for f in rep.failures)


def test_delzant_empty_domain():
    empty = PolyhedralDomain(2, [{"normal": (1, 0), "offset": 1},
                                 {"normal": (-1, 0), "offset": 1}])
    with pytest.raises(WorkbenchError) as err:
        validate_delzant(empty)
    assert err.value.code == "EMPTY_DOMAIN"


def test_delzant_redundant_facet():
    dom = PolyhedralDomain(2, [{"normal": (1, 0), "offset": 0},
                               {"normal": (0, 1), "offset": 0},
                               {"normal": (1, 1), "offset": 0}])
    rep = validate_delzant(dom)
    assert not rep.ok
    assert any("redundant" in s for s in rep.issues)


def test_delzant_non_simple_apex():
    pyramid = PolyhedralDomain(3, [{"normal": (1, 0, 1), "offset": 0},
                                   {"normal": (-1, 0, 1), "offset": 0},
                                   {"normal": (0, 1, 1), "offset": 0},
                                   {"normal": (0, -1, 1), "offset": 0}])
    rep = validate_delzant(pyramid)
    assert not rep.ok
    assert any(f.problem == "non_simple" for f in rep.failures)


# ---------------------------------------------------------------------------
# the face search against the exhaustive stratum search


def _oracle_fm_feasible(ineqs, nvars):
    """ineqs: (coeffs, rhs, strict) meaning coeffs . y >= rhs (> if strict)."""
    for k in reversed(range(nvars)):
        pos, neg, new = [], [], []
        for co, rhs, st in ineqs:
            ck = co[k]
            if ck > 0:
                pos.append((co, rhs, st))
            elif ck < 0:
                neg.append((co, rhs, st))
            else:
                new.append((co[:k], rhs, st))
        for a, r1, s1 in pos:
            for b, r2, s2 in neg:
                ca, cb = a[k], b[k]
                co = tuple(-cb * a[i] + ca * b[i] for i in range(k))
                new.append((co, -cb * r1 + ca * r2, s1 or s2))
        ineqs = new
    for _, rhs, st in ineqs:
        if (st and 0 <= rhs) or (not st and 0 < rhs):
            return False
    return True


def _oracle_stratum_feasible(domain, active, strict_elsewhere=True):
    """Is there a point with the given facets tight (others strict)?"""
    eq_rows = [list(domain.facets[j].normal) for j in active]
    eq_rhs = [domain.facets[j].offset for j in active]
    sol = solve_exact(eq_rows, eq_rhs) if active else None
    if active:
        if sol.status == "none":
            return False
        x0, kernel = sol.solution, sol.kernel
    else:
        x0 = tuple(Fraction(0) for _ in range(domain.dim))
        kernel = tuple(tuple(Fraction(1) if i == j else Fraction(0)
                             for i in range(domain.dim))
                       for j in range(domain.dim))
    ineqs = []
    for j, f in enumerate(domain.facets):
        if j in active:
            continue
        co = tuple(dot(f.normal, k) for k in kernel)
        rhs = f.offset - dot(f.normal, x0)
        ineqs.append((co, rhs, strict_elsewhere))
    return _oracle_fm_feasible(ineqs, len(kernel))


def oracle_validate_delzant(d):
    """The exhaustive routine: every facet subset of size 2 to n."""
    issues = []
    failures = []
    for j, f in enumerate(d.facets):
        if len(f.normal) != d.dim:
            issues.append(f"facet {j}: normal has wrong dimension")
        elif is_zero(f.normal):
            issues.append(f"facet {j}: zero normal")
        elif content(f.normal) != 1:
            issues.append(f"facet {j}: normal {f.normal} not primitive")
    if issues:
        return DelzantReport(False, tuple(issues), ())
    if not _oracle_stratum_feasible(d, (), strict_elsewhere=False):
        raise WorkbenchError("EMPTY_DOMAIN", "domain has no points")
    for j in range(len(d.facets)):
        if not _oracle_stratum_feasible(d, (j,)):
            issues.append(f"facet {j} is redundant (supports no facet)")
    n = len(d.facets)
    for size in range(2, n + 1):
        for S in itertools.combinations(range(n), size):
            if not _oracle_stratum_feasible(d, S):
                continue
            normals = [d.facets[j].normal for j in S]
            divisors = elementary_divisors(normals)
            rank = len(divisors)
            if rank < len(S) or rank > d.dim or len(S) > d.dim:
                failures.append(DelzantFailure(S, "non_simple", None))
                issues.append(f"stratum {S}: non-simple corner")
                continue
            index = 1
            for dv in divisors:
                index *= dv
            if index != 1:
                failures.append(DelzantFailure(S, "saturation", index))
                issues.append(
                    f"stratum {S}: normals span a sublattice of index {index}")
    return DelzantReport(not issues, tuple(issues), tuple(failures))


def _outcome(validate, d):
    try:
        return validate(d)
    except WorkbenchError as err:
        return err.code


def _domain(dim, facets):
    return PolyhedralDomain(dim, [{"normal": u, "offset": a}
                                  for u, a in facets])


def prism(facets, height=3):
    return [((u[0], u[1], 0), a) for u, a in facets] + \
        [((0, 0, 1), Fraction(0)), ((0, 0, -1), Fraction(-height))]


def pyramid(base_normals):
    """Cone z >= -u . (x, y) over each u, cut by z <= 1: apex at 0."""
    return [((u[0], u[1], 1), 0) for u in base_normals] + \
        [((0, 0, -1), -1)]


def parabola_pyramid(m):
    """Pyramid over an m-gon, m >= 4: sides (t, t^2 - 1, 1), primitive
    and in convex position around the origin."""
    return pyramid([(t, t * t - 1) for t in range(1 - m // 2, m - m // 2 + 1)])


def _random_domain(rng, dim):
    """Up to 10 random facets around a centre; some through it."""
    centre = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                   for _ in range(dim))
    facets = []
    for _ in range(rng.randint(dim, 9 if dim == 2 else 8)):
        u = rand_primitive(rng, -2, 2, dim)
        slack = rng.choice([0, 0, Fraction(1, 2), 1, 2, 3]) \
            if rng.random() < 0.9 else rng.randint(-3, 3)
        facets.append((u, dot(u, centre) - slack))
    if rng.random() < 0.2:
        u, a = facets[0]
        facets.append((tuple(-c for c in u), -a))
    return _domain(dim, facets)


def _named_domains():
    rng = random.Random(5)
    cases = {}
    for count in (5, 7, 8, 10):
        cases[f"polygon{count}"] = _domain(2, blown_up_polygon(rng, count))
        cases[f"polygon{count}-spoiled"] = _domain(
            2, blown_up_polygon(rng, count, spoiled=True))
    for count in (5, 6, 8):
        cases[f"prism{count}"] = _domain(
            3, prism(blown_up_polygon(rng, count)))
        cases[f"prism{count}-spoiled"] = _domain(
            3, prism(blown_up_polygon(rng, count, spoiled=True)))
    cases["square-pyramid"] = _domain(3, pyramid(
        [(1, 0), (-1, 0), (0, 1), (0, -1)]))
    cases["hexagon-pyramid"] = _domain(3, pyramid(
        [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, -1)]))
    square = [((1, 0), 0), ((0, 1), 0), ((-1, 0), -2), ((0, -1), -2)]
    cases["redundant-outside"] = _domain(2, square + [((1, 1), -1)])
    cases["redundant-at-corner"] = _domain(2, square + [((1, 1), 0)])
    cases["redundant-repeated"] = _domain(2, square + [((1, 0), 0)])
    cases["quadrant"] = _domain(2, [((1, 0), 0), ((0, 1), 0)])
    cases["strip"] = _domain(2, [((1, 0), 0), ((-1, 0), -1)])
    cases["half-space"] = _domain(3, [((1, 1, 0), 2)])
    cases["octant-corner-cut"] = _domain(
        3, [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0),
            ((1, 1, 1), 1)])
    cases["lower-dim-segment"] = _domain(
        2, [((0, 1), 1), ((0, -1), -1), ((1, 0), 0), ((-1, 0), -3)])
    cases["lower-dim-plane-slab"] = _domain(
        3, [((1, 2, 0), "1/2"), ((-1, -2, 0), "-1/2"), ((0, 0, 1), 0)])
    cases["single-point"] = _domain(
        2, [((1, 0), 0), ((0, 1), 0), ((-1, -1), 0)])
    cases["empty"] = _domain(2, [((1, 0), 1), ((-1, 0), 1)])
    cases["empty-3d"] = _domain(
        3, [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0),
            ((-1, -1, -1), 1)])
    return cases


NAMED_DOMAINS = _named_domains()


@pytest.mark.parametrize("name", sorted(NAMED_DOMAINS))
def test_face_search_matches_exhaustive_named(name):
    d = NAMED_DOMAINS[name]
    assert _outcome(validate_delzant, d) == \
        _outcome(oracle_validate_delzant, d)


@pytest.mark.parametrize("dim", [2, 3])
def test_face_search_matches_exhaustive_random(dim):
    rng = random.Random(100 + dim)
    kinds = set()
    for _ in range(120 if dim == 2 else 80):
        d = _random_domain(rng, dim)
        got = _outcome(validate_delzant, d)
        assert got == _outcome(oracle_validate_delzant, d), d.facets
        if isinstance(got, str):
            kinds.add(got)
            continue
        kinds.add("ok" if got.ok else "not ok")
        kinds.update(f.problem for f in got.failures)
        if any("redundant" in s for s in got.issues):
            kinds.add("redundant")
    # the draws reach every branch of the report
    assert kinds == {"EMPTY_DOMAIN", "ok", "not ok", "non_simple",
                     "saturation", "redundant"}


def test_named_domain_reports():
    """Spot values the oracle comparison pins; each case is what it says."""
    for name, d in NAMED_DOMAINS.items():
        if name.startswith("empty"):
            assert _outcome(validate_delzant, d) == "EMPTY_DOMAIN"
            continue
        rep = validate_delzant(d)
        problems = [f.problem for f in rep.failures]
        if name.startswith(("polygon", "prism")):
            if name.endswith("-spoiled"):
                assert [f.index for f in rep.failures] \
                    == [2] * len(rep.failures) != []
            else:
                assert rep.ok
        elif name.endswith("pyramid"):
            sides = tuple(range(len(d.facets) - 1))
            assert DelzantFailure(sides, "non_simple", None) in rep.failures
        elif name.startswith("redundant"):
            assert any("redundant" in s for s in rep.issues)
        elif name.startswith("lower-dim"):
            assert "non_simple" in problems
    assert validate_delzant(NAMED_DOMAINS["quadrant"]).ok
    assert validate_delzant(NAMED_DOMAINS["strip"]).ok
    assert validate_delzant(NAMED_DOMAINS["half-space"]).ok


@pytest.mark.parametrize("normal,issue", [
    ((1, 0, 0), "facet 1: normal has wrong dimension"),
    ((0, 0), "facet 1: zero normal"),
    ((2, 0), "facet 1: normal (2, 0) not primitive"),
])
def test_delzant_rejects_a_malformed_normal(normal, issue):
    """A malformed normal is reported before any stratum is searched."""
    d = _domain(2, [((0, 1), 0), (normal, 0)])
    rep = validate_delzant(d)
    assert rep == DelzantReport(False, (issue,), ())
    assert rep == oracle_validate_delzant(d)
    assert domain_mod._delzant(d)[1] is None


def _spy(monkeypatch, name):
    """Record each call of one module function as (args, result), in
    order, and let it run as before."""
    calls = []
    real = getattr(domain_mod, name)

    def spied(*args):
        out = real(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(domain_mod, name, spied)
    return calls


def test_face_search_polygon_passes_constant(monkeypatch):
    facets = blown_up_polygon(random.Random(40), 40)
    d = _domain(2, facets)
    calls = _spy(monkeypatch, "_fm_point")
    frames = _spy(monkeypatch, "_frame")
    lines = _spy(monkeypatch, "_line_sets")
    assert validate_delzant(d).ok
    # one pass over the domain's rows and no frame; the polygon is its
    # only 2-face, whose edges and vertices one integer line scan per
    # facet reads off; the exhaustive search made 2^n passes, one pass per
    # edge and facet n^2 + 1, and one per 2-face and facet n + 1 (n = 40)
    assert len(calls) <= 1
    assert frames == []
    # each facet's line gives the set of its edge and of the edge's lower
    # end, so every vertex is read once: 2n sets, not 3n
    assert len(lines) == 40
    assert sum(len(sets) for _, sets in lines) == 80
    assert len({S for _, sets in lines for S in sets}) == 80


class _CountingLine:
    """A line's (c, b) rows that count how often they are read."""

    def __init__(self, rows):
        self.rows = list(rows)
        self.reads = 0

    def __iter__(self):
        for row in self.rows:
            self.reads += 1
            yield row


def test_face_search_reads_each_line_row_once(monkeypatch):
    """On the 40-gon of the test above, each facet's line reads its 40
    rows once: the bound pass of `_interval` gives the line's closed
    sets, with no second scan per point (two more reads of each row)."""
    d = _domain(2, blown_up_polygon(random.Random(40), 40))
    real = domain_mod._line_sets
    lines = []

    def counted(tight, facets, line):
        lines.append(_CountingLine(line))
        return real(tight, facets, lines[-1])

    monkeypatch.setattr(domain_mod, "_line_sets", counted)
    assert validate_delzant(d).ok
    assert [line.reads for line in lines] == [40] * 40


def test_interval_reports_the_rows_at_each_end():
    """The rows that attain each bound, in row order, ties included, and
    the rows 0 s >= 0; a later, strictly tighter bound drops the rows of
    the earlier one."""
    rows = [(1, 0), (0, 0), (2, 3), (-1, -4), (4, 6), (0, -1), (-3, -12),
            (-2, -9), (6, 9)]
    assert domain_mod._interval(rows) == (
        (3, 2, [2, 4, 8]), (4, 1, [3, 6]), [1])
    # a single point: 3/2 from both sides
    assert domain_mod._interval([(2, 3), (-2, -3), (4, 6), (-4, -6)]) == (
        (3, 2, [0, 2]), (3, 2, [1, 3]), [])


def _ties_domains():
    """2-D domains whose lines meet several facets at one point: three
    facet lines through one corner, a repeated facet, and a facet that
    touches the square at a corner only, with its neighbours repeated."""
    square = [((1, 0), 0), ((0, 1), 0), ((-1, 0), -2), ((0, -1), -2)]
    return [
        _domain(2, square + [((1, 1), 0)]),                     # 3 lines
        _domain(2, square + [((0, 1), 0)]),                     # repeated
        # a corner touched, its sides repeated
        _domain(2, square + [((1, 1), 0), ((1, 0), 0), ((0, 1), 0)]),
        _domain(2, square + [((-1, -1), -4), ((-1, 0), -2)]),
        # a wedge whose apex a repeated facet touches
        _domain(2, [((1, 1), 0), ((1, -1), 0), ((1, 0), 0), ((1, 0), 0),
                    ((-1, 0), -3)]),
    ]


def test_line_ties_match_the_oracles():
    """Where several facets attain one bound of a line, `_line_sets` reads
    all of them off `_interval`'s ties: the face sets are the per-face
    Fourier-Motzkin oracle's and the report is the exhaustive one.  A
    tie that replaced the rows of an equal bound instead of joining them
    loses a facet at a corner here."""
    for d in _ties_domains():
        assert domain_mod._face_sets(d) == domain_oracle.face_sets(d), \
            d.facets
        assert validate_delzant(d) == oracle_validate_delzant(d), d.facets


@pytest.mark.parametrize("m", [4, 5, 6, 7, 8])
def test_pyramid_apex_matches_exhaustive(m):
    d = _domain(3, parabola_pyramid(m))
    rep = validate_delzant(d)
    assert rep == oracle_validate_delzant(d)
    non_simple = [f.facets for f in rep.failures if f.problem == "non_simple"]
    assert non_simple == [tuple(range(m))]


def test_pyramid_apex_passes_linear(monkeypatch):
    m = 20
    d = _domain(3, parabola_pyramid(m))
    calls = _spy(monkeypatch, "_fm_point")
    frames = _spy(monkeypatch, "_frame")
    rep = validate_delzant(d)
    n = m + 1
    # 1 + n from the domain, none from a 2-face (an integer line scan)
    # or an edge; one frame per 2-face, none for the domain.  One pass
    # per 2-face and facet made n^2 + 1, one per edge and facet
    # 3n^2 - 6n + 5, and a level-wise search over tight subsets would
    # meet 2^m at the apex
    assert len(calls) <= n + 1
    assert len(frames) <= n
    # the pattern of m <= 8: only the apex is non-simple, and every
    # other failure sits on an edge or a base corner of adjacent sides
    non_simple = [f.facets for f in rep.failures if f.problem == "non_simple"]
    assert non_simple == [tuple(range(m))]
    adjacent = {tuple(sorted((i, (i + 1) % m))) for i in range(m)}
    for f in rep.failures:
        if f.problem == "saturation":
            assert tuple(j for j in f.facets if j != m) in adjacent


def _face_oracle_domains():
    """Domains for the face-set oracle: the named ones, the random draws
    of the exhaustive comparison, seeded 8-60-gons (spoiled ones too) and
    prisms over them, pyramids, and the cases a 2-face scan must get
    right."""
    domains = list(NAMED_DOMAINS.values())
    for dim in (2, 3):
        rng = random.Random(100 + dim)
        domains += [_random_domain(rng, dim)
                    for _ in range(120 if dim == 2 else 80)]
    rng = random.Random(65)
    for count in range(8, 61, 13):
        for spoiled in (False, True):
            facets = blown_up_polygon(rng, count, spoiled)
            domains += [_domain(2, facets), _domain(3, prism(facets))]
    domains += [_domain(3, parabola_pyramid(m)) for m in range(4, 13)]
    square = [((1, 0), 0), ((0, 1), 0), ((-1, 0), -2), ((0, -1), -2)]
    domains += [
        _domain(2, [((1, 0), 0)]),                           # half-plane
        _domain(2, [((1, 0), 0), ((-1, 0), -1)]),            # strip
        _domain(2, [((1, 0), 0), ((0, 1), 0)]),              # quadrant
        _domain(2, [((1, 1), 0), ((0, 1), 0), ((-1, -1), -3)]),
        _domain(2, square + [((1, 1), 0), ((-1, 1), -2)]),   # corners
        _domain(2, square + [((1, 0), 0), ((0, -1), -2)]),   # duplicates
        _domain(2, square + [((-1, 0), 0)]),                 # opposite
        _domain(3, [((1, 2, 0), "1/2"), ((-1, -2, 0), "-1/2"),
                    ((0, 0, 1), 0), ((0, 1, 0), 0)]),        # flat domain
        duplicate_facet_domain(),
    ]
    return domains


def duplicate_facet_domain():
    """A pointed 3-D domain with one facet given twice."""
    return _domain(3, [((1, 0, 0), 0), ((-1, 0, 0), -1), ((0, 0, 1), 0),
                       ((0, 0, -1), -2), ((0, 1, 0), 0), ((0, 1, 0), 0)])


def _frame_or_root(d, S):
    """The frame of the face with set S; for S = (), the whole domain's
    coordinates: the identity kernel and the domain's own rows."""
    if S:
        return domain_mod._frame(d, S)
    kernel = tuple(tuple(int(i == j) for i in range(d.dim))
                   for j in range(d.dim))
    return kernel, dict(enumerate(d.rows))


def test_face_sets_match_fm_oracle(monkeypatch):
    """The face search against the search that ran one Fourier-Motzkin
    pass per 2-face and facet and read an edge's ends off its frame: the
    same closed sets, or None for both."""
    shapes = collections.Counter()
    frames = _spy(monkeypatch, "_frame")
    for d in _face_oracle_domains():
        frames.clear()
        sets = domain_mod._face_sets(d)
        # an edge popped by the search, whose ends the per-row passes find
        shapes["edge popped"] += any(len(kernel) == 1
                                     for _, (kernel, _) in frames)
        assert sets == domain_oracle.face_sets(d), d.facets
        for S in sets or ():
            kernel, rows = _frame_or_root(d, S)
            if len(kernel) != 2:
                continue
            shapes["2-face"] += 1
            shapes["constant facet"] += any(not any(co)
                                            for co, _ in rows.values())
            if S and solve_bareiss([d.facets[j].normal for j in S],
                                   [d.facets[j].offset for j in S])[0] < 0:
                shapes["negative d"] += 1
            if not any(len(T) == len(S) + 2 and set(S) < set(T)
                       for T in sets):
                shapes["no vertex"] += 1
    # strips, half-planes and flat domains give the 2-faces without one
    assert shapes["no vertex"] >= 5 and min(shapes.values()) >= 5, shapes
    assert shapes["negative d"] >= 100 and shapes["constant facet"] >= 100
    assert shapes["edge popped"] >= 20, shapes


# ---------------------------------------------------------------------------
# the vertex walk in dimension >= 3


def _cube_touched_at_a_corner():
    """The cube [0, 2]^3 and a facet that meets it in the corner (2, 2, 2)
    only: the descent ends at (0, 2, 2), and the edge from there meets
    two facets at once."""
    return _domain(3, [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0),
                       ((-1, 0, 0), -2), ((0, -1, 0), -2), ((0, 0, -1), -2),
                       ((-1, -1, -1), -6)])


# each domain the walk cannot certify, and where it stops: "root" when it
# never starts, "descent" before its first vertex, "walk" after it
WALK_FALLBACKS = {
    "strip prism (a line)": (
        lambda: _domain(3, prism([((1, 0), 0), ((-1, 0), -1)])), "descent"),
    "half-space (a line)": (lambda: NAMED_DOMAINS["half-space"], "descent"),
    "implicit equality": (
        lambda: NAMED_DOMAINS["lower-dim-plane-slab"], "root"),
    "square pyramid (non-simple)": (
        lambda: _domain(3, parabola_pyramid(4)), "descent"),
    "duplicate facet": (duplicate_facet_domain, "descent"),
    "empty": (lambda: NAMED_DOMAINS["empty-3d"], "root"),
    "walk meets two facets at once": (_cube_touched_at_a_corner, "walk"),
}


@pytest.mark.parametrize("name", sorted(WALK_FALLBACKS))
def test_walk_falls_back_to_the_face_search(monkeypatch, name):
    """Every case the walk leaves to the face search: the search runs
    (none for an empty domain), and the report is the exhaustive one."""
    make, stop = WALK_FALLBACKS[name]
    d = make()
    walks = _spy(monkeypatch, "_vertex_walk")
    searches = _spy(monkeypatch, "_search_faces")
    vertices = _spy(monkeypatch, "_edge_directions")
    got = _outcome(validate_delzant, d)
    assert got == _outcome(oracle_validate_delzant, d)
    if stop == "root":
        assert walks == []
    else:
        assert [out for _, out in walks] == [None]
        assert bool(vertices) == (stop == "walk")
    assert len(searches) == (got != "EMPTY_DOMAIN")


def test_descent_tie_at_a_simple_vertex_stays_on_the_walk(monkeypatch):
    """The descent on octant-corner-cut meets two facets at once, at a
    vertex on exactly 3 facets with independent normals: the walk
    certifies the domain, no face search runs, and the report is the
    exhaustive one."""
    d = NAMED_DOMAINS["octant-corner-cut"]
    walks = _spy(monkeypatch, "_vertex_walk")
    tests = _spy(monkeypatch, "_blocking")
    searches = _spy(monkeypatch, "_search_faces")
    assert validate_delzant(d) == oracle_validate_delzant(d)
    assert [out is not None for _, out in walks] == [True]
    assert any(len(first) > 1 for _, (first, _) in tests)
    assert searches == []


@pytest.mark.parametrize("n", [8, 16, 32])
def test_walk_on_prisms_is_linear(monkeypatch, n):
    """A simple pointed prism over an n-gon: one pass over the domain's
    own rows and no frame for the whole domain, no face search, one
    ratio test per edge (at most 2 dim more in the descent), and no
    Smith form, since every vertex has |det| = 1 and so covers its
    strata."""
    d = _domain(3, prism(blown_up_polygon(random.Random(n), n)))
    passes = _spy(monkeypatch, "_fm_point")
    frames = _spy(monkeypatch, "_frame")
    planes = _spy(monkeypatch, "_plane_faces")
    tests = _spy(monkeypatch, "_blocking")
    smith = _spy(monkeypatch, "elementary_divisors")
    assert validate_delzant(d).ok
    assert len(passes) == 1 and frames == planes == []
    # 3n edges, each tested from one end only; the descent tries at
    # most both signs of dim kernel directions
    assert 3 * n <= len(tests) <= 3 * n + 6
    assert smith == []


def test_walk_smith_forms_only_at_the_spoiled_corner(monkeypatch):
    """On a prism over a polygon with one corner of index 2, the strata
    left to the Smith form are the three that hold that corner's pair:
    its edge and its two vertices."""
    facets = blown_up_polygon(random.Random(9), 12, spoiled=True)
    d = _domain(3, prism(facets))
    corners = [(facets[i - 1][0], facets[i][0]) for i in range(12)]
    spoiled = [set(c) for c in corners if abs(det_bareiss(c)) != 1]
    assert len(spoiled) == 1
    pair = {(*u, 0) for u in spoiled[0]}
    smith = _spy(monkeypatch, "elementary_divisors")
    rep = validate_delzant(d)
    assert rep == oracle_validate_delzant(d)
    assert [f.index for f in rep.failures] == [2, 2, 2]
    assert len(smith) == 3
    assert all(pair <= set(rows) for (rows,), _ in smith)


def _product(p, q):
    """The product of two polygons, given as (normal, offset) facets."""
    return [((u[0], u[1], 0, 0), a) for u, a in p] + \
        [((0, 0, v[0], v[1]), b) for v, b in q]


def test_walk_in_four_dimensions(monkeypatch):
    """Products of two polygons, Delzant or with one spoiled corner, and
    a quadrant times a polygon: the walk's solve for the edge directions
    gives the search's sets and the exhaustive report."""
    rng = random.Random(4)
    quadrant = [((1, 0), 0), ((0, 1), 0)]
    walks = _spy(monkeypatch, "_vertex_walk")
    for p, q in [(blown_up_polygon(rng, 5), blown_up_polygon(rng, 4)),
                 (blown_up_polygon(rng, 4, spoiled=True),
                  blown_up_polygon(rng, 5)),
                 (quadrant, blown_up_polygon(rng, 5))]:
        d = _domain(4, _product(p, q))
        assert domain_mod._face_sets(d) == domain_oracle.face_sets(d)
        assert validate_delzant(d) == oracle_validate_delzant(d)
    assert len(walks) == 6 and None not in [out for _, out in walks]


# ---------------------------------------------------------------------------
# the integer face-search kernels against their Fraction versions


def _random_system(rng, nvars):
    """Integer rows co . y >= rhs in nvars variables, and their shape:
    0 at most nvars rows (unbounded fibres), 1 with an equality pair
    (a fibre with lo == hi), 2 with a contradictory pair, 3 free."""
    def row():
        return (tuple(rng.randint(-3, 3) for _ in range(nvars)),
                rng.randint(-6, 6))

    shape = rng.randrange(4)
    if shape == 0:
        return [row() for _ in range(rng.randint(0, nvars))], shape
    rows = [row() for _ in range(rng.randint(1, 7))]
    co, rhs = row()
    neg = tuple(-c for c in co)
    if shape == 1:
        rows += [(co, rhs), (neg, -rhs)]
    elif shape == 2:
        rows += [(co, rhs), (neg, -rhs - rng.randint(1, 3))]
    rng.shuffle(rows)
    return rows, shape


def _as_fractions(point):
    Y, D = point
    return tuple(Fraction(v, D) for v in Y)


def test_fm_point_against_fraction_oracle():
    rng = random.Random(61)
    seen = collections.Counter()
    for nvars in (1, 2, 3):
        for _ in range(800):
            ineqs, shape = _random_system(rng, nvars)
            got = domain_mod._fm_point(ineqs, nvars)
            want = domain_oracle.fm_point(ineqs, nvars)
            if want is None:
                assert got is None, ineqs
                seen["empty", shape] += 1
                continue
            (Y, D), dim = got
            assert D > 0 and len(Y) == nvars
            assert (_as_fractions((Y, D)), dim) == want, ineqs
            seen["flat" if dim < nvars else "full", shape] += 1
    # empty sets, sets with a fibre of length 0 and full-dimensional sets,
    # unbounded ones (shape 0) among them
    assert all(seen[kind, shape] >= 20
               for kind, shape in [("empty", 2), ("empty", 3), ("flat", 1),
                                   ("full", 0), ("full", 3)])


def _positive_multiple(row, ref):
    u, v = (*row[0], row[1]), (*ref[0], ref[1])
    i = next((i for i, x in enumerate(v) if x), None)
    if i is None:
        return not any(u)
    return u[i] * v[i] > 0 and all(a * v[i] == b * u[i]
                                   for a, b in zip(u, v))


def _kernel_domains():
    rng = random.Random(62)
    named = [d for name, d in sorted(NAMED_DOMAINS.items())
             if not name.startswith("empty")]
    return named + [_random_domain(rng, dim)
                    for dim in (2, 3) for _ in range(40)]


def test_frame_and_face_points_against_fraction_oracle():
    """_frame gives the reference kernel vectors and, up to a positive
    factor, its rows; the face points and their tight sets agree."""
    flipped = passes = 0
    for d in _kernel_domains():
        sets = domain_mod._face_sets(d)
        if sets is None:
            continue
        for S in sorted(sets | {()}):
            kernel, rows = _frame_or_root(d, S)
            ref_kernel, ref_rows = domain_oracle.frame(d, S)
            assert kernel == ref_kernel, (d.facets, S)
            assert rows.keys() == ref_rows.keys()
            assert all(_positive_multiple(rows[j], ref_rows[j])
                       for j in rows), (d.facets, S)
            if S and solve_bareiss([d.facets[j].normal for j in S],
                                   [d.facets[j].offset for j in S])[0] < 0 \
                    and kernel:
                flipped += 1
            for j in rows:
                found = domain_mod._fm_point(
                    list(rows.values()) + [(vec_neg(rows[j][0]),
                                            -rows[j][1])], len(kernel))
                want = domain_oracle.fm_point(
                    list(ref_rows.values()) + [(vec_neg(ref_rows[j][0]),
                                                -ref_rows[j][1])],
                    len(kernel))
                if want is None:
                    assert found is None
                    continue
                assert (_as_fractions(found[0]), found[1]) == want
                assert domain_mod._tight_at(S, rows, found[0]) == \
                    domain_oracle.tight_at(S, ref_rows, want[0])
                passes += 1
    # frames whose elimination has a negative d, where the kernel
    # orientation is flipped
    assert flipped >= 20 and passes >= 1000


def _on_facet(rng, f, dim):
    """A rational point exactly on the hyperplane of f."""
    x = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4))
              for _ in range(dim))
    u = f.normal
    return vec_add(x, vec_scale((f.offset - dot(u, x)) / dot(u, u), u))


def test_contains_and_active_against_fraction_oracle():
    rng = random.Random(63)
    seen = collections.Counter()
    domains = _kernel_domains()
    for d in domains:
        points = [tuple(rng.randint(-4, 4) for _ in range(d.dim))]
        for _ in range(6):
            points.append(tuple(Fraction(rng.randint(-12, 12),
                                         rng.randint(1, 6))
                                for _ in range(d.dim)))
            points.append(_on_facet(rng, rng.choice(d.facets), d.dim))
        for x in points:
            inside = d.contains(x)
            active = d.active(x)
            assert inside == domain_oracle.contains(d, x), (d.facets, x)
            assert active == domain_oracle.active(d, x), (d.facets, x)
            seen["inside" if inside else "outside"] += 1
            seen["on a facet"] += bool(active)
    assert any(f.offset < 0 and f.offset.denominator > 1
               for d in domains for f in d.facets)
    assert min(seen.values()) >= 100, seen


@pytest.mark.parametrize("curve, dom", [
    ("rp2", "triangle"), ("klein", "quadrant"), ("klein_sum", "quadrant"),
    ("sphere_w2", "rect42"), ("simplex_tripod", "simplex3"),
    ("crossing", "hexagon")])
def test_check_even_primitive_evaluates_each_point_once(monkeypatch, curve,
                                                         dom):
    """check_even_primitive evaluates the facets once at every vertex,
    boundary point and crossing, and nowhere else: a vertex and a ray's
    exit over the curve's one denominator, and an edge midpoint by
    adding its two ends' values, with no evaluation of its own.  The
    Delzant check's report is taken as computed before, since its vertex
    walk evaluates its own start point."""
    c = load_curve(fixture_path(f"{curve}.curve.json"))
    d = load_domain(fixture_path(f"{dom}.domain.json"))
    crossings = curve_self_crossings(c, d)
    drep = validate_delzant(d)
    monkeypatch.setattr(domain_mod, "validate_delzant", lambda _: drep)
    values = PolyhedralDomain._values
    calls = collections.Counter()

    def counted(self, X, L):
        calls[tuple(Fraction(x, L) for x in X)] += 1
        return values(self, X, L)

    monkeypatch.setattr(PolyhedralDomain, "_values", counted)
    rep = check_even_primitive(c, d, relaxed=True)
    assert rep.boundary
    assert set(calls.values()) == {1}, calls
    assert set(calls) == set(c.vertices.values()) | {
        b.point for b in rep.boundary} | {cr["point"] for cr in crossings}


def _reflected(d):
    """The mirror image in the line y = x: every pair determinant changes
    sign."""
    return PolyhedralDomain(2, [{"normal": f.normal[::-1],
                                 "offset": f.offset} for f in d.facets])


def test_polygon_vertices_against_fraction_oracle():
    """wavefront's vertices against the all-pairs Fraction routine (and
    its integer form, which the wavefront oracle uses): the face search's
    sets of two independent facets are the pairs whose point lies in
    the domain with only that pair tight, and `_vertex` solves every
    pair the routine finds to the same point."""
    rng = random.Random(64)
    negative = vertices = 0
    for d in [d for d in _kernel_domains() if d.dim == 2] + [
            _reflected(_domain(2, blown_up_polygon(rng, 9)))
            for _ in range(10)]:
        for delta in (0, Fraction(1, 7), Fraction(-2, 3)):
            offsets = [f.offset + delta for f in d.facets]
            want = domain_oracle.polygon_vertices(d, offsets)
            assert domain_oracle.polygon_vertices_int(d, offsets) == want
            shifted = _domain(2, [(f.normal, a)
                                  for f, a in zip(d.facets, offsets)])
            for v in want:
                num, det = domain_mod._vertex(shifted.rows, v["pair"])
                assert det > 0
                assert tuple(Fraction(x, det) for x in num) == v["point"]
            sets = domain_mod._face_sets(shifted)
            got = sorted(S for S in sets or () if len(S) == 2
                         and det_bareiss([d.facets[j].normal for j in S]))
            assert got == [v["pair"] for v in want
                           if v["active"] == v["pair"]]
            vertices += len(got)
            negative += sum(det_bareiss([d.facets[i].normal
                                         for i in v["pair"]]) < 0
                            for v in want)
    assert negative >= 50 and vertices >= 200


def test_interval_of_rows_without_the_variable():
    """A row 0 s >= b holds for every s when b <= 0 and for none when
    b > 0; the face search's callers drop such rows before they get
    here, so the branch is pinned directly."""
    assert domain_mod._interval([(0, 1)]) is None
    assert domain_mod._interval([(2, 3), (0, 1)]) is None
    assert domain_mod._interval([(0, 0), (2, 3)]) == ((3, 2, [1]), None, [0])
    assert domain_mod._interval([(0, -1), (-1, -4)]) == (None, (4, 1, [1]),
                                                         [])


def test_face_search_values_are_plain_ints(monkeypatch):
    """Every value the face search's kernels produce is an int, so
    Fraction arithmetic creeping back into the face search fails here."""
    names = {"_frame", "_fm_point", "_tight_at", "_plane_faces",
             "_interval", "_inside", "_line_sets", "_search_faces",
             "_vertex_walk", "_blocking", "_step", "_edge_directions"}
    spies = {name: _spy(monkeypatch, name) for name in names}

    def leaves(value):
        if isinstance(value, dict):
            value = [*value, *value.values()]
        if isinstance(value, (tuple, list, set)):
            for v in value:
                yield from leaves(v)
        elif value is not None:
            yield value

    for d in _kernel_domains():
        _outcome(validate_delzant, d)
    assert all(spies.values())
    bad = [(name, out) for name, calls in spies.items() for _, out in calls
           if any(type(v) is not int for v in leaves(out))]
    assert not bad, bad[:3]


# ---------------------------------------------------------------------------
# boundary classification


def test_classify_rp2_points():
    info = classify_boundary_point(rp2_curve(), triangle(), ("1/2", "1/2"))
    assert info.kind == "MOMENTUM2" and info.codim == 1
    assert dict(info.momenta) == {2: 2}
    info0 = classify_boundary_point(rp2_curve(), triangle(), (0, 0))
    assert info0.kind == "BISSECTRICE" and info0.codim == 2
    assert dict(info0.momenta) == {0: 1, 1: 1}


def test_classify_klein_momentum2():
    info = classify_boundary_point(klein_curve(), quadrant(), (0, 5))
    assert info.kind == "MOMENTUM2"
    assert dict(info.momenta) == {0: 2}


def test_classify_interior_point():
    c = TropicalCurve(2, [("b0", ("1/4", "1/4")), ("b1", ("1/2", "1/2"))],
                      [Edge("b0", "b1", (1, 1))])
    info = classify_boundary_point(c, triangle(), ("1/4", "1/4"))
    assert info.kind == "INTERIOR"


def test_classify_momentum_unimodular_invariance():
    rng = random.Random(21)
    curve = rp2_curve()
    dom = triangle()
    base = classify_boundary_point(curve, dom, ("1/2", "1/2"))
    for _ in range(20):
        # random SL2(Z): shear products
        u = [[1, rng.randint(-2, 2)], [0, 1]]
        l = [[1, 0], [rng.randint(-2, 2), 1]]
        m = [[sum(u[i][k] * l[k][j] for k in range(2)) for j in range(2)]
             for i in range(2)]
        assert abs(det_bareiss(m)) == 1
        minv_det = det_bareiss(m)

        def apply_pt(p):
            return (m[0][0] * p[0] + m[0][1] * p[1],
                    m[1][0] * p[0] + m[1][1] * p[1])

        # normals transform by the inverse transpose
        inv = ((m[1][1] * minv_det, -m[0][1] * minv_det),
               (-m[1][0] * minv_det, m[0][0] * minv_det))

        def apply_normal(p):
            return (inv[0][0] * p[0] + inv[1][0] * p[1],
                    inv[0][1] * p[0] + inv[1][1] * p[1])

        c2 = TropicalCurve(2, [(v, apply_pt(pos)) for v, pos in
                               curve.vertices.items()],
                           [Edge(e.tail, e.head,
                                 apply_pt(e.direction), e.weight,
                                 e.leaf_label) for e in curve.edges])
        d2 = PolyhedralDomain(2, [{"normal": apply_normal(f.normal),
                                   "offset": f.offset}
                                  for f in dom.facets])
        info = classify_boundary_point(c2, d2,
                                       apply_pt((Fraction(1, 2),
                                                 Fraction(1, 2))))
        assert info.kind == base.kind
        assert sorted(m2 for _, m2 in info.momenta) == \
            sorted(m2 for _, m2 in base.momenta)


FIXTURE_DOMAINS = ("hexagon", "quadrant", "rect42", "simplex3", "triangle",
                   "unit_square")
FIXTURE_CURVES = ("crossing", "disappearing", "klein", "klein_sum", "lens",
                  "poincare", "rp2", "segment", "simplex_tripod", "sphere_w2")


def test_classify_agrees_with_the_check():
    """classify_boundary_point at each boundary point that the
    even/primitive check reports is the check's classification, its
    end_index aside: every fixture curve in every fixture domain of its
    dimension, and wave curves of 8 to 40 facets."""
    domains = [load_domain(fixture_path(f"{n}.domain.json"))
               for n in FIXTURE_DOMAINS]
    cases = []
    for name in FIXTURE_CURVES:
        c = load_curve(fixture_path(f"{name}.curve.json"))
        cases += [(c, d) for d in domains if d.dim == c.dim]
    rng = random.Random(70)
    waves = [_wave_curve(rng, count) for count in (8, 12, 20, 30, 40)]
    seen = collections.Counter()
    for kind, pairs in (("fixture", cases), ("wave", waves)):
        for c, d in pairs:
            for info in check_even_primitive(c, d).boundary:
                fields = BoundaryPointInfo.__slots__[:-1]
                want = BoundaryPointInfo(*[getattr(info, f) for f in fields])
                assert classify_boundary_point(c, d, info.point) == want
                seen[kind] += 1
    # 40 fixture points: the crossing curve's ray 3 meets the boundary of
    # the unit square outside it, and the check reports its other points
    assert seen == {"fixture": 40, "wave": 110}, seen


def test_classify_takes_ray_exits_at_or_past_the_start():
    """Ray 0 of the tripod at (-1, 1) meets x = 0 at t = -1, behind its
    start, so (0, 1) is no boundary point of it; from (0, 1) it leaves at
    t = 0, and that point is its boundary point."""
    def tripod(start):
        return TropicalCurve(2, [("v", start)], [
            Edge("v", None, (-1, 0)), Edge("v", None, (0, -1)),
            Edge("v", None, (1, 1))])
    with pytest.raises(WorkbenchError) as err:
        classify_boundary_point(tripod((-1, 1)), quadrant(), (0, 1))
    assert err.value.code == "NOT_A_BOUNDARY_POINT"
    info = classify_boundary_point(tripod((0, 1)), quadrant(), (0, 1))
    assert (info.edge_index, info.active, info.kind) == (0, (0,), "OTHER")


def test_classify_refuses_a_boundary_point_outside_the_domain():
    """The ray along (1, -1) from (-2, 1) crosses y = 0 at (-1, 0),
    where x >= 0 fails: a curve end there, but outside the quadrant."""
    c = TropicalCurve(2, [("v", (-2, 1))], [
        Edge("v", None, (1, -1)), Edge("v", None, (0, 1)),
        Edge("v", None, (-1, 0))])
    with pytest.raises(WorkbenchError) as err:
        classify_boundary_point(c, quadrant(), (-1, 0))
    assert err.value.code == "OUTSIDE_DOMAIN"


def test_check_writes_the_curve_over_one_denominator_once(monkeypatch):
    """check_even_primitive writes the curve's frame once and hands it
    to the crossing sweep."""
    spy = _spy(monkeypatch, "_common_denominator")
    for name, dom in (("klein", "quadrant"), ("crossing", "hexagon"),
                      ("simplex_tripod", "simplex3")):
        spy.clear()
        check_even_primitive(load_curve(fixture_path(f"{name}.curve.json")),
                             load_domain(fixture_path(f"{dom}.domain.json")))
        assert len(spy) == 1


# ---------------------------------------------------------------------------
# even/primitive checks


def test_even_primitive_rp2():
    rep = check_even_primitive(rp2_curve(), triangle())
    assert rep.ok and rep.j == 1 and rep.bissectrice == 1


def test_even_primitive_simplex_tripod():
    simplex3 = PolyhedralDomain(3, [{"normal": (1, 0, 0), "offset": 0},
                                    {"normal": (0, 1, 0), "offset": 0},
                                    {"normal": (0, 0, 1), "offset": 0},
                                    {"normal": (-1, -1, -1), "offset": -1}])
    tripod = TropicalCurve(3, [
        ("p", ("1/4", "1/4", "1/4")), ("a", ("1/4", 0, 0)),
        ("b", ("1/2", "1/2", 0)), ("c", (0, "1/4", "3/4"))], [
        Edge("p", "a", (0, -1, -1)), Edge("p", "b", (1, 1, -1)),
        Edge("p", "c", (-1, 0, 2))])
    rep = check_even_primitive(tripod, simplex3)
    assert rep.ok
    assert [b.kind for b in rep.boundary] == ["BISSECTRICE"] * 3


def test_even_primitive_klein_strict():
    rep = check_even_primitive(klein_curve(), quadrant())
    assert rep.ok and rep.j == 2 and rep.bissectrice == 1
    kinds = {tuple(b.point): b.kind for b in rep.boundary}
    assert kinds[(0, 0)] == "BISSECTRICE"
    assert kinds[(0, 5)] == "MOMENTUM2"
    assert kinds[(5, 0)] == "MOMENTUM2"


def test_even_primitive_weights():
    heavy = TropicalCurve(2, [("b0", (1, 1)), ("b1", (2, 2))],
                          [Edge("b0", "b1", (1, 1), 2)])
    bad = check_even_primitive(heavy, unit_square())
    assert not bad.ok
    ok = check_even_primitive(heavy, PolyhedralDomain(2, [
        {"normal": (1, 0), "offset": 0},
        {"normal": (0, 1), "offset": 0},
        {"normal": (-1, 0), "offset": -5},
        {"normal": (0, -1), "offset": -5}]), relaxed=True)
    # still fails: the curve simply stops inside the domain
    assert not ok.ok


def test_even_primitive_vertex_on_boundary():
    c = TropicalCurve(2, [("v", (0, 2)), ("p", (2, 0)), ("q", (0, 5)),
                          ("r", (3, 3))],
                      [Edge("v", "p", (1, -1)), Edge("v", "q", (0, 1)),
                       Edge("v", "r", (-1, 0))])
    rep = check_even_primitive(c, quadrant())
    assert not rep.ok


def _four_valent():
    return TropicalCurve(2, [("v", (2, 2)), ("p", (0, 2)), ("q", (2, 0))],
                         [Edge("v", "p", (-1, 0)), Edge("v", "q", (0, -1)),
                          Edge("v", None, (1, 0)), Edge("v", None, (0, 1))])


def _collinear():
    # v's three edges lie on one line, and its two left edges overlap
    return TropicalCurve(2, [("v", (2, 2)), ("p", (0, 2)), ("q", (1, 2))],
                         [Edge("v", "p", (-1, 0)), Edge("v", "q", (-1, 0)),
                          Edge("v", None, (1, 0), 2)])


def _heavy_end():
    return TropicalCurve(2, [("v", (2, 2)), ("p", (0, 2)), ("q", (2, 0))],
                         [Edge("v", "p", (-1, 0), 2), Edge("v", "q", (0, -1)),
                          Edge("v", None, (2, 1))])


def _two_ends_at_the_origin():
    return TropicalCurve(2, [("a", (1, 2)), ("b", (2, 1)), ("p", (0, 0)),
                             ("q", (0, 0))],
                         [Edge("a", "b", (1, -1)), Edge("a", "p", (-1, -2)),
                          Edge("b", "q", (-2, -1)), Edge("a", None, (0, 1), 3),
                          Edge("b", None, (1, 0), 3)])


def _t_junction(h):
    """The vertical ray of c runs through the junction w at (2, h): on
    the boundary of the quadrant for h = 0, inside it for h = 1."""
    return TropicalCurve(2, [("w", (2, h)), ("a", (1, h + 1)),
                             ("b", (4, h + 1)), ("c", (2, h + 1))],
                         [Edge("w", "a", (-1, 1)), Edge("w", "b", (2, 1)),
                          Edge("w", None, (-1, -2)), Edge("a", "c", (1, 0)),
                          Edge("a", None, (-2, 1)), Edge("c", None, (0, -1)),
                          Edge("c", None, (1, 1)), Edge("b", None, (1, 0), 2),
                          Edge("b", None, (0, 1))])


def _two_t_junctions(h):
    """Two vertices each on an edge that does not touch it: w at (2, h)
    on c's vertical ray, as in `_t_junction`, and v at (4, h + 3) on c's
    diagonal ray.  For h = 1 and 2 the crossing sweep meets v first,
    while the set of crossing points, and so the report, lists w first."""
    return TropicalCurve(2, [("w", (2, h)), ("a", (1, h + 1)),
                             ("b", (4, h + 1)), ("c", (2, h + 1)),
                             ("v", (4, h + 3))],
                         [Edge("w", "a", (-1, 1)), Edge("w", "b", (2, 1)),
                          Edge("w", None, (-1, -2)), Edge("a", "c", (1, 0)),
                          Edge("a", None, (-2, 1)), Edge("c", None, (0, -1)),
                          Edge("c", None, (1, 1)), Edge("b", None, (1, 0), 2),
                          Edge("b", "v", (0, 1)), Edge("v", None, (2, 1)),
                          Edge("v", None, (-1, 0), 2)])


@pytest.mark.parametrize("curve, relaxed, issue", [
    (_four_valent, False, "vertex v has valence 4 > 3"),
    (_collinear, False, "vertex v: edges do not span a 2-plane"),
    (_collinear, False, "self-intersection locus is not finite"),
    (_heavy_end, True, "edge 0: weight 2 > 1 touches the boundary"),
    (_two_ends_at_the_origin, False,
     "two curve ends meet the boundary at the same point"),
    (lambda: _t_junction(0), False, "boundary point (2, 0) is a curve vertex"),
    (lambda: _t_junction(1), False, "vertex at (2, 1) lies on another edge"),
], ids=["valence", "plane", "overlap", "relaxed-weight", "shared-point",
        "vertex-on-boundary-point", "vertex-on-edge"])
def test_even_primitive_reports_each_issue(curve, relaxed, issue):
    c = curve()
    assert validate_curve(c).ok
    rep = check_even_primitive(c, quadrant(), relaxed)
    assert not rep.ok and issue in rep.issues


def test_even_primitive_stops_at_a_failed_delzant_check():
    bad = PolyhedralDomain(2, [{"normal": (1, 0), "offset": 0},
                               {"normal": (1, 2), "offset": 0}])
    drep = validate_delzant(bad)
    assert not drep.ok
    rep = check_even_primitive(rp2_curve(), bad)
    assert (rep.ok, rep.issues, rep.boundary, rep.delzant) == \
        (False, drep.issues, (), drep)


def test_even_primitive_reraises_other_crossing_errors(monkeypatch):
    def fail(c, L, X, S):
        raise WorkbenchError("INTERNAL_INCONSISTENCY", "planted")
    monkeypatch.setattr(domain_mod, "_crossing_sweep", fail)
    with pytest.raises(WorkbenchError) as err:
        check_even_primitive(klein_curve(), quadrant())
    assert err.value.code == "INTERNAL_INCONSISTENCY"


def test_skew_edges_with_overlapping_boxes_do_not_cross():
    """(0,0,0)-(2,2,2) and (3,0,1)-(1,2,1) have overlapping boxes and
    independent directions, but lie on skew lines: s (1,1,1) = (3-t, t,
    1) gives s = t = 1 and then 3 - t = 2 != 1.  Moving the second edge
    by -1 in x puts (1,1,1) on both."""
    def pair(x):
        return TropicalCurve(3, [("a", (0, 0, 0)), ("b", (2, 2, 2)),
                                 ("c", (x, 0, 1)), ("d", (x - 2, 2, 1))],
                             [Edge("a", "b", (1, 1, 1)),
                              Edge("c", "d", (-1, 1, 0))])
    assert curve_self_crossings(pair(3)) == []
    assert domain_mod._meet(((0, 0, 0), (1, 1, 1), 2),
                            ((3, 0, 1), (-1, 1, 0), 2), 1) is None
    assert curve_self_crossings(pair(2)) == \
        [{"edges": (0, 1), "point": (1, 1, 1)}]


def test_self_crossing_overlap_detected():
    c = TropicalCurve(2, [("a", (0, 0)), ("b", (2, 0)), ("x", (1, 0)),
                          ("y", (3, 0))],
                      [Edge("a", "b", (1, 0)), Edge("x", "y", (1, 0))])
    with pytest.raises(WorkbenchError) as err:
        curve_self_crossings(c)
    assert err.value.code == "NON_FINITE_SIGMA"


def _crossing_outcome(crossings, c, d=None):
    try:
        return crossings(c, d)
    except WorkbenchError as err:
        return str(err)


def _random_planar_curve(rng):
    """Up to 9 segments and rays in primitive directions on a small grid
    of rational points: shared vertices, crossings at vertices, touching
    ends and collinear overlaps all occur."""
    den = rng.choice([1, 2, 3])
    verts = {"v0": (Fraction(rng.randint(-6, 6), den),
                    Fraction(rng.randint(-6, 6), den))}
    edges = []
    for _ in range(rng.randint(2, 9)):
        tail = rng.choice(sorted(verts))
        u = rand_primitive(rng, -4, 4, 2)
        kind = rng.random()
        if kind < 0.25:
            edges.append(Edge(tail, None, u))
            continue
        if kind < 0.5:
            head = rng.choice(sorted(verts))
            diff = vec_sub(verts[head], verts[tail])
            if not is_zero(diff):
                edges.append(Edge(tail, head,
                                  domain_oracle._rational_direction(diff)))
                continue
        head = f"v{len(verts)}"
        t = Fraction(rng.randint(1, 12), rng.choice([1, 2, 3]))
        verts[head] = vec_add(verts[tail], vec_scale(t, u))
        edges.append(Edge(tail, head, u))
    return TropicalCurve(2, list(verts.items()), edges)


def _wave_curve(rng, count):
    facets = blown_up_polygon(rng, count)
    delta = largest_offset(facets) * Fraction(rng.randint(20, 80), 100)
    d = _domain(2, facets)
    return wavefront(d, delta), d


def _balanced(c):
    """c with a ray added at every vertex of valence >= 2 that does not
    balance, along minus its weighted outward sum: every vertex of the
    result balances, a 2-valent one only as a straight marking."""
    edges = list(c.edges)
    for vid in c.vertices:
        inc = c.incident(vid)
        if len(inc) < 2:
            continue
        total = tuple(-sum(w * d[k] for _, d, w in inc) for k in range(2))
        if any(total):
            g = content(total)
            edges.append(Edge(vid, None, (total[0] // g, total[1] // g), g))
    return TropicalCurve(2, list(c.vertices.items()), edges)


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)


def _coprime_curve():
    """A valid planar curve whose vertex coordinates have the first 14
    primes as denominators, their common denominator 54 bits long (192
    with the ray exits from `_coprime_box`): a zigzag of segments,
    balanced by rays, that crosses itself."""
    verts = [(f"v{k}", (k * 2 + Fraction(1, PRIMES[k]),
                        (k * k * 7) % 11 + Fraction(k, PRIMES[k + 1])))
             for k in range(13)]
    edges = [Edge(a, b, domain_oracle._rational_direction(vec_sub(q, p)))
             for (a, p), (b, q) in zip(verts, verts[1:])]
    return _balanced(TropicalCurve(2, verts, edges))


def _coprime_box():
    """A rectangle around `_coprime_curve` that holds some of its double
    points, its offsets over more primes."""
    return _domain(2, [((1, 0), -Fraction(7, 47)),
                       ((0, 1), -(18 + Fraction(9, 53))),
                       ((-1, 0), -(30 + Fraction(1, 59))),
                       ((0, -1), -(100 + Fraction(1, 61)))])


def test_crossings_match_all_pairs_oracle_on_fixtures():
    """The box-filtered sweep reports the oracle's crossings in the same
    order: the crossing fixture and every fixture curve, alone and in
    each fixture domain of its dimension, and wave curves of 8 to 40
    facets."""
    domains = [load_domain(fixture_path(f"{n}.domain.json"))
               for n in ("hexagon", "quadrant", "rect42", "simplex3",
                         "triangle", "unit_square")]
    cases = []
    for name in ("crossing", "disappearing", "klein", "klein_sum", "lens",
                 "poincare", "rp2", "segment", "simplex_tripod",
                 "sphere_w2"):
        c = load_curve(fixture_path(f"{name}.curve.json"))
        cases += [(c, None)] + [(c, d) for d in domains if d.dim == c.dim]
    rng = random.Random(65)
    for count in (8, 12, 20, 30, 40):
        c, d = _wave_curve(rng, count)
        cases += [(c, d), (c, None)]
    c = _coprime_curve()
    cases += [(c, None), (c, _coprime_box())]
    # curves no validation has seen: a direction that is not primitive
    # (the segment ends at a third of its step), and a head off the line
    # of its edge, where the two edges at that head cross elsewhere
    cases += [(TropicalCurve(2, [("a", (0, 0)), ("b", (1, 0)),
                                 ("c", ("1/2", 1)), ("d", ("1/2", -1))],
                             [Edge("a", "b", (3, 0)),
                              Edge("c", "d", (0, -1))]), None),
              (TropicalCurve(2, [("a", (0, 0)), ("h", (4, 1)),
                                 ("b", (4, -3))],
                             [Edge("a", "h", (1, 0)),
                              Edge("h", "b", (0, -1))]), None)]
    found = 0
    for c, d in cases:
        got = _crossing_outcome(curve_self_crossings, c, d)
        assert got == _crossing_outcome(domain_oracle.curve_self_crossings,
                                        c, d)
        found += len(got)
    # the crossing fixture's double point, alone and clipped to a domain,
    # the coprime curve's, and one on each unvalidated curve
    assert found >= 6


def test_crossings_match_all_pairs_oracle_on_random_curves():
    rng = random.Random(66)
    seen = collections.Counter()
    for k in range(400):
        c = _random_planar_curve(rng)
        d = _random_domain(rng, 2) if k % 2 else None
        got = _crossing_outcome(curve_self_crossings, c, d)
        assert got == _crossing_outcome(domain_oracle.curve_self_crossings,
                                        c, d), (c.vertices, c.edges, d)
        if isinstance(got, str):
            assert got.startswith("NON_FINITE_SIGMA: edges ")
            seen["overlap", d is None] += 1
        else:
            seen["crossings" if got else "none", d is None] += 1
    # collinear overlaps, curves with and without crossings, each with
    # and without a domain to clip the rays
    assert min(seen.values()) >= 20 and len(seen) == 6, seen


def _meet_pairs(monkeypatch, c, d):
    """curve_self_crossings(c, d) and the edge pairs (i, j) whose realized
    edges the exact pair test received, each pair read off the curve
    over its one denominator."""
    L, X, S = domain_mod._common_denominator(c, d)
    edge_of = collections.defaultdict(list)
    for i, e in enumerate(c.edges):
        edge_of[X[e.tail], e.direction, S[i]].append(i)
    spy = _spy(monkeypatch, "_meet")
    got = _crossing_outcome(curve_self_crossings, c, d)
    pairs = [(edge_of[g1], edge_of[g2]) for (g1, g2, _), _ in spy]
    return got, pairs


def _shares_vertex(c, i, j):
    ei, ej = c.edges[i], c.edges[j]
    return bool(({ei.tail, ei.head} & {ej.tail, ej.head}) - {None})


def test_crossing_pair_tests_linear_on_wave_curve(monkeypatch):
    """On the 2n-edge wave curve of a 40-gon, the exact pair test never
    runs: the box filter passes only pairs of edges that share a vertex
    and are not parallel (all pairs would be n (2n - 1) = 3,160).  On
    the fixture and random curves, every pair it gets shares no vertex
    or is parallel."""
    c, d = _wave_curve(random.Random(67), 40)
    assert len(c.edges) == 80
    assert _meet_pairs(monkeypatch, c, d) == ([], [])
    rng = random.Random(69)
    cases = [(load_curve(fixture_path(f"{name}.curve.json")), None)
             for name in ("crossing", "klein_sum", "sphere_w2")]
    cases += [(_coprime_curve(), None)] + [
        (_random_planar_curve(rng), _random_domain(rng, 2) if k % 2 else None)
        for k in range(100)]
    tested = collections.Counter()
    for c, d in cases:
        monkeypatch.undo()
        for edges_1, edges_2 in _meet_pairs(monkeypatch, c, d)[1]:
            assert any(not _shares_vertex(c, i, j) or domain_mod._minor(
                c.edges[i].direction, c.edges[j].direction) is None
                for i in edges_1 for j in edges_2)
            tested[min(len(edges_1), len(edges_2))] += 1
    assert tested[1] >= 100, tested


def test_shared_vertex_rule(monkeypatch):
    """Two edges at one vertex skip the exact test only when their
    directions are independent: edges leaving a vertex the same way
    still overlap, opposite edges at a marking are tested and touch only
    there, and a crossing of edges with no vertex in common is still
    reported."""
    same_way = TropicalCurve(2, [("v", (0, 0)), ("a", (2, 2)), ("b", (1, 1))],
                             [Edge("v", "a", (1, 1)), Edge("v", "b", (1, 1))])
    assert _meet_pairs(monkeypatch, same_way, None) == (
        "NON_FINITE_SIGMA: edges 0 and 1 overlap along a segment",
        [([0], [1])])
    marking = TropicalCurve(2, [("m", (1, 0)), ("a", (0, 0)), ("b", (3, 0))],
                            [Edge("m", "a", (-1, 0)), Edge("m", "b", (1, 0))])
    monkeypatch.undo()
    assert _meet_pairs(monkeypatch, marking, None) == ([], [([0], [1])])
    crossing = load_curve(fixture_path("crossing.curve.json"))
    monkeypatch.undo()
    got, pairs = _meet_pairs(monkeypatch, crossing, None)
    assert got == [{"edges": (0, 3), "point": (0, 12)}]
    assert ([0], [3]) in pairs
    assert all(not _shares_vertex(crossing, i, j)
               for edges_1, edges_2 in pairs
               for i in edges_1 for j in edges_2)


def _evenness_outcome(check, c, d, relaxed):
    try:
        return check(c, d, relaxed)
    except WorkbenchError as err:
        return str(err)


def test_even_primitive_matches_fraction_oracle():
    """check_even_primitive, on one denominator per curve, against the
    Fraction test it replaced: the same whole report, its repr showing
    the types of the values too, or the same error, on every fixture
    curve in every fixture domain of its dimension, wave curves of 8 to
    40 facets, the coprime curve, curves with two vertices on other
    edges, and 400 random planar curves (every other one balanced) in
    random domains."""
    domains = [load_domain(fixture_path(f"{n}.domain.json"))
               for n in ("hexagon", "quadrant", "rect42", "simplex3",
                         "triangle", "unit_square")]
    cases = []
    for name in ("crossing", "disappearing", "klein", "klein_sum", "lens",
                 "poincare", "rp2", "segment", "simplex_tripod",
                 "sphere_w2"):
        c = load_curve(fixture_path(f"{name}.curve.json"))
        cases += [(c, d, relaxed) for d in domains if d.dim == c.dim
                  for relaxed in (False, True)]
    rng = random.Random(70)
    for count in (8, 12, 20, 30, 40):
        c, d = _wave_curve(rng, count)
        cases.append((c, d, False))
    cases.append((_coprime_curve(), _coprime_box(), True))
    cases += [(_two_t_junctions(h), quadrant(), False) for h in (1, 2, 3)]
    for k in range(400):
        c = _random_planar_curve(rng)
        c = _balanced(c) if k % 2 else c
        # a random domain, and a Delzant polygon that holds the grid
        polygon = _domain(2, [(u, a - 6 * u[0] - 6 * u[1]) for u, a in
                              blown_up_polygon(rng, rng.randint(4, 9))])
        cases += [(c, _random_domain(rng, 2), k % 3 == 0),
                  (c, polygon, k % 3 == 0)]
    seen = collections.Counter()
    for c, d, relaxed in cases:
        got = _evenness_outcome(check_even_primitive, c, d, relaxed)
        want = _evenness_outcome(domain_oracle.check_even_primitive, c, d,
                                 relaxed)
        assert repr(got) == repr(want), (c.vertices, c.edges, d.facets)
        if isinstance(got, str):
            seen[got.split(":")[0]] += 1
        elif got.delzant is not None and got.delzant.ok and c.dim == d.dim:
            seen["checked"] += 1
            seen["ok"] += got.ok
            seen["ray exits"] += any(c.edges[b.edge_index].head is None
                                     for b in got.boundary)
            seen["punctures"] += got.punctures > 0
            seen["crossings"] += bool(got.crossings)
            seen["not finite"] += \
                "self-intersection locus is not finite" in got.issues
            seen["runs inside"] += any("runs inside the boundary" in i
                                       for i in got.issues)
            seen["exits outside"] += any(
                "meets the boundary outside the domain" in i
                for i in got.issues)
    # reports past both validations, each branch of the test, and the
    # errors it raises
    assert seen["checked"] >= 200 and min(seen[k] for k in (
        "ok", "ray exits", "punctures", "crossings", "not finite",
        "runs inside", "exits outside", "EMPTY_DOMAIN")) >= 5, seen


# ---------------------------------------------------------------------------
# wave fronts


def test_wavefront_unit_square():
    wf = wavefront(unit_square(), Fraction(1, 4))
    assert betti_and_degree(wf).b1 == 1
    rep = check_even_primitive(wf, unit_square())
    assert rep.ok and rep.j == 0 and rep.bissectrice == 4
    assert len([b for b in rep.boundary if b.kind == "BISSECTRICE"]) == 4


def test_wavefront_triangle():
    wf = wavefront(triangle(), Fraction(1, 8))
    assert betti_and_degree(wf).b1 == 1
    rep = check_even_primitive(wf, triangle())
    assert rep.ok and rep.bissectrice == 3


def test_wavefront_hexagon():
    hexa = PolyhedralDomain(2, [
        {"normal": (1, 0), "offset": -1}, {"normal": (0, 1), "offset": -1},
        {"normal": (-1, 0), "offset": -1}, {"normal": (0, -1), "offset": -1},
        {"normal": (1, 1), "offset": -1}, {"normal": (-1, -1), "offset": -1}])
    wf = wavefront(hexa, Fraction(1, 8))
    # one corner segment per vertex of the hexagon
    endpoints = [v for v in wf.vertices if wf.valence(v) == 1]
    assert len(endpoints) == 6
    assert check_even_primitive(wf, hexa).ok


def test_wavefront_delta_too_large():
    with pytest.raises(WorkbenchError) as err:
        wavefront(unit_square(), Fraction(1, 2))
    assert err.value.code == "DELTA_TOO_LARGE"


def test_wavefront_random_delzant_polygons():
    rng = random.Random(31)
    bases = [unit_square(), triangle(),
             PolyhedralDomain(2, [
                 {"normal": (1, 0), "offset": -1},
                 {"normal": (0, 1), "offset": -1},
                 {"normal": (-1, 0), "offset": -1},
                 {"normal": (0, -1), "offset": -1},
                 {"normal": (1, 1), "offset": -1},
                 {"normal": (-1, -1), "offset": -1}])]
    checked = 0
    for _ in range(50):
        dom = rng.choice(bases)
        # unimodular change of coordinates keeps the Delzant property
        a = rng.randint(-2, 2)
        b = rng.randint(-2, 2)
        m = ((1, a), (0, 1)) if rng.random() < 0.5 else ((1, 0), (a, 1))
        shift = (Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                 Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        inv = ((m[1][1], -m[0][1]), (-m[1][0], m[0][0]))  # det is 1 here

        def apply_normal(p):
            return (inv[0][0] * p[0] + inv[1][0] * p[1],
                    inv[0][1] * p[0] + inv[1][1] * p[1])

        facets = []
        for f in dom.facets:
            n2 = apply_normal(f.normal)
            facets.append({"normal": n2,
                           "offset": f.offset + n2[0] * shift[0]
                           + n2[1] * shift[1]})
        d2 = PolyhedralDomain(2, facets)
        assert validate_delzant(d2).ok
        delta = Fraction(1, rng.randint(5, 9))
        try:
            wf = wavefront(d2, delta)
        except WorkbenchError as err:
            assert err.code == "DELTA_TOO_LARGE"
            continue
        rep = check_even_primitive(wf, d2)
        assert rep.ok and rep.j == 0
        checked += 1
    assert checked >= 40


def _wavefront_outcome(make, d, delta):
    try:
        return canonical_json(curve_to_dict(make(d, delta)))
    except WorkbenchError as err:
        return str(err)


def test_wavefront_matches_all_pairs_oracle():
    """wavefront, which reads the vertices off the Delzant face search,
    against the all-pairs routine: the same curve, byte for byte, or the
    same error, for offsets inside and beyond the largest valid one."""
    rng = random.Random(68)
    cases = []
    for _ in range(10):
        facets = blown_up_polygon(rng, rng.randint(8, 40))
        limit = largest_offset(facets)
        cases += [(_domain(2, facets), limit * r) for r in (
            Fraction(rng.randint(1, 99), 100), Fraction(1, 1000), 1,
            Fraction(rng.randint(101, 300), 100))]
    strip = _domain(2, [((1, 0), 0), ((-1, 0), -3), ((0, 1), 0),
                        ((1, 1), 1)])
    for d in (load_domain(fixture_path("quadrant.domain.json")), strip):
        cases += [(d, Fraction(k, 8)) for k in (1, 2, 3, 4, 6, 8, 12, 20)]
    cases += [(unit_square(), Fraction(1, 2)), (triangle(), 0),
              (_domain(2, [((1, 0), 0), ((-1, 0), -1)]), Fraction(1, 4)),
              (_domain(2, [((1, 0), 0), ((1, 2), 0)]), Fraction(1, 4))]
    outcomes = collections.Counter()
    for d, delta in cases:
        got = _wavefront_outcome(wavefront, d, delta)
        assert got == _wavefront_outcome(domain_oracle.wavefront, d, delta)
        outcomes[got.split(":")[0] if got[0] != "{" else "curve"] += 1
    assert outcomes["curve"] >= 20 and outcomes["DELTA_TOO_LARGE"] >= 20
    assert outcomes["INVALID_DOMAIN"] == 2 and \
        outcomes["INVALID_DELTA"] == 1, outcomes


# ---------------------------------------------------------------------------
# suitability and corner bases


def poincare_curve():
    return TropicalCurve(3, [("o", (0, 0, 0)), ("p1", (-1, 0, 0)),
                             ("p2", (0, -1, 0)), ("p3", (1, 1, 0))],
                         [Edge("o", "p1", (-1, 0, 0), 1, 0),
                          Edge("o", "p2", (0, -1, 0), 1, 1),
                          Edge("o", "p3", (1, 1, 0), 1, 2)])


def test_suitability_poincare():
    lines = LineConfiguration([
        {"point": (-1, 0, 0), "dir": (0, 1, 2)},
        {"point": (0, -1, 0), "dir": (1, 0, 3)},
        {"point": (1, 1, 0), "dir": (0, 1, 5)}])
    rep = suitability_check(poincare_curve(), lines)
    assert rep.ok
    assert all(r["crossPrimitive"] and r["isHullVertex"]
               for r in rep.per_line)


def test_suitability_parallel_line():
    lines = LineConfiguration([
        {"point": (-1, 0, 0), "dir": (-1, 0, 0)},
        {"point": (0, -1, 0), "dir": (1, 0, 3)},
        {"point": (1, 1, 0), "dir": (0, 1, 5)}])
    # the first line contains its leaf: not a boundary configuration
    with pytest.raises(WorkbenchError) as err:
        suitability_check(poincare_curve(), lines)
    assert err.value.code == "NOT_BOUNDARY_CONFIG"


def test_suitability_rejects_a_line_behind_its_leaf():
    """Leaf 0 of poincare_curve is the ray o + t (-1, 0, 0), t >= 0.  The
    line (1, 0, 0) + s (0, 1, 2) meets the ray's line at s = 0, where t
    = -1: behind the ray, so it does not meet the leaf.  The line through
    (-1, 0, 0), the mirror point, meets it at t = 1."""
    rest = [{"point": (0, -1, 0), "dir": (1, 0, 3)},
            {"point": (1, 1, 0), "dir": (0, 1, 5)}]
    behind = LineConfiguration([{"point": (1, 0, 0), "dir": (0, 1, 2)}]
                               + rest)
    with pytest.raises(WorkbenchError) as err:
        suitability_check(poincare_curve(), behind)
    assert str(err.value) == \
        "NOT_BOUNDARY_CONFIG: line 0 does not meet its leaf"
    ahead = LineConfiguration([{"point": (-1, 0, 0), "dir": (0, 1, 2)}]
                              + rest)
    assert suitability_check(poincare_curve(), ahead).per_line[0]["point"] \
        == (-1, 0, 0)


def test_suitability_names_a_missed_line_by_its_index():
    """klein.curve has no end labels: the line is named by its index."""
    klein = load_curve(fixture_path("klein.curve.json"))
    lines = LineConfiguration([
        {"point": (0, 0), "dir": (1, -1)},
        {"point": (0, 0), "dir": (-2, 3)},   # parallel to leaf 1, off it
        {"point": (5, 0), "dir": (0, 1)}])
    assert [end.label for end in klein.ends()] == [None] * 3
    with pytest.raises(WorkbenchError) as err:
        suitability_check(klein, lines)
    assert str(err.value) == \
        "NOT_BOUNDARY_CONFIG: line 1 does not meet its leaf"


def test_suitability_rejects_lines_of_another_dimension():
    klein = load_curve(fixture_path("klein.curve.json"))
    lines = load_lines(fixture_path("poincare.lines.json"))
    with pytest.raises(WorkbenchError) as err:
        suitability_check(klein, lines)
    assert str(err.value) == \
        "DIMENSION_MISMATCH: line 0 is not 2-dimensional"
    with pytest.raises(WorkbenchError) as err:
        suitability_check(poincare_curve(), LineConfiguration(
            list(lines.lines[:2]) + [{"point": (1, 1), "dir": (0, 1)}]))
    assert str(err.value) == \
        "DIMENSION_MISMATCH: line 2 is not 3-dimensional"


def test_suitability_cross_not_primitive():
    lines = LineConfiguration([
        {"point": (-1, 0, 0), "dir": (0, 1, 2)},
        {"point": (0, -1, 0), "dir": (2, 0, 2)},
        {"point": (1, 1, 0), "dir": (0, 1, 5)}])
    rep = suitability_check(poincare_curve(), lines)
    assert not rep.ok
    assert not rep.per_line[1]["crossPrimitive"]


def test_suitability_collinear_hull_failure():
    # three leaves along one line: the middle point is not a hull vertex
    c = TropicalCurve(3, [("u", (0, 0, 0)), ("v", (2, 0, 0)),
                          ("w", (4, 0, 0))],
                      [Edge("u", None, (0, -1, 0), 1, 0),
                       Edge("u", "v", (1, 0, 0), 1, None),
                       Edge("v", None, (0, -1, 0), 1, 1),
                       Edge("v", "w", (1, 0, 0), 1, None),
                       Edge("w", None, (0, -1, 0), 1, 2),
                       Edge("w", None, (0, 1, 0), 1, 3),
                       Edge("u", None, (-1, 1, 0), 1, 4)])
    # not balanced; suitability only needs the leaf rays, so relax by
    # building a configuration directly
    lines = LineConfiguration([
        {"point": (0, -1, 0), "dir": (1, 0, 1)},
        {"point": (2, -1, 0), "dir": (1, 0, 1)},
        {"point": (4, -1, 0), "dir": (1, 0, 1)},
        {"point": (4, 1, 0), "dir": (1, 0, 1)},
        {"point": (-1, 1, 0), "dir": (1, 0, 1)}])
    rep = suitability_check(c, lines)
    assert not rep.per_line[1]["isHullVertex"]
    assert not rep.ok
    # the same lines through points over the denominator 3 meet the
    # leaves in the same points
    third = LineConfiguration([
        {"point": [x + Fraction(z, 3) for x, z in zip(l.point, l.direction)],
         "dir": l.direction} for l in lines.lines])
    assert third.denominator == 3
    assert suitability_check(c, third) == rep


def _oracle_in_convex_hull(x, pts, dim):
    """The Caratheodory search with the Fraction reference solver."""
    for size in range(1, dim + 2):
        for sub in itertools.combinations(pts, size):
            rows = [[Fraction(1)] * size]
            for k in range(dim):
                rows.append([q[k] for q in sub])
            rhs = [Fraction(1)] + [x[k] for k in range(dim)]
            sol = solve_exact(rows, rhs)
            if sol.status == "unique" and all(l >= 0 for l in sol.solution):
                return True
    return False


def test_in_convex_hull_against_fraction_solve():
    rng = random.Random(41)
    seen = set()
    for dim in (2, 3):
        for _ in range(150):
            pts = [tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                         for _ in range(dim))
                   for _ in range(rng.randint(1, dim + 6))]
            a, b = rng.sample(pts, 2) if len(pts) > 1 else (pts[0], pts[0])
            for x in (tuple(rng.randint(-2, 2) for _ in range(dim)),
                      tuple((p + q) / 2 for p, q in zip(a, b))):
                (X, *P), D = over_one_denominator([x, *pts])
                inside = domain_mod._in_convex_hull(X, P, D, dim)
                assert inside == _oracle_in_convex_hull(x, pts, dim)
                seen.add(inside)
    assert seen == {True, False}


def test_corner_basis_examples():
    a, b = corner_basis((-1, 0, 0), (0, 1, 2))
    assert tuple(x + y for x, y in zip(a, b)) == (1, 0, 0)
    assert abs(mixed(a, b, (0, 1, 2))) == 1
    a, b = corner_basis((0, 0, -1), (1, 0, 0))
    assert tuple(x + y for x, y in zip(a, b)) == (0, 0, 1)
    assert abs(mixed(a, b, (1, 0, 0))) == 1
    with pytest.raises(WorkbenchError) as err:
        corner_basis((0, 0, 1), (0, 0, 1))
    assert err.value.code == "NO_BASIS"


def test_corner_basis_matches_cross_primitivity():
    rng = random.Random(41)
    for _ in range(200):
        d = tuple(rng.randint(-5, 5) for _ in range(3))
        z = rand_primitive(rng)
        w = cross(d, z)
        feasible = content(w) == 1
        try:
            a, b = corner_basis(d, z)
            assert feasible
            assert tuple(x + y for x, y in zip(a, b)) == \
                tuple(-x for x in d)
            assert abs(mixed(a, b, z)) == 1
        except WorkbenchError as err:
            assert err.code == "NO_BASIS"
            assert not feasible
