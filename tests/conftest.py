"""Shared structures: small named magmas and the poloid corpus."""

from __future__ import annotations

import hashlib
import json
from types import SimpleNamespace

import pytest

from poloids import (
    PartialMagma,
    PreconditionError,
    effective_unit_maps,
    is_group,
    is_groupoid,
    is_monoid,
    is_normal,
    is_poloid,
    is_right_directed_semigroupoid,
    is_right_poloid,
    is_semigroupoid,
    is_total,
    is_unit_posetal,
    left_units,
    phi_map,
    right_units,
    units,
)
from poloids.enumeration import ELEMENT_NAMES, all_magmas
from poloids.classify import VERDICT_NAMES, _Analysis, classify


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    criterion = getattr(item.function, "criterion", None)
    if rep.when == "call" and criterion is not None:
        tw = item.config.pluginmanager.get_plugin("terminalreporter")
        if tw is not None:
            tw.write_line(
                "ACCEPTANCE %s: %s" % (criterion, "PASS" if rep.passed else "FAIL")
            )


def magma(names, rows):
    """Build a table from element names and rows of names/None."""
    names = tuple(names)
    index = {x: i for i, x in enumerate(names)}
    table = tuple(
        tuple(None if cell is None else index[cell] for cell in row) for row in rows
    )
    return PartialMagma(names, table)


def in_class(m, name) -> bool:
    """Whether m is in the verdict class ``name``, read from its analysis."""
    return bool(getattr(_Analysis(m), name))


def to_flat(m):
    """The flat encoding: the n*n cells in row-major order, n for undefined."""
    n = m.size
    return tuple(n if c is None else c for row in m.table for c in row)


def from_flat(flat, n):
    """The table on the first n of ``ELEMENT_NAMES`` whose flat encoding
    is ``flat``, through the checking constructor."""
    cells = [None if c == n else c for c in flat]
    return PartialMagma(ELEMENT_NAMES[:n], tuple(tuple(cells[i:i + n]) for i in range(0, n * n, n)))


def relabel(m, perm):
    """The copy of m in which element i is renamed perm[i]."""
    table = [[None] * m.size for _ in range(m.size)]
    for x, row in enumerate(m.table):
        for y, c in enumerate(row):
            table[perm[x]][perm[y]] = None if c is None else perm[c]
    return PartialMagma(m.elements, tuple(map(tuple, table)))


def trivial_group():
    return magma("e", [["e"]])


def z2():
    return magma("eg", [["e", "g"], ["g", "e"]])


def z3():
    return magma("eab", [["e", "a", "b"], ["a", "b", "e"], ["b", "e", "a"]])


def z4():
    rows = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    return PartialMagma(("e", "a", "b", "c"), tuple(tuple(r) for r in rows))


def klein():
    # both factors of order two, componentwise
    combine = {
        (i, j): ((i[0] + j[0]) % 2, (i[1] + j[1]) % 2)
        for i in [(0, 0), (0, 1), (1, 0), (1, 1)]
        for j in [(0, 0), (0, 1), (1, 0), (1, 1)]
    }
    order = [(0, 0), (0, 1), (1, 0), (1, 1)]
    names = ("e", "x", "y", "xy")
    table = tuple(
        tuple(order.index(combine[(a, b)]) for b in order) for a in order
    )
    return PartialMagma(names, table)


def band_monoid():
    # total, single unit, idempotent non-unit: a monoid but not a group
    return magma("ea", [["e", "a"], ["a", "a"]])


def nil_monoid3():
    # commutative: a*a = z, z absorbing
    return magma("eaz", [["e", "a", "z"], ["a", "z", "z"], ["z", "z", "z"]])


def two_unit_groupoid():
    return magma(["e1", "e2"], [["e1", None], [None, "e2"]])


def three_unit_discrete():
    return magma(
        ["e1", "e2", "e3"],
        [["e1", None, None], [None, "e2", None], [None, None, "e3"]],
    )


def disjoint_z1_z2():
    # the one-element group next to a copy of the order-two group
    return magma(
        ["e1", "e2", "g"],
        [["e1", None, None], [None, "e2", "g"], [None, "g", "e2"]],
    )


def disjoint_z2_z2():
    return magma(
        ["e1", "g1", "e2", "g2"],
        [
            ["e1", "g1", None, None],
            ["g1", "e1", None, None],
            [None, None, "e2", "g2"],
            [None, None, "g2", "e2"],
        ],
    )


def pair_groupoid2():
    # arrows (i,j) on two objects, (i,j)(j,k) = (i,k)
    objs = (1, 2)
    arrows = [(i, j) for i in objs for j in objs]
    names = tuple(f"a{i}{j}" for i, j in arrows)
    table = tuple(
        tuple(
            arrows.index((i, l)) if j == k else None
            for (k, l) in arrows
        )
        for (i, j) in arrows
    )
    return PartialMagma(names, table)


def right_zero(n):
    # every product is the right operand; for n = 2 this is the
    # two-element table whose translations collapse
    names = tuple("xyz"[:n])
    table = tuple(tuple(range(n)) for _ in range(n))
    return PartialMagma(names, table)


HAND_POLOIDS_3_4 = (
    z3,
    z4,
    klein,
    nil_monoid3,
    three_unit_discrete,
    disjoint_z1_z2,
    disjoint_z2_z2,
    pair_groupoid2,
)


@pytest.fixture(scope="session")
def n2_poloids():
    return [m for m in all_magmas(2) if classify(m).verdicts["poloid"]]


@pytest.fixture(scope="session")
def poloid_corpus(n2_poloids):
    corpus = [trivial_group(), z2(), band_monoid(), two_unit_groupoid()]
    corpus += [build() for build in HAND_POLOIDS_3_4]
    corpus += n2_poloids
    for m in corpus:
        assert classify(m).verdicts["poloid"], m
    return corpus


# public views that return True or the witness classify reports
_WITNESS_VIEWS = {
    "semigroupoid": is_semigroupoid,
    "poloid": is_poloid,
    "groupoid": is_groupoid,
    "right_directed_semigroupoid": is_right_directed_semigroupoid,
    "right_poloid": is_right_poloid,
}
# ... that return a plain bool
_BOOL_VIEWS = {"total": is_total, "monoid": is_monoid, "group": is_group}
# ... that need a right poloid and raise PreconditionError off one
_RIGHT_POLOID_VIEWS = {"normal": is_normal, "unit_posetal": is_unit_posetal}


def _outcome(view, m):
    try:
        return ("value", view(m))
    except PreconditionError as exc:
        return ("raise", exc.witness)


def view_disagreements(m, report) -> list[str]:
    """The public views that disagree with the report."""
    verdicts = report.verdicts

    def expected(name):
        return True if verdicts[name] else report.witness_for(name)

    wrong = [n for n, v in _WITNESS_VIEWS.items() if _outcome(v, m) != ("value", expected(n))]
    wrong += [n for n, v in _BOOL_VIEWS.items() if _outcome(v, m) != ("value", verdicts[n])]
    for name, view in (("units", units), ("left_units", left_units), ("right_units", right_units)):
        if view(m) != getattr(report, name):
            wrong.append(name)
    rp = verdicts["right_poloid"]
    for name, view in _RIGHT_POLOID_VIEWS.items():
        want = ("value", expected(name)) if rp else ("raise", report.witness_for("right_poloid"))
        if _outcome(view, m) != want:
            wrong.append(name)
    want = ("value", report.phi) if rp else ("raise", report.witness_for("right_poloid"))
    if _outcome(phi_map, m) != want:
        wrong.append("phi_map")
    poloid = verdicts["poloid"]
    want = ("value", (report.eps, report.vareps)) if poloid else ("raise", report.witness_for("poloid"))
    if _outcome(effective_unit_maps, m) != want:
        wrong.append("effective_unit_maps")
    return wrong


@pytest.fixture(scope="session")
def small_census():
    """One pass over every table with at most 3 elements.

    ``digest`` is a sha256 over each table's ``classify(m).to_dict()`` as
    compact JSON, one line per table in enumeration order;
    ``by_class[c]`` lists the flat 3-element tables in class c, by
    verdict; ``disagreements`` pairs each table on which a public view
    disagrees with the report with the disagreeing names.
    The views are checked on every table with at most 2 elements, on the
    first 3-element table of each distinct report and on every 16th one:
    calling all of them on all 262,143 tables would triple the pass.
    """
    digest = hashlib.sha256()
    by_class = {name: [] for name in VERDICT_NAMES}
    disagreements = []
    seen = set()
    for n in (1, 2, 3):
        for i, m in enumerate(all_magmas(n)):
            report = classify(m)
            digest.update(json.dumps(report.to_dict()).encode() + b"\n")
            key = (report.witnesses, report.eps, report.vareps, report.phi)
            if n < 3 or key not in seen or i % 16 == 0:
                seen.add(key)
                wrong = view_disagreements(m, report)
                if wrong:
                    disagreements.append((to_flat(m), wrong))
            if n == 3:
                for name in VERDICT_NAMES:
                    if report.verdicts[name]:
                        by_class[name].append(to_flat(m))
    return SimpleNamespace(
        digest=digest.hexdigest(), by_class=by_class, disagreements=disagreements
    )
