"""Exhaustive generation of partial Cayley tables.

Tables on n elements are encoded flat: a tuple of n*n entries in
``range(n + 1)``, where ``n`` stands for an undefined cell; the
all-undefined table is excluded.  ``all_magmas`` yields the tables in
the lexicographic order of that encoding but builds them row by row;
``count_by_class`` reads only the verdicts of each table's report.
``filtered`` assigns cells in row-major order and drops a value as soon
as a law the requested class implies is definitely broken:

- the one-sided triple law, for every class except ``total`` (all the
  others are right-directed semigroupoids);
- the two-sided triple law, for the classes that imply ``semigroupoid``
  (semigroupoid, poloid, groupoid, monoid, group);
- a local right unit, for the classes that imply ``right_poloid``
  (poloid, groupoid, monoid, group, right_poloid, normal, unit_posetal):
  x.phi_x = x, so a completed row x must contain x.

Only the triples that read the newly assigned cell are checked.  The
survivors are still run through the real checkers.
"""

from __future__ import annotations

from itertools import permutations, product as iproduct
from typing import Iterator

from .classify import VERDICT_NAMES, _Analysis, classify
from .errors import BoundExceeded
from .tables import PartialMagma

ELEMENT_NAMES = ("a", "b", "c", "d", "e", "f", "g", "h")

RAW_BOUND = 3
FILTERED_BOUND = 4

# classes whose members are always right-directed semigroupoids
_RD_CLASSES = frozenset(VERDICT_NAMES) - {"total"}
# ... always semigroupoids, so the two-sided triple law holds
_SEMIGROUPOID_CLASSES = frozenset({"semigroupoid", "poloid", "groupoid", "monoid", "group"})
# ... always right poloids, so every x has a local right unit: x.phi_x = x
_RIGHT_POLOID_CLASSES = frozenset(
    {"poloid", "groupoid", "monoid", "group", "right_poloid", "normal", "unit_posetal"}
)


def matches(m: PartialMagma, verdict: str) -> bool:
    """Whether the magma belongs to the named verdict class.

    Reads only the facts that class needs, so a leaf of the walk pays
    for no more than its own verdict.
    """
    if verdict not in VERDICT_NAMES:
        raise ValueError(f"unknown class {verdict!r}")
    return bool(_Analysis(m).verdict(verdict))


def from_flat(flat, n: int, elements=None) -> PartialMagma:
    names = tuple(elements) if elements is not None else ELEMENT_NAMES[:n]
    table = tuple(
        tuple(v if v < n else None for v in flat[i * n:(i + 1) * n]) for i in range(n)
    )
    return PartialMagma(names, table)


def to_flat(m: PartialMagma) -> tuple[int, ...]:
    n = m.size
    return tuple(n if c is None else c for row in m.table for c in row)


def all_magmas(n: int, bound: int = RAW_BOUND) -> Iterator[PartialMagma]:
    """Every partial magma on n elements, in lexicographic table order.

    Tables are generated row by row, as n-tuples of rows over
    ``0..n-1`` and then ``None``, which is the order of the flat
    encoding; the all-undefined table, the last one, is skipped.
    """
    if not 1 <= n <= bound:
        raise BoundExceeded(f"raw enumeration supports 1..{bound} elements, got {n}")
    names = ELEMENT_NAMES[:n]
    rows = tuple(iproduct((*range(n), None), repeat=n))
    empty = (rows[-1],) * n
    for table in iproduct(rows, repeat=n):
        if table != empty:
            yield PartialMagma(names, table)


def _triple_broken(values: list[int], n: int, x: int, y: int, z: int, two_sided: bool) -> bool:
    """Definite triple-law violation at (x, y, z) in a partially built table.

    Cells hold an element index, ``n`` for undefined, or ``-1`` for not
    yet chosen; only violations that no later choice can repair count.
    The one-sided law is triggered by xy with yz or (xy)z defined; the
    two-sided law is also triggered by yz and x(yz) defined.
    """
    xy = values[x * n + y]
    yz = values[y * n + z]
    if xy == n:
        # only the two-sided law's trigger, yz and x(yz) defined, is left
        return two_sided and 0 <= yz < n and 0 <= values[x * n + yz] < n
    if xy < 0:
        return False
    wz = values[xy * n + z]
    if yz == n:
        return 0 <= wz < n  # (xy)z defined forces yz defined
    if yz < 0:
        return False
    # trigger holds: xy and yz defined
    xv = values[x * n + yz]
    return wz == n or xv == n or (wz >= 0 and xv >= 0 and wz != xv)


def _cell_broken(values: list[int], n: int, k: int, two_sided: bool) -> bool:
    """Definite violation among the triples that read cell k = (a, b).

    The parent node had none, so a new one must read the new cell: as
    xy in (a, b, z), as yz in (x, a, b), as (xy)z in the (x, y, b) with
    xy = a, or as x(yz) in the (a, y, z) with yz = b.
    """
    a, b = divmod(k, n)
    for t in range(n):
        if _triple_broken(values, n, a, b, t, two_sided):
            return True
        if _triple_broken(values, n, t, a, b, two_sided):
            return True
    for c, v in enumerate(values):
        if v == a and _triple_broken(values, n, c // n, c % n, b, two_sided):
            return True
        if v == b and _triple_broken(values, n, a, c // n, c % n, two_sided):
            return True
    return False


def filtered(n: int, verdict: str, bound: int = FILTERED_BOUND) -> Iterator[PartialMagma]:
    """Every partial magma on n elements in the given class.

    Uses the pruned walk described in the module docstring for every
    class but ``total``, which is filtered out of :func:`all_magmas`.
    """
    if verdict not in VERDICT_NAMES:
        raise ValueError(f"unknown class {verdict!r}")
    if not 1 <= n <= bound:
        raise BoundExceeded(f"filtered enumeration supports 1..{bound} elements, got {n}")
    if verdict not in _RD_CLASSES and n > RAW_BOUND:
        raise BoundExceeded(f"class {verdict!r} cannot be pruned; maximum is {RAW_BOUND}")
    if verdict not in _RD_CLASSES or n <= 2:
        # total cannot be pruned; on tiny spaces brute force is simpler
        yield from (m for m in all_magmas(n) if matches(m, verdict))
        return

    two_sided = verdict in _SEMIGROUPOID_CLASSES
    right_unit = verdict in _RIGHT_POLOID_CLASSES
    cells = n * n
    values = [-1] * cells

    def walk(k: int) -> Iterator[PartialMagma]:
        if k == cells:
            if all(v == n for v in values):
                return
            m = from_flat(tuple(values), n)
            if matches(m, verdict):
                yield m
            return
        x, y = divmod(k, n)
        row_done = right_unit and y == n - 1
        for v in range(n + 1):
            values[k] = v
            if row_done and x not in values[k - y:k + 1]:
                continue  # x.phi_x = x needs x in row x
            if _cell_broken(values, n, k, two_sided):
                continue
            yield from walk(k + 1)
        values[k] = -1

    yield from walk(0)


def count_by_class(n: int) -> dict[str, int]:
    """How many partial magmas on n elements fall in each verdict class.

    Reads only the verdicts of each report, so the units and the maps,
    which a report computes on first read, are computed only where a
    verdict needs them.
    """
    counts = dict.fromkeys(VERDICT_NAMES, 0)
    total = 0
    for m in all_magmas(n):
        total += 1
        for name, ok in classify(m).verdicts.items():
            if ok:
                counts[name] += 1
    counts["partial_magmas"] = total
    return counts


def canonical_form(m: PartialMagma) -> tuple[int, ...]:
    """The least relabelling of the flat table over all carrier permutations."""
    n = m.size
    flat = to_flat(m)
    best = None
    for perm in permutations(range(n)):
        inv = [0] * n  # inv[x] is the old label of the new element x
        for old, new in enumerate(perm):
            inv[new] = old
        image = perm + (n,)  # relabels a cell value; undefined stays n
        relabeled = tuple(image[flat[i * n + j]] for i in inv for j in inv)
        if best is None or relabeled < best:
            best = relabeled
    return best
