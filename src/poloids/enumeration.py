"""Exhaustive generation of partial Cayley tables.

Tables on n elements are encoded flat: a tuple of n*n entries in
``range(n + 1)``, where ``n`` stands for an undefined cell; the
all-undefined table is excluded.  ``all_magmas`` yields the tables in
the lexicographic order of that encoding but builds them row by row;
``count_by_class`` classifies only the right-directed semigroupoids.
``filtered`` assigns cells in row-major order and drops a value as soon
as a law the requested class implies is definitely broken:

- totality, for the classes that imply ``total`` (total, monoid,
  group): no cell is ever left undefined;
- the one-sided triple law, for every class except ``total`` (all the
  others are right-directed semigroupoids);
- the two-sided triple law, for the classes that imply ``semigroupoid``
  (semigroupoid, poloid, groupoid, monoid, group);
- a local right unit, for the classes that imply ``right_poloid``
  (poloid, groupoid, monoid, group, right_poloid, normal, unit_posetal):
  x.phi_x = x, so a completed row x must contain x.

Only the triples that read the newly assigned cell are checked.  The
survivors are still run through the real checkers.

Up to isomorphism the walk keeps only the least table of each class
(orderly generation: Read, "Every one a winner", 1978; McKay, J.
Algorithms 1998).  Each node carries the relabellings pi that are still
tied: pi(T) equals T at every flat position, in order, where both are
determined.  A node is dropped as soon as some pi(T) is certainly
smaller than T, and pi leaves the list for the subtree once pi(T) is
certainly larger.  Every verdict class is closed under relabelling and
the law prunes drop only tables that break a law, so the least member
of each isomorphism class is reached and kept; every other member has a
smaller relabelling and is dropped by the time its last cell is set.
The least table is the class's ``canonical_form``, so the classes come
out in canonical order.  The labelled walk is the same walk with no
relabellings.
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
ISO_BOUND = 5

# classes whose members are always right-directed semigroupoids
_RD_CLASSES = frozenset(VERDICT_NAMES) - {"total"}
# ... always semigroupoids, so the two-sided triple law holds
_SEMIGROUPOID_CLASSES = frozenset({"semigroupoid", "poloid", "groupoid", "monoid", "group"})
# ... always right poloids, so every x has a local right unit: x.phi_x = x
_RIGHT_POLOID_CLASSES = frozenset(
    {"poloid", "groupoid", "monoid", "group", "right_poloid", "normal", "unit_posetal"}
)
# ... always total, so no cell is undefined
_TOTAL_CLASSES = frozenset({"total", "monoid", "group"})


def matches(m: PartialMagma, verdict: str) -> bool:
    """Whether the magma belongs to the named verdict class.

    Reads only the facts that class needs, so a leaf of the walk pays
    for no more than its own verdict.
    """
    if verdict not in VERDICT_NAMES:
        raise ValueError(f"unknown class {verdict!r}")
    return bool(_Analysis(m).verdict(verdict))


def from_flat(flat, n: int) -> PartialMagma:
    table = tuple(
        tuple(v if v < n else None for v in flat[i * n:(i + 1) * n]) for i in range(n)
    )
    return PartialMagma(ELEMENT_NAMES[:n], table)


def to_flat(m: PartialMagma) -> tuple[int, ...]:
    n = m.size
    return tuple(n if c is None else c for row in m.table for c in row)


def all_magmas(n: int) -> Iterator[PartialMagma]:
    """Every partial magma on n elements, in lexicographic table order.

    Tables are generated row by row, as n-tuples of rows over
    ``0..n-1`` and then ``None``, which is the order of the flat
    encoding; the all-undefined table, the last one, is skipped.
    """
    if not 1 <= n <= RAW_BOUND:
        raise BoundExceeded(f"raw enumeration supports 1..{RAW_BOUND} elements, got {n}")
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


def _relabellings(n: int) -> list[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """Every relabelling but the identity, as (source, image, 0).

    The relabelled table pi(T) holds ``image[T[source[p]]]`` at flat
    position p; the 0 is the first position not yet known to be tied.
    """
    cells = range(n * n)
    found = []
    for perm in permutations(range(n)):
        if perm == tuple(range(n)):
            continue
        inv = [0] * n  # inv[x] is the old label of the new element x
        for old, new in enumerate(perm):
            inv[new] = old
        source = tuple(inv[p // n] * n + inv[p % n] for p in cells)
        found.append((source, perm + (n,), 0))
    return found


def _still_least(values: list[int], alive: list) -> list | None:
    """The relabellings still tied with the partial table T, or None once
    one of them is certainly smaller than T.

    Compares pi(T) with T position by position, from where the last
    comparison stopped, while both are determined (``-1`` is not yet
    chosen).  A pi that is certainly larger is dropped: the positions
    that decided it are fixed in the whole subtree.
    """
    tied = []
    for source, image, p in alive:
        cells = len(source)
        while p < cells:
            t, s = values[p], values[source[p]]
            if t < 0 or s < 0 or image[s] != t:
                break
            p += 1
        if p < cells and t >= 0 and s >= 0:
            if image[s] < t:
                return None
            continue
        tied.append((source, image, p))
    return tied


def filtered(n: int, verdict: str | None, up_to_iso: bool = False) -> Iterator[PartialMagma]:
    """Every partial magma on n elements in the given class, in
    lexicographic table order; ``verdict=None`` puts no law on them.

    With ``up_to_iso``, only the least table of each isomorphism class,
    which is its :func:`canonical_form`.  The bound is ``RAW_BOUND`` for
    a class with no triple law to prune on (``None`` and ``total``),
    ``ISO_BOUND`` up to isomorphism and ``FILTERED_BOUND`` otherwise.
    """
    if verdict is not None and verdict not in VERDICT_NAMES:
        raise ValueError(f"unknown class {verdict!r}")
    pruned = verdict in _RD_CLASSES
    bound = RAW_BOUND if not pruned else ISO_BOUND if up_to_iso else FILTERED_BOUND
    if not 1 <= n <= bound:
        what = f"class {verdict!r}" if verdict else "every table"
        how = " up to isomorphism" if up_to_iso else ""
        raise BoundExceeded(f"{what}{how}: enumeration supports 1..{bound} elements, got {n}")

    two_sided = verdict in _SEMIGROUPOID_CLASSES
    right_unit = verdict in _RIGHT_POLOID_CLASSES
    choices = range(n) if verdict in _TOTAL_CLASSES else range(n + 1)  # n is undefined
    cells = n * n
    values = [-1] * cells

    def walk(k: int, alive: list) -> Iterator[PartialMagma]:
        if k == cells:
            if all(v == n for v in values):
                return
            m = from_flat(tuple(values), n)
            if verdict is None or matches(m, verdict):
                yield m
            return
        x, y = divmod(k, n)
        row_done = right_unit and y == n - 1
        for v in choices:
            values[k] = v
            if row_done and x not in values[k - y:k + 1]:
                continue  # x.phi_x = x needs x in row x
            if pruned and _cell_broken(values, n, k, two_sided):
                continue
            tied = _still_least(values, alive)
            if tied is not None:
                yield from walk(k + 1, tied)
        values[k] = -1

    yield from walk(0, _relabellings(n) if up_to_iso else [])


def count_by_class(n: int) -> dict[str, int]:
    """How many partial magmas on n elements fall in each verdict class.

    Every class but ``total`` lies inside the right-directed
    semigroupoids, so only the tables with that one verdict get a
    :func:`classify` report; the total and partial counts are closed
    forms, n^(n*n) and (n+1)^(n*n) less the all-undefined table.
    """
    counts = dict.fromkeys(VERDICT_NAMES, 0)
    for m in all_magmas(n):
        if matches(m, "right_directed_semigroupoid"):
            for name, ok in classify(m).verdicts.items():
                counts[name] += ok
    counts["total"] = n ** (n * n)
    counts["partial_magmas"] = (n + 1) ** (n * n) - 1
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
