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

Only the triples that read the newly assigned cell k = (a, b) are
checked.  Those where k is xy or yz, (a, b, t) and (t, a, b), are
listed once per walk, keeping only the ones whose other cell is already
chosen; those where k is (xy)z or x(yz) are found through the cells
already holding a and b, which the walk keeps per value.  The survivors
are still run through the real checkers.

Up to isomorphism the walk keeps only the least table of each class
(orderly generation: Read, "Every one a winner", 1978; McKay, J.
Algorithms 1998).  A relabelling pi is tied while pi(T) equals T at
every flat position, in order, where both are determined.  The node is
dropped as soon as some pi(T) is certainly smaller than T, and pi leaves
for the subtree once pi(T) is certainly larger.  Each tied pi waits in
the bucket of the cell that blocks its comparison, max(p, source[p]) at
the first undecided position p, so assigning cell k advances only
bucket k; the two-watched-literal scheme of SAT solvers (Moskewicz et
al., "Chaff", 2001).  Every verdict class is closed under relabelling
and the law prunes drop only tables that break a law, so the least
member of each isomorphism class is reached and kept; every other member
has a smaller relabelling and is dropped by the time its last cell is
set.  The least table is the class's ``canonical_form``, so the classes
come out in canonical order.  The labelled walk is the same walk with no
relabellings.
"""

from __future__ import annotations

from functools import cache
from itertools import islice, permutations, product as iproduct
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


@cache
def _relabellings(n: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Every relabelling but the identity, as (source, image).

    The relabelled table pi(T) holds ``image[T[source[p]]]`` at flat
    position p.
    """
    cells = range(n * n)
    found = []
    for perm in islice(permutations(range(n)), 1, None):  # the first is the identity
        inv = [0] * n  # inv[x] is the old label of the new element x
        for old, new in enumerate(perm):
            inv[new] = old
        source = tuple(inv[p // n] * n + inv[p % n] for p in cells)
        found.append((source, perm + (n,)))
    return tuple(found)


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
    values = [-1] * cells  # -1: not yet chosen
    holders = [[] for _ in range(n + 1)]  # holders[v]: the chosen cells holding v
    # readers[k]: the triples (a, b, t) and (t, a, b) through cell k = (a, b)
    # whose xy and yz cells are both chosen once k is, as (xy, yz, x*n, z)
    readers = [
        [(k, b * n + t, a * n, t) for t in range(n) if b * n + t <= k]
        + [(t * n + a, k, t * n, b) for t in range(n) if t * n + a <= k]
        for k in range(cells) for a, b in [divmod(k, n)]
    ]
    # buckets[k]: the tied relabellings (source, image, p) whose comparison
    # stopped at position p, where cell max(p, source[p]) = k is unchosen
    buckets = [[] for _ in range(cells)]
    for source, image in _relabellings(n) if up_to_iso else ():
        buckets[source[0]].append((source, image, 0))
    trail = []  # the buckets appended to, popped in reverse on undo

    def broken(i: int, j: int, xn: int, z: int) -> bool:
        """Definite triple-law violation at (x, y, z), with xy at cell i
        and yz at cell j; only violations no later choice can repair
        count.  The one-sided law is triggered by xy with yz or (xy)z
        defined; the two-sided law also by yz and x(yz) defined."""
        xy, yz = values[i], values[j]
        if xy == n:
            return two_sided and 0 <= yz < n and 0 <= values[xn + yz] < n
        if xy < 0:
            return False
        wz = values[xy * n + z]
        if yz == n:
            return 0 <= wz < n  # (xy)z defined forces yz defined
        if yz < 0:
            return False
        xv = values[xn + yz]
        return wz == n or xv == n or (wz >= 0 and xv >= 0 and wz != xv)

    def cell_broken(k: int, a: int, b: int) -> bool:
        """A violation among the triples that read cell k = (a, b); the
        parent node had none.  Cell k is xy in (a, b, t), yz in
        (t, a, b), (xy)z in (x, y, b) with xy = a and x(yz) in (a, y, z)
        with yz = b."""
        for i, j, xn, z in readers[k]:
            if broken(i, j, xn, z):
                return True
        for c in holders[a]:
            if broken(c, c % n * n + b, c - c % n, b):
                return True
        for c in holders[b]:
            if broken(a * n + c // n, c, a * n, c % n):
                return True
        return False

    def still_least(k: int) -> bool:
        """Advance the relabellings waiting on cell k; False once some
        pi(T) is certainly smaller than T.  A pi that is certainly larger
        leaves for the subtree.  One tied at every position is an
        automorphism of the finished T and leaves too, so the |Aut(T)| - 1
        relabellings that leave at a leaf are where an orbit-weighted
        count would read its weight n!/|Aut(T)|."""
        for source, image, p in buckets[k]:
            while True:
                t, u = values[p], image[values[source[p]]]
                if u != t:
                    if u < t:
                        return False
                    break
                p += 1
                if p == cells:
                    break
                w = max(p, source[p])
                if w > k:
                    buckets[w].append((source, image, p))
                    trail.append(w)
                    break
        return True

    def walk(k: int) -> Iterator[PartialMagma]:
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
            holders[v].append(k)
            if not (pruned and cell_broken(k, x, y)):
                mark = len(trail)
                if still_least(k):
                    yield from walk(k + 1)
                while len(trail) > mark:
                    buckets[trail.pop()].pop()
            holders[v].pop()
        values[k] = -1

    yield from walk(0)


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
    flat = to_flat(m)
    return min([flat] + [tuple(image[flat[s]] for s in source)
                         for source, image in _relabellings(m.size)])
