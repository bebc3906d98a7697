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
- the local right unit, for the classes that imply ``right_poloid``
  (poloid, groupoid, monoid, group, right_poloid, normal, unit_posetal):
  each x has exactly one left unit phi_x with x.phi_x = x.  When row r
  is complete the walk notes whether it is a left-unit row (every cell
  r.y is y or undefined), then rechecks row r and each earlier row x
  with x.r = x: it drops the node if such a row holds x in two left-unit
  columns l <= r, or in none of them and in no column l > r;
- cancellation, for the classes that imply ``groupoid`` (groupoid,
  group): xy = xz or yx = zx forces y = z, so a defined value appears at
  most once in each row and each column.

A triple (x, y, z) can be definitely broken only once its xy and yz
cells are chosen, and then only through its (xy)z and x(yz) cells: it is
checked at the later of its xy and yz cells and at those two where later
still.  Cell k = (a, b) lists the triples it completes as xy or yz,
(a, b, t) and (t, a, b), once per walk; once it holds a defined v, each
(a, b, t) waits on its (xy)z cell (v, t) and each (t, a, b) on its x(yz)
cell (t, v), past both its xy and yz cells, until the walk takes k back.
Rows complete in order, so the left-unit status of rows 0..r is final
once row r is, and so are the cells of those rows: a unit clash among
them stays, and a row with no unit among them can gain one only from a
column l > r that holds x.  Each drop is thus a failure of the
right-poloid fact ``phi`` (or of cancellation) that no later cell can
repair, and every class the prune serves implies that fact.

For five classes these prunes imply the whole definition, so the walk
trusts its leaves and yields them without a checker: ``total`` (every
cell defined), ``right_directed_semigroupoid`` (the one-sided triple
law), ``semigroupoid`` (both triple laws), ``right_poloid`` (the
one-sided law and exactly one phi_x per x) and ``group`` (totality,
both triple laws and cancellation).  Every triple is checked by the time
its last cell is set and every row's phi_x once the row is complete, so
each leaf obeys each of those laws.  A ``group`` leaf is thus a finite
cancellative semigroup, and that is a group: translations are injective,
hence onto, so ae = a for some e; cancelling gives ex = x and xe = x;
and xy = e = zx are solvable, with z = z(xy) = (zx)y = y.  The other
classes ask for more (effective units, inverses, normality, a unit
poset), so each of their leaves still goes through :func:`matches`.
The walk decodes each leaf from its flat cells itself, and every cell
it chose is an index or undefined, so the leaf is built without the
constructor's check, as are the tables of ``all_magmas``.

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
from .tables import PartialMagma, _built

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
# ... always groupoids, so cancellative: xy = xz or yx = zx forces y = z
_CANCELLATIVE_CLASSES = frozenset({"groupoid", "group"})
# classes defined by the prunes above alone, so every leaf of their walk is a member
_EXACT_CLASSES = frozenset(
    {"semigroupoid", "right_directed_semigroupoid", "right_poloid", "total", "group"}
)


def matches(m: PartialMagma, verdict: str) -> bool:
    """Whether the magma belongs to the named verdict class.

    Reads only the facts that class needs, so a leaf of the walk pays
    for no more than its own verdict.
    """
    if verdict not in VERDICT_NAMES:
        raise ValueError(f"unknown class {verdict!r}")
    return bool(getattr(_Analysis(m), verdict))


def all_magmas(n: int) -> Iterator[PartialMagma]:
    """Every partial magma on n elements, in lexicographic table order.

    Tables are generated row by row, as n-tuples of rows over
    ``0..n-1`` and then ``None``, which is the order of the flat
    encoding; the all-undefined table, the last one, is skipped.  Every
    table is valid by construction, so none is checked again.
    """
    if not 1 <= n <= RAW_BOUND:
        raise BoundExceeded(f"raw enumeration supports 1..{RAW_BOUND} elements, got {n}")
    names = ELEMENT_NAMES[:n]
    rows = tuple(iproduct((*range(n), None), repeat=n))
    empty = (rows[-1],) * n
    for table in iproduct(rows, repeat=n):
        if table != empty:
            yield _built(names, table)


@cache
def _relabellings(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Every relabelling but the identity, as (source, image, block).

    The relabelled table pi(T) holds ``image[T[source[p]]]`` at flat
    position p, which is known once cells p and source[p] are chosen,
    the later of them being ``block[p] = max(p, source[p])``.
    """
    cells = range(n * n)
    found = []
    for perm in islice(permutations(range(n)), 1, None):  # the first is the identity
        inv = [0] * n  # inv[x] is the old label of the new element x
        for old, new in enumerate(perm):
            inv[new] = old
        source = tuple(inv[p // n] * n + inv[p % n] for p in cells)
        block = tuple(max(p, s) for p, s in enumerate(source))
        found.append((source, perm + (n,), block))
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
    cancels = verdict in _CANCELLATIVE_CLASSES
    trusted = verdict is None or verdict in _EXACT_CLASSES  # every leaf is a member
    choices = range(n) if verdict in _TOTAL_CLASSES else range(n + 1)  # n is undefined
    names, decode = ELEMENT_NAMES[:n], (*range(n), None).__getitem__
    cells = n * n
    values = [-1] * cells  # -1: not yet chosen
    # readers[k]: the triples checked once cell k is chosen, as (xy, yz, x*n, z)
    # cells: those k = (a, b) completes, (a, b, t) and (t, a, b), then those waiting on k
    readers = [
        [(k, b * n + t, a * n, t) for t in range(n) if b * n + t <= k]
        + [(t * n + a, k, t * n, b) for t in range(n) if t * n + a <= k]
        for k in range(cells) for a, b in [divmod(k, n)]
    ]
    # waits[k][v]: (readers list, triple) for the triples set waiting on a later
    # cell once k = (a, b) holds v: (a, b, t) on (v, t) and (t, a, b) on (t, v)
    waits = [
        [[(readers[w], r) for t in range(n)
          for w, r in ((v * n + t, (k, b * n + t, a * n, t)),
                       (t * n + v, (t * n + a, k, t * n, b)))
          if w > max(r[0], r[1])] for v in range(n)] + [[]]
        for k in range(cells) for a, b in [divmod(k, n)]
    ] if pruned else [[[]] * (n + 1)] * cells
    # buckets[k]: the tied relabellings (source, image, block, p) whose
    # comparison stopped at position p, where cell block[p] = k is unchosen
    buckets = [[] for _ in range(cells)]
    for source, image, block in _relabellings(n) if up_to_iso else ():
        buckets[block[0]].append((source, image, block, 0))
    trail = []  # the readers and buckets lists appended to, popped in reverse on undo
    left = [False] * n  # left[r]: complete row r holds only r.y = y or undefined

    def cell_broken(k: int) -> bool:
        """A violation no later choice can repair among the triples that
        read cell k, whose xy and yz cells are chosen; the parent had none."""
        for i, j, xn, z in readers[k]:
            xy, yz = values[i], values[j]
            if xy == n:  # two-sided: yz and x(yz) defined force xy defined
                fails = two_sided and yz < n and 0 <= values[xn + yz] < n
            elif yz == n:  # (xy)z defined forces yz defined
                fails = 0 <= values[xy * n + z] < n
            else:  # xy and yz defined force (xy)z = x(yz), both defined
                wz, xv = values[xy * n + z], values[xn + yz]
                fails = wz == n or xv == n or wz != xv and wz >= 0 and xv >= 0
            if fails:
                return True
        return False

    def phi_broken(r: int) -> bool:
        """Row r is complete: record whether it is a left-unit row, and
        whether some complete row x has lost its one left unit l with
        x.l = x, through two such l <= r or none left to come.  Only row
        r and the rows x with x.r = x can have changed."""
        rn = r * n
        left[r] = all(values[rn + l] in (l, n) for l in range(n))
        for x in range(r + 1):
            xn = x * n
            if x < r and values[xn + r] != x:
                continue
            units = 0
            for l in range(r + 1):
                if left[l] and values[xn + l] == x:
                    units += 1
            if units > 1 or (not units and x not in values[xn + r + 1:xn + n]):
                return True
        return False

    def still_least(k: int) -> bool:
        """Advance the relabellings waiting on cell k; False once some
        pi(T) is certainly smaller than T.  A pi that is certainly larger
        leaves for the subtree.  One tied at every position is an
        automorphism of the finished T and leaves too, so the |Aut(T)| - 1
        relabellings that leave at a leaf are where an orbit-weighted
        count would read its weight n!/|Aut(T)|."""
        for source, image, block, p in buckets[k]:
            while True:
                t, u = values[p], image[values[source[p]]]
                if u != t:
                    if u < t:
                        return False
                    break
                p += 1
                if p == cells:
                    break
                w = block[p]
                if w > k:
                    buckets[w].append((source, image, block, p))
                    trail.append(buckets[w])
                    break
        return True

    def walk(k: int) -> Iterator[PartialMagma]:
        if k == cells:
            if all(v == n for v in values):
                return
            flat = tuple(map(decode, values))
            m = _built(names, tuple([flat[i:i + n] for i in range(0, cells, n)]))
            if trusted or matches(m, verdict):
                yield m
            return
        x, y = divmod(k, n)
        row_done = right_unit and y == n - 1
        for v in choices:
            values[k] = v
            if cancels and v < n and (v in values[k - y:k] or v in values[y:k:n]):
                continue  # xy = xz or yx = zx forces y = z
            if pruned and cell_broken(k) or row_done and phi_broken(x):
                continue
            mark = len(trail)
            for waiting, triple in waits[k][v]:
                waiting.append(triple)
                trail.append(waiting)
            if still_least(k):
                yield from walk(k + 1)
            while len(trail) > mark:
                trail.pop().pop()
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
    n = m.size
    flat = tuple(n if c is None else c for row in m.table for c in row)
    return min([flat] + [tuple(image[flat[s]] for s in source)
                         for source, image, _ in _relabellings(n)])
