"""Exhaustive generation of partial Cayley tables.

Tables on n elements are encoded flat: a tuple of n*n entries in
``range(n + 1)``, where ``n`` stands for an undefined cell; the
all-undefined table is excluded.  ``all_magmas`` yields the tables in
the lexicographic order of that encoding but builds them row by row.
``count_by_class`` classifies only the right-directed semigroupoids, and
replays the last refuting triple through ``classify._one_sided_break``
before it scans the next table for the one-sided triple law.
``filtered`` assigns cells in row-major order and drops a value as soon
as one of the requested class's laws, its facts in
``classify.CLASS_LAWS``, is definitely broken:

- totality, for the classes whose laws include ``total``: no cell is
  ever left undefined;
- the one-sided triple law, for the classes whose laws include
  ``right_directed_semigroupoid``;
- the two-sided triple law, for the classes whose laws include
  ``semigroupoid``;
- the local right unit, for the classes whose laws include ``phi``: each
  x has exactly one left unit phi_x with x.phi_x = x.  When row r is
  complete the walk notes whether it is a left-unit row (every cell r.y
  is y or undefined), then rechecks row r and each earlier row x with
  x.r = x: it drops the node if such a row holds x in two left-unit
  columns l <= r, or in none of them and in no column l > r;
- normality, for the classes whose laws include ``normal``: when row r
  completes as a left-unit row, the walk drops the node if some earlier
  left-unit row l has l.r and r.l both defined;
- the effective units, for the classes whose laws include
  ``unit_maps``: when the last row completes, the units are the
  left-unit rows whose column holds only x.e = x or undefined, and the
  walk drops the node if some x has no unit e with e.x defined, or none
  with x.e defined;
- cancellation and inverses, for the classes whose laws include
  ``inverses``: xy = xz or yx = zx forces y = z (multiply by x's
  inverse), so a defined value appears at most once in each row and
  each column; and when the last row completes, each x must have exactly
  one y with x.y and y.x both units.

A triple (x, y, z) can be definitely broken only once its xy and yz
cells are chosen, and then only through its (xy)z and x(yz) cells: the
value loop checks it in place at the later of its xy and yz cells and at
those two where later still.  Cell k = (a, b) lists the triples it
completes as xy or yz, (a, b, t) and (t, a, b), once per walk; once it
holds a defined v, each (a, b, t) waits on its (xy)z cell (v, t) and
each (t, a, b) on its x(yz) cell (t, v), past both its xy and yz cells,
until the walk takes k back; a walk with no triple law lists none.  Rows
complete in order, so the left-unit status of rows 0..r is final once
row r is, and so are the cells of those rows: a unit clash among them
stays, and a row with no unit among them can gain one only from a column
l > r that holds x.  The cells l.r and r.l of a left-unit clash are
fixed once rows l and r are; a column's right-unit status is final only
with the last row, so the units are too, and the inverses are fixed once
the units are.  Each drop is thus a failure of one of the class's laws
(``phi``, ``normal``, ``unit_maps`` or ``inverses``, which cancellation
is part of) that no later cell can repair.

Each class is the conjunction of its laws, so the walk yields its
leaves without a checker.  Every triple is checked by the time its last
cell is set and every row's phi_x once the row is complete, so each leaf
obeys the triple laws its class asks for and, for a right poloid, has
exactly one phi_x per x.  In a right poloid every left unit l has
l.l = l, so phi_l = l and phi's image is exactly the left units; so a
right poloid is normal iff no two left units l != r have l.r and r.l
both defined.  In a semigroupoid each x has at most one unit on each
side, so the effective units fix the unit maps.  The walk decodes each
leaf from its flat cells itself, and every cell it chose is an index or
undefined, so the leaf is built without the constructor's check, as are
the tables of ``all_magmas``.

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

from .classify import CLASS_LAWS, VERDICT_NAMES, _Analysis, _one_sided_break, classify
from .errors import BoundExceeded
from .tables import PartialMagma, _built

ELEMENT_NAMES = ("a", "b", "c", "d", "e", "f", "g", "h")

RAW_BOUND = 3
FILTERED_BOUND = 4
ISO_BOUND = 5


def all_magmas(n: int) -> Iterator[PartialMagma]:
    """Every partial magma on n elements, in lexicographic table order.

    Tables are generated row by row, as n-tuples of rows over
    ``0..n-1`` and then ``None``, which is the order of the flat
    encoding; the all-undefined table, the last one, is left off.  Every
    table is valid by construction, so none is checked again.
    """
    if not 1 <= n <= RAW_BOUND:
        raise BoundExceeded(f"raw enumeration supports 1..{RAW_BOUND} elements, got {n}")
    names = ELEMENT_NAMES[:n]
    rows = tuple(iproduct((*range(n), None), repeat=n))
    for table in islice(iproduct(rows, repeat=n), len(rows) ** n - 1):
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
    which is its :func:`canonical_form`.  The walk prunes on the laws of
    the class in ``CLASS_LAWS``.  The bound is ``RAW_BOUND`` when they
    leave out the one-sided triple law (``None`` and ``total``),
    ``ISO_BOUND`` up to isomorphism and ``FILTERED_BOUND`` otherwise.
    """
    if verdict is not None and verdict not in VERDICT_NAMES:
        raise ValueError(f"unknown class {verdict!r}")
    laws = CLASS_LAWS[verdict] if verdict else frozenset()
    pruned = "right_directed_semigroupoid" in laws
    bound = RAW_BOUND if not pruned else ISO_BOUND if up_to_iso else FILTERED_BOUND
    if not 1 <= n <= bound:
        what = f"class {verdict!r}" if verdict else "every table"
        how = " up to isomorphism" if up_to_iso else ""
        raise BoundExceeded(f"{what}{how}: enumeration supports 1..{bound} elements, got {n}")

    two_sided = "semigroupoid" in laws
    right_unit = "phi" in laws
    normal = "normal" in laws
    cancels = "inverses" in laws
    choices = range(n) if "total" in laws else range(n + 1)  # n is undefined
    names, decode = ELEMENT_NAMES[:n], (*range(n), None).__getitem__
    cells = n * n
    last = n - 1 if "unit_maps" in laws else -1  # the row that fixes the units
    values = [-1] * cells  # -1: not yet chosen
    # readers[k]: the triples checked once cell k is chosen, as (xy, yz, x*n, z)
    # cells: those k = (a, b) completes, (a, b, t) and (t, a, b), then those waiting on k
    readers = [
        [(k, b * n + t, a * n, t) for t in range(n) if b * n + t <= k]
        + [(t * n + a, k, t * n, b) for t in range(n) if t * n + a <= k]
        for k in range(cells) for a, b in [divmod(k, n)]
    ] if pruned else [()] * cells
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

    def row_broken(r: int) -> bool:
        """Row r is complete: record whether it is a left-unit row, and
        whether some complete row x has lost its one left unit l with
        x.l = x, through two such l <= r or none left to come.  Only row
        r and the rows x with x.r = x can have changed.  For a normal
        class, also whether a left-unit row r and an earlier one l have
        l.r and r.l both defined; for a poloid class, once r is the last
        row, whether the units fail."""
        rn = r * n
        left[r] = all(values[rn + l] in (l, n) for l in range(n))
        if normal and left[r]:
            for l in range(r):
                if left[l] and values[l * n + r] < n and values[rn + l] < n:
                    return True
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
        return r == last and units_broken()

    def units_broken() -> bool:
        """Every row is complete: whether some x has no unit e with e.x
        defined or none with x.e defined, the units being the left-unit
        rows whose column holds only x.e = x or undefined; for a
        groupoid, also whether some x has other than one y with x.y and
        y.x both units."""
        units = [e for e in range(n)
                 if left[e] and all(values[x * n + e] in (x, n) for x in range(n))]
        for x in range(n):
            xn = x * n
            if (all(values[e * n + x] == n for e in units)
                    or all(values[xn + e] == n for e in units)):
                return True
            if cancels and sum(values[xn + y] in units and values[y * n + x] in units
                               for y in range(n)) != 1:
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
            yield _built(names, tuple([flat[i:i + n] for i in range(0, cells, n)]))
            return
        x, y = divmod(k, n)
        row_done = right_unit and y == n - 1
        # deeper cells append only to later cells' lists, so these stay put
        checks, waits_k, tied = readers[k], waits[k], buckets[k]
        for v in choices:
            values[k] = v
            if cancels and v < n and (v in values[k - y:k] or v in values[y:k:n]):
                continue  # xy = xz or yx = zx forces y = z
            for i, j, xn, z in checks:  # a break is a violation no later cell repairs
                xy, yz = values[i], values[j]
                if xy == n:  # two-sided: yz and x(yz) defined force xy defined
                    if two_sided and yz < n and 0 <= values[xn + yz] < n:
                        break
                elif yz == n:  # (xy)z defined forces yz defined
                    if 0 <= values[xy * n + z] < n:
                        break
                else:  # xy and yz defined force (xy)z = x(yz), both defined
                    wz, xv = values[xy * n + z], values[xn + yz]
                    if wz == n or xv == n or wz != xv and wz >= 0 and xv >= 0:
                        break
            else:
                if row_done and row_broken(x):
                    continue
                mark = len(trail)
                for waiting, triple in waits_k[v]:
                    waiting.append(triple)
                    trail.append(waiting)
                if not tied or still_least(k):
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
    Consecutive tables mostly differ only in their last row, so the
    triple that refuted the last table scanned is replayed first, and
    only a table it does not break is scanned for the one-sided law: at
    n = 3, 4,784 of the 262,143 tables.
    """
    counts = dict.fromkeys(VERDICT_NAMES, 0)
    x = y = z = 0  # the triple that refuted the last table scanned
    for m in all_magmas(n):
        if _one_sided_break(m.table, x, y, (z,)) is not None:
            continue
        found = _Analysis(m).right_directed_semigroupoid
        if found is True:
            for name, ok in classify(m).verdicts.items():
                counts[name] += ok
        else:
            x, y, z = found.elements
    counts["total"] = n ** (n * n)
    counts["partial_magmas"] = (n + 1) ** (n * n) - 1
    return counts


def canonical_form(m: PartialMagma) -> tuple[int, ...]:
    """The least relabelling of the flat table over all carrier permutations."""
    n = m.size
    flat = tuple(n if c is None else c for row in m.table for c in row)
    return min([flat] + [tuple(image[flat[s]] for s in source)
                         for source, image, _ in _relabellings(n)])
