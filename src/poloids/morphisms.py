"""Homomorphisms, isomorphism search, subpoloids, and actions.

A morphism is a total map between carriers.  Product preservation and
definedness reflection are kept as separate predicates: a homomorphism
must turn defined products into defined products, but only when it also
reflects definedness does its image inherit the poloid structure.

Each rule is checked in one place: :func:`_preserves` and :func:`_reflects`
are the two halves of a structure map, scanned whole for morphisms and the
embeddings of :mod:`poloids.represent`, and checked cell by cell by the
isomorphism search as it places elements; :func:`_restrict` builds the
magma on a subset, closure checked, for subpoloids and images; and the
constructors check the rest, an :class:`ActionSpec`'s maps too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .classify import _Analysis
from .errors import BoundExceeded, ParseError
from .maps import OUTSIDE, MapMagma, Mode, as_partial_magma, compose_maps
from .tables import PartialMagma, Witness, _content_lines, _heading, _is_index, _split_arrow
from .tables import _require, left_units, right_units

ISO_SEARCH_BOUND = 8  # largest carrier find_isomorphism searches


@dataclass(frozen=True)
class Morphism:
    """A total assignment of source elements to target elements."""

    source: PartialMagma
    target: PartialMagma
    mapping: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "mapping", tuple(self.mapping))
        if len(self.mapping) != self.source.size:
            raise ValueError("mapping must cover every source element")
        for v in self.mapping:
            if not _is_index(v, self.target.size):
                raise ValueError(f"mapping value {v!r} is not a target element index")


def _preserves(s, t, f):
    """True, or the first product-mismatch (x, y): a product xy defined in
    table ``s`` whose image f(x)f(y) in table ``t`` is undefined or not f(xy)."""
    for x, row in enumerate(s):
        image_row = t[f[x]]
        for y, xy in enumerate(row):
            if xy is not None and image_row[f[y]] != f[xy]:
                return Witness("product-mismatch", (x, y))
    return True


def _reflects(s, t, f):
    """True, or the first definedness (x, y): xy undefined in table ``s``
    while f(x)f(y) is defined in table ``t``."""
    for x, row in enumerate(s):
        image_row = t[f[x]]
        for y, xy in enumerate(row):
            if xy is None and image_row[f[y]] is not None:
                return Witness("definedness", (x, y))
    return True


def _restrict(m: PartialMagma, sub):
    """``m`` on the sorted indices ``sub``, reindexed by position in ``sub``
    and named by it, or the first not-closed (x, y) whose product leaves
    ``sub``, or empty-operation when no product on ``sub`` is defined."""
    t = m.table
    back = {v: i for i, v in enumerate(sub)}
    for x in sub:
        for y in sub:
            if t[x][y] is not None and t[x][y] not in back:
                return Witness("not-closed", (x, y))
    table = tuple(tuple(None if t[x][y] is None else back[t[x][y]] for y in sub) for x in sub)
    try:
        return PartialMagma(tuple(m.elements[x] for x in sub), table)
    except ValueError:  # the constructor's one rule a restriction can break
        return Witness("empty-operation", tuple(sub))


def is_homomorphism(m: Morphism):
    """Product preservation plus units landing on units.

    The source must be a verified poloid; the target may be any magma.
    When the target is itself a poloid, the induced equations between
    effective units are verified as a sanity check.
    """
    return _homomorphism(m, _Analysis(m.source), _Analysis(m.target))


def _homomorphism(m: Morphism, src: _Analysis, tgt: _Analysis):
    """:func:`is_homomorphism`, reading the two magmas' facts off the
    given analyses so a caller that already has them pays for none twice."""
    src_eps, src_vareps = _require(src.unit_maps, "source is not a poloid")
    f = m.mapping
    preserved = _preserves(m.source.table, m.target.table, f)
    if not preserved:
        return preserved
    target_units = set(tgt.units)
    for e in src.units:
        if f[e] not in target_units:
            return Witness("unit-image", (e,))
    if tgt.poloid:
        tgt_eps, tgt_vareps = tgt.unit_maps
        for x in range(m.source.size):
            if f[src_eps[x]] != tgt_eps[f[x]]:
                raise RuntimeError("effective left units not respected")
            if f[src_vareps[x]] != tgt_vareps[f[x]]:
                raise RuntimeError("effective right units not respected")
    return True


def reflects_definedness(m: Morphism):
    """Whether defined image products pull back to defined products."""
    return _reflects(m.source.table, m.target.table, m.mapping)


def image_poloid(m: Morphism) -> PartialMagma:
    """The induced structure on the image of a reflecting homomorphism."""
    _require(is_homomorphism(m), "not a homomorphism")
    _require(reflects_definedness(m), "does not reflect definedness")
    result = _restrict(m.target, sorted(set(m.mapping)))
    if not result:
        raise RuntimeError(f"image of a reflecting homomorphism is {result.kind} in the target")
    if not _Analysis(result).poloid:
        raise RuntimeError("image of a reflecting homomorphism must be a poloid")
    return result


def is_isomorphism(m: Morphism) -> bool:
    """Bijective, and a homomorphism in both directions: the inverse of a
    bijective homomorphism is one exactly when the map reflects definedness.
    Between poloids it always does, as a functor bijective on arrows is an
    isomorphism: xy is defined exactly when vareps_x = eps_y (xe, ey defined
    make xy defined), and f carries vareps_x, eps_y to vareps_f(x), eps_f(y),
    so f(x)f(y) defined pulls back by injectivity.  Off poloids it may not."""
    if m.source.size != m.target.size or len(set(m.mapping)) != m.source.size:
        return False
    src, tgt = _Analysis(m.source), _Analysis(m.target)
    if not src.poloid or not tgt.poloid:
        return False
    return bool(_homomorphism(m, src, tgt)) and bool(reflects_definedness(m))


def _profiles(m: PartialMagma):
    """Per element x: its defined row and column cells, whether xx is x and
    whether it is undefined, and whether x is a left and a right unit."""
    t = m.table
    lefts, rights = set(left_units(m)), set(right_units(m))
    return [
        (sum(c is not None for c in t[x]), sum(row[x] is not None for row in t),
         t[x][x] == x, t[x][x] is None, x in lefts, x in rights)
        for x in range(m.size)
    ]


def find_isomorphism(p: PartialMagma, q: PartialMagma) -> Morphism | None:
    """The least table isomorphism p -> q in lexicographic order, if any.

    Backtracking over assignments in index order, pruning on per-element
    definedness profiles, whose unit flags also match the unit counts;
    the first complete assignment found is the lexicographically minimal
    one.  Each cell (a, b) of p is checked in the bucket of the later of a
    and b (definedness, and that the image of an unplaced ab is free) and
    in that of ab when it comes later still (its value), so the last
    bucket completes the check.  Carriers above ``ISO_SEARCH_BOUND``
    elements are refused.
    """
    n = p.size
    if n != q.size:
        return None
    if n > ISO_SEARCH_BOUND:
        raise BoundExceeded(f"carriers of {n} elements exceed bound {ISO_SEARCH_BOUND}")
    p_prof, q_prof = _profiles(p), _profiles(q)
    if sorted(p_prof) != sorted(q_prof):
        return None
    candidates = [
        [y for y in range(n) if q_prof[y] == p_prof[x]] for x in range(n)
    ]
    s, t = p.table, q.table
    assign = [-1] * n
    used = [False] * n
    cells = [[] for _ in range(n)]
    for a, row in enumerate(s):
        for b, ab in enumerate(row):
            cells[max(a, b)].append((a, b, ab))
            if ab is not None and ab > max(a, b):
                cells[ab].append((a, b, ab))

    def fits(x: int) -> bool:
        # assign[x] and used[] already hold the tentative choice
        for a, b, ab in cells[x]:
            image = t[assign[a]][assign[b]]
            if ab is None:
                if image is not None:
                    return False
            elif image is None or (image != assign[ab] if ab <= x else used[image]):
                return False
        return True

    def extend(x: int) -> bool:
        if x == n:
            return True
        for y in candidates[x]:
            if used[y]:
                continue
            assign[x] = y
            used[y] = True
            if fits(x) and extend(x + 1):
                return True
            assign[x] = -1
            used[y] = False
        return False

    if not extend(0):
        return None
    return Morphism(p, q, tuple(assign))


def is_subpoloid(p: PartialMagma, subset):
    """Whether ``subset`` is closed, forms a poloid, and only uses global units."""
    inside = set(subset)
    if not inside:
        raise ValueError("subset must be non-empty")
    for x in inside:
        if not _is_index(x, p.size):
            raise ValueError(f"index {x!r} is not an element index")
    sub = sorted(inside)
    magma = _restrict(p, sub)
    if not magma:
        return magma
    restricted = _Analysis(magma)
    poloid = restricted.poloid
    if not poloid:
        return Witness(poloid.kind, tuple(sub[i] for i in poloid.elements))
    global_units = set(_Analysis(p).units)
    for e in restricted.units:
        if sub[e] not in global_units:
            return Witness("non-global-unit", (sub[e],))
    return True


@dataclass(frozen=True)
class ActionSpec:
    """A poloid element for every point-map on a ground set.

    ``assignment[i]`` is the map (all prefunctions or all partial
    functions, each non-empty, on ``ground``) acting for element ``i``;
    their SUPSET :class:`MapMagma` ``magma`` checks their kind and ground.
    """

    poloid: PartialMagma
    ground: tuple
    assignment: tuple
    magma: MapMagma = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "ground", tuple(self.ground))
        object.__setattr__(self, "assignment", tuple(self.assignment))
        if len(self.assignment) != self.poloid.size:
            raise ValueError("one map per poloid element required")
        distinct = tuple(dict.fromkeys(self.assignment))
        object.__setattr__(self, "magma", MapMagma(self.ground, distinct, Mode.SUPSET))


@dataclass(frozen=True)
class ActionResult:
    """Outcome of an action check; truthy iff the action laws hold.

    ``closure_added`` lists composites that had to be adjoined to make
    the image closed; a well-formed action has none.
    """

    ok: bool
    witness: Witness | None
    image: MapMagma
    closure_added: tuple

    def __bool__(self) -> bool:
        return self.ok


def is_poloid_action(a: ActionSpec) -> ActionResult:
    """Unit-respecting homomorphism into maps on the ground set.

    The map image is closed under composition automatically (the added
    composites are reported), the assignment must be a homomorphism
    into the closed image magma, and each unit must act as an identity
    transformation (functions: equal domain and codomain).
    """
    source = _Analysis(a.poloid)
    _require(source.unit_maps, "not a poloid")
    image = a.magma
    added = ()
    while True:  # adjoin the composites that fall outside until none is left
        members = image.members
        new = tuple(dict.fromkeys(
            compose_maps(members[i], members[j], Mode.SUPSET)
            for i, row in enumerate(image.table) for j, c in enumerate(row) if c == OUTSIDE
        ))
        if not new:
            break
        added += new
        image = MapMagma(a.ground, members + new, Mode.SUPSET)
    target = as_partial_magma(image)
    mapping = tuple(image.member_index(f) for f in a.assignment)
    hom = _homomorphism(Morphism(a.poloid, target, mapping), source, _Analysis(target))
    if not hom:
        return ActionResult(False, hom, image, added)
    for e in source.units:
        # PartialFn.is_identity also demands dom = cod, as required here
        if not a.assignment[e].is_identity():
            return ActionResult(False, Witness("non-identity-unit", (e,)), image, added)
    return ActionResult(True, None, image, added)


def parse_morphism(src: PartialMagma, dst: PartialMagma, text: str) -> Morphism:
    """Parse ``hom: <src-elem> -> <dst-elem>`` lines, one per source element;
    names may hold ``->``, as in :func:`poloids.tables._split_arrow`."""
    mapping: dict[int, int] = {}
    for line in _content_lines(text):
        if (rest := _heading(line, "hom")) is None:
            raise ParseError(f"expected 'hom: <src> -> <dst>', got {line!r}")
        a, arrow, b = _split_arrow(rest)
        if not arrow:
            raise ParseError(f"missing '->' in {line!r}")
        try:
            i = src.index(a)
            j = dst.index(b)
        except KeyError as exc:
            raise ParseError(exc.args[0]) from None
        if i in mapping:
            raise ParseError(f"element {a!r} mapped twice")
        mapping[i] = j
    if len(mapping) != src.size:
        raise ParseError("every source element needs exactly one hom line")
    return Morphism(src, dst, tuple(mapping[i] for i in range(src.size)))


def serialize_morphism(m: Morphism) -> str:
    out = [
        f"hom: {m.source.elements[i]} -> {m.target.elements[v]}"
        for i, v in enumerate(m.mapping)
    ]
    return "\n".join(out) + "\n"
