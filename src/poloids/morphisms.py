"""Homomorphisms, isomorphism search, subpoloids, and actions.

A morphism is a total map between carriers.  Product preservation and
definedness reflection are kept as separate predicates: a homomorphism
must turn defined products into defined products, but only when it also
reflects definedness does its image inherit the poloid structure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classify import _Analysis, _require
from .errors import BoundExceeded, ParseError, PreconditionError
from .maps import OUTSIDE, MapMagma, Mode, PartialFn, as_partial_magma, compose_maps
from .tables import PartialMagma, Witness, _content_lines, units


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
            if not 0 <= v < self.target.size:
                raise ValueError(f"mapping value {v!r} out of range")

    def inverse(self) -> Morphism:
        if len(set(self.mapping)) != self.source.size or self.source.size != self.target.size:
            raise ValueError("morphism is not bijective")
        inv = [0] * self.target.size
        for i, v in enumerate(self.mapping):
            inv[v] = i
        return Morphism(self.target, self.source, tuple(inv))


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
    s, t, f = m.source.table, m.target.table, m.mapping
    for x in range(m.source.size):
        for y in range(m.source.size):
            xy = s[x][y]
            if xy is None:
                continue
            if t[f[x]][f[y]] is None or t[f[x]][f[y]] != f[xy]:
                return Witness("product-mismatch", (x, y))
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
    s, t, f = m.source.table, m.target.table, m.mapping
    for x in range(m.source.size):
        for y in range(m.source.size):
            if t[f[x]][f[y]] is not None and s[x][y] is None:
                return Witness("definedness", (x, y))
    return True


def image_poloid(m: Morphism) -> PartialMagma:
    """The induced structure on the image of a reflecting homomorphism."""
    hom = is_homomorphism(m)
    if not hom:
        raise PreconditionError("not a homomorphism", hom)
    refl = reflects_definedness(m)
    if not refl:
        raise PreconditionError("does not reflect definedness", refl)
    image = sorted(set(m.mapping))
    back = {v: i for i, v in enumerate(image)}
    t = m.target.table
    table = []
    for u in image:
        row = []
        for v in image:
            uv = t[u][v]
            if uv is None:
                row.append(None)
            else:
                if uv not in back:
                    raise RuntimeError("image not closed in the target")
                row.append(back[uv])
        table.append(tuple(row))
    result = PartialMagma(tuple(m.target.elements[v] for v in image), tuple(table))
    if not _Analysis(result).poloid:
        raise RuntimeError("image of a reflecting homomorphism must be a poloid")
    return result


def is_isomorphism(m: Morphism) -> bool:
    """Bijective, and a homomorphism in both directions."""
    if m.source.size != m.target.size or len(set(m.mapping)) != m.source.size:
        return False
    src, tgt = _Analysis(m.source), _Analysis(m.target)
    if not src.poloid or not tgt.poloid:
        return False
    return bool(_homomorphism(m, src, tgt)) and bool(_homomorphism(m.inverse(), tgt, src))


def _profile(m: PartialMagma, x: int):
    t = m.table
    n = m.size
    row = sum(1 for y in range(n) if t[x][y] is not None)
    col = sum(1 for y in range(n) if t[y][x] is not None)
    lu = all(t[x][y] in (None, y) for y in range(n))
    ru = all(t[y][x] in (None, y) for y in range(n))
    return (row, col, t[x][x] == x, t[x][x] is None, lu, ru)


def find_isomorphism(p: PartialMagma, q: PartialMagma, bound: int = 8) -> Morphism | None:
    """The least table isomorphism p -> q in lexicographic order, if any.

    Backtracking over assignments in index order, pruning on unit
    counts and per-element definedness profiles; the first complete
    assignment found is the lexicographically minimal one.
    """
    n = p.size
    if n != q.size:
        return None
    if n > bound:
        raise BoundExceeded(f"carriers of {n} elements exceed bound {bound}")
    if len(units(p)) != len(units(q)):
        return None
    p_prof = [_profile(p, x) for x in range(n)]
    q_prof = [_profile(q, x) for x in range(n)]
    if sorted(p_prof) != sorted(q_prof):
        return None
    candidates = [
        [y for y in range(n) if q_prof[y] == p_prof[x]] for x in range(n)
    ]
    s, t = p.table, q.table
    assign = [-1] * n
    used = [False] * n

    def consistent(x: int) -> bool:
        # assign[x] and used[] already reflect the tentative choice; a
        # defined product with an unassigned value only needs its target
        # value to still be available, the equality is checked once the
        # value's element gets assigned.
        for a in range(x + 1):
            for b in range(x + 1):
                uv = s[a][b]
                wr = t[assign[a]][assign[b]]
                if (uv is None) != (wr is None):
                    return False
                if uv is None:
                    continue
                if assign[uv] != -1:
                    if assign[uv] != wr:
                        return False
                elif used[wr]:
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
            if consistent(x) and extend(x + 1):
                return True
            assign[x] = -1
            used[y] = False
        return False

    if not extend(0):
        return None
    m = Morphism(p, q, tuple(assign))
    # the backtracker checks definedness and assigned values; re-verify fully
    for x in range(n):
        for y in range(n):
            xy = s[x][y]
            if (xy is None) != (t[assign[x]][assign[y]] is None):
                raise RuntimeError("search returned a non-isomorphism")
            if xy is not None and t[assign[x]][assign[y]] != assign[xy]:
                raise RuntimeError("search returned a non-isomorphism")
    return m


def is_subpoloid(p: PartialMagma, subset):
    """Whether ``subset`` is closed, forms a poloid, and only uses global units."""
    sub = sorted(set(subset))
    if not sub:
        raise ValueError("subset must be non-empty")
    for x in sub:
        if not 0 <= x < p.size:
            raise ValueError(f"index {x} out of range")
    inside = set(sub)
    t = p.table
    for x in sub:
        for y in sub:
            if t[x][y] is not None and t[x][y] not in inside:
                return Witness("not-closed", (x, y))
    if all(t[x][y] is None for x in sub for y in sub):
        return Witness("empty-operation", tuple(sub))
    back = {v: i for i, v in enumerate(sub)}
    table = tuple(
        tuple(back[t[x][y]] if t[x][y] is not None else None for y in sub) for x in sub
    )
    restricted = _Analysis(PartialMagma(tuple(p.elements[x] for x in sub), table))
    poloid = restricted.poloid
    if not poloid:
        return Witness(poloid.kind, tuple(sub[i] for i in poloid.elements))
    global_units = set(units(p))
    for e in restricted.units:
        if sub[e] not in global_units:
            return Witness("non-global-unit", (sub[e],))
    return True


@dataclass(frozen=True)
class ActionSpec:
    """A poloid element for every point-map on a ground set.

    ``assignment[i]`` is the map (all prefunctions or all partial
    functions, each non-empty, on ``ground``) acting for element ``i``.
    """

    poloid: PartialMagma
    ground: tuple
    assignment: tuple

    def __post_init__(self):
        object.__setattr__(self, "ground", tuple(self.ground))
        object.__setattr__(self, "assignment", tuple(self.assignment))
        if len(self.assignment) != self.poloid.size:
            raise ValueError("one map per poloid element required")
        kinds = {isinstance(f, PartialFn) for f in self.assignment}
        if len(kinds) != 1:
            raise ValueError("maps must be all prefunctions or all functions")
        for f in self.assignment:
            if f.ground != self.ground:
                raise ValueError("map ground set mismatch")


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
    image = MapMagma(a.ground, tuple(dict.fromkeys(a.assignment)), Mode.SUPSET)
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
    """Parse ``hom: <src-elem> -> <dst-elem>`` lines, one per source element."""
    mapping: dict[int, int] = {}
    for line in _content_lines(text):
        head, sep, rest = line.partition(":")
        if head.strip() != "hom" or not sep:
            raise ParseError(f"expected 'hom: <src> -> <dst>', got {line!r}")
        a, arrow, b = rest.partition("->")
        if not arrow:
            raise ParseError(f"missing '->' in {line!r}")
        try:
            i = src.index(a.strip())
            j = dst.index(b.strip())
        except KeyError as exc:
            raise ParseError(str(exc)) from None
        if i in mapping:
            raise ParseError(f"element {a.strip()!r} mapped twice")
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
