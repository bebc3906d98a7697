"""Partial self-maps on a finite ground set and magmas of them.

Two kinds of member are supported: prefunctions (a domain and an
assignment, no codomain) and partial functions (a prefunction plus an
explicit codomain containing its image).  A :class:`MapMagma` is a
finite set of members of one kind together with a composition regime
that decides when ``f.g`` is defined:

==============  ==========================================
``SUPSET``      dom(f) contains im(g)
``OVERLAP``     dom(f) meets im(g)
``EXACT_IMAGE`` dom(f) equals im(g)
``CODOMAIN``    dom(f) equals cod(g)  (functions only)
==============  ==========================================

In every regime but OVERLAP the composite has the domain of g and maps
x to f(g(x)); for functions its codomain is cod(f).  In OVERLAP the
composite's domain is the g-preimage of dom(f).

Members are kept in a canonical order (domain, then assignment, then
codomain, all compared via ground-set positions) so that rendering a
map magma as a Cayley table is deterministic.

Each pair of members is composed once, into :attr:`MapMagma.table`,
which every check on composites reads; maps keep their domain and image.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import combinations, product as iproduct
from typing import Mapping

from .errors import BoundExceeded, ParseError, PreconditionError
from .tables import PartialMagma, Witness, _content_lines, _fact, _valid_token


class Mode(enum.Enum):
    """Composition regime of a map magma."""

    SUPSET = "supset"
    OVERLAP = "overlap"
    EXACT_IMAGE = "exact-image"
    CODOMAIN = "codomain"


def _as_pairs(ground: tuple, assignment) -> tuple[tuple, ...]:
    if isinstance(assignment, Mapping):
        items = assignment.items()
    else:
        items = tuple(assignment)
    pos = {p: i for i, p in enumerate(ground)}
    seen = set()
    pairs = []
    for p, q in items:
        if p not in pos or q not in pos:
            raise ValueError(f"assignment pair ({p!r}, {q!r}) leaves the ground set")
        if p in seen:
            raise ValueError(f"point {p!r} assigned twice")
        seen.add(p)
        pairs.append((p, q))
    pairs.sort(key=lambda pq: pos[pq[0]])
    return tuple(pairs)


@dataclass(frozen=True)
class Prefunction:
    """A non-empty partial self-map on ``ground``, without a codomain."""

    ground: tuple
    assignment: tuple[tuple, ...]

    def __post_init__(self):
        ground = tuple(self.ground)
        object.__setattr__(self, "ground", ground)
        if len(set(ground)) != len(ground) or not ground:
            raise ValueError("ground set must be non-empty and duplicate-free")
        object.__setattr__(self, "assignment", _as_pairs(ground, self.assignment))
        if not self.assignment:
            raise ValueError("a prefunction must have a non-empty domain")

    @_fact
    def domain(self) -> tuple:
        return tuple(p for p, _ in self.assignment)

    @_fact
    def image(self) -> tuple:
        pos = {p: i for i, p in enumerate(self.ground)}
        return tuple(sorted({q for _, q in self.assignment}, key=pos.get))

    def __call__(self, p):
        for a, b in self.assignment:
            if a == p:
                return b
        raise KeyError(f"{p!r} not in domain")

    def as_dict(self) -> dict:
        return dict(self.assignment)

    def is_identity(self) -> bool:
        return all(p == q for p, q in self.assignment)


@dataclass(frozen=True)
class PartialFn:
    """A prefunction with an explicit codomain: im(f) <= cod(f) <= ground."""

    pre: Prefunction
    codomain: tuple

    def __post_init__(self):
        pos = {p: i for i, p in enumerate(self.pre.ground)}
        cod = tuple(sorted(set(self.codomain), key=pos.get))
        if len(cod) != len(tuple(self.codomain)):
            raise ValueError("duplicate codomain point")
        for p in cod:
            if p not in pos:
                raise ValueError(f"codomain point {p!r} not in the ground set")
        object.__setattr__(self, "codomain", cod)
        if not set(self.pre.image) <= set(cod):
            raise ValueError("codomain must contain the image")

    @property
    def ground(self) -> tuple:
        return self.pre.ground

    @property
    def domain(self) -> tuple:
        return self.pre.domain

    @property
    def image(self) -> tuple:
        return self.pre.image

    @property
    def assignment(self) -> tuple[tuple, ...]:
        return self.pre.assignment

    def __call__(self, p):
        return self.pre(p)

    def is_identity(self) -> bool:
        """An identity transformation: dom = cod and every point fixed."""
        return self.pre.is_identity() and self.codomain == self.domain


def identity_pretransformation(ground, dom) -> Prefunction:
    return Prefunction(tuple(ground), {p: p for p in dom})


def identity_transformation(ground, dom) -> PartialFn:
    return PartialFn(identity_pretransformation(ground, dom), tuple(dom))


def compose_maps(f, g, mode: Mode = Mode.SUPSET):
    """The composite f.g under ``mode``, or None when it is undefined.

    Both maps must live on the same ground set and be of the same kind.
    """
    if f.ground != g.ground:
        raise ValueError("maps live on different ground sets")
    f_fn = isinstance(f, PartialFn)
    if f_fn != isinstance(g, PartialFn):
        raise ValueError("cannot compose a prefunction with a function")
    dom_f = set(f.domain)
    im_g = set(g.image)
    dom = g.domain
    if mode is Mode.SUPSET:
        if not dom_f >= im_g:
            return None
    elif mode is Mode.OVERLAP:
        if not dom_f & im_g:
            return None
        dom = tuple(p for p in dom if g(p) in dom_f)
    elif mode is Mode.EXACT_IMAGE:
        if dom_f != im_g:
            return None
    elif mode is Mode.CODOMAIN:
        if not f_fn:
            raise ValueError("codomain composition needs functions")
        if dom_f != set(g.codomain):
            return None
    else:  # pragma: no cover
        raise ValueError(mode)
    pre = Prefunction(f.ground, {p: f(g(p)) for p in dom})
    if f_fn:
        return PartialFn(pre, f.codomain)
    return pre


def _member_key(m, pos: dict):
    dom_mask = sum(1 << pos[p] for p in m.domain)
    values = tuple(pos[q] for _, q in m.assignment)
    cod_mask = sum(1 << pos[p] for p in m.codomain) if isinstance(m, PartialFn) else -1
    return (dom_mask, values, cod_mask)


def default_map_name(m) -> str:
    if isinstance(m, PartialFn):
        if m.is_identity():
            return "Id[%s]" % ",".join(str(p) for p in m.domain)
        body = ",".join(f"{p}>{q}" for p, q in m.assignment)
        return "[%s|cod=%s]" % (body, ",".join(str(p) for p in m.codomain))
    if m.is_identity():
        return "Id[%s]" % ",".join(str(p) for p in m.domain)
    return "[%s]" % ",".join(f"{p}>{q}" for p, q in m.assignment)


OUTSIDE = -1  # a MapMagma.table cell whose composite is not a member


@dataclass(frozen=True)
class MapMagma:
    """A finite, homogeneous set of maps under one composition regime."""

    ground: tuple
    members: tuple
    mode: Mode = Mode.SUPSET
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        ground = tuple(self.ground)
        members = tuple(self.members)
        object.__setattr__(self, "ground", ground)
        if not members:
            raise ValueError("a map magma needs at least one member")
        kinds = {isinstance(m, PartialFn) for m in members}
        if len(kinds) != 1:
            raise ValueError("members must be all prefunctions or all functions")
        if self.mode is Mode.CODOMAIN and not kinds.pop():
            raise ValueError("codomain mode requires function members")
        for m in members:
            if m.ground != ground:
                raise ValueError("member ground set mismatch")
        if len(set(members)) != len(members):
            raise ValueError("duplicate members")
        names = self.names
        if names is not None:
            names = tuple(names)
            if len(names) != len(members) or len(set(names)) != len(names):
                raise ValueError("names must be distinct and one per member")
        pos = {p: i for i, p in enumerate(ground)}
        order = sorted(range(len(members)), key=lambda i: _member_key(members[i], pos))
        object.__setattr__(self, "members", tuple(members[i] for i in order))
        if names is not None:
            names = tuple(names[i] for i in order)
        object.__setattr__(self, "names", names)

    @property
    def size(self) -> int:
        return len(self.members)

    @_fact
    def table(self) -> tuple[tuple, ...]:
        """``table[i][j]`` is the member index of ``members[i] . members[j]``,
        ``None`` where it is undefined, or ``OUTSIDE`` where it is not a member."""
        index = {m: i for i, m in enumerate(self.members)}
        rows = ((compose_maps(f, g, self.mode) for g in self.members) for f in self.members)
        return tuple(tuple(c if c is None else index.get(c, OUTSIDE) for c in row) for row in rows)

    def member_names(self) -> tuple[str, ...]:
        """File/report names: the given ones, or synthesized defaults."""
        if self.names is not None:
            return self.names
        names = []
        for m in self.members:
            name = default_map_name(m)
            while name in names:
                name += "'"
            names.append(name)
        return tuple(names)

    def member_index(self, m) -> int:
        try:
            return self.members.index(m)
        except ValueError:
            raise KeyError("not a member") from None


def compose(a: MapMagma, f, g):
    """Composite of two members under the magma's regime (may not be a member)."""
    a.member_index(f)
    a.member_index(g)
    return compose_maps(f, g, a.mode)


def full_pretransformation_magma(points, bound: int = 4) -> MapMagma:
    """All non-empty prefunctions on ``points``, under SUPSET composition."""
    points = tuple(points)
    if len(points) > bound:
        raise BoundExceeded(f"ground set of {len(points)} exceeds bound {bound}")
    members = []
    for choice in iproduct(range(len(points) + 1), repeat=len(points)):
        pairs = {p: points[c] for p, c in zip(points, choice) if c < len(points)}
        if pairs:
            members.append(Prefunction(points, pairs))
    return MapMagma(points, tuple(members), Mode.SUPSET)


def full_transformation_magma(points, bound: int = 4) -> MapMagma:
    """All non-empty partial functions on ``points``, under SUPSET composition."""
    base = full_pretransformation_magma(points, bound)
    points = base.ground
    members = []
    for pre in base.members:
        rest = [p for p in points if p not in set(pre.image)]
        for k in range(len(rest) + 1):
            for extra in combinations(rest, k):
                members.append(PartialFn(pre, pre.image + extra))
    return MapMagma(points, tuple(members), Mode.SUPSET)


def is_closed(a: MapMagma):
    """True iff every defined composite of members is a member."""
    for i, row in enumerate(a.table):
        if OUTSIDE in row:
            return Witness("not-closed", (i, row.index(OUTSIDE)))
    return True


def is_transformation_semigroupoid(a: MapMagma):
    """Whether dom(f) containing im(g) always forces dom(f) = cod(g)."""
    if a.mode is not Mode.SUPSET or not isinstance(a.members[0], PartialFn):
        raise PreconditionError("expected a transformation magma (functions, supset mode)")
    for i, f in enumerate(a.members):
        dom_f = set(f.domain)
        for j, g in enumerate(a.members):
            if dom_f >= set(g.image) and f.domain != g.codomain:
                return Witness("dom-cod-mismatch", (i, j))
    return True


def is_transformation_poloid(a: MapMagma):
    """Whether a closed transformation semigroupoid holds all member identities."""
    sg = is_transformation_semigroupoid(a)
    if not sg:
        raise PreconditionError("not a transformation semigroupoid", sg)
    return _holds_identities(a, lambda f: (identity_transformation(a.ground, f.domain),
                                           identity_transformation(a.ground, f.codomain)))


def is_domain_pretransformation_magma(a: MapMagma):
    """Whether a closed pretransformation magma holds Id_dom(f) for each member f."""
    if a.mode is not Mode.SUPSET or isinstance(a.members[0], PartialFn):
        raise PreconditionError("expected a pretransformation magma (prefunctions, supset mode)")
    return _holds_identities(a, lambda f: (identity_pretransformation(a.ground, f.domain),))


def _holds_identities(a: MapMagma, identities):
    """Whether a closed map magma holds ``identities(f)`` for each member f."""
    closed = is_closed(a)
    if not closed:
        raise PreconditionError("not closed under composition", closed)
    member_set = set(a.members)
    for i, f in enumerate(a.members):
        if not member_set.issuperset(identities(f)):
            return Witness("missing-unit", (i,))
    return True


def as_partial_magma(a: MapMagma) -> PartialMagma:
    """Cayley table of a closed map magma, over its canonical member order."""
    closed = is_closed(a)
    if not closed:
        raise PreconditionError("map magma is not closed under composition", closed)
    if all(cell is None for row in a.table for cell in row):
        raise PreconditionError("composition is nowhere defined; not a magma")
    return PartialMagma(a.member_names(), a.table)


def parse_map_magma(text: str) -> MapMagma:
    """Parse the line-oriented map-magma file format.

    ``set:`` and ``mode:`` lines, then ``map <name>: p->q ...`` blocks,
    each optionally followed by ``cod <name>: <pt> ...``.  A cod line
    makes its map a partial function; maps must be all with or all
    without codomains.  A trailing ``iso:`` block of ``<element> -> <map>``
    lines, as ``poloids embed`` writes, is checked and then ignored.
    """
    lines = _content_lines(text)
    if len(lines) < 2:
        raise ParseError("map-magma file needs 'set:' and 'mode:' lines")
    head, sep, rest = lines[0].partition(":")
    if head.strip() != "set" or not sep:
        raise ParseError("map-magma file must start with a 'set:' line")
    points = tuple(rest.split())
    if not points or len(set(points)) != len(points):
        raise ParseError("ground set must be non-empty and duplicate-free")
    for p in points:
        if not _valid_token(p):
            raise ParseError(f"invalid point token {p!r}")
    head, sep, rest = lines[1].partition(":")
    if head.strip() != "mode" or not sep:
        raise ParseError("second line must be a 'mode:' line")
    try:
        mode = Mode(rest.strip())
    except ValueError:
        raise ParseError(f"unknown mode {rest.strip()!r}") from None
    point_set = set(points)
    body = lines[2:]
    iso = body[body.index("iso:"):] if "iso:" in body else []

    entries: list[tuple[str, dict, tuple | None]] = []  # (name, assignment, cod)
    for line in body[:len(body) - len(iso)]:
        head, sep, rest = line.partition(":")
        if not sep:
            raise ParseError(f"expected 'map' or 'cod' line, got {line!r}")
        words = head.split()
        if len(words) != 2 or words[0] not in ("map", "cod"):
            raise ParseError(f"expected 'map <name>:' or 'cod <name>:', got {line!r}")
        kind, name = words
        if not _valid_token(name):
            raise ParseError(f"invalid map name {name!r}")
        if kind == "map":
            if any(name == other for other, _, _ in entries):
                raise ParseError(f"duplicate map name {name!r}")
            pairs = {}
            for tok in rest.split():
                p, arrow, q = tok.partition("->")
                if not arrow or p not in point_set or q not in point_set:
                    raise ParseError(f"map {name!r}: bad pair {tok!r}")
                if p in pairs:
                    raise ParseError(f"map {name!r}: point {p!r} assigned twice")
                pairs[p] = q
            if not pairs:
                raise ParseError(f"map {name!r} has an empty domain")
            entries.append((name, pairs, None))
        else:
            if not entries or entries[-1][0] != name:
                raise ParseError(f"cod line for {name!r} must follow its map line")
            if entries[-1][2] is not None:
                raise ParseError(f"duplicate cod line for {name!r}")
            cod = tuple(rest.split())
            for p in cod:
                if p not in point_set:
                    raise ParseError(f"cod {name!r}: unknown point {p!r}")
            if len(set(cod)) != len(cod):
                raise ParseError(f"cod {name!r}: duplicate point")
            entries[-1] = (name, entries[-1][1], cod)

    if not entries:
        raise ParseError("map-magma file has no maps")
    with_cod = [e for e in entries if e[2] is not None]
    if with_cod and len(with_cod) != len(entries):
        raise ParseError("either every map or no map may carry a codomain")
    members = []
    names = []
    for name, pairs, cod in entries:
        pre = Prefunction(points, pairs)
        if cod is not None:
            if not set(pre.image) <= set(cod):
                raise ParseError(f"cod {name!r} does not cover the map's image")
            members.append(PartialFn(pre, cod))
        else:
            members.append(pre)
        names.append(name)
    for line in iso[1:]:
        element, arrow, member = (part.strip() for part in line.partition("->"))
        if not arrow or not _valid_token(element) or not _valid_token(member):
            raise ParseError(f"expected '<element> -> <map>' in the iso block, got {line!r}")
        if member not in names:
            raise ParseError(f"iso line {line!r}: unknown map {member!r}")
    try:
        return MapMagma(points, tuple(members), mode, tuple(names))
    except ValueError as exc:  # duplicate maps, or codomain mode without codomains
        raise ParseError(str(exc)) from None


def serialize_map_magma(a: MapMagma) -> str:
    """Canonical rendering; inverse of :func:`parse_map_magma`."""
    out = ["set: " + " ".join(str(p) for p in a.ground), "mode: " + a.mode.value]
    for name, m in zip(a.member_names(), a.members):
        out.append("map %s: %s" % (name, " ".join(f"{p}->{q}" for p, q in m.assignment)))
        if isinstance(m, PartialFn):
            out.append("cod %s: %s" % (name, " ".join(str(p) for p in m.codomain)))
    return "\n".join(out) + "\n"
