"""Partial self-maps on a finite ground set and magmas of them.

Two kinds of member are supported: prefunctions (a domain and an
assignment, no codomain) and partial functions, which are prefunctions
that also have a codomain containing their image.  A map is stored like
a row of a Cayley table: ``values[i]`` is the ground position of the
image of ``ground[i]``, or ``None`` off the domain; the constructors,
where points come in, turn them into positions.  A :class:`MapMagma` is
a finite set of members of one kind together with a composition regime
that decides when ``f.g`` is defined:

==============  ==========================================
``SUPSET``      dom(f) contains im(g)
``OVERLAP``     dom(f) meets im(g)
``EXACT_IMAGE`` dom(f) equals im(g)
``CODOMAIN``    dom(f) equals cod(g)  (functions only)
==============  ==========================================

Every regime composes the same way, ``h[i] = f.values[g.values[i]]``,
so the composite's domain is the g-preimage of dom(f); the regime only
decides whether it is defined.  In every regime but OVERLAP that
preimage is the domain of g.  For functions the codomain is cod(f).

Members are kept in a canonical order (domain, then values, then
codomain, all compared via ground-set positions) so that rendering a
map magma as a Cayley table is deterministic.

Each pair of members is composed once, into :attr:`MapMagma.table`,
which every check on composites reads; maps keep their domain and image.

Each rule on maps is checked by its constructor (ground set, assignment,
codomain, one kind of distinct members with distinct names);
:func:`parse_map_magma` checks the layout and reports theirs as ``ParseError``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import combinations, product as iproduct
from typing import Mapping

from .errors import BoundExceeded, ParseError, PreconditionError
from .tables import PartialMagma, Witness, _content_lines, _fact, _heading, _split_arrow, _valid_token


class Mode(enum.Enum):
    """Composition regime of a map magma."""

    SUPSET = "supset"
    OVERLAP = "overlap"
    EXACT_IMAGE = "exact-image"
    CODOMAIN = "codomain"


@dataclass(frozen=True, init=False)
class Prefunction:
    """A non-empty partial self-map on ``ground``, without a codomain.

    ``values[i]`` is the ground position of the image of ``ground[i]``,
    or ``None`` off the domain: a row of a Cayley table.
    """

    ground: tuple
    values: tuple

    def __init__(self, ground, assignment):
        """``assignment`` maps points to points, as a mapping or as pairs."""
        ground = tuple(ground)
        if len(set(ground)) != len(ground) or not ground:
            raise ValueError("ground set must be non-empty and duplicate-free")
        pos = {p: i for i, p in enumerate(ground)}
        values = [None] * len(ground)
        for p, q in assignment.items() if isinstance(assignment, Mapping) else assignment:
            if p not in pos or q not in pos:
                raise ValueError(f"assignment pair ({p!r}, {q!r}) leaves the ground set")
            if values[pos[p]] is not None:
                raise ValueError(f"point {p!r} assigned twice")
            values[pos[p]] = pos[q]
        if values.count(None) == len(values):
            raise ValueError("a prefunction must have a non-empty domain")
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "values", tuple(values))

    @_fact
    def domain(self) -> tuple:
        return tuple(p for p, v in zip(self.ground, self.values) if v is not None)

    @_fact
    def image(self) -> tuple:
        return tuple(self.ground[v] for v in sorted(set(self.values) - {None}))

    @_fact
    def assignment(self) -> tuple[tuple, ...]:
        return tuple((p, self.ground[v]) for p, v in zip(self.ground, self.values) if v is not None)

    def __call__(self, p):
        if p not in self.domain:
            raise KeyError(f"{p!r} not in domain")
        return self.ground[self.values[self.ground.index(p)]]

    def as_dict(self) -> dict:
        return dict(self.assignment)

    def is_identity(self) -> bool:
        return all(v is None or v == i for i, v in enumerate(self.values))


@dataclass(frozen=True, init=False)
class PartialFn(Prefunction):
    """A prefunction with an explicit codomain: im(f) <= cod(f) <= ground."""

    codomain: tuple

    def __init__(self, pre: Prefunction, codomain):
        object.__setattr__(self, "ground", pre.ground)
        object.__setattr__(self, "values", pre.values)
        pos = {p: i for i, p in enumerate(self.ground)}
        given = tuple(codomain)
        for p in given:
            if p not in pos:
                raise ValueError(f"codomain point {p!r} not in the ground set")
        cod = tuple(sorted(set(given), key=pos.get))
        if len(cod) != len(given):
            raise ValueError("duplicate codomain point")
        object.__setattr__(self, "codomain", cod)
        if not set(self.image) <= set(cod):
            raise ValueError("codomain must contain the image")

    @property
    def pre(self) -> Prefunction:
        return Prefunction(self.ground, self.assignment)

    def is_identity(self) -> bool:
        """An identity transformation: dom = cod and every point fixed."""
        return super().is_identity() and self.codomain == self.domain


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
    h = tuple(None if v is None else f.values[v] for v in g.values)
    if mode is Mode.SUPSET:  # h is None where g is, and elsewhere iff g leaves dom(f)
        defined = h.count(None) == g.values.count(None)
    elif mode is Mode.OVERLAP:  # h is already the restriction to the preimage
        defined = h.count(None) < len(h)
    elif mode is Mode.EXACT_IMAGE:
        defined = f.domain == g.image
    elif mode is Mode.CODOMAIN:
        if not f_fn:
            raise ValueError("codomain composition needs functions")
        defined = f.domain == g.codomain
    else:  # pragma: no cover
        raise ValueError(mode)
    if not defined:
        return None
    ground = f.ground
    pre = Prefunction(ground, [(p, ground[v]) for p, v in zip(ground, h) if v is not None])
    return PartialFn(pre, f.codomain) if f_fn else pre


def _member_key(m):
    dom_mask = sum(1 << i for i, v in enumerate(m.values) if v is not None)
    cod_mask = sum(1 << m.ground.index(p) for p in m.codomain) if isinstance(m, PartialFn) else -1
    return (dom_mask, m.values, cod_mask)


def default_map_name(m) -> str:
    if m.is_identity():
        return "Id[%s]" % ",".join(str(p) for p in m.domain)
    body = ",".join(f"{p}>{q}" for p, q in m.assignment)
    if isinstance(m, PartialFn):
        return "[%s|cod=%s]" % (body, ",".join(str(p) for p in m.codomain))
    return "[%s]" % body


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
        order = sorted(range(len(members)), key=lambda i: _member_key(members[i]))
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


FULL_MAGMA_BOUND = 4  # largest ground set the full map magmas are built on


def full_pretransformation_magma(points) -> MapMagma:
    """All non-empty prefunctions on ``points``, under SUPSET composition."""
    points = tuple(points)
    if len(points) > FULL_MAGMA_BOUND:
        raise BoundExceeded(f"ground set of {len(points)} exceeds bound {FULL_MAGMA_BOUND}")
    members = []
    for choice in iproduct(range(len(points) + 1), repeat=len(points)):
        pairs = {p: points[c] for p, c in zip(points, choice) if c < len(points)}
        if pairs:
            members.append(Prefunction(points, pairs))
    return MapMagma(points, tuple(members), Mode.SUPSET)


def full_transformation_magma(points) -> MapMagma:
    """All non-empty partial functions on ``points``, under SUPSET composition."""
    base = full_pretransformation_magma(points)
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
    for i, row in enumerate(a.table):  # a defined cell means dom(f) contains im(g)
        for j, cell in enumerate(row):
            if cell is not None and a.members[i].domain != a.members[j].codomain:
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
        raise PreconditionError("map magma is not closed under composition (%s)"
                                % closed.format(a.member_names()), closed)
    if all(cell is None for row in a.table for cell in row):
        raise PreconditionError("composition is nowhere defined; not a magma")
    return PartialMagma(a.member_names(), a.table)


def _split_pair(name: str, tok: str, points) -> tuple:
    """``p->q`` cut at the one ``->`` with a point on each side, else at the first."""
    parts = tok.split("->")
    if len(parts) == 2:  # one arrow, so one cut
        return parts[0], parts[1]
    cuts = [("->".join(parts[:k]), "->".join(parts[k:])) for k in range(1, len(parts))]
    fits = [(p, q) for p, q in cuts if p in points and q in points]
    if not cuts or len(fits) > 1:
        raise ParseError(f"map {name!r}: {'ambiguous' if cuts else 'bad'} pair {tok!r}")
    return (fits or cuts)[0]


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
    if (rest := _heading(lines[0], "set")) is None:
        raise ParseError("map-magma file must start with a 'set:' line")
    points = tuple(rest.split())
    for p in points:
        if not _valid_token(p):
            raise ParseError(f"invalid point token {p!r}")
    if (rest := _heading(lines[1], "mode")) is None:
        raise ParseError("second line must be a 'mode:' line")
    try:
        mode = Mode(rest.strip())
    except ValueError:
        raise ParseError(f"unknown mode {rest.strip()!r}") from None
    body = lines[2:]
    iso = body[body.index("iso:"):] if "iso:" in body else []

    entries: list[list] = []  # [name, pairs, cod or None]
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
            entries.append([name, [_split_pair(name, tok, points) for tok in rest.split()], None])
        else:
            if not entries or entries[-1][0] != name:
                raise ParseError(f"cod line for {name!r} must follow its map line")
            if entries[-1][2] is not None:
                raise ParseError(f"duplicate cod line for {name!r}")
            entries[-1][2] = tuple(rest.split())

    names = tuple(name for name, _, _ in entries)
    for line in iso[1:]:
        element, arrow, member = _split_arrow(line)
        if not arrow or not _valid_token(element) or not _valid_token(member):
            raise ParseError(f"expected '<element> -> <map>' in the iso block, got {line!r}")
        if member not in names:
            raise ParseError(f"iso line {line!r}: unknown map {member!r}")
    members = []
    for name, pairs, cod in entries:
        try:
            pre = Prefunction(points, pairs)
            members.append(pre if cod is None else PartialFn(pre, cod))
        except ValueError as exc:
            raise ParseError(f"map {name!r}: {exc}") from None
    try:
        return MapMagma(points, tuple(members), mode, names)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def serialize_map_magma(a: MapMagma) -> str:
    """Canonical rendering; inverse of :func:`parse_map_magma`."""
    out = ["set: " + " ".join(str(p) for p in a.ground), "mode: " + a.mode.value]
    for name, m in zip(a.member_names(), a.members):
        out.append("map %s: %s" % (name, " ".join(f"{p}->{q}" for p, q in m.assignment)))
        if isinstance(m, PartialFn):
            out.append("cod %s: %s" % (name, " ".join(str(p) for p in m.codomain)))
    return "\n".join(out) + "\n"
