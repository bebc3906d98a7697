"""Partial self-maps on a finite ground set and magmas of them.

Two kinds of member are supported: prefunctions (a domain and an
assignment, no codomain) and partial functions, which are prefunctions
that also have a codomain containing their image.  A map is stored like
a row of a Cayley table: ``values[i]`` is the ground position of the
image of ``ground[i]``, or ``None`` off the domain, and a codomain is
kept as ascending ground positions.  One builder sets a map's fields,
checking the two rules positions can still break (a non-empty domain, a
codomain holding the image).  Points become positions only where they
come in, at the constructors and the parser; every map derived from
checked maps is built from positions.  A :class:`MapMagma` is a finite
set of members of one kind together with a composition regime that
decides when ``f.g`` is defined:

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
codomain, as ground positions) so that rendering a map magma as a
Cayley table is deterministic.  Each pair of members is composed once, on
positions, into :attr:`MapMagma.table`, which every check on composites
reads and which builds no map: the builder runs only for a composite
asked for by name.  The identity checks compare the domain positions of
identity members.
Each rule on maps is checked once, by its constructor (ground set,
assignment, codomain, one kind of distinct members with distinct names);
:func:`parse_map_magma` checks the layout and reports theirs as ``ParseError``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import product as iproduct
from typing import Mapping

from .errors import BoundExceeded, ParseError, PreconditionError
from .tables import PartialMagma, Witness, _content_lines, _fact, _heading, _require, _split_arrow
from .tables import _valid_token


class Mode(enum.Enum):
    """Composition regime of a map magma."""

    SUPSET = "supset"
    OVERLAP = "overlap"
    EXACT_IMAGE = "exact-image"
    CODOMAIN = "codomain"


def _read(ground, assignment) -> tuple:
    """The checked ground set, and the positions of ``assignment``'s points."""
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
    return ground, tuple(values)


def _map(ground, values: tuple, cod: tuple | None = None, into=None):
    """The one place a map's fields are set (``into`` a constructor's instance,
    or a new map; a function if ``cod``); checks dom non-empty and im <= cod."""
    if values.count(None) == len(values):
        raise ValueError("a prefunction must have a non-empty domain")
    if cod is not None and set(values).difference(cod, (None,)):
        raise ValueError("codomain must contain the image")
    m = into if into is not None else object.__new__(Prefunction if cod is None else PartialFn)
    vars(m).update(ground=ground, values=values)
    if cod is not None:
        vars(m)["_cod"] = cod
    return m


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
        _map(*_read(ground, assignment), into=self)

    @_fact
    def _dom(self) -> tuple:  # the ground positions of the domain
        return tuple(i for i, v in enumerate(self.values) if v is not None)

    @_fact
    def domain(self) -> tuple:
        return tuple(self.ground[i] for i in self._dom)

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

    _cod: tuple  # the ground positions of the codomain, ascending

    def __init__(self, pre: Prefunction, codomain):
        given = tuple(codomain)
        for p in given:
            if p not in pre.ground:
                raise ValueError(f"codomain point {p!r} not in the ground set")
        cod = sorted({pre.ground.index(p) for p in given})
        if len(cod) != len(given):
            raise ValueError("duplicate codomain point")
        _map(pre.ground, pre.values, tuple(cod), into=self)

    @_fact
    def codomain(self) -> tuple:
        return tuple(self.ground[i] for i in self._cod)

    @property
    def pre(self) -> Prefunction:
        return _map(self.ground, self.values)

    def is_identity(self) -> bool:
        """An identity transformation: dom = cod and every point fixed."""
        return super().is_identity() and self._cod == self._dom


def identity_pretransformation(ground, dom) -> Prefunction:
    return Prefunction(ground, {p: p for p in dom})


def identity_transformation(ground, dom) -> PartialFn:
    return PartialFn(identity_pretransformation(ground, dom), tuple(dom))


def _composite(f, g, mode: Mode) -> tuple | None:
    """The values of f.g under ``mode``, or None; f and g as :func:`compose_maps` checks."""
    fv = f.values
    h = tuple([None if v is None else fv[v] for v in g.values])
    if mode is Mode.SUPSET:  # h is None where g is, and elsewhere iff g leaves dom(f)
        defined = h.count(None) == g.values.count(None)
    elif mode is Mode.OVERLAP:  # h is already the restriction to the preimage
        defined = h.count(None) < len(h)
    elif mode is Mode.EXACT_IMAGE:
        defined = set(f._dom) == set(g.values) - {None}
    elif mode is Mode.CODOMAIN:
        defined = f._dom == g._cod
    else:  # pragma: no cover
        raise ValueError(mode)
    return h if defined else None


def compose_maps(f, g, mode: Mode = Mode.SUPSET):
    """The composite f.g under ``mode``, or None when it is undefined.

    Both maps must live on the same ground set and be of the same kind.
    The builder's two checks cannot fail on a defined composite: in every
    regime but OVERLAP its domain is dom(g), and OVERLAP defines it only
    when it is non-empty; its image lies in im(f), which lies in cod(f).
    """
    if f.ground != g.ground:
        raise ValueError("maps live on different ground sets")
    f_fn = isinstance(f, PartialFn)
    if f_fn != isinstance(g, PartialFn):
        raise ValueError("cannot compose a prefunction with a function")
    if mode is Mode.CODOMAIN and not f_fn:
        raise ValueError("codomain composition needs functions")
    h = _composite(f, g, mode)
    return None if h is None else _map(f.ground, h, f._cod if f_fn else None)


def _member_key(m):
    dom_mask = sum(1 << i for i in m._dom)
    cod_mask = sum(1 << i for i in m._cod) if isinstance(m, PartialFn) else -1
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
        ``None`` where it is undefined, or ``OUTSIDE`` where it is not a member;
        each composite is looked up by its values and codomain, as no map is built."""
        index = {(m.values, getattr(m, "_cod", None)): i for i, m in enumerate(self.members)}
        rows = []
        for f in self.members:
            cod = getattr(f, "_cod", None)  # the codomain of every composite f.g
            row = [_composite(f, g, self.mode) for g in self.members]
            rows.append(tuple(h if h is None else index.get((h, cod), OUTSIDE) for h in row))
        return tuple(rows)

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
    n = len(points)
    if n > FULL_MAGMA_BOUND:
        raise BoundExceeded(f"ground set of {n} exceeds bound {FULL_MAGMA_BOUND}")
    if points:  # with no points there is no member, which MapMagma reports
        _read(points, ())
    members = tuple(_map(points, tuple(None if c == n else c for c in choice))
                    for choice in iproduct(range(n + 1), repeat=n) if choice.count(n) < n)
    return MapMagma(points, members, Mode.SUPSET)


def full_transformation_magma(points) -> MapMagma:
    """All non-empty partial functions on ``points``, under SUPSET composition."""
    base = full_pretransformation_magma(points)
    n = len(base.ground)
    codomains = [tuple(i for i in range(n) if mask >> i & 1) for mask in range(1, 2 ** n)]
    members = tuple(_map(base.ground, pre.values, cod) for pre in base.members for cod in codomains
                    if set(pre.values).issubset(cod + (None,)))
    return MapMagma(base.ground, members, Mode.SUPSET)


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
            if cell is not None and a.members[i]._dom != a.members[j]._cod:
                return Witness("dom-cod-mismatch", (i, j))
    return True


def is_transformation_poloid(a: MapMagma):
    """Whether a closed transformation semigroupoid holds all member identities."""
    _require(is_transformation_semigroupoid(a), "not a transformation semigroupoid")
    return _holds_identities(a, lambda f: (f._dom, f._cod))


def is_domain_pretransformation_magma(a: MapMagma):
    """Whether a closed pretransformation magma holds Id_dom(f) for each member f."""
    if a.mode is not Mode.SUPSET or isinstance(a.members[0], PartialFn):
        raise PreconditionError("expected a pretransformation magma (prefunctions, supset mode)")
    return _holds_identities(a, lambda f: (f._dom,))


def _holds_identities(a: MapMagma, domains):
    """Whether a closed map magma holds, for each member f, an identity member
    (for functions, with codomain its domain) on each of ``domains(f)``."""
    _require(is_closed(a), "not closed under composition")
    held = {g._dom for g in a.members if g.is_identity()}
    for i, f in enumerate(a.members):
        if not held.issuperset(domains(f)):
            return Witness("missing-unit", (i,))
    return True


def as_partial_magma(a: MapMagma) -> PartialMagma:
    """Cayley table of a closed map magma, over its canonical member order."""
    closed = is_closed(a)
    if not closed:
        raise PreconditionError("map magma is not closed under composition (%s)"
                                % closed.format(a.member_names()), closed)
    try:  # the constructor refuses a composition that is defined nowhere
        return PartialMagma(a.member_names(), a.table)
    except ValueError as exc:
        raise PreconditionError(str(exc)) from None


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
    try:  # here, so that no map takes the blame for the set line
        _read(points, ())
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    if (rest := _heading(lines[1], "mode")) is None:
        raise ParseError("second line must be a 'mode:' line")
    try:
        mode = Mode(rest.strip())
    except ValueError:
        raise ParseError(f"unknown mode {rest.strip()!r}") from None
    body = lines[2:]
    start = next((i for i, line in enumerate(body) if _heading(line, "iso") == ""), len(body))

    entries: list[list] = []  # [name, pairs, cod or None]
    for line in body[:start]:
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
    for line in body[start + 1:]:
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
