"""Finite partial magmas presented by Cayley tables.

A partial magma is a non-empty finite carrier with a partial binary
operation that is defined on at least one pair.  Undefined products are
``None`` cells.  Everything is index-based: element ``i`` is
``elements[i]`` and ``table[i][j]`` holds the index of the product of
element ``i`` (row, left operand) with element ``j`` (column, right
operand), or ``None``.

All values are immutable after construction, so they can be shared
freely between concurrent tasks; every function here is pure.

:class:`PartialMagma` checks every rule on names and cells on every
construction: the carrier, every row and every cell.  :func:`parse_magma`
checks the layout and reports those as ``ParseError``.  Every table from
outside the package goes through that constructor.  The one exception is
:func:`_built`, which checks nothing, for the tables the enumeration
makes valid by construction; its docstring states what a caller owes it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

from .errors import ParseError, PreconditionError

# Whitespace separates tokens and lines (any character ``str.split`` or
# ``str.splitlines`` breaks at), ':' ends row labels, '#' starts comments.
_TOKEN_BREAK = re.compile(r"[\s:#]")


def _valid_token(tok: str) -> bool:
    return bool(tok) and tok != "-" and _TOKEN_BREAK.search(tok) is None


def _is_index(v, n: int) -> bool:
    """Whether ``v`` indexes an n-element carrier: an int, not a bool, in range."""
    return (type(v) is int or isinstance(v, int) and not isinstance(v, bool)) and 0 <= v < n


def _content_lines(text: str, first: bool = False):
    """The non-blank lines of a structure file, comments and edges stripped;
    with ``first``, only the first of them ("" if none), the rest left unstripped."""
    lines = (raw.split("#", 1)[0].strip() for raw in text.splitlines())
    return next(filter(None, lines), "") if first else [line for line in lines if line]


def _heading(line: str, word: str) -> str | None:
    """What follows ``<word>:`` on ``line``, or None when the line has another head."""
    head, sep, rest = line.partition(":")
    return rest if sep and head.strip() == word else None


def _split_arrow(text: str) -> tuple[str, str, str]:
    """``<a> -> <b>`` cut like ``str.partition``, parts stripped: at a spaced
    ``->`` between two words (names may hold ``->``), else at the first."""
    words = text.split()
    parts = words if len(words) == 3 and words[1] == "->" else text.partition("->")
    return tuple(part.strip() for part in parts)


class _fact:
    """A method run on first read; its value then shadows it on the instance.
    Read on the class, it is the descriptor itself."""

    def __init__(self, method):
        self.method = method
        self.name = method.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.method(obj)
        return value


@dataclass(frozen=True)
class Witness:
    """A finite counterexample to a structural check.

    ``kind`` names the failure, ``elements`` are the indices whose replay
    against the structure reproduces it.  Witnesses are falsy so that
    checkers can return ``True`` or a witness and callers can branch on
    truthiness.
    """

    kind: str
    elements: tuple[int, ...]

    def __post_init__(self):
        if type(self.elements) is not tuple:
            object.__setattr__(self, "elements", tuple(self.elements))

    def __bool__(self) -> bool:
        return False

    def format(self, names: Sequence[str]) -> str:
        return "%s %s" % (self.kind, ",".join(str(names[i]) for i in self.elements))


def _require(data, message: str):
    """``data``, or ``PreconditionError(message, data)`` if it is a witness."""
    if isinstance(data, Witness):
        raise PreconditionError(message, data)
    return data


@dataclass(frozen=True)
class PartialMagma:
    """A carrier plus a partial Cayley table."""

    elements: tuple[str, ...]
    table: tuple[tuple[int | None, ...], ...]

    def __post_init__(self):
        elements = tuple(self.elements)
        table = tuple(map(tuple, self.table))
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "table", table)
        if not elements:
            raise ValueError("carrier must be non-empty")
        if len(set(elements)) != len(elements):
            raise ValueError("duplicate element names")
        for name in elements:
            if not isinstance(name, str) or not _valid_token(name):
                raise ValueError(f"invalid element name {name!r}")
        n = len(elements)
        if len(table) != n:
            raise ValueError(f"expected {n} table rows, got {len(table)}")
        defined = 0
        for row in table:
            if len(row) != n:
                raise ValueError(f"expected {n} entries per row, got {len(row)}")
            for cell in row:
                if type(cell) is int and 0 <= cell < n or cell is not None and _is_index(cell, n):
                    defined += 1
                elif cell is not None:
                    raise ValueError(f"table entry {cell!r} is not an element index")
        if defined == 0:
            raise ValueError("the operation must be defined on at least one pair")

    @property
    def size(self) -> int:
        return len(self.elements)

    def index(self, name: str) -> int:
        try:
            return self.elements.index(name)
        except ValueError:
            raise KeyError(f"unknown element {name!r}") from None


def _built(elements: tuple[str, ...], table: tuple[tuple[int | None, ...], ...]) -> PartialMagma:
    """The magma on ``elements`` and ``table``, built without a check.

    Precondition, which nothing here verifies: ``elements`` is a tuple
    the constructor accepts, and ``table`` is a tuple of ``len(elements)``
    row tuples of that length, each cell an ``int`` index into
    ``elements`` or ``None``, at least one of them defined.  The result
    is then equal, hash-equal and ``repr``-equal to
    ``PartialMagma(elements, table)``.
    """
    m = object.__new__(PartialMagma)
    fields = m.__dict__  # a frozen dataclass's fields live here
    fields["elements"] = elements
    fields["table"] = table
    return m


def product(m: PartialMagma, x: int, y: int) -> int | None:
    """The table cell for (x, y); ``None`` means the product is undefined."""
    return m.table[x][y]


def precedes(m: PartialMagma, x: int, y: int) -> bool:
    """Whether x can stand before y in some defined expression.

    True iff xy is defined, or x(yz) is defined for some z, or (zx)y is
    defined for some z.  The quantification over z is existential.
    """
    t = m.table
    if t[x][y] is not None:
        return True
    for z in range(m.size):
        yz = t[y][z]
        if yz is not None and t[x][yz] is not None:
            return True
        zx = t[z][x]
        if zx is not None and t[zx][y] is not None:
            return True
    return False


def left_units(m: PartialMagma) -> tuple[int, ...]:
    """Elements e with ex = x whenever ex is defined."""
    return tuple(
        e for e, row in enumerate(m.table)
        if all(ex is None or ex == x for x, ex in enumerate(row))
    )


def right_units(m: PartialMagma) -> tuple[int, ...]:
    """Elements e with xe = x whenever xe is defined."""
    return tuple(
        e for e, column in enumerate(zip(*m.table))
        if all(xe is None or xe == x for x, xe in enumerate(column))
    )


def _fresh_zero_name(elements: Sequence[str]) -> str:
    name = "0"
    while name in elements:
        name += "0"
    return name


def adjoin_zero(m: PartialMagma) -> PartialMagma:
    """Total magma on the carrier plus an absorbing zero.

    Defined cells are copied, undefined cells map to the new zero, and
    the zero annihilates everything.  Product xy of the original is
    recovered as "defined iff nonzero".
    """
    n = m.size
    zero = n
    rows = [
        tuple(cell if cell is not None else zero for cell in row) + (zero,)
        for row in m.table
    ]
    rows.append((zero,) * (n + 1))
    return PartialMagma(m.elements + (_fresh_zero_name(m.elements),), tuple(rows))


def parse_magma(text: str) -> PartialMagma:
    """Parse the line-oriented magma file format.

    Format: a line ``elements: <tok> ...`` followed by one row per
    element, in carrier order: ``<tok>: <entry> ...`` where an entry is
    an element token or ``-`` for undefined.  ``#`` starts a comment.
    """
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty magma file")
    if (rest := _heading(lines[0], "elements")) is None:
        raise ParseError("magma file must start with an 'elements:' line")
    names = rest.split()
    n = len(names)
    index = {name: i for i, name in enumerate(names)}
    body = lines[1:]
    if len(body) != n:
        raise ParseError(f"expected {n} table rows, got {len(body)}")
    table = []
    for i, line in enumerate(body):
        label, sep, entries_text = line.partition(":")
        if not sep:
            raise ParseError(f"table row without ':': {line!r}")
        label = label.strip()
        if label != names[i]:
            raise ParseError(f"expected row for {names[i]!r}, got {label!r}")
        entries = entries_text.split()
        if len(entries) != n:
            raise ParseError(f"row {label!r}: expected {n} entries, got {len(entries)}")
        row = []
        for tok in entries:
            if tok == "-":
                row.append(None)
            elif tok in index:
                row.append(index[tok])
            else:
                raise ParseError(f"row {label!r}: unknown element token {tok!r}")
        table.append(tuple(row))
    try:
        return PartialMagma(tuple(names), tuple(table))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def serialize_magma(m: PartialMagma) -> str:
    """Canonical rendering; inverse of :func:`parse_magma`."""
    out = ["elements: " + " ".join(m.elements)]
    for name, row in zip(m.elements, m.table):
        cells = " ".join("-" if c is None else m.elements[c] for c in row)
        out.append(f"{name}: {cells}")
    return "\n".join(out) + "\n"
