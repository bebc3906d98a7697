"""Axiom checkers for the partial-magma hierarchy and the combined report.

Every fact that :func:`classify` reports (the units and effective units,
the two triple laws, the unit maps eps and vareps, inverses, phi,
normality) is worked out in one place, a private analysis of that magma
that computes each fact at most once and only when it is first read;
facts answer and never refuse.  The public checkers are views that read
one verdict or fact from a fresh analysis, :func:`classify` reads every
verdict from a single one, and views refuse: off its domain, a view
defined on (right) poloids raises ``PreconditionError`` with the fact's
witness.  The natural preorder is no fact: only
:func:`natural_preorder` builds it, and the left-unit order is read off
the table (last theorem below).

Checkers return ``True`` or a falsy :class:`~poloids.tables.Witness`; the
witness names the elements whose replay against the table reproduces the
failure, always the first failure in lexicographic index order.  The
one-sided triple law has one statement, ``_one_sided_break``: its fact
scans it cell by cell and ``enumeration.count_by_class`` replays it.

``CLASS_LAWS`` declares each verdict class once, as the tuple of
analysis facts it is the conjunction of, in the order its verdict reads
them: the witness of the first that fails, or ``True``.  Class A implies
class B iff A's laws include B's; constraint-programming enumerations of
semigroups declare their classes as constraint sets the same way
(Distler et al., "The semigroups of order 10", CP 2012).  A tuple may
hold a fact that an earlier one implies, so that a reader such as the
walk of ``enumeration.filtered`` can test each law on its own.  The
tuples rest on four theorems:

- a poloid is a normal right poloid: vareps_x is a left unit with
  x.vareps_x = x, the left units are the units (l = l.vareps_l =
  vareps_l), and two units e != f never compose (ef = f and ef = e);
- a poloid is total iff it has exactly one unit: units e != f never
  compose, and xe, ey defined make xy defined; so a monoid is a total
  poloid and a group a total groupoid, each with one unit;
- a finite cancellative semigroup is a group, so in a total
  semigroupoid cancellation alone gives the unit and the inverses:
  translations are injective, hence onto, so ae = a for some e;
  cancelling gives ex = x and xe = x; and xy = e = zx are solvable,
  with z = z(xy) = (zx)y = y;
- normal <=> unit_posetal on right poloids: every left unit l has
  l.l = l, so phi's image is the left units, and for left units a != b,
  a.b is b or undefined, so b <= a in the natural preorder iff a.b is
  defined; antisymmetry on the left units fails exactly where normality
  does.

A right poloid is the same thing as a small (left) constellation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .tables import PartialMagma, Witness, _fact, _require, left_units, right_units

_RIGHT_POLOID_LAWS = ("phi", "right_directed_semigroupoid")
_POLOID_LAWS = ("unit_maps", "semigroupoid", *_RIGHT_POLOID_LAWS, "normal", "unit_posetal")

# each verdict class, in report order, as the facts it is the conjunction
# of, in the order its verdict reads them
CLASS_LAWS = {
    "semigroupoid": ("semigroupoid", "right_directed_semigroupoid"),
    "poloid": _POLOID_LAWS,
    "groupoid": ("inverses", *_POLOID_LAWS),
    "total": ("total",),
    "monoid": ("one_unit", "total", *_POLOID_LAWS),
    "group": ("inverses", "one_unit", "total", *_POLOID_LAWS),
    "right_directed_semigroupoid": ("right_directed_semigroupoid",),
    "right_poloid": _RIGHT_POLOID_LAWS,
    "normal": ("normal", "unit_posetal", *_RIGHT_POLOID_LAWS),
    "unit_posetal": ("unit_posetal", "normal", *_RIGHT_POLOID_LAWS),
}
VERDICT_NAMES = tuple(CLASS_LAWS)


class _Analysis:
    """The facts about one partial magma, each computed at most once and
    only when it is first read.

    It holds exactly the facts :func:`classify` reports, and
    :meth:`verdict` reads each class off them.  A fact is ``True``, or
    its data (``unit_maps``, ``inverses``, ``phi``), where it holds and
    the first witness against it where not; witnesses are falsy and data
    is not.  No fact refuses: off a right poloid, ``normal`` and
    ``unit_posetal`` are the ``phi`` witness.  ``semigroupoid`` reads the
    one-sided law and scans only for the one failure that law lacks.
    ``unit_posetal`` reads the table cells that decide it.
    """

    def __init__(self, m: PartialMagma):
        self.m = m

    def verdict(self, name: str):
        """The witness of the first fact of class ``name`` to fail, or ``True``."""
        for law in CLASS_LAWS[name]:
            if not (found := getattr(self, law)):
                return found
        return True

    @_fact
    def lefts(self) -> tuple[int, ...]:
        return left_units(self.m)

    @_fact
    def rights(self) -> tuple[int, ...]:
        return right_units(self.m)

    @_fact
    def units(self) -> tuple[int, ...]:
        rights = set(self.rights)
        return tuple(e for e in self.lefts if e in rights)

    def effective(self, x: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The units e with ex defined, and the units e with xe defined."""
        t = self.m.table
        return (tuple(e for e in self.units if t[e][x] is not None),
                tuple(e for e in self.units if t[x][e] is not None))

    @_fact
    def right_directed_semigroupoid(self):
        """One-sided triple law: with xy defined, (xy)z and x(yz) are both
        undefined, or both defined and equal."""
        t = self.m.table
        zs = range(self.m.size)
        for x in zs:
            for y in zs:
                z = _one_sided_break(t, x, y, zs)
                if z is not None:
                    return Witness("associativity", (x, y, z))
        return True

    @_fact
    def semigroupoid(self):
        """The one-sided law, or x(yz) defined with xy undefined at an
        earlier cell (x, y) than the one-sided witness's."""
        one_sided = self.right_directed_semigroupoid
        t, n = self.m.table, self.m.size
        end = n * n if one_sided is True else one_sided.elements[0] * n + one_sided.elements[1]
        for k in range(end):
            x, y = divmod(k, n)
            tx = t[x]
            if tx[y] is None:
                for z, yz in enumerate(t[y]):
                    if yz is not None and tx[yz] is not None:
                        return Witness("associativity", (x, y, z))
        return one_sided

    @_fact
    def unit_maps(self):
        sg = self.semigroupoid
        if not sg:
            return sg
        eps, vareps = [], []
        for x in range(self.m.size):
            lefts, rights = self.effective(x)
            if not lefts or not rights:
                return Witness("missing-unit", (x,))
            if len(lefts) > 1 or len(rights) > 1:  # impossible in a semigroupoid
                raise RuntimeError("effective units not unique in a semigroupoid")
            eps.append(lefts[0])
            vareps.append(rights[0])
        return tuple(eps), tuple(vareps)

    @_fact
    def inverses(self):
        data = self.unit_maps
        if not data:
            return data
        eps, vareps = data
        t = self.m.table
        e_set = set(self.units)
        inverses = []
        for x in range(self.m.size):
            candidates = [y for y in range(self.m.size) if t[x][y] in e_set and t[y][x] in e_set]
            if len(candidates) != 1:
                return Witness("non-unique-inverse", (x, *candidates[:2]))
            y = candidates[0]
            inverses.append(y)
            if not (t[x][y] == eps[x] == vareps[y] and t[y][x] == vareps[x] == eps[y]):
                raise RuntimeError("inverse does not meet the effective-unit identities")
        return tuple(inverses)

    @_fact
    def total(self):
        for x, row in enumerate(self.m.table):
            for y, cell in enumerate(row):
                if cell is None:
                    return Witness("undefined-cell", (x, y))
        return True

    @_fact
    def one_unit(self):
        if not (data := self.unit_maps):
            return data
        u = self.units
        return True if len(u) == 1 else Witness("extra-unit", u[:2])

    @_fact
    def phi(self):
        rd = self.right_directed_semigroupoid
        if not rd:
            return rd
        t = self.m.table
        lefts = self.lefts
        phi = []
        for x in range(self.m.size):
            candidates = [l for l in lefts if t[x][l] == x]
            if not candidates:
                return Witness("missing-unit", (x,))
            if len(candidates) > 1:
                return Witness("left-unit-clash", (x, candidates[0], candidates[1]))
            phi.append(candidates[0])
        for l in lefts:  # forced: every left unit is idempotent here
            if t[l][l] != l:
                raise RuntimeError("left unit not idempotent in a right poloid")
        return tuple(phi)

    @_fact
    def normal(self):
        if not (phi := self.phi):
            return phi
        t = self.m.table
        for x, px in enumerate(phi):
            for y, py in enumerate(phi):
                if px != py and t[px][py] is not None and t[py][px] is not None:
                    return Witness("left-unit-clash", (x, y))
        return True

    @_fact
    def unit_posetal(self):
        """Antisymmetry on the left units, read off the table: for left
        units a < b, a <= b and b <= a iff b.a and a.b are both defined."""
        if not (phi := self.phi):
            return phi
        t, lefts = self.m.table, self.lefts
        for a in lefts:
            for b in lefts:
                if a < b and t[a][b] is not None and t[b][a] is not None:
                    return Witness("antisymmetry", (a, b))
        return True


def _one_sided_break(t, x, y, zs):
    """The first z in zs for which the triple (x, y, z) breaks the
    one-sided triple law in table t, or ``None``."""
    tx = t[x]
    xy = tx[y]
    if xy is None:
        return None
    ty, txy = t[y], t[xy]
    for z in zs:
        yz, xy_z = ty[z], txy[z]
        if yz is None:
            if xy_z is None:
                continue
        elif xy_z is not None and xy_z == tx[yz]:
            continue
        return z
    return None


def is_total(m: PartialMagma) -> bool:
    """Whether every product is defined."""
    return bool(_Analysis(m).verdict("total"))


def is_semigroupoid(m: PartialMagma):
    """Triple law: once a triple is composable at all, both bracketings
    are defined and agree.

    The trigger for (x, y, z) is: xy and yz defined, or (xy)z defined,
    or x(yz) defined, the one trigger the one-sided law lacks.
    """
    return _Analysis(m).verdict("semigroupoid")


def is_right_directed_semigroupoid(m: PartialMagma):
    """One-sided triple law: triggered by (xy)z defined or by xy and yz
    defined, never by x(yz) alone."""
    return _Analysis(m).verdict("right_directed_semigroupoid")


def is_poloid(m: PartialMagma):
    """Semigroupoid in which every element has effective units on both sides."""
    return _Analysis(m).verdict("poloid")


def units(m: PartialMagma) -> tuple[int, ...]:
    """Two-sided units, under the literal (vacuously permitting) reading.

    An element with no defined products at all qualifies; downstream
    checks that need effective units filter such pathologies out.
    """
    return _Analysis(m).units


def effective_units(m: PartialMagma, x: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Units e with ex defined, and units e with xe defined.

    In a verified poloid both tuples are singletons.
    """
    return _Analysis(m).effective(x)


def effective_unit_maps(m: PartialMagma) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The maps x -> eps_x and x -> vareps_x of a verified poloid."""
    return _require(_Analysis(m).unit_maps, "not a poloid")


def is_groupoid(m: PartialMagma):
    """Poloid with a unique two-sided inverse for every element."""
    return _Analysis(m).verdict("groupoid")


def is_monoid(m: PartialMagma) -> bool:
    """Poloid with a single unit; totality is verified, not assumed."""
    return bool(_Analysis(m).verdict("monoid"))


def is_group(m: PartialMagma) -> bool:
    """Groupoid with a single unit, which makes it total."""
    return bool(_Analysis(m).verdict("group"))


def is_right_poloid(m: PartialMagma):
    """Right-directed semigroupoid with a unique local right unit
    phi_x among the left units, for every x."""
    return _Analysis(m).verdict("right_poloid")


def phi_map(m: PartialMagma) -> tuple[int, ...]:
    """The map x -> phi_x of a verified right poloid."""
    return _require(_Analysis(m).phi, "not a right poloid")


def is_normal(m: PartialMagma):
    """Whether phi_x.phi_y and phi_y.phi_x both defined forces phi_x = phi_y."""
    a = _Analysis(m)
    return _require(a.phi, "not a right poloid") and a.verdict("normal")


def natural_preorder(m: PartialMagma) -> tuple[tuple[bool, ...], ...]:
    """The relation x <= y iff y.phi_x is defined and equals x.

    Reflexive and transitive on every right poloid; both are verified.
    """
    phi = phi_map(m)
    t, n = m.table, m.size
    leq = tuple(tuple(t[y][phi[x]] == x for y in range(n)) for x in range(n))
    for x in range(n):
        if not leq[x][x]:
            raise RuntimeError("natural preorder not reflexive")
        for y in range(n):
            for z in range(n):
                if leq[x][y] and leq[y][z] and not leq[x][z]:
                    raise RuntimeError("natural preorder not transitive")
    return leq


def is_unit_posetal(m: PartialMagma):
    """Antisymmetry of the natural preorder restricted to left units."""
    a = _Analysis(m)
    return _require(a.phi, "not a right poloid") and a.verdict("unit_posetal")


def is_meet_semilattice_on_left_units(m: PartialMagma) -> bool:
    """Whether every pair of left units has a greatest lower bound in
    the natural preorder, read off the table: for left units c and d,
    c <= d iff d.c is defined (the last theorem of the module docstring)."""
    a = _Analysis(m)
    _require(a.phi, "not a right poloid")
    _require(a.verdict("unit_posetal"), "left-unit order is not a partial order")
    t, lefts = m.table, a.lefts
    for x in lefts:
        for y in lefts:
            lower = [c for c in lefts if t[x][c] is not None and t[y][c] is not None]
            if not any(all(t[d][c] is not None for c in lower) for d in lower):
                return False
    return True


def initial_units(m: PartialMagma) -> tuple[int, ...]:
    """Units u such that for every unit e exactly one x has u.x and x.e
    defined, which in a poloid means eps_x = u and vareps_x = e."""
    a = _Analysis(m)
    eps, vareps = _require(a.unit_maps, "not a poloid")
    homs = Counter(zip(eps, vareps))
    return tuple(u for u in a.units if all(homs[u, e] == 1 for e in a.units))


@dataclass(frozen=True)
class ClassReport:
    """Everything classify() found out about one partial magma.

    ``witnesses`` pairs each failed verdict with a counterexample.
    ``eps``/``vareps`` are present exactly when the magma is a poloid,
    ``phi`` when it is a right poloid, ``inverses`` when a groupoid;
    each is ``None`` otherwise.
    """

    magma: PartialMagma
    verdicts: dict[str, bool]
    witnesses: tuple[tuple[str, Witness], ...]
    units: tuple[int, ...]
    left_units: tuple[int, ...]
    right_units: tuple[int, ...]
    eps: tuple[int, ...] | None
    vareps: tuple[int, ...] | None
    phi: tuple[int, ...] | None
    inverses: tuple[int, ...] | None

    def witness_for(self, verdict: str) -> Witness | None:
        for name, w in self.witnesses:
            if name == verdict:
                return w
        return None

    def to_dict(self) -> dict:
        names = self.magma.elements

        def name_map(values):
            if values is None:
                return None
            return {names[i]: names[v] for i, v in enumerate(values)}

        return {
            "elements": list(names),
            "verdicts": dict(self.verdicts),
            "units": [names[i] for i in self.units],
            "left_units": [names[i] for i in self.left_units],
            "right_units": [names[i] for i in self.right_units],
            "eps": name_map(self.eps),
            "vareps": name_map(self.vareps),
            "phi": name_map(self.phi),
            "inverses": name_map(self.inverses),
            "witnesses": [
                {"verdict": v, "kind": w.kind, "elements": [names[i] for i in w.elements]}
                for v, w in self.witnesses
            ],
        }

    def to_text(self) -> str:
        """The fields of :meth:`to_dict`, in its order, one line each."""
        out = []
        for key, value in self.to_dict().items():
            if key == "verdicts":
                out += ["%s: %s" % (v, "yes" if ok else "no") for v, ok in value.items()]
            elif key == "witnesses":
                if value:
                    out.append("witnesses:")
                out += ["  %s: %s %s" % (w["verdict"], w["kind"], ",".join(w["elements"]))
                        for w in value]
            elif isinstance(value, dict):
                out.append(f"{key}: " + " ".join(f"{k}->{v}" for k, v in value.items()))
            elif value is not None:
                out.append(" ".join([f"{key}:", *value]))
        return "\n".join(out) + "\n"


def classify(m: PartialMagma) -> ClassReport:
    """Read every verdict off one analysis of the magma, then fill the
    report's units and maps from that same analysis."""
    a = _Analysis(m)
    verdicts: dict[str, bool] = {}
    witnesses: list[tuple[str, Witness]] = []
    for name in VERDICT_NAMES:
        result = a.verdict(name)
        verdicts[name] = result is True
        if result is not True:
            witnesses.append((name, result))
    eps, vareps = a.unit_maps if verdicts["poloid"] else (None, None)
    return ClassReport(
        m, verdicts, tuple(witnesses), a.units, a.lefts, a.rights, eps, vareps,
        a.phi if verdicts["right_poloid"] else None,
        a.inverses if verdicts["groupoid"] else None,
    )
