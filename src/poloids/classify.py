"""Axiom checkers for the partial-magma hierarchy and the combined report.

Every fact about a magma (its units and effective units, the two triple
laws, the unit maps eps and vareps, inverses, phi, normality, the
natural preorder) is worked out in one place, a private analysis of that
magma that computes each fact at most once and only when it is first
read; facts answer and never refuse.  The public checkers are views that
read one fact from a fresh analysis, :func:`classify` reads every fact
from a single one, and views refuse: off its domain, a view defined on
(right) poloids raises ``PreconditionError`` with the fact's witness.

Checkers return ``True`` or a falsy :class:`~poloids.tables.Witness`; the
witness names the elements whose replay against the table reproduces the
failure, always the first failure in lexicographic index order.  The
hierarchy covered:

    group => monoid => poloid;  groupoid => poloid;
    poloid => semigroupoid => right-directed semigroupoid;
    poloid => right poloid (with the local right unit being the
    effective right unit).

A right poloid is the same thing as a small (left) constellation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .tables import PartialMagma, Witness, _fact, _require, left_units, right_units

VERDICT_NAMES = (
    "semigroupoid",
    "poloid",
    "groupoid",
    "total",
    "monoid",
    "group",
    "right_directed_semigroupoid",
    "right_poloid",
    "normal",
    "unit_posetal",
)


class _Analysis:
    """The facts about one partial magma, each computed at most once and
    only when it is first read.

    A verdict fact (named as in ``VERDICT_NAMES``) is ``True`` or the
    first witness against it; a data fact (``unit_maps``, ``inverses``,
    ``phi``, ``preorder``) is the data or the witness that rules it out.
    Witnesses are falsy and data is not, so ``data and True`` is the
    verdict and verdicts chain with ``and``.  No fact refuses: off a
    right poloid, ``normal``, ``preorder`` and ``unit_posetal`` are the
    ``phi`` witness.  ``semigroupoid`` reads the one-sided law and scans
    only for the one failure that law lacks.
    """

    def __init__(self, m: PartialMagma):
        self.m = m

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
        n = self.m.size
        for x in range(n):
            tx = t[x]
            for y in range(n):
                xy = tx[y]
                if xy is None:
                    continue
                ty = t[y]
                txy = t[xy]
                for z in range(n):
                    yz = ty[z]
                    xy_z = txy[z]
                    if yz is None:
                        if xy_z is None:
                            continue
                    elif xy_z is not None and xy_z == tx[yz]:
                        continue
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

    @property
    def poloid(self):
        return self.unit_maps and True

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

    @property
    def groupoid(self):
        return self.inverses and True

    @_fact
    def total(self):
        for x, row in enumerate(self.m.table):
            for y, cell in enumerate(row):
                if cell is None:
                    return Witness("undefined-cell", (x, y))
        return True

    def _one_unit(self):
        u = self.units
        return True if len(u) == 1 else Witness("extra-unit", u[:2])

    @property
    def monoid(self):
        return self.poloid and self._one_unit() and self.total

    @property
    def group(self):
        return self.groupoid and self._one_unit()

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

    @property
    def right_poloid(self):
        return self.phi and True

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
    def preorder(self):
        if not (phi := self.phi):
            return phi
        t = self.m.table
        n = self.m.size
        leq = tuple(tuple(t[y][phi[x]] == x for y in range(n)) for x in range(n))
        for x in range(n):
            if not leq[x][x]:
                raise RuntimeError("natural preorder not reflexive")
            for y in range(n):
                for z in range(n):
                    if leq[x][y] and leq[y][z] and not leq[x][z]:
                        raise RuntimeError("natural preorder not transitive")
        return leq

    @_fact
    def unit_posetal(self):
        if not (leq := self.preorder):
            return leq
        lefts = self.lefts
        for a in lefts:
            for b in lefts:
                if a < b and leq[a][b] and leq[b][a]:
                    return Witness("antisymmetry", (a, b))
        return True


def is_total(m: PartialMagma) -> bool:
    return bool(_Analysis(m).total)


def is_semigroupoid(m: PartialMagma):
    """Triple law: once a triple is composable at all, both bracketings
    are defined and agree.

    The trigger for (x, y, z) is: xy and yz defined, or (xy)z defined,
    or x(yz) defined, the one trigger the one-sided law lacks.
    """
    return _Analysis(m).semigroupoid


def is_right_directed_semigroupoid(m: PartialMagma):
    """One-sided triple law: triggered by (xy)z defined or by xy and yz
    defined, never by x(yz) alone."""
    return _Analysis(m).right_directed_semigroupoid


def is_poloid(m: PartialMagma):
    """Semigroupoid in which every element has effective units on both sides."""
    return _Analysis(m).poloid


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
    return _Analysis(m).groupoid


def is_monoid(m: PartialMagma) -> bool:
    """Poloid with a single unit; totality is verified, not assumed."""
    return bool(_Analysis(m).monoid)


def is_group(m: PartialMagma) -> bool:
    return bool(_Analysis(m).group)


def is_right_poloid(m: PartialMagma):
    """Right-directed semigroupoid with a unique local right unit
    phi_x among the left units, for every x."""
    return _Analysis(m).right_poloid


def phi_map(m: PartialMagma) -> tuple[int, ...]:
    """The map x -> phi_x of a verified right poloid."""
    return _require(_Analysis(m).phi, "not a right poloid")


def is_normal(m: PartialMagma):
    """Whether phi_x.phi_y and phi_y.phi_x both defined forces phi_x = phi_y."""
    a = _Analysis(m)
    return _require(a.phi, "not a right poloid") and a.normal


def natural_preorder(m: PartialMagma) -> tuple[tuple[bool, ...], ...]:
    """The relation x <= y iff y.phi_x is defined and equals x.

    Reflexive and transitive on every right poloid; both are verified.
    """
    return _require(_Analysis(m).preorder, "not a right poloid")


def is_unit_posetal(m: PartialMagma):
    """Antisymmetry of the natural preorder restricted to left units."""
    a = _Analysis(m)
    return _require(a.phi, "not a right poloid") and a.unit_posetal


def is_meet_semilattice_on_left_units(m: PartialMagma) -> bool:
    """Whether every pair of left units has a greatest lower bound."""
    a = _Analysis(m)
    _require(a.phi, "not a right poloid")
    _require(a.unit_posetal, "left-unit order is not a partial order")
    leq, lefts = a.preorder, a.lefts
    for x in lefts:
        for y in lefts:
            lower = [c for c in lefts if leq[c][x] and leq[c][y]]
            if not any(all(leq[c][d] for c in lower) for d in lower):
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
                out.append(f"{key}: " + " ".join(value))
        return "\n".join(out) + "\n"


def classify(m: PartialMagma) -> ClassReport:
    """Read every verdict off one analysis of the magma, then fill the
    report's units and maps from that same analysis."""
    a = _Analysis(m)
    verdicts: dict[str, bool] = {}
    witnesses: list[tuple[str, Witness]] = []
    for name in VERDICT_NAMES:
        result = getattr(a, name)
        verdicts[name] = result is True
        if result is not True:
            witnesses.append((name, result))
    eps, vareps = a.unit_maps if verdicts["poloid"] else (None, None)
    return ClassReport(
        m, verdicts, tuple(witnesses), a.units, a.lefts, a.rights, eps, vareps,
        a.phi if verdicts["right_poloid"] else None,
        a.inverses if verdicts["groupoid"] else None,
    )
