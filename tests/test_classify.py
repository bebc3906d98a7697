from __future__ import annotations

import dataclasses
import random
from itertools import combinations, permutations

import pytest
from hypothesis import assume, given, settings, strategies as st

from poloids import (
    MapMagma,
    PartialMagma,
    PreconditionError,
    Witness,
    as_partial_magma,
    classify,
    effective_unit_maps,
    full_pretransformation_magma,
    initial_units,
    is_closed,
    is_group,
    is_groupoid,
    is_meet_semilattice_on_left_units,
    is_monoid,
    is_normal,
    is_poloid,
    is_right_directed_semigroupoid,
    is_right_poloid,
    is_semigroupoid,
    is_total,
    is_unit_posetal,
    natural_preorder,
    phi_map,
    units,
)
from poloids.enumeration import all_magmas, filtered

from conftest import (
    band_monoid,
    magma,
    relabel,
    right_zero,
    three_unit_discrete,
    trivial_group,
    two_unit_groupoid,
    view_disagreements,
    z2,
)


def replays_associativity(t, x, y, z, one_sided=False):
    """Whether the triple (x, y, z) is triggered and broken in table t.

    The two-sided trigger is xy and yz defined, or (xy)z defined, or
    x(yz) defined; the one-sided trigger leaves out x(yz) alone.
    """
    xy, yz = t[x][y], t[y][z]
    xy_z = None if xy is None else t[xy][z]
    x_yz = None if yz is None else t[x][yz]
    trigger = xy is not None and (yz is not None or xy_z is not None)
    if not one_sided:
        trigger = trigger or x_yz is not None
    broken = xy is None or yz is None or xy_z is None or x_yz is None or xy_z != x_yz
    return trigger and broken


class TestSemigroupoid:
    def test_right_zero_band_is_one(self):
        # total and associative: the scan over all eight triples passes
        assert is_semigroupoid(right_zero(2)) is True

    def test_two_unit_groupoid(self):
        assert is_semigroupoid(two_unit_groupoid()) is True

    def test_scan_is_the_oracle_for_a_cross_table(self):
        # ab = a, ba = b, aa and bb undefined: ab and bb... the triple
        # (a, b, a) has (ab)a = aa undefined while ab, ba are defined
        m = magma("ab", [[None, "a"], ["b", None]])
        w = is_semigroupoid(m)
        assert isinstance(w, Witness) and w.kind == "associativity"
        assert replays_associativity(m.table, *w.elements)

    def test_witness_is_first_in_scan_order(self):
        m = magma("ab", [[None, "a"], ["b", None]])
        assert is_semigroupoid(m).elements == (0, 1, 0)


class TestPoloid:
    def test_two_unit_groupoid(self):
        assert is_poloid(two_unit_groupoid()) is True
        eps, vareps = effective_unit_maps(two_unit_groupoid())
        assert eps == (0, 1) and vareps == (0, 1)

    def test_right_zero_band_is_not(self):
        assert units(right_zero(2)) == ()
        w = is_poloid(right_zero(2))
        assert isinstance(w, Witness) and w.kind == "missing-unit"

    def test_z2(self):
        assert is_poloid(z2()) is True
        eps, vareps = effective_unit_maps(z2())
        assert eps == (0, 0) and vareps == (0, 0)

    def test_unit_maps_require_a_poloid(self):
        with pytest.raises(PreconditionError):
            effective_unit_maps(right_zero(2))


class TestGroupoid:
    def test_two_unit_groupoid_self_inverse(self):
        assert is_groupoid(two_unit_groupoid()) is True

    def test_band_monoid_is_not(self):
        # candidate scan over both elements: aa = a and ae = a are not
        # units, so a has no inverse
        m = band_monoid()
        t = m.table
        e_set = set(units(m))
        candidates = [y for y in range(2) if t[1][y] in e_set and t[y][1] in e_set]
        assert candidates == []
        w = is_groupoid(m)
        assert isinstance(w, Witness) and w.kind == "non-unique-inverse"
        assert w.elements == (1,)

    def test_z2(self):
        assert is_groupoid(z2()) is True


class TestMonoidGroupTotal:
    def test_z2_all_three(self):
        assert is_total(z2()) and is_monoid(z2()) and is_group(z2())

    def test_two_unit_groupoid_none(self):
        m = two_unit_groupoid()
        assert not is_total(m) and not is_monoid(m) and not is_group(m)

    def test_band_monoid(self):
        assert is_monoid(band_monoid()) and not is_group(band_monoid())

    def test_single_unit_poloids_are_total(self):
        # exhaustive over sizes 1..3: a poloid with one unit has a
        # total table
        for n in (1, 2, 3):
            for m in filtered(n, "poloid"):
                if len(units(m)) == 1:
                    assert is_total(m), m


class TestRightDirected:
    def test_right_zero_band(self):
        assert is_right_directed_semigroupoid(right_zero(2)) is True

    def test_any_semigroupoid_qualifies(self):
        for n in (1, 2):
            for m in all_magmas(n):
                if is_semigroupoid(m):
                    assert is_right_directed_semigroupoid(m) is True

    def test_closed_pretransformation_submagmas_qualify(self):
        full = full_pretransformation_magma((1, 2))
        from poloids import compose_maps

        for size in range(1, full.size + 1):
            for subset in combinations(full.members, size):
                a = MapMagma(full.ground, subset)
                if not is_closed(a):
                    continue
                if all(
                    compose_maps(f, g) is None for f in a.members for g in a.members
                ):
                    continue  # nowhere-defined composition: not a magma
                m = as_partial_magma(a)
                assert is_right_directed_semigroupoid(m) is True

    def test_one_sided_trigger(self):
        # the Cayley table of {Id[1], Id[1,2]}: f(gf) is defined while
        # fg is not, so x(yz) alone must not trigger the one-sided law
        m = magma("fg", [["f", None], ["f", "g"]])
        t = m.table
        assert t[0][1] is None and t[1][0] is not None and t[0][t[1][0]] is not None
        assert not is_semigroupoid(m)
        assert is_right_directed_semigroupoid(m) is True


class TestRightPoloid:
    def test_right_zero_band(self):
        assert is_right_poloid(right_zero(2)) is True
        assert phi_map(right_zero(2)) == (0, 1)

    def test_every_poloid_is_one_with_phi_the_right_unit(self):
        for n in (1, 2):
            for m in all_magmas(n):
                if is_poloid(m):
                    assert is_right_poloid(m) is True
                    _, vareps = effective_unit_maps(m)
                    assert phi_map(m) == vareps

    def test_right_zero_three(self):
        m = right_zero(3)
        assert is_right_poloid(m) is True
        assert phi_map(m) == (0, 1, 2)

    def test_phi_requires_right_poloid(self):
        m = magma("ab", [[None, "a"], ["b", None]])
        with pytest.raises(PreconditionError):
            phi_map(m)


class TestNormalAndPosetal:
    def test_right_zero_band_is_not_normal(self):
        w = is_normal(right_zero(2))
        assert isinstance(w, Witness) and w.elements == (0, 1)

    def test_poloids_are_normal(self):
        for n in (1, 2):
            for m in all_magmas(n):
                if is_poloid(m):
                    assert is_normal(m) is True

    def test_two_overlapping_identities_magma(self):
        m = magma(
            ["p", "q"],
            [["p", None], [None, "q"]],
        )
        assert is_normal(m) is True and is_unit_posetal(m) is True

    def test_right_zero_band_not_posetal(self):
        w = is_unit_posetal(right_zero(2))
        assert isinstance(w, Witness) and w.kind == "antisymmetry"

    def test_requires_right_poloid(self):
        m = magma("ab", [[None, "a"], ["b", None]])
        with pytest.raises(PreconditionError):
            is_normal(m)


class TestNaturalPreorder:
    def test_diagonal_for_overlapping_identities(self):
        m = magma(["p", "q"], [["p", None], [None, "q"]])
        leq = natural_preorder(m)
        assert leq == ((True, False), (False, True))

    def test_right_zero_band_is_a_proper_preorder(self):
        # y.phi_x = yx = x, so x <= y and y <= x with x != y
        leq = natural_preorder(right_zero(2))
        assert leq[0][1] and leq[1][0]

    def test_units_below_themselves(self):
        for m in (two_unit_groupoid(), z2(), trivial_group()):
            leq = natural_preorder(m)
            for e in units(m):
                assert leq[e][e]


class TestMeetSemilattice:
    def test_overlapping_identities_have_no_meet(self):
        m = magma(["p", "q"], [["p", None], [None, "q"]])
        assert is_meet_semilattice_on_left_units(m) is False

    def test_single_unit_poloid(self):
        assert is_meet_semilattice_on_left_units(z2()) is True

    def test_full_pretransformation_magma_on_two_points(self):
        # oracle is the pair scan itself: Id[1] and Id[2] have no
        # common lower bound in the left-unit order
        m = as_partial_magma(full_pretransformation_magma((1, 2)))
        leq = natural_preorder(m)
        lefts = classify(m).left_units
        result = is_meet_semilattice_on_left_units(m)
        expected = all(
            any(
                all(leq[c][d] for c in lefts if leq[c][a] and leq[c][b])
                for d in lefts
                if leq[d][a] and leq[d][b]
            )
            for a in lefts
            for b in lefts
        )
        assert result == expected

    def test_requires_posetal(self):
        with pytest.raises(PreconditionError) as exc:
            is_meet_semilattice_on_left_units(right_zero(2))
        assert type(exc.value) is PreconditionError
        assert str(exc.value) == "left-unit order is not a partial order"
        assert exc.value.witness == Witness("antisymmetry", (0, 1))


class TestInitialUnits:
    def test_trivial_group(self):
        assert initial_units(trivial_group()) == (0,)

    def test_two_unit_groupoid_has_none(self):
        assert initial_units(two_unit_groupoid()) == ()

    def test_z2_uniqueness_fails(self):
        # both elements x satisfy ex and xe defined, so x is not unique
        assert initial_units(z2()) == ()

    def test_requires_poloid(self):
        with pytest.raises(PreconditionError):
            initial_units(right_zero(2))

    def test_hom_set_sizes_match_the_product_count(self):
        # the definition, counted over products, is the oracle for the
        # counts read off the unit maps
        poloids = [m for n in (1, 2, 3) for m in filtered(n, "poloid")]
        poloids += [m for n in (4, 5) for m in filtered(n, "poloid", up_to_iso=True)]
        initial = 0
        for m in poloids:
            t, us = m.table, units(m)
            expected = tuple(u for u in us if all(
                sum(1 for x in range(m.size) if t[u][x] is not None and t[x][e] is not None) == 1
                for e in us
            ))
            assert initial_units(m) == expected, m.table
            initial += bool(expected)
        assert (len(poloids), initial) == (442, 19)


class TestPoloidLaws:
    def test_units_are_idempotent(self, poloid_corpus):
        for m in poloid_corpus:
            for e in units(m):
                assert m.table[e][e] == e

    def test_effective_units_are_unique(self, poloid_corpus):
        from poloids import effective_units

        for m in poloid_corpus:
            for x in range(m.size):
                lefts, rights = effective_units(m, x)
                assert len(lefts) == 1 and len(rights) == 1

    def test_unit_maps_are_onto_units_and_fix_them(self, poloid_corpus):
        for m in poloid_corpus:
            eps, vareps = effective_unit_maps(m)
            e_set = set(units(m))
            assert set(eps) == e_set and set(vareps) == e_set
            for e in e_set:
                assert eps[e] == e and vareps[e] == e

    def test_defined_iff_units_meet(self, poloid_corpus):
        for m in poloid_corpus:
            eps, vareps = effective_unit_maps(m)
            for x in range(m.size):
                for y in range(m.size):
                    assert (m.table[x][y] is not None) == (vareps[x] == eps[y])

    def test_units_propagate_through_products(self, poloid_corpus):
        for m in poloid_corpus:
            eps, vareps = effective_unit_maps(m)
            for x in range(m.size):
                for y in range(m.size):
                    xy = m.table[x][y]
                    if xy is not None:
                        assert eps[x] == eps[xy] and vareps[y] == vareps[xy]

    def test_left_units_with_local_right_units_are_idempotent(self):
        for n in (1, 2):
            for m in all_magmas(n):
                if is_right_poloid(m):
                    from poloids import left_units

                    t = m.table
                    for l in left_units(m):
                        if any(t[l][r] == l for r in range(m.size)):
                            assert t[l][l] == l


class TestHierarchy:
    def test_over_all_two_element_magmas(self):
        for m in all_magmas(2):
            r = classify(m).verdicts
            assert not r["group"] or r["monoid"]
            assert not r["monoid"] or r["poloid"]
            assert not r["group"] or r["groupoid"]
            assert not r["groupoid"] or r["poloid"]
            assert not r["poloid"] or r["semigroupoid"]
            assert not r["semigroupoid"] or r["right_directed_semigroupoid"]
            assert not r["poloid"] or r["right_poloid"]
            assert not r["normal"] or r["right_poloid"]
            assert not r["unit_posetal"] or r["right_poloid"]

    def test_normal_iff_posetal_at_two_elements(self):
        for m in all_magmas(2):
            if is_right_poloid(m):
                assert bool(is_normal(m)) == bool(is_unit_posetal(m))


class TestDuality:
    # the opposite magma, with the transposed table, is a poloid exactly
    # when the magma is one, and its unit maps are swapped: eps_x of the
    # magma is vareps_x of the opposite; the right-handed classes have no
    # such dual and are not checked
    SELF_DUAL = ("semigroupoid", "poloid", "groupoid", "total", "monoid", "group")

    @staticmethod
    def opposite(m):
        return PartialMagma(m.elements, tuple(zip(*m.table)))

    def assert_dual(self, m):
        r, op = classify(m), classify(self.opposite(m))
        for name in self.SELF_DUAL:
            assert op.verdicts[name] == r.verdicts[name], (m.table, name)
        assert (op.eps, op.vareps) == (r.vareps, r.eps), m.table

    def test_every_table_up_to_two_elements(self):
        for n in (1, 2):
            for m in all_magmas(n):
                self.assert_dual(m)

    def test_every_seventh_table_on_three_elements(self):
        for i, m in enumerate(all_magmas(3)):
            if i % 7 == 0:
                self.assert_dual(m)

    def test_labelled_poloids_on_four_elements(self):
        poloids = list(filtered(4, "poloid"))
        assert len(poloids) == 973
        for m in poloids:
            self.assert_dual(m)


class TestTripleLawWitnessOrder:
    # each law's witness is the first triple in lexicographic order whose
    # replay shows that law failing, on tables past the three elements of
    # the golden digest
    LAWS = ((is_semigroupoid, False), (is_right_directed_semigroupoid, True))

    def assert_first(self, m):
        t, n = m.table, m.size
        for check, one_sided in self.LAWS:
            first = next((
                Witness("associativity", (x, y, z))
                for x in range(n) for y in range(n) for z in range(n)
                if replays_associativity(t, x, y, z, one_sided)
            ), True)
            assert check(m) == first, (t, check.__name__)

    def test_every_right_directed_semigroupoid_class_on_four_elements(self):
        classes = list(filtered(4, "right_directed_semigroupoid", up_to_iso=True))
        for m in classes:
            self.assert_first(m)
        two_sided_fails = sum(1 for m in classes if not is_semigroupoid(m))
        assert (len(classes), two_sided_fails) == (2246, 1798)

    def test_seeded_random_tables_on_four_to_eight_elements(self):
        rng = random.Random(23)
        outcomes = set()
        for _ in range(1500):
            n = rng.randint(4, 8)
            p = rng.choice((0.5, 0.8, 0.9, 0.95))  # the chance a cell is undefined
            table = [[None if rng.random() < p else rng.randrange(n) for _ in range(n)]
                     for _ in range(n)]
            table[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
            m = PartialMagma(tuple("abcdefgh"[:n]), tuple(map(tuple, table)))
            self.assert_first(m)
            two, one = is_semigroupoid(m), is_right_directed_semigroupoid(m)
            outcomes.add((two is True, one is True, two == one))
        # both laws hold, only the two-sided one fails, and both fail at
        # one triple or the two-sided law at an earlier one
        assert outcomes == {
            (True, True, True), (False, True, False), (False, False, True), (False, False, False),
        }


class TestRelabelledTripleLaws:
    # the triple-law verdicts the census reads hold on T exactly when they
    # hold on every relabelling pi(T), and a failing triple (x, y, z) of T
    # fails in pi(T) as (pi x, pi y, pi z); likewise every other failed
    # verdict of classify: its witness, mapped through pi, shows the same
    # failure in pi(T), though pi(T)'s own first witness may differ
    CHECKERS = ((is_semigroupoid, False), (is_right_directed_semigroupoid, True))
    KINDS = {
        "associativity", "missing-unit", "non-unique-inverse", "undefined-cell",
        "extra-unit", "left-unit-clash", "antisymmetry",
    }

    def assert_invariant(self, m, seen=None):
        report = classify(m)
        for perm in permutations(range(m.size)):
            image = relabel(m, perm)
            for check, one_sided in self.CHECKERS:
                w = check(m)
                assert bool(check(image)) == bool(w), (m.table, perm, check.__name__)
                if not w:
                    assert w.kind == "associativity"
                    x, y, z = (perm[i] for i in w.elements)
                    assert replays_associativity(image.table, x, y, z, one_sided), (
                        m.table, perm, check.__name__, w.elements,
                    )
            verdicts = classify(image).verdicts
            for name, w in report.witnesses:
                assert not verdicts[name], (m.table, perm, name)
                mapped = Witness(w.kind, tuple(perm[i] for i in w.elements))
                assert replays_witness(image.table, name, mapped), (m.table, perm, name, w)
                if seen is not None:
                    seen.add(w.kind)

    def test_every_table_up_to_two_elements(self):
        seen = set()
        for n in (1, 2):
            for m in all_magmas(n):
                self.assert_invariant(m, seen)
        assert seen == self.KINDS

    def test_every_97th_table_on_three_elements(self):
        for i, m in enumerate(all_magmas(3)):
            if i % 97 == 0:
                self.assert_invariant(m)

    def test_every_right_directed_semigroupoid_on_three_elements(self):
        # the unit witnesses are rare among all tables and common here
        seen = set()
        for m in filtered(3, "right_directed_semigroupoid"):
            self.assert_invariant(m, seen)
        assert seen == self.KINDS


def replays_witness(t, verdict, w):
    """Whether the witness w against the named verdict shows that verdict
    failing in table t.  Units, left units and phi are recomputed here
    from t alone."""
    n = len(t)
    lefts = {e for e in range(n) if all(t[e][x] in (None, x) for x in range(n))}
    units = {e for e in lefts if all(t[x][e] in (None, x) for x in range(n))}
    one_sided = verdict in ("right_directed_semigroupoid", "right_poloid", "normal", "unit_posetal")
    kind, el = w.kind, w.elements
    if kind == "associativity":
        return replays_associativity(t, *el, one_sided=one_sided)
    if kind == "undefined-cell":
        return t[el[0]][el[1]] is None
    if kind == "extra-unit":  # a poloid has a unit, so two are named
        return len(el) == 2 and el[0] != el[1] and set(el) <= units
    if kind == "missing-unit" and one_sided:  # no local right unit
        return not any(t[el[0]][l] == el[0] for l in lefts)
    if kind == "missing-unit":  # no effective unit on one side
        x = el[0]
        return not any(t[e][x] is not None for e in units) or not any(
            t[x][e] is not None for e in units
        )
    if kind == "non-unique-inverse":
        x, *named = el
        found = {y for y in range(n) if t[x][y] in units and t[y][x] in units}
        return not found if not named else len(set(named)) == 2 and set(named) <= found
    if kind == "left-unit-clash" and len(el) == 3:  # two local right units
        x, l0, l1 = el
        return l0 != l1 and {l0, l1} <= lefts and t[x][l0] == x == t[x][l1]
    # the rest fail on a right poloid, whose phi_x is its one local right unit
    phi = [next(l for l in lefts if t[x][l] == x) for x in range(n)]
    if kind == "left-unit-clash":  # normality
        px, py = (phi[i] for i in el)
        return px != py and t[px][py] is not None and t[py][px] is not None
    if kind == "antisymmetry":  # a <= b iff b.phi_a = a
        a, b = el
        return a != b and {a, b} <= lefts and t[b][phi[a]] == a and t[a][phi[b]] == b
    raise AssertionError(f"unknown witness kind {kind!r}")


class TestClassifyReport:
    def test_right_zero_band(self):
        r = classify(right_zero(2))
        assert r.verdicts["right_directed_semigroupoid"]
        assert r.verdicts["right_poloid"]
        assert not r.verdicts["normal"]
        assert not r.verdicts["poloid"]
        assert r.phi == (0, 1)
        assert r.eps is None and r.inverses is None

    def test_z2_everything(self):
        r = classify(z2())
        for name in ("semigroupoid", "poloid", "groupoid", "total", "monoid", "group"):
            assert r.verdicts[name]
            assert r.witness_for(name) is None
        assert r.inverses == (0, 1)

    def test_two_unit_groupoid(self):
        r = classify(two_unit_groupoid())
        assert r.verdicts["groupoid"] and not r.verdicts["group"]
        assert r.witness_for("group").kind == "extra-unit"

    def test_failed_verdicts_carry_witnesses(self):
        for m in all_magmas(2):
            r = classify(m)
            failed = {name for name, ok in r.verdicts.items() if not ok}
            assert failed == {name for name, _ in r.witnesses}

    def test_three_unit_discrete_report_fields(self):
        r = classify(three_unit_discrete())
        assert r.units == (0, 1, 2)
        assert r.eps == (0, 1, 2) and r.vareps == (0, 1, 2)
        assert r.phi == (0, 1, 2)

    def test_text_and_dict_round(self):
        r = classify(two_unit_groupoid())
        text = r.to_text()
        assert "groupoid: yes" in text and "group: no" in text
        d = r.to_dict()
        assert d["verdicts"]["groupoid"] is True
        assert d["eps"] == {"e1": "e1", "e2": "e2"}
        assert {w["verdict"] for w in d["witnesses"]} == {
            name for name, ok in d["verdicts"].items() if not ok
        }

    def test_plain_fields_are_what_to_dict_prints(self):
        for m in all_magmas(2):
            r = classify(m)
            fields, printed = dataclasses.asdict(r), r.to_dict()
            for key in ("units", "left_units", "right_units"):
                assert fields[key] == tuple(m.index(x) for x in printed[key])
            for key in ("eps", "vareps", "phi", "inverses"):
                shown = printed[key]
                assert fields[key] == (
                    None if shown is None else tuple(m.index(shown[x]) for x in m.elements)
                )


class TestRefusals:
    # normality and the natural preorder are defined on right poloids only:
    # off one, the analysis answers with the right-poloid witness, classify
    # reports it and the views that need a right poloid refuse with it
    NOT_RIGHT_POLOID = magma("ab", [[None, "a"], ["b", None]])
    PHI_WITNESS = Witness("associativity", (0, 1, 0))

    @pytest.mark.parametrize("view", [
        phi_map, is_normal, is_unit_posetal, natural_preorder, is_meet_semilattice_on_left_units,
    ])
    def test_views_need_a_right_poloid(self, view):
        with pytest.raises(PreconditionError) as exc:
            view(self.NOT_RIGHT_POLOID)
        assert type(exc.value) is PreconditionError
        assert str(exc.value) == "not a right poloid"
        assert exc.value.witness == self.PHI_WITNESS == is_right_poloid(self.NOT_RIGHT_POLOID)

    def test_classify_reports_the_right_poloid_witness(self):
        r = classify(self.NOT_RIGHT_POLOID)
        assert r.witness_for("right_poloid") == self.PHI_WITNESS
        assert r.witness_for("normal") == r.witness_for("unit_posetal") == self.PHI_WITNESS


class TestOneAnalysis:
    # recorded with the per-checker classify that preceded the shared analysis
    GOLDEN_DIGEST = "ffa5d9bee6b680362e165b4600b3948c14e4db9afa16f9a336589842bb7d142d"

    def test_reports_unchanged_up_to_three_elements(self, small_census):
        assert small_census.digest == self.GOLDEN_DIGEST

    def test_views_agree_with_classify_up_to_three_elements(self, small_census):
        assert small_census.disagreements == []

    def test_disagreement_is_detected(self):
        # the agreement check itself: a report of another table disagrees
        wrong = view_disagreements(right_zero(2), classify(z2()))
        assert {"poloid", "group", "normal", "phi_map", "effective_unit_maps"} <= set(wrong)


@st.composite
def relabelled_tables(draw):
    n = draw(st.integers(1, 5))
    cells = st.one_of(st.none(), st.integers(0, n - 1))
    table = draw(st.lists(st.lists(cells, min_size=n, max_size=n), min_size=n, max_size=n))
    assume(any(c is not None for row in table for c in row))
    m = PartialMagma(tuple("abcde"[:n]), tuple(map(tuple, table)))
    return m, draw(st.permutations(range(n)))


@settings(max_examples=300, deadline=None)
@given(relabelled_tables())
def test_verdicts_are_invariant_under_relabelling(case):
    # every verdict class is closed under isomorphism, which the walk up
    # to isomorphism relies on to keep only the least table of each class
    m, perm = case
    assert classify(relabel(m, perm)).verdicts == classify(m).verdicts
