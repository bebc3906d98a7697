from __future__ import annotations

import importlib
import random
import sys
from itertools import permutations, product
from math import factorial

import pytest

from poloids import BoundExceeded, PartialMagma, is_normal, is_unit_posetal
from poloids.classify import CLASS_LAWS, VERDICT_NAMES, classify
from poloids.enumeration import (
    all_magmas,
    canonical_form,
    count_by_class,
    filtered,
)

from conftest import from_flat, in_class, relabel, to_flat


class TestAllMagmas:
    def test_one_element(self):
        mags = list(all_magmas(1))
        assert len(mags) == 1
        assert mags[0].table == ((0,),)

    def test_two_elements(self):
        assert sum(1 for _ in all_magmas(2)) == 3 ** 4 - 1

    def test_excludes_all_undefined(self):
        for m in all_magmas(2):
            assert any(c is not None for row in m.table for c in row)

    def test_lexicographic_flat_order(self):
        for n in (1, 2):
            empty = (n,) * (n * n)
            flats = sorted(f for f in product(range(n + 1), repeat=n * n) if f != empty)
            assert [to_flat(m) for m in all_magmas(n)] == flats

    def test_bound(self):
        with pytest.raises(BoundExceeded):
            next(all_magmas(4))
        with pytest.raises(BoundExceeded):
            next(all_magmas(0))


class TestFlatCodec:
    def test_round_trip(self):
        # the unpruned walk's leaves are the non-empty flat tables, in
        # order, each decoded to the table the checking constructor makes
        for n in (1, 2):
            empty = (n,) * (n * n)
            flats = [f for f in product(range(n + 1), repeat=n * n) if f != empty]
            leaves = list(filtered(n, None))
            assert [to_flat(m) for m in leaves] == flats
            assert leaves == [from_flat(f, n) for f in flats]


def assert_as_constructed(m):
    """m is the value the checking constructor makes of its fields."""
    checked = PartialMagma(m.elements, m.table)
    assert m == checked
    assert hash(m) == hash(checked)
    assert repr(m) == repr(checked)


class TestUncheckedTables:
    # the package's own tables skip the constructor's check; they must be
    # the very values the constructor would have made

    def test_every_raw_table(self):
        for n in (1, 2):
            for m in all_magmas(n):
                assert_as_constructed(m)

    @pytest.mark.parametrize("up_to_iso", [False, True])
    def test_every_leaf_at_three_elements(self, up_to_iso):
        # every verdict class, and the unpruned walk where it is small
        walks = [filtered(3, name, up_to_iso=up_to_iso) for name in VERDICT_NAMES]
        walks += [filtered(n, None, up_to_iso=up_to_iso) for n in (1, 2)]
        if up_to_iso:
            walks.append(filtered(3, None, up_to_iso=True))  # 43,967 leaves
        for walk in walks:
            for m in walk:
                assert_as_constructed(m)

    def test_the_constructor_is_not_run(self, monkeypatch):
        checks = []
        real = PartialMagma.__post_init__
        monkeypatch.setattr(
            PartialMagma, "__post_init__", lambda m: checks.append(m) or real(m)
        )
        count_by_class(2)
        list(filtered(3, "poloid"))
        assert checks == []
        PartialMagma(("a",), ((0,),))  # the spy sees a table from outside
        assert len(checks) == 1


class TestFiltered:
    def test_agrees_with_brute_force_at_two_elements(self):
        brute = {}
        for m in all_magmas(2):
            for name in VERDICT_NAMES:
                if in_class(m, name):
                    brute.setdefault(name, []).append(to_flat(m))
        for name in VERDICT_NAMES:
            pruned = [to_flat(m) for m in filtered(2, name)]
            assert pruned == brute.get(name, []), name

    def test_agrees_with_brute_force_at_three_elements(self, small_census):
        # the pruned walk must find exactly the tables classify puts in
        # the class, in the same order
        for name in VERDICT_NAMES:
            assert [to_flat(m) for m in filtered(3, name)] == small_census.by_class[name], name

    def test_poloids_and_right_poloids_at_four_elements(self, labelled_at_four):
        # poloids are the small categories: 55 with four morphisms; for
        # every class the walk up to isomorphism keeps the first table of
        # each isomorphism class in the labelled stream
        for name, (_, first) in labelled_at_four.items():
            least = [to_flat(m) for m in filtered(4, name, up_to_iso=True)]
            assert least == first, name
        for name, labelled, classes in (("poloid", 973, 55), ("right_poloid", 5039, 268)):
            assert labelled_at_four[name][0] == labelled, name
            assert len(labelled_at_four[name][1]) == classes, name

    @pytest.mark.parametrize("name, n, up_to_iso, yielded", [
        ("total", 2, False, 16),
        ("semigroupoid", 3, False, 276), ("semigroupoid", 4, True, 448),
        ("right_directed_semigroupoid", 3, False, 681),
        ("right_directed_semigroupoid", 4, True, 2246),
        ("right_poloid", 3, False, 161), ("right_poloid", 4, False, 5039),
        ("right_poloid", 4, True, 268),
        ("group", 4, False, 16), ("group", 5, True, 1),
        ("poloid", 4, True, 55), ("monoid", 4, True, 35), ("groupoid", 4, True, 7),
        ("normal", 4, True, 235), ("unit_posetal", 4, True, 235),
        ("poloid", 3, False, 52), ("monoid", 3, False, 33), ("groupoid", 3, False, 10),
        ("normal", 3, False, 151), ("unit_posetal", 3, False, 151),
    ])
    def test_every_leaf_is_yielded(self, monkeypatch, name, n, up_to_iso, yielded):
        # every triple is checked by the time its last cell is set, so each
        # leaf of a triple-law walk obeys the triple laws; with phi_x also
        # checked exactly, each leaf of the right_poloid walk is a right
        # poloid, and the total walk never tries an undefined cell; a leaf
        # of the group walk is a finite cancellative semigroup, so a group;
        # the units, the inverses and the left-unit clashes are final once
        # the rows they read are complete, so the poloid, monoid,
        # groupoid, normal and unit_posetal walks are exact too; so the
        # walk yields every leaf unchecked, and the checkers agree
        built, checked = spy_on_leaves(monkeypatch)
        found = list(filtered(n, name, up_to_iso=up_to_iso))
        assert len(found) == len(built) == yielded
        assert checked == []
        for m in found:
            assert in_class(m, name)
            assert classify(m).verdicts[name]

    def test_no_leaf_is_checked(self, monkeypatch):
        # the walk is exact for every class, so it builds no analysis
        built, checked = spy_on_leaves(monkeypatch)
        for name in (None, *VERDICT_NAMES):
            for up_to_iso in (False, True):
                found = list(filtered(3, name, up_to_iso=up_to_iso))
                assert len(found) == len(built), (name, up_to_iso)
                built.clear()
        assert checked == []

    def test_unknown_class(self):
        with pytest.raises(ValueError):
            next(filtered(2, "flock"))

    def test_total_filter(self):
        totals = list(filtered(2, "total"))
        assert len(totals) == 2 ** 4

    def test_total_filter_is_bounded(self):
        with pytest.raises(BoundExceeded):
            next(filtered(4, "total"))

    def test_filtered_bound(self):
        # the labelled walk stops at 4, the one up to isomorphism at 5;
        # with no one-sided triple law to prune on (no class, or total), both stop at 3
        for n, verdict, up_to_iso in (
            (5, "group", False),
            (6, "group", True),
            (4, "total", True),
            (4, None, True),
            (4, None, False),
        ):
            with pytest.raises(BoundExceeded):
                next(filtered(n, verdict, up_to_iso=up_to_iso))

    def test_groups_at_four_elements(self):
        # pruning keeps the four-element search tractable; the labeled
        # groups on four elements number 4 choices of unit times the
        # two group structures times relabelings: check against the
        # classifier instead of a closed formula
        groups = list(filtered(4, "group"))
        assert all(in_class(m, "group") for m in groups)
        assert len(groups) > 0
        forms = {canonical_form(m) for m in groups}
        assert len(forms) == 2  # the cyclic group and the double-swap group


class TestTotalityPrune:
    # the classes that imply total never try an undefined cell; the
    # oracle is the poloid walk, which does try them, filtered by their
    # analyses

    def test_labelled_at_four_elements(self):
        poloids = list(filtered(4, "poloid"))
        for name, count in (("monoid", 624), ("group", 16)):
            found = list(filtered(4, name))
            assert found == [m for m in poloids if in_class(m, name)], name
            assert len(found) == count, name

    def test_up_to_isomorphism_at_five_elements(self, poloids_at_five):
        assert len(poloids_at_five) == 329
        for name, count in (("monoid", 228), ("group", 1)):
            found = list(filtered(5, name, up_to_iso=True))
            assert found == [m for m in poloids_at_five if in_class(m, name)], name
            assert len(found) == count, name

    def test_filtered_never_lists_every_table(self, monkeypatch):
        module = importlib.import_module("poloids.enumeration")

        def refuse(n):
            raise AssertionError("filtered called all_magmas")

        monkeypatch.setattr(module, "all_magmas", refuse)
        for name in (None, *VERDICT_NAMES):
            for up_to_iso in (False, True):
                assert list(filtered(2, name, up_to_iso=up_to_iso)), (name, up_to_iso)


class TestCancellationPrune:
    # groupoids and groups never repeat a defined value in a row or a
    # column; the oracle is the poloid walk, which has no such prune,
    # filtered by their analyses

    def test_labelled_groupoids_at_four_elements(self):
        found = list(filtered(4, "groupoid"))
        assert found == [m for m in filtered(4, "poloid") if in_class(m, "groupoid")]
        assert len(found) == 65

    def test_up_to_isomorphism_at_five_elements(self, poloids_at_five):
        for name, count in (("groupoid", 9), ("group", 1)):
            found = list(filtered(5, name, up_to_iso=True))
            assert found == [m for m in poloids_at_five if in_class(m, name)], name
            assert len(found) == count, name


class TestRightUnitPrune:
    # the walk drops a node once a complete row x can no longer have
    # exactly one left unit phi_x with x.phi_x = x

    RIGHT_POLOID_CLASSES = [name for name, laws in CLASS_LAWS.items() if "phi" in laws]

    def test_normal_classes_at_five_elements(self, right_poloids_at_five):
        # the left-unit clash prune against the right_poloid walk, which
        # does not use it, filtered by their analyses
        for name in ("normal", "unit_posetal"):
            found = list(filtered(5, name, up_to_iso=True))
            assert found == [m for m in right_poloids_at_five if in_class(m, name)], name
            assert len(found) == 2364, name

    def test_normal_iff_unit_posetal_beyond_three_elements(self, right_poloids_at_five):
        # phi's image is the left units, and for left units l != r the
        # unit order has r <= l iff l.r is defined; so normality and
        # antisymmetry fail together, which is what lets unit_posetal
        # take normal's walk
        labelled = list(filtered(4, "right_poloid"))
        assert len(labelled) == 5039 and len(right_poloids_at_five) == 2632
        for m in labelled + right_poloids_at_five:
            assert bool(is_normal(m)) == bool(is_unit_posetal(m)), m.table

    def test_agrees_with_the_right_directed_walk(self):
        # the right-directed semigroupoid walk uses neither the unit nor
        # the cancellation prune; each class is closed under relabelling,
        # so its least tables are the least right-directed ones it holds
        directed = list(filtered(4, "right_directed_semigroupoid", up_to_iso=True))
        for name in self.RIGHT_POLOID_CLASSES:
            found = list(filtered(4, name, up_to_iso=True))
            assert found == [m for m in directed if in_class(m, name)], name


class TestUnitColumnPrune:
    # in a poloid every left unit is a unit, so once row r is complete the
    # walk of a class whose laws include unit_maps drops a left-unit row
    # l <= r with some x.l, x <= r, other than x or undefined

    # (TestTotalityPrune and TestCancellationPrune hold the monoid, group
    # and groupoid walks to the poloid walk, and TestRightUnitPrune the
    # poloid walk up to isomorphism to the right-directed one)

    POLOID_CLASSES = [name for name, laws in CLASS_LAWS.items() if "unit_maps" in laws]

    @staticmethod
    def broken_unit_column(n, r, cells):
        """Whether, in the complete rows 0..r, a left-unit row l has some
        x.l other than x or undefined."""
        lefts = [l for l in range(r + 1) if all(cells[l * n + y] in (y, n) for y in range(n))]
        return any(cells[x * n + l] not in (x, n) for l in lefts for x in range(r + 1))

    @pytest.mark.parametrize("n, up_to_iso", [(3, False), (4, True)])
    def test_every_row_passed_keeps_its_unit_columns(self, n, up_to_iso):
        # the complete rows of every node the walk descends from, traced
        # where row_broken lets them pass; the normal walk passes some
        # that break a unit column, as it does not prune on them
        for name in ("normal", *self.POLOID_CLASSES):
            passed = rows_passed(n, name, up_to_iso)
            assert passed, name
            assert any(self.broken_unit_column(n, r, c) for r, c in passed) == (name == "normal"), name

    def test_labelled_poloids_against_the_normal_walk_at_four_elements(self):
        # the normal walk does not use the prune; a poloid is a normal
        # right poloid
        found = list(filtered(4, "poloid"))
        assert found == [m for m in filtered(4, "normal") if in_class(m, "poloid")]
        assert len(found) == 973


class TestWalkNodes:
    # the nodes each walk visits up to isomorphism at four elements; no
    # output shows a prune that fires a cell later, such as the value
    # loop's stop once x(yz) is undefined, so only these counts pin it

    NODES = {
        "semigroupoid": 3772,
        "right_directed_semigroupoid": 10743,
        "right_poloid": 2824,
        "normal": 2613,
        "unit_posetal": 2613,
        "poloid": 1320,
        "monoid": 755,
        "groupoid": 277,
        "group": 55,
    }

    def test_node_counts_at_four_elements(self):
        assert {name: walk_nodes(4, name, True) for name in self.NODES} == self.NODES


class TestOracleChainAtFiveElements:
    # each pruned walk up to isomorphism equals the walk one law weaker
    # filtered by their analyses; every class is closed under relabelling,
    # so its least tables are the least ones of the weaker class that it
    # holds; this is a second method for the three counts, and it checks
    # the two-sided, phi and unit prunes at five elements

    def test_each_walk_is_the_one_law_weaker_walk_filtered(
            self, right_poloids_at_five, poloids_at_five):
        directed = list(filtered(5, "right_directed_semigroupoid", up_to_iso=True))
        assert len(directed) == 62374
        semigroupoids = list(filtered(5, "semigroupoid", up_to_iso=True))
        assert semigroupoids == [m for m in directed if in_class(m, "semigroupoid")]
        assert right_poloids_at_five == [m for m in directed if in_class(m, "right_poloid")]
        assert poloids_at_five == [m for m in semigroupoids if in_class(m, "poloid")]
        assert (len(semigroupoids), len(right_poloids_at_five), len(poloids_at_five)) == (
            4118, 2632, 329)


class TestUpToIsomorphism:
    # the oracle is the dedupe the walk replaced: each class's first
    # table in the labelled stream, in canonical-form order

    def test_every_class_at_three_elements(self):
        for n in (1, 2, 3):
            for name in VERDICT_NAMES:
                least = [to_flat(m) for m in filtered(n, name, up_to_iso=True)]
                assert least == first_in_stream(filtered(n, name)), (n, name)

    def test_every_table(self):
        for n in (1, 2):
            least = [to_flat(m) for m in filtered(n, None, up_to_iso=True)]
            assert least == first_in_stream(all_magmas(n)), n
        # 43,967 classes among the 262,143 three-element tables; each
        # table yielded is its own canonical form, and they increase
        least = list(filtered(3, None, up_to_iso=True))
        assert len(least) == 43967
        flats = [to_flat(m) for m in least]
        assert flats == sorted(set(flats))
        assert all(canonical_form(m) == f for m, f in zip(least, flats))

    def test_orbit_stabilizer_at_four_elements(self, labelled_at_four):
        # a class T has 4!/|Aut(T)| labelled members; |Aut(T)| is counted
        # over the 24 relabellings, apart from the walk's own symmetry test
        for name, (labelled, _) in labelled_at_four.items():
            classes = filtered(4, name, up_to_iso=True)
            assert sum(24 // automorphisms(m) for m in classes) == labelled, name

    @pytest.mark.parametrize("n, name, classes, labelled", [
        (2, None, 44, 3 ** 4 - 1), (2, "total", 10, 2 ** 4), (3, "total", 3330, 3 ** 9),
    ])
    def test_orbit_stabilizer_against_the_closed_forms(self, n, name, classes, labelled):
        # two methods in one run: a class T has n!/|Aut(T)| labelled
        # members, and the labelled tables number (n+1)^(n*n) - 1 in all
        # and n^(n*n) total; OEIS A001329 (1, 10, 3330) is a reference only
        found = list(filtered(n, name, up_to_iso=True))
        assert len(found) == classes
        assert sum(factorial(n) // automorphisms(m) for m in found) == labelled

    def test_poloids_at_five_elements(self, poloids_at_five):
        # frozen after the labelled walk at five elements (29,221
        # poloids) deduplicated by canonical_form gave the same 329
        flats = [to_flat(m) for m in poloids_at_five]
        assert len(flats) == 329
        assert flats == sorted(set(flats))


class TestCounts:
    def test_one_element(self):
        counts = count_by_class(1)
        assert counts["partial_magmas"] == 1
        assert counts["group"] == 1

    def test_total_associative_tables_match_classical_counts(self):
        # labeled semigroups: 8 on two elements, 113 on three; labeled
        # groups: 2 and 3; classical enumeration values
        for n, semigroups, groups in ((2, 8, 2), (3, 113, 3)):
            total_assoc = sum(
                1 for m in filtered(n, "total") if in_class(m, "semigroupoid")
            )
            assert total_assoc == semigroups
            assert sum(1 for _ in filtered(n, "group")) == groups

    def test_two_elements_match_direct_classify(self):
        counts = count_by_class(2)
        expected = {name: 0 for name in VERDICT_NAMES}
        for m in all_magmas(2):
            for name, ok in classify(m).verdicts.items():
                expected[name] += ok
        for name in VERDICT_NAMES:
            assert counts[name] == expected[name]

    def test_three_elements_match_the_report_path(self, small_census):
        # the fixture's pass over every report is the oracle
        expected = {name: len(small_census.by_class[name]) for name in VERDICT_NAMES}
        expected["partial_magmas"] = 4 ** 9 - 1
        assert count_by_class(3) == expected

    def test_units_are_computed_only_where_a_verdict_reads_them(self, monkeypatch):
        # a report computes its units on first read and the census reads
        # only verdicts, so of the 80 two-element tables only the
        # right-directed semigroupoids, whose phi needs them, scan units
        module = importlib.import_module("poloids.classify")
        scanned = []
        real = module.left_units
        monkeypatch.setattr(module, "left_units", lambda m: scanned.append(m) or real(m))
        counts = count_by_class(2)
        assert len(scanned) == counts["right_directed_semigroupoid"] == 21

    @pytest.mark.parametrize("n, reports", [(2, 21), (3, 681)])
    def test_reports_only_the_right_directed_semigroupoids(self, monkeypatch, n, reports):
        # every class but total lies inside the right-directed
        # semigroupoids, so no other table needs a report
        module = importlib.import_module("poloids.enumeration")
        built = []
        real = module.classify
        monkeypatch.setattr(module, "classify", lambda m: built.append(m) or real(m))
        counts = count_by_class(n)
        assert len(built) == counts["right_directed_semigroupoid"] == reports

    @pytest.mark.parametrize("n, scans, reports", [(2, 42, 21), (3, 4784, 681)])
    def test_replays_the_last_witness_before_it_scans(self, monkeypatch, n, scans, reports):
        # consecutive tables mostly differ only in their last row, so the
        # triple that refuted the last table scanned rules out most of the
        # next ones; only the others get an analysis that scans the
        # one-sided law, and only the tables that pass it get a report,
        # which builds an analysis of its own
        module = importlib.import_module("poloids.enumeration")
        analyses, built = [], []
        real_init, real_classify = module._Analysis.__init__, module.classify
        monkeypatch.setattr(module._Analysis, "__init__",
                            lambda self, m: analyses.append(m) or real_init(self, m))
        monkeypatch.setattr(module, "classify", lambda m: built.append(m) or real_classify(m))
        count_by_class(n)
        assert (len(analyses) - len(built), len(built)) == (scans, reports)

    def test_agrees_with_the_walk_and_the_closed_forms(self):
        # the oracle shares no path with the census: the pruned walk
        # lists the right-directed semigroupoids, and the total and
        # partial counts are the closed forms, the first tied to the walk
        for n in (1, 2, 3):
            expected = dict.fromkeys(VERDICT_NAMES, 0)
            for m in filtered(n, "right_directed_semigroupoid"):
                for name, ok in classify(m).verdicts.items():
                    expected[name] += ok
            assert sum(1 for _ in filtered(n, "total")) == n ** (n * n)
            expected["total"] = n ** (n * n)
            expected["partial_magmas"] = (n + 1) ** (n * n) - 1
            assert count_by_class(n) == expected, n


class TestCanonicalForm:
    def test_invariant_under_relabelling(self):
        for m in all_magmas(2):
            swapped = PartialMagma(
                m.elements,
                (
                    (self_swap(m.table[1][1]), self_swap(m.table[1][0])),
                    (self_swap(m.table[0][1]), self_swap(m.table[0][0])),
                ),
            )
            assert canonical_form(m) == canonical_form(swapped)

    def test_preserves_defined_cell_count(self):
        for m in list(all_magmas(2))[:30]:
            form = canonical_form(m)
            assert sum(1 for v in form if v < 2) == sum(
                1 for row in m.table for c in row if c is not None
            )

    def test_minimality(self):
        for m in list(all_magmas(2))[:30]:
            assert canonical_form(m) <= to_flat(m)

    def test_least_relabelling_at_three_elements(self):
        rng = random.Random(3)
        flats = {tuple(rng.randrange(4) for _ in range(9)) for _ in range(300)}
        flats.discard((3,) * 9)
        tables = [from_flat(f, 3) for f in sorted(flats)] + list(filtered(3, "poloid"))
        for m in tables:
            relabelled = [relabel(m, perm) for perm in permutations(range(3))]
            form = canonical_form(m)
            assert form == min(to_flat(r) for r in relabelled)
            assert all(canonical_form(r) == form for r in relabelled)


@pytest.fixture(scope="module")
def labelled_at_four():
    """For every class but total, the labelled walk on four elements: its
    length and the first table of each isomorphism class in it."""
    walks = {}
    for name in VERDICT_NAMES:
        if name != "total":
            found = list(filtered(4, name))
            walks[name] = len(found), first_in_stream(found)
    return walks


@pytest.fixture(scope="module")
def right_poloids_at_five():
    """The right_poloid walk on five elements up to isomorphism."""
    return list(filtered(5, "right_poloid", up_to_iso=True))


@pytest.fixture(scope="module")
def poloids_at_five():
    """The poloid walk on five elements up to isomorphism."""
    return list(filtered(5, "poloid", up_to_iso=True))


def rows_passed(n, verdict, up_to_iso):
    """Each (r, cells of rows 0..r) at which the walk's row_broken returns
    False, traced through ``sys.settrace``."""
    code = next(c for c in filtered.__code__.co_consts if getattr(c, "co_name", "") == "row_broken")
    passed = []

    def on_return(frame, event, arg):
        if event == "return" and arg is False:
            r = frame.f_locals["r"]
            passed.append((r, tuple(frame.f_locals["values"][:(r + 1) * n])))
        return on_return

    outer = sys.gettrace()
    sys.settrace(lambda frame, event, arg: on_return if frame.f_code is code else None)
    try:
        list(filtered(n, verdict, up_to_iso=up_to_iso))
    finally:
        sys.settrace(outer)
    return passed


def walk_nodes(n, verdict, up_to_iso):
    """How many nodes the walk visits: its fresh ``walk`` frames, traced
    through ``sys.settrace``.  A generator frame reports ``call`` again
    each time it resumes, by which time it holds ``x`` or, at a leaf,
    ``flat``."""
    code = next(c for c in filtered.__code__.co_consts if getattr(c, "co_name", "") == "walk")
    nodes = 0

    def on_call(frame, event, arg):
        nonlocal nodes
        if frame.f_code is code and "x" not in frame.f_locals and "flat" not in frame.f_locals:
            nodes += 1

    outer = sys.gettrace()
    sys.settrace(on_call)
    try:
        list(filtered(n, verdict, up_to_iso=up_to_iso))
    finally:
        sys.settrace(outer)
    return nodes


def spy_on_leaves(monkeypatch):
    """Record the leaf tables the walk builds and the magmas it analyses."""
    module = importlib.import_module("poloids.enumeration")
    built, checked = [], []
    real_build, real_analysis = module._built, module._Analysis
    monkeypatch.setattr(
        module, "_built", lambda names, table: built.append(table) or real_build(names, table)
    )
    monkeypatch.setattr(
        module, "_Analysis", lambda m: checked.append(m) or real_analysis(m)
    )
    return built, checked


def automorphisms(m) -> int:
    """|Aut(m)|: the relabellings of the carrier that leave m unchanged."""
    return sum(relabel(m, perm) == m for perm in permutations(range(m.size)))


def first_in_stream(magmas) -> list:
    """The first table of each isomorphism class, in canonical-form order."""
    kept = {}
    for m in magmas:
        kept.setdefault(canonical_form(m), to_flat(m))
    return [kept[form] for form in sorted(kept)]


def self_swap(c):
    if c is None:
        return None
    return 1 - c
