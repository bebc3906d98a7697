from __future__ import annotations

import enum
import re
import sys
import threading
from pathlib import Path
from types import ModuleType

import pytest
from hypothesis import given, strategies as st

import poloids
from poloids import (
    ParseError,
    PartialMagma,
    Witness,
    adjoin_zero,
    effective_units,
    identity_pretransformation,
    left_units,
    parse_magma,
    parse_map_magma,
    precedes,
    product,
    right_units,
    serialize_magma,
    serialize_map_magma,
    units,
)
from poloids.classify import _Analysis
from poloids.enumeration import all_magmas
from poloids.maps import MapMagma, Prefunction
from poloids.tables import _fact

from conftest import magma, right_zero, trivial_group, two_unit_groupoid, z2


@st.composite
def magmas(draw, max_n=4):
    n = draw(st.integers(1, max_n))
    cells = draw(st.lists(st.integers(0, n), min_size=n * n, max_size=n * n))
    if all(c == n for c in cells):
        cells[0] = 0
    names = tuple(f"e{i}" for i in range(n))
    table = tuple(
        tuple(c if c < n else None for c in cells[i * n:(i + 1) * n]) for i in range(n)
    )
    return PartialMagma(names, table)


# tables PartialMagma rejects, as (names, table, message)
REJECTIONS = [
    (("a", "b"), ((0, True), (1, 0)), "table entry True is not an element index"),
    (("a", "b"), ((0, 1.0), (1, 0)), "table entry 1.0 is not an element index"),
    (("a", "b"), ((0, 2), (1, 0)), "table entry 2 is not an element index"),
    (("a", "b"), ((0, -1), (1, 0)), "table entry -1 is not an element index"),
    (("x:y",), ((0,),), "invalid element name 'x:y'"),
    (("a#b",), ((0,),), "invalid element name 'a#b'"),
    (("a b",), ((0,),), "invalid element name 'a b'"),
    (("a\tb",), ((0,),), "invalid element name 'a\\tb'"),
    (("-",), ((0,),), "invalid element name '-'"),
    (("a", "b"), ((0, 1), (1,)), "expected 2 entries per row, got 1"),
    (("a", "b"), ((None, None), (None, None)),
     "the operation must be defined on at least one pair"),
]


def assert_rejected(names, table, message):
    with pytest.raises(ValueError) as exc:
        PartialMagma(names, table)
    assert str(exc.value) == message


class TestConstruction:
    def test_rejects_empty_carrier(self):
        with pytest.raises(ValueError):
            PartialMagma((), ())

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            PartialMagma(("a", "a"), ((0, 1), (1, 0)))

    def test_rejects_bad_tokens(self):
        for bad in ("-", "a b", "x:y", "", "a#b"):
            with pytest.raises(ValueError):
                PartialMagma((bad,), ((0,),))

    def test_rejects_out_of_range_entry(self):
        with pytest.raises(ValueError):
            PartialMagma(("a",), ((1,),))

    def test_rejects_all_undefined(self):
        with pytest.raises(ValueError):
            PartialMagma(("a", "b"), ((None, None), (None, None)))

    def test_rejects_ragged_table(self):
        with pytest.raises(ValueError):
            PartialMagma(("a", "b"), ((0,), (1, 0)))

    @pytest.mark.parametrize("names, table, message", REJECTIONS)
    def test_rejection_messages(self, names, table, message):
        assert_rejected(names, table, message)

    @pytest.mark.parametrize("cell", [True, False, -1, 2, 1.0, "a"])
    def test_cells_that_are_not_indices(self, cell):
        # exact ints in range take a fast path; every other cell is still
        # refused with the same message, wherever it stands in its row
        for table in (((0, cell), (1, 0)), ((cell, 0), (None, 1))):
            assert_rejected(("a", "b"), table, f"table entry {cell!r} is not an element index")

    def test_int_enum_cells_are_indices(self):
        class Cell(enum.IntEnum):
            A = 0
            B = 1

        m = PartialMagma(("a", "b"), ((Cell.A, Cell.B), (None, Cell.A)))
        plain = PartialMagma(("a", "b"), ((0, 1), (None, 0)))
        assert m == plain and hash(m) == hash(plain)
        with pytest.raises(ValueError, match=r"^table entry <Cell.B: 1> is not an element index$"):
            PartialMagma(("a",), ((Cell.B,),))


class TestCarrierCheckedOnce:
    # the carrier's names are checked on every construction, however many
    # carriers came before; none of this may let through a table the
    # constructor rejects
    BAD_CARRIERS = [
        ((), (), "carrier must be non-empty"),
        (("a", "a"), ((0, 1), (1, 0)), "duplicate element names"),
        (("a", "b c"), ((0, 1), (1, 0)), "invalid element name 'b c'"),
        (("a", 1), ((0, 1), (1, 0)), "invalid element name 1"),
    ]

    def test_a_valid_carrier_still_has_every_table_checked(self):
        PartialMagma(("a", "b"), ((0, 1), (1, 0)))
        for case in REJECTIONS:
            assert_rejected(*case)
        assert_rejected(("a", "b"), ((0, 1),), "expected 2 table rows, got 1")

    def test_a_rejected_carrier_is_rejected_again(self):
        for names, table, message in self.BAD_CARRIERS:
            for carrier in (names, names, list(names)):
                assert_rejected(carrier, table, message)

    def test_nested_lists_are_stored_as_tuples(self):
        m = PartialMagma(["a", "b"], [[0, None], [1, 0]])
        assert type(m.elements) is tuple and type(m.table) is tuple
        assert all(type(row) is tuple for row in m.table)
        assert m == PartialMagma(("a", "b"), ((0, None), (1, 0)))

    def test_bad_carriers_are_rejected_after_many_valid_ones(self):
        for i in range(300):
            PartialMagma((f"v{i}",), ((0,),))
        for case in self.BAD_CARRIERS + REJECTIONS:
            assert_rejected(*case)

    def test_concurrent_constructions_keep_every_verdict(self):
        # more threads than cores, switching often, over many carriers:
        # a good carrier always passes, a bad one never does
        def build(k):
            for i in range(400):
                PartialMagma((f"t{k}x{i % 300}",), ((0,),))
                for names, table, message in self.BAD_CARRIERS:
                    try:
                        PartialMagma(names, table)
                    except ValueError as exc:
                        if str(exc) != message:
                            failures.append((names, str(exc)))
                    else:
                        failures.append((names, "accepted"))
            finished.append(k)

        failures, finished = [], []
        threads = [threading.Thread(target=build, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(finished) == [0, 1, 2, 3] and failures == []


class TestFact:
    def test_read_on_the_class_is_the_descriptor(self):
        for owner, name in ((Prefunction, "domain"), (MapMagma, "table"), (_Analysis, "phi")):
            assert hasattr(owner, name), name
            assert isinstance(getattr(owner, name), _fact), name
            assert getattr(owner, name) is owner.__dict__[name]


class TestWitness:
    def test_elements_are_a_tuple(self):
        w = Witness("k", [0, 1])
        assert w.elements == (0, 1)
        assert hash(w) == hash(Witness("k", (0, 1)))
        assert not w


class TestParse:
    def test_right_zero_band_file(self):
        m = parse_magma("elements: x y\nx: x y\ny: x y\n")
        assert m.elements == ("x", "y")
        assert m.table == ((0, 1), (0, 1))

    def test_trivial_group_file(self):
        m = parse_magma("elements: e\ne: e\n")
        assert m == trivial_group()

    def test_all_undefined_is_an_error(self):
        with pytest.raises(ParseError):
            parse_magma("elements: a b\na: - -\nb: - -\n")

    def test_duplicate_element(self):
        with pytest.raises(ParseError):
            parse_magma("elements: a a\na: a a\na: a a\n")

    def test_row_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_magma("elements: a b\na: a b\n")
        with pytest.raises(ParseError):
            parse_magma("elements: a\na: a\na: a\n")

    def test_column_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_magma("elements: a b\na: a\nb: a b\n")

    def test_unknown_token(self):
        with pytest.raises(ParseError):
            parse_magma("elements: a b\na: a c\nb: a b\n")

    def test_rows_must_follow_element_order(self):
        with pytest.raises(ParseError):
            parse_magma("elements: a b\nb: a b\na: a b\n")

    def test_comments_and_blank_lines(self):
        text = "# a comment\nelements: e  # trailing\n\ne: e\n"
        assert parse_magma(text) == trivial_group()

    def test_serialize_is_canonical(self):
        text = "elements:   x   y\nx: x  y\ny: x y\n# tail\n"
        m = parse_magma(text)
        assert serialize_magma(m) == "elements: x y\nx: x y\ny: x y\n"

    @given(magmas())
    def test_round_trip(self, m):
        assert parse_magma(serialize_magma(m)) == m


class TestNamesSurviveTheirFiles:
    # the parsers break tokens at every character str.split breaks at, and
    # lines at every one str.splitlines breaks at: a name holding any of
    # them is refused, and every name the constructor takes reads back
    CHARACTERS = tuple(map(chr, range(0x3001)))

    def test_whitespace_is_refused(self):
        spaces = [c for c in self.CHARACTERS if c.isspace()]
        assert {"\x1c", "\x1f", "\x85", "\xa0", "\u2028", "\u3000"} <= set(spaces)
        assert len(spaces) == 29
        for c in spaces:
            assert_rejected((f"a{c}b",), ((0,),), f"invalid element name {f'a{c}b'!r}")

    def test_every_accepted_name_reads_back(self):
        names = []
        for c in self.CHARACTERS:
            for name in (c, f"a{c}b"):
                try:
                    m = PartialMagma((name, "e"), ((0, None), (None, 1)))
                except ValueError:
                    continue
                assert parse_magma(serialize_magma(m)) == m
                names.append(name)
        # all but the 29 spaces, ':' and '#' in either form, '-' and 'e'
        assert len(names) == 2 * len(self.CHARACTERS) - 2 * 31 - 2
        for i in range(0, len(names), 64):  # as points and as map names
            points = tuple(names[i:i + 64])
            ids = tuple(identity_pretransformation(points, (p,)) for p in points)
            a = MapMagma(points, ids, names=points)
            assert parse_map_magma(serialize_map_magma(a)) == a


class TestProduct:
    def test_right_zero_band(self):
        m = right_zero(2)
        assert product(m, 0, 1) == 1

    def test_trivial(self):
        assert product(trivial_group(), 0, 0) == 0

    def test_cross_products_undefined(self):
        assert product(two_unit_groupoid(), 0, 1) is None


class TestPrecedes:
    def test_defined_product(self):
        assert precedes(right_zero(2), 0, 1)

    def test_two_unit_groupoid_cross(self):
        m = two_unit_groupoid()
        # oracle: e1e2 undefined, and neither e1(e2 z) nor (z e1)e2 is
        # defined for z in the carrier
        t = m.table
        assert t[0][1] is None
        for z in range(2):
            assert t[1][z] is None or t[0][t[1][z]] is None
            assert t[z][0] is None or t[t[z][0]][1] is None
        assert not precedes(m, 0, 1)

    def test_through_a_right_factor(self):
        # ab is undefined and column a is empty, so only a(bc) = ac
        # makes a precede b
        m = magma("abc", [[None, None, "a"], [None, None, "c"], [None, None, None]])
        assert m.table[0][1] is None
        assert precedes(m, 0, 1)

    def test_through_a_left_factor(self):
        # ab is undefined and row a is empty, so only (ca)b = cb makes
        # a precede b
        m = magma("abc", [[None, None, None], [None, None, None], ["c", "c", None]])
        assert m.table[0][1] is None
        assert precedes(m, 0, 1)

    def test_reflexive_on_trivial(self):
        assert precedes(trivial_group(), 0, 0)

    @given(magmas())
    def test_implied_by_defined_product(self, m):
        for x in range(m.size):
            for y in range(m.size):
                if m.table[x][y] is not None:
                    assert precedes(m, x, y)


class TestUnits:
    def test_right_zero_band(self):
        m = right_zero(2)
        assert units(m) == ()
        assert left_units(m) == (0, 1)
        assert right_units(m) == ()

    def test_two_unit_groupoid(self):
        assert units(two_unit_groupoid()) == (0, 1)

    def test_trivial(self):
        assert units(trivial_group()) == (0,)

    def test_vacuous_unit(self):
        # an element with no defined products is a unit under the
        # literal definition; a (with aa = u) is not
        m = magma("au", [["u", None], [None, None]])
        assert units(m) == (1,)

    def test_one_sided_units_match_their_definition(self):
        for m in all_magmas(2):
            t, n = m.table, m.size
            lefts = tuple(e for e in range(n) if all(t[e][x] in (None, x) for x in range(n)))
            rights = tuple(e for e in range(n) if all(t[x][e] in (None, x) for x in range(n)))
            assert left_units(m) == lefts, m
            assert right_units(m) == rights, m
            both = tuple(e for e in lefts if e in rights)
            assert units(m) == both, m
            for x in range(n):
                assert effective_units(m, x) == (
                    tuple(e for e in both if t[e][x] is not None),
                    tuple(e for e in both if t[x][e] is not None),
                ), (m, x)

    @given(magmas())
    def test_units_are_one_sided_units(self, m):
        lefts, rights = set(left_units(m)), set(right_units(m))
        for e in units(m):
            assert e in lefts and e in rights


class TestEffectiveUnits:
    def test_two_unit_groupoid(self):
        assert effective_units(two_unit_groupoid(), 0) == ((0,), (0,))

    def test_z2_nonidentity(self):
        assert effective_units(z2(), 1) == ((0,), (0,))

    def test_right_zero_band_has_none(self):
        m = right_zero(2)
        assert effective_units(m, 0) == ((), ())
        assert effective_units(m, 1) == ((), ())


class TestAdjoinZero:
    def test_trivial_group(self):
        m = adjoin_zero(trivial_group())
        assert m.elements == ("e", "0")
        assert m.table == ((0, 1), (1, 1))

    def test_two_unit_groupoid_cross_cell(self):
        m = adjoin_zero(two_unit_groupoid())
        assert m.size == 3
        assert m.table[0][1] == 2  # was undefined, now the zero

    def test_zero_name_stays_fresh(self):
        m = adjoin_zero(magma("0", [["0"]]))
        assert m.elements == ("0", "00")

    @given(magmas())
    def test_total_and_restriction(self, m):
        z = adjoin_zero(m)
        zero = m.size
        assert all(cell is not None for row in z.table for cell in row)
        for x in range(m.size):
            for y in range(m.size):
                if m.table[x][y] is None:
                    assert z.table[x][y] == zero
                else:
                    assert z.table[x][y] == m.table[x][y]
        assert all(z.table[zero][k] == zero and z.table[k][zero] == zero
                   for k in range(zero + 1))

    def test_defined_bracketings_force_defined_products(self):
        # in the adjoined table, (xy)z != 0 or z(xy) != 0 forces xy != 0;
        # exhaustive over every magma on up to three elements
        for n in (1, 2, 3):
            for m in all_magmas(n):
                z = adjoin_zero(m)
                t = z.table
                zero = m.size
                for x in range(zero + 1):
                    for y in range(zero + 1):
                        xy = t[x][y]
                        if xy != zero:
                            continue
                        for w in range(zero + 1):
                            assert t[xy][w] == zero
                            assert t[w][xy] == zero


class TestPublicNames:
    # __all__ names the package's functions, classes and values, never
    # the submodules its imports bind, so a star import brings in no
    # module; and it covers what the README's Library section imports
    def test_no_module_in_all(self):
        assert not [n for n in poloids.__all__ if isinstance(getattr(poloids, n), ModuleType)]
        namespace = {}
        exec("from poloids import *", namespace)
        namespace.pop("__builtins__")
        assert not [n for n, v in namespace.items() if isinstance(v, ModuleType)]

    def test_readme_library_imports_are_public(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        library = readme.split("## Library", 1)[1].split("\n## ", 1)[0]
        imported = re.search(r"from poloids import \(([^)]*)\)", library).group(1)
        names = {name.strip() for name in imported.split(",") if name.strip()}
        assert "classify" in names and "parse_magma" in names
        assert names <= set(poloids.__all__), names - set(poloids.__all__)
