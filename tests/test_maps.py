from __future__ import annotations

from itertools import combinations, permutations, product as iproduct

import pytest
from hypothesis import given, strategies as st

from poloids import (
    BoundExceeded,
    MapMagma,
    Mode,
    ParseError,
    PartialFn,
    PreconditionError,
    Prefunction,
    Witness,
    as_partial_magma,
    compose,
    compose_maps,
    full_pretransformation_magma,
    full_transformation_magma,
    identity_pretransformation,
    identity_transformation,
    is_closed,
    is_domain_pretransformation_magma,
    is_transformation_poloid,
    is_transformation_semigroupoid,
    parse_map_magma,
    serialize_map_magma,
)
from poloids import maps

X2 = (1, 2)
X3 = (1, 2, 3)


@st.composite
def prefunctions(draw, points=X3):
    n = len(points)
    choice = draw(st.lists(st.integers(0, n), min_size=n, max_size=n))
    if all(c == n for c in choice):
        choice[0] = 0
    pairs = {p: points[c] for p, c in zip(points, choice) if c < n}
    return Prefunction(points, pairs)


class TestMapTypes:
    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError):
            Prefunction(X2, {})

    def test_assignment_must_stay_inside_ground(self):
        with pytest.raises(ValueError):
            Prefunction(X2, {1: 3})
        with pytest.raises(ValueError):
            Prefunction(X2, {3: 1})

    def test_codomain_must_cover_image(self):
        pre = Prefunction(X2, {1: 2})
        with pytest.raises(ValueError):
            PartialFn(pre, (1,))
        fn = PartialFn(pre, (2,))
        assert fn.codomain == (2,)

    @pytest.mark.parametrize("codomain", [(1, 5), (5, 1)])
    def test_codomain_must_stay_inside_ground(self, codomain):
        with pytest.raises(ValueError, match="not in the ground set"):
            PartialFn(Prefunction(X2, {1: 1}), codomain)

    def test_equality_distinguishes_codomains(self):
        pre = Prefunction(X2, {1: 1})
        assert PartialFn(pre, (1,)) != PartialFn(pre, (1, 2))

    def test_identity_transformation_needs_matching_codomain(self):
        assert identity_transformation(X2, (1,)).is_identity()
        assert not PartialFn(Prefunction(X2, {1: 1}), (1, 2)).is_identity()

    def test_assignment_is_canonically_ordered(self):
        a = Prefunction(X3, {3: 1, 1: 3})
        b = Prefunction(X3, [(1, 3), (3, 1)])
        assert a == b
        assert a.domain == (1, 3)
        assert a.image == (1, 3)


class TestCompose:
    def test_identity_after_smaller_identity(self):
        g = identity_pretransformation(X2, X2)
        h = identity_pretransformation(X2, (1,))
        assert compose_maps(g, h) == h

    def test_smaller_identity_after_identity_undefined(self):
        f = identity_pretransformation(X2, (1,))
        g = identity_pretransformation(X2, X2)
        assert compose_maps(f, g) is None

    def test_right_identity_is_neutral(self):
        f = Prefunction(X3, {1: 2, 2: 2})
        assert compose_maps(f, identity_pretransformation(X3, f.domain)) == f

    def test_overlap_restricts_to_preimage(self):
        f = identity_pretransformation(X2, (1,))
        g = identity_pretransformation(X2, X2)
        c = compose_maps(f, g, Mode.OVERLAP)
        assert c == identity_pretransformation(X2, (1,))

    def test_overlap_undefined_when_disjoint(self):
        f = identity_pretransformation(X2, (1,))
        h = Prefunction(X2, {2: 2})
        assert compose_maps(f, h, Mode.OVERLAP) is None

    def test_exact_image_requires_equality(self):
        f = identity_pretransformation(X2, (1,))
        g = Prefunction(X2, {1: 1, 2: 1})
        assert compose_maps(f, g, Mode.EXACT_IMAGE) == g
        assert compose_maps(g, g, Mode.EXACT_IMAGE) is None

    def test_codomain_mode(self):
        f = identity_transformation(X2, (1,))
        g = PartialFn(Prefunction(X2, {1: 1, 2: 1}), (1,))
        c = compose_maps(f, g, Mode.CODOMAIN)
        assert c is not None and c.codomain == (1,)
        assert compose_maps(g, f, Mode.CODOMAIN) is None  # dom(g) != cod(f)

    def test_codomain_mode_needs_functions(self):
        f = identity_pretransformation(X2, (1,))
        with pytest.raises(ValueError):
            compose_maps(f, f, Mode.CODOMAIN)

    def test_function_composite_keeps_outer_codomain(self):
        f = PartialFn(Prefunction(X2, {1: 2, 2: 1}), X2)
        g = identity_transformation(X2, X2)
        assert compose_maps(f, g).codomain == X2

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compose_maps(
                identity_pretransformation(X2, X2), identity_transformation(X2, X2)
            )

    def test_ground_mismatch_rejected(self):
        with pytest.raises(ValueError, match="^maps live on different ground sets$"):
            compose_maps(identity_pretransformation(X2, X2), identity_pretransformation(X3, X2))

    def test_member_composition_requires_membership(self):
        a = full_pretransformation_magma(X2)
        outsider = identity_pretransformation((1, 2, 3), (1,))
        with pytest.raises(KeyError):
            compose(a, outsider, a.members[0])
        b = MapMagma(X2, (identity_pretransformation(X2, (1,)),))
        with pytest.raises(KeyError):
            compose(b, b.members[0], identity_pretransformation(X2, X2))


def _every_prefunction(points):
    n = len(points)
    for choice in iproduct(range(n + 1), repeat=n):
        pairs = {p: points[c] for p, c in zip(points, choice) if c < n}
        if pairs:
            yield Prefunction(points, pairs)


def _every_partial_fn(points):
    for pre in _every_prefunction(points):
        rest = [p for p in points if p not in pre.image]
        for k in range(len(rest) + 1):
            for extra in combinations(rest, k):
                yield PartialFn(pre, pre.image + extra)


def _expected_composite(f, g, mode):
    """f.g by the module docstring's mode table, worked out on dicts and sets."""
    fd, gd = dict(f.assignment), dict(g.assignment)
    dom_f, im_g = set(fd), set(gd.values())
    if mode is Mode.SUPSET:
        defined = dom_f >= im_g
    elif mode is Mode.OVERLAP:
        defined = bool(dom_f & im_g)
    elif mode is Mode.EXACT_IMAGE:
        defined = dom_f == im_g
    else:
        defined = dom_f == set(g.codomain)
    if not defined:
        return None
    pre = Prefunction(f.ground, {p: fd[q] for p, q in gd.items() if q in dom_f})
    return PartialFn(pre, f.codomain) if isinstance(f, PartialFn) else pre


class TestComposeOracle:
    @pytest.mark.parametrize("maps, modes, cases", [
        (tuple(_every_prefunction(X3)), (Mode.SUPSET, Mode.OVERLAP, Mode.EXACT_IMAGE), 63 * 63 * 3),
        (tuple(_every_partial_fn(X2)), tuple(Mode), 14 * 14 * 4),
    ], ids=["prefunctions-on-3", "partial-functions-on-2"])
    def test_every_pair_in_every_mode(self, maps, modes, cases):
        seen = 0
        for f, g in iproduct(maps, repeat=2):
            for mode in modes:
                assert compose_maps(f, g, mode) == _expected_composite(f, g, mode), (f, g, mode)
                seen += 1
        assert seen == cases


def _from_points(m):
    """``m`` built again from its points through the public constructors."""
    pre = Prefunction(m.ground, m.assignment)
    return PartialFn(pre, m.codomain) if isinstance(m, PartialFn) else pre


class TestPositionsAndPoints:
    # maps derived from checked maps are built from ground positions; each
    # must equal, and hash like, the same map built from its points

    @pytest.mark.parametrize("full, modes", [
        (full_pretransformation_magma, (Mode.SUPSET, Mode.OVERLAP, Mode.EXACT_IMAGE)),
        (full_transformation_magma, tuple(Mode)),
    ], ids=["prefunctions", "partial-functions"])
    def test_every_composite_on_three_points(self, full, modes):
        members = full(X3).members
        defined = 0
        for f in members:
            built = _from_points(f)
            assert f == built and hash(f) == hash(built)
            for g, mode in iproduct(members, modes):
                h = compose_maps(f, g, mode)
                if h is not None:
                    built = _from_points(h)
                    assert h == built and hash(h) == hash(built), (f, g, mode)
                    defined += 1
        assert defined > len(members)

    def test_pre_of_a_function(self):
        for f in full_transformation_magma(X3).members:
            built = Prefunction(X3, f.assignment)
            assert f.pre == built and hash(f.pre) == hash(built)

    def test_builder_refuses_what_positions_can_break(self):
        with pytest.raises(ValueError, match="^codomain must contain the image$"):
            maps._map(X3, (1, None, 2), (1,))
        with pytest.raises(ValueError, match="^a prefunction must have a non-empty domain$"):
            maps._map(X3, (None, None, None))
        with pytest.raises(ValueError, match="^codomain must contain the image$"):
            PartialFn(Prefunction(X3, {1: 2, 3: 3}), (2,))
        with pytest.raises(ValueError, match="^a prefunction must have a non-empty domain$"):
            Prefunction(X3, ())


class TestEncoding:
    def test_values_are_ground_positions(self):
        f = Prefunction(X3, {1: 3, 3: 3})
        assert f.values == (2, None, 2)
        assert f.assignment == ((1, 3), (3, 3))

    def test_mapping_and_pairs_in_any_order_agree(self):
        pairs = ((1, 2), (2, 3), (3, 1))
        f = Prefunction(X3, dict(pairs))
        for order in permutations(pairs):
            g = Prefunction(X3, order)
            assert g == f and hash(g) == hash(f)
            assert Prefunction(X3, dict(order)) == f

    def test_partial_function_is_not_its_prefunction(self):
        pre = Prefunction(X2, {1: 2})
        fn = PartialFn(pre, X2)
        assert fn != pre and pre != fn
        assert fn.pre == pre
        assert fn.as_dict() == {1: 2}

    def test_call_off_the_domain_or_ground(self):
        f = Prefunction(X3, {1: 2, 3: 3})
        assert f(1) == 2 and f(3) == 3
        for p in (2, 7):
            with pytest.raises(KeyError):
                f(p)
        with pytest.raises(KeyError):
            PartialFn(f, X3)(2)

    def test_full_transformation_member_names(self):
        assert full_transformation_magma(X2).member_names() == (
            "Id[1]", "[1>1|cod=1,2]", "[1>2|cod=2]", "[1>2|cod=1,2]", "[2>1|cod=1]",
            "[2>1|cod=1,2]", "Id[2]", "[2>2|cod=1,2]", "[1>1,2>1|cod=1]",
            "[1>1,2>1|cod=1,2]", "Id[1,2]", "[1>2,2>1|cod=1,2]", "[1>2,2>2|cod=2]",
            "[1>2,2>2|cod=1,2]",
        )


class TestAssociativityLaws:
    # composition under the domain-contains-image rule is associative
    # where both bracketings exist, and definedness propagates one way
    @given(prefunctions(), prefunctions(), prefunctions())
    def test_defined_bracketings_agree(self, f, g, h):
        fg_h = compose_maps(compose_maps(f, g), h) if compose_maps(f, g) else None
        f_gh = compose_maps(f, compose_maps(g, h)) if compose_maps(g, h) else None
        if fg_h is not None and f_gh is not None:
            assert fg_h == f_gh

    @given(prefunctions(), prefunctions(), prefunctions())
    def test_chained_pairs_make_both_bracketings(self, f, g, h):
        if compose_maps(f, g) is not None and compose_maps(g, h) is not None:
            assert compose_maps(compose_maps(f, g), h) is not None
            assert compose_maps(f, compose_maps(g, h)) is not None

    @given(prefunctions(), prefunctions(), prefunctions())
    def test_left_bracketing_forces_right(self, f, g, h):
        fg = compose_maps(f, g)
        if fg is not None and compose_maps(fg, h) is not None:
            gh = compose_maps(g, h)
            assert gh is not None and compose_maps(f, gh) is not None

    @given(prefunctions(), prefunctions())
    def test_image_shrinks_under_composition(self, f, g):
        fg = compose_maps(f, g)
        if fg is not None:
            assert set(f.image) >= set(fg.image)

    def test_right_bracketing_does_not_force_left(self):
        f = h = identity_pretransformation(X2, (1,))
        g = identity_pretransformation(X2, X2)
        gh = compose_maps(g, h)
        assert compose_maps(f, gh) is not None
        assert compose_maps(f, g) is None


class TestFullMagmas:
    def test_pretransformation_sizes(self):
        assert full_pretransformation_magma((1,)).size == 1
        assert full_pretransformation_magma(X2).size == 3 ** 2 - 1
        assert full_pretransformation_magma(X3).size == 4 ** 3 - 1

    def test_bound(self):
        with pytest.raises(BoundExceeded):
            full_pretransformation_magma(tuple(range(5)))

    def test_transformation_size_against_direct_enumeration(self):
        # oracle: choose the value (or absence) of each point, then any
        # codomain between the image and the whole ground set
        expected = 0
        for choice in iproduct(range(3), repeat=2):
            pairs = {p: X2[c] for p, c in zip(X2, choice) if c < 2}
            if not pairs:
                continue
            image = set(pairs.values())
            expected += 2 ** (2 - len(image))
        a = full_transformation_magma(X2)
        assert a.size == expected

    def test_transformation_members_respect_invariant(self):
        for m in full_transformation_magma(X2).members:
            assert set(m.image) <= set(m.codomain)

    def test_full_pretransformation_magma_is_closed_and_domain_closed(self):
        a = full_pretransformation_magma(X2)
        assert is_closed(a) is True
        assert is_domain_pretransformation_magma(a) is True


class TestClosure:
    def test_two_overlapping_identities(self):
        a = MapMagma(
            X3,
            (
                identity_pretransformation(X3, (1, 2)),
                identity_pretransformation(X3, (2, 3)),
            ),
        )
        assert is_closed(a) is True

    def test_single_identity(self):
        g = identity_pretransformation(X2, X2)
        assert is_closed(MapMagma(X2, (g,))) is True

    def test_self_composition_undefined_is_closed(self):
        f = Prefunction(X2, {1: 2})
        assert is_closed(MapMagma(X2, (f,))) is True

    def test_witness_pair(self):
        # the swap composed with itself is the missing full identity
        swap = Prefunction(X2, {1: 2, 2: 1})
        a = MapMagma(X2, (swap,))
        w = is_closed(a)
        assert isinstance(w, Witness) and w.kind == "not-closed"
        assert w.elements == (0, 0)


class TestTransformationSemigroupoid:
    def test_mismatched_identities(self):
        f = identity_transformation(X2, (1,))
        g = identity_transformation(X2, X2)
        a = MapMagma(X2, (f, g))
        w = is_transformation_semigroupoid(a)
        assert isinstance(w, Witness) and w.kind == "dom-cod-mismatch"
        # the offending ordered pair is (g, f): dom(g) covers im(f) but
        # cod(f) differs from dom(g)
        assert w.elements == (a.member_index(g), a.member_index(f))

    def test_singleton_identity(self):
        a = MapMagma(X2, (identity_transformation(X2, X2),))
        assert is_transformation_semigroupoid(a) is True

    def test_requires_functions(self):
        with pytest.raises(PreconditionError):
            is_transformation_semigroupoid(
                MapMagma(X2, (identity_pretransformation(X2, X2),))
            )

    def test_fact_requires_dom_equal_cod_for_composition(self):
        # in a transformation semigroupoid, f.g defined iff dom(f) = cod(g)
        f = identity_transformation(X2, (1,))
        a = MapMagma(X2, (f,))
        assert is_transformation_semigroupoid(a) is True
        assert compose_maps(f, f) == f


class TestTransformationPoloid:
    def test_single_identity(self):
        a = MapMagma(X2, (identity_transformation(X2, X2),))
        assert is_transformation_poloid(a) is True

    def test_missing_domain_identity(self):
        f = PartialFn(Prefunction(X2, {1: 2}), (2,))
        a = MapMagma(X2, (f, identity_transformation(X2, (2,))))
        w = is_transformation_poloid(a)
        assert isinstance(w, Witness) and w.kind == "missing-unit"
        assert w.elements == (a.member_index(f),)

    def test_precondition_reported_distinctly(self):
        f = identity_transformation(X2, (1,))
        g = identity_transformation(X2, X2)
        a = MapMagma(X2, (f, g))
        with pytest.raises(PreconditionError) as exc:
            is_transformation_poloid(a)
        assert type(exc.value) is PreconditionError
        assert str(exc.value) == "not a transformation semigroupoid"
        assert exc.value.witness == Witness(
            "dom-cod-mismatch", (a.member_index(g), a.member_index(f))
        )

    def test_units_and_local_identities(self):
        # member identities act as units and compose with their member;
        # the constant needs the full codomain so that its followers'
        # domains can match it
        a = MapMagma(
            X2,
            (
                identity_transformation(X2, (1, 2)),
                PartialFn(Prefunction(X2, {1: 1, 2: 1}), (1, 2)),
            ),
        )
        assert is_transformation_semigroupoid(a) is True
        assert is_closed(a) is True
        assert is_transformation_poloid(a) is True
        for f in a.members:
            dom_id = identity_transformation(X2, f.domain)
            cod_id = identity_transformation(X2, f.codomain)
            assert compose_maps(f, dom_id) == f
            assert compose_maps(cod_id, f) == f
            for g in a.members:
                for e in (dom_id, cod_id):
                    if compose_maps(e, g) is not None:
                        assert compose_maps(e, g) == g
                    if compose_maps(g, e) is not None:
                        assert compose_maps(g, e) == g


class TestDomainPretransformationMagma:
    def test_two_overlapping_identities(self):
        a = MapMagma(
            X3,
            (
                identity_pretransformation(X3, (1, 2)),
                identity_pretransformation(X3, (2, 3)),
            ),
        )
        assert is_domain_pretransformation_magma(a) is True

    def test_constant_without_identity(self):
        g = Prefunction(X2, {1: 1, 2: 1})
        a = MapMagma(X2, (g,))
        w = is_domain_pretransformation_magma(a)
        assert isinstance(w, Witness) and w.kind == "missing-unit"

    def test_requires_closure(self):
        # the swap composed with itself is the full identity, not a member
        a = MapMagma(X2, (Prefunction(X2, {1: 2, 2: 1}),))
        with pytest.raises(PreconditionError) as exc:
            is_domain_pretransformation_magma(a)
        assert type(exc.value) is PreconditionError
        assert str(exc.value) == "not closed under composition"
        assert exc.value.witness == Witness("not-closed", (0, 0))

    def test_requires_prefunctions(self):
        with pytest.raises(PreconditionError):
            is_domain_pretransformation_magma(
                MapMagma(X2, (identity_transformation(X2, X2),))
            )


class TestAsPartialMagma:
    def test_two_overlapping_identities_diagonal(self):
        a = MapMagma(
            X3,
            (
                identity_pretransformation(X3, (1, 2)),
                identity_pretransformation(X3, (2, 3)),
            ),
        )
        m = as_partial_magma(a)
        assert m.table == ((0, None), (None, 1))

    def test_single_point_full_magma_is_trivial(self):
        m = as_partial_magma(full_pretransformation_magma((1,)))
        assert m.size == 1 and m.table == ((0,),)

    def test_requires_closure(self):
        swap = Prefunction(X2, {1: 2, 2: 1})
        with pytest.raises(PreconditionError):
            as_partial_magma(MapMagma(X2, (swap,)))

    def test_nowhere_defined_is_refused_by_the_table_constructor(self):
        with pytest.raises(PreconditionError, match="^the operation must be defined on at least one pair$"):
            as_partial_magma(MapMagma(X2, (Prefunction(X2, {1: 2}),)))

    def test_deterministic_member_order(self):
        members = (
            identity_pretransformation(X2, (2,)),
            identity_pretransformation(X2, (1,)),
        )
        a = MapMagma(X2, members)
        b = MapMagma(X2, members[::-1])
        assert a.members == b.members
        assert as_partial_magma(a) == as_partial_magma(b)


class TestMapMagmaFiles:
    EXAMPLE = (
        "set: 1 2\n"
        "mode: supset\n"
        "map f: 1->1\n"
        "map g: 1->1 2->2\n"
    )

    def test_parse(self):
        a = parse_map_magma(self.EXAMPLE)
        assert a.mode is Mode.SUPSET
        assert a.size == 2
        assert a.member_names() == ("f", "g")

    def test_round_trip(self):
        a = parse_map_magma(self.EXAMPLE)
        assert parse_map_magma(serialize_map_magma(a)) == a

    def test_round_trip_with_codomains(self):
        text = (
            "set: 1 2\n"
            "mode: codomain\n"
            "map f: 1->1\n"
            "cod f: 1\n"
            "map g: 1->1 2->1\n"
            "cod g: 1\n"
        )
        a = parse_map_magma(text)
        assert isinstance(a.members[0], PartialFn)
        assert parse_map_magma(serialize_map_magma(a)) == a

    def test_mixed_codomains_rejected(self):
        with pytest.raises(ParseError):
            parse_map_magma(
                "set: 1 2\nmode: supset\nmap f: 1->1\ncod f: 1\nmap g: 2->2\n"
            )

    def test_duplicate_cod_point_rejected(self):
        with pytest.raises(ParseError):
            parse_map_magma("set: 1 2\nmode: supset\nmap f: 1->1\ncod f: 1 1\n")

    def test_cod_must_cover_image(self):
        with pytest.raises(ParseError):
            parse_map_magma("set: 1 2\nmode: supset\nmap f: 1->2\ncod f: 1\n")

    def test_codomain_mode_needs_codomains(self):
        with pytest.raises(ParseError):
            parse_map_magma("set: 1 2\nmode: codomain\nmap f: 1->1\n")

    @pytest.mark.parametrize("text, message", [
        ("mode: supset\nset: 1\nmap f: 1->1\n", "map-magma file must start with a 'set:' line"),
        ("set: 1\nmap f: 1->1\nmode: supset\n", "second line must be a 'mode:' line"),
    ])
    def test_heads_come_first(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_map_magma(text)
        assert str(exc.value) == message

    def test_unknown_mode(self):
        with pytest.raises(ParseError):
            parse_map_magma("set: 1\nmode: sideways\nmap f: 1->1\n")

    def test_unknown_point(self):
        with pytest.raises(ParseError):
            parse_map_magma("set: 1 2\nmode: supset\nmap f: 1->3\n")

    def test_duplicate_map_name(self):
        with pytest.raises(ParseError):
            parse_map_magma("set: 1\nmode: supset\nmap f: 1->1\nmap f: 1->1\n")

    def test_duplicate_member_rejected(self):
        with pytest.raises(ParseError):
            parse_map_magma("set: 1\nmode: supset\nmap f: 1->1\nmap g: 1->1\n")


P2 = ("1", "2")
_HEAD = "set: 1 2\nmode: supset\n"


class TestPositionReaders:
    # the constructors and the parser read points into positions through
    # the same helpers, so each refusal has one message, which the parser
    # prefixes with the map's name

    @pytest.mark.parametrize("pairs, cod, body, message", [
        ([("1", "3")], None, "map f: 1->3\n", "assignment pair ('1', '3') leaves the ground set"),
        ([("3", "1")], None, "map f: 3->1\n", "assignment pair ('3', '1') leaves the ground set"),
        ([("1", "1"), ("1", "2")], None, "map f: 1->1 1->2\n", "point '1' assigned twice"),
        ([], None, "map f:\n", "a prefunction must have a non-empty domain"),
        ([], ("5",), "map f:\ncod f: 5\n", "a prefunction must have a non-empty domain"),
        ([("1", "1")], ("1", "5"), "map f: 1->1\ncod f: 1 5\n",
         "codomain point '5' not in the ground set"),
        ([("1", "2")], ("1", "1", "5"), "map f: 1->2\ncod f: 1 1 5\n",
         "codomain point '5' not in the ground set"),
        ([("1", "1")], ("1", "1"), "map f: 1->1\ncod f: 1 1\n", "duplicate codomain point"),
        ([("1", "2")], ("1", "1"), "map f: 1->2\ncod f: 1 1\n", "duplicate codomain point"),
        ([("1", "2")], ("1",), "map f: 1->2\ncod f: 1\n", "codomain must contain the image"),
    ], ids=["leaves-image", "leaves-domain", "assigned-twice", "empty", "empty-before-cod",
            "cod-point", "cod-point-before-duplicate", "duplicate-cod", "duplicate-before-image",
            "image"])
    def test_constructors_and_parser_give_one_message(self, pairs, cod, body, message):
        with pytest.raises(ValueError) as exc:
            pre = Prefunction(P2, pairs)
            if cod is not None:
                PartialFn(pre, cod)
        assert str(exc.value) == message
        with pytest.raises(ParseError) as exc:
            parse_map_magma(_HEAD + "map g: 1->1 2->2\n" + body)
        assert str(exc.value) == f"map 'f': {message}"

    def test_a_mapping_reads_like_its_pairs(self):
        with pytest.raises(ValueError, match=r"^assignment pair \('1', '3'\) leaves the ground set$"):
            Prefunction(P2, {"1": "3"})
        assert Prefunction(P2, {"2": "1"}) == Prefunction(P2, [("2", "1")])

    @pytest.mark.parametrize("full", [full_pretransformation_magma, full_transformation_magma])
    @pytest.mark.parametrize("points", [("a", "b"), ("a", "b", "c")])
    def test_full_magmas_round_trip(self, full, points):
        a = full(points)
        back = parse_map_magma(serialize_map_magma(a))
        assert back == MapMagma(a.ground, a.members, a.mode, a.member_names())
        assert [hash(m) for m in back.members] == [hash(m) for m in a.members]
        assert serialize_map_magma(back) == serialize_map_magma(a)


def _member_key(m):
    # the canonical member order as it was first written, from each
    # member's domain fact: a reference for the key MapMagma builds
    dom_mask = sum(1 << i for i in m._dom)
    cod_mask = sum(1 << i for i in m._cod) if isinstance(m, PartialFn) else -1
    return (dom_mask, m.values, cod_mask)


def _embedded_map_magmas():
    # the translation images embed writes, for every poloid class on at
    # most four elements and every normal class on at most three
    from poloids.enumeration import filtered
    from poloids.represent import cayley_embedding, embed_right_poloid, serialize_embedding

    found = [cayley_embedding(m) for n in range(1, 5) for m in filtered(n, "poloid", True)]
    found += [embed_right_poloid(m) for n in range(1, 4) for m in filtered(n, "normal", True)]
    return [serialize_embedding(e) for e in found]


class TestCanonicalOrder:
    # MapMagma orders its members by a key it builds from their values and
    # codomain positions; the reference key reads the domain fact instead

    def _check(self, a):
        keys = [_member_key(m) for m in a.members]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        names, k = a.member_names(), len(a.members)
        for order in (range(k - 1, -1, -1), [*range(1, k, 2), *range(0, k, 2)]):
            members, renamed = tuple(a.members[i] for i in order), tuple(names[i] for i in order)
            b = MapMagma(a.ground, members, a.mode, renamed)
            assert b.members == tuple(sorted(members, key=_member_key))
            assert b.names == tuple(renamed[members.index(m)] for m in b.members)

    @pytest.mark.parametrize("full", [full_pretransformation_magma, full_transformation_magma])
    @pytest.mark.parametrize("points", [(1,), X2, X3])
    def test_full_magmas(self, full, points):
        self._check(full(points))

    def test_parsed_embeddings(self):
        texts = _embedded_map_magmas()
        assert len(texts) == 55 + 11 + 3 + 1 + 29 + 5 + 1
        for text in texts:
            self._check(parse_map_magma(text))

    @pytest.mark.parametrize("fn", [False, True])
    def test_duplicate_members(self, fn):
        f, g, h = (identity_pretransformation(X2, dom) for dom in [(1,), (1,), (2,)])
        if fn:
            f, g, h = (PartialFn(m, (1, 2)) for m in (f, g, h))
            assert MapMagma(X2, (f, h, PartialFn(g.pre, (1,)))).size == 3  # another codomain
        assert f is not g
        with pytest.raises(ValueError, match="^duplicate members$"):
            MapMagma(X2, (f, h, g))


class TestModeIsAMode:
    # a mode given as its string, or as anything but a Mode, would reach
    # the composition as a bare ValueError and serialize_map_magma as an
    # AttributeError; the constructor refuses it and names it

    @pytest.mark.parametrize("mode", ["supset", "exact-image", "SUPSET", None, 0])
    def test_refused(self, mode):
        f = identity_pretransformation(X2, (1,))
        with pytest.raises(ValueError, match=rf"^unknown mode {mode!r}$"):
            MapMagma(X2, (f,), mode)


class TestSerializeRefusesWhatDoesNotReadBack:
    # a point whose str, or a name, that is not a file token would read
    # back as another magma, so the writer refuses it

    @pytest.mark.parametrize("ground", [("p\xa0q", "r"), ("p q", "r"), ("-", "r"), ("p#", "r")])
    def test_point(self, ground):
        for names in (("f",), None):
            a = MapMagma(ground, (identity_pretransformation(ground, ("r",)),), names=names)
            with pytest.raises(ValueError) as exc:
                serialize_map_magma(a)
            assert str(exc.value) == f"invalid point token {ground[0]!r}"

    def test_point_written_through_str(self):
        ground = ((1, 2), 3)
        a = MapMagma(ground, (identity_pretransformation(ground, (3,)),))
        with pytest.raises(ValueError, match=r"^invalid point token '\(1, 2\)'$"):
            serialize_map_magma(a)

    @pytest.mark.parametrize("ground", [(1, "1"), ("r", 2, "2")])
    def test_points_written_alike(self, ground):
        # distinct points whose str agree would write a set line with a
        # repeated token, which the parser refuses
        a = MapMagma(ground, (identity_pretransformation(ground, (ground[0],)),))
        with pytest.raises(ValueError) as exc:
            serialize_map_magma(a)
        assert str(exc.value) == f"point token {str(ground[-1])!r} is written for two points"

    @pytest.mark.parametrize("name", ["f g", "f\xa0g", "-", "", "a:b", "a#b"])
    def test_map_name(self, name):
        a = MapMagma(P2, (identity_pretransformation(P2, ("1",)),), names=(name,))
        with pytest.raises(ValueError) as exc:
            serialize_map_magma(a)
        assert str(exc.value) == f"invalid map name {name!r}"

    def test_tokens_are_written(self):
        ground = ("p->q", "r")
        a = MapMagma(ground, (identity_pretransformation(ground, ("r",)),), names=("f->g",))
        assert parse_map_magma(serialize_map_magma(a)) == a


class TestArrowsInPoints:
    # a point may contain "->": a pair splits at the one arrow that leaves
    # a point on both sides

    def test_pair_splits_where_both_sides_are_points(self):
        a = parse_map_magma("set: a->b c\nmode: supset\nmap f: a->b->a->b c->c\n")
        assert a.members[0].as_dict() == {"a->b": "a->b", "c": "c"}

    @pytest.mark.parametrize("points", [("a->b", "c"), ("a", "b->c", "c->"), ("->", "a")])
    def test_every_prefunction_round_trips(self, points):
        for f in _every_prefunction(points):
            a = MapMagma(points, (f,))
            assert parse_map_magma(serialize_map_magma(a)).members == (f,)

    def test_colliding_default_names_are_primed_and_round_trip(self):
        # a->b>c and a>b->c both render [a>b>c]; the later member is primed
        points = ("a", "b>c", "a>b", "c")
        a = MapMagma(points, (Prefunction(points, {"a>b": "c"}), Prefunction(points, {"a": "b>c"})))
        assert a.member_names() == ("[a>b>c]", "[a>b>c]'")
        back = parse_map_magma(serialize_map_magma(a))
        assert (back.members, back.member_names()) == (a.members, a.member_names())

    def test_ambiguous_pair_is_named(self):
        with pytest.raises(ParseError, match=r"map 'f': ambiguous pair 'a->b->c'"):
            parse_map_magma("set: a b->c a->b c\nmode: supset\nmap f: a->b->c\n")

    def test_pair_without_a_fitting_split_reports_the_first(self):
        # as before: the pair is cut at its first arrow and the constructor names it
        with pytest.raises(ParseError, match=r"\('a', 'b->c'\) leaves the ground set"):
            parse_map_magma("set: a c\nmode: supset\nmap f: a->b->c\n")

    @pytest.mark.parametrize("line", ["a->b -> f", "a->b  ->  f", "a->b\t->\tf"])
    def test_iso_line_splits_at_whitespace(self, line):
        text = "set: a->b\nmode: supset\nmap f: a->b->a->b\niso:\n" + line + "\n"
        assert parse_map_magma(text).member_names() == ("f",)

    def test_iso_heading_with_a_line_after_its_colon_is_bad_input(self):
        # the block starts at a bare 'iso:' or 'iso :'
        with pytest.raises(ParseError, match=r"^expected 'map <name>:' or 'cod <name>:'"):
            parse_map_magma("set: x\nmode: supset\nmap f: x->x\niso: x -> f\n")

    @pytest.mark.parametrize("line", ["x->f", "x ->f", "x-> f", "x -> f"])
    def test_iso_lines_without_arrows_in_names_read_as_before(self, line):
        text = "set: x\nmode: supset\nmap f: x->x\niso:\n" + line + "\n"
        assert parse_map_magma(text).member_names() == ("f",)
