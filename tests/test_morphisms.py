from __future__ import annotations

from itertools import permutations

import pytest

from poloids import (
    ActionSpec,
    BoundExceeded,
    Morphism,
    PartialFn,
    PartialMagma,
    PreconditionError,
    Prefunction,
    Witness,
    as_partial_magma,
    cayley_embedding,
    classify,
    find_isomorphism,
    identity_pretransformation,
    identity_transformation,
    image_poloid,
    is_homomorphism,
    is_isomorphism,
    is_poloid_action,
    is_subpoloid,
    parse_morphism,
    reflects_definedness,
    serialize_morphism,
)

import poloids.maps as maps
import poloids.morphisms as morphisms
from poloids.classify import _Analysis

from conftest import (
    band_monoid, magma, pair_groupoid2, right_zero, trivial_group, two_unit_groupoid, z2, z3,
)


def identity_morphism(m):
    return Morphism(m, m, tuple(range(m.size)))


class TestMorphismValues:
    @pytest.mark.parametrize("mapping", [(0.0, 1.0), (0, True), (0, "1"), (0, 2), (0, -1)])
    def test_mapping_holds_target_indices(self, mapping):
        with pytest.raises(ValueError, match="not a target element index"):
            Morphism(z2(), z2(), mapping)

    def test_mapping_covers_the_source(self):
        with pytest.raises(ValueError, match="^mapping must cover every source element$"):
            Morphism(z2(), z2(), (0,))


class TestHomomorphism:
    def test_identity_on_any_poloid(self, poloid_corpus):
        for m in poloid_corpus:
            assert is_homomorphism(identity_morphism(m)) is True

    def test_collapse_two_unit_groupoid(self):
        m = Morphism(two_unit_groupoid(), trivial_group(), (0, 0))
        assert is_homomorphism(m) is True

    def test_collapse_z2(self):
        m = Morphism(z2(), trivial_group(), (0, 0))
        assert is_homomorphism(m) is True

    def test_swap_automorphism(self):
        m = Morphism(two_unit_groupoid(), two_unit_groupoid(), (1, 0))
        assert is_homomorphism(m) is True

    def test_product_mismatch_witness(self):
        # sending the unit of Z2 to the non-unit breaks products
        m = Morphism(z2(), z2(), (1, 0))
        w = is_homomorphism(m)
        assert isinstance(w, Witness) and w.kind == "product-mismatch"

    def test_unit_image_witness(self):
        # e1 -> g in Z2: gg = e is fine for products?  no: e1e1 = e1 so
        # need gg = g, but gg = e, hence a product mismatch; use a
        # target with an absorbing element to isolate the unit clause
        target = band_monoid()  # {e, a}: aa = a
        src = trivial_group()
        m = Morphism(src, target, (1,))
        # products: ee = e maps to aa = a, fine; but a is not a unit
        w = is_homomorphism(m)
        assert isinstance(w, Witness) and w.kind == "unit-image"
        assert w.elements == (0,)

    def test_requires_poloid_source(self):
        with pytest.raises(PreconditionError):
            is_homomorphism(identity_morphism(right_zero(2)))

    def test_composition_of_homs_is_hom(self, poloid_corpus):
        # sampled triples p -> image -> trivial: embed by translations,
        # then collapse everything onto the unit
        triv = trivial_group()
        for m in poloid_corpus[:8]:
            e = cayley_embedding(m)
            target = as_partial_magma(e.image)
            first = Morphism(m, target, e.assignment)
            second = Morphism(target, triv, (0,) * target.size)
            assert is_homomorphism(first) is True
            assert is_homomorphism(second) is True
            composed = Morphism(m, triv, tuple(second.mapping[v] for v in first.mapping))
            assert is_homomorphism(composed) is True


class TestReflectsDefinedness:
    def test_identity(self, poloid_corpus):
        for m in poloid_corpus:
            assert reflects_definedness(identity_morphism(m)) is True

    def test_collapse_fails(self):
        m = Morphism(two_unit_groupoid(), trivial_group(), (0, 0))
        w = reflects_definedness(m)
        assert isinstance(w, Witness) and w.elements == (0, 1)

    def test_cayley_assignment_reflects(self, poloid_corpus):
        for m in poloid_corpus:
            e = cayley_embedding(m)
            target = as_partial_magma(e.image)
            hom = Morphism(m, target, e.assignment)
            assert reflects_definedness(hom) is True
            assert is_homomorphism(hom) is True


class TestImagePoloid:
    def test_identity_gives_source(self, poloid_corpus):
        for m in poloid_corpus:
            assert image_poloid(identity_morphism(m)) == m

    def test_cayley_assignment(self, poloid_corpus):
        for m in poloid_corpus[:8]:
            e = cayley_embedding(m)
            target = as_partial_magma(e.image)
            hom = Morphism(m, target, e.assignment)
            assert image_poloid(hom) == target

    def test_automorphism_image(self):
        m = Morphism(two_unit_groupoid(), two_unit_groupoid(), (1, 0))
        assert image_poloid(m) == two_unit_groupoid()

    def test_rejects_non_reflecting(self):
        m = Morphism(two_unit_groupoid(), trivial_group(), (0, 0))
        with pytest.raises(PreconditionError) as exc:
            image_poloid(m)
        assert type(exc.value) is PreconditionError
        assert str(exc.value) == "does not reflect definedness"
        assert exc.value.witness == Witness("definedness", (0, 1))

    def test_rejects_non_homomorphism(self):
        # sending the unit of Z2 to the non-unit breaks products
        m = Morphism(z2(), z2(), (1, 0))
        with pytest.raises(PreconditionError) as exc:
            image_poloid(m)
        assert type(exc.value) is PreconditionError
        assert str(exc.value) == "not a homomorphism"
        assert exc.value.witness == is_homomorphism(m) == Witness("product-mismatch", (0, 0))


class TestIsomorphism:
    def test_identity(self, poloid_corpus):
        for m in poloid_corpus:
            assert is_isomorphism(identity_morphism(m))

    def test_collapse_is_not(self):
        assert not is_isomorphism(Morphism(z2(), trivial_group(), (0, 0)))

    def test_bijection_between_non_poloids(self):
        # bijective, and a homomorphism of the tables, but no poloid map
        m = right_zero(2)
        assert find_isomorphism(m, m) is not None
        assert not is_isomorphism(identity_morphism(m))

    def test_cayley_assignment_is_iso(self, poloid_corpus):
        for m in poloid_corpus:
            e = cayley_embedding(m)
            target = as_partial_magma(e.image)
            assert is_isomorphism(Morphism(m, target, e.assignment))

    def test_one_analysis_per_magma(self, monkeypatch):
        analysed = []

        class Spy(_Analysis):
            def __init__(self, m):
                analysed.append(m)
                super().__init__(m)

        monkeypatch.setattr(morphisms, "_Analysis", Spy)
        source = z3()
        target = PartialMagma(("0", "1", "2"), source.table)
        assert is_isomorphism(Morphism(source, target, (0, 2, 1)))
        assert sorted(map(id, analysed)) == sorted([id(source), id(target)])

    def test_no_second_definedness_scan(self, monkeypatch, poloid_corpus):
        # between poloids a bijective homomorphism reflects definedness,
        # so is_isomorphism never scans for it
        calls = [0]
        scan = morphisms.reflects_definedness

        def counted(m):
            calls[0] += 1
            return scan(m)

        monkeypatch.setattr(morphisms, "reflects_definedness", counted)
        for m in poloid_corpus:
            assert is_isomorphism(identity_morphism(m))
            for f in permutations(range(m.size)):
                is_isomorphism(Morphism(m, m, f))
        assert calls[0] == 0

    def test_agrees_with_two_way_definition(self):
        # oracle: bijective between poloids, and a homomorphism both ways,
        # the inverse built here; every total map between same-size
        # classes among the poloid and right-poloid classes on 1-3 elements
        from itertools import product as maps_of

        from poloids.enumeration import filtered

        def two_way(m):
            n = m.source.size
            if n != m.target.size or len(set(m.mapping)) != n:
                return False
            src, tgt = _Analysis(m.source), _Analysis(m.target)
            if not src.verdict("poloid") or not tgt.verdict("poloid"):
                return False
            inverse = [0] * n
            for x, y in enumerate(m.mapping):
                inverse[y] = x
            back = Morphism(m.target, m.source, tuple(inverse))
            return bool(morphisms._homomorphism(m, src, tgt)) and bool(
                morphisms._homomorphism(back, tgt, src))

        checked = isos = 0
        for n in range(1, 4):
            classes = [*filtered(n, "poloid", up_to_iso=True),
                       *filtered(n, "right_poloid", up_to_iso=True)]
            for p in classes:
                for q in classes:
                    for f in maps_of(range(n), repeat=n):
                        m = Morphism(p, q, f)
                        expected = two_way(m)
                        assert is_isomorphism(m) == expected, (p, q, f)
                        checked += 1
                        isos += expected
        assert checked == 52600 and isos > 0


    def test_bijective_homomorphism_between_poloids_reflects(self):
        # a functor bijective on arrows is an isomorphism: between poloids
        # xy is defined exactly when vareps_x = eps_y, and a homomorphism
        # carries the effective units along, so a bijective one reflects
        # definedness; every bijection between the poloid classes on 1-4
        # elements
        from poloids.enumeration import filtered

        homs = 0
        for n in range(1, 5):
            classes = [(p, _Analysis(p)) for p in filtered(n, "poloid", up_to_iso=True)]
            for p, src in classes:
                for q, tgt in classes:
                    for f in permutations(range(n)):
                        m = Morphism(p, q, f)
                        if morphisms._homomorphism(m, src, tgt):
                            assert reflects_definedness(m) is True, (p, q, f)
                            homs += 1
        assert homs == 139


class TestFindIsomorphism:
    def test_z2_to_itself(self):
        iso = find_isomorphism(z2(), z2())
        assert iso is not None and iso.mapping == (0, 1)

    def test_z2_vs_band(self):
        assert find_isomorphism(z2(), band_monoid()) is None

    def test_lexicographically_first(self):
        # the three-unit discrete groupoid has all six permutations as
        # isomorphisms; the identity comes first
        from conftest import three_unit_discrete

        m = three_unit_discrete()
        iso = find_isomorphism(m, m)
        assert iso.mapping == (0, 1, 2)

    def test_symmetric(self, poloid_corpus):
        for p in poloid_corpus[:6]:
            for q in poloid_corpus[:6]:
                if p.size != q.size:
                    continue
                forward = find_isomorphism(p, q)
                backward = find_isomorphism(q, p)
                assert (forward is None) == (backward is None)

    def test_agrees_with_brute_force_at_size_two(self):
        # oracle: try every permutation directly.  All pairs of the first
        # 40 two-element tables, then, at three elements where the unit
        # flags of the profiles start to prune, every 997th table against
        # its six relabellings and the next sampled table; then, where
        # products land on later elements and so are checked after both
        # factors are placed, every poloid and right-poloid class on four
        # elements and every poloid class on five, each against a seeded
        # relabelling and the next class of its size
        import random
        from itertools import islice

        from poloids.enumeration import all_magmas, filtered

        def brute_force(p, q):
            n = p.size
            for perm in permutations(range(n)):
                if all(
                    (p.table[x][y] is None) == (q.table[perm[x]][perm[y]] is None)
                    and (p.table[x][y] is None or perm[p.table[x][y]] == q.table[perm[x]][perm[y]])
                    for x in range(n) for y in range(n)
                ):
                    return perm
            return None

        def relabelled(p, perm):
            table = [[None] * p.size for _ in range(p.size)]
            for x, row in enumerate(p.table):
                for y, xy in enumerate(row):
                    table[perm[x]][perm[y]] = None if xy is None else perm[xy]
            return PartialMagma(p.elements, table)

        mags = list(all_magmas(2))[:40]
        pairs = [(p, q) for p in mags for q in mags]
        sample = list(islice(all_magmas(3), 0, None, 997))
        assert len(sample) == 263
        for i, p in enumerate(sample):
            pairs += [(p, relabelled(p, perm)) for perm in permutations(range(3))]
            pairs.append((p, sample[(i + 1) % len(sample)]))
        assert len(pairs) == 1600 + 1841
        rng = random.Random(19)
        for classes in ([*filtered(4, "poloid", up_to_iso=True),
                         *filtered(4, "right_poloid", up_to_iso=True)],
                        list(filtered(5, "poloid", up_to_iso=True))):
            for i, p in enumerate(classes):
                perm = list(range(p.size))
                rng.shuffle(perm)
                pairs += [(p, relabelled(p, perm)), (p, classes[(i + 1) % len(classes)])]
        assert len(pairs) == 1600 + 1841 + 2 * (55 + 268 + 329)
        for p, q in pairs:
            expected = brute_force(p, q)
            found = find_isomorphism(p, q)
            assert (found is None) == (expected is None), (p, q)
            if found is not None:
                assert found.mapping == expected, (p, q)

    def test_bound(self):
        big = PartialMagmaOfSize(9)
        with pytest.raises(BoundExceeded):
            find_isomorphism(big, big)

    def test_size_mismatch(self):
        assert find_isomorphism(z2(), trivial_group()) is None


def PartialMagmaOfSize(n):
    from poloids import PartialMagma

    names = tuple(f"e{i}" for i in range(n))
    table = tuple(tuple(i if i == j else None for j in range(n)) for i in range(n))
    return PartialMagma(names, table)


class TestSubpoloid:
    def test_single_unit_inside_groupoid(self):
        assert is_subpoloid(two_unit_groupoid(), [0]) is True

    def test_whole_carrier(self, poloid_corpus):
        for m in poloid_corpus:
            assert is_subpoloid(m, range(m.size)) is True

    def test_whole_carrier_of_non_poloid(self):
        w = is_subpoloid(right_zero(2), [0, 1])
        assert isinstance(w, Witness)

    def test_closure_failure(self):
        w = is_subpoloid(z2(), [1])
        assert isinstance(w, Witness) and w.kind == "not-closed"
        assert w.elements == (1, 1)

    def test_nowhere_defined_subset(self):
        # the isolated element u is closed but carries no operation
        iso = magma("au", [["u", None], [None, None]])
        w = is_subpoloid(iso, [1])
        assert isinstance(w, Witness) and w.kind == "empty-operation"

    @pytest.mark.parametrize("subset", [[0.0], [0, 1.0], [True], [2], [-1]])
    def test_subset_holds_element_indices(self, subset):
        with pytest.raises(ValueError, match="not an element index"):
            is_subpoloid(z2(), subset)

    def test_empty_subset(self):
        with pytest.raises(ValueError, match="non-empty"):
            is_subpoloid(z2(), [])

    def test_local_unit_not_global_is_rejected(self):
        # {u} restricts to a poloid (uu = u), but u is not a unit of
        # the whole magma since ua = u differs from a
        m = magma("ua", [["u", "u"], [None, "a"]])
        w = is_subpoloid(m, [0])
        assert isinstance(w, Witness) and w.kind == "non-global-unit"


class TestActions:
    def test_cayley_embedding_as_action(self, poloid_corpus):
        for m in poloid_corpus:
            e = cayley_embedding(m)
            spec = ActionSpec(m, m.elements, tuple(e.member_for(i) for i in range(m.size)))
            result = is_poloid_action(spec)
            assert result.ok and result.closure_added == ()

    def test_z2_swap_action(self):
        X = (1, 2)
        spec = ActionSpec(
            z2(),
            X,
            (
                identity_transformation(X, X),
                PartialFn(Prefunction(X, {1: 2, 2: 1}), X),
            ),
        )
        assert is_poloid_action(spec)

    def test_constant_action_fails(self):
        X = (1, 2)
        spec = ActionSpec(
            z2(),
            X,
            (
                identity_transformation(X, X),
                PartialFn(Prefunction(X, {1: 1, 2: 1}), X),
            ),
        )
        result = is_poloid_action(spec)
        assert not result.ok
        assert result.witness.kind == "product-mismatch"
        assert result.witness.elements == (1, 1)

    def test_non_identity_unit_fails(self):
        X = (1, 2)
        # both elements of the two-unit groupoid act by the same
        # non-identity map: products match, units do not
        const = PartialFn(Prefunction(X, {1: 1, 2: 1}), (1,))
        spec = ActionSpec(two_unit_groupoid(), X, (const, const))
        result = is_poloid_action(spec)
        assert not result.ok
        assert result.witness.kind == "non-identity-unit"

    def test_prefunction_variant(self):
        X = (1, 2)
        spec = ActionSpec(
            z2(),
            X,
            (
                identity_pretransformation(X, X),
                Prefunction(X, {1: 2, 2: 1}),
            ),
        )
        assert is_poloid_action(spec)

    def test_closure_is_reported(self):
        X = (1, 2, 3)
        # the trivial group acting by a non-idempotent map cannot be an
        # action, but its closure is computed and reported
        shift = Prefunction(X, {1: 2, 2: 3, 3: 3})
        spec = ActionSpec(trivial_group(), X, (shift,))
        result = is_poloid_action(spec)
        assert not result.ok
        assert result.closure_added != ()

    def test_monoid_action_matches_classical_laws(self, poloid_corpus):
        # for single-unit poloids acting by total maps, the check agrees
        # with (xy).t = x.(y.t) and e.t = t
        X = (1, 2)
        total_maps = [
            PartialFn(Prefunction(X, {1: a, 2: b}), X) for a in X for b in X
        ]
        single_unit = [m for m in poloid_corpus if len(classify(m).units) == 1]
        for m in single_unit[:4]:
            if not classify(m).verdicts["total"]:
                continue
            e = classify(m).units[0]
            for attempt in range(min(4, len(total_maps))):
                maps = tuple(
                    total_maps[(attempt + i) % len(total_maps)] for i in range(m.size)
                )
                maps = maps[:e] + (identity_transformation(X, X),) + maps[e + 1:]
                spec = ActionSpec(m, X, maps)
                result = is_poloid_action(spec)
                classical = all(
                    maps[m.table[x][y]](t) == maps[x](maps[y](t))
                    for x in range(m.size)
                    for y in range(m.size)
                    for t in X
                ) and all(maps[e](t) == t for t in X)
                assert bool(result) == classical

    def test_composes_each_pair_once(self, monkeypatch):
        # the closure and the image's Cayley table read one MapMagma.table
        m = pair_groupoid2()
        e = cayley_embedding(m)
        spec = ActionSpec(m, m.elements, tuple(e.member_for(i) for i in range(m.size)))
        calls = [0]
        original = maps.compose_maps

        def counted(f, g, mode=maps.Mode.SUPSET):
            calls[0] += 1
            return original(f, g, mode)

        monkeypatch.setattr(maps, "compose_maps", counted)
        monkeypatch.setattr(morphisms, "compose_maps", counted)
        assert is_poloid_action(spec)
        assert calls[0] == m.size ** 2 == 16

    def test_rejects_a_map_count_other_than_the_poloid_size(self):
        X = (1, 2)
        with pytest.raises(ValueError):
            ActionSpec(z2(), X, (identity_transformation(X, X),))

    def test_rejects_mixed_kinds(self):
        X = (1, 2)
        with pytest.raises(ValueError):
            ActionSpec(z2(), X, (identity_transformation(X, X), Prefunction(X, {1: 2, 2: 1})))

    def test_rejects_maps_on_another_ground_set(self):
        X, Y = (1, 2), (1, 2, 3)
        with pytest.raises(ValueError):
            ActionSpec(z2(), X, (identity_transformation(X, X), identity_transformation(Y, X)))

    def test_requires_poloid(self):
        X = (1, 2)
        with pytest.raises(PreconditionError):
            is_poloid_action(
                ActionSpec(right_zero(2), X, (identity_pretransformation(X, X),) * 2)
            )


class TestMorphismFiles:
    def test_round_trip(self):
        src, dst = two_unit_groupoid(), trivial_group()
        m = Morphism(src, dst, (0, 0))
        text = serialize_morphism(m)
        assert parse_morphism(src, dst, text) == m

    def test_round_trip_with_arrows_in_element_names(self):
        m = magma(("a->b", "c"), [["a->b", None], [None, "c"]])
        for mapping in ((0, 1), (1, 0)):
            h = Morphism(m, m, mapping)
            assert parse_morphism(m, m, serialize_morphism(h)) == h

    def test_parse(self):
        src, dst = two_unit_groupoid(), trivial_group()
        m = parse_morphism(src, dst, "hom: e1 -> e\nhom: e2 -> e\n")
        assert m.mapping == (0, 0)

    def test_missing_line(self):
        from poloids import ParseError

        with pytest.raises(ParseError):
            parse_morphism(two_unit_groupoid(), trivial_group(), "hom: e1 -> e\n")

    def test_unknown_elements(self):
        from poloids import ParseError

        with pytest.raises(ParseError):
            parse_morphism(two_unit_groupoid(), trivial_group(), "hom: bogus -> e\n")
