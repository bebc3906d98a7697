from __future__ import annotations

from itertools import combinations, combinations_with_replacement, permutations, product

import pytest

from poloids import (
    MapMagma,
    PartialFn,
    PreconditionError,
    Prefunction,
    Witness,
    as_partial_magma,
    attach_codomains,
    cayley_embedding,
    classify,
    compose_maps,
    effective_unit_maps,
    embed_right_poloid,
    find_isomorphism,
    full_pretransformation_magma,
    full_transformation_magma,
    identity_pretransformation,
    identity_transformation,
    is_domain_pretransformation_magma,
    is_transformation_poloid,
    is_transformation_semigroupoid,
    left_translation_embedding,
    parse_magma,
    parse_map_magma,
    serialize_embedding,
    serialize_map_magma,
)
from poloids import maps, represent
from poloids.cli import main
from poloids.enumeration import filtered
from poloids.morphisms import ISO_SEARCH_BOUND

from conftest import (
    magma, pair_groupoid2, right_zero, trivial_group, two_unit_groupoid, z2, z3,
)


class TestTranslations:
    def test_right_zero_band_collapses(self):
        e = left_translation_embedding(right_zero(2))
        assert e.image.size == 1
        assert e.assignment == (0, 0)
        assert e.image.members[0] == identity_pretransformation(("x", "y"), ("x", "y"))

    def test_two_unit_groupoid(self):
        e = left_translation_embedding(two_unit_groupoid())
        assert e.image.size == 2
        names = ("e1", "e2")
        assert e.member_for(0) == identity_pretransformation(names, ("e1",))
        assert e.member_for(1) == identity_pretransformation(names, ("e2",))

    def test_z2_gives_translation_permutations(self):
        e = left_translation_embedding(z2())
        g_map = e.member_for(1)
        assert g_map.as_dict() == {"e": "g", "g": "e"}
        assert g_map.domain == ("e", "g")

    def test_requires_right_poloid(self):
        bad = magma("ab", [[None, "a"], ["b", None]])
        with pytest.raises(PreconditionError):
            left_translation_embedding(bad)

    def test_domains_contain_right_units(self, poloid_corpus):
        for m in poloid_corpus:
            e = left_translation_embedding(m)
            _, vareps = effective_unit_maps(m)
            for x in range(m.size):
                assert m.elements[vareps[x]] in e.member_for(x).domain

    def test_unit_translations_are_identities(self, poloid_corpus):
        for m in poloid_corpus:
            e = left_translation_embedding(m)
            for u in classify(m).units:
                f = e.member_for(u)
                assert f == identity_pretransformation(m.elements, f.domain)


class TestAttachCodomains:
    def test_two_unit_groupoid_codomains(self):
        m = two_unit_groupoid()
        upgraded = attach_codomains(m, left_translation_embedding(m).image)
        by_name = dict(zip(upgraded.member_names(), upgraded.members))
        assert by_name["e1"].codomain == ("e1",)
        assert by_name["e2"].codomain == ("e2",)

    def test_z2_codomain_is_whole_carrier(self):
        m = z2()
        upgraded = attach_codomains(m, left_translation_embedding(m).image)
        for member in upgraded.members:
            assert member.codomain == ("e", "g")

    def test_codomain_contains_image_for_small_poloids(self):
        for n in (1, 2, 3):
            for m in filtered(n, "poloid"):
                upgraded = attach_codomains(m, left_translation_embedding(m).image)
                for member in upgraded.members:
                    assert set(member.codomain) >= set(member.image)

    def test_rejects_non_poloid(self):
        m = right_zero(2)
        with pytest.raises(PreconditionError):
            attach_codomains(m, left_translation_embedding(m).image)

    def test_rejects_foreign_image(self):
        with pytest.raises(PreconditionError):
            attach_codomains(z2(), left_translation_embedding(two_unit_groupoid()).image)


class TestCayley:
    def test_two_unit_groupoid_image(self):
        e = cayley_embedding(two_unit_groupoid())
        names = ("e1", "e2")
        assert e.member_for(0) == identity_transformation(names, ("e1",))
        assert e.member_for(1) == identity_transformation(names, ("e2",))
        m = as_partial_magma(e.image)
        assert m.table == ((0, None), (None, 1))

    def test_z2_image_is_isomorphic(self):
        e = cayley_embedding(z2())
        image = as_partial_magma(e.image)
        iso = find_isomorphism(z2(), image)
        assert iso is not None

    def test_trivial_group(self):
        e = cayley_embedding(trivial_group())
        assert e.image.size == 1

    def test_rejects_non_poloid(self):
        with pytest.raises(PreconditionError) as err:
            cayley_embedding(right_zero(2))
        assert err.value.witness is not None

    def test_verifies_over_corpus(self, poloid_corpus):
        for m in poloid_corpus:
            e = cayley_embedding(m)
            # injectivity
            assert len(set(e.assignment)) == m.size == e.image.size
            # the image is a transformation poloid
            assert is_transformation_semigroupoid(e.image) is True
            assert is_transformation_poloid(e.image) is True
            # units land on identity transformations
            for u in classify(m).units:
                assert e.member_for(u).is_identity()
            # an isomorphism exists
            assert find_isomorphism(m, as_partial_magma(e.image)) is not None

    def test_member_identities_are_units_and_compose(self, poloid_corpus):
        # in each image, Id on a member's domain and codomain are
        # members, act neutrally wherever they compose, and compose
        # with the member itself
        for m in poloid_corpus[:8]:
            image = cayley_embedding(m).image
            member_set = set(image.members)
            for f in image.members:
                dom_id = identity_transformation(image.ground, f.domain)
                cod_id = identity_transformation(image.ground, f.codomain)
                assert dom_id in member_set and cod_id in member_set
                assert compose_maps(f, dom_id) == f
                assert compose_maps(cod_id, f) == f
                for e in (dom_id, cod_id):
                    for g in image.members:
                        eg = compose_maps(e, g)
                        ge = compose_maps(g, e)
                        assert eg is None or eg == g
                        assert ge is None or ge == g

    def test_definedness_chain(self, poloid_corpus):
        # dom(a(x)) = cod(a(y))  iff  vareps_x = eps_y  iff  xy defined
        # iff  a(x).a(y) defined
        for m in poloid_corpus:
            e = cayley_embedding(m)
            eps, vareps = effective_unit_maps(m)
            for x in range(m.size):
                for y in range(m.size):
                    ax, ay = e.member_for(x), e.member_for(y)
                    dom_eq_cod = ax.domain == ay.codomain
                    units_meet = vareps[x] == eps[y]
                    defined = m.table[x][y] is not None
                    composite = compose_maps(ax, ay) is not None
                    assert dom_eq_cod == units_meet == defined == composite


class TestEmbedRightPoloid:
    def test_right_zero_band_fails_with_witness(self):
        with pytest.raises(PreconditionError) as err:
            embed_right_poloid(right_zero(2))
        assert err.value.witness.elements == (0, 1)
        assert "x,y" in str(err.value)

    def test_poloids_embed(self, poloid_corpus):
        for m in poloid_corpus:
            e = embed_right_poloid(m)
            assert is_domain_pretransformation_magma(e.image) is True
            assert len(set(e.assignment)) == m.size
            # prefunction part of the transformation embedding
            cay = cayley_embedding(m)
            assert set(e.image.members) == {f.pre for f in cay.image.members}

    def test_overlapping_identities_magma_embeds_into_itself(self):
        m = magma(["p", "q"], [["p", None], [None, "q"]])
        e = embed_right_poloid(m)
        assert is_domain_pretransformation_magma(e.image) is True
        image_magma = as_partial_magma(e.image)
        assert find_isomorphism(m, image_magma) is not None

    def test_phi_translations_are_domain_identities(self):
        for n in (1, 2):
            for m in filtered(n, "normal"):
                e = embed_right_poloid(m)
                phi = classify(m).phi
                for x in range(m.size):
                    f = e.member_for(x)
                    assert e.member_for(phi[x]) == identity_pretransformation(
                        m.elements, f.domain
                    )


def _right_poloids_for_the_reflection():
    # every labelled right poloid on at most 3 elements, every class on 4
    yield from (m for n in (1, 2, 3) for m in filtered(n, "right_poloid"))
    yield from filtered(4, "right_poloid", up_to_iso=True)


class TestNormalReflection:
    # the translation image of any right poloid is its normal reflection

    def test_image_is_a_normal_right_poloid(self):
        seen = non_normal = 0
        for m in _right_poloids_for_the_reflection():
            e = left_translation_embedding(m)
            q = as_partial_magma(e.image)
            assert classify(q).verdicts["normal"]
            normal = classify(m).verdicts["normal"]
            assert (e.image.size < m.size) == (not normal)
            if normal:
                assert embed_right_poloid(m) == e
            again = left_translation_embedding(q)
            assert again.image.size == q.size
            assert find_isomorphism(q, as_partial_magma(again.image)) is not None
            seen += 1
            non_normal += not normal
        assert (seen, non_normal) == (440, 44)

    def test_universal_property(self):
        # every surjection onto a normal right poloid that preserves and
        # reflects products is constant on the translation map's fibres
        targets = [t for k in (1, 2, 3) for t in filtered(k, "normal", up_to_iso=True)]
        maps_found = from_non_normal = 0
        for n in (1, 2, 3):
            for m in filtered(n, "right_poloid"):
                fibre = left_translation_embedding(m).assignment
                normal = classify(m).verdicts["normal"]
                for t in targets:
                    if t.size > n:
                        continue
                    for g in product(range(t.size), repeat=n):
                        if len(set(g)) < t.size or not all(
                            (m.table[x][y] is None) == (t.table[g[x]][g[y]] is None)
                            and (m.table[x][y] is None or g[m.table[x][y]] == t.table[g[x]][g[y]])
                            for x in range(n) for y in range(n)
                        ):
                            continue
                        assert all(g[x] == g[y] for x in range(n) for y in range(n)
                                   if fibre[x] == fibre[y])
                        maps_found += 1
                        from_non_normal += not normal
        assert (maps_found, from_non_normal) == (341, 14)


class TestRoundTrip:
    # embed, read the image back as a Cayley table, and find the source in it

    @pytest.mark.parametrize("n, cls, embed, classes", [
        (4, "poloid", cayley_embedding, 55),
        (4, "normal", embed_right_poloid, 235),
        (5, "poloid", cayley_embedding, 329),
    ])
    def test_every_class(self, n, cls, embed, classes):
        found = list(filtered(n, cls, up_to_iso=True))
        assert len(found) == classes
        for m in found:
            assert find_isomorphism(m, as_partial_magma(embed(m).image)) is not None


class TestOnePipeline:
    # attach_codomains on the translation image and cayley_embedding run
    # the same checked codomain upgrade

    @pytest.mark.parametrize("n, classes", [(4, 55), (5, 329)])
    def test_upgrade_of_translations_is_the_cayley_image(self, n, classes):
        found = list(filtered(n, "poloid", up_to_iso=True))
        assert len(found) == classes
        for p in found:
            assert attach_codomains(p, left_translation_embedding(p).image) \
                == cayley_embedding(p).image


def _closure(generators, identities):
    """The least set of maps holding ``generators`` that is closed under
    composition and holds ``identities(f)`` for each member f."""
    members = set(generators)
    while True:
        found = set()
        for f in members:
            found.update(identities(f))
            for g in members:
                h = compose_maps(f, g)
                if h is not None:
                    found.add(h)
        if found <= members:
            return frozenset(members)
        members |= found


class TestConverseRepresentation:
    # the converse theorems: closed map magmas holding the right identities
    # are normal right poloids (for prefunctions) and poloids (for
    # transformation poloids), and embedding them gives them back

    def test_domain_pretransformation_closures_are_normal_right_poloids(self):
        points = (1, 2, 3)
        pres = full_pretransformation_magma(points).members
        assert len(pres) == 63
        closures = {
            _closure(pair, lambda f: (identity_pretransformation(points, f.domain),))
            for pair in combinations_with_replacement(pres, 2)
        }
        assert len(closures) == 1445
        assert max(map(len, closures)) == 24
        for members in closures:
            image = MapMagma(points, tuple(members))
            assert is_domain_pretransformation_magma(image) is True
            m = as_partial_magma(image)
            verdicts = classify(m).verdicts
            assert verdicts["right_poloid"] and verdicts["normal"] and verdicts["unit_posetal"]
            e = embed_right_poloid(m)
            if m.size <= 8:
                assert find_isomorphism(m, as_partial_magma(e.image)) is not None

    def test_transformation_poloid_closures_are_poloids(self):
        points = (1, 2)
        fns = full_transformation_magma(points).members
        assert len(fns) == 14

        def identities(f):
            return (identity_transformation(points, f.domain),
                    identity_transformation(points, f.codomain))

        closures = {_closure(pair, identities)
                    for pair in combinations_with_replacement(fns, 2)}
        images = [MapMagma(points, tuple(c)) for c in closures]
        poloids = [a for a in images if is_transformation_semigroupoid(a)]
        assert len(poloids) == 12
        for image in poloids:
            assert is_transformation_poloid(image) is True
            m = as_partial_magma(image)
            assert classify(m).verdicts["poloid"]
            e = cayley_embedding(m)
            assert find_isomorphism(m, as_partial_magma(e.image)) is not None

    def test_transformation_poloid_closures_on_three_points_are_poloids(self):
        # closure commutes with relabelling the points, so one pair per
        # orbit of the 6 relabellings reaches every closure up to relabelling
        points = (1, 2, 3)
        fns = full_transformation_magma(points).members
        index = {f: i for i, f in enumerate(fns)}
        relabel = [
            [index[PartialFn(Prefunction(points, {pi[p]: pi[q] for p, q in f.assignment}),
                             [pi[c] for c in f.codomain])] for f in fns]
            for pi in (dict(zip(points, q)) for q in permutations(points))
        ]
        seen, pairs = set(), []
        for i, j in combinations_with_replacement(range(len(fns)), 2):
            if (i, j) not in seen:
                pairs.append((fns[i], fns[j]))
                seen.update((min(r[i], r[j]), max(r[i], r[j])) for r in relabel)

        def identities(f):
            return (identity_transformation(points, f.domain),
                    identity_transformation(points, f.codomain))

        closures = {_closure(pair, identities) for pair in pairs}
        images = [MapMagma(points, tuple(c)) for c in closures]
        poloids = [a for a in images if is_transformation_semigroupoid(a)]
        read_back = 0
        for image in poloids:
            assert is_transformation_poloid(image) is True
            m = as_partial_magma(image)
            assert classify(m).verdicts["poloid"]
            # find_isomorphism refuses carriers above ISO_SEARCH_BOUND, so
            # larger closures are not read back
            if m.size <= ISO_SEARCH_BOUND:
                e = cayley_embedding(m)
                assert find_isomorphism(m, as_partial_magma(e.image)) is not None
                read_back += 1
        assert 0 < read_back < len(poloids)


def _missing_identity(a: MapMagma, identities):
    """The identity check built from points: each identity of
    ``identities(f)`` is built and looked up among the members; True, or
    the index of the first member f with one missing."""
    members = set(a.members)
    for i, f in enumerate(a.members):
        if not members.issuperset(identities(f)):
            return i
    return True


class TestIdentitiesByPosition:
    # the identity checks compare positions; here they are run against the
    # same check on points, over closures that hold no identity by design

    @staticmethod
    def _agree(verdict, reference):
        if reference is True:
            assert verdict is True
        else:
            assert verdict == Witness("missing-unit", (reference,))

    def test_domain_pretransformation_magma(self):
        points = (1, 2, 3)
        pres = full_pretransformation_magma(points).members
        closures = {_closure(pair, lambda f: ()) for pair in combinations_with_replacement(pres, 2)}
        assert len(closures) == 1637
        missing = 0
        for members in closures:
            a = MapMagma(points, tuple(members))
            reference = _missing_identity(a, lambda f: (identity_pretransformation(points, f.domain),))
            self._agree(is_domain_pretransformation_magma(a), reference)
            missing += reference is not True
        assert missing == 1449

    def test_transformation_poloid(self):
        points = (1, 2)
        fns = full_transformation_magma(points).members
        closures = {_closure(pair, lambda f: ()) for pair in combinations_with_replacement(fns, 2)}
        assert len(closures) == 99
        semigroupoids = missing = 0
        for members in closures:
            a = MapMagma(points, tuple(members))
            if not is_transformation_semigroupoid(a):
                with pytest.raises(PreconditionError, match="not a transformation semigroupoid"):
                    is_transformation_poloid(a)
                continue
            reference = _missing_identity(a, lambda f: (identity_transformation(points, f.domain),
                                                        identity_transformation(points, f.codomain)))
            self._agree(is_transformation_poloid(a), reference)
            semigroupoids += 1
            missing += reference is not True
        assert (semigroupoids, missing) == (28, 19)


class TestComposesEachPairOnce:
    # each pair of maps is composed once per map magma, however many
    # checks read the composite

    @staticmethod
    def _spy(monkeypatch):
        calls = [0]
        original = maps.compose_maps

        def counted(f, g, mode=maps.Mode.SUPSET):
            calls[0] += 1
            return original(f, g, mode)

        monkeypatch.setattr(maps, "compose_maps", counted)
        return calls

    @pytest.mark.parametrize("embed", [cayley_embedding, embed_right_poloid])
    def test_embeddings(self, monkeypatch, embed):
        calls = self._spy(monkeypatch)
        for m in (z2(), z3(), two_unit_groupoid(), pair_groupoid2()):
            calls[0] = 0
            embed(m)
            assert calls[0] == m.size ** 2

    def test_classify_a_map_magma_file(self, monkeypatch, tmp_path, capsys):
        path = tmp_path / "image.maps"
        path.write_text(serialize_embedding(cayley_embedding(pair_groupoid2())))
        calls = self._spy(monkeypatch)
        assert main(["classify", str(path)]) == 0
        assert "poloid: yes" in capsys.readouterr().out
        assert calls[0] == pair_groupoid2().size ** 2


class TestBuiltFromPositions:
    # translations and their upgrades are built from table rows, not points

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_translations_equal_their_point_builds(self, n):
        seen = 0
        for cls in ("poloid", "normal"):
            for m in filtered(n, cls, up_to_iso=True):
                names = m.elements
                translations = represent._translations(m)
                built = [
                    Prefunction(names, {names[t]: names[v] for t, v in enumerate(row) if v is not None})
                    for row in m.table
                ]
                assert translations == built and list(map(hash, translations)) == list(map(hash, built))
                if cls == "poloid":
                    eps = classify(m).eps
                    upgraded = represent._codomain_upgrade(translations, eps)
                    built = [PartialFn(f, built[e].domain) for f, e in zip(built, eps)]
                    assert upgraded == built and list(map(hash, upgraded)) == list(map(hash, built))
                seen += 1
        assert seen > 0

    @staticmethod
    def _spy_constructors(monkeypatch):
        calls = []
        for cls in (Prefunction, PartialFn):
            original = cls.__init__

            def counted(self, *args, _original=original):
                calls.append(args)
                _original(self, *args)

            monkeypatch.setattr(cls, "__init__", counted)
        return calls

    def test_no_point_constructor_runs(self, monkeypatch):
        full = (full_pretransformation_magma((1, 2, 3)), full_transformation_magma((1, 2, 3)))
        calls = self._spy_constructors(monkeypatch)
        for a in full:
            for mode in (maps.Mode.SUPSET, maps.Mode.OVERLAP, maps.Mode.EXACT_IMAGE):
                assert MapMagma(a.ground, a.members, mode).table
        assert MapMagma(full[1].ground, full[1].members, maps.Mode.CODOMAIN).table
        m = pair_groupoid2()
        assert m.size == 4
        cayley_embedding(m)
        embed_right_poloid(m)
        assert calls == []

    def test_identity_checks_build_no_map(self, monkeypatch):
        # the phi_x equation and identity membership compare domain positions
        calls = self._spy_constructors(monkeypatch)
        original_identity = maps.identity_pretransformation

        def counted_identity(ground, domain):
            calls.append((ground, domain))
            return original_identity(ground, domain)

        monkeypatch.setattr(maps, "identity_pretransformation", counted_identity)
        checks = ((embed_right_poloid, is_domain_pretransformation_magma, "normal"),
                  (cayley_embedding, is_transformation_poloid, "poloid"))
        run = 0
        for m in (z2(), z3(), two_unit_groupoid(), pair_groupoid2(), right_zero(1)):
            verdicts = classify(m).verdicts
            for embed, check, applies in checks:
                if verdicts[applies]:
                    assert check(embed(m).image) is True
                    run += 1
        assert run == 10
        assert calls == []


class TestSerialization:
    def test_embedding_text(self):
        e = cayley_embedding(two_unit_groupoid())
        text = serialize_embedding(e)
        assert "iso:" in text
        assert "e1 -> e1" in text and "e2 -> e2" in text
        assert text.startswith("set: e1 e2\nmode: supset\n")

    def test_arrows_in_element_names_read_back(self):
        m = parse_magma("elements: a->b c\na->b: a->b -\nc: - c\n")
        for embed in (cayley_embedding, embed_right_poloid):
            image = embed(m).image
            assert parse_map_magma(serialize_map_magma(image)) == image
            assert parse_map_magma(serialize_embedding(embed(m))) == image

    def test_right_poloid_embedding_text(self):
        m = magma(["p", "q"], [["p", None], [None, "q"]])
        text = serialize_embedding(embed_right_poloid(m))
        assert "map p: p->p" in text and "cod" not in text


class TestCertificates:
    # Corrupt one construction step and check that the constructor's own
    # verification still refuses to return the result.

    @staticmethod
    def _shifted_translations(monkeypatch):
        # x is sent to the translation of the next element
        original = represent._translations

        def shifted(m):
            maps = original(m)
            return maps[1:] + maps[:1]

        monkeypatch.setattr(represent, "_translations", shifted)

    @staticmethod
    def _whole_carrier_codomains(monkeypatch):
        def upgrade(translations, eps):
            return [PartialFn(f, f.ground) for f in translations]

        monkeypatch.setattr(represent, "_codomain_upgrade", upgrade)

    @staticmethod
    def _reversed_upgrade(monkeypatch):
        original = represent._codomain_upgrade

        def reversed_upgrade(translations, eps):
            return original(translations, eps)[::-1]

        monkeypatch.setattr(represent, "_codomain_upgrade", reversed_upgrade)

    def test_cayley_rejects_wrong_translations(self, monkeypatch):
        self._shifted_translations(monkeypatch)
        with pytest.raises(RuntimeError, match="products not preserved"):
            cayley_embedding(z2())

    def test_cayley_rejects_wrong_codomains(self, monkeypatch):
        self._whole_carrier_codomains(monkeypatch)
        with pytest.raises(RuntimeError, match="identity transformation"):
            cayley_embedding(two_unit_groupoid())

    def test_attach_codomains_rejects_wrong_codomains(self, monkeypatch):
        m = two_unit_groupoid()
        translations = left_translation_embedding(m).image
        self._whole_carrier_codomains(monkeypatch)
        with pytest.raises(RuntimeError, match="identity transformation"):
            attach_codomains(m, translations)

    def test_attach_codomains_rejects_permuted_upgrade(self, monkeypatch):
        m = z2()
        translations = left_translation_embedding(m).image
        self._reversed_upgrade(monkeypatch)
        with pytest.raises(RuntimeError, match="changed a composite"):
            attach_codomains(m, translations)

    def test_left_translation_embedding_rejects_wrong_translations(self, monkeypatch):
        # the check that also proves the image closed
        self._shifted_translations(monkeypatch)
        with pytest.raises(RuntimeError, match="products not preserved"):
            left_translation_embedding(z2())

    def test_embed_right_poloid_rejects_wrong_translations(self, monkeypatch):
        # one path: the structure-map check runs before the phi_x equation
        self._shifted_translations(monkeypatch)
        with pytest.raises(RuntimeError, match="products not preserved"):
            embed_right_poloid(z2())

    def test_left_translation_embedding_rejects_broken_phi_equation(self, monkeypatch):
        # every element gets x's translation, the constant map onto x: the
        # structure map still preserves and reflects, but phi_e = e is not
        # sent to an identity
        m = magma(["e", "x"], [["e", "x"], ["x", "x"]])
        original = represent._translations
        monkeypatch.setattr(represent, "_translations", lambda p: [original(p)[1]] * p.size)
        with pytest.raises(RuntimeError, match="phi_x is not Id"):
            left_translation_embedding(m)

    @staticmethod
    def _corrupted_codomain(monkeypatch, x, cod):
        # x's upgraded translation gets the codomain ``cod`` instead
        original = represent._codomain_upgrade

        def corrupted(translations, eps):
            upgraded = original(translations, eps)
            f = upgraded[x]
            upgraded[x] = PartialFn(f.pre, cod)
            return upgraded

        monkeypatch.setattr(represent, "_codomain_upgrade", corrupted)

    def test_cayley_refuses_every_wrong_codomain(self, monkeypatch):
        # the structure map and the phi_x equation are the whole certificate
        # of a transformation poloid: each member's codomain in turn gets
        # every other value that holds its image, on every poloid class
        # with at most 4 elements
        classes = [m for n in (1, 2, 3, 4) for m in filtered(n, "poloid", up_to_iso=True)]
        returned, refused = [], 0
        for m in classes:
            e = cayley_embedding(m)
            for x in range(m.size):
                f = e.member_for(x)
                for k in range(1, m.size + 1):
                    for cod in combinations(m.elements, k):
                        if cod == f.codomain or not set(f.image) <= set(cod):
                            continue
                        with monkeypatch.context() as patch:
                            self._corrupted_codomain(patch, x, cod)
                            try:
                                returned.append(cayley_embedding(m))
                            except RuntimeError:
                                refused += 1
        assert (len(classes), refused, returned) == (70, 747, [])

    def test_cayley_refuses_a_wrong_non_unit_codomain(self, monkeypatch):
        # a: e -> f; its translation's codomain must be dom of f's, {f, a}
        m = parse_magma("elements: e f a\ne: e - -\nf: - f a\na: a - -\n")
        assert "cod a: f a" in serialize_map_magma(cayley_embedding(m).image)
        for cod in (("a",), ("e", "a"), ("e", "f", "a")):
            with monkeypatch.context() as patch:
                self._corrupted_codomain(patch, 2, cod)
                with pytest.raises(RuntimeError, match="products not preserved"):
                    cayley_embedding(m)

    @pytest.mark.parametrize("embed", [cayley_embedding, left_translation_embedding,
                                       embed_right_poloid])
    def test_each_embedding_classifies_once(self, monkeypatch, embed):
        calls = [0]
        original = represent.classify

        def counted(m):
            calls[0] += 1
            return original(m)

        monkeypatch.setattr(represent, "classify", counted)
        for m in (trivial_group(), z2(), two_unit_groupoid(), pair_groupoid2()):
            calls[0] = 0
            embed(m)
            assert calls[0] == 1

    def test_unpatched_constructors_pass(self):
        # the same inputs go through when nothing is corrupted
        cayley_embedding(z2())
        cayley_embedding(two_unit_groupoid())
        attach_codomains(z2(), left_translation_embedding(z2()).image)
        embed_right_poloid(z2())
