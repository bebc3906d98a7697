"""Representation of poloids and right poloids by partial self-maps.

The construction is in two steps.  First each element x becomes the
left-translation prefunction t -> xt on the carrier; for a poloid this
is already a faithful copy, and for a right poloid it is a (possibly
non-injective) quotient.  Second, for poloids, each translation is
upgraded to a partial function whose codomain is the domain of the
translation of x's effective left unit; the upgraded image composes
exactly when the original products were defined, which yields the
Cayley-style embedding into a transformation poloid.

Normal right poloids skip the upgrade and embed directly into a domain
pretransformation magma: normality is precisely what makes the
translation map injective.

Every constructor verifies the properties it is supposed to deliver,
each once, and raises ``RuntimeError`` if any fails, so a successful
return value is a checked certificate, not a promise.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classify import classify
from .errors import PreconditionError
from .maps import (
    MapMagma,
    Mode,
    PartialFn,
    Prefunction,
    identity_pretransformation,
    is_closed,
    is_domain_pretransformation_magma,
    is_transformation_poloid,
    serialize_map_magma,
)
from .tables import PartialMagma


@dataclass(frozen=True)
class Embedding:
    """A structure map from a partial magma into a map magma.

    ``assignment[i]`` is the member index that element ``i`` maps to.
    For the verified constructors (``cayley_embedding``,
    ``embed_right_poloid``) the assignment is a bijection onto the
    members that preserves and reflects products; the translation map
    of a non-normal right poloid is not injective.
    """

    source: PartialMagma
    image: MapMagma
    assignment: tuple[int, ...]

    def member_for(self, i: int):
        return self.image.members[self.assignment[i]]


def _translations(m: PartialMagma) -> list[Prefunction]:
    """Each element x as the prefunction t -> xt on the carrier."""
    names = m.elements
    return [
        Prefunction(names, {names[t]: names[v] for t, v in enumerate(row) if v is not None})
        for row in m.table
    ]


def _codomain_upgrade(translations: list, eps) -> list:
    """x's translation with the domain of eps_x's translation as codomain."""
    return [PartialFn(f, translations[e].domain) for f, e in zip(translations, eps)]


def _check_structure_map(m: PartialMagma, image: MapMagma, assignment) -> None:
    """Products defined in the table iff composites defined, with equal values."""
    for x in range(m.size):
        for y in range(m.size):
            c = image.table[assignment[x]][assignment[y]]
            xy = m.table[x][y]
            if (xy is None) != (c is None):
                raise RuntimeError("definedness not preserved and reflected")
            if xy is not None and c != assignment[xy]:
                raise RuntimeError("products not preserved")


def left_translation_embedding(p: PartialMagma) -> Embedding:
    """Each element as the prefunction t -> xt on the carrier.

    Requires a right poloid (so every translation is non-empty).  The
    translation map preserves and reflects products but identifies
    elements with equal translations; it is injective exactly on the
    normal right poloids, in particular on every poloid.
    """
    report = classify(p)
    if not report.verdicts["right_poloid"]:
        raise PreconditionError("not a right poloid", report.witness_for("right_poloid"))
    maps = _translations(p)
    members = sorted(set(maps), key=maps.index)
    injective = len(members) == p.size
    names = p.elements if injective else None
    image = MapMagma(p.elements, tuple(members), Mode.SUPSET, names)
    assignment = tuple(image.member_index(f) for f in maps)
    _check_structure_map(p, image, assignment)
    if not is_closed(image):
        raise RuntimeError("translation image not closed")
    return Embedding(p, image, assignment)


def attach_codomains(p: PartialMagma, translations: MapMagma) -> MapMagma:
    """Upgrade a poloid's translation prefunctions to partial functions.

    The codomain of the upgrade of x's translation is the domain of the
    translation of x's effective left unit.  The upgrade is verified to
    be bijective on members, to preserve and reflect composite
    definedness, to preserve composites, and to send unit translations
    to identity transformations.
    """
    report = classify(p)
    if not report.verdicts["poloid"]:
        raise PreconditionError("not a poloid", report.witness_for("poloid"))
    maps = _translations(p)
    if set(maps) != set(translations.members) or translations.mode is not Mode.SUPSET:
        raise PreconditionError("map magma is not this poloid's translation image")
    if len(set(maps)) != p.size:
        raise RuntimeError("translation map not injective on a poloid")
    upgraded = _codomain_upgrade(maps, report.eps)
    if len(set(upgraded)) != len(set(maps)):
        raise RuntimeError("codomain upgrade is not bijective")
    image = MapMagma(p.elements, tuple(upgraded), Mode.SUPSET, p.elements)
    t = [translations.member_index(f) for f in maps]
    u = [image.member_index(f) for f in upgraded]
    for x in range(p.size):
        for y in range(p.size):
            before = translations.table[t[x]][t[y]]
            after = image.table[u[x]][u[y]]
            if (before is None) != (after is None):
                raise RuntimeError("codomain upgrade changed composite definedness")
            if before is not None and after != u[p.table[x][y]]:
                raise RuntimeError("codomain upgrade changed a composite")
    for e in report.units:
        if not upgraded[e].is_identity():
            raise RuntimeError("unit translation did not become an identity transformation")
    return image


def cayley_embedding(p: PartialMagma) -> Embedding:
    """A poloid as a transformation poloid on its own carrier.

    Applies the codomain upgrade to the translations, then verifies the
    advertised package once: injectivity, preservation and reflection of
    definedness and products, units landing on identity transformations,
    and the image passing the transformation semigroupoid and
    transformation poloid checks.
    """
    report = classify(p)
    if not report.verdicts["poloid"]:
        raise PreconditionError("not a poloid", report.witness_for("poloid"))
    maps = _codomain_upgrade(_translations(p), report.eps)
    if len(set(maps)) != p.size:
        raise RuntimeError("embedding not injective")
    image = MapMagma(p.elements, tuple(maps), Mode.SUPSET, p.elements)
    assignment = tuple(image.member_index(f) for f in maps)
    _check_structure_map(p, image, assignment)
    for e in report.units:
        if not maps[e].is_identity():
            raise RuntimeError("unit not sent to an identity transformation")
    try:  # also runs the closure and transformation-semigroupoid checks
        poloid = is_transformation_poloid(image)
    except PreconditionError as exc:
        raise RuntimeError(f"image is not a closed transformation semigroupoid: {exc}") from None
    if not poloid:
        raise RuntimeError("image is not a transformation poloid")
    return Embedding(p, image, assignment)


def embed_right_poloid(p: PartialMagma) -> Embedding:
    """A normal right poloid inside a domain pretransformation magma.

    The image is the translation image together with the identity
    prefunctions on the translations' domains; the two sets coincide
    because the translation of phi_x is exactly Id on dom of x's
    translation, and that equation is verified here.  Fails with the
    normality witness on a non-normal input, where no injective
    translation map exists.
    """
    report = classify(p)
    if not report.verdicts["right_poloid"]:
        raise PreconditionError("not a right poloid", report.witness_for("right_poloid"))
    if not report.verdicts["normal"]:
        raise PreconditionError(
            "not a normal right poloid (%s)"
            % report.witness_for("normal").format(p.elements),
            report.witness_for("normal"),
        )
    maps = _translations(p)
    if len(set(maps)) != p.size:
        raise RuntimeError("translation map not injective on a normal right poloid")
    phi = report.phi
    for x in range(p.size):
        wanted = identity_pretransformation(p.elements, maps[x].domain)
        if maps[phi[x]] != wanted:
            raise RuntimeError("translation of phi_x is not Id on dom of x's translation")
    image = MapMagma(p.elements, tuple(maps), Mode.SUPSET, p.elements)
    if not is_domain_pretransformation_magma(image):
        raise RuntimeError("image is not a domain pretransformation magma")
    assignment = tuple(image.member_index(f) for f in maps)
    _check_structure_map(p, image, assignment)
    return Embedding(p, image, assignment)


def serialize_embedding(e: Embedding) -> str:
    """Map-magma rendering of the image plus an ``iso:`` assignment block."""
    names = e.image.member_names()
    out = [serialize_map_magma(e.image).rstrip("\n"), "iso:"]
    for i, name in enumerate(e.source.elements):
        out.append(f"{name} -> {names[e.assignment[i]]}")
    return "\n".join(out) + "\n"
