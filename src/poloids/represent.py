"""Representation of poloids and right poloids by partial self-maps.

One pipeline in two steps.  First each element x becomes the left
translation t -> xt on the carrier; for a poloid this is a faithful
copy, for a right poloid a (possibly non-injective) quotient.  Second,
for poloids, each translation gets as codomain the domain of the
translation of x's effective left unit, so that the image composes
exactly when the original products were defined: that checked upgrade
is :func:`attach_codomains`, and with the transformation-poloid check
of its image, the Cayley-style :func:`cayley_embedding`.

Normal right poloids skip the upgrade and embed directly into a domain
pretransformation magma: normality is precisely what makes the
translation map injective.

Every constructor verifies the properties it is supposed to deliver,
each once, and raises ``RuntimeError`` if any fails, so a successful
return value is a checked certificate, not a promise.  One helper builds
each image and checks its structure map, by the same two scans as a
morphism in :mod:`poloids.morphisms`.
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
from .morphisms import _preserves, _reflects
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


def _classified(p: PartialMagma, *wanted):
    """``classify(p)``, or ``PreconditionError`` at the first (verdict,
    message) pair it fails; ``{}`` in a message stands for the witness."""
    report = classify(p)
    for verdict, message in wanted:
        if not report.verdicts[verdict]:
            witness = report.witness_for(verdict)
            raise PreconditionError(message.format(witness.format(p.elements)), witness)
    return report


def _checked_image(p: PartialMagma, maps: list, injective: bool,
                   changed="products not preserved", lost="definedness not reflected"):
    """The image of x -> maps[x], named by the elements if injective, and its
    assignment, checked to be injective if asked and to preserve and reflect."""
    members = tuple(dict.fromkeys(maps))
    one_to_one = len(members) == p.size
    if injective and not one_to_one:
        raise RuntimeError("embedding not injective")
    image = MapMagma(p.elements, members, Mode.SUPSET, p.elements if one_to_one else None)
    assignment = tuple(image.member_index(f) for f in maps)
    if not _preserves(p.table, image.table, assignment):
        raise RuntimeError(changed)
    if not _reflects(p.table, image.table, assignment):
        raise RuntimeError(lost)
    return image, assignment


def _upgraded(p: PartialMagma, report, maps: list, **messages):
    """The checked image of a poloid's upgraded translations, whose units
    must become identity transformations."""
    upgraded = _codomain_upgrade(maps, report.eps)
    image, assignment = _checked_image(p, upgraded, injective=True, **messages)
    for e in report.units:
        if not upgraded[e].is_identity():
            raise RuntimeError("unit translation did not become an identity transformation")
    return image, assignment


def left_translation_embedding(p: PartialMagma) -> Embedding:
    """Each element as the prefunction t -> xt on the carrier.

    Requires a right poloid (so every translation is non-empty).  The
    translation map preserves and reflects products but identifies
    elements with equal translations; it is injective exactly on the
    normal right poloids, in particular on every poloid.
    """
    _classified(p, ("right_poloid", "not a right poloid"))
    image, assignment = _checked_image(p, _translations(p), injective=False)
    if not is_closed(image):
        raise RuntimeError("translation image not closed")
    return Embedding(p, image, assignment)


def attach_codomains(p: PartialMagma, translations: MapMagma) -> MapMagma:
    """Upgrade a poloid's translation prefunctions to partial functions.

    The codomain of the upgrade of x's translation is the domain of the
    translation of x's effective left unit.  The upgrade is verified to
    be injective, to preserve and reflect ``p``'s products, as the
    translations do, and to send unit translations to identity
    transformations.
    """
    report = _classified(p, ("poloid", "not a poloid"))
    maps = _translations(p)
    if set(maps) != set(translations.members) or translations.mode is not Mode.SUPSET:
        raise PreconditionError("map magma is not this poloid's translation image")
    return _upgraded(p, report, maps, changed="codomain upgrade changed a composite",
                     lost="codomain upgrade changed composite definedness")[0]


def cayley_embedding(p: PartialMagma) -> Embedding:
    """A poloid as a transformation poloid on its own carrier.

    The checked codomain upgrade of the translations, as in
    :func:`attach_codomains`, whose image is then verified to pass the
    transformation semigroupoid and transformation poloid checks.
    """
    report = _classified(p, ("poloid", "not a poloid"))
    image, assignment = _upgraded(p, report, _translations(p))
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
    report = _classified(p, ("right_poloid", "not a right poloid"),
                         ("normal", "not a normal right poloid ({})"))
    maps = _translations(p)
    for f, phi_x in zip(maps, report.phi):
        if maps[phi_x] != identity_pretransformation(p.elements, f.domain):
            raise RuntimeError("translation of phi_x is not Id on dom of x's translation")
    image, assignment = _checked_image(p, maps, injective=True)
    if not is_domain_pretransformation_magma(image):
        raise RuntimeError("image is not a domain pretransformation magma")
    return Embedding(p, image, assignment)


def serialize_embedding(e: Embedding) -> str:
    """Map-magma rendering of the image plus an ``iso:`` assignment block."""
    names = e.image.member_names()
    out = [serialize_map_magma(e.image).rstrip("\n"), "iso:"]
    for i, name in enumerate(e.source.elements):
        out.append(f"{name} -> {names[e.assignment[i]]}")
    return "\n".join(out) + "\n"
