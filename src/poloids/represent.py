"""Representation of poloids and right poloids by partial self-maps.

One pipeline in two steps.  First each element x becomes the left
translation t -> xt on the carrier: row x of the table, taken as ground
positions by the one map builder of :mod:`poloids.maps`, with no points
read.  That is :func:`left_translation_embedding`, which maps every right
poloid onto a domain pretransformation magma: a faithful copy exactly
when the right poloid is normal, and otherwise a strictly smaller normal
right poloid, its normal reflection.  :func:`embed_right_poloid` is its
injective case.  Second, for poloids, each translation gets as codomain
the domain positions of the translation of x's effective left unit, so
that the image composes exactly when the original products were
defined: that checked upgrade is :func:`attach_codomains`, and the
Cayley-style :func:`cayley_embedding`.

Every constructor verifies the properties it is supposed to deliver,
each once, and raises ``RuntimeError`` if any fails, so a successful
return value is a checked certificate, not a promise.  Every image has
the same certificate, checked by one helper: the structure map, by the
same two scans as a morphism in :mod:`poloids.morphisms`, which also
prove the image closed, and the phi_x equation on domain positions (the
translation of phi_x is an identity whose domain is that of x's
translation), which puts Id on each member's domain in the image.  For
a poloid's upgraded translations that certificate makes the image a
transformation poloid: there phi_x = vareps_x, and preserving
eps_x.x = x, a composite that takes its left operand's codomain, makes
the codomain of x's translation the domain of the identity eps_x is
sent to.  So Id on each member's codomain is a member too, a defined
composite f_x.f_y has dom(f_x) = cod(f_y), and no embedding checks
closure or identities again.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classify import classify
from .errors import PreconditionError
from .maps import (
    MapMagma,
    Mode,
    _map,
    serialize_map_magma,
)
from .morphisms import _preserves, _reflects
from .tables import PartialMagma


@dataclass(frozen=True)
class Embedding:
    """A structure map from a partial magma into a map magma.

    ``assignment[i]`` is the member index that element ``i`` maps to.
    For the verified constructors (``cayley_embedding``,
    ``left_translation_embedding``, ``embed_right_poloid``) the
    assignment maps onto the members and preserves and reflects
    products; it is injective except for the translation map of a
    non-normal right poloid.
    """

    source: PartialMagma
    image: MapMagma
    assignment: tuple[int, ...]

    def member_for(self, i: int):
        return self.image.members[self.assignment[i]]


def _translations(m: PartialMagma) -> list:
    """Each element x as the prefunction t -> xt on the carrier: row x."""
    return [_map(m.elements, row) for row in m.table]


def _codomain_upgrade(translations: list, eps) -> list:
    """x's translation with the domain of eps_x's translation as codomain."""
    return [_map(f.ground, f.values, translations[e]._dom) for f, e in zip(translations, eps)]


def _classified(p: PartialMagma, verdict: str, message: str):
    """``classify(p)``, or ``PreconditionError`` with ``message`` if ``p``
    fails ``verdict``; ``{}`` in the message stands for the witness."""
    report = classify(p)
    if not report.verdicts[verdict]:
        witness = report.witness_for(verdict)
        raise PreconditionError(message.format(witness.format(p.elements)), witness)
    return report


def _checked_image(p: PartialMagma, maps: list, phi, injective: bool,
                   changed="products not preserved", lost="definedness not reflected"):
    """The image of x -> maps[x], named by the elements if injective, and its
    assignment, checked to be injective if asked, to preserve and reflect
    (as every member is some maps[x], that proves it closed), and to send
    phi_x to an identity on the domain of maps[x], for every x."""
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
    for f, phi_x in zip(maps, phi):
        if not (maps[phi_x].is_identity() and maps[phi_x]._dom == f._dom):
            raise RuntimeError("translation of phi_x is not Id on dom of x's translation"
                               " (an identity transformation or pretransformation)")
    return image, assignment


def _upgraded(p: PartialMagma, report, maps: list, **messages):
    """The checked image of a poloid's upgraded translations."""
    upgraded = _codomain_upgrade(maps, report.eps)
    return _checked_image(p, upgraded, report.phi, injective=True, **messages)


def left_translation_embedding(p: PartialMagma) -> Embedding:
    """A right poloid onto its translation image: x as t -> xt.

    Requires a right poloid (so every translation is non-empty).  The
    checked image is a domain pretransformation magma.  The map is
    injective exactly on the normal right poloids; the image of any
    other is a strictly smaller normal right poloid.
    """
    report = _classified(p, "right_poloid", "not a right poloid")
    image, assignment = _checked_image(p, _translations(p), report.phi, injective=False)
    return Embedding(p, image, assignment)


def attach_codomains(p: PartialMagma, translations: MapMagma) -> MapMagma:
    """Upgrade a poloid's translation prefunctions to partial functions.

    The codomain of the upgrade of x's translation is the domain of the
    translation of x's effective left unit.  The upgrade gets the
    certificate of every translation image: it is verified to be
    injective, to preserve and reflect ``p``'s products, as the
    translations do, and to send each phi_x, so each unit, to an
    identity transformation, which makes it a transformation poloid.
    """
    report = _classified(p, "poloid", "not a poloid")
    maps = _translations(p)
    if set(maps) != set(translations.members) or translations.mode is not Mode.SUPSET:
        raise PreconditionError("map magma is not this poloid's translation image")
    return _upgraded(p, report, maps, changed="codomain upgrade changed a composite",
                     lost="codomain upgrade changed composite definedness")[0]


def cayley_embedding(p: PartialMagma) -> Embedding:
    """A poloid as a transformation poloid on its own carrier: the checked
    codomain upgrade of the translations, as in :func:`attach_codomains`."""
    report = _classified(p, "poloid", "not a poloid")
    return Embedding(p, *_upgraded(p, report, _translations(p)))


def embed_right_poloid(p: PartialMagma) -> Embedding:
    """A normal right poloid inside a domain pretransformation magma: its
    :func:`left_translation_embedding`, which must be injective, so a
    non-normal input fails with its normality witness.
    """
    e = left_translation_embedding(p)
    if e.image.size < p.size:
        _classified(p, "normal", "not a normal right poloid ({})")
        raise RuntimeError("embedding not injective")
    return e


def serialize_embedding(e: Embedding) -> str:
    """Map-magma rendering of the image plus an ``iso:`` assignment block."""
    names = e.image.member_names()
    out = [serialize_map_magma(e.image).rstrip("\n"), "iso:"]
    for i, name in enumerate(e.source.elements):
        out.append(f"{name} -> {names[e.assignment[i]]}")
    return "\n".join(out) + "\n"
