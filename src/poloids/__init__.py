"""Finite partial magmas, poloids, constellations, and their
representations by magmas of partial transformations."""

from types import ModuleType as _ModuleType

from .errors import BoundExceeded, ParseError, PreconditionError
from .tables import (
    PartialMagma,
    Witness,
    adjoin_zero,
    left_units,
    parse_magma,
    precedes,
    product,
    right_units,
    serialize_magma,
)
from .maps import (
    MapMagma,
    Mode,
    PartialFn,
    Prefunction,
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
from .classify import (
    ClassReport,
    classify,
    effective_unit_maps,
    effective_units,
    initial_units,
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
from .represent import (
    Embedding,
    attach_codomains,
    cayley_embedding,
    embed_right_poloid,
    left_translation_embedding,
    serialize_embedding,
)
from .morphisms import (
    ActionResult,
    ActionSpec,
    Morphism,
    find_isomorphism,
    image_poloid,
    is_homomorphism,
    is_isomorphism,
    is_poloid_action,
    is_subpoloid,
    parse_morphism,
    reflects_definedness,
    serialize_morphism,
)

__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
