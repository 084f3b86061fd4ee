"""Finite models of twisted inverse semigroup actions and Fell bundles.

Everything here is exact or desk-scale numerical: inverse semigroups are
Cayley tables, commutative C*-algebras are functions on finite sets, an
exact circle scalar is its turn, a Fraction in [0, 1) (held in arrays as
exponents mod a common denominator), a complex number appears only where
a value is not an angle, and operator-space arguments run on small
complex matrices.
"""

from fellsem.isg import (InverseSemigroup, IsgHomomorphism, is_essentially_injective,
                         symmetric_inverse_monoid, verify_inverse_semigroup)
from fellsem.action import (TwistedAction, check_sieben, gauge_transform, germ_groupoid,
                            siebenize, verify_consequences, verify_twisted_action)
from fellsem.groupoid import (FiniteGroupoid, TwoCocycle, action_from_cocycle,
                              bisection_semigroup, germ_recovers_groupoid,
                              verify_cocycle, verify_groupoid)
from fellsem.bundle import (build_bundle, canonical_multipliers, classify_bundle,
                            extract_action, roundtrip_check, verify_fell_bundle)
from fellsem.tro import MatrixTRO, check_association, is_locally_regular, is_regular
from fellsem.algebra import block_decompose, convolution_algebra, germ_algebra
from fellsem.reps import regular_covariant_rep, verify_covariant
from fellsem.refine import saturated_refinement, verify_refinement

__all__ = [
    "InverseSemigroup", "IsgHomomorphism", "is_essentially_injective",
    "symmetric_inverse_monoid", "verify_inverse_semigroup",
    "TwistedAction", "check_sieben", "gauge_transform", "germ_groupoid",
    "siebenize", "verify_consequences", "verify_twisted_action",
    "FiniteGroupoid", "TwoCocycle", "action_from_cocycle", "bisection_semigroup",
    "germ_recovers_groupoid", "verify_cocycle", "verify_groupoid",
    "build_bundle", "canonical_multipliers", "classify_bundle", "extract_action",
    "roundtrip_check", "verify_fell_bundle",
    "MatrixTRO", "check_association", "is_locally_regular", "is_regular",
    "block_decompose", "convolution_algebra", "germ_algebra",
    "regular_covariant_rep", "verify_covariant",
    "saturated_refinement", "verify_refinement",
]
