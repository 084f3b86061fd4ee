"""The checks of a bundle compiled once per row geometry, against the
former checks.

Every check reads the Geometry of a bundle's rows, and build_bundle's
geometry is its frame's (Frame.bundle), compiled once per frame.  The
former Lookup, classify_bundle and extraction, which gathered everything
anew for each bundle, are the oracle (dense.RefRows and the ref_ readers):
verdicts and ordered violation lists, or the raise's type and message, on
the geometry as it compiles, again (when each family is kept), a third
time (read from what is kept), and on a new frame or a rebuilt bundle.  No
compiled family may pass vacuously.
"""

import random

import numpy as np

from fellsem.action import OUTSIDE, Frame, TwistedAction, gauge_transform, held
from fellsem.algebra import convolution_algebra
from fellsem.bundle import (NOWHERE, Bundle, SectionBundle, build_bundle, canonical_multipliers,
                            classify_bundle, extract_action, roundtrip_check, verify_fell_bundle)
from fellsem.generators import (corpus, full_monoid_action, mutate_omega, mutation_corpus, random_gauge,
                                standard_groupoids)
from fellsem.groupoid import TwoCocycle, bisection_semigroup, cyclic_group
from fellsem.refine import saturated_refinement

from dense import (RefRows, origin, ref_canonical_multipliers, ref_classify_bundle, ref_extract_action,
                   ref_roundtrip_check, ref_verify, ref_verify_fell)
from test_acceptance import _non_saturated_examples
from test_action import _broken_thetas
from test_algebra import parity_cases
from test_bundle import _corrupt_one_entry

FAMILIES = ["associativity", "involutive", "anti-multiplicative", "inclusion-identity", "inclusion-functorial",
            "inclusion-star", "inclusion-product-left", "inclusion-product-right"]


def _outcome(f, *args):
    try:
        return f(*args)
    except Exception as exc:  # the reference raises the same type and message
        return type(exc), str(exc)


def _action(A):
    return A.X, A.U, A.theta, A.N, A.W.tolist(), None if A.V is None else A.V.tolist()


def _classified(info):
    w = info.pop("witness")
    return info, None if w is None else (w[0], w[1].tolist(), w[2])


def _family(B, seed):
    """A unitary multiplier family over B's slots: a random angle mod 4 at
    each point, one at idempotents."""
    rng = random.Random(seed)
    K = np.array([[rng.randrange(4) for _ in range(B.W)] for _ in B.S.elements()], dtype=np.intp)
    K[B.S.idem] = 0
    return 4, held(np.where(np.arange(B.W) < B.cs[:, None], K.reshape(B.S.n, B.W), OUTSIDE), 4), None


def _record(B, seed, ref=False):
    """The bundle checks of B, or the reference's."""
    if ref:
        checks = ref_verify, ref_verify_fell, lambda B: ref_classify_bundle(RefRows(B)), ref_extract_action
        canonical = ref_canonical_multipliers(RefRows(B))
    else:
        checks = (lambda B: B.verify()), verify_fell_bundle, classify_bundle, extract_action
        canonical = canonical_multipliers(B)
    verify, fell, classify, extract = checks
    return (_outcome(verify, B), _outcome(fell, B), _outcome(lambda: _classified(classify(B))),
            *(_outcome(lambda u=u: _action(extract(B, u))) for u in (canonical, _family(B, seed))))


def _fresh(A):
    F = A.frame
    return TwistedAction.from_exponents(Frame(F.S, F.X, F.sets, F.maps, F.points), A.N, A.W, A.V)


def _rebuilt(B):
    return Bundle(B.S, B.points, B.N, B.products, B.stars, B.inclusions, B.realization, **origin(B))


def _same_on_actions(actions):
    verdicts = set()
    for i, A in enumerate(actions):
        want = _outcome(lambda: _record(build_bundle(A), i, ref=True)), _outcome(ref_roundtrip_check, A)
        for C in (A, A, A, _fresh(A)):
            assert (_outcome(lambda: _record(build_bundle(C), i)), _outcome(roundtrip_check, C)) == want, i
        record = want[0]  # its verify_fell_bundle verdict, None if building or checking raised
        verdicts.add(None if len(record) != 5 or isinstance(record[1][0], type) else record[1][0])
    return verdicts


def _same_on_bundles(bundles):
    verdicts = set()
    for i, B in enumerate(bundles):
        want = _record(B, i, ref=True)
        for C in (B, B, B, _rebuilt(B)):
            assert _record(C, i) == want, i
        verdicts.add(want[1][0])
    return verdicts


def test_compiled_checks_match_the_former_on_the_corpus_and_the_mutants():
    # test_03's mutants
    rng = random.Random(2)
    bases = mutation_corpus(rng)
    actions = corpus(random.Random(0), 200) + [mutate_omega(bases[i % len(bases)], rng) for i in range(1000)]
    assert _same_on_actions(actions) == {True, False}


def test_compiled_checks_match_the_former_on_frames_that_are_no_actions():
    # 120 of test_action's frames with a theta_s or U(s) changed, half with
    # values left out: build_bundle raises, rows leave their fibers, and a
    # zero scalar gives the bundle a geometry of its own
    actions = _broken_thetas(random.Random(5), 120)
    assert {None, False} <= _same_on_actions(actions)
    zero = [_outcome(build_bundle, A) for A in actions if (A.W[A.frame.fib_of_product] < 0).any()]
    built = [B for B in zero if isinstance(B, Bundle)]
    assert built and all(B.geometry is not B.A.frame.bundle[0] and B.geometry.live for B in built)


def test_compiled_checks_match_the_former_on_gauged_i3_and_i4():
    actions = [gauge_transform(A, random_gauge(A, random.Random(1))) for A in map(full_monoid_action, (3, 4))]
    assert _same_on_actions(actions) == {True}
    changed = []
    for A in actions:  # one product exponent changed
        B = build_bundle(A)
        pair, x, y, z, K, V = B.products
        K = K.copy()
        K[len(K) // 2] = (K[len(K) // 2] + 1) % B.N
        changed.append(Bundle(B.S, B.points, B.N, (pair, x, y, z, K, V), B.stars, B.inclusions, B.realization))
    assert _same_on_bundles(changed[:1]) == {False}
    # on I_4 the failure runs the dense full scan, seconds each: verify once
    ok, bad = changed[1].verify()
    assert not ok and (ok, bad) == ref_verify(changed[1])


def test_compiled_checks_match_the_former_on_corrupted_tables():
    # test_bundle_kernel's 500 corruptions
    bundles = [build_bundle(A) for A in mutation_corpus(random.Random(2))]
    rng = random.Random(5)
    assert _same_on_bundles(_corrupt_one_entry(bundles[i % len(bundles)], rng) for i in range(500)) == {False}


def test_compiled_checks_match_the_former_on_section_bundles_refinements_and_algebras():
    bundles = []
    for G in standard_groupoids().values():
        S, biss, _ = bisection_semigroup(G)
        bundles.append(SectionBundle(G, TwoCocycle.trivial(G), S, biss))
        s = next(s for s in S.elements() if biss[s] and not S.is_idempotent(s))
        bundles.append(SectionBundle(G, TwoCocycle.trivial(G), S, biss,  # a cut carrier
                                     carriers={s: frozenset(sorted(biss[s], key=str)[1:])}))
    cut = [B for B, *_ in _non_saturated_examples()]
    bundles += cut + [saturated_refinement(B)[0] for B in cut + bundles[4:5]]  # test_08's, pair2's
    bundles += [saturated_refinement(build_bundle(A))[0] for A in corpus(random.Random(0), 40)]
    bundles += [make()[0] for make in parity_cases()]
    bundles.append(convolution_algebra(cyclic_group(3), TwoCocycle.trivial(cyclic_group(3))))  # C[Z/3]
    assert _same_on_bundles(bundles) == {True, False}


def _arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for v in value:
            yield from _arrays(v)
    elif isinstance(value, dict):
        for v in value.values():
            yield from _arrays(v)


def test_every_compiled_family_checks_an_instance_and_the_geometry_is_shared_and_read_only():
    for A in corpus(random.Random(0), 200):
        if not A.frame.fib.any():
            continue
        B = build_bundle(A)
        assert verify_fell_bundle(B)[0] and verify_fell_bundle(B)[0]  # the second read keeps each family
        G, kept = B.geometry, B.geometry.kept
        tags = {key[0] if isinstance(key, tuple) else key for key in kept}
        assert tags == {*FAMILIES, "norms"}, tags
        for key, (same, *_) in kept.items():
            if key != "norms":
                assert same.any(), key  # an instance where both sides are not zero
        i, *_, mz, _ = kept["norms"]
        assert len(i) and (mz != NOWHERE).any()
        assert classify_bundle(B)["saturated"] and roundtrip_check(A)[0]
        own = {key: v for key, v in vars(G).items() if key not in ("T", "leq")}  # not S's tables
        arrays = list(_arrays([own, A.frame.bundle]))
        assert arrays and not any(a.flags.writeable for a in arrays)
        chi = random_gauge(A, random.Random(3))
        assert build_bundle(gauge_transform(A, chi)).geometry is G
