"""The benchmark's workloads.

Each workload has a set-up, which makes its inputs from the seed and returns
a list of cases. A case is one verdict: ``(input_id, run, args)``, where
``run(harness, *args)`` carries the input through the workload's operations,
each made at a named layer boundary and checked against a known answer.

The seed changes the instances, not their cost. Every workload fixes its mix
of input shapes; the seed picks generator sets within one shape, gauges,
cocycles, unitaries and the random elements of randomized checks. Drawing
shapes at random as well (``generators.corpus``) moved one pass's time by
about 30% between seeds, which no useful bound on a regression can absorb.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
from fractions import Fraction

import numpy as np

import adapt
from fellsem import action, algebra, bundle, cli, generators, groupoid, isg, refine, reps, tro
from fellsem.angles import Angle

EPS = 1e-9

# layer boundaries: one per public entry point (or fixed pair of them) that
# the workloads call, named <module>.<step>
BOUNDARIES = [
    "isg.verify",
    "action.parse", "action.gauge", "action.axioms", "action.consequences",
    "action.germs", "action.sieben",
    "bundle.verify", "bundle.classify", "bundle.extract", "bundle.roundtrip",
    "groupoid.bisections", "groupoid.enumerate", "groupoid.cocycle",
    "groupoid.to_action", "groupoid.germ_recovery",
    "tro.span", "tro.closure", "tro.association", "tro.regular", "tro.local",
    "algebra.build", "algebra.verify", "algebra.blocks",
    "reps.covariant", "reps.convert",
    "refine.saturate", "refine.verify", "refine.germs", "refine.algebra",
    "cli.main",
]
# work counts computed from the inputs at the boundaries that do the work
COUNTS = ["isg.verify.triples", "tro.closure.products",
          "groupoid.enumerate.candidates", "groupoid.enumerate.accepted"]


def _itself(result):
    return result


def _gauged(A, rng):
    return action.gauge_transform(A, generators.random_gauge(A, rng))


def _coboundary(G, rng, roots: int):
    """A seeded coboundary twist; cohomologous to the trivial cocycle, so
    block profiles and germ groupoids are those of the untwisted groupoid."""
    c = {a: Angle(Fraction(rng.randrange(roots), roots)) for a in G.arrows() if not G.is_unit(a)}
    return groupoid.TwoCocycle.coboundary(G, c)


def _monoid_shapes(k: int, max_size: int) -> dict:
    """Sub-monoids of I_k generated by the identity and one or two further
    elements, grouped by shape (size, sorted carrier sizes). The cost of
    checking a tautological action depends on its shape alone."""
    S = isg.symmetric_inverse_monoid(k)
    maps = isg.partial_injections(k)
    ident = maps.index({i: i for i in range(k)})
    shapes = {}
    for r in (1, 2):
        for gens in itertools.combinations(range(S.n), r):
            sub, order = isg.sub_semigroup(S, sorted(set(gens) | {ident}))
            if sub.n <= max_size:
                shape = (sub.n, tuple(sorted(len(maps[a]) for a in order)))
                shapes.setdefault(shape, []).append((sub, [maps[a] for a in order]))
    return shapes


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_case(h, argv):
    # every (command, file) pair the workloads run has the verdict pass
    h.check("cli.main", True, adapt.cli, _run_cli, argv)


# ---------------------------------------------------------------------------
# shared action checks

def _siebenize(A):
    _, fixed = action.siebenize(A)
    return action.check_sieben(fixed)


def _germs(A):
    return action.germ_groupoid(A).verify()


def _fell(A, seed):
    return bundle.verify_fell_bundle(bundle.build_bundle(A), tol=EPS, rng=random.Random(seed))


def _classify(A):
    return bundle.classify_bundle(bundle.build_bundle(A), tol=EPS)


def _extract_is_exact(A):
    B = bundle.build_bundle(A)
    return bundle.extract_action(B, bundle.canonical_multipliers(B)).equals(A)


def _json_fixpoint(A):
    data = A.to_json()
    return action.TwistedAction.from_json(data).to_json() == data


def _comma_label_defect(A):
    """Known defect: TwistedAction.to_json joins the two labels of an omega
    key with ',', so from_json cannot split the key again when a label has
    a comma in it, as the I_k labels such as {0>0,1>1} do."""
    return lambda exc: isinstance(exc, ValueError) and any("," in lab for lab in A.S.labels)


# ---------------------------------------------------------------------------
# the exact corpus: many small actions, valid ones beside invalid mutants

# largest sub-monoid of I_2 and of I_3 in the corpus: all 9 shapes inside
# I_2, and the 19 shapes of I_3 up to 5 elements
CORPUS_MAX_SIZE = {2: 7, 3: 5}
MUTANTS = 200
ACTION_FILES = ("data/busby_smith_z2.json", "data/five_element_s.json")
ACTION_COMMANDS = [("action", op) for op in ("verify", "consequences", "sieben", "siebenize", "germs")] \
    + [("bundle", op) for op in ("verify", "classify", "extract", "roundtrip")]


def _corpus_case(h, A, seed):
    h.check("action.axioms", True, adapt.action, action.verify_twisted_action, A)
    h.check("action.consequences", True, adapt.action, action.verify_consequences, A)
    h.check("action.sieben", True, adapt.action, _siebenize, A)
    h.check("action.germs", True, adapt.action, _germs, A)
    h.check("bundle.verify", True, adapt.bundle, _fell, A, seed)
    h.check("bundle.classify", True, adapt.bundle, _classify, A)
    h.check("bundle.roundtrip", True, adapt.bundle, bundle.roundtrip_check, A)
    h.check("action.parse", True, _itself, _json_fixpoint, A, defect=_comma_label_defect(A))


def _undetected(axioms_result, M):
    return adapt.action(axioms_result) and adapt.action(action.verify_consequences(M))


def _mutant_case(h, M):
    # the known answer is for the pair: a mutant must fail axioms or consequences
    axioms = h.build("action.axioms", action.verify_twisted_action, M)
    h.check("action.consequences", False, _itself, _undetected, axioms, M)


def setup_exact_corpus(seed: int):
    rng = random.Random(seed)
    corpus = [generators.full_monoid_action(2), generators.five_element_action(),
              generators.busby_smith_z2(),
              generators.cocycle_action(*groupoid.z2_nontrivial_cocycle())[0]]
    for k, max_size in CORPUS_MAX_SIZE.items():
        shapes = _monoid_shapes(k, max_size)
        for shape in sorted(shapes):
            S, maps = rng.choice(shapes[shape])
            corpus.append(_gauged(generators.untwisted_action(S, maps), rng))
    for G in (groupoid.cyclic_group(2), groupoid.cyclic_group(3), groupoid.pair_groupoid([0, 1])):
        corpus.append(_gauged(generators.cocycle_action(G, _coboundary(G, rng, 4))[0], rng))
    bases = generators.mutation_corpus(rng)
    mutants = [generators.mutate_omega(bases[i % len(bases)], rng) for i in range(MUTANTS)]

    cases = [(f"corpus/{i}", _corpus_case, (A, seed * 1000 + i)) for i, A in enumerate(corpus)]
    cases += [(f"mutant/{i}", _mutant_case, (M,)) for i, M in enumerate(mutants)]
    cases += [(f"cli/{cmd} {op} {path}", _cli_case, (["--seed", str(seed), cmd, op, path],))
              for path in ACTION_FILES for cmd, op in ACTION_COMMANDS]
    return cases


# ---------------------------------------------------------------------------
# monoid-scale: a few large tautological actions under seeded gauges. I_4
# skips the checks that take 9.8 s (classify_bundle) and minutes (the
# axioms); verify_fell_bundle runs on a 13-element sub-monoid of I_3,
# because on the whole of I_3 it takes 23 s. That verdict is cheaper than
# the I_3 one, so the median of the three verdicts is always I_3.

BUNDLE_MONOID_SIZE = 13


def _monoid_case(h, A, chi, exact: bool, fell_seed):
    S = A.S
    h.count("isg.verify.triples", S.n ** 3)
    h.check("isg.verify", True, adapt.isg, isg.verify_inverse_semigroup, S.table, labels=S.labels)
    Ag = h.build("action.gauge", action.gauge_transform, A, chi)
    h.check("action.consequences", True, adapt.action, action.verify_consequences, Ag)
    h.check("action.sieben", True, adapt.action, _siebenize, Ag)
    h.check("action.germs", True, adapt.action, _germs, Ag)
    if exact:
        h.check("bundle.classify", True, adapt.bundle, _classify, Ag)
        h.check("action.axioms", True, adapt.action, action.verify_twisted_action, Ag)
        h.check("bundle.extract", True, _itself, _extract_is_exact, Ag)
        h.check("bundle.roundtrip", True, adapt.bundle, bundle.roundtrip_check, Ag)
    if fell_seed is not None:
        h.check("bundle.verify", True, adapt.bundle, _fell, Ag, fell_seed)


def setup_monoid_scale(seed: int):
    rng = random.Random(seed)
    shapes = _monoid_shapes(3, BUNDLE_MONOID_SIZE)
    shape = min(s for s in shapes if s[0] == BUNDLE_MONOID_SIZE)
    S, maps = rng.choice(shapes[shape])
    sub = generators.untwisted_action(S, maps)
    i3 = generators.full_monoid_action(3)
    i4 = generators.full_monoid_action(4)
    return [
        (f"monoid/I3-sub{S.n}", _monoid_case, (sub, generators.random_gauge(sub, rng), True, seed)),
        ("monoid/I3", _monoid_case, (i3, generators.random_gauge(i3, rng), True, None)),
        ("monoid/I4", _monoid_case, (i4, generators.random_gauge(i4, rng), False, None)),
    ]


# ---------------------------------------------------------------------------
# the TRO sweep: unitarily conjugated corner TROs, fixed (n, rows, cols) shapes

TRO_SHAPES = [
    (2, 1, 1), (2, 1, 2), (2, 2, 1), (2, 2, 2),
    (3, 1, 3), (3, 3, 1), (3, 2, 2), (3, 2, 3), (3, 3, 3),
    (4, 1, 4), (4, 2, 2), (4, 3, 3), (4, 2, 4), (4, 4, 3),
    (5, 2, 2), (5, 3, 3), (5, 1, 5), (5, 2, 5),
    (6, 3, 3), (6, 2, 3), (6, 1, 6), (6, 3, 4),
    (7, 2, 2), (7, 3, 3), (7, 1, 7), (7, 2, 4),
    (8, 3, 3), (8, 1, 8), (8, 2, 5),
]
DIAGONALS = ([1, 0, 0], [0, 1, 0], [1, 1, 0])


def _complex_normal(npr, shape):
    return npr.standard_normal(shape) + 1j * npr.standard_normal(shape)


def _corner_tro(npr, n, r, c):
    """The matrix units of an r x c corner, conjugated by random unitaries."""
    rows = sorted(npr.choice(n, size=r, replace=False))
    cols = sorted(npr.choice(n, size=c, replace=False))
    q1, _ = np.linalg.qr(_complex_normal(npr, (n, n)))
    q2, _ = np.linalg.qr(_complex_normal(npr, (n, n)))
    mats = []
    for i in rows:
        for j in cols:
            m = np.zeros((n, n), dtype=complex)
            m[i, j] = 1
            mats.append(q1 @ m @ q2)
    return mats


def _associate(M, probe):
    """check_association for the three kinds of u in the acceptance suite:
    a random matrix, the strict polar part of a random element of M, and
    that part perturbed."""
    u, coeffs, noise = probe
    if u is None:
        m = sum(co * b for co, b in zip(coeffs, M.basis))
        u = tro.strict_correction(tro.polar_isometry(m), M)
        if noise is not None:
            u = u + 0.25 * noise
    return tro.check_association(u, M)


def _tro_case(h, mats, square: bool, probes, seed):
    M = h.build("tro.span", tro.MatrixTRO.from_matrices, mats)
    h.count("tro.closure.products", len(M.basis) ** 3)
    h.check("tro.closure", True, adapt.tro, M.is_tro)
    for probe in probes:
        h.check("tro.association", True, adapt.tro, _associate, M, probe)
    ok, witness = h.check("tro.regular", square, adapt.tro, tro.is_regular, M,
                          rng=random.Random(seed))
    if ok:
        h.check("tro.association", True, adapt.tro_strict, tro.check_association, witness, M)


def _column_case(h, M, seed):
    h.check("tro.regular", False, adapt.tro, tro.is_regular, M, rng=random.Random(seed))


def _diagonal_case(h, mats, seed):
    D = h.build("tro.span", tro.MatrixTRO.from_matrices, mats)
    h.check("tro.local", True, adapt.tro, tro.is_locally_regular, D, rng=random.Random(seed))


def setup_tro_sweep(seed: int):
    npr = np.random.default_rng(seed)
    cases = []
    for i, (n, r, c) in enumerate(TRO_SHAPES):
        mats = _corner_tro(npr, n, r, c)
        k = r * c
        probes = [(_complex_normal(npr, (n, n)), None, None),
                  (None, _complex_normal(npr, k), None),
                  (None, _complex_normal(npr, k), _complex_normal(npr, (n, n)))]
        cases.append((f"tro/{i}:{n}x{n}:{r}x{c}", _tro_case, (mats, r == c, probes, seed * 1000 + i)))
    cases.append(("tro/column2", _column_case, (tro.column_tro(2), seed)))
    for diag in DIAGONALS:
        mats = [np.diag([float(i == j) for i in range(3)]) for j, on in enumerate(diag) if on]
        cases.append((f"tro/diag{''.join(map(str, diag))}", _diagonal_case, (mats, seed)))
    return cases


# ---------------------------------------------------------------------------
# the groupoid twists: cocycle enumeration, algebras, representations, refinements

# (name, groupoid constructor, enumeration, roots, cocycles it finds). Brute
# force finds the normalized cocycles with values in the roots, |Z^2| =
# |B^2| |H^2|, as in the acceptance suite. The pair groupoid
# on 3 points (12 free slots; 4096 candidates at roots 2 take 4.5 s) and the
# transitive Z/2 groupoid (18 free slots) get their sign coboundaries.
GROUPOIDS = [
    ("z2", lambda: groupoid.cyclic_group(2), groupoid.enumerate_cocycles, 4, 4),
    ("z3", lambda: groupoid.cyclic_group(3), groupoid.enumerate_cocycles, 4, 16),
    ("pair2", lambda: groupoid.pair_groupoid([0, 1]), groupoid.enumerate_cocycles, 4, 4),
    ("trans_z2", groupoid.transitive_z2_groupoid, groupoid.coboundary_cocycles, 2, 16),
    ("pair3", lambda: groupoid.pair_groupoid([0, 1, 2]), groupoid.coboundary_cocycles, 2, 16),
]
BLOCKS = {"z2": [1, 1], "z3": [1, 1, 1], "pair2": [2], "pair3": [3], "trans_z2": [2, 2]}
# refinement checks on the three-point pair groupoid take 2.5 s, which would
# leave too few passes in a run; its saturate and verify run through the CLI
REFINED = {"z2", "z3", "pair2", "trans_z2"}
GROUPOID_COMMANDS = [("groupoid", op) for op in ("verify", "bisections", "cocycle", "to-action", "roundtrip")] \
    + [("algebra", "build"), ("algebra", "blocks")] \
    + [("rep", op) for op in ("regular", "verify", "convert")] \
    + [("refine", op) for op in ("saturate", "verify", "germ-check", "algebra-check")]
# on the three-point pair groupoid, germ-check and algebra-check take 2.2 s,
# which would leave too few passes in a run; they run on the Z/2 file only
GROUPOID_CLI = [(cmd, op, "data/z2_twisted.json") for cmd, op in GROUPOID_COMMANDS] \
    + [(cmd, op, "data/pair_groupoid.json") for cmd, op in GROUPOID_COMMANDS
       if op not in ("germ-check", "algebra-check")]


def _sign_cocycle(G):
    """The pullback of the sign twist on the isotropy group of the
    transitive Z/2 groupoid, as in the acceptance suite."""
    arrows = [(i, e, j) for i in (0, 1) for e in (0, 1) for j in (0, 1)]
    tau = {(a, b): "1/2" if arrows[a][1] == 1 and arrows[b][1] == 1 else 0
           for a, b in G.composable_pairs()}
    return groupoid.TwoCocycle(G, tau)


def _omega_is_tau(G, tau, biss):
    """The induced action carries tau exactly: omega(s, t) at the range of
    ab is tau(a, b) for the singleton bisections s = {a}, t = {b}."""
    index = {frozenset(b): i for i, b in enumerate(biss)}

    def read(A):
        return all(A.omega[(index[frozenset({a})], index[frozenset({b})])](G.rng[G.mul(a, b)]) == tau(a, b)
                   for a, b in G.composable_pairs())
    return read


def _recovers(G):
    def read(result):
        ok, mapping = result
        return bool(ok) and len(set(mapping.values())) == G.m
    return read


def _cocycle_checks(h, G, tau, S, biss, wide):
    h.check("groupoid.cocycle", True, adapt.groupoid, groupoid.verify_cocycle, G, tau)
    A = h.check("groupoid.to_action", True, _omega_is_tau(G, tau, biss),
                groupoid.action_from_cocycle, G, tau, S, biss, wide)
    h.check("groupoid.germ_recovery", True, _recovers(G),
            groupoid.germ_recovers_groupoid, G, tau, S, biss, wide)
    return A


def _refinement_saturated(result):
    refined, _ = result
    return adapt.saturated(bundle.classify_bundle(refined, tol=EPS))


def _twisted_checks(h, G, tau, S, biss, A, blocks, seed, refined: bool):
    """Algebra, representation and refinement checks of one twisted groupoid."""
    alg = h.build("algebra.build", algebra.convolution_algebra, G, tau)
    h.check("algebra.verify", True, adapt.algebra, alg.verify, EPS)
    h.check("algebra.blocks", blocks, adapt.algebra, algebra.block_decompose, alg,
            rng=random.Random(seed))
    made = {}

    def covariant():
        made["rep"] = reps.regular_covariant_rep(G, tau, S, biss)
        return reps.verify_covariant(made["rep"], A, EPS)

    def convert():
        B = made["bundle"] = bundle.SectionBundle(G, tau, S, biss)
        pi = reps.to_bundle_rep(made["rep"], B)
        ok = adapt.reps(reps.verify_representation(pi, B, EPS))
        return ok and adapt.reps(reps.reps_equal(made["rep"], reps.to_covariant(pi, B, A), EPS))

    h.check("reps.covariant", True, adapt.reps, covariant)
    h.check("reps.convert", True, _itself, convert)
    if not refined:
        return
    _, m = h.check("refine.saturate", True, _refinement_saturated, refine.saturated_refinement, made["bundle"])
    h.check("refine.verify", True, adapt.refine, refine.verify_refinement, m, EPS)
    h.check("refine.germs", True, adapt.refine, refine.germ_preservation_check, m)
    h.check("refine.algebra", True, adapt.refine, refine.algebra_preservation_check, m, EPS)


def _groupoid_case(h, name, G, enumerate_, roots, cocycles, twist, seed, found):
    """Bisections and cocycle enumeration of one groupoid, then the checks
    of its seeded coboundary twist. The enumerated cocycles go to ``found``
    for the cocycle cases that follow in the same pass."""
    found.pop(name, None)
    S, biss, wide = h.build("groupoid.bisections", groupoid.bisection_semigroup, G)
    if enumerate_ is groupoid.coboundary_cocycles:
        free = sum(1 for a in G.arrows() if not G.is_unit(a))
    else:
        free = sum(1 for a, b in G.composable_pairs() if not (G.is_unit(a) or G.is_unit(b)))
    h.count("groupoid.enumerate.candidates", roots ** free)
    taus = h.check("groupoid.enumerate", cocycles, len, enumerate_, G, roots=roots)
    h.count("groupoid.enumerate.accepted", len(taus))
    # as in the acceptance suite, the sign twist pulled back from the isotropy
    found[name] = (S, biss, wide, taus + ([_sign_cocycle(G)] if name == "trans_z2" else []))
    A = _cocycle_checks(h, G, twist, S, biss, wide)
    _twisted_checks(h, G, twist, S, biss, A, BLOCKS[name], seed, name in REFINED)


def _cocycle_case(h, name, G, index, found):
    """One enumerated cocycle is one verdict. When the enumeration of its
    groupoid failed in this pass, there is nothing to check."""
    S, biss, wide, taus = found.get(name, (None, None, None, []))
    if index < len(taus):
        _cocycle_checks(h, G, taus[index], S, biss, wide)


def _sign_case(h, G, tau, seed):
    """The order-two group twisted by tau(g, g) = -1."""
    S, biss, wide = h.build("groupoid.bisections", groupoid.bisection_semigroup, G)
    A = _cocycle_checks(h, G, tau, S, biss, wide)
    _twisted_checks(h, G, tau, S, biss, A, [1, 1], seed, True)


def _unsaturated_examples(rng):
    """Section bundles with shrunken carriers, with the germ-groupoid arrow
    count and block profile of their saturated refinement."""
    G = groupoid.cyclic_group(2)
    S, biss, _ = groupoid.bisection_semigroup(G)
    g = next(i for i in S.elements() if biss[i] and not S.is_idempotent(i))
    yield bundle.SectionBundle(G, _coboundary(G, rng, 4), S, biss, carriers={g: frozenset()}), 1, [1]
    G = groupoid.pair_groupoid([0, 1, 2])
    cyc = frozenset(a for a in G.arrows() if (G.rng[a] - G.src[a]) % 3 == 1)
    S, biss, _ = groupoid.bisection_semigroup(G, generators=[cyc])
    arrow = {(G.rng[a], G.src[a]): a for a in G.arrows()}
    sT = next(i for i, b in enumerate(biss) if arrow[(1, 0)] in b and not S.is_idempotent(i))
    carriers = {sT: frozenset({arrow[(1, 0)]}), S.inv[sT]: frozenset({arrow[(0, 1)]})}
    yield bundle.SectionBundle(G, _coboundary(G, rng, 4), S, biss, carriers=carriers), 5, [1, 2]


def _unsaturated_case(h, B, germ_arrows, blocks, seed):
    h.check("bundle.verify", True, adapt.bundle, bundle.verify_fell_bundle, B, tol=EPS,
            rng=random.Random(seed))
    h.check("bundle.classify", False, adapt.saturated, bundle.classify_bundle, B, tol=EPS)
    refined, m = h.check("refine.saturate", True, _refinement_saturated, refine.saturated_refinement, B)
    h.check("refine.verify", True, adapt.refine, refine.verify_refinement, m, EPS)
    act = h.build("bundle.extract", bundle.extract_action, refined,
                  bundle.canonical_multipliers(refined))
    made = {}

    def germs():
        made["germs"] = action.germ_groupoid(act)
        return adapt.action(made["germs"].verify()), made["germs"].arrow_count

    h.check("action.germs", (True, germ_arrows), _itself, germs)
    alg = h.build("algebra.build", algebra.germ_algebra, act, made["germs"])
    h.check("algebra.blocks", blocks, adapt.algebra, algebra.block_decompose, alg,
            rng=random.Random(seed))


def setup_groupoid_twists(seed: int):
    rng = random.Random(seed)
    found = {}
    cases = []
    for i, (name, make, enumerate_, roots, cocycles) in enumerate(GROUPOIDS):
        G = make()
        cases.append((f"groupoid/{name}", _groupoid_case,
                      (name, G, enumerate_, roots, cocycles, _coboundary(G, rng, 4), seed * 1000 + i, found)))
        cases += [(f"cocycle/{name}/{j}", _cocycle_case, (name, G, j, found))
                  for j in range(cocycles + (name == "trans_z2"))]
    G, tau = groupoid.z2_nontrivial_cocycle()
    cases.append(("groupoid/z2-sign", _sign_case, (G, tau, seed * 1000 + 10)))
    for i, (B, germ_arrows, blocks) in enumerate(_unsaturated_examples(rng)):
        cases.append((f"unsaturated/{i}", _unsaturated_case, (B, germ_arrows, blocks, seed * 1000 + 20 + i)))
    cases += [(f"cli/{cmd} {op} {path}", _cli_case, (["--seed", str(seed), cmd, op, path],))
              for cmd, op, path in GROUPOID_CLI]
    return cases


WORKLOADS = {
    "exact-corpus": setup_exact_corpus,
    "monoid-scale": setup_monoid_scale,
    "tro-sweep": setup_tro_sweep,
    "groupoid-twists": setup_groupoid_twists,
}
