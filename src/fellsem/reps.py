"""Covariant representations and bundle representations on matrices.

The regular covariant representation of a cocycle action lives on the
arrow space of the groupoid: functions on the unit space act diagonally
through the range map, and each bisection acts by twisted left translation,
its entries the values of the cocycle's exponents.  The checks stack the
matrices and run each axiom family as batched matmuls and norms, in chunks
of ENTRIES matrix entries.
"""

from __future__ import annotations

import numpy as np

from fellsem.action import TwistedAction, _require_theta, turns
from fellsem.groupoid import membership

# matrix entries a chunk of verify_covariant or of verify_representation's pair family holds
ENTRIES = 1 << 15


class RepError(ValueError):
    pass


class CovariantRep:
    """(rho, v): rho maps point masses on X to d-by-d matrices, v maps
    semigroup elements to partial isometries."""

    def __init__(self, d: int, rho: dict, v: dict):
        self.d = d
        self.rho = {x: np.asarray(m, dtype=complex) for x, m in rho.items()}
        self.v = {s: np.asarray(m, dtype=complex) for s, m in v.items()}


class BundleRep:
    """pi maps fiber point masses to matrices, extended linearly."""

    def __init__(self, d: int, mats: dict):
        self.d = d
        self.mats = {key: np.asarray(m, dtype=complex) for key, m in mats.items()}


def regular_covariant_rep(G, tau, S, bisections) -> CovariantRep:
    """Left translation on the arrow space, twisted by the cocycle.

    rho(point mass at object x) is the diagonal projection onto arrows
    with range x; v_s has entry tau(a, c) in position (ac, c) for each
    a in the bisection of s composable with c, read from tau's exponents.
    """
    N, K = tau.exponents()
    s, p = np.nonzero(membership(G, [bisections[s] for s in S.elements()])[:, G.pair_a])
    v = np.zeros((S.n, G.m, G.m), dtype=complex)
    v[s, G.pair_ab[p], G.pair_b[p]] = turns(K, N)[p]
    rho = {x: np.diag((G.rng_i == G.object_index[x]).astype(complex)) for x in G.objects}
    return CovariantRep(G.m, rho, dict(enumerate(v)))


def _far(a, b, tol):
    """Whether stacked matrices a and b differ by more than tol relative to b."""
    norm = np.linalg.norm(b, axis=(-2, -1))
    return ~(np.linalg.norm(a - b, axis=(-2, -1)) <= tol * np.maximum(1.0, norm))


def verify_covariant(R: CovariantRep, A: TwistedAction, tol: float = 1e-9):
    """The three covariance axioms, on point masses.

    (i) conjugation by v_s implements the action, (ii) v_s v_t v_{st}*
    represents omega(s, t), (iii) v_s* v_s and v_s v_s* are the images of
    the domain and range indicator functions.  Each family is batched
    matmuls and norms over the stacked v_s and rho, in chunks of s holding
    ENTRIES matrix entries; violations come s by s.
    """
    S, F, d = A.S, A.frame, R.d
    n, ar = F.n, np.arange(F.n)
    v = np.stack([R.v[s] for s in S.elements()]).reshape(n, d, d)
    vh = v.conj().transpose(0, 2, 1)
    rho = np.stack([R.rho[x] for x in F.points]).reshape(F.m, d, d)
    dom = F.U[F.T[F.inv, ar]]  # [s, x]: x in U(s*s)
    _require_theta(F, dom, F.th, np.arange(F.m)[None, :])  # KeyError where theta_s misses U(s*s)
    # omega's values from the action's arrays, zero off the carriers
    omega = turns(A.W, A.N, A.V).reshape(A.W.shape)
    conj, cocycle = np.zeros((n, F.m), dtype=bool), np.zeros((n, n), dtype=bool)
    step = max(1, ENTRIES // (max(n, F.m) * d * d))
    for lo in range(0, n, step):
        s = ar[lo:lo + step]
        conj[s] = dom[s] & _far(v[s, None] @ rho @ vh[s, None], rho[F.th[s]], tol)
        cocycle[s] = _far(v[s, None] @ v @ vh[F.T[s]], np.tensordot(omega[s], rho, 1), tol)
    domain = _far(vh @ v, np.tensordot(dom, rho, 1), tol)
    range_ = _far(v @ vh, np.tensordot(F.fib, rho, 1), tol)
    bad = []
    for s in np.flatnonzero(conj.any(axis=1)):
        bad += [("conjugation", (S.label(s), x)) for x in A.U[S.mul(S.inv[s], s)] if conj[s, F.index[x]]]
    bad += [("cocycle", (S.label(s), S.label(t))) for s, t in zip(*np.nonzero(cocycle))]
    for s in np.flatnonzero(domain | range_):
        bad += [(tag, S.label(s)) for tag, hit in (("domain-projection", domain[s]),
                                                   ("range-projection", range_[s])) if hit]
    return not bad, bad


def _to_object(B, x):
    # section-bundle fiber points are arrows; the action point is the range
    return B.G.rng[x] if B.realization == "section" else x


def to_bundle_rep(R: CovariantRep, B) -> BundleRep:
    """pi_s(f delta_s) = rho(f) v_s on point masses."""
    mats = {}
    for s in B.S.elements():
        for x in B.carrier(s):
            mats[(s, x)] = R.rho[_to_object(B, x)] @ R.v[s]
    return BundleRep(R.d, mats)


def to_covariant(pi: BundleRep, B, A: TwistedAction) -> CovariantRep:
    """rho from the idempotent fibers, v_s = pi of the constant one over s."""
    S = A.S
    rho = {}
    for x in A.X:
        for e in S.idem:
            hits = [p for p in B.carrier(e) if _to_object(B, p) == x]
            if hits:
                rho[x] = pi.mats[(e, hits[0])]
                break
        else:
            raise RepError(f"point {x} is not in any idempotent carrier")
    zero = np.zeros((pi.d, pi.d), dtype=complex)
    v = {s: sum((pi.mats[(s, x)] for x in B.points[s]), zero) for s in S.elements()}
    return CovariantRep(pi.d, rho, v)


def verify_representation(pi: BundleRep, B, tol: float = 1e-9):
    """Multiplicativity, *-compatibility and inclusion-compatibility on
    point masses, gathered through B's lookups; pi of a scaled point mass
    (z, c) in fiber s is c pi.mats[(s, z)], in chunks of ENTRIES matrix
    entries.  A table that leaves its fibers is reported as Bundle.verify
    reports it, instead."""
    bad = B.fiber_violations()
    if bad:
        return False, bad
    L = B.lookup(exact=False)  # the images need every scalar's complex value
    lab, pts, off, d = B.S.label, B.points, B.off, pi.d
    mats = np.stack([pi.mats[(s, x)] for s, p in enumerate(pts) for x in p]
                    + [np.zeros((d, d), dtype=complex)])

    def image(s, p):
        z, _, V = p
        return V[:, None, None] * mats.take(off[s] + z, axis=0, mode="clip")

    def far(a, b):
        norm = np.linalg.norm(b, axis=(1, 2))
        return ~(np.linalg.norm(a - b, axis=(1, 2)) <= tol * np.maximum(1.0, norm))

    s, t, x, y = B.pairs
    step = max(1, ENTRIES // max(1, d * d))
    hit = [np.empty(0, dtype=np.intp)]
    for a in range(0, len(s), step):
        i, j, u, v = (w[a:a + step] for w in (s, t, x, y))
        rhs = image(B.T[i, j], L.product(i, j, u, v))
        hit.append(a + np.flatnonzero(far(mats[off[i] + u] @ mats[off[j] + v], rhs)))
    k = np.concatenate(hit)
    bad = [("multiplicative", (lab(s), lab(t), pts[s][x], pts[t][y]))
           for s, t, x, y in zip(s[k], t[k], x[k], y[k])]
    s, x = B.slot_s, B.slot_x
    k = far(mats[:-1].conj().transpose(0, 2, 1), image(B.inv[s], L.star(s, x)))
    bad += [("star", (lab(s), pts[s][x])) for s, x in zip(s[k], x[k])]
    s, t, x = B.below
    k = far(image(t, L.include(s, t, x)), mats[off[s] + x])
    bad += [("inclusion", (lab(s), lab(t), pts[s][x])) for s, t, x in zip(s[k], t[k], x[k])]
    return not bad, bad


def reps_equal(R1: CovariantRep, R2: CovariantRep, tol: float = 1e-9) -> bool:
    if R1.d != R2.d or set(R1.rho) != set(R2.rho) or set(R1.v) != set(R2.v):
        return False
    for x in R1.rho:
        if np.linalg.norm(R1.rho[x] - R2.rho[x]) > tol:
            return False
    for s in R1.v:
        if np.linalg.norm(R1.v[s] - R2.v[s]) > tol:
            return False
    return True
