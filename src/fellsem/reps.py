"""Covariant representations and bundle representations on matrices.

The regular covariant representation of a cocycle action lives on the
arrow space of the groupoid: functions on the unit space act diagonally
through the range map, and each bisection acts by twisted left translation,
its entries the values of the cocycle's exponents.  The checks stack the
matrices and run each axiom family as a few BLAS-shaped calls.  The pair
products are one gemm per chunk: v_s v_t for a chunk of s against every t
is one (s·d)-by-d times d-by-(n·d) product, and pi(delta_x) pi(delta_y)
for a chunk of left slots against every slot is one such product over the
slot grid.  ENTRIES bounds the matrix entries of one chunk's products, a
chunk being at least one s or one left slot.  A check compares matrices by
the rule |a - b| <= tol max(1, |b|) in the Frobenius norm, each norm one
einsum over the float view of the complex entries.
"""

from __future__ import annotations

import numpy as np

from fellsem.action import TwistedAction, _theta_error, turns
from fellsem.groupoid import membership

# matrix entries a chunk of verify_covariant's or of verify_representation's products holds
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


def _norm(x):
    """The Frobenius norm of each complex matrix of a stack, read off the
    float view: the square root of the sum of squares of the real and
    imaginary parts, one einsum."""
    f = np.ascontiguousarray(x).view(np.float64)
    return np.sqrt(np.einsum("...ij,...ij->...", f, f))


def _far(a, b, tol):
    """Whether stacked matrices a and b differ by more than tol relative to b."""
    return ~(_norm(a - b) <= tol * np.maximum(1.0, _norm(b)))


def verify_covariant(R: CovariantRep, A: TwistedAction, tol: float = 1e-9):
    """The three covariance axioms, on point masses.

    (i) conjugation by v_s implements the action, (ii) v_s v_t v_{st}*
    represents omega(s, t), (iii) v_s* v_s and v_s v_s* are the images of
    the domain and range indicator functions.  Each family is batched
    matmuls and norms over the stacked v_s and rho, in chunks of s holding
    ENTRIES matrix entries; in (ii), v_s v_t for the chunk's s and every t
    is one gemm.  Violations come s by s, and a conjugation violation's
    points in the frame's point order.
    """
    S, F, d = A.S, A.frame, R.d
    n, ar = F.n, np.arange(F.n)
    v = np.stack([R.v[s] for s in S.elements()]).reshape(n, d, d)
    vh = np.ascontiguousarray(v.conj().transpose(0, 2, 1))
    vt = v.transpose(1, 0, 2).reshape(d, n * d)  # every v_t side by side, for one gemm
    rho = np.stack([R.rho[x] for x in F.points]).reshape(F.m, d, d)
    dom = F.U[F.T[F.inv, ar]]  # [s, x]: x in U(s*s)
    if error := _theta_error(F, dom, F.th, np.arange(F.m)[None, :]):  # where theta_s misses U(s*s)
        raise error
    # omega's values from the action's arrays, zero off the carriers
    omega = turns(A.W, A.N, A.V).reshape(A.W.shape)
    conj, cocycle = np.zeros((n, F.m), dtype=bool), np.zeros((n, n), dtype=bool)
    step = max(1, ENTRIES // (max(n, F.m) * d * d))
    for lo in range(0, n, step):
        s = ar[lo:lo + step]
        conj[s] = dom[s] & _far(v[s, None] @ rho @ vh[s, None], rho[F.th[s]], tol)
        vv = (v[s].reshape(len(s) * d, d) @ vt).reshape(len(s), d, n, d).transpose(0, 2, 1, 3)
        cocycle[s] = _far(vv @ vh[F.T[s]], np.tensordot(omega[s], rho, 1), tol)
    domain = _far(vh @ v, np.tensordot(dom, rho, 1), tol)
    range_ = _far(v @ vh, np.tensordot(F.fib, rho, 1), tol)
    bad = [("conjugation", (S.label(s), F.points[x])) for s, x in zip(*np.nonzero(conj))]
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
    (z, c) in fiber s is c pi.mats[(s, z)].  The products come one gemm
    per chunk of left slots, each chunk holding ENTRIES matrix entries or
    one slot's row.  A table that leaves its fibers is reported as Bundle.verify
    reports it, instead."""
    bad = B.fiber_violations()
    if bad:
        return False, bad
    L = B.lookup(exact=False)  # the images need every scalar's complex value
    lab, pts, off, d, M = B.S.label, B.points, B.off, pi.d, B.M
    mats = np.stack([pi.mats[(s, x)] for s, p in enumerate(pts) for x in p]
                    + [np.zeros((d, d), dtype=complex)])

    def image(s, p):
        z, _, V = p
        return V[..., None, None] * mats.take(off[s] + z, axis=0, mode="clip")

    # pi(delta_x) pi(delta_y) over the slot grid: one gemm per chunk of left
    # slots against every slot; grid holds the pair of each cell, as B.pairs
    # lists them, and the hits go back to pair order
    s, t, x, y = B.pairs
    grid = np.empty(len(s), dtype=np.intp)
    grid[(off[s] + x) * M + off[t] + y] = np.arange(len(s))
    right = mats[:-1].transpose(1, 0, 2).reshape(d, M * d)  # every pi(delta_y) side by side
    step = max(1, ENTRIES // max(1, M * d * d))
    hit = [np.empty(0, dtype=np.intp)]
    for lo in range(0, M, step):
        rows = min(step, M - lo)
        k = grid[lo * M:(lo + rows) * M]
        lhs = (mats[lo:lo + rows].reshape(rows * d, d) @ right).reshape(rows, d, M, d)
        i, j = s[k], t[k]
        rhs = image(B.T[i, j], L.product(i, j, x[k], y[k])).reshape(rows, M, d, d)
        hit.append(k[_far(lhs.transpose(0, 2, 1, 3), rhs, tol).ravel()])
    k = np.sort(np.concatenate(hit))
    bad = [("multiplicative", (lab(s), lab(t), pts[s][x], pts[t][y]))
           for s, t, x, y in zip(s[k], t[k], x[k], y[k])]
    s, x = B.slot_s, B.slot_x
    k = _far(mats[:-1].conj().transpose(0, 2, 1), image(B.inv[s], L.star(s, x)), tol)
    bad += [("star", (lab(s), pts[s][x])) for s, x in zip(s[k], x[k])]
    s, t, x = B.below
    k = _far(image(t, L.include(s, t, x)), mats[off[s] + x], tol)
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
