"""Finite inverse semigroups as verified Cayley tables.

The laws are checked on the table as an integer array.  Associativity is
Light's test (Clifford and Preston, The Algebraic Theory of Semigroups I,
1.2): (a g) c = a (g c) is compared for every a and c but only for g in a
generating set, a gather of T[T[:, g]] against T[:, T[g]] one block of
rows at a time.  It suffices because the g that pass are closed under
products: if g and h pass, then for every a and c

    (a (gh)) c = ((a g) h) c = (a g) (h c) = a (g (h c)) = a ((g h) c),

using g with (a, h), h with (ag, c), g with (a, hc) and h with (g, c).
So every product of generators passes, and generating_set takes its
generators so that their products reach every element.  A table small
enough to scan in one block is scanned with every element as a
generator, which is the full scan.  When the restricted scan finds a
violation, the full scan names the row-major first one.  The inverses and
the commuting of idempotents are array comparisons, and each failure
names its first witness in row-major order.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations, permutations

import numpy as np

# entries compared at once by the row-blocked associativity check; a table
# of at most this many triples is scanned whole
ASSOC_BLOCK = 1 << 16


class IsgError(ValueError):
    pass


class NonAssociative(IsgError):
    def __init__(self, a, b, c):
        self.triple = (a, b, c)
        super().__init__(f"associativity fails at triple ({a}, {b}, {c})")


class NoInverse(IsgError):
    def __init__(self, a):
        self.element = a
        super().__init__(f"element {a} has no generalized inverse")


class IdempotentsDontCommute(IsgError):
    def __init__(self, e, f):
        self.pair = (e, f)
        super().__init__(f"idempotents {e} and {f} do not commute")


class TooLarge(IsgError):
    pass


class InverseSemigroup:
    """A finite inverse semigroup on indices 0..n-1.

    Construct through verify_inverse_semigroup, or sub_semigroup, which
    inherits its parent's verified structure; the constructor trusts its
    arguments.
    """

    def __init__(self, table, inv, idem, labels=None):
        self.n = len(table)
        self.table = table
        self.inv = inv
        self.idem = idem
        self.labels = labels if labels is not None else [str(i) for i in range(self.n)]

    @cached_property
    def cayley(self) -> np.ndarray:
        """The table as an n x n integer array, built once."""
        return np.asarray(self.table, dtype=np.intp).reshape(self.n, self.n)

    @cached_property
    def order(self) -> np.ndarray:
        """[a, b]: a <= b in the natural order, a = b a* a; built once."""
        T, ar = self.cayley, np.arange(self.n)
        inv = np.array(self.inv, dtype=np.intp).reshape(self.n)
        return T[T[ar[None, :], inv[:, None]], ar[:, None]] == ar[:, None]

    @cached_property
    def generators(self) -> np.ndarray:
        """A generating set for Light's test (see table_generators), built once."""
        return table_generators(self.cayley)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def star(self, a: int) -> int:
        return self.inv[a]

    def is_idempotent(self, a: int) -> bool:
        return self.table[a][a] == a

    def leq(self, a: int, b: int) -> bool:
        """Natural partial order: a <= b iff a = b a* a."""
        return bool(self.order[a, b])

    def elements(self):
        return range(self.n)

    def label(self, a: int) -> str:
        return self.labels[a]

    def index_of(self, label: str) -> int:
        return self.labels.index(label)

    def __repr__(self):
        return f"InverseSemigroup(n={self.n}, idem={list(self.idem)})"

    def to_json(self):
        return {"elements": list(self.labels), "table": [list(row) for row in self.table]}

    @classmethod
    def from_json(cls, data) -> "InverseSemigroup":
        labels = data.get("elements")
        return verify_inverse_semigroup(data["table"], labels=labels)


def verify_inverse_semigroup(table, labels=None) -> InverseSemigroup:
    """Validate a Cayley table and return the inverse semigroup.

    Raises NonAssociative, NoInverse or IdempotentsDontCommute naming the
    first violated law and its first witness in row-major order, and
    IsgError for labels that are not one distinct label per element.
    """
    n = len(table)
    for a, row in enumerate(table):
        if len(row) != n:
            raise IsgError(f"row {a} has length {len(row)}, expected {n}")
    if labels is not None and len(labels) != n:
        raise IsgError(f"{len(labels)} labels for {n} elements")
    if labels is not None and len(set(labels)) < n:
        raise IsgError(f"label {next(x for i, x in enumerate(labels) if x in labels[:i])!r} repeats")
    if n == 0:
        return InverseSemigroup(table, [], [], labels)
    T = np.array(table).reshape(n, n)
    if T.dtype.kind not in "biu":
        for a, row in enumerate(table):
            for b, v in enumerate(row):
                if not (0 <= v < n):
                    raise IsgError(f"entry table[{a}][{b}] = {v} out of range")
                if not isinstance(v, (int, np.integer)):
                    raise TypeError(f"entry table[{a}][{b}] = {v!r} is not an integer")
    out = (T < 0) | (T >= n)
    if out.any():
        a, b = first_true(out)
        raise IsgError(f"entry table[{a}][{b}] = {table[a][b]} out of range")
    T = T.astype(np.intp)

    narrow = T.astype(np.int16) if n < 2 ** 15 else T  # values only; gathers move less
    middle = np.arange(n) if n ** 3 <= ASSOC_BLOCK else table_generators(T)
    triple = _nonassociative(T, narrow, middle)
    if triple and len(middle) < n:
        triple = _nonassociative(T, narrow, np.arange(n))  # the row-major first witness
    if triple:
        raise NonAssociative(*triple)

    # b is an inverse of a when aba = a and bab = b
    ar = np.arange(n)
    regular = T[T, ar[:, None]] == ar[:, None]
    both = regular & regular.T
    has = both.any(axis=1)
    if not has.all():
        raise NoInverse(int(np.argmin(has)))
    inv = both.argmax(axis=1)

    idem = np.flatnonzero(T[ar, ar] == ar)
    clash = (T != T.T)[idem[:, None], idem] & (idem[:, None] < idem)  # pairs e < f
    if clash.any():
        i, j = first_true(clash)
        raise IdempotentsDontCommute(int(idem[i]), int(idem[j]))

    S = InverseSemigroup(table, inv.tolist(), idem.tolist(), labels)
    S.cayley = T
    if len(middle) < n:
        S.generators = middle
    return S


def _nonassociative(T, narrow, middle):
    """The row-major first (a, g, c), g in `middle`, with (a g) c != a (g c),
    or None; narrow holds T's values in a narrower dtype."""
    n = len(T)
    rows = max(1, ASSOC_BLOCK // (n * len(middle)))
    left, right = T[:, middle], T[middle]
    for a0 in range(0, n, rows):
        # [a, i, c]: (a g) c against a (g c), g = middle[i]
        bad = narrow[left[a0:a0 + rows]] != narrow[a0:a0 + rows][:, right]
        if bad.any():
            a, i, c = first_true(bad)
            return a0 + a, int(middle[i]), c
    return None


def generating_set(product, order, size: int) -> np.ndarray:
    """Generators of the elements 0..size-1 for Light's test, taken greedily.

    product(a, g) is the array of products of the elements a by the
    generators g, shape (len(a), len(g)), with -1 for a product that does
    not count.  Walking `order`, each element that the generators taken so
    far do not reach becomes a generator, and the reached set grows to the
    right-closure of the generators: the least set that holds them and is
    closed under multiplying on the right by a generator.  Each element
    reached is a product ((g1 g2) g3) ... of generators bracketed to the
    left, so no associativity is assumed.  When `order` lists every
    element, every element is reached at the end.
    """
    reached = np.zeros(size + 1, dtype=bool)
    reached[-1] = True  # where a product that does not count lands
    gens = []
    for c in order.tolist():
        if reached[c]:
            continue
        gens.append(c)
        # what was reached, times the new generator; then the new elements
        # times every generator, until nothing new is reached
        new = np.append(product(np.flatnonzero(reached[:-1]), np.array([c])).ravel(), c)
        while new.size:
            new = np.unique(new[~reached[new]])
            reached[new] = True
            new = product(new, np.array(gens)).ravel()
    return np.array(gens, dtype=np.intp)


def table_generators(T: np.ndarray) -> np.ndarray:
    """A generating set of the magma of a Cayley table, from the top of the
    J-order down: the elements in decreasing order of |aS|, the number of
    distinct entries of row a, idempotents last among equals (in I_k the
    identity is a product of the other units)."""
    n, ar = len(T), np.arange(len(T))
    seen = np.zeros((n, n), dtype=bool)
    seen[ar[:, None], T] = True
    order = np.lexsort((T[ar, ar] == ar, -seen.sum(axis=1)))
    return generating_set(lambda a, g: T[a[:, None], g], order, n)


def first_true(mask: np.ndarray) -> tuple:
    """The row-major first index of a True entry of a mask with one."""
    return tuple(int(i) for i in np.unravel_index(int(mask.argmax()), mask.shape))


def index_pairs(mask: np.ndarray) -> tuple:
    """The row and column indices of a 2-D mask's True entries, row-major,
    as np.nonzero lists them: one nonzero of the raveled mask and a divmod
    by the width (the array methods: np.flatnonzero's dispatch costs more
    than the small masks it scans)."""
    q = mask.ravel().nonzero()[0]
    i = q // max(mask.shape[1], 1)
    return i, q - i * mask.shape[1]


class IsgHomomorphism:
    """A semigroup homomorphism given by an element array."""

    def __init__(self, source: InverseSemigroup, target: InverseSemigroup, map_):
        self.source = source
        self.target = target
        self.map = list(map_)
        phi = np.array(self.map, dtype=np.intp).reshape(source.n)
        bad = phi[source.cayley] != target.cayley[phi[:, None], phi]
        if bad.any():
            raise IsgError("not a homomorphism at (%d, %d)" % first_true(bad))

    def __call__(self, a: int) -> int:
        return self.map[a]

    @property
    def is_surjective(self) -> bool:
        return len(set(self.map)) == self.target.n


def is_essentially_injective(phi: IsgHomomorphism) -> bool:
    """True iff phi(t) idempotent implies t idempotent: no non-idempotent
    of the source's diagonal maps to an idempotent of the target's."""
    S, image = phi.source, np.array(phi.map, dtype=np.intp).reshape(phi.source.n)
    to_idempotent = np.diagonal(phi.target.cayley)[image] == image
    return not to_idempotent[np.diagonal(S.cayley) != np.arange(S.n)].any()


def partial_injections(k: int):
    """All partial injective maps on {0..k-1}, as dicts."""
    maps = []
    points = range(k)
    for size in range(k + 1):
        for dom in combinations(points, size):
            for ran in permutations(points, size):
                maps.append(dict(zip(dom, ran)))
    return maps


def symmetric_inverse_monoid(k: int) -> InverseSemigroup:
    """The monoid I_k of all partial injections on k points, in the order
    of partial_injections, for k up to 5.

    Each element is a row of its k images, -1 where undefined.  The table
    is one gather, f after g reading f's row at g's images through a
    padding column of -1, and each product is found by its base-(k+1)
    code with searchsorted."""
    if not 1 <= k <= 5:
        raise TooLarge(f"k={k} outside supported range 1..5")
    maps = partial_injections(k)
    n = len(maps)
    images = np.array([[m.get(x, -1) for x in range(k)] for m in maps], dtype=np.int8)
    padded = np.concatenate([images, np.full((n, 1), -1, dtype=np.int8)], axis=1)
    place = (k + 1) ** np.arange(k)
    codes = (images + 1) @ place
    by_code = np.argsort(codes)
    composed = padded[:, images] + 1  # [a, b, x]: a(b(x)) + 1, 0 where undefined
    table = by_code[np.searchsorted(codes[by_code], composed @ place)]
    labels = ["{" + ",".join(f"{x}>{y}" for x, y in sorted(m.items())) + "}" for m in maps]
    return verify_inverse_semigroup(table.tolist(), labels=labels)


def sub_semigroup(S: InverseSemigroup, generators) -> tuple[InverseSemigroup, list[int]]:
    """Closure of generator indices under product and involution.

    The generators' inverses are added once, and a mask then takes in the
    products of what it holds until it stops growing.  That suffices: the
    product closure of a *-closed set is *-closed, since (g1 ... gr)* =
    gr* ... g1*.  A subset of an inverse semigroup closed under products
    and inverses is an inverse subsemigroup (Clifford and Preston, The
    Algebraic Theory of Semigroups I): associativity restricts, each
    element's unique inverse lies in the subset, and the idempotents are
    the parent's and commute.  So nothing is verified again: the inverses,
    idempotents and natural order (a = b a* a, with the same a*) are the
    parent's, restricted and renumbered, and the last products are the table.

    Returns the closed subsemigroup (re-indexed) and the list of original
    indices in the new order.
    """
    gens = list(generators)
    for g in gens:
        if isinstance(g, bool) or not isinstance(g, (int, np.integer)) or not 0 <= g < S.n:
            raise IsgError(f"generator {g!r} is not an element index in 0..{S.n - 1}")
    T, held = S.cayley, np.zeros(S.n, dtype=bool)
    held[gens + [S.inv[g] for g in gens]] = True
    while True:
        order = held.nonzero()[0]
        products = T.take(order, 0).take(order, 1)
        held[products] = True
        if np.count_nonzero(held) == len(order):
            break
    kept, rank = order.tolist(), held.cumsum() - 1  # renumbered in the order of the held indices
    table = rank[products]
    sub = InverseSemigroup(table.tolist(), rank[[S.inv[a] for a in kept]].tolist(),
                           (products.diagonal() == order).nonzero()[0].tolist(), [S.labels[a] for a in kept])
    sub.cayley, sub.order = table, S.order.take(order, 0).take(order, 1)
    return sub, kept
