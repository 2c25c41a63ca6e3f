"""Brute-force references built on the library, used by the test suite.

Unlike ``tests/oracles.py``, which shares no code with the library on
purpose, everything here is written on top of ``demchar``'s own types
(crystals, weights, tensor words, the unrestricted sum): simple roots
and reflections as weights, word and Weyl group enumeration, each
element held as root and weight matrices (``WeylAction``: its Bruhat
ascent test and its action on weights, sharing no reflection code with
the library's int-coordinate ``weights.ascents`` and ``weights.fold``),
the local energy written out by the rules the crystal builders used to
hold (rank orders with exceptions, D2's 0/1/2 rule, the symmetric
power's least matching count over all permutations; they share no code
with the walk that derives H from the arrows), the letter weights
written out per family in the same way (sharing no code with the
weights read off the arrows), the lowering index of each schedule step
by the per-family rule with its j-dependence spelled out (sharing no
code with the ground-state cycle that carries the segment-1 word), the
weight named by a vector of letter coordinates, the Demazure
operator on int-tuple keys and on a ``FormalCharacter`` (sharing no
code with the library's step on packed keys), the reflection identity of the
unrestricted sum, products of characters held as int-keyed dicts, the
JSON layout of a character, and the marks and comarks written out per
family (sharing no code with the kernel vectors read off the matrix).  Each is a slow, direct restatement
that the tests hold the fast library routes against.
"""

from __future__ import annotations

from functools import cache
from itertools import permutations
from operator import add, sub
from typing import Iterable, Iterator, Mapping, Sequence

from demchar.crystals import Element, PerfectCrystal, barred, perfect_crystal
from demchar.onedsums import g_recursive
from demchar.qring import ZERO
from demchar.tensor import TensorWord
from demchar.weights import CartanType, FormalCharacter, Weight, _is_int

Keys = Mapping[tuple[int, ...], int]


# ---------------------------------------------------------------------------
# Roots and reflections


def simple_root(ct: CartanType, i: int) -> Weight:
    """alpha_i = sum_j A[j][i] Lambda_j, plus delta when i = 0."""
    return Weight(tuple(row[i] for row in ct.matrix), 1 if i == 0 else 0)


def reflect(ct: CartanType, w: Weight, i: int) -> Weight:
    """Simple reflection r_i acting on a weight."""
    return w - w.pairing(i) * simple_root(ct, i)


def mu_to_weight(family: str, mu: Sequence[int]) -> Weight:
    """The level-zero classical weight named by a letter-coordinate
    vector: the sum of mu_k times the weight of letter k, the inverse of
    ``LetterCoordinates.solve``.

    For "A1" the vector is indexed by the letters 0..n themselves, so the
    rank is its length less one; for the other families by the letters
    1..n.  An unknown family or a rank below the family's minimum raises
    the crystal's ValueError.
    """
    mu = tuple(mu)
    for value in mu:
        if not _is_int(value):
            raise ValueError(f"parameter vector entries must be ints, got {value!r}")
    crystal = perfect_crystal(family, len(mu) - 1 if family == "A1" else len(mu))
    first = 0 if family == "A1" else 1
    total = Weight.zero(crystal.cartan.size)
    for k, count in enumerate(mu, first):
        total = total + count * crystal.weight(str(k))
    return total


def reference_marks(family: str, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The marks and comarks of a family at rank n, written out per family
    from the tables of Kac, Infinite-dimensional Lie algebras, 4.8."""
    if family == "A1":
        ones = (1,) * (n + 1)
        return ones, ones
    if family == "B1":
        return (1, 1) + (2,) * (n - 1), (1, 1) + (2,) * (n - 2) + (1,)
    if family == "D1":
        both = (1, 1) + (2,) * (n - 3) + (1, 1)
        return both, both
    if family == "A2odd":
        return (1, 1) + (2,) * (n - 2) + (1,), (1, 1) + (2,) * (n - 1)
    if family == "A2even":
        if n == 1:
            return (1, 2), (2, 1)
        return (1,) + (2,) * n, (2,) * n + (1,)
    if family == "D2":
        return (1,) * (n + 1), (1,) + (2,) * (n - 1) + (1,)
    raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# Local energy by hand-written rules


def _order_energy(
    letters: Sequence[str], rank: Mapping[str, int], exceptions: Mapping[tuple[str, str], int]
) -> dict[tuple[str, str], int]:
    """H(b (x) b') = 0 when b ranks below b', else 1, bar the exceptions."""
    return {
        (b, bp): exceptions.get((b, bp), 0 if rank[b] < rank[bp] else 1)
        for b in letters
        for bp in letters
    }


def reference_energy(family: str, n: int) -> dict[tuple[str, str], int]:
    """The local energy of a level-1 family, written out by rules rather
    than walked from the arrows: a rank order on the letters with a few
    exceptions, or, for D2, its own 0/1/2 rule."""
    up = [str(k) for k in range(1, n + 1)]
    down = [barred(k) for k in range(n, 0, -1)]
    if family == "A1":
        letters = [str(k) for k in range(n + 1)]
        return _order_energy(letters, {b: k for k, b in enumerate(letters)}, {})
    if family == "D1":
        rank = {str(k): k for k in range(1, n + 1)}
        rank.update({barred(k): 2 * n - k for k in range(1, n)})
        rank[barred(n)] = n
        exceptions = {(str(n), barred(n)): 0, (barred(n), str(n)): 0, ("1", barred(1)): -1}
        return _order_energy(up + down, rank, exceptions)
    if family == "A2odd":
        letters = up + down
        return _order_energy(letters, {b: k for k, b in enumerate(letters)}, {("1", barred(1)): -1})
    letters = up + ["0"] + down
    rank = {b: k for k, b in enumerate(letters)}
    if family == "B1":
        return _order_energy(letters, rank, {("0", "0"): 0, ("1", barred(1)): -1})
    if family == "A2even":
        return _order_energy(letters, rank, {("0", "0"): 0})
    if family != "D2":
        raise ValueError(f"unknown family {family!r}")
    energy = {}
    for b in letters + ["phi"]:
        for bp in letters + ["phi"]:
            if (b == "phi") != (bp == "phi"):
                energy[(b, bp)] = 1
            elif b == bp and b in ("phi", "0"):
                energy[(b, bp)] = 0
            else:
                energy[(b, bp)] = 0 if rank[b] < rank[bp] else 2
    return energy


def symmetric_energy(x: Sequence[int], y: Sequence[int]) -> int:
    """H(x (x) y) on the level-l symmetric power: the least number of
    pairs x_k >= y_perm(k) over all matchings of the letters of x and y."""
    return min(sum(1 for a, b in zip(x, perm) if a >= b) for perm in permutations(y))


# ---------------------------------------------------------------------------
# Letter weights by hand-written rules


def _fw(n: int, *pairs: tuple[int, int]) -> tuple[int, ...]:
    """The coordinates of sum coeff * Lambda_i over (coeff, i) pairs."""
    coords = [0] * (n + 1)
    for coeff, i in pairs:
        coords[i] += coeff
    return tuple(coords)


def reference_weights(family: str, n: int) -> dict[str, tuple[int, ...]]:
    """The letter weights of a level-1 family, written out as the crystal
    builders used to list them rather than read off the arrows: Lambda_k
    - Lambda_(k-1) up the chain, with each family's own first and last
    letters, the barred letters negated, and "0" and "phi" of weight 0."""
    if family == "A1":
        return {str(k): _fw(n, (1, (k + 1) % (n + 1)), (-1, k)) for k in range(n + 1)}
    wt = {str(b): _fw(n, (1, b), (-1, b - 1)) for b in range(1, n + 1)}
    if family in ("B1", "D1", "A2odd"):
        wt["1"] = _fw(n, (1, 1), (-1, 0))
        wt["2"] = _fw(n, (1, 2), (-1, 1), (-1, 0))
    if family in ("B1", "A2even", "D2"):
        wt[str(n)] = _fw(n, (2, n), (-1, n - 1))
        wt["0"] = _fw(n)
    if family == "D1":
        wt[str(n - 1)] = _fw(n, (1, n), (1, n - 1), (-1, n - 2))
        wt[str(n)] = _fw(n, (1, n), (-1, n - 1))
    if family == "D2":
        wt["1"] = _fw(n, (1, 1), (-2, 0))
        wt["phi"] = _fw(n)
    for b, w in list(wt.items()):
        if b not in ("0", "phi"):
            wt[barred(int(b))] = tuple(-c for c in w)
    return wt


# ---------------------------------------------------------------------------
# Words and paths


def all_words(crystal: PerfectCrystal, length: int) -> Iterable[TensorWord]:
    """All tensor words of the given length, rightmost factor varying fastest."""
    if length == 0:
        yield TensorWord(crystal, ())
        return
    for shorter in all_words(crystal, length - 1):
        for b in crystal.elements:
            yield TensorWord(crystal, shorter.factors + (b,))


def enumerate_paths(
    crystal: PerfectCrystal, head: Element, mu: Weight, j: int
) -> list[TensorWord]:
    """Words (head, b_j, ..., b_1) whose length-j tail carries classical
    weight mu; the head contributes energy but not weight.

    Deterministic order: tails sorted by element index, leftmost first.
    """
    if j < 0:
        raise ValueError("length must be nonnegative")
    target = mu.lambda_coords
    zero = Weight.zero(crystal.cartan.size)
    out: list[TensorWord] = []

    def extend(tail: list[Element], acc: Weight) -> None:
        if len(tail) == j:
            if acc.lambda_coords == target:
                out.append(TensorWord(crystal, (head, *tail)))
            return
        for b in crystal.elements:
            tail.append(b)
            extend(tail, acc + crystal.weight(b))
            tail.pop()

    extend([], zero)
    return out


def sigma(crystal: PerfectCrystal, lam: Weight) -> Weight:
    """The weight automorphism sigma of a perfect crystal: the
    epsilon-weight of the one letter whose phi-weight is lam, read node
    by node from the string lengths."""
    nodes = crystal.cartan.index_set
    (b,) = [b for b in crystal.elements if all(crystal.phi(i, b) == lam.pairing(i) for i in nodes)]
    return Weight(tuple(crystal.epsilon(i, b) for i in nodes))


def reference_words(family: str, n: int) -> dict[int, tuple[tuple[int, ...], ...]]:
    """The segment-1 word table the schedule used to hold, by scheduled
    node: one word, or two where a pair of commuting steps may swap
    (variant 2: B1's 0 and 1 at node n, D1's n - 1 and n at the fork)."""
    up, down = (0, *range(2, n - 1)), (*range(n - 2, 1, -1), 0)
    fall, rise = range(n, 1, -1), range(2, n)
    chain = (*up, n - 1, n, n - 1, *down)
    return {
        "A1": {0: (tuple(range(n)),)},
        "B1": {0: (chain,), n: ((*fall, 0, 1, *rise), (*fall, 1, 0, *rise))},
        "D1": {0: ((*up, n, n - 1, *down), (*up, n - 1, n, *down))},
        "A2odd": {0: (chain,)},
        "A2even": {n: ((*range(n, 0, -1), 0, *range(1, n)),)},
        "D2": {0: ((*range(n + 1), *range(n - 1, 0, -1)),)},
    }[family]


def reference_index(family: str, n: int, lam_node: int, variant: int, j: int, a: int) -> int:
    """The lowering index at step a of segment j, labelled as at
    lam_node, by the per-family rule the schedule used to hold: each
    family's j-dependence written out (the head letter's 0/1 alternation,
    A1's rotation) instead of carried along the ground-state cycle."""
    fam, node = family, lam_node
    head = 0 if j % 2 == 1 else 1
    if fam == "A1":
        return (a - j) % (n + 1)
    if fam == "B1" and node == 0:
        if a == 1 or a == 2 * n - 1:
            return head
        return min(a, 2 * n - a)
    if fam == "B1":
        if variant == 2:
            return n + 1 - a if a <= n + 1 else a - n
        return n + 1 - a if a <= n - 1 else a - n
    if fam == "D1":
        if a == 1 or a == 2 * n - 2:
            return head
        if variant == 2:
            if a == n:
                return n
        elif a == n - 1:
            return n
        return min(a, 2 * n - 1 - a)
    if fam == "A2odd":
        if a == 1 or a == 2 * n - 1:
            return head
        return min(a, 2 * n - a)
    if fam == "A2even":
        return abs(n + 1 - a)
    if fam == "D2":
        return min(a - 1, 2 * n + 1 - a)
    raise ValueError(f"no schedule for family {fam}")


# ---------------------------------------------------------------------------
# Weyl groups


def _identity(size: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(1 if r == c else 0 for c in range(size)) for r in range(size))


def _matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    cols = list(zip(*b))
    return tuple(tuple(sum(ra * cb for ra, cb in zip(row, col)) for col in cols) for row in a)


@cache
def _root_reflection_matrix(ct: CartanType, i: int) -> tuple[tuple[int, ...], ...]:
    """Matrix of r_i on simple-root coordinates."""
    m = [list(row) for row in _identity(ct.size)]
    for j in range(ct.size):
        m[i][j] -= ct.matrix[i][j]
    return tuple(tuple(row) for row in m)


@cache
def _weight_reflection_matrix(ct: CartanType, i: int) -> tuple[tuple[int, ...], ...]:
    """Matrix of r_i on (Lambda_0..Lambda_n, delta) coordinates."""
    size = ct.size
    m = [list(row) for row in _identity(size + 1)]
    for j in range(size):
        m[j][i] -= ct.matrix[j][i]
    if i == 0:
        m[size][0] -= 1
    return tuple(tuple(row) for row in m)


class WeylAction:
    """A Weyl group element as a word of simple reflections (j_1, ..., j_m),
    denoting r_{j_1} o ... o r_{j_m} (rightmost applied first), with two
    matrices: ``inv_alpha``, the inverse element on simple-root
    coordinates, which gives the ascent test, and ``mat``, the element on
    (Lambda_0..Lambda_n, delta) coordinates, which gives its action on
    weights.  Two elements are equal when their ``mat`` are."""

    __slots__ = ("cartan", "word", "inv_alpha", "mat")

    def __init__(
        self,
        cartan: CartanType,
        word: tuple[int, ...],
        inv_alpha: tuple[tuple[int, ...], ...],
        mat: tuple[tuple[int, ...], ...],
    ):
        self.cartan = cartan
        self.word = word
        self.inv_alpha = inv_alpha
        self.mat = mat

    @classmethod
    def identity(cls, ct: CartanType) -> "WeylAction":
        return cls(ct, (), _identity(ct.size), _identity(ct.size + 1))

    def prepend(self, i: int) -> "WeylAction":
        """Left-multiply by the simple reflection r_i."""
        ct = self.cartan
        return WeylAction(
            ct,
            (i,) + self.word,
            _matmul(self.inv_alpha, _root_reflection_matrix(ct, i)),
            _matmul(_weight_reflection_matrix(ct, i), self.mat),
        )

    def is_ascent(self, i: int) -> bool:
        """True when left-multiplying by r_i increases Bruhat length: the
        inverse element maps alpha_i to a positive root."""
        return all(self.inv_alpha[j][i] >= 0 for j in range(self.cartan.size))

    @property
    def length(self) -> int:
        return len(self.word)

    @property
    def det(self) -> int:
        return -1 if len(self.word) % 2 else 1

    def apply(self, w: Weight) -> Weight:
        size = self.cartan.size
        coords = tuple(
            sum(self.mat[j][l] * w.lambda_coords[l] for l in range(size)) for j in range(size)
        )
        delta = w.delta_coord + sum(
            self.mat[size][l] * w.lambda_coords[l] for l in range(size)
        )
        return Weight(coords, delta)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeylAction):
            return NotImplemented
        return self.cartan == other.cartan and self.mat == other.mat

    def __hash__(self) -> int:
        return hash((self.cartan.family, self.cartan.n, self.mat))

    def __repr__(self) -> str:
        return f"WeylAction({self.word})"


def weyl_by_length(
    ct: CartanType,
    generators: Sequence[int] | None = None,
    max_length: int | None = None,
) -> Iterator[list[WeylAction]]:
    """Yield lists of distinct Weyl elements grouped by increasing length.

    Stops when the group is exhausted or max_length is passed. With the
    classical generator subset the iteration always terminates; with all
    generators the group is infinite, so provide max_length or break.
    """
    gens = tuple(ct.index_set if generators is None else generators)
    frontier = [WeylAction.identity(ct)]
    seen = {frontier[0].mat}
    length = 0
    while frontier and (max_length is None or length <= max_length):
        yield frontier
        nxt: dict[tuple, WeylAction] = {}
        for w in frontier:
            for i in gens:
                if not w.is_ascent(i):
                    continue
                extended = w.prepend(i)
                if extended.mat not in seen and extended.mat not in nxt:
                    nxt[extended.mat] = extended
        seen.update(nxt)
        frontier = sorted(nxt.values(), key=lambda w: w.word)
        length += 1


def finite_weyl_group(ct: CartanType, generators: Sequence[int]) -> list[WeylAction]:
    """All elements generated by the given reflections (must be finite)."""
    return [w for shell in weyl_by_length(ct, generators) for w in shell]


# ---------------------------------------------------------------------------
# Characters


def key(w: Weight) -> tuple[int, ...]:
    """The int key (*coordinates, delta) of a weight, as a
    ``FormalCharacter`` holds it."""
    return (*w.lambda_coords, w.delta_coord)


def demazure_step(ct: CartanType, i: int, terms: Keys) -> dict[tuple[int, ...], int]:
    """Demazure operator D_i on coefficients keyed by int tuples
    (*coordinates, delta), one new tuple per term of each alpha_i-string:
    the reference for ``weights.demazure_step`` on packed keys."""
    alpha = ct.simple_roots[i]
    out: dict[tuple[int, ...], int] = {}
    for mu, c in terms.items():
        m = mu[i] + 1
        if m > 0:
            for _ in range(m):
                out[mu] = out.get(mu, 0) + c
                mu = tuple(map(sub, mu, alpha))
        elif m < 0:
            for _ in range(-m):
                mu = tuple(map(add, mu, alpha))
                out[mu] = out.get(mu, 0) - c
    return {key: c for key, c in out.items() if c}


def demazure_op(ct: CartanType, i: int, chi: FormalCharacter) -> FormalCharacter:
    """Demazure operator D_i extended linearly over a formal character:
    the tuple-key ``demazure_step`` above on the int keys of chi."""
    return FormalCharacter(demazure_step(ct, i, chi.to_keys()))


def character_json_obj(chi: FormalCharacter) -> list[dict]:
    """The JSON layout of a character as nested dicts and lists: its terms
    in sorted key order, each weight written as ``Weight.to_json_obj``
    writes it.  The CLI writes the same bytes straight from the keys."""
    return [
        {"weight": {"lambda": list(key[:-1]), "delta": [key[-1], 1]}, "coeff": c}
        for key, c in sorted(chi.to_keys().items())
    ]


def combine(*terms: tuple[int, Keys]) -> dict[tuple[int, ...], int]:
    """The linear combination sum of scalar * keys, zero entries dropped."""
    out: dict[tuple[int, ...], int] = {}
    for scalar, keys in terms:
        for key, c in keys.items():
            out[key] = out.get(key, 0) + scalar * c
    return {key: c for key, c in out.items() if c}


def multiply(a: Keys, b: Keys) -> dict[tuple[int, ...], int]:
    """The product of two characters held as int keys: exponents add."""
    out: dict[tuple[int, ...], int] = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            key = tuple(map(add, k1, k2))
            out[key] = out.get(key, 0) + c1 * c2
    return {key: c for key, c in out.items() if c}


# ---------------------------------------------------------------------------
# The reflection identity of the unrestricted sum


def check_2m_relation(
    crystal: PerfectCrystal, b: Element, i: int, mu: Weight, j: int
) -> bool:
    """Compare the two f-string sums of the unrestricted 1dsum: weights
    shifted t steps along the root versus their reflections, each side
    twisted by q^(t*j) at the node-0 index. Exact evaluation."""
    ct = crystal.cartan
    m = crystal.phi(i, b)
    alpha = simple_root(ct, i)
    twist = j if i == 0 else 0
    lhs = ZERO
    rhs = ZERO
    cur = b
    for t in range(m + 1):
        lhs = lhs + g_recursive(crystal, cur, mu + t * alpha, j).shift(t * twist)
        reflected = reflect(ct, mu + (m - t) * alpha, i)
        rhs = rhs + g_recursive(crystal, cur, reflected, j).shift(t * twist)
        if t < m:
            cur = crystal.f(i, cur)
    return lhs == rhs
