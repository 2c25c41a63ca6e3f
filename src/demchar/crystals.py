"""Perfect crystals: graphs, weights, and local energy functions.

Provides the level-1 perfect crystal for each of the six affine families
and the level-l symmetric-power crystal of untwisted type A. Elements are
short string labels ("3", "3~" for barred letters, "0", "phi") except in
the symmetric-power crystal, whose elements are weakly increasing letter
tuples. String lengths are walked along the arrows once, into
``phi_table`` and ``epsilon_table`` (by letter index, then node), so
multi-step strings through the middle of the graph are counted correctly;
every other view of them reads those two tables.

A builder gives only the elements, the f-arrows, a name and one int; the
rest follows from the arrows.  Each letter's weight is phi - epsilon:
wt(b) = sum_i (phi_i(b) - epsilon_i(b)) Lambda_i.  The local energy H on
two-letter words b (x) b' is fixed under e_1..e_n and moves by one under
e_0: up when e_0 acts on the left factor, down when it acts on the right
(Kang-Kashiwara-Misra-Miwa-Nakashima-Nakayashiki 1992).  That fixes H up
to a constant, and the int is that constant: H(b0 (x) b0) for the first
element b0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import combinations_with_replacement
from operator import mul, neg, sub
from typing import Hashable, Iterable, Mapping, Sequence

from .weights import (
    CartanType,
    Weight,
    _check_rank,
    _is_int,
    _require_count,
    cartan_type,
    dominant_classical_weights,
    inverse,
)

Element = Hashable


def barred(k: int) -> str:
    return f"{k}~"


class PerfectCrystal:
    """Finite affine crystal whose weights and local energy come from its
    arrows, with ``normalization`` = H(b0 (x) b0) for the first element b0.

    Raises ValueError, naming the crystal and an arrow or a pair, when an
    arrow leaves the nodes or the elements, the two-letter words are not
    connected, or a pair is reached with two energies.
    """

    def __init__(
        self,
        cartan: CartanType,
        elements: Iterable[Element],
        f_arrows: Mapping[tuple[int, Element], Element],
        name: str,
        normalization: int,
    ):
        self.cartan = cartan
        self.elements = tuple(elements)
        self.name = name
        self._index = {b: k for k, b in enumerate(self.elements)}
        self._f = dict(f_arrows)
        for (i, frm), to in self._f.items():
            arrow = f"{name}: arrow {(i, frm)!r} -> {to!r}"
            if i not in cartan.index_set:
                raise ValueError(f"{arrow} is at a node outside the nodes {list(cartan.index_set)}")
            if frm not in self._index or to not in self._index:
                raise ValueError(f"{arrow} names a letter not in the elements")
        self._e = {(i, to): frm for (i, frm), to in self._f.items()}
        self.phi_table = self._string_lengths(self._f)
        self.epsilon_table = self._string_lengths(self._e)
        self._H = self._walk_energy(normalization)

    def _string_lengths(self, arrows) -> tuple[tuple[int, ...], ...]:
        """Steps along each node's arrows from each letter, by letter index:
        phi_i with the f-arrows, epsilon_i with the e-arrows."""

        def length(i: int, b: Element) -> int:
            steps = 0
            while (i, b) in arrows:
                b, steps = arrows[(i, b)], steps + 1
            return steps

        return tuple(tuple(length(i, b) for i in self.cartan.index_set) for b in self.elements)

    def _walk_energy(self, normalization: int) -> dict[tuple[Element, Element], int]:
        """H on every two-letter word, walked from (b0, b0) by the
        two-factor signature rule: e_i acts on the left factor iff
        phi_i(b) >= epsilon_i(b'), f_i iff phi_i(b) > epsilon_i(b').  H is
        fixed under i >= 1; e_0 raises it by 1 on the left factor and
        lowers it by 1 on the right, and f_0 undoes that."""
        if not self.elements:
            raise ValueError(f"{self.name}: no elements")
        b0 = self.elements[0]
        energy = {(b0, b0): normalization}
        queue = [(b0, b0)]
        while queue:
            b, bp = queue.pop()
            h = energy[(b, bp)]
            phis = self.phi_table[self._index[b]]
            epss = self.epsilon_table[self._index[bp]]
            for i in self.cartan.index_set:
                phi, eps = phis[i], epss[i]
                for arrows, left, up in ((self._e, phi >= eps, 1), (self._f, phi > eps, -1)):
                    pair = (arrows.get((i, b)), bp) if left else (b, arrows.get((i, bp)))
                    if None in pair:
                        continue
                    moved = h if i else h + (up if left else -up)
                    if pair not in energy:
                        energy[pair] = moved
                        queue.append(pair)
                    elif energy[pair] != moved:
                        raise ValueError(
                            f"{self.name}: pair {pair} reached with energies "
                            f"{energy[pair]} and {moved}"
                        )
        words = ((b, bp) for b in self.elements for bp in self.elements)
        pair = next((word for word in words if word not in energy), None)
        if pair is not None:
            raise ValueError(
                f"{self.name}: two-letter words not connected; pair {pair} "
                f"not reached from {(b0, b0)}"
            )
        return energy

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, b: Element) -> bool:
        return b in self._index

    def index(self, b: Element) -> int:
        return self._index[b]

    def f(self, i: int, b: Element) -> Element | None:
        return self._f.get((i, b))

    def e(self, i: int, b: Element) -> Element | None:
        return self._e.get((i, b))

    def phi(self, i: int, b: Element) -> int:
        return self.phi_table[self._index[b]][i]

    def epsilon(self, i: int, b: Element) -> int:
        return self.epsilon_table[self._index[b]][i]

    def weight(self, b: Element) -> Weight:
        """wt(b) = phi-weight minus epsilon-weight."""
        return Weight(self.weight_table[self._index[b]])

    def energy(self, b: Element, bp: Element) -> int:
        """Local energy H(b (x) bp)."""
        return self._H[(b, bp)]

    @cached_property
    def weight_table(self) -> tuple[tuple[int, ...], ...]:
        """Weight coordinates phi_i - epsilon_i of each letter, by letter index."""
        return tuple(
            tuple(map(sub, phis, epss)) for phis, epss in zip(self.phi_table, self.epsilon_table)
        )

    @cached_property
    def letter_coordinates(self) -> "LetterCoordinates":
        """The coordinates in which the recursion kernel counts a tail
        weight in letters, read off the letters and ``weight_table``; see
        ``LetterCoordinates``."""
        return LetterCoordinates.of(self)

    @cached_property
    def energy_table(self) -> tuple[tuple[int, ...], ...]:
        """Local energies H(b (x) bp) by the letter indices of b and bp."""
        return tuple(
            tuple(self._H[(b, bp)] for bp in self.elements) for b in self.elements
        )

    def epsilon_weight(self, b: Element) -> Weight:
        return Weight(self.epsilon_table[self._index[b]])

    def ground_element(self, lam: Weight) -> Element:
        """The unique element whose phi-weight equals lam classically."""
        hits = [b for b, phis in zip(self.elements, self.phi_table) if phis == lam.lambda_coords]
        if len(hits) != 1:
            raise ValueError(f"no unique element with phi-weight {lam} in {self.name}")
        return hits[0]

    def to_dot(self) -> str:
        """Graphviz rendering with deterministic node and edge order."""
        lines = ["digraph crystal {", "  rankdir=LR;"]
        for b in self.elements:
            lines.append(f'  "{b}";')
        arrows = sorted(self._f.items(), key=lambda kv: (kv[0][0], self._index[kv[0][1]]))
        for (i, frm), to in arrows:
            lines.append(f'  "{frm}" -> "{to}" [label="{i}"];')
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"PerfectCrystal({self.name}, {len(self.elements)} elements)"


@dataclass(frozen=True)
class LetterCoordinates:
    """Coordinates of level-zero weights in which every letter takes a
    short step, and the L1 rule that says which weights m letters can
    carry.

    Coordinates c stand for the weight whose entry at node i is
    ``rows[i] . c``.  ``solve`` finds them from ``scale * c = inverse . v``,
    with v the weight's entries at nodes 1..n followed, when ``counts``,
    by m times ``stride``, and the weight must then equal the one that c
    stands for.  Letter u moves c by ``steps[u]``.  As L1 is a norm, m
    letters can only carry a c of L1 norm at most m times ``stride``, the
    largest step norm; and when every step norm has the same ``parity``,
    the norm of c is congruent to m times it modulo 2, since a norm and
    the sum of the entries agree modulo 2.

    ``of`` picks the coordinates from the letters:

    * the type-A alphabets count boxes, box k weighing Lambda_{k+1} -
      Lambda_k, with the row "counts sum to m times stride": an A1
      letter is one box, and a symmetric power's tuple lists its l boxes;
    * an alphabet of +-pairs and zero letters whose pairs span the
      classical nodes takes the first letter of each pair, in element
      order, as a basis, so every step is a signed unit vector or zero:
      for B1, D1, A2odd, A2even and D2 the letters 1..n, and coordinate
      k is count(k) - count(k~).

    Both rules are exact, and ``support`` lists what they admit: m l
    boxes sort into m tuples, and zero letters or pairs k k~ fill a +-pair
    vector up to m letters; ``formulas.g_closed_form`` reads these.
    """

    counts: bool
    scale: int
    inverse: tuple[tuple[int, ...], ...]
    rows: tuple[tuple[int, ...], ...]
    steps: tuple[tuple[int, ...], ...]
    stride: int
    parity: int | None

    @classmethod
    def of(cls, crystal: PerfectCrystal) -> "LetterCoordinates":
        """The coordinates of a crystal's letters; ValueError when they
        are neither boxes nor +-pairs."""
        weights, size = crystal.weight_table, crystal.cartan.size
        if isinstance(crystal.elements[0], tuple):
            boxes = [tuple(int(i == (k + 1) % size) - int(i == k) for i in range(size))
                     for k in range(size)]
            contents = [tuple(map(b.count, range(size))) for b in crystal.elements]
            return cls._solve(boxes, contents, True)
        if len(weights) == size:
            units = [tuple(int(i == k) for k in range(size)) for i in range(size)]
            return cls._solve(weights, units, True)
        opposite = {w: tuple(map(neg, w)) for w in weights}
        basis: list[tuple[int, ...]] = []
        for w in weights:
            if any(w) and w not in basis and opposite[w] not in basis:
                basis.append(w)
        if all(opposite[w] in opposite for w in weights) and len(basis) == size - 1:
            steps = [tuple(int(w == b) - int(opposite[w] == b) for b in basis) for w in weights]
            return cls._solve(basis, steps, False)
        raise ValueError(f"{crystal.name}: the letters are neither boxes nor +-pairs")

    @classmethod
    def _solve(cls, basis, steps, counts: bool) -> "LetterCoordinates":
        """The table whose unit coordinates stand for the ``basis``
        weights, solved at nodes 1..n (and the counts' sum when
        ``counts``); ValueError when that system is singular."""
        rows = tuple(zip(*basis))
        scale, inv = inverse(rows[1:] + (((1,) * len(basis),) if counts else ()))
        norms = {sum(map(abs, step)) for step in steps}
        parities = {x % 2 for x in norms}
        parity = parities.pop() if len(parities) == 1 else None
        return cls(counts, scale, inv, rows, tuple(map(tuple, steps)), max(norms), parity)

    def _check(self, weight: Sequence[int], m: int | None) -> None:
        """ValueError unless weight has one entry per node, and m is an int when ``counts``."""
        if len(weight) != len(self.rows):
            raise ValueError(f"weight {tuple(weight)} needs {len(self.rows)} entries, one per node")
        if self.counts and not _is_int(m):
            raise ValueError(f"the number of letters must be an int, got {m!r}")

    def solve(self, weight: Sequence[int], m: int | None) -> tuple[int, ...]:
        """The coordinates that stand for a weight, with m the number of
        letters (read only when ``counts``).  ValueError as in ``_check``,
        and when the weight lies off the letters' lattice or has nonzero level."""
        self._check(weight, m)
        v = list(weight[1:])
        if self.counts:
            v.append(m * self.stride)
        coords = []
        for row in self.inverse:
            c, r = divmod(sum(map(mul, row, v)), self.scale)
            if r:
                raise ValueError("weight is not in the parameter lattice")
            coords.append(c)
        if any(sum(map(mul, row, coords)) != x for row, x in zip(self.rows, weight)):
            raise ValueError("weight is not level zero")
        return tuple(coords)

    def coordinates(self, weight: Sequence[int], m: int) -> tuple[int, ...] | None:
        """The coordinates of a weight that m letters may carry; None when
        ``solve`` finds none or the rule rules them out (``_check`` raises)."""
        self._check(weight, m)
        try:
            coords = self.solve(weight, m)
        except ValueError:
            return None
        size = sum(map(abs, coords))
        if size > m * self.stride or (self.parity is not None and (size - m * self.parity) % 2):
            return None
        return coords

    def support(self, m: int) -> frozenset[tuple[int, ...]]:
        """The weights that ``coordinates`` admits for m letters, c running
        over the compositions of m ``stride`` when ``counts``, else over the
        vectors of norm at most that with the ``parity``; built up one
        coordinate at a time as (weight so far, norm left) pairs."""
        radius, (*inner, last) = m * self.stride, zip(*self.rows)
        partial = [((0,) * len(self.rows), radius)]
        for column in inner:
            partial = [(tuple(x + c * y for x, y in zip(weight, column)), left - abs(c))
                       for weight, left in partial for c in range(0 if self.counts else -left, left + 1)]
        return frozenset(
            tuple(x + c * y for x, y in zip(weight, last))
            for weight, left in partial
            for c in ((left,) if self.counts else range(-left, left + 1))
            if self.counts or self.parity is None or (radius - left + c - m * self.parity) % 2 == 0
        )


@dataclass
class PerfectnessReport:
    """Outcome of the level-l perfectness checks on a crystal."""

    level: int
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_perfect(crystal: PerfectCrystal, level: int) -> PerfectnessReport:
    """Check the operational consequences of level-l perfectness.

    Verifies that each dominant classical weight of the given level has a
    unique element whose phi-weight (and, separately, epsilon-weight) matches
    it classically, and that every element's epsilon-weight has level at
    least l; the constructor has already checked that the graph is
    connected, since its two-letter words are. Returns the failures; the
    dominant-weight-to-element map is ``PerfectCrystal.ground_element``,
    and the induced weight automorphism is the window-weight cycle of
    ``paths.GroundState``.
    """
    report = PerfectnessReport(level)
    ct = crystal.cartan
    for lam in dominant_classical_weights(ct, level):
        for kind, table in (("phi", crystal.phi_table), ("epsilon", crystal.epsilon_table)):
            hits = table.count(lam.lambda_coords)
            if hits != 1:
                report.failures.append(
                    f"{kind}-weight {lam}: expected one element, found {hits}"
                )
    for b, epss in zip(crystal.elements, crystal.epsilon_table):
        if ct.level(Weight(epss)) < level:
            report.failures.append(f"element {b}: epsilon level below {level}")
    return report


def _letters(n: int, middle: list[str]) -> list[str]:
    """The letters 1..n, then the middle ones, then n~..1~."""
    return [str(k) for k in range(1, n + 1)] + middle + [barred(k) for k in range(n, 0, -1)]


def _chain_arrows(n: int, ends: dict[tuple[int, str], str]) -> dict[tuple[int, str], str]:
    """Arrows i: i -> i+1 and (i+1)~ -> i~ for 1 <= i <= n-1, plus ``ends``."""
    arrows: dict[tuple[int, str], str] = {}
    for i in range(1, n):
        arrows[(i, str(i))] = str(i + 1)
        arrows[(i, barred(i + 1))] = barred(i)
    return arrows | ends


def _build_a1(ct: CartanType) -> PerfectCrystal:
    n = ct.n
    arrows = {(i, str(i - 1)): str(i) for i in range(1, n + 1)}
    arrows[(0, str(n))] = "0"
    return PerfectCrystal(ct, [str(k) for k in range(n + 1)], arrows, f"A1 n={n}", 1)


def _build_b1(ct: CartanType) -> PerfectCrystal:
    n = ct.n
    ends = {(n, str(n)): "0", (n, "0"): barred(n), (0, barred(2)): "1", (0, barred(1)): "2"}
    return PerfectCrystal(ct, _letters(n, ["0"]), _chain_arrows(n, ends), f"B1 n={n}", 1)


def _build_d1(ct: CartanType) -> PerfectCrystal:
    n = ct.n
    ends = {
        (n, str(n - 1)): barred(n),
        (n, str(n)): barred(n - 1),
        (0, barred(2)): "1",
        (0, barred(1)): "2",
    }
    return PerfectCrystal(ct, _letters(n, []), _chain_arrows(n, ends), f"D1 n={n}", 1)


def _build_a2odd(ct: CartanType) -> PerfectCrystal:
    n = ct.n
    ends = {(n, str(n)): barred(n), (0, barred(2)): "1", (0, barred(1)): "2"}
    return PerfectCrystal(ct, _letters(n, []), _chain_arrows(n, ends), f"A2odd n={n}", 1)


def _build_a2even(ct: CartanType) -> PerfectCrystal:
    n = ct.n
    ends = {(n, str(n)): "0", (n, "0"): barred(n), (0, barred(1)): "1"}
    return PerfectCrystal(ct, _letters(n, ["0"]), _chain_arrows(n, ends), f"A2even n={n}", 1)


def _build_d2(ct: CartanType) -> PerfectCrystal:
    n = ct.n
    ends = {(n, str(n)): "0", (n, "0"): barred(n), (0, barred(1)): "phi", (0, "phi"): "1"}
    elements = _letters(n, ["0"]) + ["phi"]
    return PerfectCrystal(ct, elements, _chain_arrows(n, ends), f"D2 n={n}", 2)


_BUILDERS = {
    "A1": _build_a1,
    "B1": _build_b1,
    "D1": _build_d1,
    "A2odd": _build_a2odd,
    "A2even": _build_a2even,
    "D2": _build_d2,
}


def perfect_crystal(family: str, n: int) -> PerfectCrystal:
    """The level-1 perfect crystal of the given affine family, cached
    per family and rank once they are checked."""
    _check_rank(family, n)
    return _perfect_crystal(family, n)


@cache
def _perfect_crystal(family: str, n: int) -> PerfectCrystal:
    return _BUILDERS[family](cartan_type(family, n))


def symmetric_crystal(n: int, l: int) -> PerfectCrystal:
    """Level-l symmetric-power crystal of untwisted type A rank n.

    Elements are weakly increasing tuples over the alphabet 0..n; the
    operator with label i >= 1 turns one letter i-1 into i, and the label-0
    operator turns one letter n into 0.  As for every crystal here, a
    word's weight is phi - epsilon (letter k weighs Lambda_{k+1 mod n+1} - Lambda_k)
    and H follows from the e_0 rule; the normalization is H(0^l (x) 0^l) = l.
    Cached per rank and level once they are checked.
    """
    _check_rank("A1", n)
    _require_count(l, "level l")
    return _symmetric_crystal(n, l)


@cache
def _symmetric_crystal(n: int, l: int) -> PerfectCrystal:
    ct = cartan_type("A1", n)
    elements = list(combinations_with_replacement(range(n + 1), l))
    arrows: dict[tuple[int, tuple[int, ...]], tuple[int, ...]] = {}
    for word in elements:
        for i in ct.index_set:
            src = (i - 1) % (n + 1)
            if src in word:
                moved = list(word)
                moved.remove(src)
                moved.append(i if i >= 1 else 0)
                arrows[(i, word)] = tuple(sorted(moved))
    return PerfectCrystal(ct, elements, arrows, f"A1 n={n} sym l={l}", l)
