"""Perfect crystals: graphs, weights, and local energy functions.

Provides the level-1 perfect crystal for each of the six affine families
and the level-l symmetric-power crystal of untwisted type A. Elements are
short string labels ("3", "3~" for barred letters, "0", "phi") except in
the symmetric-power crystal, whose elements are weakly increasing letter
tuples. String lengths epsilon/phi are precomputed by walking arrows, so
multi-step strings through the middle of the graph are counted correctly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import combinations_with_replacement, permutations
from typing import Hashable, Iterable, Mapping

from .weights import CartanType, Weight, cartan_type, dominant_classical_weights

Element = Hashable


def barred(k: int) -> str:
    return f"{k}~"


class PerfectCrystal:
    """Finite affine crystal with weights and a local energy function."""

    def __init__(
        self,
        cartan: CartanType,
        elements: Iterable[Element],
        f_arrows: Mapping[tuple[int, Element], Element],
        weights: Mapping[Element, Weight],
        energy: Mapping[tuple[Element, Element], int],
        name: str,
    ):
        self.cartan = cartan
        self.elements = tuple(elements)
        self.name = name
        self._index = {b: k for k, b in enumerate(self.elements)}
        self._f = dict(f_arrows)
        self._e = {(i, to): frm for (i, frm), to in self._f.items()}
        self._wt = dict(weights)
        self._H = dict(energy)
        self._phi: dict[tuple[int, Element], int] = {}
        self._eps: dict[tuple[int, Element], int] = {}
        for i in cartan.index_set:
            for b in self.elements:
                steps = 0
                cur = b
                while (i, cur) in self._f:
                    cur = self._f[(i, cur)]
                    steps += 1
                self._phi[(i, b)] = steps
                steps = 0
                cur = b
                while (i, cur) in self._e:
                    cur = self._e[(i, cur)]
                    steps += 1
                self._eps[(i, b)] = steps

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
        return self._phi[(i, b)]

    def epsilon(self, i: int, b: Element) -> int:
        return self._eps[(i, b)]

    def weight(self, b: Element) -> Weight:
        return self._wt[b]

    def energy(self, b: Element, bp: Element) -> int:
        """Local energy H(b (x) bp)."""
        return self._H[(b, bp)]

    @cached_property
    def weight_table(self) -> tuple[tuple[int, ...], ...]:
        """Weight coordinates of each letter, by letter index."""
        return tuple(self._wt[b].lambda_coords for b in self.elements)

    @cached_property
    def energy_table(self) -> tuple[tuple[int, ...], ...]:
        """Local energies H(b (x) bp) by the letter indices of b and bp."""
        return tuple(
            tuple(self._H[(b, bp)] for bp in self.elements) for b in self.elements
        )

    def phi_weight(self, b: Element) -> Weight:
        return Weight(tuple(self._phi[(i, b)] for i in self.cartan.index_set))

    def epsilon_weight(self, b: Element) -> Weight:
        return Weight(tuple(self._eps[(i, b)] for i in self.cartan.index_set))

    def ground_element(self, lam: Weight) -> Element:
        """The unique element whose phi-weight equals lam classically."""
        hits = [
            b
            for b in self.elements
            if self.phi_weight(b).lambda_coords == lam.lambda_coords
        ]
        if len(hits) != 1:
            raise ValueError(f"no unique element with phi-weight {lam} in {self.name}")
        return hits[0]

    def sigma(self, lam: Weight) -> Weight:
        """Weight automorphism: epsilon-weight of the element with phi-weight lam."""
        return self.epsilon_weight(self.ground_element(lam))

    def sigma_period(self, lam: Weight) -> int:
        cur = self.sigma(lam)
        period = 1
        while cur.lambda_coords != lam.lambda_coords:
            cur = self.sigma(cur)
            period += 1
        return period

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
    it classically, that every element's epsilon-weight has level at least l,
    and that the arrow graph is connected. Returns the failures; the
    dominant-weight-to-element map and the induced weight automorphism are
    ``PerfectCrystal.ground_element`` and ``PerfectCrystal.sigma``.
    """
    report = PerfectnessReport(level)
    ct = crystal.cartan
    dominants = dominant_classical_weights(ct, level)
    for lam in dominants:
        phi_hits = [
            b
            for b in crystal.elements
            if crystal.phi_weight(b).lambda_coords == lam.lambda_coords
        ]
        eps_hits = [
            b
            for b in crystal.elements
            if crystal.epsilon_weight(b).lambda_coords == lam.lambda_coords
        ]
        if len(phi_hits) != 1:
            report.failures.append(
                f"phi-weight {lam}: expected one element, found {len(phi_hits)}"
            )
        if len(eps_hits) != 1:
            report.failures.append(
                f"epsilon-weight {lam}: expected one element, found {len(eps_hits)}"
            )
    for b in crystal.elements:
        if ct.level(crystal.epsilon_weight(b)) < level:
            report.failures.append(f"element {b}: epsilon level below {level}")
    if crystal.elements:
        seen = {crystal.elements[0]}
        queue = [crystal.elements[0]]
        while queue:
            cur = queue.pop()
            for i in ct.index_set:
                for nbr in (crystal.f(i, cur), crystal.e(i, cur)):
                    if nbr is not None and nbr not in seen:
                        seen.add(nbr)
                        queue.append(nbr)
        if len(seen) != len(crystal.elements):
            report.failures.append(
                f"graph not connected: reached {len(seen)} of {len(crystal.elements)}"
            )
    return report


def _order_energy(
    elements: list[Element],
    rank: Mapping[Element, int],
    exceptions: Mapping[tuple[Element, Element], int],
) -> dict[tuple[Element, Element], int]:
    table = {}
    for b in elements:
        for bp in elements:
            if (b, bp) in exceptions:
                table[(b, bp)] = exceptions[(b, bp)]
            else:
                table[(b, bp)] = 0 if rank[b] < rank[bp] else 1
    return table


def _chain_arrows(n: int) -> dict[tuple[int, str], str]:
    """Arrows i: i -> i+1 and (i+1)~ -> i~ for 1 <= i <= n-1."""
    arrows: dict[tuple[int, str], str] = {}
    for i in range(1, n):
        arrows[(i, str(i))] = str(i + 1)
        arrows[(i, barred(i + 1))] = barred(i)
    return arrows


def _with_negated_bars(wt: dict[str, Weight]) -> dict[str, Weight]:
    full = dict(wt)
    for b, w in wt.items():
        if b not in ("0", "phi"):
            full[barred(int(b))] = -w
    return full


def _fw(ct: CartanType, *pairs: tuple[int, int]) -> Weight:
    coords = [0] * ct.size
    for coeff, i in pairs:
        coords[i] += coeff
    return Weight(tuple(coords))


def _build_a1(ct: CartanType) -> PerfectCrystal:
    n = ct.n
    elements = [str(k) for k in range(n + 1)]
    arrows = {(i, str(i - 1)): str(i) for i in range(1, n + 1)}
    arrows[(0, str(n))] = "0"
    weights = {
        str(k): _fw(ct, (1, (k + 1) % (n + 1)), (-1, k)) for k in range(n + 1)
    }
    rank = {str(k): k for k in range(n + 1)}
    energy = _order_energy(elements, rank, {})
    return PerfectCrystal(ct, elements, arrows, weights, energy, f"A1 n={n}")


def _build_b1(ct: CartanType) -> PerfectCrystal:
    n = ct.n
    elements = [str(k) for k in range(1, n + 1)] + ["0"] + [barred(k) for k in range(n, 0, -1)]
    arrows = _chain_arrows(n)
    arrows[(n, str(n))] = "0"
    arrows[(n, "0")] = barred(n)
    arrows[(0, barred(2))] = "1"
    arrows[(0, barred(1))] = "2"
    wt = {"1": _fw(ct, (1, 1), (-1, 0)), "2": _fw(ct, (1, 2), (-1, 1), (-1, 0)), "0": _fw(ct)}
    for b in range(3, n):
        wt[str(b)] = _fw(ct, (1, b), (-1, b - 1))
    wt[str(n)] = _fw(ct, (2, n), (-1, n - 1))
    weights = _with_negated_bars(wt)
    rank = {b: k for k, b in enumerate(elements)}
    energy = _order_energy(elements, rank, {("0", "0"): 0, ("1", barred(1)): -1})
    return PerfectCrystal(ct, elements, arrows, weights, energy, f"B1 n={n}")


def _build_d1(ct: CartanType) -> PerfectCrystal:
    n = ct.n
    elements = [str(k) for k in range(1, n + 1)] + [barred(k) for k in range(n, 0, -1)]
    arrows = _chain_arrows(n)
    arrows[(n, str(n - 1))] = barred(n)
    arrows[(n, str(n))] = barred(n - 1)
    arrows[(0, barred(2))] = "1"
    arrows[(0, barred(1))] = "2"
    wt = {"1": _fw(ct, (1, 1), (-1, 0)), "2": _fw(ct, (1, 2), (-1, 1), (-1, 0))}
    for b in range(3, n - 1):
        wt[str(b)] = _fw(ct, (1, b), (-1, b - 1))
    wt[str(n - 1)] = _fw(ct, (1, n), (1, n - 1), (-1, n - 2))
    wt[str(n)] = _fw(ct, (1, n), (-1, n - 1))
    weights = _with_negated_bars(wt)
    rank = {str(k): k for k in range(1, n + 1)}
    rank[barred(n)] = n
    for k in range(1, n):
        rank[barred(k)] = 2 * n - k
    exceptions = {
        (str(n), barred(n)): 0,
        (barred(n), str(n)): 0,
        ("1", barred(1)): -1,
    }
    energy = _order_energy(elements, rank, exceptions)
    return PerfectCrystal(ct, elements, arrows, weights, energy, f"D1 n={n}")


def _build_a2odd(ct: CartanType) -> PerfectCrystal:
    n = ct.n
    elements = [str(k) for k in range(1, n + 1)] + [barred(k) for k in range(n, 0, -1)]
    arrows = _chain_arrows(n)
    arrows[(n, str(n))] = barred(n)
    arrows[(0, barred(2))] = "1"
    arrows[(0, barred(1))] = "2"
    wt = {"1": _fw(ct, (1, 1), (-1, 0)), "2": _fw(ct, (1, 2), (-1, 1), (-1, 0))}
    for b in range(3, n + 1):
        wt[str(b)] = _fw(ct, (1, b), (-1, b - 1))
    weights = _with_negated_bars(wt)
    rank = {b: k for k, b in enumerate(elements)}
    energy = _order_energy(elements, rank, {("1", barred(1)): -1})
    return PerfectCrystal(ct, elements, arrows, weights, energy, f"A2odd n={n}")


def _build_a2even(ct: CartanType) -> PerfectCrystal:
    n = ct.n
    elements = [str(k) for k in range(1, n + 1)] + ["0"] + [barred(k) for k in range(n, 0, -1)]
    arrows = _chain_arrows(n)
    arrows[(n, str(n))] = "0"
    arrows[(n, "0")] = barred(n)
    arrows[(0, barred(1))] = "1"
    wt = {"0": _fw(ct)}
    for b in range(1, n):
        wt[str(b)] = _fw(ct, (1, b), (-1, b - 1))
    wt[str(n)] = _fw(ct, (2, n), (-1, n - 1))
    weights = _with_negated_bars(wt)
    rank = {b: k for k, b in enumerate(elements)}
    energy = _order_energy(elements, rank, {("0", "0"): 0})
    return PerfectCrystal(ct, elements, arrows, weights, energy, f"A2even n={n}")


def _build_d2(ct: CartanType) -> PerfectCrystal:
    n = ct.n
    core = [str(k) for k in range(1, n + 1)] + ["0"] + [barred(k) for k in range(n, 0, -1)]
    elements = core + ["phi"]
    arrows = _chain_arrows(n)
    arrows[(n, str(n))] = "0"
    arrows[(n, "0")] = barred(n)
    arrows[(0, barred(1))] = "phi"
    arrows[(0, "phi")] = "1"
    wt = {"1": _fw(ct, (1, 1), (-2, 0)), "0": _fw(ct), "phi": _fw(ct)}
    for b in range(2, n):
        wt[str(b)] = _fw(ct, (1, b), (-1, b - 1))
    wt[str(n)] = _fw(ct, (2, n), (-1, n - 1))
    weights = _with_negated_bars(wt)
    rank = {b: k for k, b in enumerate(core)}
    energy: dict[tuple[str, str], int] = {}
    for b in elements:
        for bp in elements:
            if b == "phi" and bp == "phi":
                energy[(b, bp)] = 0
            elif b == "phi" or bp == "phi":
                energy[(b, bp)] = 1
            elif b == "0" and bp == "0":
                energy[(b, bp)] = 0
            else:
                energy[(b, bp)] = 0 if rank[b] < rank[bp] else 2
    return PerfectCrystal(ct, elements, arrows, weights, energy, f"D2 n={n}")


_BUILDERS = {
    "A1": _build_a1,
    "B1": _build_b1,
    "D1": _build_d1,
    "A2odd": _build_a2odd,
    "A2even": _build_a2even,
    "D2": _build_d2,
}


@cache
def perfect_crystal(family: str, n: int) -> PerfectCrystal:
    """The level-1 perfect crystal of the given affine family."""
    ct = cartan_type(family, n)
    return _BUILDERS[family](ct)


def _symmetric_energy(x: tuple[int, ...], y: tuple[int, ...]) -> int:
    l = len(x)
    return min(
        sum(1 for xi, yj in zip(x, perm) if xi >= yj) for perm in permutations(y)
    ) if l else 0


@cache
def symmetric_crystal(n: int, l: int) -> PerfectCrystal:
    """Level-l symmetric-power crystal of untwisted type A rank n.

    Elements are weakly increasing tuples over the alphabet 0..n; the
    operator with label i >= 1 turns one letter i-1 into i, and the label-0
    operator turns one letter n into 0.
    """
    ct = cartan_type("A1", n)
    elements = list(combinations_with_replacement(range(n + 1), l))
    letter_wt = {k: _fw(ct, (1, (k + 1) % (n + 1)), (-1, k)) for k in range(n + 1)}
    weights = {}
    arrows: dict[tuple[int, tuple[int, ...]], tuple[int, ...]] = {}
    for word in elements:
        total = Weight.zero(ct.size)
        for letter in word:
            total = total + letter_wt[letter]
        weights[word] = total
        for i in ct.index_set:
            src = (i - 1) % (n + 1)
            if src in word:
                moved = list(word)
                moved.remove(src)
                moved.append(i if i >= 1 else 0)
                arrows[(i, word)] = tuple(sorted(moved))
    energy = {
        (x, y): _symmetric_energy(x, y) for x in elements for y in elements
    }
    return PerfectCrystal(ct, elements, arrows, weights, energy, f"A1 n={n} sym l={l}")
