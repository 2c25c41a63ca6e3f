"""Ground-state paths, truncated paths, and scheduled path-set growth.

A path truncated to window j is a word (p(j), ..., p(1)) stored leftmost
first, together with a virtual boundary factor on the left standing for
the highest-weight vector over the window: it contributes no raising
capacity and lowering capacity given by the window weight. Path sets for
the Demazure recursion grow by repeated lowering along a schedule of
Dynkin indices, widening the window by one ground-state letter at each
segment boundary.

The schedule is read off the crystal. The scheduled nodes are the least
level-1 node of each orbit of the crystal's diagram symmetries, and
``schedule_words`` finds the segment-1 words of each by a breadth-first
search that ``check_conditions`` (full closure per segment, boundary
capacity, ascending reflection word) filters. Segment j sits at the
window weight lambda_j, the j-th step of the ground state's cycle, so
its indices are the segment-1 indices carried j - 1 steps along that
cycle's nodes, those of lambda_0 .. lambda_{p-1}; an index off the cycle
stays put.

``Schedule`` is the one schedule type and ``demazure_schedule`` its one
builder. The path sets themselves (``grow_paths``, ``paths_at_step``,
``GroundState.path_f``/``path_e``) restate the paper's construction,
which ``demazure.demazure_paths`` compares with the product form; the
character routes read the schedule and the ground state but never build
a path set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .crystals import Element, PerfectCrystal, verify_perfect
from .tensor import signature_scan
from .weights import Weight, _require_count, ascents

Word = tuple[Element, ...]


class BoundaryLoweringError(RuntimeError):
    """Lowering tried to act on the virtual boundary of a truncated path."""


@cache
def _perfectness(crystal: PerfectCrystal):
    return verify_perfect(crystal, 1)


class GroundState:
    """Ground-state path for one level-1 dominant weight: letters b(k),
    window weights, and the energy normalization c(j)."""

    def __init__(self, crystal: PerfectCrystal, lam: Weight):
        if crystal.cartan.level(lam) != 1 or not crystal.cartan.is_dominant(lam):
            raise ValueError(f"{lam} is not dominant of level 1")
        report = _perfectness(crystal)
        if not report.ok:
            raise ValueError(
                f"crystal fails perfectness checks: {'; '.join(report.failures)}"
            )
        self.crystal = crystal
        self.lam = lam.classical()
        self._cs = [0]

    @cached_property
    def _cycle(self) -> tuple[tuple[Element, ...], tuple[Weight, ...]]:
        """The letters b(1..p) and window weights lam_0..lam_{p-1} of one
        period.  The step from a window weight to the next, through its
        ground-state letter, permutes the level-1 dominant weights of a
        perfect crystal, so the weights return to lambda."""
        bars: list[Element] = []
        lams = [self.lam]
        while True:
            b = self.crystal.ground_element(lams[-1])
            bars.append(b)
            lam = self.crystal.epsilon_weight(b)
            if lam == self.lam:
                return tuple(bars), tuple(lams)
            lams.append(lam)

    def bar(self, k: int) -> Element:
        """Ground-state letter at position k >= 1."""
        if k < 1:
            raise ValueError("positions start at 1")
        bars = self._cycle[0]
        return bars[(k - 1) % len(bars)]

    def window_weight(self, j: int) -> Weight:
        """Weight of the boundary after truncation at window j >= 0."""
        if j < 0:
            raise ValueError("window must be nonnegative")
        lams = self._cycle[1]
        return lams[j % len(lams)]

    def period(self) -> int:
        """Least p >= 1 whose window weight is lambda again: the length of
        the ground state's cycle of weights."""
        return len(self._cycle[0])

    def c(self, j: int) -> int:
        """Energy of the ground-state word of length j >= 0."""
        if j < 0:
            raise ValueError("window must be nonnegative")
        while len(self._cs) <= j:
            k = len(self._cs)
            self._cs.append(
                self._cs[-1] + k * self.crystal.energy(self.bar(k + 1), self.bar(k))
            )
        return self._cs[j]

    def _units(self, j: int, word: Word, i: int) -> list[tuple[int, int]]:
        crystal = self.crystal
        units = [(0, self.window_weight(j).pairing(i))]
        units.extend((crystal.epsilon(i, b), crystal.phi(i, b)) for b in word)
        return units

    def path_f(self, j: int, word: Word, i: int) -> Word | None:
        """Lower a window-j word; None when the whole path is annihilated."""
        idx = signature_scan(self._units(j, word, i))[3]
        if idx is None:
            return None
        if idx == 0:
            raise BoundaryLoweringError(
                f"window {j} too narrow for lowering by {i} on {word}"
            )
        moved = list(word)
        moved[idx - 1] = self.crystal.f(i, moved[idx - 1])
        return tuple(moved)

    def path_e(self, j: int, word: Word, i: int) -> Word | None:
        idx = signature_scan(self._units(j, word, i))[2]
        if idx is None:
            return None
        moved = list(word)
        moved[idx - 1] = self.crystal.e(i, moved[idx - 1])
        return tuple(moved)

    def path_weight(self, j: int, word: Word) -> Weight:
        """Affine weight of a window-j path, ground-state normalized, read
        off the crystal's weight and energy tables."""
        crystal = self.crystal
        wts, energy = crystal.weight_table, crystal.energy_table
        letters = [crystal.index(b) for b in word]
        rows = [wts[t] for t in letters]
        coords = map(sum, zip(self.window_weight(j).lambda_coords, *rows))
        total = 0
        prev = crystal.index(self.bar(j + 1))
        for position, t in zip(range(j, 0, -1), letters):
            total += position * energy[prev][t]
            prev = t
        return Weight(tuple(coords), self.c(j) - total)


@dataclass(frozen=True)
class Schedule:
    """A ground state with the lowering indices that grow its Demazure
    path sets: ``word`` is segment 1, and ``index`` carries it along the
    ground state's node cycle to later segments.

    A node without a word of its own borrows the word of lam_node through
    a diagram symmetry: node_map sends each node to its image (the
    requested node to lam_node) and is empty when the word applies
    directly. The ground state sits at the requested node's fundamental
    weight, and ``word`` is already relabelled to it.
    """

    ground: GroundState
    lam_node: int
    word: tuple[int, ...]
    variant: int = 1
    node_map: tuple[int, ...] = ()

    def __post_init__(self):
        ct = self.crystal.cartan
        node = self.node_map.index(self.lam_node) if self.node_map else self.lam_node
        if self.ground.lam.lambda_coords != ct.fundamental_weight(node).lambda_coords:
            raise ValueError(f"ground state at {self.ground.lam} is not at node {node}")

    @property
    def crystal(self) -> PerfectCrystal:
        return self.ground.crystal

    @property
    def d(self) -> int:
        return len(self.word)

    @cached_property
    def _cycle(self) -> tuple[int, ...]:
        """Nodes of the window weights lambda_0 .. lambda_{p-1}."""
        gs = self.ground
        return tuple(gs.window_weight(t).lambda_coords.index(1) for t in range(gs.period()))

    def index(self, j: int, a: int) -> int:
        """Lowering index at step a (1-based) of segment j (1-based)."""
        if j < 1:
            raise ValueError(f"segment {j} is below 1")
        if not 1 <= a <= self.d:
            raise ValueError(f"step {a} outside 1..{self.d}")
        i, cycle = self.word[a - 1], self._cycle
        if i in cycle:
            i = cycle[(cycle.index(i) + j - 1) % len(cycle)]
        return i

    def decompose(self, k: int) -> tuple[int, int]:
        """Split a global step k >= 0 into (segment, step-in-segment).
        Step 0 is (1, 0): segment 1 before its first lowering."""
        _require_count(k, "steps")
        j = max(1, -(-k // self.d))
        return j, k - (j - 1) * self.d

    def flat_index(self, k: int) -> int:
        j, a = self.decompose(k)
        return self.index(j, a)

    def weyl_word(self, k: int) -> tuple[int, ...]:
        """Word of the Weyl element after k steps, newest reflection first."""
        _require_count(k, "steps")
        return tuple(self.flat_index(m) for m in range(k, 0, -1))

    def leading_sets(self, j: int) -> list[set[Element]]:
        """Growing leftmost-factor sets B_0 .. B_d within segment j, from
        the ground-state letter through the full crystal."""
        crystal = self.crystal
        sets = [{self.ground.bar(j)}]
        for a in range(1, self.d + 1):
            i = self.index(j, a)
            sets.append(_closure(sets[-1], lambda b: crystal.f(i, b)))
        return sets


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the structural checks on a schedule. Each violation is
    one message tagged closure:, capacity:, or ascent:."""

    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_conditions(s: Schedule, j_max: int) -> ConditionReport:
    """Verify, for every segment up to j_max: the lowering closure reaches
    the whole crystal; every boundary demand is covered by raising
    capacity; and the reflection word ascends step by step through
    j_max full segments."""
    if j_max < 1:
        raise ValueError("j_max must be at least 1")
    crystal = s.crystal
    full = set(crystal.elements)
    violations: list[str] = []
    for j in range(1, j_max + 1):
        sets = s.leading_sets(j)
        if sets[s.d] != full:
            missing = sorted(full - sets[s.d], key=crystal.index)
            violations.append(
                f"closure: segment {j} reaches {len(sets[s.d])} of "
                f"{len(full)} elements, missing {missing}"
            )
        lam_j = s.ground.window_weight(j)
        for a in range(1, s.d + 1):
            i = s.index(j, a)
            demand = lam_j.pairing(i)
            for b in sorted(sets[a - 1], key=crystal.index):
                if crystal.epsilon(i, b) < demand:
                    violations.append(
                        f"capacity: segment {j} step {a} lowers along {i} "
                        f"but {b} raises only {crystal.epsilon(i, b)} < {demand}"
                    )
                    break
    word = s.weyl_word(j_max * s.d)[::-1]
    for k, (i, up) in enumerate(zip(word, ascents(crystal.cartan, word)), 1):
        if not up:
            violations.append(
                f"ascent: step {k} prepends reflection {i} without "
                f"lengthening the word"
            )
            break
    return ConditionReport(tuple(violations))


def _cartan_permutations(crystal: PerfectCrystal) -> list[tuple[int, ...]]:
    """Node permutations preserving the Cartan matrix, in lexicographic
    order. A partial map grows node by node, trying images in increasing
    order, while the off-diagonal entries among assigned nodes agree (the
    diagonal is 2 throughout)."""
    a = crystal.cartan.matrix
    size = len(a)
    out: list[tuple[int, ...]] = []
    perm: list[int] = []

    def extend() -> None:
        i = len(perm)
        if i == size:
            out.append(tuple(perm))
            return
        for image in range(size):
            if image not in perm and all(
                a[image][p] == a[i][j] and a[p][image] == a[j][i]
                for j, p in enumerate(perm)
            ):
                perm.append(image)
                extend()
                perm.pop()

    extend()
    return out


def _crystal_twist(crystal: PerfectCrystal, perm: tuple[int, ...]):
    """A letter bijection intertwining each arrow i with arrow perm[i],
    or None when the relabeled graph is not isomorphic to the original."""
    nodes, steps = crystal.cartan.index_set, (crystal.f, crystal.e)
    start = crystal.elements[0]
    for image in crystal.elements:
        twist, queue = {start: image}, [start]
        while queue:
            b = queue.pop()
            moves = [(step(i, b), step(perm[i], twist[b])) for i in nodes for step in steps]
            if any((nb is None) != (tb is None) or twist.get(nb, tb) != tb for nb, tb in moves):
                break
            for nb, tb in moves:
                if nb is not None and nb not in twist:
                    twist[nb] = tb
                    queue.append(nb)
        else:
            if len(twist) == len(set(twist.values())) == len(crystal.elements):
                return twist
    return None


@cache
def _symmetries(crystal: PerfectCrystal) -> tuple[tuple[int, ...], ...]:
    """The node permutations that relabel the crystal's arrows onto an
    isomorphic graph, in lexicographic order, so the identity first."""
    perms = _cartan_permutations(crystal)
    return tuple(perm for perm in perms if _crystal_twist(crystal, perm) is not None)


@cache
def schedule_words(crystal: PerfectCrystal) -> Mapping[int, tuple[tuple[int, ...], ...]]:
    """Segment-1 lowering indices of each scheduled node, the least
    level-1 node of each orbit of the diagram symmetries: one word, or
    several where commuting steps may swap.

    A breadth-first search from the ground-state letter {b(1)} steps
    along i only where that grows the lowering closure, and keeps the
    shortest words whose closure is all of B and that pass
    ``check_conditions`` over three segments. The conditions leave the
    order of two commuting steps open; variant 1 lowers first along the
    index farther from the node. Later segments carry these indices
    along the ground state's node cycle (``Schedule.index``). The
    mapping is cached, so it is read-only."""
    ct = crystal.cartan
    level_one = [i for i in ct.index_set if ct.level(ct.fundamental_weight(i)) == 1]
    nodes = sorted({min(perm[i] for perm in _symmetries(crystal)) for i in level_one})
    return MappingProxyType({node: _growth_words(crystal, node) for node in nodes})


def _growth_words(crystal: PerfectCrystal, node: int) -> tuple[tuple[int, ...], ...]:
    ground = GroundState(crystal, crystal.cartan.fundamental_weight(node))
    full = set(crystal.elements)
    frontier: list[tuple[tuple[int, ...], set[Element]]] = [((), {ground.bar(1)})]
    while frontier:
        grown = []
        for word, reached in frontier:
            for i in crystal.cartan.index_set:
                closure = _closure(reached, lambda b: crystal.f(i, b))
                if len(closure) > len(reached):
                    grown.append(((*word, i), closure))
        words = [
            word
            for word, reached in grown
            if reached == full and check_conditions(Schedule(ground, node, word), 3).ok
        ]
        if words:
            return tuple(sorted(words, key=lambda word: [-abs(i - node) for i in word]))
        frontier = [(word, reached) for word, reached in grown if reached != full]
    raise ValueError(
        f"no lowering word at node {node} of {crystal.name} passes the growth conditions"
    )


def demazure_schedule(
    crystal: PerfectCrystal, lam: Weight, variant: int = 1
) -> Schedule:
    """Schedule for a fundamental weight, with the ground state at lam
    itself: the segment-1 word of its node, or of the scheduled node that
    the first diagram symmetry (in lexicographic order of the node
    permutations) carrying it onto one sends it to, relabelled back once.
    The scheduled nodes are looked up before the ground state is built."""
    ct = crystal.cartan
    family, n = ct.family, ct.n
    fundamentals = [ct.fundamental_weight(i).lambda_coords for i in ct.index_set]
    if lam.lambda_coords not in fundamentals:
        raise ValueError(f"no schedule for weight {lam} in family {family}")
    node = fundamentals.index(lam.lambda_coords)
    words = schedule_words(crystal)
    perm = next((perm for perm in _symmetries(crystal) if perm[node] in words), None)
    if perm is None:
        raise ValueError(
            f"no growth schedule for node {node} of {family} rank {n}, and no "
            f"diagram symmetry maps it onto one of {list(words)}"
        )
    lam_node = perm[node]
    if lam_node == node:
        perm = ()
    ground = GroundState(crystal, lam)
    if variant not in (1, 2):
        raise ValueError(f"variant must be 1 or 2, got {variant}")
    if variant > len(words[lam_node]):
        raise ValueError(f"family {family} at node {lam_node} has a single schedule")
    word = words[lam_node][variant - 1]
    if perm:
        word = tuple(map(perm.index, word))
    return Schedule(ground, lam_node, word, variant, perm)


def _closure(items: Iterable, lower) -> set:
    """Close a set under repeated lowering; lower returns None at the end
    of a string."""
    out = set(items)
    frontier = list(out)
    while frontier:
        nxt = lower(frontier.pop())
        if nxt is not None and nxt not in out:
            out.add(nxt)
            frontier.append(nxt)
    return out


def grow_paths(s: Schedule) -> Iterator[tuple[int, int, set[Word]]]:
    """Yield (k, window, path set) for k = 0, 1, 2, ... along the schedule."""
    gs = s.ground
    window = 0
    words: set[Word] = {()}
    yield 0, 0, set(words)
    k = 0
    while True:
        k += 1
        j, a = s.decompose(k)
        if a == 1:
            window = j
            words = {(gs.bar(j),) + word for word in words}
        i = s.index(j, a)
        words = _closure(words, lambda word: gs.path_f(window, word, i))
        yield k, window, set(words)


def paths_at_step(s: Schedule, k: int) -> tuple[int, set[Word]]:
    """Window and path set after k growth steps."""
    for step, window, words in grow_paths(s):
        if step == k:
            return window, words
    raise AssertionError("unreachable")
