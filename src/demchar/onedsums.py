"""One-dimensional sums over perfect crystals.

Three graded sums over fixed-head letter sequences of one crystal:

* the unrestricted sum ``g`` counts all sequences of a given total
  classical weight, graded by energy, with a q^(delta-coordinate)
  normalization so that shifting the weight by a multiple of the null
  root multiplies the value by the matching power of q;
* the restricted sum ``X`` keeps only sequences whose running weights
  admit each letter at every Dynkin node;
* the classically restricted sum ``Xbar`` does the same with nodes 1..n
  checked, eta's node 0 fixed by level.

In the paper's unified form all three are one sum with a set of checked
nodes: none for g, nodes 1..n for Xbar, all nodes for X, all on real
coordinates; a tail keeps the level of xi, so one boundary rule
(``_restricted``) turns eta into the end.  Each comes as a brute-force
enumeration and a memoized recursion, and the restricted sums
additionally as Weyl alternating sums over the unrestricted one, which
read the g kernel at each term.  The recursion route is one memoized
kernel with one entry, ``_x_value``, for all three sums, on the
crystal's int tables of letter weights, local energies and epsilons:
``_recursion`` caches one memo per crystal and checked node set, for
capped and uncapped reads (its docstring has the packed values, the cap,
the node store that head letters share and the pruning in letter
coordinates), so ``_recursion.cache_clear()`` frees every memo.
Values become ``LaurentPoly`` only at the API edge.  The enumeration
route lists the tails depth first on the same tables and shares no
other code or memo with the recursion route: ``_walk_tails`` caches one
read-only listing per crystal, length, start state and checked node
set, freed by ``_walk_tails.cache_clear()``, counting each last letter
in its parent.  Each route also gives the g of every head and tail
weight of one length as a table (``g_enumerate_table``,
``g_recursive_table``), for the verifier.  The Weyl sums fold the
tail-weight support once per crystal, checked node set, start and
length in the cached ``_weyl_terms``, freed by
``_weyl_terms.cache_clear()``.

The scheduled characters are one segment sum over the leading letters
of a step (``_segment_character``), read from either g source: the tail
walker for ``demazure.character_by_paths``, the kernel for
``character_via_onedsums`` and ``character_at_full_segment``.  Both
yield groups (tail coords, shift, (energy, count) pairs).

Also here: a search for f-string decompositions of the non-admissible
set, the Kostka-Foulkes specialization over symmetric-power crystals,
and the large-window stabilization toward string and branching
functions.  The reflection identity relating the unrestricted sum along
an f-string to its reflected weights is a test reference
(``tests/brute.py``) evaluated on ``g_recursive``.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass
from functools import cache, partial
from math import inf
from operator import add, le, mul, sub
from types import MappingProxyType, SimpleNamespace
from typing import Sequence

from .crystals import Element, PerfectCrystal, symmetric_crystal
from .paths import GroundState, Schedule
from .qring import ZERO, LaurentPoly
from .weights import FormalCharacter, Weight, _is_int, _require_count, fold


class StabilizationGuardError(RuntimeError):
    """Truncations kept changing up to the window cap, or the next
    window was deeper than the interpreter stack allows."""

    def __init__(self, max_j: int, degree: int, message: str | None = None):
        super().__init__(
            message
            or f"truncation to degree {degree} not stable for three consecutive "
            f"aligned windows up to j = {max_j}"
        )
        self.max_j = max_j
        self.degree = degree


# ---------------------------------------------------------------------------
# Unrestricted sum g


def _slot_width(j: int, bits: int) -> int:
    """Bits per coefficient slot of a packed kernel value at length j,
    for a crystal whose letter indices take ``bits`` bits: the least
    multiple of 64 above j * bits."""
    return 64 * (j * bits // 64 + 1)


def _respace(packed: int, narrow: int, wide: int) -> int:
    """A packed value with its slots of ``narrow`` bits moved apart to
    ``wide`` bits each; both widths are multiples of 8."""
    size = narrow // 8
    data = packed.to_bytes(-(-packed.bit_length() // narrow) * size, "little")
    pad = bytes((wide - narrow) // 8)
    return int.from_bytes(pad.join([data[k : k + size] for k in range(0, len(data), size)]), "little")


def _unpack(packed: int, width: int, native: bool = sys.byteorder == "little") -> tuple[int, ...]:
    """The coefficients in the slots of ``width`` bits of a packed value,
    up to its highest nonzero one.  Slots of 64 bits on a little-endian
    machine are read as one array of machine words."""
    if packed.bit_length() <= width:
        return (packed,)
    size = width // 8
    data = packed.to_bytes(-(-packed.bit_length() // width) * size, "little")
    if native and width == 64:
        return tuple(memoryview(data).cast("Q"))
    return tuple(int.from_bytes(data[k : k + size], "little") for k in range(0, len(data), size))


@cache
def _recursion(crystal: PerfectCrystal, idx: tuple[int, ...]):
    """Memoized recursion on the head letter, shared by g, x and xbar.

    ``rec(t, fit, rest, j, cap)`` sums q^energy over the length-j tails
    after letter index t, at exponents up to ``cap`` (all when None):
    ``fit`` is the running state at the nodes ``idx``, which must admit
    each letter's epsilons, and ``rest`` is the weight the tail must
    still carry.  A value is None (zero) or ``(low, coeffs)``: the lowest
    exponent and the dense coefficients from there up to the highest
    nonzero one.  Each ``rec`` keeps its own memo and node store, so
    ``_recursion.cache_clear()`` drops them all.

    The memo holds a value as ``(low, packed)``: coefficient k sits in
    bits [k W(j), (k + 1) W(j)) of the int ``packed``, with a slot width
    that depends only on the length j, W(j) = 64 (floor(j bits / 64) + 1)
    for bits = (|B| - 1).bit_length() (``_slot_width``).  A coefficient
    counts length-j tails, so it is at most |B|^j <= 2^(j bits) < 2^W(j),
    and since every addend is nonnegative no partial sum ever carries
    into the next slot.  A state therefore adds each child as ``packed <<
    W(j) (low - best)`` to one int, and re-spaces its children
    (``_respace``) only at the few lengths where W(j - 1) != W(j).
    ``rec`` unpacks the value it answers once (``_unpack``).

    A capped state asks the letter u after t for cap - j H(t, u) and
    masks its sum at the cap: exact, since every coefficient counts words
    and nothing cancels.  It tries the letters in order of the bound j
    H(t, u) + floor[j-1][u] on their lowest exponent, floor[m][u] being
    the least energy of any length-m tail after u, and stops at the first
    bound past the cap.  Uncapped values are kept apart from capped ones,
    which carry their cap: a capped read hits an uncapped value or one
    stored under a cap no lower, and recomputes the state otherwise.  An
    uncapped state's children (u, fit + gain, rest - step, j - 1) do not
    depend on its head t, only their shift j H(t, u) does: the first head
    at a node (fit, rest, j) tests its letters and keeps each live child,
    re-spaced, in the node store, and every head adds each with one
    shift-add.  ``walk`` reads a child's uncapped entry inline, with no
    Python call; any other read costs one frame.

    Inside, the weight left for the tail is held in the crystal's letter
    coordinates (``PerfectCrystal.letter_coordinates``), in which every
    letter takes a short step.  ``rec`` converts ``rest`` once per
    ``(rest, j)``, in a cache of this kernel, and answers None at once
    when the weight has no coordinates or when j letters cannot carry
    them by the table's L1 rule.  Past that, a letter is skipped when the
    coordinates left after it have an L1 norm above (j - 1) times the
    table's stride: no tail can carry them, so the skipped call could
    only return None.  A step grows the norm by at most the stride, so
    only a state with less slack than that tests its letters, reading
    the norm after a letter off the entries its step moves before the
    coordinates are built.  The parity half of the rule needs no test
    past the entry, because every step changes the norm's parity alike.
    For the six level-1 families the rule is exact, so with no checked
    node the memo holds no dead state; with checked nodes a state can
    still be None when no tail fits.  With no checked node, as for every
    g, there is no epsilon test and ``fit`` stays the empty tuple.
    ``cache_info()`` counts the states, the capped states recomputed
    under a higher cap and the stored nodes.
    """
    table = crystal.letter_coordinates
    energy = crystal.energy_table
    letters = range(len(energy))
    stride = table.stride
    bits = (len(energy) - 1).bit_length()
    rows = []
    for u, (step, e, wt) in enumerate(zip(table.steps, crystal.epsilon_table, crystal.weight_table)):
        moves = tuple((k, s) for k, s in enumerate(step) if s)
        rows.append((u, step, moves, tuple(e[i] for i in idx), tuple(wt[i] for i in idx)))
    floor = [[0] * len(energy)]
    orders: dict[tuple[int, int], list] = {}
    full: dict[tuple, tuple | None] = {}
    capped: dict[tuple, tuple[int, tuple | None]] = {}
    nodes: dict[tuple, list] = {}
    plain = [(0, 0, *row) for row in rows]  # an uncapped build: no bound, no head shift
    known = full.get
    redone = [0]

    def order(t: int, j: int) -> list:
        """(bound, head energy, *row) for the letters after t, by bound."""
        while len(floor) < j:
            m, prev = len(floor), floor[-1]
            floor.append([min(m * g[v] + prev[v] for v in letters) for g in energy])
        h, below = energy[t], floor[j - 1]
        orders[t, j] = sorted((j * h[u] + below[u], j * h[u], *rows[u]) for u in letters)
        return orders[t, j]

    def walk(key: tuple, cap: float) -> tuple | None:
        """State ``key`` up to ``cap`` (inf for all), stored in the memo."""
        t, fit, rest, j = key
        if j == 0:
            full[key] = value = None if any(rest) else (0, 1)
            return value
        if cap < inf:
            kept = capped.get(key)
            if kept and kept[0] >= cap:
                return kept[1]
            kids, tried = None, orders.get((t, j)) or order(t, j)
        elif (kids := nodes.get(key[1:])) is None:
            kids, tried = [], plain
        else:
            tried = ()
        wide = _slot_width(j, bits)
        if tried:
            narrow = _slot_width(j - 1, bits)
            slack = (j - 1) * stride - sum(map(abs, rest))
            tight = slack < stride
        acc = 0
        best = inf
        for bound, head, u, step, moves, e, gain in tried:
            if bound > cap:
                break
            if tight:
                grow = 0
                for k, s in moves:
                    r = rest[k]
                    grow += abs(r - s) - abs(r)
                if grow > slack:
                    continue
            if idx:
                if not all(map(le, e, fit)):
                    continue
                child = (u, tuple(map(add, fit, gain)), tuple(map(sub, rest, step)), j - 1)
            else:
                child = (u, fit, tuple(map(sub, rest, step)), j - 1)
            inner = known(child, full)  # the dict itself marks a miss
            if inner is full:
                inner = walk(child, cap - head)
            if inner is not None:
                low, packed = inner
                low += head
                if low > cap:
                    continue
                if narrow != wide:
                    packed = _respace(packed, narrow, wide)
                if kids is not None:
                    kids.append((u, low, packed))
                elif low < best:
                    # What is summed so far moves up to the new lowest exponent.
                    acc = (acc << wide * (best - low) if acc else 0) + packed
                    best = low
                else:
                    acc += packed << wide * (low - best)
        if kids is None:
            if acc:
                acc &= (1 << wide * (cap - best + 1)) - 1
            value = (best, acc) if acc else None
            redone[0] += kept is not None
            capped[key] = (cap, value)
            return value
        if tried:
            nodes[key[1:]] = kids
        h = energy[t]
        for u, low, packed in kids:
            low += j * h[u]
            if low < best:
                acc = (acc << wide * (best - low) if acc else 0) + packed
                best = low
            else:
                acc += packed << wide * (low - best)
        full[key] = value = (best, acc) if acc else None
        if capped:
            capped.pop(key, None)
        return value

    convert = cache(table.coordinates)

    def rec(t: int, fit: tuple, rest: tuple, j: int, cap: int | None = None) -> tuple | None:
        coords = convert(rest, j)
        if coords is None:
            return None
        key = (t, fit, coords, j)
        value = known(key, full)
        if value is full:
            value = walk(key, inf if cap is None else cap)
        if value is None:
            return None
        low, packed = value
        width = _slot_width(j, bits)
        if cap is not None:
            if low > cap:
                return None
            packed &= (1 << width * (cap - low + 1)) - 1
        return low, _unpack(packed, width)

    rec.cache_info = lambda: SimpleNamespace(
        currsize=len(full) + len(capped), recomputed=redone[0], nodes=len(nodes)
    )
    return rec


def _poly(value: tuple | None, shift: int = 0) -> LaurentPoly:
    """The LaurentPoly of a kernel value, times q^shift."""
    if value is None:
        return ZERO
    low, coeffs = value
    return LaurentPoly.from_dense(low + shift if shift else low, coeffs)


def g_recursive(crystal: PerfectCrystal, b: Element, mu: Weight, j: int) -> LaurentPoly:
    """Unrestricted sum by memoized recursion on the head letter: the
    kernel's sum from zero to mu with no checked node.

    Zero unless mu has level zero; the delta-coordinate of mu only
    scales the result by a power of q.
    """
    zero = Weight.zero(crystal.cartan.size)
    return _poly(_x_value(crystal, b, zero, mu, j, False, (), None), mu.delta_coord)


# ---------------------------------------------------------------------------
# Tail enumeration on integer tables


@cache
def _walk_tails(
    crystal: PerfectCrystal,
    j: int,
    start: tuple[int, ...],
    idx: tuple[int, ...],
) -> MappingProxyType:
    """List every length-j tail once, depth first over letter indices.

    The running state starts at ``start`` and adds each letter's weight
    coordinates at every node; a letter is taken only if its epsilon at
    every node of ``idx`` fits under the state.  Returns a read-only map
    from (first letter, end state) to the tail energies as (energy,
    count) pairs, the first letter being None when j = 0.  Each last
    letter is counted in its parent's loop, one count per (first letter,
    end state, energy).  The head term j * H(head, first letter) is left
    to the reader of a bucket.  Cached per crystal, length, start and
    checked nodes, so every head letter and end weight at one start
    reads one listing; ``_walk_tails.cache_clear()`` frees the listings.
    """
    wts, energy, eps = crystal.weight_table, crystal.energy_table, crystal.epsilon_table
    rows = [
        (t, b, wts[t], tuple((i, eps[t][i]) for i in idx)) for t, b in enumerate(crystal.elements)
    ]
    # (first letter, end state, energy) -> count, in the order first met.
    counts: dict[tuple, int] = {(None, start, 0): 1} if j == 0 else {}

    def extend(depth: int, state: tuple[int, ...], first, row: tuple[int, ...], acc: int) -> None:
        # row holds H(previous letter, t): zeros before the first letter.
        scale = j - depth
        if scale > 1:
            for t, b, wt, checks in rows:
                if not checks or all(e <= state[i] for i, e in checks):
                    nxt = tuple(map(add, state, wt))
                    extend(depth + 1, nxt, first if depth else b, energy[t], acc + scale * row[t])
            return
        # The last letter is counted here, with no call per tail.
        for t, b, wt, checks in rows:
            if not checks or all(e <= state[i] for i, e in checks):
                key = (first if depth else b, tuple(map(add, state, wt)), acc + row[t])
                counts[key] = counts.get(key, 0) + 1

    if j:
        extend(0, start, None, (0,) * len(rows), 0)
    buckets: dict[tuple, list] = {}
    for (first, state, e), c in counts.items():
        buckets.setdefault((first, state), []).append((e, c))
    return MappingProxyType({key: tuple(pairs) for key, pairs in buckets.items()})


def _head_terms(crystal: PerfectCrystal, buckets: MappingProxyType, b: Element, j: int):
    """(end state, head shift, (energy, count) pairs) of the head-b words,
    one group per bucket of one listing of the length-j tails: a word's
    energy is the head shift plus its tail energy."""
    for (first, state), pairs in buckets.items():
        yield state, 0 if first is None else j * crystal.energy(b, first), pairs


def _walker_terms(crystal: PerfectCrystal, j: int):
    """The enumeration source of head sums of length j: one listing of
    the length-j tails, read under each head letter as groups (tail
    coords, head shift, (energy, count) pairs)."""
    buckets = _walk_tails(crystal, j, (0,) * crystal.cartan.size, ())
    return partial(_head_terms, crystal, buckets)


def g_enumerate(crystal: PerfectCrystal, b: Element, mu: Weight, j: int) -> LaurentPoly:
    """Unrestricted sum by listing every head-b sequence of tail weight
    mu: ``x_enumerate`` from zero to mu with no checked node, times
    q^(delta-coordinate of mu)."""
    zero = Weight.zero(crystal.cartan.size)
    return x_enumerate(crystal, b, zero, mu, j, indices=()).shift(mu.delta_coord)


def g_enumerate_table(
    crystal: PerfectCrystal, j: int
) -> dict[tuple[Element, tuple[int, ...]], LaurentPoly]:
    """Unrestricted sums of every head letter and reachable tail weight,
    from one listing of the length-j tails: the value at (b, coords)
    equals ``g_enumerate(crystal, b, Weight(coords), j)``."""
    _require_count(j, "length")
    terms = _walker_terms(crystal, j)
    sums: dict[tuple[Element, tuple[int, ...]], Counter] = {}
    for b in crystal.elements:
        for coords, shift, pairs in terms(b, j):
            found = sums.setdefault((b, coords), Counter())
            for e, c in pairs:
                found[e + shift] += c
    return {key: LaurentPoly(found, _trusted=True) for key, found in sums.items()}


def g_recursive_table(
    crystal: PerfectCrystal, j: int
) -> dict[tuple[Element, tuple[int, ...]], LaurentPoly]:
    """The nonzero g of every head letter and tail weight of length j,
    read from the kernel with no level check as ``_kernel_terms`` does:
    (b, coords) holds ``g_recursive(crystal, b, Weight(coords), j)``."""
    _require_count(j, "length")
    rec = _recursion(crystal, ())
    table = {}
    for coords in tail_weight_support(crystal, j):
        for t, b in enumerate(crystal.elements):
            if value := rec(t, (), coords, j):
                table[b, coords] = _poly(value)
    return table


def tail_weight_support(crystal: PerfectCrystal, j: int) -> frozenset[tuple[int, ...]]:
    """Classical coordinate tuples reachable as sums of j letter weights.
    Cached per crystal and length once j is checked, so that 2.0 is
    refused rather than read as 2; ``tail_weight_support.cache_clear()``
    frees the sets."""
    _require_count(j, "length")
    return _tail_weight_support(crystal, j)


@cache
def _tail_weight_support(crystal: PerfectCrystal, j: int) -> frozenset[tuple[int, ...]]:
    sums = {(0,) * crystal.cartan.size}
    letters = crystal.weight_table
    for _ in range(j):
        sums = {tuple(map(add, coords, wt)) for coords in sums for wt in letters}
    return frozenset(sums)


tail_weight_support.cache_clear = _tail_weight_support.cache_clear
tail_weight_support.cache_info = _tail_weight_support.cache_info


# ---------------------------------------------------------------------------
# Restricted sums X and Xbar


def _indices(crystal: PerfectCrystal, classical: bool, indices) -> tuple[int, ...]:
    ct = crystal.cartan
    if indices is None:
        return ct.index_tuples[1 if classical else 0]
    for i in indices:
        if i not in ct.index_set:
            raise ValueError(f"node {i!r} is outside 0..{ct.n} of {crystal.name}")
    if classical and 0 in indices:
        raise ValueError(
            f"indices {tuple(indices)} name node 0, which a classical sum leaves unchecked"
        )
    return tuple(indices)


def _fits(
    crystal: PerfectCrystal, state: tuple[int, ...], b: Element, idx: tuple[int, ...]
) -> bool:
    eps = crystal.epsilon_table[crystal.index(b)]
    for i in idx:
        if eps[i] > state[i]:
            return False
    return True


def is_admissible(
    crystal: PerfectCrystal, xi: Weight, b: Element, classical: bool = False
) -> bool:
    """Whether every raising capacity of b fits under xi at the checked nodes."""
    return _fits(crystal, xi.lambda_coords, b, _indices(crystal, classical, None))


def _check_query(crystal: PerfectCrystal, b: Element, j: int, *weights: Weight) -> None:
    """The argument checks of every window sum: ValueError unless j is a
    nonnegative int, b a letter and each weight one coordinate per node."""
    _require_count(j, "length")
    if b not in crystal:
        raise ValueError(f"{b!r} is not a letter of {crystal.name}")
    size = crystal.cartan.size
    for w in weights:
        if len(w.lambda_coords) != size:
            raise ValueError(f"weight {w} needs {size} coordinates, one per node of "
                             f"{crystal.name}; it has {len(w.lambda_coords)}")


def _restricted(
    crystal: PerfectCrystal,
    b: Element,
    xi: Weight,
    eta: Weight,
    j: int,
    classical: bool,
    indices: Sequence[int] | None,
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...] | None] | None:
    """Checked nodes and the start and end coordinates of a restricted
    sum, or None when the sum is zero by definition: for positive
    length, the boundary letter b is inadmissible one step above xi
    (equivalently, some lowering capacity of b exceeds xi) at a checked
    node; with no checked node it never is.

    Every letter weight has level zero, so a tail keeps the level of xi.
    The end is eta when the levels agree and None (no tail reaches it)
    otherwise; a classical sum leaves node 0 free, so its end is eta
    with node 0 moved by the level gap over the comark of node 0, and
    None when that is not an integer."""
    _check_query(crystal, b, j, xi, eta)
    ct = crystal.cartan
    idx = _indices(crystal, classical, indices)
    start, end = xi.lambda_coords, eta.lambda_coords
    if j >= 1 and idx:
        t = crystal.index(b)
        wt, eps = crystal.weight_table[t], crystal.epsilon_table[t]
        for i in idx:
            if eps[i] > start[i] - wt[i]:
                return None
    gap = sum(map(mul, ct.comarks, map(sub, start, end)))
    if classical:
        shift, gap = divmod(gap, ct.comarks[0])
        end = (end[0] + shift, *end[1:])
    return idx, start, None if gap else end


def x_enumerate(
    crystal: PerfectCrystal,
    b: Element,
    xi: Weight,
    eta: Weight,
    j: int,
    classical: bool = False,
    indices: Sequence[int] | None = None,
) -> LaurentPoly:
    """Restricted sum by listing admissible sequences from xi down to eta.

    With classical=True only the coordinates at nodes >= 1 of xi and eta
    matter. For j >= 1 the head letter b must itself be admissible one
    step above xi, else the value is zero. An explicit ``indices`` tuple
    overrides the checked node set (empty = no restriction); with
    classical=True it must leave node 0 out.
    """
    setup = _restricted(crystal, b, xi, eta, j, classical, indices)
    if setup is None or setup[2] is None:
        return ZERO
    idx, start, end = setup
    groups = _head_terms(crystal, _walk_tails(crystal, j, start, idx), b, j)
    return LaurentPoly.from_terms(
        (e + shift, c) for state, shift, pairs in groups if state == end for e, c in pairs
    )


def _x_value(
    crystal: PerfectCrystal,
    b: Element,
    xi: Weight,
    eta: Weight,
    j: int,
    classical: bool,
    indices: Sequence[int] | None,
    cap: int | None,
) -> tuple | None:
    """Kernel value of x, of xbar when classical, and of g with no
    checked node, at exponents up to ``cap`` (all of them when None)."""
    setup = _restricted(crystal, b, xi, eta, j, classical, indices)
    if setup is None or setup[2] is None:
        return None
    idx, start, end = setup
    rec = _recursion(crystal, idx)
    fit = tuple(start[i] for i in idx)
    return rec(crystal.index(b), fit, tuple(map(sub, end, start)), j, cap)


def x_recursive(
    crystal: PerfectCrystal,
    b: Element,
    xi: Weight,
    eta: Weight,
    j: int,
    classical: bool = False,
    indices: Sequence[int] | None = None,
) -> LaurentPoly:
    """Restricted sum by memoized recursion; must equal x_enumerate."""
    return _poly(_x_value(crystal, b, xi, eta, j, classical, indices, None))


def x_by_weyl_sum(
    crystal: PerfectCrystal,
    b: Element,
    xi: Weight,
    eta: Weight,
    j: int,
    classical: bool = False,
) -> LaurentPoly:
    """Restricted sum as a determinant-signed superposition of
    unrestricted sums at reflected weights.

    The terms are the Weyl elements w (finite group when classical,
    affine group otherwise) with g(b, w(eta + rho) - (xi + rho), j)
    nonzero, so their arguments lie in the tail-weight support.  Each
    support point mu is folded, once per start and length
    (``_weyl_terms``): xi + rho + mu is reflected into the
    dominant chamber of the checked nodes, and it is a term exactly when
    it lands on eta + rho there, with sign (-1)^steps and argument mu
    minus the offset times the null root.  Each term reads the g kernel
    at mu directly, as int coefficients shifted down by the offset, and
    one LaurentPoly is built from all of them.  The chamber is a
    fundamental domain for the group on weights of positive level, which
    xi + rho has, so every fold stops; eta + rho is regular, so no term
    is counted twice.  The sum is therefore finite and exact, with
    nothing to tune.

    The boundary-letter zero clause is definitional, so it is applied
    before summing.  Past it, xi and eta must be dominant at the checked
    nodes, the domain of the identity; otherwise ValueError.  Past that,
    the sum is zero when no tail reaches the level of eta.
    """
    setup = _restricted(crystal, b, xi, eta, j, classical, None)
    if setup is None:
        return ZERO
    idx, start, end = setup
    ct = crystal.cartan
    for name, w in (("xi", xi), ("eta", eta)):
        if not ct.is_dominant(w, idx):
            raise ValueError(
                f"{name} = {w} is not dominant at nodes {list(idx)}; the Weyl "
                f"sum holds only for dominant weights"
            )
    if end is None:
        return ZERO
    target = tuple(end[i] + 1 for i in idx)
    rec = _recursion(crystal, ())
    t = crystal.index(b)
    total: Counter = Counter()
    for mu, sign, offset in _weyl_terms(crystal, idx, start, j).get(target, ()):
        if value := rec(t, (), mu, j):
            low, coeffs = value
            for e, c in enumerate(coeffs, low - offset):
                total[e] += sign * c
    return LaurentPoly.from_terms(total.items())


@cache
def _weyl_terms(
    crystal: PerfectCrystal, idx: tuple[int, ...], start: tuple[int, ...], j: int
) -> MappingProxyType:
    """The fold of every tail-weight support point mu from start: a
    read-only map from the coordinates at ``idx`` where start + rho + mu
    lands in the dominant chamber of ``idx`` to its terms (mu, sign,
    offset), sign being (-1)^steps.  Cached per crystal, checked nodes,
    start and length, so every head letter and end weight at one start
    reads one fold; ``_weyl_terms.cache_clear()`` frees the tables."""
    ct = crystal.cartan
    base = tuple(c + 1 for c in start)
    table: dict[tuple[int, ...], list] = {}
    for mu in tail_weight_support(crystal, j):
        folded, steps, offset = fold(ct, tuple(map(add, base, mu)), idx)
        table.setdefault(tuple(folded[i] for i in idx), []).append(
            (mu, -1 if steps % 2 else 1, offset)
        )
    return MappingProxyType({key: tuple(terms) for key, terms in table.items()})


# ---------------------------------------------------------------------------
# Decomposition of the non-admissible set into f-strings


@dataclass(frozen=True)
class DecompositionReport:
    """Search outcome: the non-admissible letters, whether they split
    into disjoint full f-strings rooted at letters with raising capacity
    exactly one above the weight, and one witnessing choice of strings."""

    non_admissible: tuple[Element, ...]
    found: bool
    witness: tuple[tuple[Element, int, tuple[Element, ...]], ...]


def _f_string(crystal: PerfectCrystal, b: Element, i: int) -> tuple[Element, ...]:
    out = [b]
    cur = b
    while (cur := crystal.f(i, cur)) is not None:
        out.append(cur)
    return tuple(out)


def check_disjoint_decomposition(
    crystal: PerfectCrystal, xi: Weight, classical: bool = False
) -> DecompositionReport:
    """Try to write the letters not admitted under xi as a disjoint union
    of full lowering strings, each rooted where the raising capacity
    overshoots xi by exactly one."""
    idx = _indices(crystal, classical, None)
    state = xi.lambda_coords
    bad = tuple(
        b
        for b in sorted(crystal.elements, key=crystal.index)
        if not _fits(crystal, state, b, idx)
    )
    bad_set = set(bad)
    candidates = []
    for bp in sorted(crystal.elements, key=crystal.index):
        for i in idx:
            if crystal.epsilon(i, bp) == state[i] + 1:
                string = _f_string(crystal, bp, i)
                if set(string) <= bad_set:
                    candidates.append((bp, i, string))

    def solve(uncovered: frozenset, chosen: list) -> tuple | None:
        if not uncovered:
            return tuple(chosen)
        pivot = min(uncovered, key=crystal.index)
        for cand in candidates:
            members = set(cand[2])
            if pivot in members and members <= uncovered:
                chosen.append(cand)
                result = solve(uncovered - members, chosen)
                if result is not None:
                    return result
                chosen.pop()
        return None

    witness = solve(frozenset(bad), [])
    return DecompositionReport(
        non_admissible=bad,
        found=witness is not None,
        witness=witness if witness is not None else (),
    )


# ---------------------------------------------------------------------------
# Kostka-Foulkes specialization


def kostka(xi: Sequence[int], l: int, j: int, n: int) -> LaurentPoly:
    """Kostka-Foulkes polynomial K_{xi, (l^j)} through the classically
    restricted sum over the level-l symmetric-power crystal of rank n.

    xi is a partition of l*j with at most n+1 parts, read as the weight
    with coordinate xi_i - xi_{i+1} at node i.
    """
    if l < 0 or j < 0:
        raise ValueError(f"l and j must be nonnegative, got l = {l}, j = {j}")
    parts = tuple(xi)
    for p in parts:
        if not _is_int(p):
            raise ValueError(f"partition parts must be ints, got {p!r}")
    if any(p < 0 for p in parts) or any(
        a < c for a, c in zip(parts, parts[1:])
    ):
        raise ValueError(f"{parts} is not a partition")
    if len(parts) > n + 1:
        raise ValueError(f"partition has {len(parts)} parts, more than {n + 1}")
    if sum(parts) != l * j:
        raise ValueError(f"partition of {sum(parts)} does not fill a {l}x{j} box")
    padded = parts + (0,) * (n + 1 - len(parts))
    eta = Weight((0,) + tuple(padded[i] - padded[i + 1] for i in range(n)))
    crystal = symmetric_crystal(n, l)
    boundary = (n,) * l
    zero = Weight.zero(n + 1)
    val = x_recursive(crystal, boundary, zero, eta, j, classical=True)
    return val.shift(-l * j)


# ---------------------------------------------------------------------------
# Large-window stabilization


def stabilized_limit(
    kind: str,
    crystal: PerfectCrystal,
    lam: Weight,
    degree: int,
    *,
    mu: Weight | None = None,
    xi: Weight | None = None,
    eta: Weight | None = None,
    max_j: int = 64,
) -> LaurentPoly:
    """Stable truncation of the normalized 1dsum through the ground state
    of lam, as the window grows.

    kind="g": string function along the level-zero direction mu
    (default 0; mu of another level raises ValueError). kind="x":
    branching of the product with a second highest weight xi toward
    eta. kind="xbar": classical branching toward the barred weight
    eta.  Every kind reads the kernel entry ``_x_value`` once per
    window, capped at c(j) + degree less the delta-coordinate of mu; kind
    "g" reads it from zero to mu with no checked node.  The window
    advances by the period of the ground-state letter cycle, starting no
    earlier than the requested degree; the result is returned once three
    consecutive aligned truncations to that degree agree.  A single
    agreement is not trusted: short windows can coincide by accident
    before the low coefficients have saturated.
    """
    _require_count(degree, "degree")
    if not _is_int(max_j):
        raise ValueError(f"max_j must be an int, got {max_j!r}")
    if kind not in ("g", "x", "xbar"):
        raise ValueError(f"unknown kind {kind!r}")
    if kind == "x" and (xi is None or eta is None):
        raise ValueError("kind 'x' needs xi and eta")
    if kind == "xbar" and eta is None:
        raise ValueError("kind 'xbar' needs eta")
    if kind == "g" and mu is not None and crystal.cartan.level(mu):
        raise ValueError(f"kind 'g' needs mu of level 0, got level {crystal.cartan.level(mu)}")
    gs = GroundState(crystal, lam)
    period = gs.period()
    zero = Weight.zero(crystal.cartan.size)
    # The kind picks the start weight at window j, the end weight and the
    # checked nodes: none for g, all for x, and nodes 1..n for xbar.
    indices = None
    if kind == "g":
        eta, indices = (mu if mu is not None else zero), ()
    start = {
        "g": lambda j: zero,
        "x": lambda j: xi.classical() + gs.window_weight(j),
        "xbar": gs.window_weight,
    }[kind]
    shift = eta.delta_coord if kind == "g" else 0

    def value(j: int) -> LaurentPoly:
        # The normalized exponent e + shift - c(j) is at most the degree.
        cap = gs.c(j) + degree - shift
        try:
            val = _x_value(crystal, gs.bar(j + 1), start(j), eta, j, kind == "xbar", indices, cap)
        except RecursionError as exc:
            raise StabilizationGuardError(
                j,
                degree,
                f"window j = {j} is deeper than the interpreter stack allows "
                f"(recursion limit {sys.getrecursionlimit()}); truncation to "
                f"degree {degree} not reached",
            ) from exc
        if val is None:
            return ZERO
        if val[0] < gs.c(j):
            raise ArithmeticError(
                f"window {j}: lowest exponent {val[0]} lies below c(j) = "
                f"{gs.c(j)}, the ground-state energy that normalizes it"
            )
        return _poly(val, shift - gs.c(j))

    j = period * -(-degree // period)
    if j + 2 * period > max_j:
        raise StabilizationGuardError(max_j, degree)
    prev = value(j)
    streak = 0
    while True:
        j += period
        if j > max_j:
            raise StabilizationGuardError(max_j, degree)
        cur = value(j)
        if cur == prev:
            streak += 1
            if streak >= 2:
                return cur
        else:
            streak = 0
        prev = cur


# ---------------------------------------------------------------------------
# Scheduled path characters: one segment sum over two g sources


def _kernel_terms(crystal: PerfectCrystal, b: Element, m: int):
    """The recursion source of head sums: the kernel at every point of
    the tail-weight support, one group (tail coords, lowest exponent,
    (offset, count) pairs) per nonzero point.  It reads the kernel
    directly, with no level check: a tail weight is a sum of letter
    weights, and those have level zero."""
    rec = _recursion(crystal, ())
    t = crystal.index(b)
    for coords in tail_weight_support(crystal, m):
        value = rec(t, (), coords, m)
        if value is not None:
            yield coords, value[0], enumerate(value[1])


def _segment_character(s: Schedule, j: int, a: int, terms) -> FormalCharacter:
    """Character of the path set at step a of segment j, as a sum over
    its leading letters b of e^(lam_j + wt b) q^(j H(bbar(j+1), b)) times
    the head-b sums of length j - 1, which ``terms(b, j - 1)`` yields in
    groups (tail coords, shift, (energy, count) pairs) whose weight is
    built once; a term's energy is the shift plus its own, and its
    delta-coordinate is c(j) minus that.  Step a = 0 leads with the
    ground-state letter bbar(j) alone and needs no closure: step 0 is
    (1, 0), and j whole segments are (j + 1, 0)."""
    gs, crystal = s.ground, s.crystal
    cj = gs.c(j)
    above = gs.bar(j + 1)
    lam_j = gs.window_weight(j).lambda_coords
    leading = s.leading_sets(j)[a] if a else {gs.bar(j)}
    acc: dict[tuple[int, ...], int] = {}
    for b in leading:
        base = tuple(map(add, lam_j, crystal.weight_table[crystal.index(b)]))
        delta = cj - j * crystal.energy(above, b)
        for coords, shift, pairs in terms(b, j - 1):
            wt = tuple(map(add, base, coords))
            top = delta - shift
            for e, c in pairs:
                key = (*wt, top - e)
                acc[key] = acc.get(key, 0) + c
    return FormalCharacter(acc, _trusted=True)


def character_via_onedsums(s: Schedule, k: int) -> FormalCharacter:
    """Character of the step-k path set, rewritten as a weight-indexed
    superposition of unrestricted sums one window shorter, with the
    leading letter summed over the current leading set."""
    j, a = s.decompose(k)
    return _segment_character(s, j, a, partial(_kernel_terms, s.crystal))


def character_at_full_segment(s: Schedule, j: int) -> FormalCharacter:
    """Character after j whole segments: one unrestricted sum per weight
    with the ground-state letter above the window as head."""
    _require_count(j, "segments")
    return _segment_character(s, j + 1, 0, partial(_kernel_terms, s.crystal))
