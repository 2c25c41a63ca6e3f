"""Tests for the graded path sums and their derived quantities.

Covers the unrestricted, classically restricted, and restricted sums,
their recursions and reflection identities, signed reflection-group
superpositions, the disjoint-string decomposition search, the
tableau-polynomial bridge, and stabilized window limits.
"""

import itertools
import json
import math
import random
import re
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute import (
    check_2m_relation,
    enumerate_paths,
    finite_weyl_group,
    reflect,
    simple_root,
    support_sumset,
    weyl_by_length,
)
from oracles import (
    colored_partition_counts,
    kostka_foulkes_by_charge,
    kostka_number,
    partition_count,
    partitions_of,
)

from demchar import cli, onedsums
from demchar.crystals import perfect_crystal, symmetric_crystal
from demchar.demazure import character_by_operators, character_by_paths, demazure_schedule
from demchar.formulas import g_closed_form
from demchar.onedsums import (
    StabilizationGuardError,
    character_at_full_segment,
    character_via_onedsums,
    check_disjoint_decomposition,
    g_enumerate,
    g_recursive,
    g_sums,
    is_admissible,
    kostka,
    stabilized_limit,
    tail_weight_support,
    x_by_weyl_sum,
    x_enumerate,
    x_recursive,
)
from demchar.paths import GroundState, schedule_words
from demchar.qring import LaurentPoly
from demchar.tensor import TensorWord
from demchar.weights import (
    _MIN_N,
    FAMILIES,
    Weight,
    cartan_type,
    dominant_classical_weights,
    fold,
)

ZERO = LaurentPoly.from_terms([])
ONE = LaurentPoly.from_terms([(0, 1)])

MINIMAL_RANKS = [
    ("A1", 1),
    ("A1", 2),
    ("B1", 3),
    ("D1", 4),
    ("A2odd", 3),
    ("A2even", 1),
    ("A2even", 2),
    ("D2", 2),
]

SCHEDULED = [
    (family, n, node)
    for family, n in MINIMAL_RANKS
    for node in schedule_words(perfect_crystal(family, n))
]


def poly(pairs):
    return LaurentPoly.from_terms(pairs)


def level_zero_weights(crystal, j):
    """All level-zero weights realizable by a window of j letters."""
    return [Weight(coords) for coords in sorted(tail_weight_support(crystal, j))]


def classical_dominants(crystal, j):
    """Classically dominant barred weights drawn from window weights."""
    out = {Weight((0,) * crystal.cartan.size)}
    for coords in tail_weight_support(crystal, j):
        if all(x >= 0 for x in coords[1:]):
            out.add(Weight((0,) + coords[1:]))
    return sorted(out, key=lambda w: w.lambda_coords)


# ---------------------------------------------------------------------------
# The tail walker of the enumeration route, against brute force over B^j

FAMILY_MINIMA = [
    ("A1", 1),
    ("B1", 3),
    ("D1", 4),
    ("A2odd", 3),
    ("A2even", 1),
    ("D2", 2),
]


def brute_g_table(c, j):
    """Energy counts of every word (head, tail) with |tail| = j, by head
    and tail weight, from itertools.product and TensorWord."""
    counts = {}
    for head in c.elements:
        for tail in itertools.product(c.elements, repeat=j):
            key = (head, TensorWord(c, tail).weight().lambda_coords)
            energy = TensorWord(c, (head, *tail)).energy()
            counts.setdefault(key, Counter())[energy] += 1
    return {key: poly(energies.items()) for key, energies in counts.items()}


def canon(w, classical):
    """The coordinates a restricted sum keeps: no delta, and no node 0
    in the classical case."""
    return Weight((0,) + w.lambda_coords[1:]) if classical else w.classical()


def brute_admissible_tails(c, xi, j, classical, idx):
    """(tail, end state) for every tail of j letters that stays admissible
    at the nodes idx from xi down, testing each step on Weights."""
    out = []
    for tail in itertools.product(c.elements, repeat=j):
        state = canon(xi, classical)
        for letter in tail:
            if any(c.epsilon(i, letter) > state.pairing(i) for i in idx):
                break
            state = canon(state + c.weight(letter), classical)
        else:
            out.append((tail, state))
    return out


def brute_x(c, b, xi, eta, j, tails, classical, idx):
    """The restricted sum from a list of admissible tails; zero when the
    head letter b does not fit one step above xi."""
    if j == 0:
        return ONE if canon(xi, classical) == canon(eta, classical) else ZERO
    above = canon(canon(xi, classical) - c.weight(b), classical)
    if any(c.epsilon(i, b) > above.pairing(i) for i in idx):
        return ZERO
    energies = Counter(
        TensorWord(c, (b, *tail)).energy()
        for tail, end in tails
        if end == canon(eta, classical)
    )
    return poly(energies.items())


def walker_table(c, j):
    """g of every head letter and tail weight of length j, summed from
    the tail walker's groups."""
    return {
        (b, coords): value
        for b in c.elements
        for coords, value in g_sums(c, b, j, onedsums._walker_terms).items()
    }


# The two smallest alphabets, whose brute-force checks also reach j = 4, 5.
WALKER_LENGTHS = {("A1", 1): 6, ("A2even", 1): 6}


class TestTailWalker:
    @pytest.mark.parametrize("family,n", FAMILY_MINIMA)
    def test_table_matches_brute_force(self, family, n):
        c = perfect_crystal(family, n)
        for j in range(WALKER_LENGTHS.get((family, n), 4)):
            assert walker_table(c, j) == brute_g_table(c, j), (family, j)

    @pytest.mark.parametrize("family,n", FAMILY_MINIMA)
    def test_restricted_matches_brute_force(self, family, n):
        c = perfect_crystal(family, n)
        ct = c.cartan
        doms = list(dominant_classical_weights(ct, 1))
        bars = classical_dominants(c, 2)[:3]
        zero = Weight.zero(ct.size)
        # (classical, indices argument, nodes checked, xi with its etas)
        cases = [
            (False, None, ct.index_set, [(xi, doms) for xi in doms]),
            (True, None, ct.classical_index_set, [(xi, bars) for xi in bars]),
            (True, (), (), [(xi, [zero]) for xi in bars]),
        ]
        for classical, indices, idx, pairs in cases:
            for xi, etas in pairs:
                for j in range(WALKER_LENGTHS.get((family, n), 4)):
                    tails = brute_admissible_tails(c, xi, j, classical, idx)
                    for b in c.elements:
                        for eta in etas:
                            got = x_enumerate(
                                c, b, xi, eta, j, classical=classical, indices=indices
                            )
                            want = brute_x(c, b, xi, eta, j, tails, classical, idx)
                            assert got == want, (family, classical, idx, b, xi, eta, j)

    def test_enumeration_never_calls_the_recursion(self, monkeypatch):
        c = perfect_crystal("B1", 3)
        zero = Weight.zero(4)
        lam = c.cartan.fundamental_weight(0)
        bar = Weight((0, 1, 0, 0))

        def values():
            return (
                g_enumerate(c, "0", zero, 3),
                walker_table(c, 2),
                x_enumerate(c, "1~", lam, lam, 4),
                x_enumerate(c, "1", bar, bar, 2, classical=True),
            )

        expected = values()
        assert all(expected)

        def refuse(*args, **kwargs):
            raise AssertionError("the enumeration route called the recursion")

        monkeypatch.setattr(onedsums, "_recursion", refuse)
        assert values() == expected

    def test_recursion_never_calls_the_enumeration(self, monkeypatch):
        c = perfect_crystal("B1", 3)
        zero = Weight.zero(4)
        lam = c.cartan.fundamental_weight(0)
        bar = Weight((0, 1, 0, 0))

        def values():
            return (
                g_recursive(c, "0", zero, 3),
                x_recursive(c, "1~", lam, lam, 4),
                x_recursive(c, "1", bar, bar, 2, classical=True),
                kostka((2, 1), 1, 3, 2),
            )

        expected = values()
        assert all(expected)

        def refuse(*args, **kwargs):
            raise AssertionError("the recursion route called the enumeration")

        onedsums._recursion.cache_clear()
        monkeypatch.setattr(onedsums, "_walk_tails", refuse)
        assert values() == expected

    def test_weyl_sum_reads_the_kernel(self, monkeypatch):
        c = perfect_crystal("B1", 3)
        lam = c.cartan.fundamental_weight(0)
        bar = Weight((0, 1, 0, 0))

        def values():
            return (
                x_by_weyl_sum(c, "1~", lam, lam, 4),
                x_by_weyl_sum(c, "1", bar, bar, 2, classical=True),
            )

        expected = values()
        assert expected == (
            x_recursive(c, "1~", lam, lam, 4),
            x_recursive(c, "1", bar, bar, 2, classical=True),
        )
        assert all(expected)

        def refuse(*args, **kwargs):
            raise AssertionError("the Weyl sum called g_recursive")

        monkeypatch.setattr(onedsums, "g_recursive", refuse)
        assert values() == expected

    @pytest.mark.parametrize("family,rank,classical", [("B1", 3, False), ("A2odd", 3, True)])
    def test_one_listing_and_one_fold_per_start(self, monkeypatch, family, rank, classical):
        """Every head letter and every level-1 dominant eta at one (xi, j)
        read one tail listing and one Weyl fold table."""
        c = perfect_crystal(family, rank)
        etas = dominant_classical_weights(c.cartan, 1)
        xi, j = etas[-1], 3
        folds = []

        def counting(*args):
            folds.append(args)
            return fold(*args)

        def values():
            return {
                (b, eta): (
                    x_enumerate(c, b, xi, eta, j, classical=classical),
                    x_recursive(c, b, xi, eta, j, classical=classical),
                    x_by_weyl_sum(c, b, xi, eta, j, classical=classical),
                )
                for b in c.elements
                for eta in etas
            }

        monkeypatch.setattr(onedsums, "fold", counting)
        onedsums._walk_tails.cache_clear()
        onedsums._weyl_terms.cache_clear()
        first = values()
        assert onedsums._walk_tails.cache_info().misses == 1
        assert len(folds) == len(tail_weight_support(c, j))
        assert any(any(routes) for routes in first.values())
        onedsums._walk_tails.cache_clear()
        onedsums._weyl_terms.cache_clear()
        assert values() == first
        for (b, eta), (enumerated, recursive, weyl) in first.items():
            assert enumerated == recursive == weyl, (b, eta)

    @pytest.mark.parametrize("family,n", FAMILY_MINIMA)
    def test_fold_memo_changes_no_table(self, monkeypatch, family, n):
        """Each Weyl table equals one built by folding every support point
        directly, while each lattice point is folded once per crystal and
        checked node set; the clear empties the point memo."""
        c = perfect_crystal(family, n)
        ct = c.cartan
        starts = [w.lambda_coords for w in dominant_classical_weights(ct, 1)]
        folds = []

        def counting(*args):
            folds.append(args)
            return fold(*args)

        monkeypatch.setattr(onedsums, "fold", counting)
        for idx in ct.index_tuples:
            onedsums._weyl_terms.cache_clear()
            assert onedsums._weyl_store(c, idx) == ({}, {})
            folds.clear()
            points = set()
            for start in starts:
                base = tuple(x + 1 for x in start)
                for j in range(5):
                    want: dict = {}
                    for mu in tail_weight_support(c, j):
                        point = tuple(map(sum, zip(base, mu)))
                        points.add(point)
                        folded, steps, offset = fold(ct, point, idx)
                        want.setdefault(tuple(folded[i] for i in idx), []).append(
                            (mu, (-1) ** steps, offset)
                        )
                    table = onedsums._weyl_terms(c, idx, start, j)
                    assert dict(table) == {key: tuple(terms) for key, terms in want.items()}
            assert len(folds) == len(points) < sum(
                len(tail_weight_support(c, j)) for j in range(5)
            ) * len(starts)
            assert len(onedsums._weyl_store(c, idx)[1]) == len(points)
        onedsums._weyl_terms.cache_clear()
        assert onedsums._weyl_store.cache_info().currsize == 0
        assert onedsums._weyl_store(c, idx) == ({}, {})

    def test_cached_tables_are_read_only(self):
        c = perfect_crystal("B1", 3)
        start = c.cartan.fundamental_weight(0).lambda_coords
        idx = tuple(c.cartan.index_set)
        buckets = onedsums._walk_tails(c, 2, start, idx)
        table = onedsums._weyl_terms(c, idx, start, 2)
        assert buckets and table
        for cached in (buckets, table):
            key = next(iter(cached))
            with pytest.raises(TypeError):
                cached[key] = ()
            with pytest.raises(TypeError):
                del cached[key]
            with pytest.raises(TypeError):
                cached[key][0] = ()
        assert onedsums._walk_tails(c, 2, start, idx) is buckets
        assert onedsums._weyl_terms(c, idx, start, 2) is table


# ---------------------------------------------------------------------------
# Unrestricted sums


class TestUnrestricted:
    def test_zero_window_is_delta(self):
        c = perfect_crystal("A1", 1)
        zero = Weight.zero(2)
        for b in c.elements:
            assert g_recursive(c, b, zero, 0) == ONE
            assert g_enumerate(c, b, zero, 0) == ONE
            assert g_recursive(c, b, Weight((-1, 1)), 0) == ZERO

    def test_negative_window_rejected(self):
        c = perfect_crystal("A1", 1)
        with pytest.raises(ValueError):
            g_recursive(c, "0", Weight.zero(2), -1)

    @pytest.mark.parametrize("j", [1.5, 2.0, True], ids=repr)
    def test_non_int_window_rejected(self, j):
        # Each route checks the length before it recurses or reads a
        # cache: 2.0 and True equal ints, so they would find the cached
        # support of length 2 (built here) or 1.
        c = perfect_crystal("A1", 1)
        zero = Weight.zero(2)
        s = demazure_schedule(c, c.cartan.fundamental_weight(0))
        tail_weight_support(c, 2)
        calls = [
            lambda: g_enumerate(c, "0", zero, j),
            lambda: g_recursive(c, "0", zero, j),
            lambda: x_enumerate(c, "0", zero, zero, j),
            lambda: x_recursive(c, "0", zero, zero, j, classical=True),
            lambda: x_by_weyl_sum(c, "0", zero, zero, j),
            lambda: tail_weight_support(c, j),
            lambda: g_sums(c, "0", j, onedsums._walker_terms),
            lambda: character_at_full_segment(s, j),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="must be an int"):
                call()

    def test_wrong_size_weights_rejected(self):
        c = perfect_crystal("A1", 1)
        lam = c.cartan.fundamental_weight(0)
        for bad in (Weight((0,)), Weight((0, 0, 5))):
            for g in (g_enumerate, g_recursive):
                with pytest.raises(ValueError, match="needs 2 coordinates"):
                    g(c, "0", bad, 2)
            for x in (x_enumerate, x_recursive, x_by_weyl_sum):
                with pytest.raises(ValueError, match="needs 2 coordinates"):
                    x(c, "0", bad, lam, 2)
                with pytest.raises(ValueError, match="needs 2 coordinates"):
                    x(c, "0", lam, bad, 2)

    def test_nonzero_level_gives_zero(self):
        c = perfect_crystal("A1", 1)
        lam = c.cartan.fundamental_weight(0)
        assert g_recursive(c, "0", lam, 2) == ZERO

    def test_single_step_value(self):
        c = perfect_crystal("A1", 1)
        assert g_recursive(c, "0", c.weight("0"), 1) == poly([(1, 1)])

    def test_single_step_unrolled(self):
        """A one-letter window sums the head-energy powers of every
        letter carrying the requested weight."""
        for family, n in [("A1", 1), ("A2even", 1), ("D2", 2)]:
            c = perfect_crystal(family, n)
            for head in c.elements:
                for mu in level_zero_weights(c, 1):
                    expected = poly(
                        (c.energy(head, tail), 1)
                        for tail in c.elements
                        if c.weight(tail) == mu
                    )
                    assert g_recursive(c, head, mu, 1) == expected

    def test_delta_coordinate_shifts_the_grading(self):
        c = perfect_crystal("A1", 1)
        mu = c.weight("0")
        base = g_recursive(c, "0", mu, 3)
        for t in (1, -2):
            assert g_recursive(c, "0", Weight(mu.lambda_coords, t), 3) == base.shift(t)

    @pytest.mark.parametrize("family,n", MINIMAL_RANKS)
    def test_enumerate_equals_recursive(self, family, n):
        c = perfect_crystal(family, n)
        j_max = 4 if len(c.elements) <= 3 else 3
        for j in range(j_max + 1):
            for b in c.elements:
                for mu in level_zero_weights(c, j):
                    assert g_enumerate(c, b, mu, j) == g_recursive(c, b, mu, j), (
                        family,
                        n,
                        b,
                        mu.lambda_coords,
                        j,
                    )

    @pytest.mark.parametrize("family,n", MINIMAL_RANKS)
    def test_window_weights_partition_all_paths(self, family, n):
        """Summed over all window weights, the sums count every path."""
        c = perfect_crystal(family, n)
        for j in (1, 2, 3):
            for b in list(c.elements)[:2]:
                total = sum(
                    coeff
                    for mu in level_zero_weights(c, j)
                    for _, coeff in g_recursive(c, b, mu, j).terms()
                )
                assert total == len(c.elements) ** j

    def test_tail_weight_support_is_cached(self):
        c = perfect_crystal("B1", 3)
        tail_weight_support.cache_clear()
        first = tail_weight_support(c, 3)
        assert tail_weight_support(c, 3) is first
        # Length 3 is listed with no shorter length built, so only it is kept.
        assert tail_weight_support.cache_info().currsize == 1
        tail_weight_support.cache_clear()
        assert tail_weight_support.cache_info().currsize == 0
        assert tail_weight_support(c, 3) == first

    @pytest.mark.parametrize("family,n", FAMILY_MINIMA)
    def test_tail_weight_support_grows_by_one_letter(self, family, n):
        """Every length equals the plain j-fold sumset of the letter
        weights, whichever length is asked for first."""
        c = perfect_crystal(family, n)
        for order in (range(6), range(5, -1, -1), (3, 5, 0, 4, 1, 2)):
            tail_weight_support.cache_clear()
            for j in order:
                assert tail_weight_support(c, j) == support_sumset(c, j), (order, j)
        tail_weight_support.cache_clear()

    def test_long_tail_weight_support_recurses_no_deeper(self):
        # Length 3000, three times the default recursion limit, is listed
        # from the letter coordinates with no call per length.
        c = perfect_crystal("A1", 1)
        tail_weight_support.cache_clear()
        try:
            assert len(tail_weight_support(c, 3000)) == 3001
        finally:
            tail_weight_support.cache_clear()

    @pytest.mark.parametrize("family,n", MINIMAL_RANKS)
    def test_string_reflection_relation(self, family, n):
        """The 2m-term reflection relation, on random level-zero weights."""
        c = perfect_crystal(family, n)
        rng = random.Random(f"{family}:{n}")
        pool = level_zero_weights(c, 3)
        for _ in range(20):
            mu = rng.choice(pool)
            j = rng.randint(0, 3)
            b = rng.choice(c.elements)
            for i in c.cartan.index_set:
                assert check_2m_relation(c, b, i, mu, j), (family, n, b, i, mu, j)


# ---------------------------------------------------------------------------
# Restricted and classically restricted sums


class TestRestricted:
    def test_admissibility_at_level_one(self):
        c = perfect_crystal("A1", 1)
        lam = c.cartan.fundamental_weight(0)
        assert is_admissible(c, lam, "0")
        assert not is_admissible(c, lam, "1")

    def test_zero_window_is_delta(self):
        c = perfect_crystal("A1", 1)
        lam = c.cartan.fundamental_weight(0)
        other = c.cartan.fundamental_weight(1)
        for b in c.elements:
            assert x_enumerate(c, b, lam, lam, 0) == ONE
            assert x_enumerate(c, b, lam, other, 0) == ZERO
            assert x_recursive(c, b, lam, lam, 0) == ONE

    def test_out_of_range_indices_rejected(self):
        c = perfect_crystal("A1", 1)
        lam = c.cartan.fundamental_weight(0)
        for x in (x_enumerate, x_recursive):
            for bad in (5, -1):
                with pytest.raises(ValueError, match=rf"^node {bad} is outside 0\.\.1 of "):
                    x(c, "0", lam, lam, 1, indices=(bad,))

    @pytest.mark.parametrize("j", [0, 1])
    def test_unknown_head_letter_rejected_on_all_routes(self, j):
        c = perfect_crystal("A1", 2)
        lam = c.cartan.fundamental_weight(0)
        zero = Weight.zero(c.cartan.size)
        calls = [
            lambda: x_enumerate(c, "z", lam, lam, j),
            lambda: x_recursive(c, "z", lam, lam, j),
            lambda: x_by_weyl_sum(c, "z", lam, lam, j),
            lambda: g_enumerate(c, "z", zero, j),
            lambda: g_recursive(c, "z", zero, j),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=r"^'z' is not a letter of A1 n=2$"):
                call()

    def test_classical_indices_naming_node_0_rejected(self):
        c = perfect_crystal("A1", 1)
        lam = c.cartan.fundamental_weight(1)
        for x in (x_enumerate, x_recursive):
            with pytest.raises(ValueError, match="name node 0"):
                x(c, "0", lam, lam, 2, classical=True, indices=(0, 1))
            assert x(c, "0", lam, lam, 2, classical=True, indices=(1,)) == x(
                c, "0", lam, lam, 2, classical=True
            )

    def test_blocked_boundary_letter_gives_zero_on_all_routes(self):
        """A boundary letter that cannot sit under the top weight kills
        the sum identically, whichever evaluation route is used."""
        c = perfect_crystal("A1", 1)
        lam = c.cartan.fundamental_weight(0)
        for j in (1, 2, 3):
            assert x_enumerate(c, "1", 2 * lam, lam, j) == ZERO
            assert x_recursive(c, "1", 2 * lam, lam, j) == ZERO
            assert x_by_weyl_sum(c, "1", 2 * lam, lam, j) == ZERO

    @pytest.mark.parametrize(
        "family,n", [("A1", 1), ("A1", 2), ("A2even", 1), ("D2", 2)]
    )
    def test_enumerate_equals_recursive_level_one(self, family, n):
        c = perfect_crystal(family, n)
        doms = list(dominant_classical_weights(c.cartan, 1))
        for b in c.elements:
            for xi in doms:
                for eta in doms:
                    for j in range(4):
                        assert x_enumerate(c, b, xi, eta, j) == x_recursive(
                            c, b, xi, eta, j
                        ), (family, n, b, xi, eta, j)

    @pytest.mark.parametrize("family,n", [("A1", 1), ("A1", 2), ("A2even", 1)])
    def test_enumerate_equals_recursive_classical(self, family, n):
        c = perfect_crystal(family, n)
        doms = classical_dominants(c, 3)
        for b in c.elements:
            for xi in doms[:5]:
                for eta in doms[:5]:
                    for j in range(4):
                        lhs = x_enumerate(c, b, xi, eta, j, classical=True)
                        rhs = x_recursive(c, b, xi, eta, j, classical=True)
                        assert lhs == rhs, (family, n, b, xi, eta, j)

    def test_unfiltered_indices_reproduce_unrestricted(self):
        """Disabling every admissibility index turns the restricted sum
        into the unrestricted one for the matching window weight."""
        for family, n in MINIMAL_RANKS:
            c = perfect_crystal(family, n)
            zero = Weight.zero(c.cartan.size)
            for b in c.elements:
                for j in (1, 2, 3):
                    for mu in level_zero_weights(c, j):
                        want = g_recursive(c, b, mu, j)
                        xi = Weight((0,) + tuple(-x for x in mu.lambda_coords[1:]))
                        for x in (x_enumerate, x_recursive):
                            lhs = x(c, b, xi, zero, j, classical=True, indices=())
                            assert lhs == want, (family, n, x.__name__, b, j, mu)

    @pytest.mark.parametrize(
        "family,n", [("A1", 1), ("A1", 2), ("A2even", 1), ("D2", 2)]
    )
    def test_classical_equals_high_level_restriction(self, family, n):
        """Lifting both weights to a large common level makes the affine
        restriction agree with the classical one; when no common-level
        lift exists the classical sum vanishes for parity reasons."""
        c = perfect_crystal(family, n)
        ct = c.cartan
        comark0 = ct.level(ct.fundamental_weight(0))
        reach = max(c.epsilon(0, b) for b in c.elements) + max(
            c.phi(0, b) for b in c.elements
        )

        def lifted(bar_weight, level):
            x, rem = divmod(level - ct.level(bar_weight), comark0)
            if rem or x < 0:
                return None
            return Weight((x,) + bar_weight.lambda_coords[1:])

        for j in (1, 2, 3):
            etas = classical_dominants(c, j)[:4]
            xis = classical_dominants(c, j)[:3]
            for b in c.elements:
                for eta_bar in etas:
                    for xi_bar in xis:
                        lhs = x_recursive(c, b, xi_bar, eta_bar, j, classical=True)
                        level = ct.level(xi_bar) + comark0 * (1 + j * (reach + 1))
                        xi = lifted(xi_bar, level)
                        eta = lifted(eta_bar, level)
                        assert xi is not None
                        if eta is None:
                            assert lhs == ZERO, (family, n, b, j)
                            continue
                        assert lhs == x_recursive(c, b, xi, eta, j), (
                            family,
                            n,
                            b,
                            j,
                            xi_bar,
                            eta_bar,
                        )


class TestNodeZero:
    """The classical sum checks nodes 1..n only, and a tail keeps the
    level of xi, so node 0 of xi and eta is fixed by the level."""

    ROUTES = (x_enumerate, x_recursive, x_by_weyl_sum)

    @staticmethod
    def weights(c):
        ct = c.cartan
        return dominant_classical_weights(ct, 1) + dominant_classical_weights(ct, 2)[:2]

    @pytest.mark.parametrize("family,n", FAMILY_MINIMA)
    def test_xbar_ignores_node_0_of_xi_and_eta(self, family, n):
        c = perfect_crystal(family, n)
        ws = self.weights(c)

        def moved(w, s):
            return Weight((w.lambda_coords[0] + s,) + w.lambda_coords[1:])

        nonzero = 0
        for b in c.elements:
            for xi in ws:
                for eta in ws:
                    for j in range(4):
                        for x in self.ROUTES:
                            want = x(c, b, xi, eta, j, classical=True)
                            nonzero += want != ZERO
                            for s in (-1, 2):
                                for a, e in ((moved(xi, s), eta), (xi, moved(eta, s))):
                                    got = x(c, b, a, e, j, classical=True)
                                    assert got == want, (x.__name__, b, xi, eta, j, s)
        assert nonzero

    @pytest.mark.parametrize("n", [1, 2])
    def test_xbar_is_zero_across_an_odd_level_gap_on_a2even(self, n):
        c = perfect_crystal("A2even", n)
        assert c.cartan.comarks[0] == 2
        ws = self.weights(c)
        odd = [
            (xi, eta)
            for xi in ws
            for eta in ws
            if (c.cartan.level(xi) - c.cartan.level(eta)) % 2
        ]
        assert odd
        for b in c.elements:
            for xi, eta in odd:
                for j in range(4):
                    for x in self.ROUTES:
                        assert x(c, b, xi, eta, j, classical=True) == ZERO

    @pytest.mark.parametrize("family,n", FAMILY_MINIMA)
    def test_affine_x_is_zero_between_levels(self, family, n):
        c = perfect_crystal(family, n)
        ws = self.weights(c)
        for b in c.elements:
            for xi in ws:
                for eta in ws:
                    if c.cartan.level(xi) == c.cartan.level(eta):
                        continue
                    for j in range(4):
                        for x in self.ROUTES:
                            assert x(c, b, xi, eta, j) == ZERO, (x.__name__, b, xi, eta, j)


class TestSignedReflectionSums:
    @pytest.mark.parametrize("family,n", [("A1", 1), ("A1", 2)])
    def test_classical_superposition(self, family, n):
        c = perfect_crystal(family, n)
        doms = classical_dominants(c, 3)
        for b in c.elements:
            for xi in doms[:4]:
                for eta in doms[:4]:
                    for j in range(4):
                        lhs = x_by_weyl_sum(c, b, xi, eta, j, classical=True)
                        rhs = x_enumerate(c, b, xi, eta, j, classical=True)
                        assert lhs == rhs, (family, n, b, xi, eta, j)

    @pytest.mark.parametrize("family,n", MINIMAL_RANKS)
    @pytest.mark.parametrize("level", [1, 2])
    def test_affine_superposition_terminates_and_matches(self, family, n, level):
        c = perfect_crystal(family, n)
        doms = list(dominant_classical_weights(c.cartan, level))
        for b in c.elements:
            for xi in doms:
                for eta in doms:
                    for j in range(4):
                        lhs = x_by_weyl_sum(c, b, xi, eta, j)
                        rhs = x_enumerate(c, b, xi, eta, j)
                        assert lhs == rhs, (family, n, level, b, xi, eta, j)

    def test_zero_window_superposition_is_delta(self):
        c = perfect_crystal("A1", 1)
        lam = c.cartan.fundamental_weight(0)
        other = c.cartan.fundamental_weight(1)
        assert x_by_weyl_sum(c, "0", lam, lam, 0) == ONE
        assert x_by_weyl_sum(c, "0", lam, other, 0) == ZERO

    def test_matches_enumeration_and_rejects_non_dominant_weights(self):
        c = perfect_crystal("A1", 1)
        lam = c.cartan.fundamental_weight(0)
        assert x_by_weyl_sum(c, "1", lam, lam, 2) == x_enumerate(c, "1", lam, lam, 2)
        xi = Weight((0, 1))
        with pytest.raises(ValueError, match="eta .* not dominant"):
            x_by_weyl_sum(c, "0", xi, Weight((-2, 3)), 2)
        with pytest.raises(ValueError, match="xi .* not dominant"):
            x_by_weyl_sum(c, "0", Weight((3, -1)), lam, 0)
        with pytest.raises(ValueError, match="eta .* not dominant"):
            x_by_weyl_sum(c, "0", xi, Weight((3, -1)), 1, classical=True)
        # Node 0 is not checked in the classical sum.
        assert x_by_weyl_sum(c, "0", xi, Weight((-1, 1)), 0, classical=True) == ONE

    @pytest.mark.parametrize(
        "family,n", [(f, n + k) for f, n in FAMILY_MINIMA for k in (0, 1)]
    )
    def test_fold_undoes_every_weyl_element(self, family, n):
        """Folding w(rho + Lambda_0) returns rho + Lambda_0 at the checked
        nodes in length(w) steps, with the null-root offset w put on."""
        ct = cartan_type(family, n)
        lam = Weight((1,) * ct.size) + ct.fundamental_weight(0)
        affine, classical = tuple(ct.index_set), tuple(ct.classical_index_set)
        cases = [(w, affine) for shell in weyl_by_length(ct, None, 5) for w in shell]
        cases += [(w, classical) for w in finite_weyl_group(ct, classical)]
        for w, idx in cases:
            moved = w.apply(lam)
            folded, steps, offset = fold(ct, moved.lambda_coords, idx)
            assert [folded[i] for i in idx] == [lam.pairing(i) for i in idx], w
            assert steps == w.length, w
            assert offset == -moved.delta_coord, w


# ---------------------------------------------------------------------------
# Disjoint-string decomposition of the non-admissible letters


class TestDecomposition:
    @pytest.mark.parametrize("family,n", MINIMAL_RANKS)
    def test_found_for_every_level_one_weight(self, family, n):
        c = perfect_crystal(family, n)
        for xi in dominant_classical_weights(c.cartan, 1):
            report = check_disjoint_decomposition(c, xi)
            assert report.found, (family, n, xi)
            covered = [b for _, _, string in report.witness for b in string]
            assert sorted(covered, key=c.index) == sorted(
                report.non_admissible, key=c.index
            )
            assert len(set(covered)) == len(covered)

    def test_witness_is_a_lowering_string(self):
        c = perfect_crystal("A1", 1)
        lam = c.cartan.fundamental_weight(0)
        report = check_disjoint_decomposition(c, lam)
        assert report.non_admissible == ("1",)
        assert report.witness == (("1", 1, ("1",)),)

    def test_trivial_when_everything_is_admissible(self):
        c = perfect_crystal("A1", 1)
        xi = Weight((1, 1))
        report = check_disjoint_decomposition(c, xi)
        assert report.non_admissible == ()
        assert report.found
        assert report.witness == ()


# ---------------------------------------------------------------------------
# Tableau polynomials


class TestTableauPolynomials:
    def test_weyl_sum_equals_the_kernel_on_symmetric_powers(self):
        """The 375 Kostka cells with n, l <= 3 and j <= 5: ``x_by_weyl_sum``
        reads the tail-weight support of the symmetric powers, and must
        equal the kernel's classically restricted sum."""
        cells = 0
        for n in (1, 2, 3):
            for l in (1, 2, 3):
                c = symmetric_crystal(n, l)
                zero = Weight.zero(n + 1)
                for j in range(6):
                    for xi in partitions_of(l * j):
                        if len(xi) > n + 1:
                            continue
                        parts = xi + (0,) * (n + 1 - len(xi))
                        eta = Weight((0, *(parts[i] - parts[i + 1] for i in range(n))))
                        args = (c, (n,) * l, zero, eta, j)
                        want = x_recursive(*args, classical=True)
                        assert x_by_weyl_sum(*args, classical=True) == want, (n, l, j, xi)
                        cells += 1
        assert cells == 375

    def test_frozen_values(self):
        assert kostka((2, 1), 1, 3, 2) == poly([(1, 1), (2, 1)])
        assert kostka((3,), 1, 3, 2) == poly([(3, 1)])
        assert kostka((1, 1, 1), 1, 3, 2) == ONE

    def test_matches_charge_statistic(self):
        for j in range(1, 7):
            for xi in partitions_of(j):
                for n in (1, 2, 3):
                    if len(xi) > n + 1:
                        continue
                    lib = {int(e): c for e, c in kostka(xi, 1, j, n).terms()}
                    assert lib == kostka_foulkes_by_charge(tuple(xi), (1,) * j), (
                        xi,
                        j,
                        n,
                    )

    def test_rectangular_content_matches_charge_statistic(self):
        for l in (2, 3, 4):
            for j in (1, 2, 3):
                for xi in partitions_of(l * j):
                    for n in (1, 2, 3):
                        if len(xi) > n + 1:
                            continue
                        lib = {int(e): c for e, c in kostka(xi, l, j, n).terms()}
                        assert lib == kostka_foulkes_by_charge(tuple(xi), (l,) * j), (xi, l, j, n)

    def test_counts_tableaux_at_one(self):
        for j in range(1, 7):
            for xi in partitions_of(j):
                if len(xi) > 4:
                    continue
                value = sum(coeff for _, coeff in kostka(xi, 1, j, 3).terms())
                assert value == kostka_number(tuple(xi), (1,) * j), (xi, j)

    def test_rejects_malformed_shapes(self):
        with pytest.raises(ValueError):
            kostka((1, 2), 1, 3, 2)
        with pytest.raises(ValueError):
            kostka((1, 1, 1, 1), 1, 4, 2)
        with pytest.raises(ValueError):
            kostka((2, 1), 1, 4, 2)
        # a part that is not an int is named, never truncated to one
        for shape, l, j, n, bad in (
            ((2.7, 1.2), 1, 3, 1, "2.7"),
            ((True, True, True), 1, 3, 2, "True"),
            ((2.0, 1), 1, 3, 1, "2.0"),
            (("2", 1), 1, 3, 1, "'2'"),
        ):
            with pytest.raises(ValueError, match=f"parts must be ints, got {re.escape(bad)}"):
                kostka(shape, l, j, n)
        # l * j still matches the partition, so only a sign check stops these
        for l, j in ((-1, -3), (-3, -1)):
            with pytest.raises(ValueError, match="l and j must be nonnegative"):
                kostka((3,), l, j, 1)


# ---------------------------------------------------------------------------
# Stabilized window limits


class TestStabilizedLimits:
    def test_weight_multiplicity_series(self):
        c = perfect_crystal("A1", 1)
        lam = c.cartan.fundamental_weight(0)
        expected = poly([(k, partition_count(k)) for k in range(6)])
        assert stabilized_limit("g", c, lam, 5) == expected

    def test_rank_two_series(self):
        c = perfect_crystal("A1", 2)
        lam = c.cartan.fundamental_weight(0)
        counts = colored_partition_counts(2, 5)
        assert stabilized_limit("g", c, lam, 5) == poly(list(enumerate(counts)))

    def test_twisted_series(self):
        c = perfect_crystal("A2even", 1)
        lam = c.cartan.fundamental_weight(1)
        expected = poly([(k, partition_count(k)) for k in range(6)])
        assert stabilized_limit("g", c, lam, 5) == expected

    def test_truncations_are_consistent_across_degrees(self):
        c = perfect_crystal("A1", 1)
        lam = c.cartan.fundamental_weight(0)
        full = stabilized_limit("g", c, lam, 5)
        for m in range(5):
            assert stabilized_limit("g", c, lam, m) == full.truncate(m)

    def test_stability_survives_larger_windows(self):
        """Once the truncation is stable it stays stable as the window
        keeps growing."""
        c = perfect_crystal("A1", 1)
        lam = c.cartan.fundamental_weight(0)
        gs = GroundState(c, lam)
        stable = stabilized_limit("g", c, lam, 5)
        zero = Weight.zero(2)
        for j in (10, 12, 14):
            direct = g_recursive(c, gs.bar(j + 1), zero, j).shift(-gs.c(j))
            assert direct.truncate(5) == stable

    @pytest.mark.parametrize(
        "family,n,node", [("A1", 1, 0), ("A2even", 1, 1), ("D2", 2, 0)]
    )
    def test_classical_branch_of_top_weight_is_one(self, family, n, node):
        c = perfect_crystal(family, n)
        lam = c.cartan.fundamental_weight(node)
        eta = Weight((0,) + lam.classical().lambda_coords[1:])
        assert stabilized_limit("xbar", c, lam, 0, eta=eta) == ONE

    def test_classical_branch_series(self):
        c = perfect_crystal("A1", 1)
        lam = c.cartan.fundamental_weight(0)
        eta = Weight((0,) + lam.classical().lambda_coords[1:])
        expected = poly(
            [
                (k, partition_count(k) - partition_count(k - 1))
                for k in range(6)
            ]
        )
        assert stabilized_limit("xbar", c, lam, 5, eta=eta) == expected

    def test_level_two_branch_series(self):
        c = perfect_crystal("A1", 1)
        lam = c.cartan.fundamental_weight(0)
        cases = {
            (2, 0): poly([(0, 1), (2, 1), (3, 1), (4, 2)]),
            (0, 2): poly([(1, 1), (2, 1), (3, 1), (4, 1)]),
            (1, 1): ZERO,
        }
        for coords, expected in cases.items():
            got = stabilized_limit(
                "x", c, lam, 4, xi=lam, eta=Weight(coords), max_j=40
            )
            assert got == expected, coords

    def test_guard_raises_when_window_capped(self):
        c = perfect_crystal("A1", 1)
        lam = c.cartan.fundamental_weight(0)
        with pytest.raises(StabilizationGuardError):
            stabilized_limit("g", c, lam, 40, max_j=4)

    def test_values_survive_a_cache_clear(self):
        c = perfect_crystal("A1", 1)
        lam = c.cartan.fundamental_weight(0)
        zero = Weight.zero(2)
        bar = Weight((0, 1))

        def values():
            return (
                g_recursive(c, "0", zero, 4),
                x_recursive(c, "1", lam, lam, 4),
                x_recursive(c, "0", bar, zero, 3, classical=True),
                stabilized_limit("g", c, lam, 5),
                stabilized_limit("xbar", c, lam, 4, eta=zero),
            )

        before = values()
        assert all(before)
        onedsums._recursion.cache_clear()
        assert onedsums._recursion.cache_info().currsize == 0
        assert values() == before

    def test_argument_validation(self):
        c = perfect_crystal("A1", 1)
        lam = c.cartan.fundamental_weight(0)
        with pytest.raises(ValueError):
            stabilized_limit("g", c, lam, -1)
        with pytest.raises(ValueError):
            stabilized_limit("nope", c, lam, 2)
        with pytest.raises(ValueError):
            stabilized_limit("x", c, lam, 2)
        with pytest.raises(ValueError):
            stabilized_limit("xbar", c, lam, 2)
        # at degree 100 the window guard would trip; the arguments are
        # checked before it
        for kind in ("nope", "x", "xbar"):
            with pytest.raises(ValueError):
                stabilized_limit(kind, c, lam, 100)
        with pytest.raises(ValueError, match="needs xi"):
            stabilized_limit("x", c, lam, 100, eta=lam)
        for bad in (2.0, True):
            with pytest.raises(ValueError, match="degree must be an int"):
                stabilized_limit("g", c, lam, bad)
        for bad in (64.0, True):
            with pytest.raises(ValueError, match="max_j must be an int"):
                stabilized_limit("g", c, lam, 2, max_j=bad)
        # a string function runs along a level-zero direction only
        with pytest.raises(ValueError, match="^kind 'g' needs mu of level 0, got level 1$"):
            stabilized_limit("g", c, lam, 2, mu=Weight((1, 0)))


# ---------------------------------------------------------------------------
# The capped recursion kernel, against whole polynomials


def cut(p, cap):
    """The kernel form of p's terms at exponents up to cap (all with None):
    None for none, else (lowest exponent, dense coefficients up to the
    highest nonzero one kept)."""
    if cap is not None:
        p = p.truncate(cap)
    if not p:
        return None
    exps = [e for e, _ in p.terms()]
    return exps[0], tuple(p.coeff(e) for e in range(exps[0], exps[-1] + 1))


def caps_around(p):
    """Every cap from below p's lowest exponent to above its highest; a
    zero p has the caps around 0."""
    exps = [e for e, _ in p.terms()] or [0]
    return range(exps[0] - 1, exps[-1] + 2)


def whole_polynomial_limit(kind, c, lam, degree, mu=None, xi=None, eta=None, max_j=64):
    """stabilized_limit from whole polynomials: g_recursive or x_recursive
    at each aligned window, normalized by c(j) and truncated, returned
    once three consecutive windows agree."""
    gs = GroundState(c, lam)
    period = gs.period()

    def value(j):
        head = gs.bar(j + 1)
        if kind == "g":
            direction = mu if mu is not None else Weight.zero(c.cartan.size)
            p = g_recursive(c, head, direction, j)
        elif kind == "x":
            p = x_recursive(c, head, xi.classical() + gs.window_weight(j), eta, j)
        else:
            p = x_recursive(c, head, gs.window_weight(j), eta, j, classical=True)
        return p.shift(-gs.c(j)).truncate(degree)

    j = period * -(-degree // period)
    seen = [value(j)]
    while len(seen) < 3 or not seen[-1] == seen[-2] == seen[-3]:
        j += period
        if j > max_j:
            raise StabilizationGuardError(max_j, degree)
        seen.append(value(j))
    return seen[-1]


class TestWindowedKernel:
    @pytest.mark.parametrize("family,n", FAMILY_MINIMA)
    def test_g_keeps_the_lowest_coefficients(self, family, n):
        """A capped g value is the whole value cut at the cap, for every
        cap from below its lowest exponent to above its highest, each cap
        read on a memo cleared before it."""
        c = perfect_crystal(family, n)
        for j in range(6):
            cases = []
            for coords in sorted(tail_weight_support(c, j)):
                for b in c.elements:
                    whole = g_recursive(c, b, Weight(coords), j)
                    cases.append((c.index(b), coords, whole, caps_around(whole)))
            for cap in sorted({cap for *_, caps in cases for cap in caps}):
                onedsums._recursion.cache_clear()
                rec = onedsums._recursion(c, ())
                for t, coords, whole, caps in cases:
                    if cap in caps:
                        assert rec(t, (), coords, j, cap) == cut(whole, cap), (family, cap, j, coords, t)

    @pytest.mark.parametrize("family,n", FAMILY_MINIMA)
    @pytest.mark.parametrize("classical", [False, True], ids=["affine", "classical"])
    def test_x_keeps_the_lowest_coefficients(self, family, n, classical):
        c = perfect_crystal(family, n)
        doms = list(dominant_classical_weights(c.cartan, 1))
        for j in range(6):
            cases = [
                (b, xi, eta, x_recursive(c, b, xi, eta, j, classical=classical))
                for b, xi, eta in itertools.product(c.elements, doms, doms)
            ]
            onedsums._recursion.cache_clear()
            for b, xi, eta, whole in cases:
                for cap in [*caps_around(whole), None]:
                    got = onedsums._x_value(c, b, xi, eta, j, classical, None, cap)
                    assert got == cut(whole, cap), (family, cap, j, b, xi, eta)

    @pytest.mark.parametrize("family,n,j", [("A1", 2, 6), ("B1", 3, 5), ("D2", 2, 6), ("A2odd", 3, 4)])
    def test_a_larger_cap_recomputes_what_a_smaller_one_stored(self, family, n, j):
        """States filled under a small cap, then read under a larger cap
        and uncapped, in either order, answer as a cold read does."""
        c = perfect_crystal(family, n)
        points = [(t, coords) for coords in sorted(tail_weight_support(c, j)) for t in range(len(c))]
        low = min(
            value[0]
            for t, coords in points
            if (value := onedsums._recursion(c, ())(t, (), coords, j)) is not None
        )
        small, large = low + 1, low + 2 * j

        def read(cap):
            rec = onedsums._recursion(c, ())
            return [rec(t, (), coords, j, cap) for t, coords in points]

        cold = {}
        for cap in (small, large, None):
            onedsums._recursion.cache_clear()
            cold[cap] = read(cap)
        assert cold[small] != cold[large] != cold[None]
        for later in ([large, None], [None, large]):
            onedsums._recursion.cache_clear()
            assert read(small) == cold[small]
            for cap in later:
                assert read(cap) == cold[cap], (later, cap)
                assert read(small) == cold[small], (later, cap)
        onedsums._recursion.cache_clear()
        read(small)
        read(large)
        assert onedsums._recursion(c, ()).cache_info().recomputed > 0

    def test_stabilized_limits_along_every_delta_direction(self):
        """A delta-coordinate d of mu multiplies the string function by
        q^d, so the cap c(j) + degree - d reads d fewer or more
        coefficients; every d from -2 to 3 gives the shifted partition
        counts, and the whole-polynomial limit on every family."""
        c = perfect_crystal("A1", 1)
        lam = c.cartan.fundamental_weight(0)
        for d in range(-2, 4):
            for degree in range(5):
                got = stabilized_limit("g", c, lam, degree, mu=Weight((0, 0), d))
                want = poly([(k + d, partition_count(k)) for k in range(degree - d + 1)])
                assert got == want, (d, degree)
        for family, n in MINIMAL_RANKS:
            c = perfect_crystal(family, n)
            ct = c.cartan
            lam = dominant_classical_weights(ct, 1)[0]
            zero = Weight.zero(ct.size)
            for d in range(-2, 4):
                for mu in (Weight(zero.lambda_coords, d), Weight(simple_root(ct, ct.size - 1).lambda_coords, d)):
                    for degree in (0, 2):
                        want = whole_polynomial_limit("g", c, lam, degree, mu=mu)
                        assert stabilized_limit("g", c, lam, degree, mu=mu) == want, (family, mu, degree)

    @pytest.mark.parametrize("family,n", MINIMAL_RANKS)
    def test_limits_equal_whole_polynomial_truncations(self, family, n):
        c = perfect_crystal(family, n)
        ct = c.cartan
        zero = Weight.zero(ct.size)
        doms = list(dominant_classical_weights(ct, 1))
        for lam in doms:
            bar = Weight((0,) + lam.lambda_coords[1:])
            for degree in range(4):
                cases = [
                    ("g", {}),
                    ("g", {"mu": simple_root(ct, ct.size - 1)}),
                    ("g", {"mu": Weight(zero.lambda_coords, -2)}),
                    ("xbar", {"eta": bar}),
                    ("xbar", {"eta": zero}),
                ] + [("x", {"xi": lam, "eta": eta, "max_j": 40}) for eta in doms]
                for kind, kw in cases:
                    want = whole_polynomial_limit(kind, c, lam, degree, **kw)
                    got = stabilized_limit(kind, c, lam, degree, **kw)
                    assert got == want, (family, n, lam, degree, kind, kw)

    def test_negative_delta_direction_reaches_below_zero(self):
        c = perfect_crystal("A1", 1)
        lam = c.cartan.fundamental_weight(0)
        mu = Weight((0, 0), -2)
        got = stabilized_limit("g", c, lam, 3, mu=mu)
        assert got == poly([(k - 2, partition_count(k)) for k in range(6)])

    @pytest.mark.parametrize("kind", ["g", "x", "xbar"])
    def test_root_below_ground_energy_raises(self, monkeypatch, kind):
        c = perfect_crystal("A1", 1)
        lam = c.cartan.fundamental_weight(0)
        kw = {
            "g": {},
            "x": {"xi": lam, "eta": Weight((2, 0)), "max_j": 40},
            "xbar": {"eta": Weight((0, 0))},
        }[kind]
        assert stabilized_limit(kind, c, lam, 3, **kw)
        ground = GroundState.c
        monkeypatch.setattr(GroundState, "c", lambda self, j: ground(self, j) + 1)
        with pytest.raises(ArithmeticError, match="below c"):
            stabilized_limit(kind, c, lam, 3, **kw)

    @pytest.mark.parametrize(
        "family,n,degree,states",
        [("A1", 2, 12, 364), ("A1", 1, 30, 297), ("A1", 3, 4, 159), ("D1", 4, 3, 125), ("D2", 2, 6, 62)],
    )
    def test_string_function_memo_size_is_pinned(self, family, n, degree, states):
        # The kernel sorts its letters only under a cap, and tests
        # epsilons only with checked nodes; either shortcut must leave
        # the state set as it is.  Under the sorted order no window asks
        # a state for more than an earlier one stored.
        c = perfect_crystal(family, n)
        onedsums._recursion.cache_clear()
        stabilized_limit("g", c, c.cartan.fundamental_weight(0), degree)
        info = onedsums._recursion(c, ()).cache_info()
        assert (info.currsize, info.recomputed) == (states, 0)

    def test_window_prunes_the_memo(self):
        """A read capped at the lowest exponent leaves fewer states than
        an uncapped one, and answers that lowest coefficient alone."""
        c = perfect_crystal("B1", 3)
        zero = Weight.zero(4)
        onedsums._recursion.cache_clear()
        whole = g_recursive(c, "0", zero, 6)
        states = onedsums._recursion(c, ()).cache_info().currsize
        onedsums._recursion.cache_clear()
        low = next(whole.terms())[0]
        got = onedsums._recursion(c, ())(c.index("0"), (), zero.lambda_coords, 6, low)
        assert got == cut(whole, low)
        assert onedsums._recursion(c, ()).cache_info().currsize < states


def packed(coeffs, width):
    """The kernel's packed form of a coefficient list: coefficient k in
    bits [k * width, (k + 1) * width) of one int."""
    return sum(c << width * k for k, c in enumerate(coeffs))


UNPACK_PATHS = [False, True] if sys.byteorder == "little" else [False]


class TestPackedValues:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_pack_respace_unpack_round_trip(self, data):
        narrow = data.draw(st.sampled_from([64, 128, 192, 320]), "narrow")
        wide = narrow + 64 * data.draw(st.integers(1, 3), "extra")
        slot = st.integers(0, (1 << narrow) - 1)
        coeffs = data.draw(st.lists(slot, max_size=12), "coeffs")
        coeffs.append(data.draw(st.integers(1, (1 << narrow) - 1), "top"))
        coeffs = tuple(coeffs)
        spread = onedsums._respace(packed(coeffs, narrow), narrow, wide)
        assert spread == packed(coeffs, wide)
        for native in UNPACK_PATHS:
            assert onedsums._unpack(packed(coeffs, narrow), narrow, native) == coeffs
            assert onedsums._unpack(spread, wide, native) == coeffs

    @pytest.mark.parametrize("native", UNPACK_PATHS)
    @pytest.mark.parametrize("width", [64, 128, 192, 320])
    def test_full_slots_round_trip(self, width, native):
        coeffs = ((1 << width) - 1, 0, 1, (1 << width) - 1)
        assert onedsums._unpack(packed(coeffs, width), width, native) == coeffs
        spread = onedsums._respace(packed(coeffs, width), width, width + 64)
        assert onedsums._unpack(spread, width + 64, native) == coeffs

    def test_slot_width_is_the_least_multiple_of_64_above_the_count_bound(self):
        # A coefficient counts length-j tails, at most |B|^j <= 2^(j * bits),
        # so a slot of more than j * bits bits never carries.
        for bits in range(1, 9):
            for j in range(300):
                width = onedsums._slot_width(j, bits)
                assert width % 64 == 0 and width - 64 <= j * bits < width, (bits, j)

    @pytest.mark.parametrize("family,n,lengths", [("A1", 1, (63, 64, 65)), ("A1", 2, (31, 32, 33))])
    def test_values_across_a_slot_widening(self, family, n, lengths):
        # W(j) grows from 64 to 128 bits where j * bits reaches 64, so
        # the middle length re-spaces its children.
        c = perfect_crystal(family, n)
        bits = (len(c) - 1).bit_length()
        assert [onedsums._slot_width(j, bits) for j in lengths] == [64, 128, 128]
        for j in lengths:
            coords = min(tail_weight_support(c, j), key=lambda w: (sum(map(abs, w)), w))
            wholes = [g_recursive(c, b, Weight(coords), j) for b in c.elements]
            onedsums._recursion.cache_clear()
            rec = onedsums._recursion(c, ())
            for b, whole in zip(c.elements, wholes):
                assert whole == g_closed_form(c, b, Weight(coords), j), (j, b)
                cap = next(whole.terms())[0] + 3
                assert rec(c.index(b), (), coords, j, cap) == cut(whole, cap), (j, b)


# The stringfn commands of the benchmark (type, rank, M), plus two
# directions given as coordinate vectors with a leading minus sign.
STRINGFN_COMMANDS = [
    ("A1", 2, 12, None),
    ("A1", 1, 30, None),
    ("A1", 3, 4, None),
    ("D1", 4, 3, None),
    ("D2", 2, 6, None),
    ("A1", 2, 6, "-1,2,-1"),
    ("B1", 3, 3, "-2,0,1,0"),
]


@pytest.mark.parametrize("family,n,m,mu", STRINGFN_COMMANDS)
def test_stringfn_stdout_matches_whole_polynomial_reference(capsys, family, n, m, mu):
    argv = ["stringfn", "--type", family, "--rank", str(n), "--lambda", "L0", "--M", str(m)]
    if mu is not None:
        argv += ["--mu", mu]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    c = perfect_crystal(family, n)
    direction = Weight(tuple(int(x) for x in mu.split(","))) if mu else None
    want = whole_polynomial_limit("g", c, c.cartan.fundamental_weight(0), m, mu=direction)
    obj = {
        "type": family,
        "rank": n,
        "lambda": "L0",
        "M": m,
        "coefficients": [want.coeff(k) for k in range(m + 1)],
        "polynomial": {
            "terms": [[str(e), k] for e, k in want.terms()],
            "display": str(want),
        },
    }
    if direction is not None:
        obj["mu"] = direction.to_json_obj()
    assert out == json.dumps(obj, indent=2) + "\n"


# Simply laced level-1 families at L0, where the string function is the
# Frenkel-Kac series 1/(q)_inf^n; the ranks reach past the minimal ones.
FRENKEL_KAC = [("A1", 3, 4), ("A1", 4, 4), ("A1", 5, 4), ("D1", 4, 3), ("D1", 5, 3), ("D1", 6, 3)]


@pytest.mark.parametrize("family,n,m", FRENKEL_KAC)
def test_stringfn_matches_the_colored_partition_oracle(capsys, family, n, m):
    argv = ["stringfn", "--type", family, "--rank", str(n), "--lambda", "L0", "--M", str(m)]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["coefficients"] == colored_partition_counts(n, m)


# ---------------------------------------------------------------------------
# Character bridge


def level_one_nodes(family, n):
    ct = perfect_crystal(family, n).cartan
    return [i for i in ct.index_set if ct.level(ct.fundamental_weight(i)) == 1]


LEVEL_ONE = [
    (family, n, node)
    for family, n in MINIMAL_RANKS
    for node in level_one_nodes(family, n)
]


def every_variant(family, n, node):
    """The schedules of a level-1 node, its own or a borrowed one, in
    each variant that exists."""
    c = perfect_crystal(family, n)
    lam = c.cartan.fundamental_weight(node)
    out = [demazure_schedule(c, lam)]
    try:
        out.append(demazure_schedule(c, lam, variant=2))
    except ValueError:
        pass
    return out


def full_segment_memo_size(family, n):
    """States in the g kernel's memo after the point reads that a cold
    ``character_at_full_segment(s, 4)`` stands for: head bbar(5) at every
    tail weight of length 4."""
    c = perfect_crystal(family, n)
    s = demazure_schedule(c, c.cartan.fundamental_weight(0))
    onedsums._recursion.cache_clear()
    rec = onedsums._recursion(c, ())
    t = c.index(s.ground.bar(5))
    for coords in tail_weight_support(c, 4):
        rec(t, (), coords, 4)
    return rec.cache_info().currsize


class TestCharacterBridge:
    @pytest.mark.parametrize("family,n,node", LEVEL_ONE)
    def test_matches_path_characters(self, family, n, node):
        for s in every_variant(family, n, node):
            for k in range(2 * s.d + 2):
                assert character_via_onedsums(s, k) == character_by_paths(s, k), (
                    s.variant,
                    k,
                )

    @pytest.mark.parametrize("family,n,node", LEVEL_ONE)
    def test_full_segments_match(self, family, n, node):
        for s in every_variant(family, n, node):
            for j in (0, 1, 2):
                assert character_at_full_segment(s, j) == character_by_paths(
                    s, j * s.d
                ), (s.variant, j)

    def test_norm_rule_keeps_dead_states_out_of_the_memo(self):
        # With no pruning the full-segment route leaves 23,601 states in
        # this memo, about 95% of them remaining weights that no tail of
        # the remaining length can carry; with the L1 rule it leaves 1,329.
        assert full_segment_memo_size("D1", 4) == 1329

    @pytest.mark.parametrize("family,n,states", [("B1", 3, 801), ("A2odd", 3, 505), ("D2", 2, 305)])
    def test_full_segment_memo_size_is_pinned(self, family, n, states):
        # Exact counts: the letter loop may change what a state costs,
        # not which states there are.
        assert full_segment_memo_size(family, n) == states

    @pytest.mark.parametrize("family,n", [("D1", 4), ("B1", 3), ("A2odd", 3), ("D2", 2)])
    def test_full_segment_reads_one_top_row(self, family, n):
        # The full segment reads the bulk table, not the memo: every node
        # of each length up to 4, every head row below the top length and
        # the one head row bbar(5) at it.
        c = perfect_crystal(family, n)
        s = demazure_schedule(c, c.cartan.fundamental_weight(0))
        onedsums._recursion.cache_clear()
        character_at_full_segment(s, 4)
        info = onedsums._recursion(c, ()).cache_info()
        assert info.currsize == info.nodes == 0
        assert info.table_nodes == tuple(len(tail_weight_support(c, m)) for m in range(5))
        assert info.table_rows == (len(c),) * 4 + (1,)
        if (family, n) == ("D1", 4):
            assert info.table_nodes == (1, 8, 33, 96, 225)

    @pytest.mark.parametrize("family,n", [(family, _MIN_N[family] + k) for family in FAMILIES for k in range(2)])
    def test_bulk_table_matches_the_point_reads(self, family, n):
        """Each head row of the bulk table holds the kernel's point value
        at exactly the tail-weight support (the L1 rule is exact, so no
        point is missing and none is dead), whichever order the heads
        are read in; ``_recursion.cache_clear()`` frees the table."""
        c = perfect_crystal(family, n)
        seen = []
        for order in (range(len(c)), range(len(c) - 1, -1, -1)):
            onedsums._recursion.cache_clear()
            rec = onedsums._recursion(c, ())
            rows = {(t, m): {w: (low, tuple(coeffs)) for w, low, coeffs in rec.row(t, m)}
                    for m in range(6) for t in order}
            info = rec.cache_info()
            assert info.table_nodes == tuple(len(tail_weight_support(c, m)) for m in range(6))
            assert info.table_rows == (len(c),) * 6
            for (t, m), row in rows.items():
                assert row.keys() == tail_weight_support(c, m), (t, m)
                for w, value in row.items():
                    assert value == rec(t, (), w, m), (t, m, w)
            seen.append(rows)
        assert seen[0] == seen[1]
        onedsums._recursion.cache_clear()
        info = onedsums._recursion(c, ()).cache_info()
        assert info.table_nodes == info.table_rows == ()

    @pytest.mark.parametrize("family", FAMILIES)
    def test_deep_segments_match_the_operators(self, family):
        # Table length 6; the tests above reach at most length 2.
        c = perfect_crystal(family, _MIN_N[family])
        s = demazure_schedule(c, c.cartan.fundamental_weight(min(schedule_words(c))))
        onedsums._recursion.cache_clear()
        k = 6 * s.d + s.d // 2
        assert character_via_onedsums(s, k) == character_by_operators(s, k)
        assert character_at_full_segment(s, 6) == character_by_operators(s, 6 * s.d)

    def test_segment_sum_bounds_its_fields_before_it_sums(self, monkeypatch):
        # At A1 rank 1 the delta bound |c(j)| + j (j + 1) / 2 max |H|
        # reaches 2**31 at j = 53,510.  The routes raise before they read
        # a g source: with the kernel and the walker refusing, the bound
        # is still what they raise.
        c = perfect_crystal("A1", 1)
        s = demazure_schedule(c, c.cartan.fundamental_weight(0))

        def refuse(*args):
            raise AssertionError("read a g source")

        monkeypatch.setattr(onedsums, "_recursion", refuse)
        monkeypatch.setattr(onedsums, "_walk_tails", refuse)
        with pytest.raises(ValueError, match="segment 65537: .* outside the 32-bit slots"):
            character_at_full_segment(s, 2**16)
        with pytest.raises(ValueError, match="outside the 32-bit slots"):
            character_by_paths(s, 2**16 * s.d + 1)
        with pytest.raises(ValueError, match="outside the 32-bit slots"):
            character_via_onedsums(s, 2**16 * s.d + 1)


# ---------------------------------------------------------------------------
# Letter coordinates and the L1 rule of the recursion kernel

THREE_RANKS = [(family, _MIN_N[family] + k) for family in FAMILIES for k in range(3)]
SYMMETRIC_POWERS = [(n, l) for n in (1, 2, 3) for l in range(4)]


def coordinate_box(c, m):
    """The coordinatewise bounds of any sum of m letter weights."""
    columns = list(zip(*c.weight_table))
    return [m * min(col) for col in columns], [m * max(col) for col in columns]


def l1_ball(dim, radius):
    """Every int vector of ``dim`` entries with L1 norm at most radius."""
    if dim == 0:
        yield ()
        return
    for first in range(-radius, radius + 1):
        for tail in l1_ball(dim - 1, radius - abs(first)):
            yield (first, *tail)


def stands_for(table, coords):
    """The weight that letter coordinates stand for."""
    return tuple(sum(a * x for a, x in zip(row, coords)) for row in table.rows)


def admitted_in_box(c, m, points):
    lo, hi = coordinate_box(c, m)
    table = c.letter_coordinates
    return {
        w
        for w in points
        if all(a <= x <= b for a, x, b in zip(lo, w, hi)) and table.coordinates(w, m) is not None
    }


def assert_no_dead_state(c):
    for m in range(5):
        onedsums._recursion.cache_clear()
        rec = onedsums._recursion(c, ())
        for w in support_sumset(c, m):
            for t in range(len(c)):
                assert rec(t, (), w, m) is not None
        live = len(c) * sum(len(support_sumset(c, k)) for k in range(m + 1))
        assert rec.cache_info().currsize == live, m
    onedsums._recursion.cache_clear()


class TestLetterCoordinates:
    @pytest.mark.parametrize("family,n", THREE_RANKS)
    def test_steps_are_the_letter_weights(self, family, n):
        c = perfect_crystal(family, n)
        table = c.letter_coordinates
        for wt, step in zip(c.weight_table, table.steps):
            assert stands_for(table, step) == wt
            assert sum(map(abs, step)) <= table.stride == 1
        # every A1 alphabet counts its letters; the +-pair alphabets take
        # one letter of each pair
        assert table.counts == (family == "A1")
        zero_letter = any(not any(wt) for wt in c.weight_table)
        assert table.parity == (None if zero_letter else 1)

    @pytest.mark.parametrize("n,l", SYMMETRIC_POWERS)
    def test_symmetric_power_steps_are_box_contents(self, n, l):
        c = symmetric_crystal(n, l)
        table = c.letter_coordinates
        for b, wt, step in zip(c.elements, c.weight_table, table.steps):
            assert step == tuple(b.count(k) for k in range(n + 1))
            assert stands_for(table, step) == wt
        assert table.counts and table.stride == l

    @pytest.mark.parametrize("family,n", THREE_RANKS)
    def test_rule_admits_exactly_the_support_in_the_box(self, family, n):
        """The points of the coordinate box that the rule admits are the
        j-fold sumset of the letter weights.  An admitted point has
        coordinates in the L1 ball of radius m times the stride, and
        ``coordinates`` checks that they stand for it, so the ball's
        images hold every admitted point."""
        c = perfect_crystal(family, n)
        table = c.letter_coordinates
        for m in range(6):
            images = {stands_for(table, x) for x in l1_ball(len(table.inverse), m * table.stride)}
            assert admitted_in_box(c, m, images) == support_sumset(c, m), m

    @pytest.mark.parametrize("family,n", THREE_RANKS)
    def test_rule_rejects_every_other_box_point(self, family, n):
        """The same, point by point over every box of at most 40,000
        points: off-lattice points and points of nonzero level too."""
        c = perfect_crystal(family, n)
        for m in range(6):
            lo, hi = coordinate_box(c, m)
            if math.prod(b - a + 1 for a, b in zip(lo, hi)) > 40_000:
                break
            box = itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi)))
            assert admitted_in_box(c, m, box) == support_sumset(c, m), m

    @pytest.mark.parametrize("n,l", SYMMETRIC_POWERS)
    def test_rule_admits_the_support_of_symmetric_powers(self, n, l):
        """``coordinates`` answers exactly on the sumset, over the images
        of the L1 ball, which hold every admitted point, and the sumset
        points' coordinates stand for them."""
        c = symmetric_crystal(n, l)
        table = c.letter_coordinates
        for m in range(5):
            want = support_sumset(c, m)
            for w in want:
                coords = table.coordinates(w, m)
                assert coords is not None and stands_for(table, coords) == w, (m, w)
            images = {stands_for(table, x) for x in l1_ball(len(table.inverse), m * table.stride)}
            assert {w for w in images if table.coordinates(w, m) is not None} == want, m

    @pytest.mark.parametrize(
        "c",
        [perfect_crystal(family, n) for family, n in THREE_RANKS]
        + [symmetric_crystal(n, l) for n, l in SYMMETRIC_POWERS],
        ids=lambda c: c.name,
    )
    def test_support_lists_the_sumset(self, c):
        top = 4 if isinstance(c.elements[0], tuple) else 5
        for m in range(top + 1):
            assert c.letter_coordinates.support(m) == support_sumset(c, m), m

    @pytest.mark.parametrize("family,n", THREE_RANKS)
    def test_g_memo_holds_no_dead_state(self, family, n):
        """Reading the unwindowed g kernel at every head letter and support
        point of length m enters every live state of length at most m,
        and no other."""
        assert_no_dead_state(perfect_crystal(family, n))

    @pytest.mark.parametrize("n,l", SYMMETRIC_POWERS)
    def test_g_memo_of_symmetric_powers_holds_no_dead_state(self, n, l):
        assert_no_dead_state(symmetric_crystal(n, l))

    @pytest.mark.parametrize("family,n", THREE_RANKS)
    def test_node_store_cannot_change_an_answer(self, family, n):
        """The children that every head letter at one node shares are
        built by whichever head comes first: reading g at every head and
        support point up to length 4 in letter order and in reverse gives
        the same values and the same memo, with one stored node per live
        (tail weight, length) of positive length."""
        c = perfect_crystal(family, n)
        reads = [
            (t, w, m) for m in range(5) for w in sorted(tail_weight_support(c, m)) for t in range(len(c))
        ]
        seen = []
        for order in (reads, reads[::-1]):
            onedsums._recursion.cache_clear()
            rec = onedsums._recursion(c, ())
            assert rec.cache_info().nodes == 0
            values = {(t, w, m): rec(t, (), w, m) for t, w, m in order}
            seen.append((values, vars(rec.cache_info())))
        assert seen[0] == seen[1]
        live = sum(len(tail_weight_support(c, k)) for k in range(1, 5))
        assert seen[0][1]["nodes"] == live
        onedsums._recursion.cache_clear()
        assert onedsums._recursion(c, ()).cache_info().nodes == 0


# ---------------------------------------------------------------------------
# Lowering-string bijection between path families


class TestStringBijection:
    @pytest.mark.parametrize("family,n", [("A1", 1), ("A2even", 1)])
    def test_power_of_lowering_maps_bijectively(self, family, n):
        """Applying the i-th lowering operator n = <h_i, mu> + phi_i(b)
        times maps the union of path families below the i-string of the
        boundary letter onto the union at the reflected weights."""
        c = perfect_crystal(family, n)
        ct = c.cartan
        for j in (1, 2):
            for b in c.elements:
                for i in ct.index_set:
                    m = c.phi(i, b)
                    for mu in level_zero_weights(c, j):
                        power = mu.pairing(i) + m
                        if power < 0:
                            continue
                        alpha = simple_root(ct, i)
                        domain = []
                        cur = b
                        for t in range(m + 1):
                            arg = (mu + t * alpha).classical()
                            domain.extend(enumerate_paths(c, cur, arg, j))
                            if t < m:
                                cur = c.f(i, cur)
                        target = set()
                        cur = b
                        for t in range(m + 1):
                            arg = reflect(ct, mu + (m - t) * alpha, i).classical()
                            target.update(enumerate_paths(c, cur, arg, j))
                            if t < m:
                                cur = c.f(i, cur)
                        images = []
                        for word in domain:
                            img = word
                            for _ in range(power):
                                img = img.f(i)
                                assert img is not None, (family, b, i, mu, j)
                            images.append(img)
                        assert len(set(images)) == len(images)
                        assert set(images) == target, (family, b, i, mu, j)


# ---------------------------------------------------------------------------
# Filtered recursion along the growth schedule


class TestFilteredRecursion:
    @pytest.mark.parametrize("family,n,node", SCHEDULED)
    def test_step_difference_identity(self, family, n, node):
        """Each schedule step splits the next leading set so that the
        new letters' sums equal a reflected difference of the old ones."""
        c = perfect_crystal(family, n)
        ct = c.cartan
        s = demazure_schedule(c, c.cartan.fundamental_weight(node))
        gs = s.ground
        rho = Weight((1,) * ct.size)
        for j in (1, 2, 3):
            sets = s.leading_sets(j)
            head = gs.bar(j + 1)
            lam_j = gs.window_weight(j)
            mus = level_zero_weights(c, min(j, 2))[:6]
            for a in range(s.d):
                i = s.index(j, a + 1)
                alpha = simple_root(ct, i)
                for mu in mus:
                    def term(b, arg):
                        return g_recursive(c, b, arg, j - 1).shift(
                            j * c.energy(head, b)
                        )

                    lhs = ZERO
                    for b in sorted(sets[a + 1] - sets[a], key=c.index):
                        lhs = lhs + term(b, mu - c.weight(b))
                    first = ZERO
                    for b in sorted(sets[a + 1], key=c.index):
                        first = first + term(b, mu + alpha - c.weight(b))
                    second = ZERO
                    for b in sorted(sets[a], key=c.index):
                        arg = (
                            reflect(ct, mu + rho + lam_j, i)
                            - lam_j
                            - rho
                            - c.weight(b)
                        )
                        second = second + term(b, arg)
                    assert lhs == first - second, (family, n, node, j, a, mu)
