"""Tests for Cartan data, weights, and Weyl group elements."""

from fractions import Fraction
from itertools import combinations, islice, permutations
from math import gcd, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brute import (
    WeylAction,
    character_json_obj,
    combine,
    demazure_op,
    demazure_step,
    finite_weyl_group,
    inverse_by_fractions,
    key,
    multiply,
    pack_keys,
    reference_marks,
    reflect,
    simple_root,
    to_keys,
    unpack_keys,
    weyl_by_length,
)

from demchar.crystals import perfect_crystal, symmetric_crystal
from demchar.weights import (
    _MIN_N,
    FAMILIES,
    FormalCharacter,
    Weight,
    ascents,
    cartan_type,
    inverse,
)
from demchar.weights import demazure_step as packed_step

ALL_SMALL_TYPES = [
    ("A1", 1),
    ("A1", 2),
    ("A1", 3),
    ("B1", 3),
    ("B1", 4),
    ("D1", 4),
    ("D1", 5),
    ("A2odd", 3),
    ("A2odd", 4),
    ("A2even", 1),
    ("A2even", 2),
    ("A2even", 3),
    ("D2", 2),
    ("D2", 3),
]

MINIMAL_AND_NEXT = [
    (family, n + k)
    for family, n in (("A1", 1), ("B1", 3), ("D1", 4), ("A2odd", 3), ("A2even", 1), ("D2", 2))
    for k in (0, 1)
]


class TestWeight:
    def test_arithmetic(self):
        a = Weight((1, 0), 1)
        b = Weight((0, 2), 3)
        assert a + b == Weight((1, 2), 4)
        assert a - b == Weight((1, -2), -2)
        assert -a == Weight((-1, 0), -1)
        assert 3 * a == Weight((3, 0), 3)
        assert type((a + b).delta_coord) is int

    def test_non_integral_coordinates_rejected(self):
        with pytest.raises(ValueError):
            Weight((1.5, 0))
        with pytest.raises(ValueError):
            Weight((1, 0), Fraction(1, 2))
        w = Weight((2.0, 0), Fraction(-3))
        assert w == Weight((2, 0), -3)
        assert type(w.delta_coord) is int

    def test_classical_drops_delta(self):
        assert Weight((1, 2), Fraction(5)).classical() == Weight((1, 2))

    def test_json_layout(self):
        # delta keeps its [numerator, denominator] form; the denominator is 1.
        w = Weight((0, -3, 1), -7)
        assert w.to_json_obj() == {"lambda": [0, -3, 1], "delta": [-7, 1]}

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(ValueError):
            Weight((1,)) + Weight((1, 2))


class TestCartanData:
    def test_known_matrices(self):
        assert cartan_type("A1", 1).matrix == ((2, -2), (-2, 2))
        assert cartan_type("A1", 2).matrix == ((2, -1, -1), (-1, 2, -1), (-1, -1, 2))
        assert cartan_type("A2even", 1).matrix == ((2, -1), (-4, 2))
        assert cartan_type("D2", 2).matrix == ((2, -2, 0), (-1, 2, -1), (0, -2, 2))
        assert cartan_type("B1", 3).matrix == (
            (2, 0, -1, 0),
            (0, 2, -1, 0),
            (-1, -1, 2, -1),
            (0, 0, -2, 2),
        )
        assert cartan_type("A2odd", 3).matrix == (
            (2, 0, -1, 0),
            (0, 2, -1, 0),
            (-1, -1, 2, -2),
            (0, 0, -1, 2),
        )
        assert cartan_type("D1", 4).matrix == (
            (2, 0, -1, 0, 0),
            (0, 2, -1, 0, 0),
            (-1, -1, 2, -1, -1),
            (0, 0, -1, 2, 0),
            (0, 0, -1, 0, 2),
        )

    def test_known_marks(self):
        assert cartan_type("B1", 3).marks == (1, 1, 2, 2)
        assert cartan_type("B1", 3).comarks == (1, 1, 2, 1)
        assert cartan_type("A2odd", 3).marks == (1, 1, 2, 1)
        assert cartan_type("A2odd", 3).comarks == (1, 1, 2, 2)
        assert cartan_type("A2even", 2).marks == (1, 2, 2)
        assert cartan_type("A2even", 2).comarks == (2, 2, 1)
        assert cartan_type("D2", 3).comarks == (1, 2, 2, 1)
        assert cartan_type("D1", 5).marks == (1, 1, 2, 2, 1, 1)

    @pytest.mark.parametrize(
        "family,n", [(family, _MIN_N[family] + k) for family in FAMILIES for k in range(8)]
    )
    def test_marks_match_the_written_tables(self, family, n):
        ct = cartan_type(family, n)
        assert (ct.marks, ct.comarks) == reference_marks(family, n)

    @pytest.mark.parametrize("family,n", ALL_SMALL_TYPES)
    def test_null_root_expansion(self, family, n):
        ct = cartan_type(family, n)
        total = Weight.zero(ct.size)
        for i in ct.index_set:
            total = total + ct.marks[i] * simple_root(ct, i)
        assert total == Weight((0,) * ct.size, 1)

    @pytest.mark.parametrize("family,n", ALL_SMALL_TYPES)
    def test_simple_root_pairings_match_matrix(self, family, n):
        ct = cartan_type(family, n)
        for i in ct.index_set:
            for j in ct.index_set:
                assert simple_root(ct, j).pairing(i) == ct.matrix[i][j]

    @pytest.mark.parametrize("family,n", ALL_SMALL_TYPES)
    def test_level_of_fundamental_weights(self, family, n):
        ct = cartan_type(family, n)
        for i in ct.index_set:
            assert ct.level(ct.fundamental_weight(i)) == ct.comarks[i]
        for i in ct.index_set:
            assert ct.level(simple_root(ct, i)) == 0

    @staticmethod
    def _level_zero_lift(ct, upper):
        """The level-zero weight with coordinates ``upper`` at nodes 1..n,
        or None when the node-0 coordinate it needs is not an integer."""
        head, rem = divmod(-sum(c * m for c, m in zip(ct.comarks[1:], upper)), ct.comarks[0])
        return None if rem else Weight((head, *upper))

    @pytest.mark.parametrize("family,n", ALL_SMALL_TYPES)
    def test_level_zero_lift(self, family, n):
        ct = cartan_type(family, n)
        coords = tuple(range(1, ct.n + 1))
        lifted = self._level_zero_lift(ct, coords)
        if lifted is None:
            # No integral level-zero weight exists over these coordinates:
            # only possible when the node-0 comark is bigger than 1.
            assert ct.comarks[0] > 1
            assert sum(c * m for c, m in zip(ct.comarks[1:], coords)) % ct.comarks[0] != 0
        else:
            assert ct.level(lifted) == 0
            assert lifted.lambda_coords[1:] == coords
            assert lifted.delta_coord == 0

    def test_level_zero_roundtrip_on_simple_roots(self):
        for family, n in ALL_SMALL_TYPES:
            ct = cartan_type(family, n)
            for i in ct.classical_index_set:
                root = simple_root(ct, i)
                assert self._level_zero_lift(ct, root.lambda_coords[1:]) == root

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            cartan_type("B1", 2)
        with pytest.raises(ValueError):
            cartan_type("E8", 8)

    def test_reflect(self):
        ct = cartan_type("A1", 1)
        w = ct.fundamental_weight(0)
        assert reflect(ct, w, 0) == Weight((-1, 2), Fraction(-1))
        assert reflect(ct, reflect(ct, w, 0), 0) == w
        assert reflect(ct, w, 1) == w


CLASSICAL_ORDERS = [
    ("A1", 1, 2),
    ("A1", 2, 6),
    ("A1", 3, 24),
    ("B1", 3, 48),
    ("D1", 4, 192),
    ("A2odd", 3, 48),
    ("A2even", 1, 2),
    ("A2even", 2, 8),
    ("D2", 2, 8),
]


def _det(m):
    """Leibniz expansion of the determinant."""
    total = 0
    for perm in permutations(range(len(m))):
        sign = (-1) ** sum(a > b for a, b in combinations(perm, 2))
        total += sign * prod(m[r][c] for r, c in enumerate(perm))
    return total


class TestInverse:
    def test_known_inverse(self):
        assert inverse([[2, -1], [-1, 2]]) == (3, ((2, 1), (1, 2)))
        assert inverse([[0, 1], [1, 0]]) == (1, ((0, 1), (1, 0)))
        assert inverse([]) == (1, ())

    @given(st.lists(st.integers(-3, 3), min_size=9, max_size=9))
    def test_d_times_inverse_or_singular(self, entries):
        m = [entries[0:3], entries[3:6], entries[6:9]]
        if _det(m) == 0:
            with pytest.raises(ValueError, match="singular"):
                inverse(m)
            return
        d, inv = inverse(m)
        assert d > 0 and gcd(d, *(x for row in inv for x in row)) == 1
        product = [[sum(m[r][k] * inv[k][c] for k in range(3)) for c in range(3)] for r in range(3)]
        assert product == [[d if r == c else 0 for c in range(3)] for r in range(3)]

    @pytest.mark.parametrize("matrix", [[[1, 2]], [[1], [2]], [[1, 0], [0]]])
    def test_rejects_a_matrix_that_is_not_square(self, matrix):
        with pytest.raises(ValueError, match="not square"):
            inverse(matrix)
        assert _outcome(inverse, matrix) == _outcome(inverse_by_fractions, matrix)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_fractions_on_the_library_systems(self, family):
        # The systems the library inverts: each letter-coordinate table's
        # (``LetterCoordinates._solve``) and the classical Cartan block
        # and its transpose (the marks and comarks).
        for n in range(_MIN_N[family], _MIN_N[family] + 6):
            table = perfect_crystal(family, n).letter_coordinates
            assert (table.scale, table.inverse) == inverse_by_fractions(_solved_system(table))
            block = tuple(row[1:] for row in cartan_type(family, n).matrix[1:])
            for matrix in (block, tuple(zip(*block))):
                assert inverse(matrix) == inverse_by_fractions(matrix)

    def test_matches_fractions_on_symmetric_powers(self):
        for n in range(1, 5):
            for l in range(5):
                table = symmetric_crystal(n, l).letter_coordinates
                assert (table.scale, table.inverse) == inverse_by_fractions(_solved_system(table))

    @given(
        st.integers(0, 6).flatmap(
            lambda size: st.lists(
                st.lists(st.integers(-3, 3) | st.integers(-10**6, 10**6), min_size=size, max_size=size),
                min_size=size,
                max_size=size,
            )
        )
    )
    @example([[0]])
    @example([[1, 2], [2, 4]])
    @example([[1, 2, 3], [0, 0, 0], [4, 5, 6]])
    @example([[0, 1, 0], [1, 0, 0], [1, 1, 0]])
    def test_matches_fractions(self, matrix):
        assert _outcome(inverse, matrix) == _outcome(inverse_by_fractions, matrix)


def _solved_system(table):
    """The matrix a letter-coordinate table was solved from: its rows at
    nodes 1..n, and the counts' row of ones when it counts boxes."""
    return table.rows[1:] + (((1,) * len(table.rows[0]),) if table.counts else ())


def _outcome(invert, matrix):
    """The inverse of matrix, or the message of its ValueError."""
    try:
        return invert(matrix)
    except ValueError as exc:
        return str(exc)


class TestWeylGroup:
    @pytest.mark.parametrize("family,n,order", CLASSICAL_ORDERS)
    def test_classical_group_order(self, family, n, order):
        ct = cartan_type(family, n)
        group = finite_weyl_group(ct, range(1, ct.size))
        assert len(group) == order
        assert len({w.mat for w in group}) == order

    def test_affine_rank_one_shells(self):
        ct = cartan_type("A1", 1)
        sizes = [len(shell) for shell in islice(weyl_by_length(ct), 6)]
        assert sizes == [1, 2, 2, 2, 2, 2]

    def test_reflection_action_matches_direct(self):
        for family, n in ALL_SMALL_TYPES[:6]:
            ct = cartan_type(family, n)
            w = Weight(tuple((j * 5 + 3) % 7 - 3 for j in range(ct.size)), Fraction(2))
            for i in ct.index_set:
                elem = WeylAction.identity(ct).prepend(i)
                assert elem.apply(w) == reflect(ct, w, i)

    def test_involution_and_ascent(self):
        ct = cartan_type("B1", 3)
        e = WeylAction.identity(ct)
        for i in ct.index_set:
            assert e.is_ascent(i)
            r = e.prepend(i)
            assert r.det == -1
            assert not r.is_ascent(i)
            assert r.prepend(i) == e

    def test_weyl_preserves_level_and_delta_shift(self):
        ct = cartan_type("A2odd", 3)
        shells = list(islice(weyl_by_length(ct), 4))
        w = Weight((1, 0, 2, -1), Fraction(0))
        delta = Weight((0,) * ct.size, 1)
        for shell in shells:
            for elem in shell:
                image = elem.apply(w)
                assert ct.level(image) == ct.level(w)
                assert elem.apply(w + delta) == image + delta

    def test_length_matches_word(self):
        ct = cartan_type("A1", 2)
        for shell_len, shell in enumerate(islice(weyl_by_length(ct), 5)):
            for elem in shell:
                assert elem.length == shell_len
                assert elem.det == (-1) ** shell_len

    @pytest.mark.parametrize("family,n", MINIMAL_AND_NEXT)
    @given(data=st.data())
    def test_ascents_match_root_matrices(self, family, n, data):
        """The ascent verdict on w(rho) equals the root-matrix test at every
        step of a random word, descents included."""
        ct = cartan_type(family, n)
        word = data.draw(st.lists(st.integers(min_value=0, max_value=ct.n), max_size=24))
        elem = WeylAction.identity(ct)
        expected = []
        for i in word:
            expected.append(elem.is_ascent(i))
            elem = elem.prepend(i)
        assert list(ascents(ct, word)) == expected

    @given(st.sampled_from(ALL_SMALL_TYPES), st.data())
    def test_random_word_is_identity_when_doubled(self, type_key, data):
        family, n = type_key
        ct = cartan_type(family, n)
        word = data.draw(
            st.lists(st.integers(min_value=0, max_value=ct.n), min_size=0, max_size=5)
        )
        elem = WeylAction.identity(ct)
        for i in reversed(word):
            elem = elem.prepend(i)
        for i in word:
            elem = elem.prepend(i)
        assert elem == WeylAction.identity(ct)


def _coxeter_order(a_ij: int, a_ji: int) -> int | None:
    """Order of r_i r_j from the product of off-diagonal Cartan entries."""
    return {0: 2, 1: 3, 2: 4, 3: 6}.get(a_ij * a_ji)


class TestCoxeterRelations:
    @pytest.mark.parametrize("family,n", ALL_SMALL_TYPES)
    def test_pairwise_braid_orders(self, family, n):
        ct = cartan_type(family, n)
        for i in ct.index_set:
            for j in ct.index_set:
                if i == j:
                    continue
                order = _coxeter_order(ct.matrix[i][j], ct.matrix[j][i])
                if order is None:
                    continue
                elem = WeylAction.identity(ct)
                for _ in range(order):
                    elem = elem.prepend(j).prepend(i)
                assert elem == WeylAction.identity(ct), (family, n, i, j, order)

    def test_affine_a1_pair_has_infinite_order(self):
        ct = cartan_type("A1", 1)
        assert _coxeter_order(ct.matrix[0][1], ct.matrix[1][0]) is None
        elem = WeylAction.identity(ct)
        for _ in range(8):
            elem = elem.prepend(1).prepend(0)
            assert elem != WeylAction.identity(ct)


class TestFormalCharacter:
    def test_ring_operations(self):
        w1 = Weight((1, 0))
        w2 = Weight((0, 1), Fraction(1))
        a = FormalCharacter({key(w1): 1}) + FormalCharacter({key(w2): 2})
        b = FormalCharacter({key(w1): -1})
        assert to_keys(a + b) == {(0, 1, 1): 2}
        assert not (b + FormalCharacter({key(w1): 1}))
        assert a + FormalCharacter({}) == a
        assert multiply(to_keys(a), to_keys(a)) == {(2, 0, 0): 1, (1, 1, 1): 4, (0, 2, 2): 4}

    def test_non_integral_coefficients_rejected(self):
        for bad in (2.7, 0.5, Fraction(3, 2)):
            with pytest.raises(ValueError):
                FormalCharacter({(1, 0, 0): bad})
        with pytest.raises(ValueError):
            FormalCharacter({(1, 0.5, 0): 1})
        assert to_keys(FormalCharacter({(1, 0, 0): 2.0})) == {(1, 0, 0): 2}
        assert type(to_keys(FormalCharacter({(1, 0, 0): Fraction(4, 2)}))[(1, 0, 0)]) is int

    def test_public_constructor_checks_what_the_trusted_path_keeps(self):
        with pytest.raises(ValueError):
            FormalCharacter({(1, Fraction(1, 2), 0): 1})
        with pytest.raises(ValueError):
            FormalCharacter({(1, 0, 0): Fraction(1, 2)})
        # the routes' own packed dicts go in as given, not copied
        terms = pack_keys(cartan_type("A1", 1), {(1, 0, 0): 2})
        chi = FormalCharacter._packed(3, terms)
        assert chi._coeffs is terms
        assert to_keys(chi) == {(1, 0, 0): 2}
        assert chi == FormalCharacter({(1, 0, 0): 2, (0, 1, 0): 0})

    def test_json_roundtrip(self):
        chi = FormalCharacter({(2, -1, -1): 1, (1, 0, 0): 3})
        obj = character_json_obj(chi)
        assert obj == [
            {"weight": {"lambda": [1, 0], "delta": [0, 1]}, "coeff": 3},
            {"weight": {"lambda": [2, -1], "delta": [-1, 1]}, "coeff": 1},
        ]
        assert FormalCharacter(to_keys(chi)) == chi


class TestDemazureOperator:
    def test_basic_weight_two_terms(self):
        ct = cartan_type("A1", 1)
        lam = ct.fundamental_weight(0)
        chi = demazure_op(ct, 0, FormalCharacter({key(lam): 1}))
        expected = FormalCharacter({key(lam): 1, key(lam - simple_root(ct, 0)): 1})
        assert chi == expected
        assert to_keys(chi)[(-1, 2, -1)] == 1

    def test_zero_branch(self):
        ct = cartan_type("A1", 1)
        mu = Weight((-1, 1))
        assert not demazure_op(ct, 0, FormalCharacter({key(mu): 1}))

    def test_negative_branch_is_minus_string(self):
        ct = cartan_type("A1", 1)
        mu = Weight((-3, 3))
        chi = demazure_op(ct, 0, FormalCharacter({key(mu): 1}))
        alpha = simple_root(ct, 0)
        assert chi == FormalCharacter({key(mu + alpha): -1, key(mu + 2 * alpha): -1})

    @pytest.mark.parametrize("family,n", [("A1", 1), ("A1", 2), ("B1", 3), ("D2", 2)])
    def test_quotient_identity(self, family, n):
        ct = cartan_type(family, n)
        rho = Weight((1,) * ct.size)
        samples = [
            Weight((0,) * ct.size),
            ct.fundamental_weight(0),
            ct.fundamental_weight(ct.n) * 2,
            Weight(tuple(range(-1, ct.size - 1)), Fraction(1)),
        ]

        def keys(w):
            return {key(w): 1}

        for i in ct.index_set:
            alpha = simple_root(ct, i)
            one_minus = combine((1, keys(Weight.zero(ct.size))), (-1, keys(-alpha)))
            for mu in samples:
                op = to_keys(demazure_op(ct, i, FormalCharacter(keys(mu))))
                lhs = multiply(multiply(one_minus, op), keys(rho))
                rhs = combine((1, keys(mu + rho)), (-1, keys(reflect(ct, mu + rho, i))))
                assert lhs == rhs, (family, n, i, str(mu))

    @pytest.mark.parametrize("family,n", [("A1", 1), ("A2even", 1), ("D2", 2)])
    def test_idempotent(self, family, n):
        ct = cartan_type(family, n)
        samples = [
            ct.fundamental_weight(0),
            ct.fundamental_weight(ct.n),
            Weight(tuple(1 if k % 2 else -2 for k in range(ct.size)), Fraction(-1)),
        ]
        for i in ct.index_set:
            for mu in samples:
                once = demazure_op(ct, i, FormalCharacter({key(mu): 1}))
                assert demazure_op(ct, i, once) == once

    def test_linear_over_sums(self):
        ct = cartan_type("A1", 2)
        mu1 = ct.fundamental_weight(1)
        mu2 = Weight((1, -1, 1))
        combined = FormalCharacter({key(mu1): 2}) + FormalCharacter({key(mu2): -1})
        assert to_keys(demazure_op(ct, 1, combined)) == combine(
            (2, to_keys(demazure_op(ct, 1, FormalCharacter({key(mu1): 1})))),
            (-1, to_keys(demazure_op(ct, 1, FormalCharacter({key(mu2): 1})))),
        )


# Fields of 1 to 4 per key, small or anywhere in the 32-bit slot, the
# two slot edges among them.
SLOT_FIELD = (
    st.integers(-30, 30)
    | st.integers(-(2**31), 2**31 - 1)
    | st.sampled_from([-(2**31), 2**31 - 1])
)


def keyed_terms(fields: int):
    """Tuple-keyed terms of ``fields`` fields per key, with mixed-sign
    coefficients and zeros among them."""
    return st.dictionaries(st.tuples(*[SLOT_FIELD] * fields), st.integers(-3, 3), max_size=6)


class TestPackedCharacter:
    """``FormalCharacter`` on packed keys against the tuple-key
    reference ``combine`` of ``tests/brute.py``."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda f: st.tuples(keyed_terms(f), keyed_terms(f))))
    def test_matches_tuple_key_reference(self, pair):
        a, b = pair
        want_a, want_b = combine((1, a)), combine((1, b))
        chi, psi = FormalCharacter(a), FormalCharacter(b)
        # term_batches reads the terms in the tuple order, negative
        # fields included
        assert list(to_keys(chi).items()) == sorted(want_a.items())
        assert FormalCharacter(to_keys(chi)) == chi
        assert repr(chi) == f"FormalCharacter({dict(sorted(want_a.items()))!r})"
        assert to_keys(chi + psi) == combine((1, a), (1, b))
        assert (chi == psi) == (want_a == want_b)
        assert not chi + FormalCharacter(combine((-1, a)))
        assert chi + FormalCharacter(combine((-1, a))) == FormalCharacter({})

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 4).flatmap(keyed_terms),
        st.integers(1, 4).flatmap(keyed_terms),
    )
    @example({(-(2**31), 5): 1}, {(5,): 1})
    @example({(-(2**31), 0, 7): 2}, {(0, 7): 2})
    def test_field_counts_keep_characters_apart(self, a, b):
        # (-2**31, 5) and (5,) pack to the same int, 5 + 2**31.
        want_a, want_b = combine((1, a)), combine((1, b))
        chi, psi = FormalCharacter(a), FormalCharacter(b)
        lengths = {len(key) for key in want_a} | {len(key) for key in want_b}
        if len(lengths) < 2:
            assert to_keys(chi + psi) == combine((1, a), (1, b))
            assert (chi == psi) == (want_a == want_b)
        else:
            assert chi != psi
            with pytest.raises(ValueError, match="fields per key"):
                chi + psi
            with pytest.raises(ValueError, match="fields, the first key has"):
                FormalCharacter({**want_a, **want_b})

    def test_empty_characters_are_equal_whatever_their_fields(self):
        cancelled = FormalCharacter({(1, 0, 0): 1}) + FormalCharacter({(1, 0, 0): -1})
        assert cancelled == FormalCharacter({}) == FormalCharacter({(0, 0): 0})
        assert cancelled + FormalCharacter({(7,): 1}) == FormalCharacter({(7,): 1})
        assert to_keys(cancelled) == {}
        assert repr(cancelled) == "FormalCharacter({})"

    @pytest.mark.parametrize("bad", [2**31, -(2**31) - 1])
    def test_field_outside_its_slot_rejected(self, bad):
        with pytest.raises(ValueError, match=rf"key \(0, {bad}, 0\) does not fit 32-bit slots"):
            FormalCharacter({(0, bad, 0): 1})

    def test_key_without_fields_rejected(self):
        with pytest.raises(ValueError, match="delta field"):
            FormalCharacter({(): 1})


# Packed-key slots hold fields in [-2**31, 2**31).  A stepped coordinate
# sets its string length, so it stays small; the other fields reach to
# within EDGE_ROOM of either slot edge, more than a string of 31 terms
# can move them (|A[j][i]| <= 4), so a borrow or carry between slots
# would show.
EDGE = 2**31
EDGE_ROOM = 200


@st.composite
def stepped_terms(draw):
    """(family, n, node, terms): tuple-keyed terms of one of the small
    types, with mixed signs and coordinates near the slot edges."""
    family, n = draw(st.sampled_from(ALL_SMALL_TYPES))
    ct = cartan_type(family, n)
    i = draw(st.sampled_from(ct.index_set))
    wide = (
        st.integers(-30, 30)
        | st.integers(-EDGE + EDGE_ROOM, EDGE - EDGE_ROOM)
        | st.sampled_from([-EDGE + EDGE_ROOM, EDGE - EDGE_ROOM])
    )
    fields = [st.integers(-30, 30) if f == i else wide for f in range(ct.size + 1)]
    terms = draw(st.dictionaries(st.tuples(*fields), st.integers(-3, 3), max_size=6))
    return family, n, i, terms


class TestPackedStep:
    """``weights.demazure_step`` on packed keys against the tuple-key step
    of ``tests/brute.py``."""

    @settings(max_examples=400, deadline=None)
    @given(stepped_terms())
    @example(("A2even", 1, 1, {(EDGE - EDGE_ROOM, -30, -EDGE + EDGE_ROOM): 1}))
    @example(("A1", 1, 0, {(30, -EDGE + EDGE_ROOM, EDGE - EDGE_ROOM): -2}))
    def test_matches_tuple_key_reference(self, case):
        family, n, i, terms = case
        ct = cartan_type(family, n)
        got = unpack_keys(ct, packed_step(ct, i, pack_keys(ct, terms)))
        assert got == demazure_step(ct, i, terms)

    @pytest.mark.parametrize("family,n", ALL_SMALL_TYPES)
    def test_every_simple_root(self, family, n):
        ct = cartan_type(family, n)
        mixed = tuple((-1) ** f * (f + 1) for f in range(ct.size + 1))
        terms = {mixed: 2, (0,) * (ct.size + 1): -1, ct.simple_roots[0]: 3}
        for i in ct.index_set:
            got = unpack_keys(ct, packed_step(ct, i, pack_keys(ct, terms)))
            assert got == demazure_step(ct, i, terms), i

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(*[st.integers(-EDGE, EDGE - 1)] * 4), max_size=8, unique=True))
    def test_packing_round_trips_in_tuple_order(self, keys):
        ct = cartan_type("A1", 2)
        packed = pack_keys(ct, dict.fromkeys(keys, 1))
        assert list(unpack_keys(ct, packed)) == keys
        assert list(unpack_keys(ct, dict.fromkeys(sorted(packed), 1))) == sorted(keys)

    @pytest.mark.parametrize("bad", [EDGE, -EDGE - 1])
    def test_field_outside_its_slot_rejected(self, bad):
        ct = cartan_type("A1", 1)
        with pytest.raises(ValueError, match="does not fit 32-bit slots"):
            pack_keys(ct, {(0, bad, 0): 1})
