"""Tests for the tensor-product signature rule and local energy behavior."""

import pytest

from brute import all_words, simple_root

from demchar.crystals import perfect_crystal
from demchar.tensor import TensorWord, signature_scan

TWO_FACTOR_KEYS = [
    ("A1", 1),
    ("A1", 2),
    ("B1", 3),
    ("D1", 4),
    ("A2odd", 3),
    ("A2even", 1),
    ("A2even", 2),
    ("D2", 2),
]


def two_factor_words(family, n):
    crystal = perfect_crystal(family, n)
    for b in crystal.elements:
        for bp in crystal.elements:
            yield TensorWord(crystal, (b, bp))


class TestSignatureScan:
    def test_empty(self):
        assert signature_scan([]) == (0, 0, None, None)

    def test_single_factor(self):
        assert signature_scan([(2, 3)]) == (2, 3, 0, 0)
        assert signature_scan([(0, 0)]) == (0, 0, None, None)

    def test_cancellation(self):
        # (-,+) (+,-) pattern: second factor's minus eats first's plus
        assert signature_scan([(1, 1), (1, 0)]) == (1, 0, 0, None)
        # pluses survive on the left, minus positions stay right
        assert signature_scan([(0, 2), (3, 1)]) == (1, 1, 1, 1)

    def test_lifo_cancellation_order(self):
        # minus cancels the nearest plus to its left, so the surviving
        # plus belongs to the first factor
        eps, phi, e_idx, f_idx = signature_scan([(0, 1), (0, 1), (1, 0)])
        assert (eps, phi) == (0, 1)
        assert f_idx == 0


@pytest.mark.parametrize("family,n", TWO_FACTOR_KEYS)
class TestTwoFactorRule:
    def test_lowering_matches_bracketing_rule(self, family, n):
        crystal = perfect_crystal(family, n)
        for word in two_factor_words(family, n):
            b, bp = word.factors
            for i in crystal.cartan.index_set:
                image = word.f(i)
                if crystal.phi(i, b) > crystal.epsilon(i, bp):
                    expected = (crystal.f(i, b), bp)
                else:
                    moved = crystal.f(i, bp)
                    expected = None if moved is None else (b, moved)
                if expected is None or expected[0] is None:
                    assert image is None
                else:
                    assert image is not None and image.factors == expected

    def test_raising_matches_bracketing_rule(self, family, n):
        crystal = perfect_crystal(family, n)
        for word in two_factor_words(family, n):
            b, bp = word.factors
            for i in crystal.cartan.index_set:
                image = word.e(i)
                if crystal.phi(i, b) >= crystal.epsilon(i, bp):
                    moved = crystal.e(i, b)
                    expected = None if moved is None else (moved, bp)
                else:
                    moved = crystal.e(i, bp)
                    expected = None if moved is None else (b, moved)
                if expected is None:
                    assert image is None
                else:
                    assert image is not None and image.factors == expected

    def test_string_length_closed_forms(self, family, n):
        crystal = perfect_crystal(family, n)
        for word in two_factor_words(family, n):
            b, bp = word.factors
            for i in crystal.cartan.index_set:
                eps = crystal.epsilon(i, b) + max(
                    0, crystal.epsilon(i, bp) - crystal.phi(i, b)
                )
                phi = crystal.phi(i, bp) + max(
                    0, crystal.phi(i, b) - crystal.epsilon(i, bp)
                )
                assert word.epsilon(i) == eps
                assert word.phi(i) == phi

    def test_lower_bounds_from_weights(self, family, n):
        crystal = perfect_crystal(family, n)
        for word in two_factor_words(family, n):
            b, bp = word.factors
            for i in crystal.cartan.index_set:
                assert word.phi(i) >= crystal.phi(i, b) + crystal.weight(bp).pairing(i)
                assert word.epsilon(i) >= -word.weight().pairing(i)

    def test_energy_constant_under_classical_raising(self, family, n):
        crystal = perfect_crystal(family, n)
        for word in two_factor_words(family, n):
            for i in crystal.cartan.classical_index_set:
                image = word.e(i)
                if image is not None:
                    assert crystal.energy(*image.factors) == crystal.energy(*word.factors)

    def test_energy_steps_under_affine_raising(self, family, n):
        crystal = perfect_crystal(family, n)
        for word in two_factor_words(family, n):
            b, bp = word.factors
            image = word.e(0)
            if image is None:
                continue
            step = 1 if crystal.phi(0, b) >= crystal.epsilon(0, bp) else -1
            assert crystal.energy(*image.factors) == crystal.energy(b, bp) + step


class TestWords:
    def test_factor_indexing_counts_from_right(self):
        crystal = perfect_crystal("A1", 2)
        word = TensorWord(crystal, ("0", "1", "2"))
        assert word.factor(1) == "2"
        assert word.factor(3) == "0"
        with pytest.raises(IndexError):
            word.factor(4)

    def test_text(self):
        crystal = perfect_crystal("B1", 3)
        assert TensorWord(crystal, ("1", "1~", "0")).text() == "1*1~*0"

    def test_weight_is_sum(self):
        crystal = perfect_crystal("D2", 2)
        word = TensorWord(crystal, ("1", "phi", "2~"))
        total = crystal.weight("1") + crystal.weight("phi") + crystal.weight("2~")
        assert word.weight() == total

    def test_energy_weights_positions(self):
        crystal = perfect_crystal("A1", 1)
        # factors left-to-right 1,0,1,0 are positions 4,3,2,1
        word = TensorWord(crystal, ("1", "0", "1", "0"))
        expected = (
            1 * crystal.energy("1", "0")
            + 2 * crystal.energy("0", "1")
            + 3 * crystal.energy("1", "0")
        )
        assert word.energy() == expected == 1 + 0 + 3

    def test_operators_invert_on_words(self):
        crystal = perfect_crystal("B1", 3)
        for word in all_words(crystal, 2):
            for i in crystal.cartan.index_set:
                lowered = word.f(i)
                if lowered is not None:
                    assert lowered.e(i) == word
                raised = word.e(i)
                if raised is not None:
                    assert raised.f(i) == word

    def test_word_weight_shifts_by_simple_root(self):
        crystal = perfect_crystal("A2even", 2)
        ct = crystal.cartan
        for word in all_words(crystal, 2):
            for i in ct.index_set:
                lowered = word.f(i)
                if lowered is not None:
                    diff = word.weight() - lowered.weight()
                    assert diff.lambda_coords == simple_root(ct, i).lambda_coords

    def test_scan_matches_iterated_two_factor(self):
        crystal = perfect_crystal("D1", 4)
        words = list(all_words(crystal, 3))[::37]
        for word in words:
            for i in crystal.cartan.index_set:
                left = TensorWord(crystal, word.factors[:2])
                eps_left, phi_left = left.epsilon(i), left.phi(i)
                eps_right = crystal.epsilon(i, word.factors[2])
                phi_right = crystal.phi(i, word.factors[2])
                assert word.epsilon(i) == eps_left + max(0, eps_right - phi_left)
                assert word.phi(i) == phi_right + max(0, phi_left - eps_right)

    def test_all_words_count(self):
        crystal = perfect_crystal("A1", 1)
        assert len(list(all_words(crystal, 3))) == 8


def energy_shift_under_raising(i: int, word: TensorWord, n: int) -> int:
    """Energy difference E(e_i^n applied to word) - E(word).

    The n-fold raising must stay nonzero; raises ValueError otherwise.
    """
    raised = word
    for _ in range(n):
        nxt = raised.e(i)
        if nxt is None:
            raise ValueError(f"raising by node {i} kills the word after {n} steps")
        raised = nxt
    return raised.energy() - word.energy()


class TestEnergyShiftUnderRaising:
    def _heads_distance(self, crystal, lowered_head, raised_head, limit):
        cur = raised_head
        for k in range(limit + 1):
            if cur == lowered_head:
                return k
            cur = crystal.f(0, cur)
            if cur is None:
                break
        return None

    @pytest.mark.parametrize("family,n", [("A1", 1), ("A1", 2), ("D2", 2)])
    def test_classical_raising_never_shifts(self, family, n):
        crystal = perfect_crystal(family, n)
        for word in all_words(crystal, 3):
            for i in crystal.cartan.classical_index_set:
                eps = word.epsilon(i)
                for reps in range(1, eps + 1):
                    assert energy_shift_under_raising(i, word, reps) == 0

    @pytest.mark.parametrize("family,n", [("A1", 1), ("A2even", 1)])
    def test_zero_raising_follows_head_displacement(self, family, n):
        crystal = perfect_crystal(family, n)
        for word in all_words(crystal, 3):
            eps = word.epsilon(0)
            for reps in range(1, eps + 1):
                shift = energy_shift_under_raising(0, word, reps)
                raised = word
                for _ in range(reps):
                    raised = raised.e(0)
                displacement = self._heads_distance(
                    crystal, word.factor(len(word)), raised.factor(len(word)), reps
                )
                assert displacement is not None
                assert shift == len(word) * displacement - reps

    def test_triple_zero_letter_example(self):
        crystal = perfect_crystal("A1", 1)
        word = TensorWord(crystal, ("0", "0", "0"))
        assert energy_shift_under_raising(0, word, 1) == -1

    def test_raises_when_raising_dies(self):
        crystal = perfect_crystal("A1", 1)
        word = TensorWord(crystal, ("1", "1"))
        with pytest.raises(ValueError):
            energy_shift_under_raising(0, word, 1)
