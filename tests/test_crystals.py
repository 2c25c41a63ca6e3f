"""Tests for perfect crystal graphs, weights, and local energies."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from brute import reference_energy, reference_weights, simple_root, symmetric_energy

import demchar
from demchar.crystals import (
    PerfectCrystal,
    barred,
    perfect_crystal,
    symmetric_crystal,
    verify_perfect,
)
from demchar.paths import GroundState
from demchar.weights import Weight, cartan_type, dominant_classical_weights

def phi_weight(crystal, b):
    return Weight(crystal.phi_table[crystal.index(b)])


def sigma(crystal, lam):
    """The weight automorphism: the first window weight of lam's ground state."""
    return GroundState(crystal, lam).window_weight(1)


def sigma_period(crystal, lam):
    return GroundState(crystal, lam).period()


CRYSTAL_KEYS = [
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

EXPECTED_SIZES = {
    "A1": lambda n: n + 1,
    "B1": lambda n: 2 * n + 1,
    "D1": lambda n: 2 * n,
    "A2odd": lambda n: 2 * n,
    "A2even": lambda n: 2 * n + 1,
    "D2": lambda n: 2 * n + 2,
}


@pytest.mark.parametrize("family,n", CRYSTAL_KEYS)
class TestStructure:
    def test_size(self, family, n):
        assert len(perfect_crystal(family, n)) == EXPECTED_SIZES[family](n)

    def test_ef_inverse(self, family, n):
        crystal = perfect_crystal(family, n)
        for i in crystal.cartan.index_set:
            for b in crystal.elements:
                image = crystal.f(i, b)
                if image is not None:
                    assert crystal.e(i, image) == b
                back = crystal.e(i, b)
                if back is not None:
                    assert crystal.f(i, back) == b

    def test_weights_have_level_zero(self, family, n):
        crystal = perfect_crystal(family, n)
        for b in crystal.elements:
            w = crystal.weight(b)
            assert crystal.cartan.level(w) == 0
            assert w.delta_coord == 0

    def test_weight_equals_phi_minus_epsilon(self, family, n):
        crystal = perfect_crystal(family, n)
        for b in crystal.elements:
            expected = phi_weight(crystal, b) - crystal.epsilon_weight(b)
            assert crystal.weight(b).lambda_coords == expected.lambda_coords

    def test_arrows_shift_weight_by_simple_root(self, family, n):
        crystal = perfect_crystal(family, n)
        ct = crystal.cartan
        for i in ct.index_set:
            root = simple_root(ct, i)
            for b in crystal.elements:
                image = crystal.f(i, b)
                if image is not None:
                    diff = crystal.weight(b) - crystal.weight(image)
                    assert diff.lambda_coords == root.lambda_coords

    def test_string_lengths_consistent_with_arrows(self, family, n):
        crystal = perfect_crystal(family, n)
        for i in crystal.cartan.index_set:
            for b in crystal.elements:
                assert (crystal.f(i, b) is not None) == (crystal.phi(i, b) > 0)
                assert (crystal.e(i, b) is not None) == (crystal.epsilon(i, b) > 0)
                image = crystal.f(i, b)
                if image is not None:
                    assert crystal.phi(i, image) == crystal.phi(i, b) - 1
                    assert crystal.epsilon(i, image) == crystal.epsilon(i, b) + 1

    def test_perfect_of_level_one(self, family, n):
        crystal = perfect_crystal(family, n)
        ct = crystal.cartan
        minimal = [b for b in crystal.elements if ct.level(crystal.epsilon_weight(b)) == 1]
        dominants = {w.lambda_coords for w in dominant_classical_weights(ct, 1)}
        eps_images = {crystal.epsilon_weight(b).lambda_coords for b in minimal}
        phi_images = {phi_weight(crystal, b).lambda_coords for b in minimal}
        assert len(minimal) == len(dominants)
        assert eps_images == dominants
        assert phi_images == dominants

    def test_sigma_permutes_dominants(self, family, n):
        crystal = perfect_crystal(family, n)
        level_one = dominant_classical_weights(crystal.cartan, 1)
        dominants = {w.lambda_coords for w in level_one}
        images = {sigma(crystal, w).lambda_coords for w in level_one}
        assert images == dominants


class TestFrozenDetails:
    def test_two_step_zero_string_through_middle(self):
        crystal = perfect_crystal("B1", 3)
        assert crystal.phi(3, "3") == 2
        assert crystal.epsilon(3, "3~") == 2
        assert crystal.phi(3, "0") == 1
        assert crystal.epsilon(3, "0") == 1

    def test_ground_elements(self):
        cases = [
            ("A1", 2, 0, "2"),
            ("A1", 2, 1, "0"),
            ("A1", 2, 2, "1"),
            ("B1", 3, 0, barred(1)),
            ("B1", 3, 1, "1"),
            ("B1", 3, 3, "0"),
            ("D1", 4, 0, barred(1)),
            ("D1", 4, 1, "1"),
            ("D1", 4, 3, barred(4)),
            ("D1", 4, 4, "4"),
            ("A2odd", 3, 0, barred(1)),
            ("A2odd", 3, 1, "1"),
            ("A2even", 2, 2, "0"),
            ("D2", 2, 0, "phi"),
            ("D2", 2, 2, "0"),
        ]
        for family, n, node, expected in cases:
            crystal = perfect_crystal(family, n)
            lam = crystal.cartan.fundamental_weight(node)
            assert crystal.ground_element(lam) == expected

    def test_sigma_values(self):
        a1 = perfect_crystal("A1", 2)
        for i in range(3):
            lam = a1.cartan.fundamental_weight(i)
            assert sigma(a1, lam).lambda_coords == a1.cartan.fundamental_weight((i - 1) % 3).lambda_coords
        assert sigma_period(a1, a1.cartan.fundamental_weight(0)) == 3

        b1 = perfect_crystal("B1", 3)
        l0, l1, l3 = (b1.cartan.fundamental_weight(i) for i in (0, 1, 3))
        assert sigma(b1, l0).lambda_coords == l1.lambda_coords
        assert sigma(b1, l1).lambda_coords == l0.lambda_coords
        assert sigma(b1, l3).lambda_coords == l3.lambda_coords
        assert sigma_period(b1, l0) == 2
        assert sigma_period(b1, l3) == 1

        d2 = perfect_crystal("D2", 2)
        for i in (0, 2):
            lam = d2.cartan.fundamental_weight(i)
            assert sigma(d2, lam).lambda_coords == lam.lambda_coords

        a2e = perfect_crystal("A2even", 2)
        lam = a2e.cartan.fundamental_weight(2)
        assert sigma_period(a2e, lam) == 1

    def test_energy_values(self):
        b1 = perfect_crystal("B1", 3)
        assert b1.energy("0", "0") == 0
        assert b1.energy("1", barred(1)) == -1
        assert b1.energy("1", "1") == 1
        assert b1.energy("1", "2") == 0
        assert b1.energy(barred(1), "1") == 1
        assert b1.energy("3", "0") == 0
        assert b1.energy("0", "3") == 1

        d1 = perfect_crystal("D1", 4)
        assert d1.energy("4", barred(4)) == 0
        assert d1.energy(barred(4), "4") == 0
        assert d1.energy("4", "4") == 1
        assert d1.energy("1", barred(1)) == -1

        d2 = perfect_crystal("D2", 2)
        assert d2.energy("phi", "phi") == 0
        assert d2.energy("1", "phi") == 1
        assert d2.energy("phi", "1") == 1
        assert d2.energy("0", "0") == 0
        assert d2.energy("1", "1") == 2
        assert d2.energy("1", "2") == 0
        assert d2.energy("2", "1") == 2

        a2e = perfect_crystal("A2even", 1)
        assert a2e.energy("0", "0") == 0
        assert a2e.energy("1", barred(1)) == 0
        assert a2e.energy(barred(1), "1") == 1

    def test_a1_energy_order_rule(self):
        a1 = perfect_crystal("A1", 2)
        for b in a1.elements:
            for bp in a1.elements:
                assert a1.energy(b, bp) == (0 if int(b) < int(bp) else 1)

    def test_dot_output_is_deterministic(self):
        first = perfect_crystal("D2", 2).to_dot()
        second = perfect_crystal("D2", 2).to_dot()
        assert first == second
        assert first.count("->") == 6
        assert '"phi" -> "1" [label="0"];' in first


MIN_RANK = {"A1": 1, "B1": 3, "D1": 4, "A2odd": 3, "A2even": 1, "D2": 2}

ENERGY_REFERENCE_KEYS = [
    (family, n) for family, low in MIN_RANK.items() for n in range(low, low + 4)
] + [("sym", n, l) for n in (1, 2, 3) for l in (1, 2, 3, 4)]


@pytest.mark.parametrize("key", ENERGY_REFERENCE_KEYS, ids=lambda k: "-".join(map(str, k)))
def test_energy_matches_hand_written_rules(key):
    """The energy walked from the arrows equals the rules written out in
    ``brute`` on every two-letter word."""
    if key[0] == "sym":
        crystal = symmetric_crystal(*key[1:])
        words = [(x, y) for x in crystal.elements for y in crystal.elements]
        expected = {(x, y): symmetric_energy(x, y) for x, y in words}
    else:
        crystal = perfect_crystal(*key)
        expected = reference_energy(*key)
    walked = {(b, bp): crystal.energy(b, bp) for b in crystal.elements for bp in crystal.elements}
    assert walked == expected


@pytest.mark.parametrize("key", ENERGY_REFERENCE_KEYS, ids=lambda k: "-".join(map(str, k)))
def test_weights_match_hand_written_rules(key):
    """The weights read off the arrows equal the per-letter weights
    written out in ``brute``; a symmetric-power word weighs the sum of
    its letters."""
    if key[0] == "sym":
        crystal = symmetric_crystal(*key[1:])
        letters = reference_weights("A1", key[1])
        expected = {
            word: tuple(map(sum, zip(*(letters[str(k)] for k in word))))
            for word in crystal.elements
        }
    else:
        crystal = perfect_crystal(*key)
        expected = reference_weights(*key)
    assert {b: crystal.weight_table[crystal.index(b)] for b in crystal.elements} == expected


class TestConstructorChecks:
    def test_empty_crystal_rejected(self):
        with pytest.raises(ValueError, match="^empty: no elements"):
            PerfectCrystal(cartan_type("A1", 1), [], {}, "empty", 0)

    def test_disconnected_words_rejected(self):
        ct = cartan_type("A1", 1)
        with pytest.raises(ValueError, match=r"^two letters: .*not connected; pair \('a', 'b'\)"):
            PerfectCrystal(ct, ["a", "b"], {}, "two letters", 1)

    def test_two_energies_for_one_pair_rejected(self):
        # f_0 and f_1 both take a to b, so (b, a) is reached from (a, a)
        # once with H lowered by the 0-arrow and once with H kept.
        ct = cartan_type("A1", 1)
        arrows = {(0, "a"): "b", (1, "a"): "b"}
        with pytest.raises(ValueError, match=r"^double: pair \('b', 'a'\) reached with energies"):
            PerfectCrystal(ct, ["a", "b"], arrows, "double", 1)

    def test_arrow_to_foreign_letter_rejected(self):
        ct = cartan_type("A1", 1)
        arrows = {(1, "a"): "b", (0, "b"): "z"}
        with pytest.raises(ValueError, match=r"^foreign: arrow \(0, 'b'\) -> 'z'.*not in the elements"):
            PerfectCrystal(ct, ["a", "b"], arrows, "foreign", 1)

    def test_arrow_at_foreign_node_rejected(self):
        ct = cartan_type("A1", 1)
        arrows = {(1, "a"): "b", (0, "b"): "a", (5, "a"): "b"}
        with pytest.raises(ValueError, match=r"^node 5: arrow \(5, 'a'\) -> 'b'.*outside the nodes \[0, 1\]"):
            PerfectCrystal(ct, ["a", "b"], arrows, "node 5", 1)


class TestRankChecks:
    BUILDERS = {
        "cartan_type": lambda n: cartan_type("A1", n),
        "perfect_crystal": lambda n: perfect_crystal("A1", n),
        "symmetric_crystal": lambda n: symmetric_crystal(n, 1),
    }

    @pytest.mark.parametrize("builder", sorted(BUILDERS))
    @pytest.mark.parametrize("bad", [True, 1.0, "1"], ids=repr)
    def test_non_int_rank_rejected(self, builder, bad):
        # True and 1.0 equal 1, so they would find the rank-1 entry of a
        # cache that had it; the check comes before the lookup.
        with pytest.raises(ValueError, match="rank n must be an int"):
            self.BUILDERS[builder](bad)

    @pytest.mark.parametrize("bad", [True, 2.0, -1], ids=repr)
    def test_bad_symmetric_level_rejected(self, bad):
        with pytest.raises(ValueError, match="level l must be"):
            symmetric_crystal(1, bad)

    def test_bad_rank_leaves_no_cache_entry(self):
        # A fresh process, so that no rank-1 entry is cached yet: a bad
        # rank first, then the good one it compares equal to.
        src = str(Path(demchar.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
        code = (
            "from demchar.crystals import perfect_crystal, symmetric_crystal\n"
            "from demchar.formulas import verify_type\n"
            "for call in (lambda: perfect_crystal('A1', True), lambda: symmetric_crystal(1.0, True)):\n"
            "    try:\n"
            "        call()\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n"
            "report = verify_type(perfect_crystal('A1', 1), 1)\n"
            "print(report['mismatches'], symmetric_crystal(1, 1).name)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "rank n must be an int, got True",
            "rank n must be an int, got 1.0",
            "[] A1 n=1 sym l=1",
        ]


class TestSymmetricCrystal:
    def test_size(self):
        for n, l in [(1, 1), (1, 3), (2, 2), (3, 2)]:
            assert len(symmetric_crystal(n, l)) == math.comb(n + l, l)

    def test_level_one_matches_basic_crystal(self):
        basic = perfect_crystal("A1", 2)
        sym = symmetric_crystal(2, 1)
        relabel = {(k,): str(k) for k in range(3)}
        for word, label in relabel.items():
            assert sym.weight(word).lambda_coords == basic.weight(label).lambda_coords
            for other, other_label in relabel.items():
                assert sym.energy(word, other) == basic.energy(label, other_label)
        for i in range(3):
            for word, label in relabel.items():
                image = sym.f(i, word)
                expected = basic.f(i, label)
                assert (image is None) == (expected is None)
                if image is not None:
                    assert relabel[image] == expected

    def test_operators_move_one_letter(self):
        sym = symmetric_crystal(2, 2)
        assert sym.f(1, (0, 0)) == (0, 1)
        assert sym.f(1, (0, 1)) == (1, 1)
        assert sym.f(1, (1, 1)) is None
        assert sym.f(2, (1, 2)) == (2, 2)
        assert sym.f(0, (2, 2)) == (0, 2)
        assert sym.phi(1, (0, 0)) == 2
        assert sym.epsilon(1, (0, 1)) == 1

    def test_string_counts_are_letter_counts(self):
        sym = symmetric_crystal(2, 3)
        for word in sym.elements:
            for i in range(3):
                src = (i - 1) % 3
                assert sym.phi(i, word) == word.count(src)
                assert sym.epsilon(i, word) == word.count(i if i else 0)

    def test_ground_element_is_top_word(self):
        for n, l in [(1, 2), (2, 1), (2, 3), (3, 2)]:
            sym = symmetric_crystal(n, l)
            lam = Weight(tuple(l if i == 0 else 0 for i in range(n + 1)))
            assert sym.ground_element(lam) == (n,) * l

    def test_energy_normalization(self):
        sym = symmetric_crystal(2, 3)
        top = (2, 2, 2)
        assert sym.energy(top, top) == 3
        assert sym.energy((0, 0, 0), (1, 1, 1)) == 0
        assert sym.energy((1, 1, 1), (0, 0, 0)) == 3
        assert sym.energy((0, 1, 2), (0, 1, 2)) == 1

    def test_weights_consistent(self):
        sym = symmetric_crystal(2, 2)
        for word in sym.elements:
            expected = phi_weight(sym, word) - sym.epsilon_weight(word)
            assert sym.weight(word).lambda_coords == expected.lambda_coords
            assert sym.cartan.level(sym.weight(word)) == 0


class TestVerifyPerfect:
    @pytest.mark.parametrize("family,n", CRYSTAL_KEYS)
    def test_level_one_checks_pass(self, family, n):
        crystal = perfect_crystal(family, n)
        report = verify_perfect(crystal, 1)
        assert report.ok, report.failures

    def test_ground_map_and_sigma(self):
        crystal = perfect_crystal("A1", 1)
        report = verify_perfect(crystal, 1)
        l0 = cartan_type("A1", 1).fundamental_weight(0)
        l1 = cartan_type("A1", 1).fundamental_weight(1)
        assert report.ok
        assert crystal.ground_element(l0) == "1"
        assert sigma(crystal, l0) == l1

    def test_sigma_fixes_middle_node_weight(self):
        crystal = perfect_crystal("B1", 3)
        ln = cartan_type("B1", 3).fundamental_weight(3)
        assert verify_perfect(crystal, 1).ok
        assert sigma(crystal, ln) == ln

    def test_unique_dominant_for_even_twisted_a(self):
        from demchar.weights import dominant_classical_weights

        ct = cartan_type("A2even", 2)
        doms = dominant_classical_weights(ct, 1)
        assert doms == [ct.fundamental_weight(ct.n)]
        crystal = perfect_crystal("A2even", 2)
        assert verify_perfect(crystal, 1).ok
        assert sigma(crystal, doms[0]) == doms[0]

    def test_wrong_level_reports_failures(self):
        crystal = perfect_crystal("A1", 2)
        report = verify_perfect(crystal, 2)
        assert not report.ok
        assert any("epsilon level below" in msg for msg in report.failures)
