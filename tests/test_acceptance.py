"""Acceptance gate: one test per top-level guarantee, all exact.

Each test prints one pass/fail line under ``pytest -v``.  The checks
are self-contained restatements of the guarantees, driven by
independent oracles where one exists (partition counts, charge
statistic, semistandard tableaux).
"""

import json
import random

from brute import all_words, check_2m_relation, enumerate_paths, reflect, simple_root
from oracles import (
    colored_partition_counts,
    kostka_foulkes_by_charge,
    kostka_number,
    partition_count,
    partitions_of,
)

from demchar.cli import main as cli_main
from demchar.crystals import perfect_crystal
from demchar.demazure import (
    character_by_operators,
    character_by_paths,
    demazure_schedule,
)
from demchar.formulas import verify_type
from demchar.onedsums import (
    check_disjoint_decomposition,
    g_enumerate,
    g_recursive,
    kostka,
    stabilized_limit,
    tail_weight_support,
    x_by_weyl_sum,
    x_enumerate,
    x_recursive,
)
from demchar.paths import GroundState, schedule_words
from demchar.qring import ZERO, LaurentPoly
from demchar.weights import Weight, dominant_classical_weights

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
    (family, rank, node)
    for family, rank in MINIMAL_RANKS
    for node in schedule_words(perfect_crystal(family, rank))
]


def level_zero_weights(crystal, j):
    return [Weight(coords) for coords in sorted(tail_weight_support(crystal, j))]


def classical_dominants(crystal, j):
    out = {Weight((0,) * crystal.cartan.size)}
    for coords in tail_weight_support(crystal, j):
        if all(c >= 0 for c in coords[1:]):
            out.add(Weight((0,) + coords[1:]))
    return sorted(out, key=lambda w: w.lambda_coords)


def test_01_closed_forms_match_path_enumeration_every_cell():
    """Every family at minimal rank: the q-multinomial closed form equals
    direct path enumeration (and the recursion) for every boundary
    letter and every reachable window weight, windows up to 4."""
    for family, rank in MINIMAL_RANKS:
        report = verify_type(family, 4, rank)
        assert report["mismatches"] == [], (family, rank, report["mismatches"])
        assert report["cells_checked"] > 0


def test_02_path_and_operator_characters_agree_along_schedules():
    """For every scheduled highest weight and every step count up to two
    whole segments, the path-set character equals the operator-built
    character exactly."""
    for family, rank, node in SCHEDULED:
        crystal = perfect_crystal(family, rank)
        lam = crystal.cartan.fundamental_weight(node)
        for variant in (1, 2):
            try:
                schedule = demazure_schedule(crystal, lam, variant=variant)
            except ValueError:
                continue
            for k in range(2 * schedule.d + 1):
                assert character_by_paths(schedule, k) == character_by_operators(
                    schedule, k
                ), (family, rank, node, variant, k)


def test_03_recursions_shifts_and_string_identities():
    """Head recursion for the unrestricted sums, the restricted-sum
    recursion, the null-root grading shift, the reflection relation on
    seeded random weights, the schedule-step difference identity, the
    word statistic inequalities on all letter pairs, and bijectivity of
    full-power lowering on small windows."""
    # Head recursion: enumeration equals the memoized recursion.
    for family, rank in MINIMAL_RANKS:
        crystal = perfect_crystal(family, rank)
        for j in range(4):
            for b in crystal.elements:
                for mu in level_zero_weights(crystal, j):
                    assert g_enumerate(crystal, b, mu, j) == g_recursive(
                        crystal, b, mu, j
                    )

    # Restricted sums: enumeration equals recursion, both variants.
    for family, rank in [("A1", 1), ("A2even", 1), ("D2", 2)]:
        crystal = perfect_crystal(family, rank)
        doms_affine = list(dominant_classical_weights(crystal.cartan, 1))
        doms_classical = classical_dominants(crystal, 2)[:4]
        for b in crystal.elements:
            for j in range(4):
                for xi in doms_affine:
                    for eta in doms_affine:
                        assert x_enumerate(crystal, b, xi, eta, j) == x_recursive(
                            crystal, b, xi, eta, j
                        )
                for xi in doms_classical[:2]:
                    for eta in doms_classical:
                        assert x_enumerate(
                            crystal, b, xi, eta, j, classical=True
                        ) == x_recursive(crystal, b, xi, eta, j, classical=True)

    # Null-root coordinate shifts the grading by a plain q-power.
    for family, rank in [("A1", 1), ("D2", 2)]:
        crystal = perfect_crystal(family, rank)
        for mu in level_zero_weights(crystal, 2)[:4]:
            base = g_recursive(crystal, crystal.elements[0], mu, 2)
            for t in (1, -1, 3):
                shifted = g_recursive(
                    crystal, crystal.elements[0], Weight(mu.lambda_coords, t), 2
                )
                assert shifted == base.shift(t)

    # Reflection relation: all letters, all nodes, 20 seeded weights.
    for family, rank in MINIMAL_RANKS:
        crystal = perfect_crystal(family, rank)
        rng = random.Random(f"gate:{family}:{rank}")
        pool = level_zero_weights(crystal, 3)
        for _ in range(20):
            mu = rng.choice(pool)
            j = rng.randint(0, 3)
            for b in crystal.elements:
                for i in crystal.cartan.index_set:
                    assert check_2m_relation(crystal, b, i, mu, j), (
                        family, rank, b, i, mu, j,
                    )

    # Schedule-step difference identity.
    for family, rank, node in SCHEDULED:
        crystal = perfect_crystal(family, rank)
        ct = crystal.cartan
        schedule = demazure_schedule(crystal, ct.fundamental_weight(node))
        gs = schedule.ground
        rho = Weight((1,) * ct.size)
        for j in (1, 2, 3):
            sets = schedule.leading_sets(j)
            head = gs.bar(j + 1)
            lam_j = gs.window_weight(j)
            mus = level_zero_weights(crystal, min(j, 2))[:4]
            for a in range(schedule.d):
                i = schedule.index(j, a + 1)
                alpha = simple_root(ct, i)
                for mu in mus:
                    def term(b, arg):
                        return g_recursive(crystal, b, arg, j - 1).shift(
                            j * crystal.energy(head, b)
                        )

                    lhs = ZERO
                    for b in sorted(sets[a + 1] - sets[a], key=crystal.index):
                        lhs = lhs + term(b, mu - crystal.weight(b))
                    first = ZERO
                    for b in sorted(sets[a + 1], key=crystal.index):
                        first = first + term(b, mu + alpha - crystal.weight(b))
                    second = ZERO
                    for b in sorted(sets[a], key=crystal.index):
                        arg = (
                            reflect(ct, mu + rho + lam_j, i)
                            - lam_j
                            - rho
                            - crystal.weight(b)
                        )
                        second = second + term(b, arg)
                    assert lhs == first - second, (family, rank, node, j, a, mu)

    # Word statistic inequalities, exhaustive over letter pairs.
    for family, rank in MINIMAL_RANKS:
        crystal = perfect_crystal(family, rank)
        for word in all_words(crystal, 2):
            for i in crystal.cartan.index_set:
                b1, b2 = word.factor(2), word.factor(1)
                assert word.phi(i) >= crystal.phi(i, b1) + crystal.weight(
                    b2
                ).pairing(i)
                assert word.epsilon(i) >= -word.weight().pairing(i)

    # Full-power lowering is a bijection between the two path unions.
    for family, rank in [("A1", 1), ("A2even", 1)]:
        crystal = perfect_crystal(family, rank)
        ct = crystal.cartan
        for j in (1, 2):
            for b in crystal.elements:
                for i in ct.index_set:
                    m = crystal.phi(i, b)
                    for mu in level_zero_weights(crystal, j):
                        power = mu.pairing(i) + m
                        if power < 0:
                            continue
                        alpha = simple_root(ct, i)
                        domain, target = [], set()
                        cur = b
                        for t in range(m + 1):
                            domain.extend(
                                enumerate_paths(
                                    crystal, cur, (mu + t * alpha).classical(), j
                                )
                            )
                            target.update(
                                enumerate_paths(
                                    crystal,
                                    cur,
                                    reflect(ct, mu + (m - t) * alpha, i).classical(),
                                    j,
                                )
                            )
                            if t < m:
                                cur = crystal.f(i, cur)
                        images = []
                        for word in domain:
                            img = word
                            for _ in range(power):
                                img = img.f(i)
                                assert img is not None
                            images.append(img)
                        assert len(set(images)) == len(images)
                        assert set(images) == target


def test_04_signed_reflection_sums_match_direct_restriction():
    """The determinant-signed superposition of unrestricted sums equals
    direct restricted enumeration: classically over the finite
    reflection group, and at the affine nodes for common levels one and
    two, each a finite sum over the tail weights folded into the
    dominant chamber."""
    for family, rank in [("A1", 1), ("A1", 2)]:
        crystal = perfect_crystal(family, rank)
        doms = classical_dominants(crystal, 3)
        for b in crystal.elements:
            for xi in doms[:4]:
                for eta in doms[:4]:
                    for j in range(4):
                        assert x_by_weyl_sum(
                            crystal, b, xi, eta, j, classical=True
                        ) == x_enumerate(crystal, b, xi, eta, j, classical=True)
        for level in (1, 2):
            affine = list(dominant_classical_weights(crystal.cartan, level))
            for b in crystal.elements:
                for xi in affine:
                    for eta in affine:
                        for j in range(4):
                            lhs = x_by_weyl_sum(crystal, b, xi, eta, j)
                            assert lhs == x_enumerate(crystal, b, xi, eta, j), (
                                family, rank, level, b, xi, eta, j,
                            )


def test_05_non_admissible_letters_always_split_into_lowering_strings():
    """For every family at minimal rank and every level-one dominant
    weight, the letters failing admissibility decompose into disjoint
    full lowering strings."""
    for family, rank in MINIMAL_RANKS:
        crystal = perfect_crystal(family, rank)
        for xi in dominant_classical_weights(crystal.cartan, 1):
            report = check_disjoint_decomposition(crystal, xi)
            assert report.found, (family, rank, xi)
            covered = [b for _, _, string in report.witness for b in string]
            assert sorted(covered, key=crystal.index) == sorted(
                report.non_admissible, key=crystal.index
            )


def test_06_tableau_polynomials_match_charge_oracle():
    """The restricted-sum realization of the tableau q-polynomials
    agrees with an independent charge-statistic oracle for every shape
    through weight six at ranks up to three, reproduces the hook-shape
    value q + q^2, and counts semistandard tableaux at q = 1."""
    hook = kostka((2, 1), 1, 3, 2)
    assert hook == LaurentPoly.from_terms([(1, 1), (2, 1)])
    for j in range(7):
        for n in (1, 2, 3):
            for shape in partitions_of(j):
                if len(shape) > n + 1:
                    continue
                value = kostka(shape, 1, j, n)
                got = {int(e): c for e, c in value.terms()}
                want = kostka_foulkes_by_charge(shape, (1,) * j)
                assert got == want, (shape, j, n, got, want)
                assert sum(got.values()) == kostka_number(shape, (1,) * j)


def test_07_string_functions_stabilize_to_partition_counts():
    """Degree-5 string-function truncations: the two-letter chain
    reaches the partition numbers 1,1,2,3,5,7 within window 12, the
    three-letter chain reaches the two-color partition counts
    1,2,5,10,20,36, and the committed limits agree with directly
    computed larger windows."""

    def window_value(crystal, gs, size, j):
        return (
            g_recursive(crystal, gs.bar(j + 1), Weight.zero(size), j)
            .shift(-gs.c(j))
            .truncate(5)
        )

    targets = {
        1: [partition_count(m) for m in range(6)],
        2: colored_partition_counts(2, 5),
    }
    limits = {}
    for rank, expected in targets.items():
        crystal = perfect_crystal("A1", rank)
        lam = crystal.cartan.fundamental_weight(0)
        limit = stabilized_limit("g", crystal, lam, 5)
        limits[rank] = limit
        assert [int(limit.coeff(m)) for m in range(6)] == list(expected), rank
        # Self-consistency: a larger window reproduces the limit.
        gs = GroundState(crystal, lam)
        j = 24 - (24 % gs.period())
        assert window_value(crystal, gs, rank + 1, j) == limit, rank

    # The two-letter chain is already stable at windows 10 and 12.
    crystal = perfect_crystal("A1", 1)
    gs = GroundState(crystal, crystal.cartan.fundamental_weight(0))
    assert window_value(crystal, gs, 2, 10) == limits[1]
    assert window_value(crystal, gs, 2, 12) == limits[1]


def test_08_cli_output_is_byte_stable_across_runs_and_threads(tmp_path):
    """Representative commands of every output shape produce identical
    bytes on repeat runs; every command runs on one thread, and there is
    no option to ask for more."""
    commands = [
        ["graph", "D2", "2", "--format", "json"],
        ["character", "B1", "3", "--lambda", "L0", "--k", "5", "--method", "both"],
        ["onedsum", "g", "--type", "A1", "--rank", "2", "--b", "0", "--j", "3",
         "--mu", "0,0,0"],
        ["kostka", "--xi", "3,2,1", "--l", "1", "--j", "6", "--n", "2"],
        ["stringfn", "--type", "A1", "--rank", "1", "--lambda", "L0", "--M", "4"],
        ["verify", "formulas", "--type", "A2even", "--rank", "1", "--jmax", "3"],
        ["decomp-search", "--type", "B1", "--rank", "3"],
    ]
    for idx, argv in enumerate(commands):
        first = tmp_path / f"{idx}-a"
        second = tmp_path / f"{idx}-b"
        assert cli_main(argv + ["--out", str(first)]) == 0, argv
        assert cli_main(argv + ["--out", str(second)]) == 0, argv
        assert first.read_bytes() == second.read_bytes(), argv
        json.loads(first.read_text())
