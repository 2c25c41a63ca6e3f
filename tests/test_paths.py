"""Tests for ground-state data, truncated paths, and scheduled growth."""

import gc
import weakref
from dataclasses import replace
from itertools import islice, product

import pytest

from brute import (
    WeylAction,
    enumerate_paths,
    reference_index,
    reference_words,
    sigma,
    simple_root,
)

from demchar import paths
from demchar.crystals import perfect_crystal
from demchar.paths import (
    ConditionReport,
    GroundState,
    demazure_schedule,
    grow_paths,
    paths_at_step,
    schedule_words,
)
from demchar.weights import Weight, cartan_type, dominant_classical_weights

SCHEDULED = [
    ("A1", 1, 0),
    ("A1", 2, 0),
    ("B1", 3, 0),
    ("B1", 3, 3),
    ("D1", 4, 0),
    ("A2odd", 3, 0),
    ("A2even", 1, 1),
    ("A2even", 2, 2),
    ("D2", 2, 0),
]


def make_ground_state(family, n, node):
    crystal = perfect_crystal(family, n)
    lam = crystal.cartan.fundamental_weight(node)
    return GroundState(crystal, lam)


class TestGroundState:
    def test_rejects_non_level_one(self):
        crystal = perfect_crystal("A1", 1)
        with pytest.raises(ValueError):
            GroundState(crystal, Weight((1, 1)))
        with pytest.raises(ValueError):
            GroundState(crystal, Weight((2, -1)))

    def test_a1_letters_and_windows(self):
        gs = make_ground_state("A1", 2, 0)
        assert [gs.bar(k) for k in range(1, 5)] == ["2", "1", "0", "2"]
        for j in range(5):
            expected = gs.crystal.cartan.fundamental_weight((-j) % 3)
            assert gs.window_weight(j).lambda_coords == expected.lambda_coords
        assert gs.period() == 3

    def test_holds_one_period(self):
        # Letters and window weights repeat with the period, so a far
        # window reads the first period and extends nothing.
        gs = make_ground_state("A1", 2, 0)
        assert gs.window_weight(3 * 10**9 + 1) is gs.window_weight(1)
        assert gs.bar(3 * 10**9 + 2) == gs.bar(2)

    def test_alternating_letters(self):
        for family, n in [("B1", 3), ("D1", 4), ("A2odd", 3)]:
            gs = make_ground_state(family, n, 0)
            assert gs.bar(1) == "1~"
            assert gs.bar(2) == "1"
            assert gs.bar(3) == "1~"
            assert gs.period() == 2

    def test_constant_letters(self):
        for family, n, node, letter in [
            ("B1", 3, 3, "0"),
            ("A2even", 2, 2, "0"),
            ("D2", 2, 0, "phi"),
        ]:
            gs = make_ground_state(family, n, node)
            assert all(gs.bar(k) == letter for k in range(1, 5))
            assert gs.period() == 1

    def test_energy_normalizations(self):
        a1 = make_ground_state("A1", 1, 0)
        assert [a1.c(j) for j in range(5)] == [0, 0, 2, 2, 6]
        a1b = make_ground_state("A1", 2, 0)
        assert [a1b.c(j) for j in range(7)] == [0, 0, 0, 3, 3, 3, 9]
        b1 = make_ground_state("B1", 3, 0)
        assert [b1.c(j) for j in range(5)] == [0, -1, 1, -2, 2]
        for family, n, node in [("B1", 3, 3), ("A2even", 2, 2), ("D2", 2, 0)]:
            gs = make_ground_state(family, n, node)
            assert [gs.c(j) for j in range(5)] == [0] * 5

    def test_energy_normalization_out_of_order(self):
        gs = make_ground_state("B1", 3, 0)
        assert gs.c(4) == 2
        assert [gs.c(j) for j in range(5)] == [0, -1, 1, -2, 2]
        with pytest.raises(ValueError):
            gs.c(-1)

    def test_energy_memo_does_not_keep_ground_state_alive(self):
        gs = make_ground_state("B1", 3, 0)
        assert gs.c(3) == -2
        ref = weakref.ref(gs)
        del gs
        gc.collect()
        assert ref() is None

    @pytest.mark.parametrize("family,n,node", SCHEDULED)
    def test_window_weight_matches_telescoped_letters(self, family, n, node):
        gs = make_ground_state(family, n, node)
        running = gs.lam
        for k in range(1, 9):
            running = running - gs.crystal.weight(gs.bar(k))
            assert gs.window_weight(k).lambda_coords == running.lambda_coords

    @pytest.mark.parametrize("family,n,node", SCHEDULED)
    def test_ground_word_has_weight_lambda(self, family, n, node):
        gs = make_ground_state(family, n, node)
        for j in range(5):
            word = tuple(gs.bar(k) for k in range(j, 0, -1))
            w = gs.path_weight(j, word)
            assert w.lambda_coords == gs.lam.lambda_coords
            assert w.delta_coord == 0

    def test_path_weight_drops_with_energy(self):
        gs = make_ground_state("A1", 1, 0)
        # window 2 word (0, 1) is the ground word; (1, 0) is excited
        ground = gs.path_weight(2, ("0", "1"))
        excited = gs.path_weight(2, ("1", "0"))
        assert ground.delta_coord == 0
        assert excited.delta_coord < 0


class TestTruncatedOperators:
    def test_raising_never_selects_boundary(self):
        gs = make_ground_state("B1", 3, 0)
        crystal = gs.crystal
        words = [(a, b) for a in crystal.elements for b in crystal.elements]
        for word in words:
            for i in crystal.cartan.index_set:
                raised = gs.path_e(2, word, i)
                if raised is not None:
                    assert len(raised) == 2

    def test_operators_invert(self):
        gs = make_ground_state("D2", 2, 0)
        crystal = gs.crystal
        for word in product(crystal.elements, repeat=2):
            for i in crystal.cartan.index_set:
                raised = gs.path_e(2, word, i)
                if raised is not None:
                    assert gs.path_f(2, raised, i) == word

    def test_boundary_blocks_raising_of_highest_path(self):
        gs = make_ground_state("A1", 2, 0)
        word = (gs.bar(2), gs.bar(1))
        for i in gs.crystal.cartan.index_set:
            assert gs.path_e(2, word, i) is None

    def test_lowering_changes_weight_by_simple_root(self):
        gs = make_ground_state("A2odd", 3, 0)
        ct = gs.crystal.cartan
        word = (gs.bar(2), gs.bar(1))
        for i in ct.index_set:
            lowered = gs.path_f(2, word, i)
            if lowered is not None:
                diff = gs.path_weight(2, word) - gs.path_weight(2, lowered)
                assert diff == simple_root(ct, i)


@pytest.mark.parametrize("family,n,node", SCHEDULED)
class TestSchedules:
    def test_last_set_is_whole_crystal(self, family, n, node):
        gs = make_ground_state(family, n, node)
        sched = demazure_schedule(gs.crystal, gs.lam)
        for j in (1, 2, 3):
            sets = sched.leading_sets(j)
            assert sets[sched.d] == set(gs.crystal.elements)
            for a in range(sched.d):
                assert sets[a] <= sets[a + 1]

    def test_narrow_window_capacity(self, family, n, node):
        # the boundary never wins the lowering because every current
        # leading factor carries enough raising capacity
        gs = make_ground_state(family, n, node)
        sched = demazure_schedule(gs.crystal, gs.lam)
        for j in (1, 2, 3):
            sets = sched.leading_sets(j)
            lam_j = gs.window_weight(j)
            for a in range(1, sched.d + 1):
                i = sched.index(j, a)
                for b in sets[a - 1]:
                    assert gs.crystal.epsilon(i, b) >= lam_j.pairing(i)

    def test_weyl_words_ascend(self, family, n, node):
        gs = make_ground_state(family, n, node)
        sched = demazure_schedule(gs.crystal, gs.lam)
        ct = gs.crystal.cartan
        elem = WeylAction.identity(ct)
        for k in range(1, 2 * sched.d + 1):
            i = sched.flat_index(k)
            assert elem.is_ascent(i)
            elem = elem.prepend(i)
        assert len(elem.word) == 2 * sched.d
        assert elem.word == sched.weyl_word(2 * sched.d)

    def test_growth_matches_product_structure(self, family, n, node):
        gs = make_ground_state(family, n, node)
        sched = demazure_schedule(gs.crystal, gs.lam)
        crystal = gs.crystal
        steps = list(islice(grow_paths(sched), 2 * sched.d + 1))
        for k, window, words in steps:
            if k == 0:
                assert words == {()}
                continue
            j, a = sched.decompose(k)
            assert window == j
            leading = sched.leading_sets(j)[a]
            expected = {
                (b,) + rest
                for b in leading
                for rest in product(crystal.elements, repeat=j - 1)
            }
            assert words == expected
            assert len(words) == len(leading) * len(crystal) ** (j - 1)

    def test_paths_at_step_agrees_with_generator(self, family, n, node):
        gs = make_ground_state(family, n, node)
        sched = demazure_schedule(gs.crystal, gs.lam)
        window, words = paths_at_step(sched, sched.d)
        assert window == 1
        assert words == {(b,) for b in gs.crystal.elements}


class TestScheduleBookkeeping:
    def test_decompose(self):
        sched = demazure_schedule(perfect_crystal("B1", 3), Weight((1, 0, 0, 0)))
        assert sched.d == 5
        assert sched.decompose(1) == (1, 1)
        assert sched.decompose(5) == (1, 5)
        assert sched.decompose(6) == (2, 1)
        assert sched.decompose(11) == (3, 1)

    def test_weyl_word_order(self):
        sched = demazure_schedule(perfect_crystal("A1", 2), Weight((1, 0, 0)))
        # segment 1 lowers by 0 then 1; the newest reflection is listed first
        assert sched.weyl_word(2) == (1, 0)

    def test_segment_and_step_bounds(self):
        sched = demazure_schedule(perfect_crystal("A1", 2), Weight((1, 0, 0)))
        assert sched.weyl_word(0) == ()
        for j in (0, -1):
            with pytest.raises(ValueError, match=rf"^segment {j} is below 1$"):
                sched.index(j, 1)
        with pytest.raises(ValueError, match="^steps must be nonnegative$"):
            sched.weyl_word(-1)

    def test_scheduled_nodes(self):
        assert tuple(schedule_words(perfect_crystal("B1", 3))) == (0, 3)
        assert tuple(schedule_words(perfect_crystal("A2even", 2))) == (2,)
        assert tuple(schedule_words(perfect_crystal("D2", 2))) == (0,)

    def test_unscheduled_weight_rejected(self):
        # comark 2: no diagram symmetry moves node 2 onto a scheduled node
        crystal = perfect_crystal("B1", 3)
        with pytest.raises(ValueError):
            demazure_schedule(crystal, Weight((0, 0, 1, 0)))

    def test_ground_state_must_sit_at_the_table_node(self):
        crystal = perfect_crystal("A1", 2)
        sched = demazure_schedule(crystal, Weight((1, 0, 0)))
        other = GroundState(crystal, Weight((0, 1, 0)))
        with pytest.raises(ValueError, match="not at node 0"):
            replace(sched, ground=other)


VARIANT_CASES = [("B1", 3, 3), ("D1", 4, 0)]


class TestScheduleVariants:
    @pytest.mark.parametrize("family,n,node", VARIANT_CASES)
    def test_variant_two_exists_only_where_printed(self, family, n, node):
        crystal = perfect_crystal(family, n)
        lam = crystal.cartan.fundamental_weight(node)
        sched = demazure_schedule(crystal, lam, variant=2)
        assert sched.variant == 2

    def test_variant_two_rejected_elsewhere(self):
        for family, n, node in [("A1", 2, 0), ("B1", 3, 0), ("D2", 2, 0)]:
            crystal = perfect_crystal(family, n)
            lam = crystal.cartan.fundamental_weight(node)
            with pytest.raises(ValueError):
                demazure_schedule(crystal, lam, variant=2)

    def test_middle_node_weight_variant_two_index_row(self):
        crystal = perfect_crystal("B1", 3)
        lam = crystal.cartan.fundamental_weight(3)
        sched = demazure_schedule(crystal, lam, variant=2)
        assert [sched.index(1, a) for a in range(1, 6)] == [3, 2, 1, 0, 2]
        canonical = demazure_schedule(crystal, lam)
        assert [canonical.index(1, a) for a in range(1, 6)] == [3, 2, 0, 1, 2]

    def test_fork_family_variant_two_index_row(self):
        crystal = perfect_crystal("D1", 4)
        lam = crystal.cartan.fundamental_weight(0)
        sched = demazure_schedule(crystal, lam, variant=2)
        assert [sched.index(1, a) for a in range(1, 7)] == [0, 2, 3, 4, 2, 0]
        canonical = demazure_schedule(crystal, lam)
        assert [canonical.index(1, a) for a in range(1, 7)] == [0, 2, 4, 3, 2, 0]

    @pytest.mark.parametrize("family,n,node", VARIANT_CASES)
    def test_variant_two_leading_sets_nest_to_full(self, family, n, node):
        gs = make_ground_state(family, n, node)
        sched = demazure_schedule(gs.crystal, gs.lam, variant=2)
        for j in (1, 2):
            sets = sched.leading_sets(j)
            assert sets[0] == {gs.bar(j)}
            assert sets[-1] == set(gs.crystal.elements)
            for small, big in zip(sets, sets[1:]):
                assert small <= big

    @pytest.mark.parametrize("family,n,node", VARIANT_CASES)
    def test_variant_two_capacity_and_ascents(self, family, n, node):
        gs = make_ground_state(family, n, node)
        sched = demazure_schedule(gs.crystal, gs.lam, variant=2)
        ct = gs.crystal.cartan
        elem = WeylAction.identity(ct)
        for k in range(1, 2 * sched.d + 1):
            i = sched.flat_index(k)
            assert elem.is_ascent(i), (family, k)
            elem = elem.prepend(i)
        for j in (1, 2):
            sets = sched.leading_sets(j)
            lam_j = gs.window_weight(j)
            for a in range(1, sched.d + 1):
                i = sched.index(j, a)
                for b in sets[a - 1]:
                    assert gs.crystal.epsilon(i, b) >= lam_j.pairing(i)

    @pytest.mark.parametrize("family,n,node", VARIANT_CASES)
    def test_variants_agree_at_segment_multiples(self, family, n, node):
        gs = make_ground_state(family, n, node)
        first = demazure_schedule(gs.crystal, gs.lam)
        second = demazure_schedule(gs.crystal, gs.lam, variant=2)
        for j in (1, 2):
            k = j * first.d
            window1, words1 = paths_at_step(first, k)
            window2, words2 = paths_at_step(second, k)
            assert window1 == window2 == j
            assert words1 == words2

    @pytest.mark.parametrize("family,n,node", VARIANT_CASES)
    def test_variant_two_growth_matches_products(self, family, n, node):
        gs = make_ground_state(family, n, node)
        sched = demazure_schedule(gs.crystal, gs.lam, variant=2)
        crystal = gs.crystal
        for k, window, words in islice(grow_paths(sched), 1, 2 * sched.d + 1):
            j, a = sched.decompose(k)
            expected = set()
            leading = sched.leading_sets(j)[a]
            for lead in leading:
                for tail in product(crystal.elements, repeat=j - 1):
                    expected.add((lead,) + tail)
            assert words == expected, (family, k)


class TestEnumeratePaths:
    def test_zero_length(self):
        crystal = perfect_crystal("A1", 1)
        zero = Weight((0, 0))
        hits = enumerate_paths(crystal, "0", zero, 0)
        assert [w.factors for w in hits] == [("0",)]
        nonzero = crystal.weight("0").classical()
        assert enumerate_paths(crystal, "0", nonzero, 0) == []

    def test_single_step_filter(self):
        crystal = perfect_crystal("A1", 1)
        mu = crystal.weight("0").classical()
        hits = enumerate_paths(crystal, "0", mu, 1)
        assert [w.factors for w in hits] == [("0", "0")]

    @pytest.mark.parametrize("family,n", [("A1", 1), ("A2even", 1), ("D2", 2)])
    def test_weight_partition_is_complete(self, family, n):
        crystal = perfect_crystal(family, n)
        j = 2
        total = 0
        weights = set()
        for tail in product(crystal.elements, repeat=j):
            acc = Weight.zero(crystal.cartan.size)
            for b in tail:
                acc = acc + crystal.weight(b)
            weights.add(acc.classical())
        head = crystal.elements[0]
        for mu in weights:
            total += len(enumerate_paths(crystal, head, mu, j))
        assert total == len(crystal.elements) ** j


MIN_RANK = {"A1": 1, "B1": 3, "D1": 4, "A2odd": 3, "A2even": 1, "D2": 2}


@pytest.mark.parametrize(
    "family,n",
    [(family, n) for family, low in MIN_RANK.items() for n in range(low, low + 4)],
)
def test_index_matches_per_family_rule(family, n):
    """Every node with its own or a borrowed word, both variants, and
    segments j <= 3 * period + 2: the index carried along the ground-state
    cycle equals the per-family rule, relabelled through node_map."""
    crystal = perfect_crystal(family, n)
    ct = crystal.cartan
    cells, mismatches = 0, []
    for node in ct.index_set:
        for variant in (1, 2):
            try:
                sched = demazure_schedule(crystal, ct.fundamental_weight(node), variant)
            except ValueError:
                continue
            for j in range(1, 3 * sched.ground.period() + 3):
                for a in range(1, sched.d + 1):
                    want = reference_index(family, n, sched.lam_node, variant, j, a)
                    if sched.node_map:
                        want = sched.node_map.index(want)
                    cells += 1
                    if sched.index(j, a) != want:
                        mismatches.append((node, variant, j, a))
    assert cells
    assert mismatches == [], f"{len(mismatches)} of {cells} cells differ"


@pytest.mark.parametrize(
    "family,n",
    [(family, n) for family, low in MIN_RANK.items() for n in range(low, low + 4)],
)
def test_searched_words_match_the_old_table(family, n):
    """Nodes, words and variant order as the hand-written table had them."""
    words = schedule_words(perfect_crystal(family, n))
    assert list(words.items()) == list(reference_words(family, n).items())


@pytest.mark.parametrize(
    "family,n",
    [(family, n) for family, low in MIN_RANK.items() for n in range(low, low + 4)],
)
def test_period_is_the_sigma_cycle(family, n):
    crystal = perfect_crystal(family, n)
    for lam in dominant_classical_weights(crystal.cartan, 1):
        gs = GroundState(crystal, lam)
        cycle = [sigma(crystal, lam)]
        while cycle[-1] != lam:
            cycle.append(sigma(crystal, cycle[-1]))
        assert gs.period() == len(cycle), lam
        assert [gs.window_weight(j) for j in range(1, len(cycle) + 1)] == cycle


class TestWordSearchConditions:
    """The search keeps only words that ``check_conditions`` passes; the
    reports are injected on an uncached search."""

    def test_failing_report_drops_the_word(self, monkeypatch):
        crystal = perfect_crystal("B1", 3)
        first, second = reference_words("B1", 3)[3]
        check = paths.check_conditions

        def fail_first(s, j_max):
            report = check(s, j_max)
            if s.word == first:
                return replace(report, violations=("ascent: injected",))
            return report

        monkeypatch.setattr(paths, "check_conditions", fail_first)
        words = schedule_words.__wrapped__(crystal)
        assert words == {0: reference_words("B1", 3)[0], 3: (second,)}

    def test_no_word_left_names_the_node(self, monkeypatch):
        def fail(s, j_max):
            return ConditionReport(("closure: injected",))

        monkeypatch.setattr(paths, "check_conditions", fail)
        with pytest.raises(
            ValueError,
            match="^no lowering word at node 2 of A2even n=2 passes the growth conditions$",
        ):
            schedule_words.__wrapped__(perfect_crystal("A2even", 2))
