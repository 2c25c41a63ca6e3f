"""Scheduled path-set growth: structural condition checks, the two path
constructions, and the path-sum/operator character equality."""

from dataclasses import dataclass, fields, replace

import pytest

from brute import demazure_op, key, to_keys

from demchar import demazure, formulas, onedsums, weights
from demchar.crystals import perfect_crystal
from demchar.demazure import (
    ConditionReport,
    character_by_operators,
    character_by_paths,
    check_conditions,
    demazure_paths,
    demazure_schedule,
    operator_characters,
)
from demchar.onedsums import character_via_onedsums
from demchar.paths import Schedule, schedule_words
from demchar.weights import FormalCharacter

RANKS = {
    "A1": (1, 2),
    "B1": (3,),
    "D1": (4,),
    "A2odd": (3,),
    "A2even": (1, 2),
    "D2": (2,),
}

# Level-1 nodes at minimal rank without a segment-1 word of their own;
# each borrows one through a diagram symmetry.
RELABELLED = [
    ("A1", 1, 1),
    ("B1", 3, 1),
    ("D1", 4, 1),
    ("D1", 4, 3),
    ("D1", 4, 4),
    ("A2odd", 3, 1),
    ("D2", 2, 2),
]

CASES = [
    (family, n, node)
    for family, ns in RANKS.items()
    for n in ns
    for node in schedule_words(perfect_crystal(family, n))
] + RELABELLED

VARIANT_CASES = [("B1", 3, 3), ("D1", 4, 0)]


def make(family, n, node, variant=1):
    crystal = perfect_crystal(family, n)
    lam = crystal.cartan.fundamental_weight(node)
    return demazure_schedule(crystal, lam, variant)


@dataclass(frozen=True)
class Altered(Schedule):
    """A deliberately broken table: index ``i`` at segment j, step a."""

    at: tuple[int, int, int] = (0, 0, 0)

    def index(self, j: int, a: int) -> int:
        jj, aa, i = self.at
        return i if (j, a) == (jj, aa) else super().index(j, a)


def altered(s, j, a, i):
    return Altered(**{f.name: getattr(s, f.name) for f in fields(s)}, at=(j, a, i))


@pytest.mark.parametrize("family,n,node", CASES)
class TestConditions:
    def test_all_pass(self, family, n, node):
        report = check_conditions(make(family, n, node), 3)
        assert isinstance(report, ConditionReport)
        assert report.ok
        assert report.violations == ()

    def test_mutated_first_index_detected(self, family, n, node):
        s = make(family, n, node)
        orig = s.index(1, 1)
        for i in s.crystal.cartan.index_set:
            if i == orig:
                continue
            report = check_conditions(altered(s, 1, 1, i), 2)
            assert not report.ok, f"index {i} undetected"
            assert report.violations

    def test_shortened_table_misses_elements(self, family, n, node):
        s = make(family, n, node)
        if s.d < 2:
            pytest.skip("single-step table cannot be shortened")
        report = check_conditions(replace(s, word=s.word[:-1]), 2)
        assert not report.ok
        assert any(v.startswith("closure:") for v in report.violations)


class TestConditionDetails:
    def test_repeated_index_fails_ascent(self):
        s = make("A1", 2, 0)
        mutated = altered(s, 1, 2, s.index(1, 1))
        report = check_conditions(mutated, 2)
        assert not report.ok
        assert any(v.startswith("ascent:") for v in report.violations)

    def test_first_violation_is_reported(self):
        s = make("A1", 2, 0)
        report = check_conditions(altered(s, 1, 1, 1), 3)
        assert report.violations[0].startswith("closure: segment 1")

    def test_j_max_must_be_positive(self):
        with pytest.raises(ValueError):
            check_conditions(make("A1", 1, 0), 0)


class TestScheduleConstruction:
    def test_unscheduled_weight_rejected(self):
        # comark 2: no diagram symmetry moves node 2 onto a scheduled node
        crystal = perfect_crystal("B1", 3)
        lam = crystal.cartan.fundamental_weight(2)
        with pytest.raises(ValueError):
            demazure_schedule(crystal, lam)

    def test_relabelled_table_lives_at_the_requested_weight(self):
        crystal = perfect_crystal("D1", 5)
        s = demazure_schedule(crystal, crystal.cartan.fundamental_weight(5))
        assert s.lam_node == 0
        assert s.node_map == (4, 5, 3, 2, 1, 0)
        assert s.ground.lam == crystal.cartan.fundamental_weight(5).classical()
        borrowed = demazure_schedule(crystal, crystal.cartan.fundamental_weight(0))
        for k in range(1, 2 * s.d + 1):
            i = borrowed.flat_index(k)
            assert s.node_map[s.flat_index(k)] == i

    def test_variant_two_only_where_offered(self):
        crystal = perfect_crystal("B1", 3)
        demazure_schedule(crystal, crystal.cartan.fundamental_weight(3), variant=2)
        with pytest.raises(ValueError):
            demazure_schedule(crystal, crystal.cartan.fundamental_weight(0), variant=2)


@pytest.mark.parametrize("family,n,node", CASES)
class TestPathSets:
    def test_zero_steps_is_bare_ground_state(self, family, n, node):
        pc = demazure_paths(make(family, n, node), 0)
        assert pc.words == frozenset({()})
        assert pc.window == 0
        assert pc.weyl_word == ()
        assert len(pc.words) == 1

    def test_product_count(self, family, n, node):
        s = make(family, n, node)
        for k in range(1, 2 * s.d + 1):
            j, a = s.decompose(k)
            pc = demazure_paths(s, k)
            assert pc.window == j
            assert len(pc.words) == len(s.leading_sets(j)[a]) * len(
                s.crystal
            ) ** (j - 1)

    def test_recursion_agrees_with_product(self, family, n, node):
        s = make(family, n, node)
        for k in range(2 * s.d + 1):
            assert demazure_paths(s, k, "product") == demazure_paths(
                s, k, "recursion"
            )

    def test_raising_stays_inside(self, family, n, node):
        s = make(family, n, node)
        for k in range(2 * s.d + 1):
            pc = demazure_paths(s, k)
            for word in pc.words:
                for i in s.crystal.cartan.index_set:
                    raised = s.ground.path_e(pc.window, word, i)
                    assert raised is None or raised in pc.words


class TestPathSetDetails:
    def test_first_step_lowers_ground_letter(self):
        s = make("A1", 1, 0)
        pc = demazure_paths(s, 1)
        assert pc.words == frozenset({("1",), ("0",)})
        assert pc.weyl_word == (0,)

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            demazure_paths(make("A1", 1, 0), -1)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            demazure_paths(make("A1", 1, 0), 1, method="guess")


@pytest.mark.parametrize("family,n,node", CASES)
class TestCharacters:
    def test_zero_steps_is_highest_weight(self, family, n, node):
        s = make(family, n, node)
        lam = s.crystal.cartan.fundamental_weight(node).classical()
        assert character_by_paths(s, 0) == FormalCharacter({key(lam): 1})
        assert character_by_operators(s, 0) == FormalCharacter({key(lam): 1})

    def test_paths_equal_operators(self, family, n, node):
        s = make(family, n, node)
        for k in range(2 * s.d + 1):
            assert character_by_paths(s, k) == character_by_operators(s, k), k

    def test_operator_recursion_along_schedule(self, family, n, node):
        s = make(family, n, node)
        ct = s.crystal.cartan
        prev = character_by_paths(s, 0)
        for k in range(1, 2 * s.d + 1):
            cur = character_by_paths(s, k)
            assert cur == demazure_op(ct, s.flat_index(k), prev)
            prev = cur


class TestCharacterDetails:
    def test_first_step_frozen_value(self):
        s = make("A1", 1, 0)
        chi = character_by_paths(s, 1)
        assert to_keys(chi) == {(1, 0, 0): 1, (-1, 2, -1): 1}

    @pytest.mark.parametrize("family,n,node", VARIANT_CASES)
    def test_variants_agree_at_segment_multiples(self, family, n, node):
        first = make(family, n, node)
        second = make(family, n, node, variant=2)
        for j in (1, 2):
            k = j * first.d
            assert demazure_paths(first, k).words == demazure_paths(second, k).words
            assert character_by_paths(first, k) == character_by_paths(second, k)

    def test_routes_share_no_code(self, monkeypatch):
        # Each route gives its value with the other two routes' int-keyed
        # cores patched to raise: the tail walker, the Demazure step and
        # the recursion kernel.
        s = make("D1", 4, 0)
        k = 2 * s.d
        want = character_by_paths(s, k)

        def refuse(*args, **kwargs):
            raise AssertionError("another route's code ran")

        routes = {
            "paths": (lambda: character_by_paths(s, k), "_walk_tails"),
            "operators": (lambda: character_by_operators(s, k), "demazure_step"),
            "full segment": (lambda: onedsums.character_at_full_segment(s, 2), "_recursion"),
        }
        for name, (route, own) in routes.items():
            onedsums._recursion.cache_clear()
            with monkeypatch.context() as m:
                if own != "_walk_tails":
                    m.setattr(onedsums, "_walk_tails", refuse)
                if own != "demazure_step":
                    m.setattr(weights, "demazure_step", refuse)
                    m.setattr(demazure, "demazure_step", refuse)
                if own != "_recursion":
                    m.setattr(onedsums, "_recursion", refuse)
                assert route() == want, name
        # The full segment's bulk table is reached only through the
        # recursion core.
        onedsums._recursion.cache_clear()
        with monkeypatch.context() as m:
            m.setattr(onedsums, "_recursion", refuse)
            with pytest.raises(AssertionError, match="another route's code ran"):
                onedsums.character_at_full_segment(s, 2)

    def test_operator_routes_refuse_a_step_past_the_key_bound_before_any_step(self, monkeypatch):
        # One bound for every route: the segment sum's, at the segment of
        # the last step, checked before the first Demazure step runs.
        def refuse(*args):
            raise AssertionError("a Demazure step ran")

        monkeypatch.setattr(demazure, "demazure_step", refuse)
        s = make("A1", 1, 0)
        message = "segment 60000: a key field may reach 2700060000, outside the 32-bit slots"
        for route in (character_by_operators, operator_characters, character_by_paths):
            with pytest.raises(ValueError, match=message):
                route(s, 60000)

    def test_characters_stay_int_keyed(self, monkeypatch):
        # A route builds Weights for its windows only, so their count grows
        # with the number of segments, not with the number of terms; the
        # operators route builds none per Demazure step, so its count does
        # not grow with k at all.
        built = []
        init = weights.Weight.__post_init__

        def counting(self):
            built.append(self)
            init(self)

        monkeypatch.setattr(weights.Weight, "__post_init__", counting)
        routes = {
            "paths": character_by_paths,
            "operators": character_by_operators,
            "full segment": lambda s, k: onedsums.character_at_full_segment(s, k // s.d),
        }
        for name, route in routes.items():
            counts = {}
            for segments in (1, 2):
                s = make("D1", 4, 0)
                built.clear()
                chi = route(s, segments * s.d)
                counts[segments] = len(built), len(to_keys(chi))
            (weights_1, terms_1), (weights_2, terms_2) = counts[1], counts[2]
            assert weights_2 < terms_2, name
            assert weights_2 - weights_1 < terms_2 - terms_1, name
            if name == "operators":
                assert weights_2 == weights_1, counts

    def test_paths_route_builds_no_path_set(self, monkeypatch):
        s = make("D1", 4, 0)
        k = 2 * s.d
        want = character_by_operators(s, k)

        def refuse(*args, **kwargs):
            raise AssertionError("the path set was built")

        monkeypatch.setattr(demazure, "demazure_paths", refuse)
        assert character_by_paths(s, k) == want

    @pytest.mark.parametrize("family,n,node,k", [("B1", 3, 0, 30), ("A2even", 1, 1, 30)])
    def test_operators_match_tuple_key_steps_at_large_k(self, family, n, node, k):
        # Packed keys against the tuple-key reference step by step, far
        # past the sizes the other tests reach.
        s = make(family, n, node)
        ct = s.crystal.cartan
        chi = character_by_paths(s, 0)
        for m in range(1, k + 1):
            chi = demazure_op(ct, s.flat_index(m), chi)
        assert character_by_operators(s, k) == chi

    @pytest.mark.parametrize("family,n,node", [("D1", 4, 0), ("A1", 2, 0), ("D2", 2, 2)])
    def test_running_operator_characters_match_each_k(self, family, n, node):
        s = make(family, n, node)
        k_max = 2 * s.d + 1
        running = list(operator_characters(s, k_max))
        assert running == [character_by_operators(s, k) for k in range(k_max + 1)]


# Families and ranks at which the closed form serves as a character source.
CLOSED_RANKS = {
    "A1": (1, 2, 3),
    "B1": (3,),
    "D1": (4,),
    "A2odd": (3,),
    "A2even": (1, 2),
    "D2": (2, 3),
}


def level_one_schedules(family, n):
    """The variant-1 schedule of every level-1 node that
    ``demazure_schedule`` accepts."""
    crystal = perfect_crystal(family, n)
    ct = crystal.cartan
    for node in ct.index_set:
        lam = ct.fundamental_weight(node)
        if ct.level(lam) == 1:
            try:
                yield demazure_schedule(crystal, lam)
            except ValueError:
                continue


@pytest.mark.parametrize(
    "family,n", [(family, n) for family, ns in CLOSED_RANKS.items() for n in ns]
)
def test_closed_form_is_a_character_source(monkeypatch, family, n):
    # The segment sum read from the closed form's groups gives the path
    # character at every step up to three segments, with the other
    # routes' cores (tail walker, recursion kernel, Demazure step)
    # patched to raise.
    cases = [(s, k) for s in level_one_schedules(family, n) for k in range(3 * s.d + 1)]
    assert cases
    want = [character_by_paths(s, k) for s, k in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("another route's code ran")

    formulas._closed_terms.cache_clear()
    monkeypatch.setattr(onedsums, "_walk_tails", refuse)
    monkeypatch.setattr(onedsums, "_recursion", refuse)
    monkeypatch.setattr(weights, "demazure_step", refuse)
    monkeypatch.setattr(demazure, "demazure_step", refuse)
    got = [onedsums._segment_character(s, *s.decompose(k), formulas._closed_source) for s, k in cases]
    assert got == want


STEP_ROUTES = {
    "Schedule.decompose": lambda s, k: s.decompose(k),
    "Schedule.weyl_word": lambda s, k: s.weyl_word(k),
    "character_by_paths": character_by_paths,
    "character_by_operators": character_by_operators,
    "character_via_onedsums": character_via_onedsums,
    "demazure_paths": demazure_paths,
    "operator_characters": operator_characters,
}


class TestStepCounts:
    """Every route reads k through ``Schedule.decompose`` or
    ``Schedule.weyl_word``, which check it once for all."""

    @pytest.mark.parametrize("route", STEP_ROUTES)
    @pytest.mark.parametrize("bad", [True, False, 2.0, "2", None])
    def test_non_int_rejected(self, route, bad):
        with pytest.raises(ValueError, match=rf"^steps must be an int, got {bad!r}$"):
            STEP_ROUTES[route](make("A1", 2, 0), bad)

    @pytest.mark.parametrize("route", STEP_ROUTES)
    def test_negative_rejected(self, route):
        with pytest.raises(ValueError, match="^steps must be nonnegative$"):
            STEP_ROUTES[route](make("A1", 2, 0), -1)
