"""Tests for the closed-form window sums and their verifier."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute import all_words, mu_to_weight

from demchar import formulas, onedsums
from demchar.crystals import perfect_crystal, symmetric_crystal
from demchar.formulas import g_closed_form, verify_type
from demchar.onedsums import g_enumerate, g_recursive, tail_weight_support
from demchar.qring import ONE, ZERO, LaurentPoly, qmultinomial
from demchar.weights import _MIN_N, FAMILIES, Weight

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

# The three per-cell routes to the unrestricted sum g.
ROUTES = [g_enumerate, g_recursive, g_closed_form]


def poly(pairs):
    return LaurentPoly.from_terms(pairs)


def support_weights(crystal, j):
    return [Weight(coords) for coords in sorted(tail_weight_support(crystal, j))]


def closed(family, b, mu, j):
    """The closed form at the weight a letter-coordinate vector names."""
    weight = mu_to_weight(family, mu)
    return g_closed_form(perfect_crystal(family, len(weight.lambda_coords) - 1), b, weight, j)


def word_sums(crystal, j):
    """g of every head letter and tail weight of length j, summed by brute
    force over the words of length j + 1 and their energies."""
    zero = Weight.zero(crystal.cartan.size)
    energies = {}
    for word in all_words(crystal, j + 1):
        head, *tail = word.factors
        weight = sum((crystal.weight(b) for b in tail), zero)
        energies.setdefault((head, weight.lambda_coords), Counter())[word.energy()] += 1
    return {key: poly(found.items()) for key, found in energies.items()}


class TestParameterDictionaries:
    @pytest.mark.parametrize(
        "family,rank", [(family, _MIN_N[family] + k) for family in FAMILIES for k in range(3)]
    )
    def test_roundtrip_through_reachable_weights(self, family, rank):
        # On a support point the letter coordinates are the preimage.  A
        # point one unit or one simple root off it either raises or gets
        # coordinates that name it.
        crystal = perfect_crystal(family, rank)
        solve = crystal.letter_coordinates.solve
        units = [tuple(int(i == k) for k in range(rank + 1)) for i in range(rank + 1)]
        roots = [alpha[:-1] for alpha in crystal.cartan.simple_roots]
        for j in range(4):
            support = sorted(tail_weight_support(crystal, j))
            for coords in support:
                assert mu_to_weight(family, solve(coords, j)) == Weight(coords)
            probes = {
                tuple(c + step * v for c, v in zip(coords, vector))
                for coords in support
                for vector in units + roots
                for step in (-1, 1)
            }
            for coords in sorted(probes - set(support)):
                try:
                    mu = solve(coords, j)
                except ValueError:
                    continue
                assert mu_to_weight(family, mu) == Weight(coords)
                assert family != "A1" or sum(mu) == j

    @pytest.mark.parametrize("family,rank", MINIMAL_RANKS)
    def test_named_weights_have_level_zero(self, family, rank):
        crystal = perfect_crystal(family, rank)
        probes = {
            "A1": [(0,) * (rank + 1), (1,) + (0,) * rank, (2, -1) + (0,) * (rank - 1)],
        }.get(family, [(0,) * rank, (1,) + (0,) * (rank - 1), (-2,) + (1,) * (rank - 1)])
        for mu in probes:
            assert crystal.cartan.level(mu_to_weight(family, mu)) == 0

    @given(st.lists(st.integers(-5, 5), min_size=3, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_vector_roundtrip_b1(self, mu):
        mu = tuple(mu)
        weight = mu_to_weight("B1", mu)
        assert perfect_crystal("B1", 3).letter_coordinates.solve(weight.lambda_coords, None) == mu

    @given(st.lists(st.integers(-5, 5), min_size=4, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_vector_roundtrip_d1(self, mu):
        mu = tuple(mu)
        weight = mu_to_weight("D1", mu)
        assert perfect_crystal("D1", 4).letter_coordinates.solve(weight.lambda_coords, None) == mu

    @given(st.lists(st.integers(-4, 4), min_size=3, max_size=3), st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_vector_roundtrip_a1_pinned_by_window(self, head, j):
        total = j - sum(head)
        mu = tuple(head) + (total,)
        weight = mu_to_weight("A1", mu)
        assert perfect_crystal("A1", 3).letter_coordinates.solve(weight.lambda_coords, j) == mu

    def test_window_length_required_for_cyclic_family(self):
        # A1's letter counts are pinned by the window length: one weight
        # has a count vector at each length of its parity.
        table = perfect_crystal("A1", 1).letter_coordinates
        weight = mu_to_weight("A1", (1, 1))
        assert [table.solve(weight.lambda_coords, j) for j in (2, 4)] == [(1, 1), (2, 2)]

    def test_window_length_must_match_lattice(self):
        weight = mu_to_weight("A1", (1, 1))
        with pytest.raises(ValueError, match="parameter lattice"):
            perfect_crystal("A1", 1).letter_coordinates.solve(weight.lambda_coords, 3)

    def test_rejects_non_integer_entries(self):
        with pytest.raises(ValueError):
            mu_to_weight("B1", (1, 1.5, 0))
        with pytest.raises(ValueError):
            mu_to_weight("A1", (True, 1))

    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            mu_to_weight("E8", (1, 2))

    @pytest.mark.parametrize(
        "family,mu", [("B1", (1, 1)), ("D1", (1, 1, 1)), ("A2odd", (1, 1)), ("D2", (1,))]
    )
    def test_rejects_rank_below_the_crystal(self, family, mu):
        with pytest.raises(ValueError, match="needs n >="):
            mu_to_weight(family, mu)

    def test_rejects_wrong_weight_size(self):
        with pytest.raises(ValueError, match="needs 4 coordinates"):
            g_closed_form(perfect_crystal("B1", 3), "1", Weight((0, 0, 0)), 0)

    def test_rejects_off_lattice_weights(self):
        # Odd endpoint coordinate where the letter weights double it.
        with pytest.raises(ValueError, match="parameter lattice"):
            perfect_crystal("A2even", 1).letter_coordinates.solve((-1, 1), None)
        # Endpoint pair of mixed parity.
        with pytest.raises(ValueError, match="parameter lattice"):
            perfect_crystal("D1", 4).letter_coordinates.solve((0, 0, 0, 1, 0), None)

    def test_rejects_nonzero_level(self):
        with pytest.raises(ValueError, match="level zero"):
            perfect_crystal("A2even", 1).letter_coordinates.solve((1, 0), None)
        with pytest.raises(ValueError, match="level zero"):
            perfect_crystal("A1", 1).letter_coordinates.solve((1, 0), 2)

    @pytest.mark.parametrize("family,rank", MINIMAL_RANKS)
    def test_distinct_vectors_name_distinct_weights(self, family, rank):
        crystal = perfect_crystal(family, rank)
        seen = {}
        for j in range(4):
            for weight in support_weights(crystal, j):
                mu = crystal.letter_coordinates.solve(weight.lambda_coords, j)
                key = (j, mu) if family == "A1" else mu
                assert seen.setdefault(key, weight) == weight

    @pytest.mark.parametrize(
        "family,rank", [(family, _MIN_N[family] + k) for family in FAMILIES for k in range(3)]
    )
    def test_mu_is_the_kernel_letter_coordinates(self, family, rank):
        # The closed form and the recursion kernel write a support weight
        # in the same letters.
        crystal = perfect_crystal(family, rank)
        table = crystal.letter_coordinates
        for j in range(4):
            for weight in support_weights(crystal, j):
                coords = weight.lambda_coords
                assert table.solve(coords, j) == table.coordinates(coords, j)

    @pytest.mark.parametrize("family,rank", [("A1", 1), ("B1", 3)])
    def test_rejects_negative_window(self, family, rank):
        with pytest.raises(ValueError, match="length must be nonnegative"):
            g_closed_form(perfect_crystal(family, rank), "1", Weight((0,) * (rank + 1)), -2)

    @pytest.mark.parametrize("j", [2.0, True, "2"])
    def test_rejects_non_int_window(self, j):
        with pytest.raises(ValueError, match="length must be an int"):
            g_closed_form(perfect_crystal("A1", 1), "0", Weight((0, 0)), j)


class TestRoutesAgree:
    @pytest.mark.parametrize("route", ROUTES, ids=lambda route: route.__name__)
    @pytest.mark.parametrize("family,rank", MINIMAL_RANKS)
    def test_values_on_and_off_the_lattice(self, family, rank, route):
        """Each route equals the brute-force word sum at every support
        point and every point one unit off it, with a null-root part, up
        to length 3: zero wherever no tail reaches, on the letter lattice
        or off it."""
        crystal = perfect_crystal(family, rank)
        units = [tuple(int(i == k) for k in range(rank + 1)) for i in range(rank + 1)]
        zeros = 0
        for j in range(4):
            words = word_sums(crystal, j)
            support = tail_weight_support(crystal, j)
            probes = support | {
                tuple(c + step * v for c, v in zip(coords, unit))
                for coords in support
                for unit in units
                for step in (-1, 1)
            }
            for coords in sorted(probes):
                for b in crystal.elements:
                    want = words.get((b, coords), ZERO).shift(2)
                    assert route(crystal, b, Weight(coords, 2), j) == want, (b, coords, j)
                    zeros += not want
        assert zeros

    @pytest.mark.parametrize("family,rank", MINIMAL_RANKS)
    def test_same_errors(self, family, rank):
        crystal = perfect_crystal(family, rank)
        b, zero = crystal.elements[0], Weight.zero(rank + 1)
        for args, message in [
            ((b, Weight.zero(rank + 2), 1), f"needs {rank + 1} coordinates"),
            ((b, Weight.zero(rank), 1), f"needs {rank + 1} coordinates"),
            (("9", zero, 1), "is not a letter"),
            ((b, zero, -1), "length must be nonnegative"),
            ((b, zero, 1.0), "length must be an int"),
        ]:
            errors = []
            for route in ROUTES:
                with pytest.raises(ValueError, match=message) as info:
                    route(crystal, *args)
                errors.append(str(info.value))
            assert len(set(errors)) == 1, errors

    def test_closed_form_covers_only_the_perfect_crystals(self):
        with pytest.raises(ValueError, match="covers perfect_crystal's crystals"):
            g_closed_form(symmetric_crystal(1, 2), (0, 0), Weight((0, 0)), 1)


class TestClosedForm:
    def test_frozen_rank_one_cells(self):
        assert closed("A1", "0", (1, 1), 2) == poly([(1, 1), (2, 1)])
        assert closed("A1", "1", (1, 1), 2) == poly([(2, 1), (3, 1)])
        assert closed("A1", "0", (2, 0), 2) == poly([(3, 1)])
        assert closed("A1", "0", (2, 1), 3) == poly([(3, 1), (4, 1), (5, 1)])

    def test_cyclic_family_is_a_single_bracket_term(self):
        # The letter counts are pinned, so the sum degenerates to one
        # q-power times a Gaussian multinomial.
        crystal = perfect_crystal("A1", 2)
        for j in range(4):
            for weight in support_weights(crystal, j):
                mu = crystal.letter_coordinates.solve(weight.lambda_coords, j)
                value = g_closed_form(crystal, "0", weight, j)
                bracket = qmultinomial(j, mu)
                shifts = {exp - bexp for (exp, _), (bexp, _) in
                          zip(value.terms(), bracket.terms())}
                assert len(shifts) == 1

    def test_negative_counts_vanish(self):
        assert closed("A1", "0", (-1, 3), 2) == ZERO

    def test_rejects_negative_window(self):
        with pytest.raises(ValueError):
            g_closed_form(perfect_crystal("B1", 3), "1", Weight((0,) * 4), -1)

    @pytest.mark.parametrize("family,mu,j", [
        ("A1", (1, 1), 2.0),
        ("B1", (0, 0, 0), True),
        ("D2", (0, 0), 1.5),
    ])
    def test_rejects_non_int_window(self, family, mu, j):
        with pytest.raises(ValueError, match="length must be an int"):
            closed(family, "0", mu, j)

    @pytest.mark.parametrize("family,b,mu", [
        ("B1", "x", (0, 0, 0)),
        ("B1", "4", (0, 0, 0)),
        ("A1", "1~", (1, 1)),
        ("A2odd", "0", (0, 0, 0)),
        ("D2", 1, (0, 0)),
    ])
    def test_rejects_letter_outside_the_alphabet(self, family, b, mu):
        with pytest.raises(ValueError, match="not a letter"):
            closed(family, b, mu, 2)

    @pytest.mark.parametrize("family,rank", MINIMAL_RANKS)
    def test_empty_window(self, family, rank):
        zero = (0,) * (rank + 1 if family == "A1" else rank)
        assert closed(family, perfect_crystal(family, rank).elements[0], zero, 0) == ONE
        nonzero = (1,) + zero[1:-1] + (-1,) if family == "A1" else (1,) + zero[1:]
        assert closed(family, perfect_crystal(family, rank).elements[0], nonzero, 0) == ZERO

    def test_matches_enumeration_exhaustively_rank_one(self):
        crystal = perfect_crystal("A1", 1)
        for j in range(6):
            for weight in support_weights(crystal, j):
                for b in crystal.elements:
                    assert g_closed_form(crystal, b, weight, j) == g_enumerate(
                        crystal, b, weight, j
                    )

    def test_paired_factorial_division_is_exact(self):
        # Every summand of the odd-twisted form divides exactly; any
        # remainder would raise from inside the evaluation.
        crystal = perfect_crystal("A2odd", 3)
        for j in range(4):
            for weight in support_weights(crystal, j):
                for b in crystal.elements:
                    value = g_closed_form(crystal, b, weight, j)
                    assert value == g_recursive(crystal, b, weight, j)

    @pytest.mark.parametrize("family,rank", MINIMAL_RANKS)
    def test_coefficients_are_nonnegative_integers(self, family, rank):
        crystal = perfect_crystal(family, rank)
        for j in range(3):
            for weight in support_weights(crystal, j):
                for b in crystal.elements:
                    for _, coeff in g_closed_form(crystal, b, weight, j).terms():
                        assert isinstance(coeff, int) and coeff > 0

    def test_doubled_base_family_energy_range(self):
        crystal = perfect_crystal("D2", 2)
        energies = {crystal.energy(x, y) for x in crystal.elements for y in crystal.elements}
        assert energies == {0, 1, 2}

    def test_frozen_doubled_base_cells(self):
        assert closed("D2", "1", (0, 0), 2) == poly(
            [(0, 2), (1, 1), (2, 3), (3, 1), (4, 1)]
        )
        assert closed("D2", "phi", (0, 0), 1) == poly([(0, 1), (1, 1)])
        assert closed("D2", "phi", (1, 0), 1) == poly([(1, 1)])

    def test_frozen_odd_twisted_cell(self):
        assert closed("A2odd", "2", (0, 0, 0), 2) == poly(
            [(0, 1), (1, 4), (2, 1)]
        )


def pivot_sums(crystal, b, weight, j, pivots):
    """The closed form of head b, read from its term table under each
    cross-term pivot in turn."""
    mu = crystal.letter_coordinates.solve(weight.lambda_coords, j)
    terms = formulas._closed_terms(crystal, mu, j, False)
    return [formulas._head_sum(crystal, terms, b, k) for k in pivots]


class TestCrossTermPivot:
    def test_zero_letter_accepts_either_endpoint(self):
        crystal = perfect_crystal("B1", 3)
        for j in range(4):
            for weight in support_weights(crystal, j):
                top, bottom = pivot_sums(crystal, "0", weight, j, (3, 1))
                assert top == bottom
                assert g_closed_form(crystal, "0", weight, j) == top

    def test_default_pivot_tracks_bar(self):
        crystal = perfect_crystal("B1", 3)
        weight = support_weights(crystal, 2)[0]
        for b, pivot in (("2~", 3), ("2", 1)):
            assert [g_closed_form(crystal, b, weight, 2)] == pivot_sums(crystal, b, weight, 2, (pivot,))


class TestRecursionSubstitution:
    @pytest.mark.parametrize("family,rank", MINIMAL_RANKS)
    def test_closed_form_satisfies_head_recursion(self, family, rank):
        crystal = perfect_crystal(family, rank)
        for j in (1, 2, 3):
            for weight in support_weights(crystal, j)[:4]:
                for b in crystal.elements[:3]:
                    lhs = g_closed_form(crystal, b, weight, j)
                    rhs = ZERO
                    for bp in crystal.elements:
                        rest = Weight((weight - crystal.weight(bp)).lambda_coords)
                        inner = g_closed_form(crystal, bp, rest, j - 1)
                        if inner:
                            rhs = rhs + inner.shift(j * crystal.energy(b, bp))
                    assert lhs == rhs


class TestVerifier:
    @pytest.mark.parametrize("family,rank", MINIMAL_RANKS)
    def test_no_mismatches_at_minimal_rank(self, family, rank):
        report = verify_type(perfect_crystal(family, rank), 4)
        assert report["type"] == family
        assert report["rank"] == rank
        assert report["j_max"] == 4
        assert report["cells_checked"] > 0
        assert report["mismatches"] == []

    @pytest.mark.parametrize(
        "family,rank",
        [("A1", 3), ("B1", 4), ("D1", 5), ("A2odd", 4), ("A2even", 3), ("D2", 3)],
    )
    def test_no_mismatches_above_minimal_rank(self, family, rank):
        report = verify_type(perfect_crystal(family, rank), 3)
        assert report["cells_checked"] > 0
        assert report["mismatches"] == []

    def test_cell_count_matches_support(self):
        crystal = perfect_crystal("A1", 1)
        expected = sum(
            len(tail_weight_support(crystal, j)) * len(crystal.elements)
            for j in range(3)
        )
        report = verify_type(crystal, 2)
        assert report["cells_checked"] == expected

    @pytest.mark.parametrize("family,rank,j_max", [("D2", 2, 3), ("A1", 1, 0)])
    def test_one_tail_walk_per_window_length(self, monkeypatch, family, rank, j_max):
        walked = []
        walk = onedsums._walk_tails

        def counting(crystal, j, *args, **kwargs):
            walked.append(j)
            return walk(crystal, j, *args, **kwargs)

        monkeypatch.setattr(onedsums, "_walk_tails", counting)
        report = verify_type(perfect_crystal(family, rank), j_max)
        assert report["mismatches"] == []
        assert walked == list(range(j_max + 1))

    @pytest.mark.parametrize("column", ["enumerate", "recursive", "closed", "closed_other_pivot"])
    def test_disagreeing_route_is_reported(self, monkeypatch, column):
        """A column off by one monomial in one cell yields exactly that
        cell as a mismatch, with every column's value."""
        crystal = perfect_crystal("B1", 3)
        cell = ("0", (0, 0, 0, 0))
        name, part = {
            "enumerate": ("g_enumerate_table", None),
            "recursive": ("g_recursive_table", None),
            "closed": ("_closed_table", 0),
            "closed_other_pivot": ("_closed_table", 1),
        }[column]
        real = getattr(formulas, name)

        def skewed(crystal, j):
            tables = real(crystal, j)
            if j != 2:
                return tables
            if part is None:
                tables[cell] = tables.get(cell, ZERO) + LaurentPoly.monomial(1, 7)
                return tables
            # The closed column comes as cells (key, value, other).
            return (
                (key, *(v + LaurentPoly.monomial(1, 7) if key == cell and k == part else v
                        for k, v in enumerate(values)))
                for key, *values in tables
            )

        monkeypatch.setattr(formulas, name, skewed)
        report = verify_type(perfect_crystal("B1", 3), 2)
        mu = crystal.letter_coordinates.solve(cell[1], 2)
        assert [(m["b"], m["mu"], m["j"]) for m in report["mismatches"]] == [("0", list(mu), 2)]
        [entry] = report["mismatches"]
        columns = ["closed", "enumerate", "recursive", "closed_other_pivot"]
        assert list(entry) == ["b", "mu", "j", *columns]
        want = g_closed_form(crystal, "0", Weight(cell[1]), 2)
        assert want
        for key in columns:
            value = want + LaurentPoly.monomial(1, 7) if key == column else want
            assert entry[key] == value.to_json_obj(), key

    def test_tables_share_no_route_code(self, monkeypatch):
        # Each table, and each per-cell route, gives its values with the
        # other two routes' cores patched to raise: the tail walker, the
        # recursion kernel and the closed form's q-multinomial terms.
        crystal, j = perfect_crystal("B1", 3), 3
        support = tail_weight_support(crystal, j)
        want = {
            (b, coords): g_enumerate(crystal, b, Weight(coords), j)
            for coords in support
            for b in crystal.elements
        }
        assert any(want.values())

        def refuse(*args, **kwargs):
            raise AssertionError("another route's code ran")

        def closed():
            cells = list(formulas._closed_table(crystal, j))
            other = {key: value for key, _, value in cells if value is not None}
            assert other == {("0", coords): want["0", coords] for coords in support}
            return {key: value for key, value, _ in cells}

        def per_cell(route):
            return lambda: {cell: route(crystal, cell[0], Weight(cell[1]), j) for cell in want}

        cores = {"enumerate": (onedsums, "_walk_tails"), "recursive": (onedsums, "_recursion"),
                 "closed": (formulas, "_closed_terms")}
        tables = [
            ("enumerate", lambda: onedsums.g_enumerate_table(crystal, j)),
            ("recursive", lambda: onedsums.g_recursive_table(crystal, j)),
            ("closed", closed),
            ("enumerate", per_cell(onedsums.g_enumerate)),
            ("recursive", per_cell(onedsums.g_recursive)),
            ("closed", per_cell(formulas.g_closed_form)),
        ]
        for name, table in tables:
            for module, core in cores.values():
                getattr(module, core).cache_clear()
            with monkeypatch.context() as m:
                for other, (module, core) in cores.items():
                    if other != name:
                        m.setattr(module, core, refuse)
                got = table()
            assert {cell: got.get(cell, ZERO) for cell in want} == want, name

    def test_verifier_runs_no_boundary_rule_and_builds_no_weight(self, monkeypatch):
        # The recursion column reads the kernel directly: no Weight, and
        # no _restricted, the boundary rule the x routes share.
        verify_type(perfect_crystal("D2", 2), 2)
        onedsums._recursion.cache_clear()
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)

        monkeypatch.setattr(onedsums, "_restricted", counting)
        monkeypatch.setattr(Weight, "__post_init__", counting)
        report = verify_type(perfect_crystal("D2", 2), 3)
        assert report["cells_checked"] > 0 and report["mismatches"] == []
        assert calls == []

    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError):
            verify_type(perfect_crystal("A1", 1), -1)

    @pytest.mark.parametrize("j_max", [True, 1.5, 1.0])
    def test_rejects_non_int_budget(self, j_max):
        with pytest.raises(ValueError, match="j_max must be an int"):
            verify_type(perfect_crystal("A1", 1), j_max)


class TestClosedTerms:
    @pytest.mark.parametrize("family,rank,j_max", [("B1", 3, 3), ("A2odd", 3, 3)])
    def test_one_table_per_window_weight(self, family, rank, j_max):
        """A cold verify_type builds and reads each (mu, j) table, and for
        A2odd each of its two variants, once; a second call builds none
        and reads each once more."""
        crystal = perfect_crystal(family, rank)
        keys = {
            (crystal.letter_coordinates.solve(weight.lambda_coords, j), j,
             family == "A2odd" and b not in ("1", "1~"))
            for j in range(j_max + 1)
            for weight in support_weights(crystal, j)
            for b in crystal.elements
        }
        assert family != "A2odd" or {divided for _, _, divided in keys} == {False, True}
        formulas._closed_terms.cache_clear()
        first = verify_type(perfect_crystal(family, rank), j_max)
        info = formulas._closed_terms.cache_info()
        assert first["mismatches"] == []
        assert info.misses == info.currsize == len(keys)
        assert info.hits == 0
        assert verify_type(perfect_crystal(family, rank), j_max) == first
        again = formulas._closed_terms.cache_info()
        assert (again.misses, again.currsize) == (info.misses, info.currsize)
        assert again.hits == len(keys)

    @pytest.mark.parametrize("family,mu,j,divided", [
        ("B1", (1, 0, -1), 3, False),
        ("A2odd", (0, 0, 0), 2, True),
    ])
    def test_tables_are_read_only(self, family, mu, j, divided):
        crystal = perfect_crystal(family, len(mu))
        table = formulas._closed_terms(crystal, mu, j, divided)
        assert table
        counts, terms, _ = table[0]
        for cached in (table, table[0], counts, terms, terms[0]):
            with pytest.raises(TypeError):
                cached[0] = 0
        assert formulas._closed_terms(crystal, mu, j, divided) is table

    def test_values_survive_cache_clear(self):
        cells = [
            (crystal, b, weight, j)
            for crystal in map(perfect_crystal, ("B1", "A2odd", "D2"), (3, 3, 2))
            for j in range(3)
            for weight in support_weights(crystal, j)
            for b in crystal.elements
        ]
        before = [g_closed_form(*cell) for cell in cells]
        formulas._closed_terms.cache_clear()
        assert formulas._closed_terms.cache_info().currsize == 0
        assert [g_closed_form(*cell) for cell in cells] == before

    @pytest.mark.parametrize(
        "family,rank", [(family, _MIN_N[family] + k) for family in ("B1", "D1", "A2odd") for k in range(2)]
    )
    def test_values_do_not_depend_on_which_head_reads_first(self, family, rank):
        """The pivot or the A2odd division one head reads must not leak
        into the table another head reads."""
        crystal = perfect_crystal(family, rank)
        cells = [
            (b, weight, j)
            for j in range(4)
            for weight in support_weights(crystal, j)
            for b in crystal.elements
        ]

        def value(cell):
            return g_closed_form(crystal, *cell)

        cold = {}
        for cell in cells:
            formulas._closed_terms.cache_clear()
            cold[cell] = value(cell)
        assert any(cold.values())
        formulas._closed_terms.cache_clear()
        assert {cell: value(cell) for cell in reversed(cells)} == cold
        assert {cell: value(cell) for cell in cells} == cold
