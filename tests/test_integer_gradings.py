"""Every computed grading is a plain int.

Energies, the normalisation c(j) and path delta-coordinates are
integers, so the library keeps delta-coordinates and q-exponents as
ints end to end.  A node that borrows its schedule through a diagram
symmetry has its characters computed at its own weight, so they are
plain ints too.
"""

import pytest

from brute import to_keys

from demchar import cli
from demchar.crystals import perfect_crystal
from demchar.demazure import character_by_operators, character_by_paths, demazure_schedule
from demchar.onedsums import (
    character_at_full_segment,
    g_recursive,
    stabilized_limit,
    tail_weight_support,
    x_recursive,
)
from demchar.paths import schedule_words
from demchar.weights import Weight, dominant_classical_weights

FAMILY_MINIMA = [
    ("A1", 1),
    ("B1", 3),
    ("D1", 4),
    ("A2odd", 3),
    ("A2even", 1),
    ("D2", 2),
]


def assert_int_deltas(chi):
    for key in to_keys(chi):
        assert all(type(c) is int for c in key), key


def assert_int_exponents(poly):
    for exp, coeff in poly.terms():
        assert type(exp) is int and type(coeff) is int, poly


@pytest.mark.parametrize("family,n", FAMILY_MINIMA)
def test_characters_have_int_deltas(family, n):
    c = perfect_crystal(family, n)
    lam = c.cartan.fundamental_weight(list(schedule_words(c))[0])
    s = demazure_schedule(c, lam)
    for k in range(s.d + 1):
        assert_int_deltas(character_by_paths(s, k))
        assert_int_deltas(character_by_operators(s, k))
    assert_int_deltas(character_at_full_segment(s, 1))


@pytest.mark.parametrize("family,n", FAMILY_MINIMA)
def test_onedsums_have_int_exponents(family, n):
    c = perfect_crystal(family, n)
    for j in range(3):
        for coords in sorted(tail_weight_support(c, j)):
            for b in c.elements:
                assert_int_exponents(g_recursive(c, b, Weight(coords, -1), j))
    doms = dominant_classical_weights(c.cartan, 1)
    for b in c.elements:
        for xi in doms:
            for eta in doms:
                assert_int_exponents(x_recursive(c, b, xi, eta, 2))
                assert_int_exponents(x_recursive(c, b, xi, eta, 2, classical=True))
    lam = c.cartan.fundamental_weight(list(schedule_words(c))[0])
    for delta in (0, -2):
        mu = Weight((0,) * c.cartan.size, delta)
        assert_int_exponents(stabilized_limit("g", c, lam, 3, mu=mu))


@pytest.mark.parametrize(
    "family,rank,node,k", [("A1", 2, 1, 2), ("D1", 4, 4, 6), ("B1", 3, 1, 5)]
)
def test_relabelled_cli_characters_have_int_deltas(
    monkeypatch, capsys, family, rank, node, k
):
    computed = []

    def recording(route):
        def record(*args):
            chi = route(*args)
            computed.append(chi)
            return chi

        return record

    routes = ("character_by_paths", "character_by_operators", "character_at_full_segment")
    for name in routes:
        monkeypatch.setattr(cli, name, recording(getattr(cli, name)))
    code = cli.main(
        ["character", family, str(rank), "--lambda", f"L{node}", "--k", str(k)]
    )
    capsys.readouterr()
    assert code == 0
    # paths, operators and the full-segment form, all at the relabelled node
    assert len(computed) == 3
    for chi in computed:
        assert_int_deltas(chi)
