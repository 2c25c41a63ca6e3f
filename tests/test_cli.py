"""End-to-end tests of the command-line interface."""

import hashlib
import importlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from brute import character_json_obj, demazure_op, key
from oracles import colored_partition_counts

import demchar
from demchar import cli, onedsums
from demchar.cli import main
from demchar.crystals import perfect_crystal
from demchar.demazure import character_by_operators, character_by_paths, demazure_schedule
from demchar.onedsums import character_at_full_segment
from demchar.weights import FormalCharacter


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestGraph:
    def test_two_node_dot(self, capsys):
        code, out, err = run(capsys, "graph", "A1", "1")
        assert code == 0
        assert out.startswith("digraph")
        assert '"0" -> "1" [label="1"];' in out
        assert '"1" -> "0" [label="0"];' in out
        assert out.count("->") == 2

    def test_json_alphabet_includes_phi(self, capsys):
        obj = run_json(capsys, "graph", "D2", "2", "--format", "json")
        assert obj["alphabet"] == ["1", "2", "0", "2~", "1~", "phi"]
        assert all(set(e) == {"from", "to", "label"} for e in obj["edges"])
        assert obj["weights"]["phi"]["lambda"] == [0, 0, 0]

    def test_csv_edges(self, capsys):
        code, out, _ = run(capsys, "graph", "A1", "1", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "from,to,label"
        assert len(out.splitlines()) == 3

    def test_invalid_rank_names_bound(self, capsys):
        code, _, err = run(capsys, "graph", "B1", "2")
        assert code == 2
        assert "3" in err

    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "graph", "Z9", "1")
        assert code == 2


class TestCharacter:
    def test_both_methods_agree_two_terms(self, capsys):
        obj = run_json(
            capsys, "character", "A1", "1", "--lambda", "L0", "--k", "1",
            "--method", "both",
        )
        assert obj["equal"] is True
        assert len(obj["characters"]["paths"]) == 2
        assert len(obj["characters"]["operators"]) == 2

    def test_zero_steps_single_term(self, capsys):
        obj = run_json(
            capsys, "character", "A1", "1", "--lambda", "L0", "--k", "0",
            "--method", "paths",
        )
        (term,) = obj["characters"]["paths"]
        assert term["weight"]["lambda"] == [1, 0]
        assert term["weight"]["delta"] == [0, 1]
        assert term["coeff"] == 1

    def test_full_segment_form_at_whole_segments(self, capsys):
        obj = run_json(
            capsys, "character", "A1", "1", "--lambda", "L0", "--k", "3",
            "--method", "both",
        )
        assert obj["full_segment_equal"] is True
        assert obj["full_segment"] == obj["characters"]["paths"]

    def test_full_segment_absent_mid_segment(self, capsys):
        obj = run_json(
            capsys, "character", "B1", "3", "--lambda", "L0", "--k", "2",
            "--method", "paths",
        )
        assert "full_segment" not in obj

    def test_relabeling_recorded_and_anchored(self, capsys):
        obj = run_json(
            capsys, "character", "A1", "2", "--lambda", "L2", "--k", "1",
            "--method", "both",
        )
        assert obj["lambda"] == {
            "requested": "L2",
            "computed": "L0",
            "node_map": [1, 2, 0],
        }
        tops = [
            t for t in obj["characters"]["paths"]
            if t["weight"]["lambda"] == [0, 0, 1]
        ]
        assert tops and tops[0]["weight"]["delta"] == [0, 1]

    @pytest.mark.parametrize(
        "family,rank,node,k",
        [("A1", 2, 1, 3), ("B1", 3, 1, 4), ("D2", 2, 2, 3), ("D1", 4, 1, 3)],
    )
    def test_relabeled_output_matches_direct_operators(
        self, capsys, family, rank, node, k
    ):
        obj = run_json(
            capsys, "character", family, str(rank), "--lambda", f"L{node}",
            "--k", str(k), "--method", "both",
        )
        assert obj["equal"] is True
        ct = perfect_crystal(family, rank).cartan
        chi = FormalCharacter({key(ct.fundamental_weight(node)): 1})
        for i in obj["word"]:
            chi = demazure_op(ct, i, chi)
        assert character_json_obj(chi) == obj["characters"]["operators"]

    def test_relabeling_rejects_arrow_reversing_symmetries(self):
        # Cycle reflections preserve the Cartan matrix but turn the
        # letter crystal into its dual; they must not be used.
        from demchar.paths import _cartan_permutations, _crystal_twist

        crystal = perfect_crystal("A1", 2)
        perms = _cartan_permutations(crystal)
        assert len(perms) == 6
        accepted = [p for p in perms if _crystal_twist(crystal, p) is not None]
        assert accepted == [(0, 1, 2), (1, 2, 0), (2, 0, 1)]

    def test_symmetry_search_grows_node_by_node(self, capsys):
        # A1 12 has 13! node permutations and 26 diagram automorphisms.
        start = time.perf_counter()
        obj = run_json(
            capsys, "character", "A1", "12", "--lambda", "L5", "--k", "0",
        )
        assert time.perf_counter() - start < 1.0
        assert obj["lambda"]["computed"] == "L0"
        assert obj["lambda"]["node_map"] == [(i - 5) % 13 for i in range(13)]

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (
                ("D1", "5", "--lambda", "L5", "--k", "16"),
                "2631edc1ad59b9d1f451eb9ca840422cc2addcece0ff40527ec86770bb8d5508",
            ),
            (
                ("D2", "2", "--lambda", "L2", "--k", "8"),
                "f01f96615315c174d75b3124d7a058716760f6345af8aa03f6a31f260a63e12e",
            ),
        ],
        ids=["D1-5-L5", "D2-2-L2"],
    )
    def test_relabelled_output_bytes_pinned(self, capsys, argv, digest):
        # Both nodes sit at a nonzero null-root offset from the node whose
        # schedule they borrow; the bytes come from computing the character
        # at that node and carrying it back along the symmetry.
        code, out, _ = run(capsys, "character", *argv, "--method", "both")
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (
                ("D1", "4", "--k", "24"),
                "70d5153c2977ac9bd54fa1c38a5f05137f0a1ba8f4d6fb46a1da4ef9956abe9c",
            ),
            (
                ("B1", "3", "--k", "20"),
                "5044cd66af5ec1ee337a5c72a6f286860cb883ab772d3242877a8d93f182fd6f",
            ),
            (
                ("A1", "2", "--k", "15"),
                "d7b2f294fde1f3ea60ecd59be2380edef9d7548901336dacc0f4633e5fe9a94f",
            ),
            (
                ("A2odd", "3", "--k", "20"),
                "b848d72773ba6d167f9b6d8ca7c2b98a7caf46e2cb2a47f515af556f58af5eb3",
            ),
            (
                ("D2", "2", "--k", "16"),
                "2ecf8e2f362f1d40ab0945638f15c75606942f19b6d37a19cacda6e1a45083b1",
            ),
        ],
        ids=["D1-4-k24", "B1-3-k20", "A1-2-k15", "A2odd-3-k20", "D2-2-k16"],
    )
    def test_int_keyed_routes_keep_output_bytes(self, capsys, argv, digest):
        # The character commands of the benchmark, at L0 with both methods
        # (and, for D1 4 at a full segment, the one-dimensional-sum form);
        # the digests were recorded when every route built a Weight per
        # intermediate term.
        family, rank, *rest = argv
        code, out, _ = run(
            capsys, "character", family, rank, "--lambda", "L0", *rest,
            "--method", "both",
        )
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_unsupported_weight(self, capsys):
        code, _, err = run(
            capsys, "character", "A2even", "1", "--lambda", "L0", "--k", "1"
        )
        assert code == 2
        assert "schedule" in err

    def test_csv_has_anchored_top_row(self, capsys):
        code, out, _ = run(
            capsys, "character", "B1", "3", "--lambda", "L1", "--k", "2",
            "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "weight,delta,coeff"
        assert "0 1 0 0,0,1" in lines

    def test_dot_format_rejected(self, capsys):
        code, _, _ = run(
            capsys, "character", "A1", "1", "--lambda", "L0", "--k", "1",
            "--format", "dot",
        )
        assert code == 2

    def test_rejected_format_exits_before_the_work(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the character was computed")

        monkeypatch.setattr(cli, "character_by_paths", refuse)
        code, out, err = run(
            capsys, "character", "D1", "4", "--lambda", "L0", "--k", "24",
            "--format", "dot",
        )
        assert code == 2
        assert out == ""
        assert err == "error: character output supports json or csv, not 'dot'\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("character", "A1", "1", "--lambda", "L5", "--k", "2"),
        ("stringfn", "--type", "A1", "--rank", "1", "--lambda", "L5", "--M", "3"),
        ("onedsum", "x", "--type", "A1", "--rank", "1", "--b", "0", "--j", "1",
         "--xi", "L5", "--eta", "L0"),
    ],
    ids=["character", "stringfn", "onedsum"],
)
def test_weight_node_out_of_range(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: node 5 out of range; this diagram has nodes 0..1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("character", "A1", "2", "--lambda", "0,1,0", "--k", "2"),
        ("stringfn", "--type", "A1", "--rank", "2", "--lambda", "0,1,0", "--M", "3"),
    ],
    ids=["character", "stringfn"],
)
def test_lambda_takes_only_node_tokens(capsys, argv):
    """A coordinate vector is a weight for --mu/--xi/--eta, not --lambda."""
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: highest weights are selected by node token L0..L2\n"


class TestOnedsum:
    def test_json_contract(self, capsys):
        obj = run_json(
            capsys, "onedsum", "g", "--type", "A1", "--rank", "1",
            "--b", "0", "--j", "2", "--mu", "0,0",
        )
        assert set(obj) == {"kind", "params", "method", "polynomial"}
        assert obj["kind"] == "g"
        assert obj["method"] == "recursive"
        assert obj["params"]["b"] == "0"
        assert obj["polynomial"]["display"] == "q + q^2"
        assert obj["polynomial"]["terms"] == [["1", 1], ["2", 1]]

    def test_enumerate_matches_recursive(self, capsys):
        args = (
            "onedsum", "xbar", "--type", "A2even", "--rank", "1",
            "--b", "0", "--j", "2", "--xi", "L1", "--eta", "L1",
        )
        rec = run_json(capsys, *args, "--method", "recursive")
        enum = run_json(capsys, *args, "--method", "enumerate")
        assert rec["polynomial"] == enum["polynomial"]
        assert enum["method"] == "enumerate"

    @pytest.mark.parametrize(
        "argv,vectors",
        [
            (
                ("onedsum", "g", "--type", "A1", "--rank", "1", "--b", "0", "--j", "2"),
                (("--mu", "-2,2"),),
            ),
            (
                ("onedsum", "x", "--type", "A1", "--rank", "1", "--b", "0", "--j", "2"),
                (("--xi", "-1,3"), ("--eta", "-1,3")),
            ),
            (
                ("stringfn", "--type", "A1", "--rank", "2", "--lambda", "L0", "--M", "3"),
                (("--mu", "-1,2,-1"),),
            ),
        ],
        ids=["onedsum-g", "onedsum-x", "stringfn"],
    )
    def test_leading_minus_vector_is_a_value(self, capsys, argv, vectors):
        split = [token for pair in vectors for token in pair]
        joined = [f"{flag}={value}" for flag, value in vectors]
        code, out, err = run(capsys, *argv, *split)
        assert code == 0, err
        assert run(capsys, *argv, *joined) == (0, out, "")
        obj = json.loads(out)
        echoed = obj["params"] if "params" in obj else obj
        for flag, value in vectors:
            coords = [int(x) for x in value.split(",")]
            assert echoed[flag[2:]]["lambda"] == coords

    def test_signed_superposition_method(self, capsys):
        obj = run_json(
            capsys, "onedsum", "x", "--type", "A1", "--rank", "1",
            "--b", "1", "--j", "2", "--xi", "L0", "--eta", "L0",
            "--method", "weyl",
        )
        assert obj["method"] == "weyl_sum"
        assert obj["polynomial"]["display"] == "q^2"

    def test_affine_superposition_matches_enumeration(self, capsys):
        query = (
            "onedsum", "x", "--type", "D1", "--rank", "4", "--b", "4",
            "--j", "3", "--xi", "L0", "--eta", "L3",
        )
        weyl = run_json(capsys, *query, "--method", "weyl")
        enum = run_json(capsys, *query, "--method", "enumerate")
        assert weyl["polynomial"] == enum["polynomial"]

    def test_superposition_rejects_non_dominant_weight(self, capsys):
        code, out, err = run(
            capsys, "onedsum", "x", "--type", "A1", "--rank", "1",
            "--b", "0", "--j", "2", "--xi", "0,1", "--eta=-2,3",
            "--method", "weyl",
        )
        assert code == 2
        assert out == ""
        assert "not dominant" in err

    def test_unrestricted_rejects_superposition(self, capsys):
        code, _, _ = run(
            capsys, "onedsum", "g", "--type", "A1", "--rank", "1",
            "--b", "0", "--j", "1", "--mu", "0,0", "--method", "weyl",
        )
        assert code == 2

    def test_unknown_method_rejected_by_the_parser(self, capsys):
        code, out, err = run(
            capsys, "onedsum", "x", "--type", "A1", "--rank", "1", "--b", "0",
            "--j", "2", "--xi", "L0", "--eta", "L0", "--method", "bogus",
        )
        assert (code, out) == (2, "")
        assert "argument --method: invalid choice: 'bogus'" in err

    def test_missing_target_weight(self, capsys):
        code, _, err = run(
            capsys, "onedsum", "x", "--type", "A1", "--rank", "1",
            "--b", "1", "--j", "1", "--xi", "L0",
        )
        assert code == 2
        assert "eta" in err

    def test_unknown_letter_lists_alphabet(self, capsys):
        code, _, err = run(
            capsys, "onedsum", "g", "--type", "A1", "--rank", "1",
            "--b", "9", "--j", "1", "--mu", "0,0",
        )
        assert code == 2
        assert "'0'" in err and "'1'" in err

    def test_weight_size_checked(self, capsys):
        code, _, err = run(
            capsys, "onedsum", "g", "--type", "A1", "--rank", "1",
            "--b", "0", "--j", "1", "--mu", "0,0,0",
        )
        assert code == 2
        assert "coordinates" in err

    def test_csv_rows(self, capsys):
        code, out, _ = run(
            capsys, "onedsum", "g", "--type", "A1", "--rank", "1",
            "--b", "0", "--j", "2", "--mu", "0,0", "--format", "csv",
        )
        assert code == 0
        assert out.splitlines() == ["exponent,coefficient", "1,1", "2,1"]


class TestKostka:
    def test_hook_shape_example(self, capsys):
        obj = run_json(
            capsys, "kostka", "--xi", "2,1", "--l", "1", "--j", "3", "--n", "2"
        )
        assert obj["polynomial"]["display"] == "q + q^2"

    def test_rejects_non_partition(self, capsys):
        code, _, err = run(
            capsys, "kostka", "--xi", "1,2", "--l", "1", "--j", "3", "--n", "2"
        )
        assert code == 2
        assert "partition" in err

    def test_rejects_negative_box_sides(self, capsys):
        code, out, err = run(
            capsys, "kostka", "--xi", "3", "--l", "-1", "--j", "-3", "--n", "1"
        )
        assert (code, out) == (2, "")
        assert err == "error: --l must be nonnegative, got -1\n"


class TestStringFn:
    def test_partition_series(self, capsys):
        obj = run_json(
            capsys, "stringfn", "--type", "A1", "--rank", "1",
            "--lambda", "L0", "--M", "5",
        )
        assert obj["coefficients"] == [1, 1, 2, 3, 5, 7]

    def test_rank_two_series(self, capsys):
        obj = run_json(
            capsys, "stringfn", "--type", "A1", "--rank", "2",
            "--lambda", "L0", "--M", "3",
        )
        assert obj["coefficients"] == [1, 2, 5, 10]

    def test_window_guard(self, capsys):
        code, _, err = run(
            capsys, "stringfn", "--type", "A1", "--rank", "1",
            "--lambda", "L0", "--M", "5", "--max-window", "4",
        )
        assert code == 4
        assert "guard" in err

    def test_window_deeper_than_the_stack_exits_4(self, capsys):
        code, out, err = run(
            capsys, "stringfn", "--type", "A1", "--rank", "1",
            "--lambda", "L0", "--M", "1500", "--max-window", "4000",
        )
        assert code == 4
        assert out == ""
        assert err.startswith("guard: window j = 1500 is deeper than the interpreter stack")
        assert "Traceback" not in err

    def test_window_of_600_fits_the_stack(self, capsys):
        # Each window level costs one interpreter frame, and a window
        # recurses only below the states the windows before it stored.
        try:
            obj = run_json(
                capsys, "stringfn", "--type", "A1", "--rank", "1",
                "--lambda", "L0", "--M", "600", "--max-window", "2000",
            )
        finally:
            onedsums._recursion.cache_clear()
        assert obj["coefficients"] == colored_partition_counts(1, 600)

    def test_mu_of_nonzero_level_exits_2(self, capsys):
        code, out, err = run(
            capsys, "stringfn", "--type", "A1", "--rank", "1",
            "--lambda", "L0", "--M", "2", "--mu", "1,0",
        )
        assert code == 2
        assert out == ""
        assert err == "error: kind 'g' needs mu of level 0, got level 1\n"


class TestVerify:
    def test_formulas_suite_clean(self, capsys):
        code, out, _ = run(
            capsys, "verify", "formulas", "--type", "A1", "--rank", "1",
            "--jmax", "4",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["mismatches"] == []
        assert obj["cells_checked"] == 30

    def test_formulas_needs_jmax(self, capsys):
        code, _, err = run(capsys, "verify", "formulas", "--type", "A1", "--rank", "1")
        assert code == 2
        assert "jmax" in err

    @pytest.mark.parametrize("fmt", ["csv", "dot"])
    def test_non_json_format_rejected_before_any_suite(self, capsys, monkeypatch, fmt):
        def refuse(*args, **kwargs):
            raise AssertionError("a suite ran")

        monkeypatch.setattr(cli, "verify_type", refuse)
        monkeypatch.setattr(cli, "verify_perfect", refuse)
        for suite in ("formulas", "perfect"):
            code, out, err = run(
                capsys, "verify", suite, "--type", "A1", "--rank", "1",
                "--jmax", "2", "--format", fmt,
            )
            assert code == 2
            assert out == ""
            assert err == f"error: verify output supports json, not {fmt!r}\n"

    def test_explicit_json_matches_default(self, capsys):
        argv = ["verify", "formulas", "--type", "A1", "--rank", "1", "--jmax", "2"]
        assert run(capsys, *argv) == run(capsys, *argv, "--format", "json")

    def test_character_suite_covers_variants(self, capsys):
        code, out, _ = run(
            capsys, "verify", "character", "--type", "B1", "--rank", "3",
            "--kmax", "2",
        )
        assert code == 0
        cases = json.loads(out)["cases"]
        assert [(c["lambda"], c["variant"]) for c in cases] == [
            ("L0", 1),
            ("L1", 1),
            ("L3", 1),
            ("L3", 2),
        ]
        assert all(c["mismatches"] == [] for c in cases)

    def test_character_suite_covers_relabelled_nodes(self, capsys):
        # D1 4 schedules only L0; L1, L3 and L4 borrow its rule (and its
        # second variant) through diagram symmetries, and L2 has none.
        code, out, _ = run(
            capsys, "verify", "character", "--type", "D1", "--rank", "4",
            "--kmax", "7",
        )
        assert code == 0
        cases = json.loads(out)["cases"]
        assert [(c["lambda"], c["variant"]) for c in cases] == [
            (f"L{node}", variant) for node in (0, 1, 3, 4) for variant in (1, 2)
        ]
        assert all(c["k_max"] == 7 and c["mismatches"] == [] for c in cases)

    @pytest.mark.parametrize(
        "route",
        ["character_at_full_segment", "character_via_onedsums", "character_by_operators"],
    )
    def test_character_suite_checks_full_segments(self, capsys, monkeypatch, route):
        # Each route is diffed against the path route: A1 2 has two steps
        # per segment, so the full-segment route runs at k = 2 and 4, the
        # other two at every k.  The suite reads the operator route off one
        # running sequence of steps, ``operator_characters``.
        mismatches = [2, 4] if route == "character_at_full_segment" else list(range(6))
        if route == "character_by_operators":
            monkeypatch.setattr(
                cli, "operator_characters",
                lambda s, k_max: (FormalCharacter({}) for _ in range(k_max + 1)),
            )
        else:
            monkeypatch.setattr(cli, route, lambda s, k: FormalCharacter({}))
        code, out, _ = run(
            capsys, "verify", "character", "--type", "A1", "--rank", "2",
            "--kmax", "5",
        )
        assert code == 3
        cases = json.loads(out)["cases"]
        assert [c["mismatches"] for c in cases] == [mismatches] * 3

    def test_perfectness_suite(self, capsys):
        code, out, _ = run(
            capsys, "verify", "perfect", "--type", "A2odd", "--rank", "3"
        )
        assert code == 0
        obj = json.loads(out)
        assert (obj["level"], obj["ok"]) == (1, True)

    def test_unknown_suite(self, capsys):
        code, out, err = run(capsys, "verify", "nope", "--type", "A1", "--rank", "1")
        assert (code, out) == (2, "")
        assert "argument suite: invalid choice: 'nope'" in err


BOUNDS = {
    "--kmax": "nonnegative",
    "--level": "at least 1",
    "--max-window": "nonnegative",
    "--k": "nonnegative",
    "--M": "nonnegative",
    "--j": "nonnegative",
    "--l": "nonnegative",
    "--jmax": "nonnegative",
    "--n": "at least 1",
}


@pytest.mark.parametrize(
    "argv,option",
    [
        (["verify", "character", "--type", "A1", "--rank", "1", "--kmax", "-1"], "--kmax"),
        (["verify", "perfect", "--type", "A1", "--rank", "1", "--level", "-2"], "--level"),
        (["decomp-search", "--type", "A1", "--rank", "1", "--level", "-1"], "--level"),
        (["verify", "perfect", "--type", "A1", "--rank", "1", "--level", "0"], "--level"),
        (["decomp-search", "--type", "A1", "--rank", "1", "--level", "0"], "--level"),
        (["stringfn", "--type", "A1", "--rank", "1", "--lambda", "L0", "--M", "2",
          "--max-window", "-1"], "--max-window"),
        (["character", "A1", "1", "--lambda", "L0", "--k", "-1"], "--k"),
        (["stringfn", "--type", "A1", "--rank", "1", "--lambda", "L0", "--M", "-1"], "--M"),
        (["onedsum", "g", "--type", "A1", "--rank", "1", "--b", "0", "--mu", "0,0",
          "--j", "-1"], "--j"),
        (["verify", "formulas", "--type", "A1", "--rank", "1", "--jmax", "-1"], "--jmax"),
        (["kostka", "--xi", "3", "--j", "3", "--n", "1", "--l", "-1"], "--l"),
        (["kostka", "--xi", "3", "--l", "1", "--n", "1", "--j", "-3"], "--j"),
        (["kostka", "--xi", "1", "--l", "1", "--j", "1", "--n", "-2"], "--n"),
    ],
)
def test_negative_bound_exits_2_before_any_work(capsys, monkeypatch, argv, option):
    # a negative bound, or level 0, would check nothing and still report
    # success
    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "_crystal", refuse)
    monkeypatch.setattr(cli, "verify_type", refuse)
    monkeypatch.setattr(cli, "kostka", refuse)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {option} must be {BOUNDS[option]}, got {argv[-1]}\n"


@pytest.mark.parametrize(
    "suite,option,owner",
    [
        ("formulas", "--kmax", "character"),
        ("formulas", "--level", "perfect"),
        ("character", "--jmax", "formulas"),
        ("character", "--level", "perfect"),
        ("perfect", "--jmax", "formulas"),
        ("perfect", "--kmax", "character"),
    ],
)
def test_option_of_another_verify_suite_exits_2_before_any_work(
    capsys, monkeypatch, suite, option, owner
):
    # a bound the suite does not read would be silently ignored
    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("_crystal", "verify_type", "verify_perfect"):
        monkeypatch.setattr(cli, name, refuse)
    argv = ["verify", suite, "--type", "A1", "--rank", "1", option, "3"]
    if suite == "formulas":
        argv += ["--jmax", "1"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {option} is an option of verify {owner}, not of verify {suite}\n"


@pytest.mark.parametrize(
    "kind,option,owner",
    [
        ("g", "--xi", "x and xbar"),
        ("g", "--eta", "x and xbar"),
        ("x", "--mu", "g"),
        ("xbar", "--mu", "g"),
    ],
)
def test_weight_of_another_onedsum_kind_exits_2_before_any_work(
    capsys, monkeypatch, kind, option, owner
):
    # a weight the kind does not read would be silently ignored, even
    # one that does not parse
    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("_crystal", "_parse_weight"):
        monkeypatch.setattr(cli, name, refuse)
    weights = ["--mu", "0,0"] if kind == "g" else ["--xi", "L0", "--eta", "L0"]
    argv = ["onedsum", kind, "--type", "A1", "--rank", "1", "--b", "0", "--j", "1", *weights]
    code, out, err = run(capsys, *argv, option, "garbage")
    assert (code, out) == (2, "")
    assert err == f"error: {option} is an option of onedsum {owner}, not of onedsum {kind}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["character", "A1", "1", "--lambda", "L0", "--k", "3000", "--method", "paths"],
        ["onedsum", "g", "--type", "A1", "--rank", "1", "--b", "0", "--j", "3000",
         "--mu", "0,0", "--method", "recursive"],
        ["onedsum", "g", "--type", "A1", "--rank", "1", "--b", "0", "--j", "3000",
         "--mu", "0,0", "--method", "enumerate"],
        ["kostka", "--xi", "3000", "--l", "1", "--j", "3000", "--n", "1"],
    ],
    ids=["character", "onedsum-recursive", "onedsum-enumerate", "kostka"],
)
def test_window_deeper_than_the_stack_exits_4(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 4
    assert out == ""
    assert err == (
        f"guard: {argv[0]} needs a window deeper than the interpreter stack "
        f"(recursion limit {sys.getrecursionlimit()})\n"
    )


@pytest.mark.parametrize("target", ["missing/x.json", "."], ids=["no-parent", "directory"])
def test_unwritable_out_exits_2(capsys, tmp_path, target):
    path = tmp_path / target
    code, out, err = run(capsys, "graph", "A1", "1", "--out", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {path}: ")
    assert "Traceback" not in err


class TestDecompSearch:
    def test_level_one_all_found(self, capsys):
        code, out, _ = run(capsys, "decomp-search", "--type", "D2", "--rank", "2")
        assert code == 0
        results = json.loads(out)["results"]
        assert [e["xi"] for e in results] == [[0, 0, 1], [1, 0, 0]]
        assert all(e["found"] for e in results)
        for entry in results:
            covered = [b for w in entry["witness"] for b in w["string"]]
            assert sorted(covered) == sorted(entry["non_admissible"])

    def test_csv_summary(self, capsys):
        code, out, _ = run(
            capsys, "decomp-search", "--type", "A1", "--rank", "1",
            "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[0] == "xi,found,strings"


# JSON values of every kind the writer walks itself: ints of both signs
# and beyond 64 bits, bools, None, strings with quotes, backslashes,
# control and non-ASCII characters, and nested (possibly empty) dicts,
# lists and tuples; floats take the json.dumps fallback.
JSON_VALUES = st.recursive(
    st.none()
    | st.floats()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**80), max_value=2**80)
    | st.text(alphabet=st.sampled_from('ab"\\/\n\t\x00\x1f\x7fé€😀 '))
    | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=25,
)


# Characters of 1 to 4 coordinates plus delta, the empty one included.
CHARACTERS = st.integers(min_value=1, max_value=4).flatmap(
    lambda size: st.dictionaries(
        st.tuples(*[st.integers(-50, 50)] * (size + 1)),
        st.integers(-(2**70), 2**70).filter(bool),
        max_size=6,
    )
).map(FormalCharacter)


# Hypothesis's explain phase reruns a failing example hundreds of times
# under a line tracer, 35 s for one failing JSON writer test; the shrunk
# example and the offset of its first difference say enough.
WITHOUT_EXPLAIN = [phase for phase in Phase if phase is not Phase.explain]


def assert_same_text(got: str, want: str, context: int = 60) -> None:
    """Fail with the lengths and the first differing offset of two texts,
    and a little context around it, rather than the whole texts: pytest's
    diff of two texts of hundreds of KB takes minutes."""
    if got == want:
        return
    at = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    lo = max(0, at - context)
    raise AssertionError(
        f"texts differ at offset {at} (lengths {len(got)} and {len(want)}):\n"
        f"  got  {got[lo:at + context]!r}\n  want {want[lo:at + context]!r}"
    )


def nest(value, depth):
    """value placed ``depth`` containers deep, alternating dict and list."""
    for level in range(depth):
        value = {"k": value, "n": level} if level % 2 else [level, value]
    return value


class TestJsonWriter:
    @settings(max_examples=200, deadline=None, phases=WITHOUT_EXPLAIN)
    @given(JSON_VALUES)
    def test_matches_stdlib_bytes(self, obj):
        assert_same_text(cli._json_text(obj), json.dumps(obj, indent=2) + "\n")

    @settings(max_examples=200, deadline=None, phases=WITHOUT_EXPLAIN)
    @given(CHARACTERS, st.integers(min_value=0, max_value=3))
    @example(FormalCharacter({}), 1)
    def test_characters_match_reference_layout(self, chi, depth):
        want = json.dumps(nest(character_json_obj(chi), depth), indent=2) + "\n"
        assert_same_text(cli._json_text(nest(chi, depth)), want)

    @pytest.mark.parametrize("obj", [{"a": {1, 2}}, [object()]])
    def test_unserializable_raises_as_stdlib(self, obj):
        with pytest.raises(TypeError) as stdlib:
            json.dumps(obj, indent=2)
        with pytest.raises(TypeError) as ours:
            cli._json_text(obj)
        assert str(ours.value) == str(stdlib.value)

    @settings(max_examples=100, deadline=None, phases=WITHOUT_EXPLAIN)
    @given(CHARACTERS, CHARACTERS)
    def test_repeated_characters_match_stdlib(self, chi, other):
        # Equal characters at other depths reuse one text, re-indented;
        # a different one in between is written on its own.
        obj = {"a": chi, "b": [other, {"c": chi}], "d": nest(chi, 3), "e": other}
        want = {
            "a": character_json_obj(chi),
            "b": [character_json_obj(other), {"c": character_json_obj(chi)}],
            "d": nest(character_json_obj(chi), 3),
            "e": character_json_obj(other),
        }
        assert_same_text(cli._json_text(obj), json.dumps(want, indent=2) + "\n")

    @pytest.mark.parametrize("patched", ["character_by_operators", "character_by_paths"])
    def test_unequal_routes_each_write_their_own_block(self, capsys, monkeypatch, patched):
        # D1 4 at k = 12 is a full segment.  One route gives the k = 11
        # character instead, so it differs from the other two, and the
        # full-segment block repeats the unpatched route's text at the top
        # level instead of under "characters".
        crystal = perfect_crystal("D1", 4)
        s = demazure_schedule(crystal, crystal.cartan.fundamental_weight(0))
        route = getattr(cli, patched)
        monkeypatch.setattr(cli, patched, lambda s, k: route(s, k - 1))
        code, out, _ = run(
            capsys, "character", "D1", "4", "--lambda", "L0", "--k", "12",
            "--method", "both",
        )
        assert code == 3
        obj = json.loads(out)
        assert obj["equal"] is False
        assert obj["full_segment_equal"] is (patched == "character_by_operators")
        chars = {
            "operators": character_by_operators(s, 12),
            "paths": character_by_paths(s, 12),
        }
        chars[patched.rpartition("_")[2]] = route(s, 11)
        assert chars["operators"] != chars["paths"]
        obj["characters"] = {name: character_json_obj(chi) for name, chi in chars.items()}
        obj["full_segment"] = character_json_obj(character_at_full_segment(s, 2))
        assert_same_text(out, json.dumps(obj, indent=2) + "\n")
        for name, chi in chars.items():
            block = json.dumps(character_json_obj(chi), indent=2).replace("\n", "\n    ")
            assert f'"{name}": {block}' in out

    def test_bench_sized_character_matches_stdlib(self, capsys):
        # The largest character command of the benchmark.  The reference
        # object is its output with each character recomputed by its route
        # and laid out as nested dicts and lists; the stdlib writes it.
        code, out, _ = run(
            capsys, "character", "D1", "4", "--lambda", "L0", "--k", "24",
            "--method", "both",
        )
        assert code == 0
        crystal = perfect_crystal("D1", 4)
        s = demazure_schedule(crystal, crystal.cartan.fundamental_weight(0))
        obj = json.loads(out)
        obj["characters"] = {
            "operators": character_json_obj(character_by_operators(s, 24)),
            "paths": character_json_obj(character_by_paths(s, 24)),
        }
        obj["full_segment"] = character_json_obj(
            character_at_full_segment(s, 24 // s.d)
        )
        assert len(obj["full_segment"]) > 1000
        assert_same_text(out, json.dumps(obj, indent=2) + "\n")


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["character", "A1", "2", "--lambda", "L0", "--k", "3"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_thread_count_invisible_in_output(self, tmp_path, capsys):
        first, second = tmp_path / "s", tmp_path / "t"
        argv = ["character", "B1", "3", "--lambda", "L0", "--k", "4"]
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        # there is no thread count to set: the option is unknown
        assert main(argv + ["--threads", "4"]) == 2
        assert "unrecognized arguments: --threads 4" in capsys.readouterr().err

    def test_verifier_threads_invisible_in_output(self, tmp_path):
        first, second = tmp_path / "s", tmp_path / "t"
        argv = ["verify", "formulas", "--type", "A2even", "--rank", "1",
                "--jmax", "2"]
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()


def test_console_script_entry_point_is_main(capsys):
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    match = re.search(
        r'^\[project\.scripts\]\s*^demchar\s*=\s*"([\w.]+):(\w+)"',
        pyproject.read_text(),
        re.MULTILINE,
    )
    assert match, "no demchar entry under [project.scripts]"
    target = getattr(importlib.import_module(match[1]), match[2])
    assert target is cli.main
    assert target(["graph", "A1", "1"]) == 0
    assert capsys.readouterr().out == perfect_crystal("A1", 1).to_dot() + "\n"


def test_console_script():
    src = str(Path(demchar.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.run(
        [sys.executable, "-m", "demchar.cli", "graph", "A1", "1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == perfect_crystal("A1", 1).to_dot() + "\n"


# Commands of different subcommands and outcomes: output, a bad format
# (exit 2 from the command) and an argparse error (exit 2, usage on stderr).
ONE_PROCESS = [
    ["stringfn", "--type", "A1", "--rank", "2", "--lambda", "L0", "--M", "3"],
    ["kostka", "--xi", "2,1", "--l", "1", "--j", "3", "--n", "2", "--format", "csv"],
    ["character", "A1", "1", "--lambda", "L0"],
    ["graph", "A1", "1", "--format", "csv"],
    ["verify", "formulas", "--type", "A1", "--rank", "1", "--jmax", "1", "--format", "dot"],
]


def test_commands_in_one_process_give_the_bytes_of_separate_runs(capsys, monkeypatch):
    """The parser is built once per process and serves every command
    after it: each command gives, run after the others in this process,
    the exit code and bytes it gives alone in a fresh interpreter."""
    src = str(Path(demchar.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else ""), "COLUMNS": "80"}
    monkeypatch.setenv("COLUMNS", "80")
    alone = [
        subprocess.run([sys.executable, "-m", "demchar.cli", *argv], capture_output=True, env=env)
        for argv in ONE_PROCESS
    ]
    assert cli._build_parser() is cli._build_parser()
    for argv, proc in [*zip(ONE_PROCESS, alone), *zip(ONE_PROCESS[::-1], alone[::-1])]:
        code = main(argv)
        out, err = capsys.readouterr()
        got = (code, out.encode(), err.encode())
        assert got == (proc.returncode, proc.stdout, proc.stderr), argv
