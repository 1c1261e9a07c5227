"""Command dispatch, exit codes, output formats, and the JSON schema."""

import json

import golden
from timing import time_limit
from wstable.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    assert err == ""
    return code, json.loads(out)


def test_closure_text(capsys):
    code, out, _ = run_cli(capsys, "closure", "x1*x2*x3^2", "--weights", "3,2,1")
    assert code == 0
    assert out.strip() == "x1*x2*x3^2, x1^3, x1^2*x2, x1^2*x3, x1*x2^2"


def test_closure_of_huge_exponent_is_one_generator(capsys):
    """The closure walk does not step through the degree, so a huge exponent is cheap."""
    with time_limit(1.0):
        code, out, _ = run_cli(capsys, "closure", "x1^100000000")
    assert code == 0
    assert out.strip() == "x1^100000000"


def test_closure_json_schema(capsys):
    code, doc = run_json(capsys, "closure", "x1*x2*x3^2", "--weights", "3,2,1")
    assert code == 0
    assert doc == {
        "command": "closure",
        "input": "x1*x2*x3^2",
        "weights": [3, 2, 1],
        "result": {
            "generators": ["x1*x2*x3^2", "x1^3", "x1^2*x2", "x1^2*x3", "x1*x2^2"],
            "nvars": 3,
        },
    }


def test_is_wstable_true_and_false(capsys):
    code, out, _ = run_cli(capsys, "is-wstable", "x1, x2^2", "--weights", "2,1")
    assert (code, out.strip()) == (0, "true")
    code, out, _ = run_cli(capsys, "is-wstable", "x1^2, x2^2", "--weights", "1,1")
    assert (code, out.strip()) == (3, "false")


def test_bgens(capsys):
    code, out, _ = run_cli(capsys, "bgens", "x1^2, x1*x2^2, x2^4",
                           "--weights", "2,1")
    assert code == 0
    assert out.strip() == "x2^4"


def test_bgens_contract_violation_exit_code(capsys):
    code, out, err = run_cli(capsys, "bgens", "x2^2", "--weights", "1,1")
    assert code == 2
    assert "not (1, 1)-stable" in err


def test_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "closure", "x1 + x2")
    assert code == 1
    assert "unexpected character" in err
    code, _, err = run_cli(capsys, "closure", "x1", "--weights", "1,2")
    assert code == 1


def test_catalan_text_golden(capsys):
    code, out, _ = run_cli(capsys, "catalan", "x1*x2^3*x3^2", "--weights", "3,2,1")
    assert code == 0
    assert out == golden.CATALAN_TEXT_321_DEG11 + "\n"


def test_catalan_json(capsys):
    code, doc = run_json(capsys, "catalan", "x1*x2*x3^2", "--weights", "1,1,1")
    assert code == 0
    assert doc["result"]["rows"] == [list(r) for r in golden.CATALAN_ONES_DEG4]
    assert doc["result"]["weighted_degree"] == 4


def test_tree_adjacency(capsys):
    code, out, _ = run_cli(capsys, "tree", "x2^2*x3", "--weights", "4,2,1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1: x1 x2"
    assert "x2^2: x2^3 x2^2*x3" in lines


def test_tree_ideal_json(capsys):
    code, doc = run_json(capsys, "tree-ideal", golden.CONE_IDEAL_TEXT)
    assert code == 0
    assert set(map(tuple, doc["result"]["edges"])) == set(golden.GENERATOR_TREE_EDGES)
    assert set(doc["result"]["sinks"]) == set(golden.GENERATOR_TREE_SINKS)


def test_hilbert_with_expansion(capsys):
    code, doc = run_json(capsys, "hilbert", "x1, x2^2", "--weights", "2,1",
                         "--expand-to", "6")
    assert code == 0
    assert doc["result"]["expansion"] == [1, 1, 0, 0, 0, 0, 0]
    assert doc["result"]["terms"] is None or doc["result"]["terms"]


def test_stanley_text(capsys):
    code, out, _ = run_cli(capsys, "stanley", "x1", "--nvars", "3")
    assert code == 0
    assert out.strip() == "1 * K[x2, x3]"


def test_stanley_letters_naming(capsys):
    code, out, _ = run_cli(capsys, "stanley", "x", "--nvars", "3")
    assert code == 0
    assert out.strip() == "1 * K[y, z]"


def test_weight_vector_json_positive_golden(capsys):
    code, doc = run_json(capsys, "weight-vector", golden.CONE_IDEAL_TEXT)
    assert code == 0
    assert doc == {
        "command": "weight-vector",
        "input": golden.CONE_IDEAL_TEXT,
        "weights": [1, 1, 1],
        "result": {"weights": [5, 3, 1]},
    }


def test_poincare_text(capsys):
    code, out, _ = run_cli(capsys, "poincare", "x1*x2*x3^2, x1^2*x3, x1*x2^2,"
                           " x1^2*x2, x1^3", "--weights", "3,2,1")
    assert code == 0
    assert out.strip() == ("2*t^12*u^3 + t^11*u^2 + 3*t^10*u^2 + 2*t^9*u^2"
                           + " + t^9*u + t^8*u + 3*t^7*u")


def test_betti_table_text(capsys):
    code, out, _ = run_cli(capsys, "betti", "x1*x2*x3^2, x1^2*x3, x1*x2^2,"
                           " x1^2*x2, x1^3", "--weights", "3,2,1")
    assert code == 0
    assert "total: 1 5 6 2" in out


def test_cone_rays_text(capsys):
    code, out, _ = run_cli(capsys, "cone", golden.CONE_IDEAL_TEXT)
    assert code == 0
    assert out.splitlines() == ["2 1 1", "2 1 0", "1 1 0"]


def test_weight_vector_positive(capsys):
    code, out, _ = run_cli(capsys, "weight-vector", golden.CONE_IDEAL_TEXT)
    assert code == 0
    assert out.strip() == "5,3,1"


def test_weight_vector_negative(capsys):
    code, out, _ = run_cli(capsys, "weight-vector", golden.NOT_PRINCIPAL_IDEAL_TEXT)
    assert code == 3
    assert out.strip() == "not principally w-stable"


def test_weight_vector_json_negative(capsys):
    code, doc = run_json(capsys, "weight-vector", golden.NOT_PRINCIPAL_IDEAL_TEXT)
    assert code == 3
    assert doc["result"] == {"outcome": "not principally w-stable"}


def test_stdin_input(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("x1, x2^2\n"))
    code, out, _ = run_cli(capsys, "is-wstable", "-", "--weights", "2,1")
    assert (code, out.strip()) == (0, "true")


def test_default_weights_are_all_ones(capsys):
    code, doc = run_json(capsys, "closure", "x2^2")
    assert code == 0
    assert doc["weights"] == [1, 1]
    assert doc["result"]["generators"] == ["x1^2", "x1*x2", "x2^2"]


def test_nvars_weights_conflict(capsys):
    code, _, err = run_cli(capsys, "closure", "x1", "--weights", "2,1",
                           "--nvars", "3")
    assert code == 1
    assert "conflicts" in err


def test_nvars_below_one(capsys):
    for count in ("-2", "0"):
        code, out, err = run_cli(capsys, "closure", "1", "--nvars", count)
        assert code == 1
        assert out == ""
        assert err == f"error: variable count must be at least 1, got {count}\n"


def test_help(capsys):
    code, out, err = run_cli(capsys, "--help")
    assert code == 0
    assert out.startswith("usage:")
    assert err == ""


def test_usage_error_unknown_command(capsys):
    code, _, err = run_cli(capsys, "frobnicate", "x1")
    assert code == 1
