import json
import subprocess
import sys
from fractions import Fraction

import pytest

from rational_kcbs import cli, contextuality
from rational_kcbs.cli import MAX_BOUND_N, MAX_DIGITS, main
from rational_kcbs.contextuality import cycle_operator, kcbs_value, reference_scenario
from rational_kcbs.rationals import format_rational, parse_rational
from tests.conftest import REF_KCBS_VALUE

REF_CONFIG = {
    "state": ["354/527", "357/527", "-158/527"],
    "vectors": [
        ["1", "0", "0"],
        ["0", "1", "0"],
        ["48/73", "0", "-55/73"],
        ["1925/3277", "2052/3277", "1680/3277"],
        ["0", "140/221", "-171/221"],
    ],
}

DEGENERATE_CONFIG = {
    "state": ["1", "0", "0"],
    "vectors": [
        ["1", "0", "0"],
        ["0", "1", "0"],
        ["1", "0", "0"],
        ["0", "1", "0"],
        ["0", "0", "1"],
    ],
}

CHECK_KEYS = {
    "observables_square_to_identity",
    "observables_trace_minus_one",
    "adjacent_observables_commute",
    "correlators_in_range",
    "value_in_range",
    "projection_identity_matches",
    "classical_bound_enumerated",
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def config_variant(**overrides):
    data = {k: json.loads(json.dumps(v)) for k, v in REF_CONFIG.items()}
    data.update(overrides)
    return data


# ------------------------------------------------------------------ reference


def test_reference_report(capsys):
    code, out, err = run_cli(capsys, "reference")
    assert code == 0
    report = json.loads(out)
    assert report["value"] == format_rational(REF_KCBS_VALUE)
    assert report["decimal"] == "-3.941"
    assert report["classical_bound"] == -3
    assert report["violation"] is True
    assert report["per_correlator"][0] == "-227801/277729"
    assert len(report["per_correlator"]) == 5
    assert set(report["checks"]) == CHECK_KEYS
    assert all(report["checks"].values())
    assert "violation" in err


def test_reference_output_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "reference")
    _, second, _ = run_cli(capsys, "reference")
    assert first == second


def test_reference_digits_flag(capsys):
    _, out, _ = run_cli(capsys, "reference", "--digits", "6")
    assert json.loads(out)["decimal"] == "-3.940640"


def test_reference_values_round_trip_exactly(capsys):
    _, out, _ = run_cli(capsys, "reference")
    report = json.loads(out)
    value = parse_rational(report["value"])
    assert value == REF_KCBS_VALUE
    corrs = [parse_rational(c) for c in report["per_correlator"]]
    assert sum(corrs) == value
    # the report sums its own correlators; that must equal the public sum
    assert value == kcbs_value(reference_scenario())


# --------------------------------------------------------------- verify/evaluate


def test_verify_valid_config(capsys, tmp_path):
    path = write_config(tmp_path, REF_CONFIG)
    code, out, err = run_cli(capsys, "verify", path)
    assert code == 0
    assert json.loads(out) == {"valid": True, "n": 5}
    assert "valid 5-cycle" in err


def test_evaluate_matches_reference(capsys, tmp_path):
    path = write_config(tmp_path, REF_CONFIG)
    _, from_config, _ = run_cli(capsys, "evaluate", path)
    _, builtin, _ = run_cli(capsys, "reference")
    assert from_config == builtin


def test_evaluate_boundary_case(capsys, tmp_path):
    path = write_config(tmp_path, DEGENERATE_CONFIG)
    code, out, _ = run_cli(capsys, "evaluate", path)
    assert code == 0
    report = json.loads(out)
    assert report["value"] == "-3"
    assert report["decimal"] == "-3.000"
    assert report["violation"] is False
    assert all(report["checks"].values())


def test_verify_broken_adjacency(capsys, tmp_path):
    bad = config_variant()
    bad["vectors"][3] = ["1925/3277", "2052/3277", "-1680/3277"]
    path = write_config(tmp_path, bad)
    code, out, err = run_cli(capsys, "verify", path)
    assert code == 1
    payload = json.loads(out)
    assert payload["valid"] is False
    assert payload["invariant"] == "adjacent-not-orthogonal"
    assert payload["pair"] == [2, 3]
    assert err.startswith("INVALID")


def test_verify_non_unit_vector(capsys, tmp_path):
    bad = config_variant()
    bad["vectors"][2] = ["48/73", "0", "-55/74"]
    path = write_config(tmp_path, bad)
    code, out, _ = run_cli(capsys, "verify", path)
    assert code == 1
    payload = json.loads(out)
    assert payload["invariant"] == "vector-not-unit"
    assert payload["index"] == 2


def test_verify_non_unit_state(capsys, tmp_path):
    path = write_config(tmp_path, config_variant(state=["1", "1", "0"]))
    code, out, _ = run_cli(capsys, "verify", path)
    assert code == 1
    assert json.loads(out)["invariant"] == "state-not-unit"


def test_verify_even_cycle(capsys, tmp_path):
    bad = config_variant()
    bad["vectors"] = bad["vectors"][:4]
    path = write_config(tmp_path, bad)
    code, out, _ = run_cli(capsys, "verify", path)
    assert code == 1
    assert json.loads(out)["invariant"] == "cycle-length"


def test_evaluate_reports_invalid_too(capsys, tmp_path):
    path = write_config(tmp_path, config_variant(state=["1", "1", "0"]))
    code, out, _ = run_cli(capsys, "evaluate", path)
    assert code == 1
    assert json.loads(out)["valid"] is False


def test_evaluate_builds_each_observable_and_correlator_once(capsys, tmp_path, monkeypatch):
    calls = {"make_observable": 0, "correlator": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        wrapper = counted(name, getattr(contextuality, name))
        for module in (contextuality, cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)

    path = write_config(tmp_path, REF_CONFIG)
    code, _, _ = run_cli(capsys, "evaluate", path)
    assert code == 0
    assert calls == {"make_observable": 5, "correlator": 5}

    vectors = reference_scenario().vectors
    calls["make_observable"] = 0
    cycle_operator(vectors)
    assert calls["make_observable"] == 5


# ---------------------------------------------------------------- config errors


@pytest.mark.parametrize(
    "data",
    [
        {"state": ["1", "0"], "vectors": REF_CONFIG["vectors"]},  # short triple
        {"state": ["1", "0", "0"], "vectors": []},  # no vectors
        {"state": REF_CONFIG["state"]},  # missing key
        {"state": REF_CONFIG["state"], "vectors": REF_CONFIG["vectors"], "extra": 1},
        {"state": ["0.5", "0", "0"], "vectors": REF_CONFIG["vectors"]},  # decimal
        {"state": ["1/0", "0", "0"], "vectors": REF_CONFIG["vectors"]},  # zero den
        {"state": [1, 0, 0], "vectors": REF_CONFIG["vectors"]},  # numbers, not strings
        ["not", "an", "object"],
    ],
)
def test_malformed_config_exits_2(capsys, tmp_path, data):
    path = write_config(tmp_path, data)
    code, out, err = run_cli(capsys, "verify", path)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_missing_file_exits_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "verify", str(tmp_path / "nope.json"))
    assert code == 2
    assert err.startswith("error:")


def test_unparseable_json_exits_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("command", ["verify", "evaluate"])
def test_non_utf8_config_exits_2(capsys, tmp_path, command):
    path = tmp_path / "utf16.json"
    path.write_bytes(json.dumps(REF_CONFIG).encode("utf-16"))  # starts ff fe
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_evaluate_long_cycle_certifies_bound(capsys, tmp_path):
    # e_x, e_y alternate and e_z closes the cycle: a valid 27-cycle
    n = 27
    config = {
        "state": ["1", "0", "0"],
        "vectors": [["1", "0", "0"], ["0", "1", "0"]] * (n // 2) + [["0", "0", "1"]],
    }
    code, out, _ = run_cli(capsys, "evaluate", write_config(tmp_path, config))
    assert code == 0
    report = json.loads(out)
    assert report["classical_bound"] == -(n - 2)
    assert report["checks"]["classical_bound_enumerated"] is True


# --------------------------------------------------------------------- bound


def test_bound_pentagon(capsys):
    code, out, _ = run_cli(capsys, "bound", "--n", "5")
    assert code == 0
    assert json.loads(out) == {"n": 5, "classical_bound": -3, "witness": [-1, -1, 1, -1, 1]}


def test_bound_triangle(capsys):
    code, out, _ = run_cli(capsys, "bound", "--n", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["classical_bound"] == -1


def test_bound_long_cycle(capsys):
    code, out, _ = run_cli(capsys, "bound", "--n", "27")
    assert code == 0
    payload = json.loads(out)
    assert payload["classical_bound"] == -25
    assert payload["witness"] == [-1, -1] + [1, -1] * 12 + [1]


def test_bound_limit_is_inclusive(capsys):
    code, out, _ = run_cli(capsys, "bound", "--n", str(MAX_BOUND_N))
    assert code == 0
    assert json.loads(out)["classical_bound"] == -(MAX_BOUND_N - 2)


@pytest.mark.parametrize("n", ["4", str(MAX_BOUND_N + 2), "0"])
def test_bound_rejects_bad_length(capsys, n):
    code, out, err = run_cli(capsys, "bound", "--n", n)
    assert code == 1
    assert out == ""
    assert err.startswith("INVALID")


# -------------------------------------------------------------------- search


def test_search_empty_grid(capsys):
    code, out, err = run_cli(capsys, "search", "--max-mn", "2", "--max-den", "50")
    assert code == 0
    assert json.loads(out) == []
    assert "no violating configuration" in err


def test_search_finds_and_round_trips(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "search", "--max-mn", "14", "--max-den", "600", "--top", "1"
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 1
    hit = payload[0]
    assert hit["params"] == {"first": {"m": 8, "n": 3}, "second": {"m": 14, "n": 5}}
    assert hit["state_denominator_bound"] == 600
    assert hit["report"]["violation"] is True
    assert "violating configuration" in err
    # the emitted config must evaluate to the exact same value
    path = write_config(tmp_path, hit["config"])
    code, out, _ = run_cli(capsys, "evaluate", path)
    assert code == 0
    assert json.loads(out)["value"] == hit["report"]["value"]


# the commands that take --digits; CONFIG stands for a valid config path
DIGITS_COMMANDS = [
    ["reference"],
    ["evaluate", "CONFIG"],
    ["search", "--max-mn", "2", "--max-den", "50"],
]


@pytest.mark.parametrize("argv", DIGITS_COMMANDS)
def test_negative_digits_exits_via_argparse(capsys, tmp_path, argv):
    argv = [write_config(tmp_path, REF_CONFIG) if a == "CONFIG" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--digits", "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert "--digits" in err


@pytest.mark.parametrize("argv", DIGITS_COMMANDS)
def test_digits_above_limit_exit_via_argparse(capsys, tmp_path, argv):
    argv = [write_config(tmp_path, REF_CONFIG) if a == "CONFIG" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--digits", str(MAX_DIGITS + 1)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert "--digits" in err


def test_digits_limit_is_inclusive(capsys):
    code, out, _ = run_cli(capsys, "reference", "--digits", str(MAX_DIGITS))
    assert code == 0
    assert json.loads(out)["decimal"].startswith("-3.940640")


def test_search_rejects_bad_bounds(capsys):
    code, _, err = run_cli(capsys, "search", "--max-mn", "0")
    assert code == 1
    assert err.startswith("INVALID")


def test_search_over_size_limit_exits_1(capsys):
    code, out, err = run_cli(capsys, "search", "--max-mn", "3000")
    assert code == 1
    assert out == ""
    assert err.startswith("INVALID")


# ------------------------------------------------------------------- plumbing


def test_unknown_command_exits_via_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_missing_command_exits_via_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "rational_kcbs", "reference"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["decimal"] == "-3.941"


def test_value_strings_never_use_floats(capsys):
    # every numeric quantity in the report is a fraction string, an int
    # bound, or a fixed-point decimal string; floats must not appear
    _, out, _ = run_cli(capsys, "reference")
    report = json.loads(out)
    assert isinstance(report["classical_bound"], int)
    for text in [report["value"], *report["per_correlator"]]:
        assert isinstance(parse_rational(text), Fraction)
    assert isinstance(report["decimal"], str)
