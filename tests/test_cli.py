import argparse
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from rational_kcbs import cli, contextuality, linalg3, rationals
from rational_kcbs.cli import MAX_BOUND_N, MAX_DIGITS, main
from rational_kcbs.contextuality import (
    CycleValidationError,
    UnitVectorQ,
    _int_mat_mul,
    correlator,
    kcbs_value,
    kcbs_value_via_projections,
    make_observable,
    reference_scenario,
    validate_cycle,
)
from rational_kcbs.linalg3 import Vec3Q, dot
from rational_kcbs.rationals import format_rational, parse_rational
from rational_kcbs.search import stereo_lift
from tests.conftest import REF_KCBS_VALUE, int_limit_message, odd_cycle, rand_fraction, rand_wire_text, rotation
from tests.oracles import identity_mat, mat_from_rows, parse_triple_by_components, report_checks_rows

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


def huge_state_config():
    """The reference pentagon with an exactly unit state whose components
    have about 4000-digit numerators and denominators (below the 4300-digit
    int-to-str limit), so the report's value has about 8000-digit ones."""
    p = Fraction(3**2000 + 1, 7**1180)
    q = Fraction(-(5**1400), 11**950)
    state = stereo_lift(p, q).v
    return config_variant(state=[format_rational(c) for c in state.as_tuple()]), state


def fraction_in_chunks(r):
    """``p/q`` with the digits converted 1000 at a time, so that no single
    int-to-str conversion meets the interpreter's digit limit."""

    def digits(k):
        sign, k, chunks = "-" if k < 0 else "", abs(k), []
        while k >= 10**1000:
            k, low = divmod(k, 10**1000)
            chunks.append(str(low).zfill(1000))
        return sign + str(k) + "".join(reversed(chunks))

    return f"{digits(r.numerator)}/{digits(r.denominator)}"


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


# ------------------------------------------------------------- report checks


def _diagonal(a, b, c):
    return mat_from_rows(((a, 0, 0), (0, b, 0), (0, 0, c)))


def _checks_breaking(key):
    """Inputs to ``cli._run_checks`` that break exactly the check ``key``:
    the reference scenario with a replaced field, or a wrong value or
    correlator list."""
    s = reference_scenario()
    corrs = [correlator(s, i) for i in range(s.n)]
    value = sum(corrs)
    flip = _diagonal(1, -1, -1)  # squares to I, trace -1
    if key == "observables_square_to_identity":
        # diagonal, so every pair commutes; trace -1, but squares to diag(4, 1, 4)
        s.__dict__["observables"] = (flip,) * 4 + (_diagonal(2, -1, -2),)
    elif key == "observables_trace_minus_one":
        s.__dict__["observables"] = (flip,) * 4 + (identity_mat(),)
    elif key == "adjacent_observables_commute":
        # a genuine observable that does not commute with its neighbour 2|e_x><e_x| - 1
        tilted = make_observable(UnitVectorQ(Vec3Q(Fraction(3, 5), Fraction(4, 5), 0)))
        s.__dict__["observables"] = (s.observables[0], tilted) + s.observables[2:]
    elif key == "correlators_in_range":
        corrs[0] = Fraction(2)
    elif key == "value_in_range":
        # a doubled state and the projection route's value for it: far
        # below -n, yet the two agree
        s.__dict__["state"] = SimpleNamespace(v=Vec3Q(*(2 * c for c in s.state.v.as_tuple())))
        value = kcbs_value_via_projections(s)
    elif key == "projection_identity_matches":
        value += Fraction(1, 10**30)
    return s, value, corrs


@pytest.mark.parametrize("key", sorted(CHECK_KEYS - {"classical_bound_enumerated"}))
def test_report_check_reads_false_when_broken(key):
    checks = cli._run_checks(*_checks_breaking(key))
    assert checks == {k: k != key for k in checks}


def _rotated_odd_cycles():
    """Seeded odd cycles n = 3..23, rotated by an exact rotation from a
    30-digit quaternion (about 60-digit components), each with a state
    lifted from a 30-digit plane point."""
    rng = random.Random(2020)
    for n in range(3, 24, 2):
        rows = rotation(*(rng.randint(-10**30, 10**30) for _ in range(4)))
        state = stereo_lift(rand_fraction(rng, 10**30, 10**30), rand_fraction(rng, 10**30, 10**30)).v
        s = validate_cycle(state, [Vec3Q(*(dot(r, u.v) for r in rows)) for u in odd_cycle(rng, n)])
        assert s.n == n and max(c.denominator for u in s.vectors for c in u.v.as_tuple()) > 10**55
        yield s


# Non-symmetric matrices, on which a product taken with the right operand's
# (0, 1) and (1, 0) entries swapped differs from the true one.
SHEAR = mat_from_rows(((1, 1, 0), (0, 1, 0), (0, 0, 1)))
SHEAR_SCALED = mat_from_rows(((1, -2, 0), (0, 2, 0), (0, 0, 1)))
# closes a 3-cycle with SHEAR and SHEAR_SCALED whose three adjacent products
# are all symmetric, although SHEAR and SHEAR_SCALED do not commute
SHEAR_CLOSING = mat_from_rows(((1, -1, 0), (0, Fraction(-1, 2), 0), (0, 0, 1)))
# squares to I and has trace -1, but is not symmetric
OBLIQUE_REFLECTION = mat_from_rows(((1, 1, 0), (0, -1, 0), (0, 0, -1)))


def _report_inputs(s):
    """``cli._run_checks`` inputs of a scenario: itself, its value and its
    correlators."""
    return s, kcbs_value(s), [correlator(s, i) for i in range(s.n)]


def _with_observables(*observables):
    """The reference scenario's report inputs, with its observables replaced."""
    s, value, corrs = _report_inputs(reference_scenario())
    s.__dict__["observables"] = observables
    return s, value, corrs


def test_report_checks_match_fraction_rows_oracle(tmp_path):
    # the unreduced-int checks against the same checks on Fraction rows
    golden = []
    for name, data in GOLDEN["configs"].items():
        state, vectors = cli.load_config(write_config(tmp_path, data, f"{name}.json"))
        try:
            golden.append(validate_cycle(state, vectors))
        except CycleValidationError:
            pass
    assert sorted(s.n for s in golden) == [5, 7]
    valid = [_report_inputs(s) for s in (*golden, *_rotated_odd_cycles())]
    assert all(all(cli._run_checks(*case).values()) for case in valid)
    cases = valid + [_checks_breaking(key) for key in sorted(CHECK_KEYS - {"classical_bound_enumerated"})]
    cases += [
        _with_observables(*(OBLIQUE_REFLECTION,) * 5),
        _with_observables(SHEAR, SHEAR_SCALED, SHEAR_CLOSING),
        _with_observables(SHEAR, identity_mat()),
    ]
    for s, value, corrs in cases:
        assert cli._run_checks(s, value, corrs) == report_checks_rows(s, value, corrs)


def test_commute_check_computes_both_orders():
    # every adjacent product of the 3-cycle is symmetric, so comparing each
    # product with its transpose would pass; SHEAR SHEAR_SCALED differs from
    # SHEAR_SCALED SHEAR, so the check must read false
    cycle = (SHEAR, SHEAR_SCALED, SHEAR_CLOSING)
    for (a, _), (b, _) in zip(cycle, cycle[1:] + cycle[:1]):
        product = _int_mat_mul(a, b)
        assert product == tuple(product[3 * k + j] for j in range(3) for k in range(3))
    # both orders share one denominator, so unequal ints are unequal products
    assert _int_mat_mul(SHEAR[0], SHEAR_SCALED[0]) != _int_mat_mul(SHEAR_SCALED[0], SHEAR[0])
    assert not cli._run_checks(*_with_observables(*cycle))["adjacent_observables_commute"]


@pytest.mark.parametrize("sign", [1, -1])
def test_range_checks_include_their_end_points(sign):
    s = reference_scenario()
    checks = cli._run_checks(s, Fraction(sign * s.n), [Fraction(sign)] * s.n)
    assert checks["correlators_in_range"] and checks["value_in_range"]
    past = sign * (1 + Fraction(1, 10**30))
    checks = cli._run_checks(s, s.n * past, [past] + [Fraction(sign)] * (s.n - 1))
    assert not checks["correlators_in_range"] and not checks["value_in_range"]


def test_report_value_is_the_sum_of_its_correlators():
    for s in _rotated_odd_cycles():
        report = cli.build_report(s, 3)
        corrs = [parse_rational(c) for c in report["per_correlator"]]
        assert len(corrs) == s.n
        assert parse_rational(report["value"]) == sum(corrs) == kcbs_value(s)
        assert all(report["checks"].values())


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


def test_huge_state_is_verified_and_evaluated_in_full(capsys, tmp_path):
    data, state = huge_state_config()
    path = write_config(tmp_path, data)
    assert min(len(c) for c in data["state"]) > 7900
    code, out, _ = run_cli(capsys, "verify", path)
    assert code == 0 and json.loads(out)["valid"] is True
    code, out, _ = run_cli(capsys, "evaluate", path)
    assert code == 0
    report = json.loads(out)
    value = kcbs_value(contextuality.validate_cycle(state, contextuality.REFERENCE_VECTORS))
    assert value.denominator > 10**7900
    assert report["value"] == fraction_in_chunks(value)
    assert all(report["checks"].values())


@pytest.mark.parametrize("command", ["verify", "evaluate"])
def test_huge_invalid_state_names_its_invariant(capsys, tmp_path, command):
    data, state = huge_state_config()
    x, y, z = state.as_tuple()
    data["state"] = [format_rational(c) for c in (x, y, z + Fraction(1, 10**200))]
    code, out, _ = run_cli(capsys, command, write_config(tmp_path, data))
    assert code == 1
    payload = json.loads(out)
    assert payload["invariant"] == "state-not-unit"
    norm_sq = x * x + y * y + (z + Fraction(1, 10**200)) ** 2
    assert payload["message"].endswith(fraction_in_chunks(norm_sq))


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


def test_evaluate_computes_each_state_image_once(capsys, tmp_path, monkeypatch):
    # one A_i psi per direction: 5 for the reference pentagon, where pairing
    # each correlator's own two products would make 10
    products = []

    def counted(fn):
        def wrapper(a, *args):
            products.append(a)
            return fn(a, *args)
        return wrapper

    monkeypatch.setattr(contextuality, "_int_mat_vec", counted(contextuality._int_mat_vec))
    code, _, _ = run_cli(capsys, "evaluate", write_config(tmp_path, REF_CONFIG))
    assert code == 0
    assert products == list(reference_scenario().observables)


def test_evaluate_runs_every_exact_matrix_check(capsys, tmp_path, monkeypatch):
    # 5 squares A_i A_i plus both orders of the 5 adjacent products
    calls = []
    fn = contextuality._int_mat_mul

    def counting(a, b):
        calls.append((a, b))
        return fn(a, b)

    # the one module of the program that binds the integer product
    monkeypatch.setattr(contextuality, "_int_mat_mul", counting)
    code, _, _ = run_cli(capsys, "evaluate", write_config(tmp_path, REF_CONFIG))
    assert code == 0
    assert len(calls) == 15
    observables = reference_scenario().observables
    assert sum(a is b for a, b in calls) == 5
    assert {a for a, _ in calls} == {num for num, _ in observables}


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


@pytest.mark.parametrize("command", ["verify", "evaluate"])
@pytest.mark.parametrize(
    "data, message",
    [
        (
            config_variant(state=["1" * 5000, "0", "0"]),
            f"state: {int_limit_message('1' * 5000)}",
        ),
        (
            config_variant(vectors=REF_CONFIG["vectors"][:3] + [["1", "0", "1/" + "7" * 4301]]),
            f"vectors[3]: {int_limit_message('7' * 4301)}",
        ),
        # every triple is parsed before any invariant is checked, so a
        # malformed vector exits 2 even where the state is not unit
        (
            config_variant(state=["1", "1", "0"], vectors=REF_CONFIG["vectors"][:4] + [["0", "1/0", "0"]]),
            "vectors[4]: zero denominator in fraction text: '1/0'",
        ),
        (
            config_variant(state=["1", "1", "0"], vectors=[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "x"]]),
            "vectors[2]: malformed fraction text: 'x'",
        ),
    ],
    ids=["state-over-4300-digits", "denominator-over-4300-digits", "zero-denominator", "malformed"],
)
def test_component_errors_exit_2_with_the_parse_message(capsys, tmp_path, command, data, message):
    code, out, err = run_cli(capsys, command, write_config(tmp_path, data))
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "data, message",
    [
        (config_variant(state="1/2"), "state must be a list of 3 fraction strings, got '1/2'"),
        (config_variant(state={"x": "1"}), "state must be a list of 3 fraction strings, got {'x': '1'}"),
        (config_variant(state=["1", "0"]), "state must be a list of 3 fraction strings, got ['1', '0']"),
        (
            config_variant(state=["1", "0", "0", "0"]),
            "state must be a list of 3 fraction strings, got ['1', '0', '0', '0']",
        ),
        (config_variant(state=["1", 0, "0"]), "state must be a list of 3 fraction strings, got ['1', 0, '0']"),
        (
            config_variant(vectors=REF_CONFIG["vectors"][:2] + [["0", "0", None]]),
            "vectors[2] must be a list of 3 fraction strings, got ['0', '0', None]",
        ),
        (
            config_variant(vectors=REF_CONFIG["vectors"][:1] + [[["0"], "1", "0"]]),
            "vectors[1] must be a list of 3 fraction strings, got [['0'], '1', '0']",
        ),
    ],
    ids=["string", "object", "two-items", "four-items", "int-item", "null-item", "nested-list-item"],
)
def test_triple_shape_errors_exit_2_with_the_shape_message(capsys, tmp_path, data, message):
    code, out, err = run_cli(capsys, "evaluate", write_config(tmp_path, data))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def wire_triples(rng: random.Random) -> list[list[str]]:
    """Fixed and seeded triples of fraction texts: zeros, signs, leading
    zeros, unreduced fractions and components sharing factors."""
    fixed = [["0", "0", "0"], ["-0", "+0", "0/5"], ["2/4", "6/4", "0"], ["6/9", "-12/9", "3/9"],
             ["10/6", "4/6", "14/6"], ["354/527", "357/527", "-158/527"], ["1", "+00/7", "-1/1"]]
    return fixed + [[rand_wire_text(rng) for _ in range(3)] for _ in range(3000)]


def test_parse_triple_ints_match_parsed_fractions():
    # the vector's ints are _ints of the three parsed Fractions: over the
    # lcm of their denominators, in lowest terms
    for raw in wire_triples(random.Random(1729)):
        v = cli._parse_triple(raw, "state")
        fractions = [parse_rational(c) for c in raw]
        assert (v._num, v._den) == linalg3._ints(fractions), raw
        assert type(v._num) is tuple and v == Vec3Q(*fractions), raw


# components _ratio refuses, each for its own reason: no digits, a
# denominator of 0, a digit or sign form int() would take but the wire format
# does not, and spacing that int() strips
REFUSED_TEXTS = ["", "1/0", "-3/0", "+0/00", "1/", "/1", "/", "+", "-", "--1", "+-1", "1//2", "1/2/3",
                 "1/-2", "1/+2", "\x00", "1\x00", "²", "1²", "١", "1/١", "٣/4", "½", "0x1", "1_0",
                 "1.0", "1e3", " 1", "1 ", "- 1", "1 /2", "1/ 2", "\t1", "1\n", "1\r\n", "\u00a01"]


def hostile_wire_text(rng: random.Random) -> str:
    """A component the wire format accepts or refuses: the seeded wire texts
    of ``rand_wire_text``, those with a space, tab or newline put in, the
    refused texts above, and parts of more than 4300 digits."""
    kind = rng.randrange(8)
    text = rand_wire_text(rng)
    if kind < 3:
        return text
    if kind == 3:
        at = rng.randint(0, len(text))
        return text[:at] + rng.choice(" \t\n") + text[at:]
    if kind == 4:
        return rng.choice(REFUSED_TEXTS)
    digits = rng.choice("0179") * rng.choice((4299, 4300, 4301, 5000))
    if kind == 5:
        return rng.choice(("", "-", "+")) + "1" + digits
    if kind == 6:
        return text.partition("/")[0] + "/" + rng.choice(("1", "")) + digits
    return "1" + digits + rng.choice(("/0", "/7", "/" + digits))


def hostile_triples(rng: random.Random) -> list[object]:
    fixed = [["-0", "+0", "00/007"], ["2/4", "-6/4", "0"], ["1 2", "3", "4"], ["1", "2 3", "4"],
             ["1", "2", "3 "], ["1\t", "2", "3"], ["", "", ""], ["1", "0", "0", "0"], ["1", "0"],
             ["1", 0, "0"], ("1", "0", "0"), None, ["1/0", "1" * 4301, "x"], ["1" * 4301, "1/0", "x"],
             ["1" * 4301 + "/0", "0", "0"], ["1/" + "7" * 4301, "0", "0"], ["0" * 4301 + "1", "0", "0"]]
    return fixed + [[hostile_wire_text(rng) for _ in range(3)] for _ in range(3000)]


def triple_outcome(parse, raw):
    """The vector's ints, or the ConfigError text; any other exception is a
    failure of the parse and propagates."""
    try:
        v = parse(raw, "vectors[1]")
    except cli.ConfigError as exc:
        return str(exc)
    return type(v._num), v._num, v._den


def test_parse_triple_matches_the_per_component_route():
    triples = hostile_triples(random.Random(4300))
    outcomes = [triple_outcome(cli._parse_triple, raw) for raw in triples]
    assert outcomes == [triple_outcome(parse_triple_by_components, raw) for raw in triples]
    refused = [o for o in outcomes if isinstance(o, str)]
    # every kind of refusal is met, and both outcomes are common
    for message in ("malformed fraction text", "zero denominator", "Exceeds the limit (4300",
                    "must be a list of 3 fraction strings"):
        assert any(message in o for o in refused), message
    assert 1000 < len(refused) < len(outcomes) - 300


def test_a_triple_is_read_by_one_ratio_call_per_component(monkeypatch):
    # in component order; a triple refused at component k stops there, with
    # that component's error, though every later component is refused too
    ratio = rationals._ratio
    calls = []

    def counting(text):
        calls.append(text)
        return ratio(text)

    monkeypatch.setattr(rationals, "_ratio", counting)
    valid = ["354/527", "-357", "+0/5"]
    assert rationals._triple_ratios(*valid) == ((354, 527), (-357, 1), (0, 5))
    assert calls == valid
    for bad in ("1.5", "3/0", "1" * 5000):
        with pytest.raises((ValueError, ZeroDivisionError)) as expected:
            ratio(bad)
        for k in range(3):
            triple = valid[:k] + [bad] + ["x"] * (2 - k)
            calls.clear()
            with pytest.raises(expected.type) as refused:
                rationals._triple_ratios(*triple)
            assert str(refused.value) == str(expected.value)
            assert calls == triple[: k + 1]


def test_load_config_builds_no_json_decoder(tmp_path, monkeypatch):
    built = []

    class Counting(json.JSONDecoder):
        def __init__(self, *args, **kwargs):
            built.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(json, "JSONDecoder", Counting)
    paths = [write_config(tmp_path, REF_CONFIG, "ref.json"), write_config(tmp_path, DEGENERATE_CONFIG)]
    for path in paths * 3:
        cli.load_config(path)
    assert built == []
    assert json.loads("{}", object_pairs_hook=dict) == {} and len(built) == 1  # the patch is seen


def test_reading_and_validating_a_config_builds_no_fraction(tmp_path, monkeypatch):
    rng = random.Random(23)
    configs = [REF_CONFIG, DEGENERATE_CONFIG]
    for n, state in ((7, rotation(1, 2, 3, 4)[0]), (23, rotation(3, 1, 1, 2)[1])):
        cycle = [u.v for u in odd_cycle(rng, n)]
        configs.append(cli.scenario_config(validate_cycle(state, cycle)))
    paths = [write_config(tmp_path, data, f"{i}.json") for i, data in enumerate(configs)]
    built = []

    class Counting(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return Fraction(*args, **kwargs)

    for module in (rationals, linalg3, contextuality, cli):
        monkeypatch.setattr(module, "Fraction", Counting)
    for path in paths:
        state, vectors = cli.load_config(path)
        validate_cycle(state, vectors)
    assert built == []
    assert parse_rational("6/4") == Fraction(3, 2) and built == [(6, 4)]  # the patch is seen


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


# A config file reads as it reads in text mode with UTF-8: universal
# newlines, a byte order mark kept (json refuses it) and the decode error's
# position.  Each case gives its exit code and, for an error, the stderr
# recorded from a text-mode read ("{path!r}" stands for the path).
_REF_LINES = json.dumps(REF_CONFIG, indent=1).encode()
READ_PATH_CASES = {
    "crlf": (_REF_LINES.replace(b"\n", b"\r\n"), 0, None),
    "crlf-json-error": (
        _REF_LINES.replace(b"\n", b"\r\n")[:-5] + b"x]]}",
        2,
        "error: Expecting ',' delimiter: line 33 column 1 (char 276)\n",
    ),
    "lone-cr": (_REF_LINES.replace(b"\n", b"\r"), 0, None),
    "cr-inside-a-string": (
        _REF_LINES.replace(b'"357/527"', b'"357/527\r"').replace(b"\n", b"\r"),
        2,
        "error: Invalid control character at: line 4 column 11 (char 37)\n",
    ),
    "cr-cr-lf": (
        _REF_LINES.replace(b"\n", b"\r\r\n")[:-3] + b"?",
        2,
        "error: Expecting ',' delimiter: line 66 column 1 (char 311)\n",
    ),
    "utf8-bom": (
        b"\xef\xbb\xbf" + _REF_LINES,
        2,
        "error: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)\n",
    ),
    "invalid-utf8-inside": (
        _REF_LINES[:40] + b"\xff" + _REF_LINES[40:],
        2,
        "error: 'utf-8' codec can't decode byte 0xff in position 40: invalid start byte\n",
    ),
    "truncated-utf8-at-end": (
        _REF_LINES + b"\xe2\x82",
        2,
        "error: 'utf-8' codec can't decode bytes in position 280-281: unexpected end of data\n",
    ),
    "directory": ("directory", 2, "error: [Errno 21] Is a directory: {path!r}\n"),
    "missing": (None, 2, "error: [Errno 2] No such file or directory: {path!r}\n"),
}


def text_mode_outcome(capsys, tmp_path, command, path):
    """What the command gives for the config read in text mode: the error
    opening or decoding it raises, or the command run on its text written
    back with no "\\r" left, which any read gives unchanged."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        return 2, "", f"error: {exc}\n"
    plain = tmp_path / "plain.json"
    plain.write_bytes(text.encode("utf-8"))
    return run_cli(capsys, command, str(plain))


@pytest.mark.parametrize("command", ["verify", "evaluate"])
@pytest.mark.parametrize("case", list(READ_PATH_CASES))
def test_config_read_matches_text_mode(capsys, tmp_path, command, case):
    content, code, stderr = READ_PATH_CASES[case]
    path = tmp_path / "config.json"
    if content == "directory":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    got = run_cli(capsys, command, str(path))
    assert got == text_mode_outcome(capsys, tmp_path, command, str(path))
    assert got[0] == code
    if stderr is not None:
        assert got[1:] == ("", stderr.format(path=str(path)))


def _members(*pairs):
    """JSON object text with the given (key, value) members in order, repeats kept."""
    return "{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in pairs) + "}"


AXIS_STATE = ["0", "0", "1"]  # a valid state with no violation (value -0.717)


@pytest.mark.parametrize("command", ["verify", "evaluate"])
@pytest.mark.parametrize(
    "text,message",
    [
        ("[" * 100_000 + "]" * 100_000, "is nested too deeply"),  # beyond the recursion limit
        ('{"state": [' + "1" * 5000 + '], "vectors": []}', "has an oversized number"),
        # json.loads alone keeps the last of two equal names, so the file
        # would show one certificate while another is checked
        (
            _members(
                ("state", REF_CONFIG["state"]),
                ("state", AXIS_STATE),
                ("vectors", REF_CONFIG["vectors"]),
            ),
            'repeats the key "state"\n',
        ),
        (
            _members(
                ("state", AXIS_STATE),
                ("vectors", REF_CONFIG["vectors"]),
                ("state", REF_CONFIG["state"]),
            ),
            'repeats the key "state"\n',
        ),
        (
            _members(
                ("state", REF_CONFIG["state"]),
                ("vectors", DEGENERATE_CONFIG["vectors"]),
                ("vectors", REF_CONFIG["vectors"]),
            ),
            'repeats the key "vectors"\n',
        ),
    ],
    ids=[
        "deep-nesting",
        "oversized-number",
        "repeated-state-reference-first",
        "repeated-state-axis-first",
        "repeated-vectors",
    ],
)
def test_hostile_json_exits_2(capsys, tmp_path, command, text, message):
    path = tmp_path / "hostile.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: config JSON {message}")


@pytest.mark.parametrize(
    "text, key",
    [
        # the first member that repeats an earlier one, not the first key that has a copy
        ('{"state": 1, "vectors": 2, "note": 3, "vectors": 4, "state": 5}', '"vectors"'),
        # an inner object is read, and refused, before the object holding it
        ('{"state": 1, "state": 2, "vectors": [["1", "0", "0"], {"x": 1, "x": 2}]}', '"x"'),
        ('{"state": 1, "state": 2, "state": 3, "vectors": 4}', '"state"'),
        ('{"st\\"a\\\\te\\u00e9\\n": 1, "vectors": 2, "st\\"a\\\\te\\u00e9\\n": 3}',
         '"st\\"a\\\\te\\u00e9\\n"'),
    ],
    ids=["after-other-keys", "nested-object", "three-copies", "escaped-key"],
)
def test_repeated_key_message_names_the_first_repeat(capsys, tmp_path, text, key):
    path = tmp_path / "repeated.json"
    path.write_text(text, encoding="utf-8")
    assert run_cli(capsys, "evaluate", str(path)) == (2, "", f"error: config JSON repeats the key {key}\n")


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


def assert_digits_refused(capsys, tmp_path, argv, text):
    argv = [write_config(tmp_path, REF_CONFIG) if a == "CONFIG" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--digits", text])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert f"--digits: must be an integer from 0 to {MAX_DIGITS}, got {text}" in err
    assert "_digits" not in err  # the converter's name is no part of the message


@pytest.mark.parametrize("argv", DIGITS_COMMANDS)
def test_negative_digits_exits_via_argparse(capsys, tmp_path, argv):
    assert_digits_refused(capsys, tmp_path, argv, "-1")


@pytest.mark.parametrize("argv", DIGITS_COMMANDS)
def test_digits_above_limit_exit_via_argparse(capsys, tmp_path, argv):
    assert_digits_refused(capsys, tmp_path, argv, str(MAX_DIGITS + 1))


@pytest.mark.parametrize("text", ["abc", "1.5"])
@pytest.mark.parametrize("argv", DIGITS_COMMANDS)
def test_non_integer_digits_exit_via_argparse(capsys, tmp_path, argv, text):
    assert_digits_refused(capsys, tmp_path, argv, text)


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


def test_parser_is_built_once_per_process(capsys, tmp_path, monkeypatch):
    path = write_config(tmp_path, REF_CONFIG)
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli._parsers.cache_clear()
    assert run_cli(capsys, "bound", "--n", "5")[0] == 0
    assert built.count("rational-kcbs") == 1
    first = len(built)
    # one request of each command through its own parser builds none
    for argv in (["reference"], ["verify", path], ["evaluate", path], ["bound", "--n", "7"],
                 ["search", "--max-mn", "2", "--max-den", "50"]):
        assert run_cli(capsys, *argv)[0] == 0, argv
    assert len(built) == first
    # an argument error leaves the kept parsers usable
    with pytest.raises(SystemExit) as exc:
        main(["reference", "--digits", "-1"])
    assert exc.value.code == 2
    code, out, _ = run_cli(capsys, "reference")
    assert code == 0
    assert json.loads(out)["decimal"] == "-3.941"
    assert len(built) == first


# ------------------------------------------------------------- dispatch oracle

# main hands argv[1:] of a known command straight to that command's own
# parser.  The oracle is the top-level parser reading the whole argv, the
# route main takes when its table of commands is empty.  CONFIG stands for a
# valid config path, MISSING for a path that does not exist.
DISPATCH_FORMS = {
    "reference": ["reference"],
    "reference-digits-equals": ["reference", "--digits=3"],
    "verify": ["verify", "CONFIG"],
    "evaluate": ["evaluate", "CONFIG"],
    "evaluate-digits": ["evaluate", "CONFIG", "--digits", "5"],
    "evaluate-digits-equals": ["evaluate", "CONFIG", "--digits=3"],
    "evaluate-digits-first": ["evaluate", "--digits", "2", "CONFIG"],
    "evaluate-double-dash": ["evaluate", "--", "CONFIG"],
    "bound": ["bound", "--n", "7"],
    "bound-equals": ["bound", "--n=5"],
    "bound-too-short": ["bound", "--n", "2"],
    "search": ["search", "--max-mn", "2", "--max-den", "50"],
    "search-digits-equals": ["search", "--max-mn", "2", "--max-den", "50", "--digits=3"],
    "digits-0": ["reference", "--digits", "0"],
    "digits-1000": ["reference", "--digits", "1000"],
    "digits-minus-1": ["reference", "--digits", "-1"],
    "digits-abc": ["evaluate", "CONFIG", "--digits", "abc"],
    "digits-1.5": ["search", "--max-mn", "2", "--digits", "1.5"],
    "reference-help": ["reference", "-h"],
    "verify-help": ["verify", "-h"],
    "evaluate-help": ["evaluate", "--help"],
    "bound-help": ["bound", "-h"],
    "search-help": ["search", "-h"],
    "help": ["-h"],
    "help-long": ["--help"],
    "help-before-command": ["-h", "evaluate"],
    "empty": [],
    "unknown-command": ["no-such-command"],
    "option-before-command": ["--digits", "3", "reference"],
    "missing-config-argument": ["evaluate"],
    "missing-config-file": ["verify", "MISSING"],
    "missing-required-option": ["bound"],
    "extra-positional": ["evaluate", "CONFIG", "extra"],
    "option-of-another-command": ["verify", "CONFIG", "--digits", "3"],
    "tuple": ("evaluate", "CONFIG"),
}


def dispatch_outcome(capsys, seen, argv):
    """Exit code, stdout, stderr and the Namespaces the commands were handed."""
    seen.clear()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err, seen[:]


@pytest.mark.parametrize("form", DISPATCH_FORMS.values(), ids=DISPATCH_FORMS)
def test_dispatch_matches_the_top_level_parser(capsys, tmp_path, monkeypatch, form):
    paths = {"CONFIG": write_config(tmp_path, REF_CONFIG), "MISSING": str(tmp_path / "missing.json")}
    argv = type(form)(paths.get(a, a) for a in form)
    parser, commands = cli._parsers()
    seen = []
    for name in commands:
        command = getattr(cli, f"cmd_{name}")
        monkeypatch.setattr(cli, f"cmd_{name}", lambda args, command=command: seen.append(args) or command(args))
    code, out, err, handed = dispatch_outcome(capsys, seen, argv)
    monkeypatch.setattr(cli, "_parsers", lambda: (parser, {}))
    want_code, want_out, want_err, want_handed = dispatch_outcome(capsys, seen, argv)
    assert (code, out, handed) == (want_code, want_out, want_handed)
    if "unrecognized arguments" in want_err:
        # the one deliberate difference: the command's own usage line and prog
        name = argv[0]
        want_err = want_err.replace(parser.format_usage(), commands[name].format_usage())
        want_err = want_err.replace("rational-kcbs: error:", f"rational-kcbs {name}: error:")
    assert err == want_err


def test_extra_argument_is_reported_by_its_command(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", write_config(tmp_path, REF_CONFIG), "extra"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: rational-kcbs evaluate [-h]")
    assert err.endswith("rational-kcbs evaluate: error: unrecognized arguments: extra\n")


@pytest.mark.parametrize("command", ["verify", "evaluate"])
def test_a_valid_request_is_parsed_by_one_parser(capsys, tmp_path, monkeypatch, command):
    parsed = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def recording(self, *args, **kwargs):
        parsed.append(self)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", recording)
    assert run_cli(capsys, command, write_config(tmp_path, REF_CONFIG))[0] == 0
    assert len(parsed) == 1
    assert parsed[0].prog == f"rational-kcbs {command}"


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "rational_kcbs", "reference"],
        capture_output=True,
        text=True,
        encoding="utf-8",
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


@pytest.mark.parametrize(
    "argv, config, key",
    [
        (["reference"], None, "per_correlator"),
        (["verify", "{config}"], REF_CONFIG, "valid"),
        (["verify", "{config}"], config_variant(vectors=REF_CONFIG["vectors"][:2] + [["1", "1", "0"]]), "index"),
        (["evaluate", "{config}"], config_variant(vectors=REF_CONFIG["vectors"][:2] + [["1", "0", "0"]]), "pair"),
        (["bound", "--n", "7"], None, "witness"),
        (["search", "--max-mn", "16", "--max-den", "1000", "--top", "3"], None, 0),
        (["search", "--max-mn", "2"], None, None),
    ],
    ids=["report", "valid", "invalid-index", "invalid-pair", "bound-witness", "search-hits", "search-empty"],
)
def test_emit_writes_one_json_line(capsys, tmp_path, argv, config, key):
    if config is not None:
        argv = [write_config(tmp_path, config) if a == "{config}" else a for a in argv]
    _, out, _ = run_cli(capsys, *argv)
    payload = json.loads(out)
    assert out == json.dumps(payload) + "\n"
    if key is None:
        assert payload == []
    else:
        payload[key]  # the payload is of the kind named


# -------------------------------------------------------------------- golden

# Exit code, stdout and stderr of a fixed command list, recorded once from
# the program and replayed here byte for byte.  "{config}" in an argv stands
# for a file holding the named entry of "configs".
GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "case", GOLDEN["cases"], ids=lambda c: " ".join(c["argv"]).replace("{config}", c["config"] or "")
)
def test_cli_output_matches_golden(capsys, tmp_path, case):
    argv = case["argv"]
    if case["config"] is not None:
        path = write_config(tmp_path, GOLDEN["configs"][case["config"]])
        argv = [path if a == "{config}" else a for a in argv]
    assert run_cli(capsys, *argv) == (case["exit"], case["stdout"], case["stderr"])
