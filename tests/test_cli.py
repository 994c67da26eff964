import json
import os
import runpy
import subprocess
import sys

import numpy as np
import pytest

from qinvert import cli, constraints, invariants, inversion, states, tensor, zoo
from qinvert.cli import main
from qinvert.dims import SubsystemDims
from qinvert.inversion import invert_kraus, invert_product, invert_sum
from qinvert.io import read_state_file, write_state_file
from qinvert.states import FactorState, PureState
from qinvert.tensor import min_eigenvalue
from qinvert.zoo import bell_pair_with_mixed_qubit, bell_state, ginibre_mixed, haar_pure


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    lines = [json.loads(line) for line in out.splitlines() if line.strip()]
    return code, lines


@pytest.fixture()
def bell_file(tmp_path):
    path = tmp_path / "bell.json"
    write_state_file(path, bell_state(), label="bell")
    return str(path)


def test_check_bell_correlation(capsys, bell_file):
    code, lines = run(capsys, "check", "--state", bell_file, "--families", "correlation")
    assert code == 0
    assert [l["label"] for l in lines] == ["10", "01", "11"]
    values = [l["value"] for l in lines]
    assert abs(values[0]) < 1e-12 and abs(values[1]) < 1e-12
    assert abs(values[2] - 1.0) < 1e-12
    assert all(l["pass"] for l in lines)


def test_check_line_key_order(capsys, bell_file):
    code, _ = run(capsys, "check", "--state", bell_file, "--families", "correlation")
    assert code == 0


def test_check_report_keys_are_stable(capsys, bell_file):
    main(["check", "--state", bell_file, "--families", "correlation"])
    raw = capsys.readouterr().out.splitlines()[0]
    keys = list(json.loads(raw).keys())
    assert keys == [
        "command", "family", "label", "value", "threshold",
        "margin", "pass", "tolerance", "elapsed_ms",
    ]


def test_check_all_families_on_pure_state(capsys, bell_file):
    code, lines = run(capsys, "check", "--state", bell_file)
    assert code == 0
    families = {l["family"] for l in lines}
    assert families == {"correlation", "monogamy", "shadow", "entropy", "marginal"}


def test_check_entropy_on_known_falsifier(capsys, tmp_path):
    path = tmp_path / "bm12.json"
    write_state_file(path, bell_pair_with_mixed_qubit((1, 2)))
    code, lines = run(capsys, "check", "--state", str(path), "--families", "entropy")
    assert code == 0  # non-theorem entries never affect the exit code
    bad = [l for l in lines if l["label"] == "ssa-analogue:mid=2"]
    assert len(bad) == 1
    assert abs(bad[0]["margin"] + 0.5) < 1e-12
    assert bad[0]["pass"] is None


def test_check_monogamy_downgrade_on_mixed_state(capsys, tmp_path):
    path = tmp_path / "mixed.json"
    write_state_file(path, ginibre_mixed(SubsystemDims((2, 2)), 5))
    code, lines = run(capsys, "check", "--state", str(path), "--families", "monogamy")
    assert code == 0
    assert any("downgraded" in l["label"] for l in lines)
    assert any(l["family"] == "correlation" for l in lines)


def test_check_unknown_family(capsys, bell_file):
    code, _ = run(capsys, "check", "--state", bell_file, "--families", "bogus")
    assert code == 2


def test_check_truncated_file(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"dims": [2, 2], "kind": "pure"')
    code, _ = run(capsys, "check", "--state", str(path))
    assert code == 2


def test_invariants_all_masks(capsys, tmp_path):
    path = tmp_path / "ghz3.json"
    from qinvert.zoo import ghz_state

    write_state_file(path, ghz_state(3))
    code, lines = run(capsys, "invariants", "--state", str(path))
    assert code == 0
    assert len(lines) == 8
    for line in lines:
        odd = line["label"].count("1") % 2 == 1
        if odd:
            assert abs(line["value"]) < 1e-10
        assert "c" in line and "clamped" in line


def test_invariants_explicit_masks(capsys, bell_file):
    code, lines = run(capsys, "invariants", "--state", bell_file, "--masks", "1,2;0")
    assert code == 0
    assert [l["label"] for l in lines] == ["11", "00"]
    assert abs(lines[0]["value"] - 1.0) < 1e-12
    assert abs(lines[1]["value"] - 3.0) < 1e-12


def test_invariants_mask_out_of_range(capsys, bell_file):
    code, _ = run(capsys, "invariants", "--state", bell_file, "--masks", "3")
    assert code == 2


@pytest.mark.parametrize("masks, position", [("1;;2", 2), ("1;", 2), ("", 1), (" ;1", 1)])
def test_invariants_rejects_an_empty_mask_token(capsys, bell_file, masks, position):
    code = main(["invariants", "--state", bell_file, "--masks", masks])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--masks" in captured.err and f"token {position}" in captured.err


@pytest.mark.parametrize("argv", [
    ["invariants", "--masks", "1,1"],
    ["invariants", "--masks", "0;2,1,2"],
    ["detect", "--act-on", "1,1"],
    ["detect", "--act-on", "1,2", "--t", "2,2"],
])
def test_a_repeated_party_is_an_input_error(capsys, bell_file, argv):
    code = main([*argv, "--state", bell_file])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    party = argv[-1].split(",")[-1]
    assert f"names party {party} more than once" in captured.err


@pytest.mark.parametrize("command, options, named", [
    ("check", [["--families", "correlation,,monogamy"], ["--families", "bogus"]],
     ["--families entry 2 is empty", "unknown family 'bogus'"]),
    ("invariants", [["--masks", "1;;2"], ["--masks", "1;x"], ["--masks", "2,2"]],
     ["--masks token 2 is empty", "cannot parse party list 'x'",
      "party list '2,2' names party 2 more than once"]),
    ("detect", [["--act-on", ""], ["--act-on", "1", "--t", "x"],
                ["--act-on", "1", "--alpha", "x"], ["--act-on", "1", "--beta", "2:y"],
                ["--act-on", "1", "--t", "2"], ["--act-on", "1", "--alpha", "2"]],
     ["--act-on must name at least one party", "cannot parse party list 'x'",
      "--alpha 'x' is not a weight", "--beta token '2:y' is not a party:weight pair",
      "t must be a subset of act_on", "alpha = 2.0 is outside [0, 1]"]),
], ids=["check", "invariants", "detect"])
def test_an_option_error_is_named_before_the_state_file_is_read(
    capsys, tmp_path, command, options, named
):
    """An option that needs no dimensions is checked first, so a bad or
    missing state file does not hide its error."""
    empty = tmp_path / "empty.json"
    empty.write_text("")
    for state in (str(empty), "/dev/null", str(tmp_path / "missing.json")):
        for argv, message in zip(options, named):
            code = main([command, "--state", state, *argv])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert captured.err.startswith(f"error: {message}")
            assert state not in captured.err


@pytest.mark.parametrize("argv, message", [
    (["detect", "--act-on", "1,3"], "--act-on names party 3"),
    (["invariants", "--masks", "1;2,4,3"], "--masks token 2 names party 3"),
    (["make-state", "--kind", "product_basis", "--dims", "2,2", "--s", "3"], "--s names party 3"),
], ids=["act-on", "masks", "s"])
def test_a_party_beyond_the_file_names_its_option(capsys, bell_file, tmp_path, argv, message):
    """A party list past the N parties names the option, the --masks
    token's position and the first party beyond N; exit 2, nothing written."""
    out = tmp_path / "out.json"
    state = [] if argv[0] == "make-state" else ["--state", bell_file]
    code = main([*argv, *state, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and not out.exists()
    assert captured.err == f"error: {message}, beyond the 2 available\n"


@pytest.mark.parametrize("argv, option, token", [
    (["verify", "--dims", "1_1", "--size", "1", "--suites", "parity"], "--dims", "1_1"),
    (["verify", "--dims", "2,\u0662", "--size", "1"], "--dims", "\u0662"),
    (["verify", "--dims", "2,2", "--size", "1_0"], "--size", "1_0"),
    (["verify", "--dims", "2,2", "--size", "1", "--seed", "0_1"], "--seed", "0_1"),
    (["make-state", "--kind", "ginibre_mixed", "--dims", "2,2", "--seed", "\uff11"],
     "--seed", "\uff11"),
    (["make-state", "--kind", "ginibre_mixed", "--dims", "2,2", "--seed", "1", "--rank", "1_0"],
     "--rank", "1_0"),
    (["make-state", "--kind", "pinned_mix", "--dims", "2,2", "--s", "1,0_2"], "--s", "0_2"),
    (["check", "--tol", "1_0"], "--tol", "1_0"),
    (["invariants", "--masks", "1;0_1"], "--masks token 2", "0_1"),
    (["detect", "--act-on", "0_1"], "--act-on", "0_1"),
    (["detect", "--act-on", "1,2", "--t", "\u0661"], "--t", "\u0661"),
    (["detect", "--act-on", "1", "--alpha", "0_5"], "--alpha", "0_5"),
    (["detect", "--act-on", "1,2", "--t", "1", "--beta", "2:0_5"], "--beta", "0_5"),
    (["detect", "--act-on", "1,2", "--t", "1", "--alpha", "1_0:1.0"], "--alpha", "1_0"),
], ids=["dims", "dims-non-ascii", "size", "seed", "seed-non-ascii", "rank", "s", "tol", "masks",
        "act-on", "t", "alpha", "beta", "alpha-party"])
def test_a_number_with_a_separator_or_a_non_ascii_digit_is_an_input_error(
    capsys, bell_file, tmp_path, argv, option, token
):
    """int() and float() read "1_1" as 11 and non-ASCII digits as digits;
    a command-line number holding either exits 2 before any line or file
    is written, and the error names the option and the token."""
    out = tmp_path / "out.json"
    state = [] if argv[0] in ("verify", "make-state") else ["--state", bell_file]
    try:
        code = main([*argv, *state, "--out", str(out)])
    except SystemExit as exc:  # argparse refused the arguments
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and not out.exists()
    assert option in captured.err and repr(token) in captured.err


def test_a_dimension_cap_with_a_separator_is_an_input_error(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("QINVERT_DIM_CAP", "4_096")
    out = tmp_path / "out.json"
    code = main(["verify", "--dims", "2,2", "--size", "1", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and not out.exists()
    assert captured.err == "error: QINVERT_DIM_CAP holds '4_096', not a plain ASCII number\n"


@pytest.mark.parametrize("argv, message", [
    (["verify", "--dims", "2,2", "--seed", "-1"], "--seed must be a non-negative integer, got -1"),
    (["verify", "--dims", "2,x"], "cannot parse dims '2,x'"),
    (["make-state", "--kind", "pinned_mix", "--dims", "2,2", "--s", "0"],
     "party indices are 1-based, got 0"),
])
def test_a_malformed_plain_number_keeps_its_message(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("pure", [False, True])
def test_check_shadow_lines_are_the_operands_shadow_report(capsys, tmp_path, pure):
    """check's shadow lines, read off the state's invariant table, are
    shadow_report(rho, rho), judged as theorems: the empty mask's line,
    then the correlation values bit for bit.  A mixed state's lines are
    the dense sweep's bit for bit; a pure state's table comes from its
    factor, within 1e-12 of that sweep."""
    dims = SubsystemDims((2, 3, 2))
    state = haar_pure(dims, 5) if pure else ginibre_mixed(dims, 5)
    path = tmp_path / "state.json"
    write_state_file(path, state)
    code, lines = run(capsys, "check", "--state", str(path), "--families", "correlation,shadow")
    assert code == 0
    shadow = [line for line in lines if line["family"] == "shadow"]
    correlation = [line for line in lines if line["family"] == "correlation"]
    rho = read_state_file(path)
    rho = rho.density() if pure else rho
    want = constraints.shadow_report(rho.matrix, rho.matrix, dims)
    assert [line["label"] for line in shadow] == [e.label for e in want.entries]
    assert shadow[0]["label"] == "000" and all(line["pass"] for line in shadow)
    got = np.array([line["value"] for line in shadow])
    ref = np.array([e.value for e in want.entries])
    if pure:
        assert np.max(np.abs(got - ref)) <= 1e-12
    else:
        assert got.tobytes() == ref.tobytes()
    assert got[1:].tobytes() == np.array([line["value"] for line in correlation]).tobytes()


def test_detect_bell(capsys, bell_file):
    code, lines = run(capsys, "detect", "--state", bell_file,
                      "--act-on", "2", "--t", "2", "--alpha", "1.0")
    assert code == 0
    assert lines[0]["verdict"] == "detected"
    assert abs(lines[0]["value"] + 0.5) < 1e-10


def test_detect_product_state_inconclusive(capsys, tmp_path):
    path = tmp_path / "prod.json"
    a = ginibre_mixed(SubsystemDims((2,)), 6, member=0)
    b = ginibre_mixed(SubsystemDims((2,)), 6, member=1)
    from qinvert.states import DensityMatrix

    rho = DensityMatrix(np.kron(a.matrix, b.matrix), SubsystemDims((2, 2)))
    write_state_file(path, rho)
    code, lines = run(capsys, "detect", "--state", str(path),
                      "--act-on", "2", "--t", "2", "--alpha", "1.0")
    assert code == 0
    assert lines[0]["verdict"] == "inconclusive"


def test_marginal_and_detect_accept_a_file_hermitian_only_within_tolerance(capsys, tmp_path):
    """A valid 5-qubit file whose matrix has Hermiticity defect 4e-11,
    inside the 1e-10 tolerance: ``check --families marginal`` and
    ``detect`` exit 0 (the witnesses and the map's output amplify the
    defect to 2e-10 to 7e-10, which a check of each operator built from
    the state would reject), with the values of the per-mask route
    (invert_product plus eigvalsh) on the state's lower-triangle
    completion, bit for bit."""
    dims = SubsystemDims((2,) * 5)
    rho = ginibre_mixed(dims, 1).matrix
    rng = np.random.default_rng(1)
    k = np.triu(rng.normal(size=rho.shape) + 1j * rng.normal(size=rho.shape), 1)
    k -= k.conj().T
    k *= 2e-11 / np.abs(k).max()
    path = tmp_path / "within.json"
    write_state_file(path, states.DensityMatrix(rho + k, dims))
    state = read_state_file(path)
    assert 3.9e-11 < tensor.herm_defect(state.matrix) < 4.1e-11
    low = np.tril(state.matrix, -1)
    op = low + low.conj().T + np.diag(state.matrix.diagonal().real)
    code, lines = run(capsys, "check", "--state", str(path), "--families", "marginal")
    assert code == 0 and len(lines) == 16
    for line in lines:
        t = int(line["label"][::-1], 2)
        assert line["value"] == np.linalg.eigvalsh(invert_product(op, dims, t) + op)[0]
    code, lines = run(capsys, "detect", "--state", str(path), "--act-on", "1,2,3,4,5",
                      "--t", "1,2,3")
    params = inversion.DetectionParams(t=0b00111, act_on=0b11111)
    assert code == 0
    assert lines[0]["value"] == np.linalg.eigvalsh(
        inversion.apply_detection_map(op, dims, params))[0]


def test_detect_rejects_out_of_range_weight(capsys, bell_file):
    code, _ = run(capsys, "detect", "--state", bell_file,
                  "--act-on", "2", "--t", "2", "--alpha", "1.5")
    assert code == 2


def test_verify_small_campaign(capsys):
    code, lines = run(capsys, "verify", "--dims", "2,2", "--size", "5", "--seed", "7")
    assert code == 0
    suites = {l["family"] for l in lines}
    assert "cross_form" in suites and "summary" in suites
    summary = [l for l in lines if l["family"] == "summary"][0]
    assert summary["pass"] is True


def test_verify_selected_suite(capsys):
    code, lines = run(capsys, "verify", "--dims", "2,3", "--size", "3",
                      "--seed", "1", "--suites", "cross_form,positivity")
    assert code == 0
    assert {l["family"] for l in lines} == {"cross_form", "positivity", "summary"}


def test_verify_dimension_cap(capsys):
    dims = ",".join(["2"] * 13)
    code, _ = run(capsys, "verify", "--dims", dims, "--size", "1", "--seed", "0")
    assert code == 2


def test_cap_override_via_env(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("QINVERT_DIM_CAP", "8")
    code, _ = run(capsys, "verify", "--dims", "2,2,2,2", "--size", "1", "--seed", "0")
    assert code == 2
    monkeypatch.delenv("QINVERT_DIM_CAP")
    out = tmp_path / "x.json"
    assert main(["make-state", "--kind", "ghz", "--dims", "2,2,2,2",
                 "--out", str(out)]) == 0
    capsys.readouterr()


def test_make_state_then_check_pipeline(capsys, tmp_path):
    path = tmp_path / "ghz.json"
    assert main(["make-state", "--kind", "ghz", "--dims", "2,2,2",
                 "--out", str(path), "--label", "ghz3"]) == 0
    capsys.readouterr()
    code, lines = run(capsys, "check", "--state", str(path),
                      "--families", "correlation,monogamy,marginal")
    assert code == 0
    assert all(l["pass"] is not False for l in lines)


def test_make_state_seeded_recipe(capsys, tmp_path):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    for p in (p1, p2):
        assert main(["make-state", "--kind", "ginibre_mixed", "--dims", "2,2",
                     "--seed", "11", "--out", str(p)]) == 0
    capsys.readouterr()
    assert p1.read_text() == p2.read_text()


def test_make_state_pinned_recipe_requires_mask(capsys, tmp_path):
    code = main(["make-state", "--kind", "pinned_mix", "--dims", "2,2",
                 "--out", str(tmp_path / "p.json")])
    capsys.readouterr()
    assert code == 2


def test_make_state_to_stdout(capsys):
    assert main(["make-state", "--kind", "bell_phi_plus", "--dims", "2,2"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["kind"] == "pure"
    assert obj["dims"] == [2, 2]


@pytest.mark.parametrize("recipe", [["bell_phi_plus", "--dims", "2,2"],
                                    ["ginibre_mixed", "--dims", "2,3", "--seed", "4"]])
def test_make_state_prints_the_bytes_it_writes(capsys, tmp_path, recipe):
    path = tmp_path / "state.json"
    assert main(["make-state", "--kind", *recipe, "--label", "x", "--out", str(path)]) == 0
    assert main(["make-state", "--kind", *recipe, "--label", "x"]) == 0
    assert capsys.readouterr().out == path.read_text(encoding="utf-8")


def test_report_file_output(tmp_path, bell_file, capsys):
    out = tmp_path / "report.jsonl"
    code = main(["check", "--state", bell_file, "--families", "correlation",
                 "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(lines) == 3


@pytest.mark.parametrize("kind", ["mixed", "pure"])
def test_check_rejects_nan_state_before_any_report(capsys, tmp_path, kind):
    rows = [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [float("nan"), 0.0]]
    data = rows if kind == "pure" else [
        [[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)
    ]
    if kind == "mixed":
        data[2][2] = [float("nan"), 0.0]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({"dims": [2, 2], "kind": kind, "data": data}))
    code = main(["check", "--state", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "non-finite" in captured.err


def test_report_lines_are_strict_json(capsys, bell_file):
    code = main(["check", "--state", bell_file, "--families", "correlation",
                 "--tol", "nan"])
    captured = capsys.readouterr()
    assert code == 2
    assert "NaN" not in captured.out


def test_verify_rejects_empty_campaign(capsys):
    code = main(["verify", "--dims", "2,2", "--size", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--size" in captured.err


@pytest.mark.parametrize("option, text, party", [
    ("--alpha", "2:0.5", "party 1"),       # alpha weights party 1 (t) only
    ("--alpha", "1:0.5,9:0.3", "party 9"),
    ("--beta", "2:0.5,3:0.1", "party 3"),  # beta weights party 2 only
    ("--beta", "1:0.5", "party 1"),
])
def test_detect_rejects_weights_for_the_wrong_parties(capsys, bell_file, option, text, party):
    code = main(["detect", "--state", bell_file, "--act-on", "1,2", "--t", "1", option, text])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"{option[2:]} " in captured.err and party in captured.err


@pytest.mark.parametrize("text, named", [
    ("1:0.5,1:0.9", "party 1"),  # a repeated party must not silently keep the last weight
    ("1:", "'1:'"),
    ("x:0.5", "'x:0.5'"),
    ("abc", "'abc'"),
])
def test_detect_rejects_malformed_weight_lists(capsys, bell_file, text, named):
    code = main(["detect", "--state", bell_file, "--act-on", "1,2", "--t", "1", "--alpha", text])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--alpha" in captured.err and named in captured.err


@pytest.mark.parametrize("option, t, text", [
    ("--alpha", [], "nan"),       # with no --t, alpha weights no party
    ("--alpha", [], "inf"),
    ("--beta", ["--t", "1"], "nan"),  # t = act_on leaves beta no party
])
def test_detect_rejects_a_weight_no_party_takes_outside_the_unit_interval(
    capsys, bell_file, option, t, text
):
    code = main(["detect", "--state", bell_file, "--act-on", "1", *t, option, text])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"{option[2:]} = {text} is outside [0, 1]" in captured.err


def test_a_state_file_repeating_a_key_is_an_input_error(capsys, tmp_path):
    """json.loads would keep the last "data", |1>, and report on it."""
    path = tmp_path / "twice.json"
    path.write_text('{"dims": [2], "kind": "pure", "data": [[1, 0], [0, 0]], '
                    '"data": [[0, 0], [1, 0]]}', encoding="utf-8")
    code = main(["invariants", "--state", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "repeats the key 'data'" in captured.err


def test_detect_accepts_weights_for_exactly_the_governed_parties(capsys, bell_file):
    code, lines = run(capsys, "detect", "--state", bell_file, "--act-on", "1,2",
                      "--t", "1", "--alpha", "1:0.5", "--beta", "2:0.25")
    assert code == 0
    assert len(lines) == 1


@pytest.mark.parametrize("tol", ["-1", "-1e-12", "nan", "inf"])
@pytest.mark.parametrize("argv", [
    ["check"],
    ["invariants"],
    ["detect", "--act-on", "2", "--t", "2"],
])
def test_tol_must_be_finite_and_nonnegative(capsys, bell_file, argv, tol):
    code = main([*argv, "--state", bell_file, f"--tol={tol}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--tol must be a finite number >= 0" in captured.err


@pytest.mark.parametrize("argv", [["check"], ["invariants"], ["detect", "--act-on", "2"]])
def test_tol_zero_is_accepted(capsys, bell_file, argv):
    code, lines = run(capsys, *argv, "--state", bell_file, "--tol", "0")
    assert code in (0, 1)  # a verdict, not an input error
    assert lines and all(l["tolerance"] == 0.0 for l in lines)


@pytest.mark.parametrize("argv, option", [
    (["check", "--families", ","], "--families"),
    (["verify", "--dims", "2,2", "--suites", ","], "--suites"),
    (["detect", "--act-on", ""], "--act-on"),
])
def test_empty_selection_is_an_input_error(capsys, bell_file, argv, option):
    state = [] if argv[0] == "verify" else ["--state", bell_file]
    code = main([*argv, *state])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert option in captured.err


@pytest.mark.parametrize("families, position", [
    ("correlation,,monogamy", 2), ("shadow,", 2), (",entropy", 1), ("marginal, ,shadow", 2),
])
def test_an_empty_family_entry_is_an_input_error_naming_its_position(capsys, bell_file,
                                                                     families, position):
    code = main(["check", "--state", bell_file, "--families", families])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"--families entry {position} is empty" in captured.err


@pytest.mark.parametrize("suites, position", [
    ("parity,", 2), ("positivity,,parity", 2), (",cross_form", 1), ("parity, ", 2),
])
def test_an_empty_suite_entry_is_an_input_error_naming_its_position(capsys, suites, position):
    code = main(["verify", "--dims", "2,2", "--size", "1", "--suites", suites])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"--suites entry {position} is empty" in captured.err


@pytest.mark.parametrize("families, position, name", [
    ("correlation,correlation", 2, "correlation"), ("shadow,entropy, shadow", 3, "shadow"),
    ("marginal,marginal,marginal", 2, "marginal"),
])
def test_a_repeated_family_is_an_input_error_naming_its_position(capsys, bell_file, families,
                                                                 position, name):
    """A family named twice is not merged into one: exit 2, nothing written."""
    code = main(["check", "--state", bell_file, "--families", families])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"--families entry {position} names family {name!r} again" in captured.err


@pytest.mark.parametrize("suites, position, name", [
    ("cross_form,cross_form", 2, "cross_form"), ("parity,positivity,parity", 3, "parity"),
    ("factorization, factorization", 2, "factorization"),
])
def test_a_repeated_suite_is_an_input_error_naming_its_position(capsys, suites, position, name):
    """A suite named twice is not merged into one: exit 2, nothing written."""
    code = main(["verify", "--dims", "2,2", "--size", "1", "--suites", suites])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"--suites entry {position} names suite {name!r} again" in captured.err


@pytest.mark.parametrize("masks, position, first", [
    ("1;1", 2, 1), ("1,2;2,1", 2, 1), ("0;0", 2, 1), ("2;1; 2", 3, 1), ("1;0;2;0", 4, 2),
])
def test_a_repeated_mask_is_an_input_error_naming_both_positions(capsys, tmp_path, bell_file,
                                                                 masks, position, first):
    """A mask named twice, in any party order, is not printed twice: exit
    2, nothing written, both tokens named, before the state file is read."""
    for state in (bell_file, str(tmp_path / "missing.json")):
        code = main(["invariants", "--state", state, "--masks", masks])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: --masks token {position} (")
        assert f"names the mask of token {first} (" in captured.err


REPORT_KEYS = ["command", "family", "label", "value", "threshold", "margin", "pass",
               "tolerance", "elapsed_ms"]


@pytest.mark.parametrize("argv, extras", [
    (["invariants"], ["c", "clamped"]),
    (["detect", "--act-on", "2", "--t", "2"], ["verdict"]),
])
def test_report_lines_end_in_the_documented_extras(capsys, bell_file, argv, extras):
    assert main([*argv, "--state", bell_file]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines
    for raw in lines:
        assert list(json.loads(raw)) == REPORT_KEYS + extras
    if argv[0] == "detect":
        assert json.loads(lines[0])["pass"] is None


@pytest.mark.parametrize("low, passed, expected_code", [
    (-5e-10, True, 0),   # inside the positivity suite's 1e-9 tolerance
    (-2e-9, False, 1),
])
def test_verify_summary_is_the_worst_margin_and_the_and_of_passes(
    capsys, monkeypatch, low, passed, expected_code
):
    monkeypatch.setattr("qinvert.cli.certified_min_eigenvalue", lambda h, solved, running: low)
    code, lines = run(capsys, "verify", "--dims", "2,2", "--size", "2", "--seed", "3",
                      "--suites", "positivity,parity")
    *rows, summary = lines
    assert [l["family"] for l in rows] == ["positivity", "parity"]
    assert summary["label"] == "worst margin"
    assert summary["value"] == summary["margin"] == min(l["margin"] for l in rows) == low
    assert rows[0]["pass"] is passed
    assert summary["pass"] is all(l["pass"] for l in rows) is passed
    assert code == expected_code


@pytest.mark.parametrize("argv", [
    ["check", "--families", "bogus"],
    ["invariants", "--masks", "3"],
    ["detect", "--act-on", "2", "--alpha", "1:0.5,1:0.5"],
    ["verify", "--dims", "2,2", "--size", "0"],
])
def test_input_error_creates_no_out_file(capsys, bell_file, tmp_path, argv):
    out = tmp_path / "report.jsonl"
    state = [] if argv[0] == "verify" else ["--state", bell_file]
    code = main([*argv, *state, "--out", str(out)])
    capsys.readouterr()
    assert code == 2
    assert not out.exists()


def test_invariants_exit_1_when_a_printed_pass_is_false(capsys, monkeypatch, bell_file):
    from qinvert.invariants import InvariantTable

    table = InvariantTable(np.array([3.0, 0.0, 0.0, -1e-6]))
    monkeypatch.setattr("qinvert.cli.invariant_table", lambda rho: table)
    code, lines = run(capsys, "invariants", "--state", bell_file)
    assert [l["pass"] for l in lines] == [True, True, True, False]
    assert code == 1


@pytest.mark.parametrize("text, field", [
    ('{"dims": [2.9, 2], "kind": "pure", "data": [[1, 0], [0, 0], [0, 0], [0, 0]]}', "dims"),
    ('{"dims": ["2", "2"], "kind": "pure", "data": [[1, 0], [0, 0], [0, 0], [0, 0]]}', "dims"),
    ('{"dims": [2], "kind": "pure", "data": [[true, false], [false, false]]}', "data"),
    ('{"dims": [2], "kind": "pure", "data": [[' + "9" * 400 + ', 0], [0, 0]]}', "data"),
    ('{"dims": [2], "kind": "pure", "data": [[1, 0], [0, 0]], "label": 5}', "label"),
], ids=["float-dims", "string-dims", "boolean-data", "overflowing-data", "number-label"])
def test_malformed_state_file_numbers_are_input_errors(capsys, tmp_path, text, field):
    path = tmp_path / "state.json"
    path.write_text(text)
    code = main(["check", "--state", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert field in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["verify", "--dims", "2,2", "--size", "2", "--seed", "-1"],
    ["make-state", "--kind", "ginibre_mixed", "--dims", "2,2", "--seed", "-1"],
    ["make-state", "--kind", "ghz", "--dims", "2,2", "--seed", "-3"],
])
def test_a_negative_seed_is_an_input_error(capsys, tmp_path, argv):
    out = tmp_path / "out.json"
    code = main([*argv, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert not out.exists()
    assert captured.out == ""
    assert "--seed" in captured.err


@pytest.mark.parametrize("argv, option", [
    (["--kind", "ghz", "--dims", "2,2", "--rank", "3"], "rank"),
    (["--kind", "haar_pure", "--dims", "2,2", "--seed", "1", "--s", "1"], "s"),
    (["--kind", "product_basis", "--dims", "2,2", "--seed", "1"], "seed"),
    (["--kind", "ginibre_mixed", "--dims", "2,2", "--seed", "1", "--s", "2"], "s"),
])
def test_make_state_rejects_an_option_its_kind_does_not_read(capsys, tmp_path, argv, option):
    out = tmp_path / "out.json"
    code = main(["make-state", *argv, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert not out.exists()
    assert f"'{option}'" in captured.err and "Traceback" not in captured.err


def test_a_state_file_with_a_negative_eigenvalue_is_an_input_error(capsys, tmp_path):
    """Files keep the full validation, eigen-solve included."""
    path = tmp_path / "not_psd.json"
    path.write_text('{"dims": [2], "kind": "mixed", '
                    '"data": [[[1.5, 0], [0, 0]], [[0, 0], [-0.5, 0]]]}')
    code = main(["check", "--state", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "negative eigenvalue" in captured.err and "Traceback" not in captured.err


def test_an_undecodable_state_file_is_a_state_file_error(capsys, tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{}")
    code = main(["check", "--state", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert str(path) in captured.err and "Traceback" not in captured.err


def _count_calls(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a: calls.append(a) or real(*a))
    return calls


def test_mixed_check_sweeps_the_purity_profile_once(capsys, monkeypatch, tmp_path):
    path = tmp_path / "mixed.json"
    write_state_file(path, ginibre_mixed(SubsystemDims((2, 3, 2)), 21))
    sweeps = _count_calls(monkeypatch, states, "subset_purities")
    code, lines = run(capsys, "check", "--state", str(path),
                      "--families", "correlation,monogamy,entropy")
    assert code == 0 and lines
    assert len(sweeps) == 1


@pytest.mark.parametrize("argv, densities", [
    (["invariants"], 0),
    (["check", "--families", "monogamy,entropy"], 0),
    (["check"], 1),
    (["check", "--families", "shadow"], 0),
])
def test_pure_input_forms_the_density_matrix_only_for_matrix_families(
    capsys, monkeypatch, tmp_path, argv, densities
):
    path = tmp_path / "pure.json"
    write_state_file(path, haar_pure(SubsystemDims((2, 2, 2)), 22))
    calls = _count_calls(monkeypatch, PureState, "density")
    code, lines = run(capsys, *argv, "--state", str(path))
    assert code == 0 and lines
    assert len(calls) == densities


def test_mixed_check_shadow_sweeps_once_and_solves_once(capsys, monkeypatch, tmp_path):
    path = tmp_path / "mixed.json"
    write_state_file(path, ginibre_mixed(SubsystemDims((2, 3, 2)), 23))
    sweeps = _count_calls(monkeypatch, tensor, "reduction_sweep")
    sweeps_here = _count_calls(monkeypatch, constraints, "reduction_sweep")
    on_load = _count_calls(monkeypatch, states, "psd_violation")
    in_shadow = _count_calls(monkeypatch, constraints, "psd_violation")
    eigen_solves = _count_calls(monkeypatch, np.linalg, "eigvalsh")
    code, lines = run(capsys, "check", "--state", str(path), "--families", "shadow")
    assert code == 0 and len(lines) == 8
    assert len(sweeps) + len(sweeps_here) == 1
    # validation on load certifies the state by its Cholesky; shadow reads
    # the state's purity profile and tests nothing again
    assert len(on_load) == 1 and in_shadow == []
    assert eigen_solves == []


def _strip_elapsed(lines):
    return [{k: v for k, v in line.items() if k != "elapsed_ms"} for line in lines]


VERIFY_ENSEMBLE_ARGV = ["verify", "--dims", "2,3", "--size", "3", "--seed", "4", "--suites"]
ENSEMBLE_SUITES = ["cross_form", "positivity", "parity"]


def _record_member_stacks(monkeypatch):
    """Record the member list of every stacked Ginibre build and the
    (members, dims) operand of every inversion stack call in ``cli``."""
    built, stacked = [], []
    real_members, real_stacks = cli.ginibre_stack, cli.inversion_stacks
    monkeypatch.setattr(cli, "ginibre_stack", lambda dims, seed, members: built.append(
        list(members)) or real_members(dims, seed, members))
    monkeypatch.setattr(cli, "inversion_stacks", lambda *a: stacked.append(a) or real_stacks(*a))
    return built, stacked


def test_verify_builds_each_member_and_its_stacks_once_for_the_three_suites(capsys, monkeypatch):
    """Each member is built once, in order, in one stack per chunk of
    consecutive members; the inversion stacks are built once per chunk and
    feed all three suites."""
    built, stacked = _record_member_stacks(monkeypatch)
    code, shared = run(capsys, *VERIFY_ENSEMBLE_ARGV, ",".join(ENSEMBLE_SUITES))
    assert code == 0 and [line["family"] for line in shared[:3]] == ENSEMBLE_SUITES
    assert built == [[0, 1, 2]]
    # the three members fit in one chunk, each bit for bit its own state
    [(mats, dims)] = stacked
    for k, mat in enumerate(mats):
        assert mat.tobytes() == ginibre_mixed(dims, 4, member=k).matrix.tobytes()
    # each suite run on its own prints the line it has in the shared pass
    for line in shared[:3]:
        code, alone = run(capsys, *VERIFY_ENSEMBLE_ARGV, line["family"])
        assert code == 0 and _strip_elapsed(alone[:1]) == _strip_elapsed([line])
    # a bound that holds two members' stacks: chunks of two and one
    monkeypatch.setattr(inversion, "STACK_HOLD_BYTES",
                        2 * inversion.CHUNK_STACKS * (16 << dims.n) * dims.total**2)
    built.clear()
    stacked.clear()
    code, chunked = run(capsys, *VERIFY_ENSEMBLE_ARGV, ",".join(ENSEMBLE_SUITES))
    assert code == 0 and _strip_elapsed(chunked) == _strip_elapsed(shared)
    assert built == [[0, 1], [2]]
    assert [len(mats) for mats, _ in stacked] == [2, 1]


def test_factorization_inverts_each_product_once_in_groups_of_at_most_a_chunk(
    capsys, monkeypatch
):
    """With a bound that holds two (3,3) members, members sharing a split
    are built and inverted in groups of at most two: both factors of every
    member are built once, a group's in member order, and every product,
    bit for bit its ``DensityMatrix.from_product``, is inverted exactly
    once."""
    built, stacked = _record_member_stacks(monkeypatch)
    two = 2 * inversion.CHUNK_STACKS * (16 << 2) * 9**2
    monkeypatch.setattr(inversion, "STACK_HOLD_BYTES", two)
    code, _ = run(capsys, "verify", "--dims", "3,3", "--size", "9", "--seed", "3",
                  "--suites", "factorization")
    assert code == 0
    # member k's factors are Ginibre members 2k (on s) and 2k + 1 (on the rest)
    assert sorted(m for members in built for m in members) == list(range(18))
    assert all(members == sorted(members) and len(members) <= 2 for members in built)
    groups = [mats for mats, dims in stacked if dims.dims == (3, 3)]
    assert max(len(mats) for mats in groups) == 2
    dims, splits = SubsystemDims((3, 3)), zoo.stream_rng(3, 10_001)
    products = []
    for k in range(9):
        s = int(splits.integers(1, dims.full_mask))
        parts = {part: ginibre_mixed(SubsystemDims(dims.dims_of(part)), 3, member=2 * k + j)
                 for j, part in enumerate((s, dims.full_mask ^ s))}
        products.append(states.DensityMatrix.from_product(parts, dims).matrix.tobytes())
    inverted = sorted(mat.tobytes() for mats in groups for mat in mats)
    assert inverted == sorted(products)


def test_verify_on_one_party_notes_the_skipped_factorization_outside_the_summary(capsys):
    """With one party the factorization suite prints a note line (pass
    null), which the summary does not count."""
    code, lines = run(capsys, "verify", "--dims", "3", "--size", "2", "--seed", "1",
                      "--suites", "positivity,factorization")
    positivity, note, summary = lines
    assert code == 0 and positivity["family"] == "positivity"
    assert note["family"] == "factorization" and note["label"].startswith("note: ")
    assert note["pass"] is None
    # the note's margin 0 would have been the worst
    assert summary["value"] == positivity["margin"] > 0 and summary["pass"] is True


@pytest.mark.parametrize("out", [False, True])
def test_verify_of_only_factorization_on_one_party_is_an_input_error(capsys, tmp_path, out):
    """A campaign with nothing to check cannot pass: exit 2, no line, no
    report file."""
    report = tmp_path / "report.jsonl"
    argv = ["verify", "--dims", "2", "--suites", "factorization"]
    code = main(argv + (["--out", str(report)] if out else []))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and not report.exists()
    assert "factorization needs at least 2 parties" in captured.err


def test_verify_lines_do_not_depend_on_the_stack_bound(capsys, monkeypatch):
    """One member per chunk and one mask per stack (hold bound 0), chunks
    of two, the default chunks and all members in one chunk print the
    same lines, bit for bit: deviations are maxima, and parity adds each
    member's masks in ascending order across stacks.  Sizes exceed one
    default chunk."""
    for local_dims, seed in (((3, 3), 6), ((2, 3, 2), 7)):
        dims = SubsystemDims(local_dims)
        size = 1 + inversion.chunk_members(dims)
        argv = ["verify", "--dims", ",".join(map(str, local_dims)), "--size", str(size),
                "--seed", str(seed), "--suites", "cross_form,positivity,parity,factorization"]
        two = 2 * inversion.CHUNK_STACKS * (16 << dims.n) * dims.total**2
        lines = []
        for bound in (inversion.STACK_HOLD_BYTES, 0, two, 1 << 30):
            monkeypatch.setattr(inversion, "STACK_HOLD_BYTES", bound)
            code, printed = run(capsys, *argv)
            assert code == 0
            lines.append(_strip_elapsed(printed))
        monkeypatch.undo()
        assert all(printed == lines[0] for printed in lines), local_dims


@pytest.mark.parametrize("local_dims, size, seed, stack_masks", [
    ((2, 2, 2), 4, 1, None),
    ((2, 3), 5, 7, 1),
    ((2, 2, 2), 3, 12345, 2),
    ((3, 2), 2, 3, None),
])
def test_verify_rows_are_the_per_member_per_mask_routes(
    capsys, monkeypatch, local_dims, size, seed, stack_masks
):
    """positivity is the least min_eigenvalue of invert_product over every
    member and mask, and cross_form the largest per-mask deviation of the
    product and Kraus forms from the sum form, bit for bit, whether a
    stack, and so the block both reference forms evaluate, holds all masks
    or ``stack_masks`` (a chunk of one member then)."""
    dims = SubsystemDims(local_dims)
    if stack_masks is not None:
        monkeypatch.setattr(inversion, "STACK_HOLD_BYTES", (16 * stack_masks) * dims.total**2)
    code, (cross, positivity, summary) = run(
        capsys, "verify", "--dims", ",".join(map(str, local_dims)), "--size", str(size),
        "--seed", str(seed), "--suites", "cross_form,positivity")
    assert code == 0 and summary["pass"] is True
    low, dev = float("inf"), 0.0
    for k in range(size):
        mat = ginibre_mixed(dims, seed, member=k).matrix
        for t in dims.subset_masks():
            by_product, by_sum = invert_product(mat, dims, t), invert_sum(mat, dims, t)
            low = min(low, min_eigenvalue(by_product))
            dev = max(dev, float(np.max(np.abs(by_sum - by_product))),
                      float(np.max(np.abs(by_sum - invert_kraus(mat, dims, t)))))
    assert positivity["value"] == low
    assert cross["value"] == -dev


def _nan_at_first_entry(stack):
    stack = np.array(stack)
    stack.reshape(-1)[0] = np.nan
    return stack


@pytest.mark.parametrize("suites, owner, name", [
    ("cross_form", cli, "invert_kraus"),
    ("parity", cli, "inversion_stacks"),
    ("factorization", cli, "block_product"),
    ("closed_form", cli, "pinned_mix_table"),
    ("cross_form,factorization", cli, "block_product"),
])
def test_a_non_finite_deviation_is_an_error_naming_its_suite(
    capsys, monkeypatch, tmp_path, suites, owner, name
):
    """NaN would slip past the maxima that make a deviation row (Python's
    max(0.0, nan) is 0.0): one NaN entry in what a suite compares exits 2
    with no line and no ``--out`` file, even after an earlier suite's rows
    are made, and the error names the suite."""
    real = getattr(owner, name)
    if name == "inversion_stacks":
        monkeypatch.setattr(owner, name, lambda *a: map(_nan_at_first_entry, real(*a)))
    else:
        monkeypatch.setattr(owner, name, lambda *a: _nan_at_first_entry(real(*a)))
    report = tmp_path / "report.jsonl"
    argv = ["verify", "--dims", "2,2", "--size", "3", "--seed", "1", "--suites", suites]
    for out in ([], ["--out", str(report)]):
        code = main(argv + out)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and not report.exists()
        assert f"suite {suites.split(',')[-1]}: non-finite deviation nan" in captured.err


def test_consecutive_verify_runs_in_one_process_print_the_same_lines(capsys):
    """Nothing built for one invocation (Kraus generators, stacks) outlives
    it or changes the next one's lines."""
    argv = ["verify", "--dims", "2,3,2", "--size", "3", "--seed", "8"]
    code, first = run(capsys, *argv)
    code_again, second = run(capsys, *argv)
    assert code == code_again == 0
    assert {line["family"] for line in first} == {*cli.VERIFY_SUITES, "summary"}
    assert _strip_elapsed(second) == _strip_elapsed(first)


PINNED_SUITES = ["independence", "closed_form"]


@pytest.mark.parametrize("local_dims, ranks, sweeps", [
    ("2", 1, 1), ("2,3", 2, 3), ("2,2,2,2,2", 2, 3)])
def test_pinned_suites_read_one_table_per_family(capsys, monkeypatch, local_dims, ranks, sweeps):
    """With both pinned-family suites selected, each family stack is swept
    once: the pin-or-mix states, and from two parties on the pinned-GHZ
    projectors and their reduced states.  No state's own purity profile or
    invariant table is formed."""
    stacked = _count_calls(monkeypatch, zoo, "subset_purities")
    per_state = _count_calls(monkeypatch, states, "subset_purities")
    tables = [_count_calls(monkeypatch, owner, "invariant_table")
              for owner in (invariants, constraints, cli)]
    code, lines = run(capsys, "verify", "--dims", local_dims, "--size", "1",
                      "--suites", ",".join(PINNED_SUITES))
    assert code == 0 and [line["family"] for line in lines[:-1]] == (
        ["independence"] * ranks + ["closed_form"])
    assert len(stacked) == sweeps
    assert [len(mats.shape) for mats, _ in stacked] == [3] * sweeps
    assert per_state == [] and tables == [[], [], []]


@pytest.mark.parametrize("local_dims", ["3", "2,3", "2,3,4", "2,2,2,2,2"])
def test_pinned_suite_lines_depend_only_on_the_party_count(capsys, local_dims):
    """Each pinned-family suite run on its own prints the lines it has in a
    full run, and neither --seed nor --size changes them."""
    def pinned(*extra):
        code, lines = run(capsys, "verify", "--dims", local_dims, *extra)
        assert code == 0
        return _strip_elapsed([line for line in lines if line["family"] in PINNED_SUITES])

    full = pinned("--size", "2", "--seed", "3")
    assert [line["family"] for line in full][-1] == "closed_form"
    for suite in PINNED_SUITES:
        alone = pinned("--size", "1", "--suites", suite)
        assert alone == [line for line in full if line["family"] == suite]
    both = ",".join(PINNED_SUITES)
    assert pinned("--size", "1", "--seed", "0", "--suites", both) == full
    assert pinned("--size", "5", "--seed", "99", "--suites", both) == full


def old_closed_form_residual(n):
    """The per-state loop of the closed_form suite before the family
    tables: each member's own invariant table against its closed form."""
    dev = 0.0
    for pins in range(1 << n):
        table = invariants.invariant_table(zoo.pinned_mix_state(n, pins))
        for t in range(1 << n):
            dev = max(dev, abs(table.c_squared(t) - zoo.pinned_mix_invariant(n, pins, t)))
    if n >= 2:
        for idx in range(1 << (n - 1)):
            pins = idx << 1
            table = invariants.invariant_table(zoo.pinned_ghz_state(n, pins).density())
            for t in range(1 << n):
                dev = max(dev, abs(table.c_squared(t) - zoo.pinned_ghz_invariant(n, pins, t)))
    return dev


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_closed_form_residual_is_the_per_state_loops_bit_for_bit(capsys, n):
    code, lines = run(capsys, "verify", "--dims", ",".join(["2"] * n), "--size", "1",
                      "--suites", "closed_form")
    assert code == 0 and lines[0]["label"] == f"max closed-form residual at n={n}"
    want = -old_closed_form_residual(n)
    assert np.float64(lines[0]["value"]).tobytes() == np.float64(want).tobytes()


def test_python_dash_m_runs_the_command_line_tool(capsys, monkeypatch):
    argv = ["verify", "--dims", "2,2", "--size", "1", "--suites", "closed_form"]
    monkeypatch.setattr("sys.argv", ["qinvert", *argv])
    with pytest.raises(SystemExit) as stop:
        runpy.run_module("qinvert", run_name="__main__")
    by_module = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    code, by_main = run(capsys, *argv)
    assert stop.value.code == code == 0
    assert _strip_elapsed(by_module) == _strip_elapsed(by_main)


def test_main_calls_in_one_process_print_what_fresh_processes_print(capsys):
    """The parser is built once per process (parsing leaves it unchanged),
    so a later call prints the lines a first call in a new process does."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}

    def fresh(argv):
        done = subprocess.run([sys.executable, "-m", "qinvert", *argv], capture_output=True,
                              text=True, env=env)
        return done.returncode, done.stdout, done.stderr

    def here(argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refused the arguments
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def timeless(out):
        return [{k: v for k, v in json.loads(line).items() if k != "elapsed_ms"}
                for line in out.splitlines()]

    make = ["make-state", "--kind", "ginibre_mixed", "--dims", "2,3", "--seed", "4"]
    refused = ["verify", "--dims", "2,2", "--size", "two"]
    campaign = ["verify", "--dims", "2,2", "--size", "2", "--suites", "positivity"]
    assert cli.build_parser() is cli.build_parser()
    for argv in (make, refused):
        expected = fresh(argv)
        assert here(argv) == here(argv) == expected
    code, out, err = fresh(campaign)
    for _ in range(2):
        got = here(campaign)
        assert (got[0], timeless(got[1]), got[2]) == (code, timeless(out), err)


def test_the_cached_parser_calls_the_command_the_module_holds_now(capsys, monkeypatch):
    """A tracer that wraps ``cmd_*`` after a first call still sees the
    later ones."""
    assert main(["make-state", "--kind", "bell_phi_plus", "--dims", "2,2"]) == 0
    calls = []
    monkeypatch.setattr(cli, "cmd_make_state", lambda args: calls.append(args.kind) or 0)
    assert main(["make-state", "--kind", "ghz", "--dims", "2,2"]) == 0
    assert calls == ["ghz"]
    capsys.readouterr()


def test_make_state_writes_a_ginibre_factor_only_with_a_rank(capsys, tmp_path):
    factor, mixed = tmp_path / "factor.json", tmp_path / "mixed.json"
    assert main(["make-state", "--kind", "ginibre_factor", "--dims", "2,3,2", "--seed", "4",
                 "--out", str(tmp_path / "none.json")]) == 2
    assert "requires the option 'rank'" in capsys.readouterr().err
    common = ["--dims", "2,3,2", "--seed", "4", "--rank", "3"]
    assert main(["make-state", "--kind", "ginibre_factor", *common, "--out", str(factor)]) == 0
    assert main(["make-state", "--kind", "ginibre_mixed", *common, "--out", str(mixed)]) == 0
    state, rho = read_state_file(factor), read_state_file(mixed)
    assert isinstance(state, FactorState) and state.rank == 3
    assert np.max(np.abs(state.density().matrix - rho.matrix)) <= 1e-15


def test_check_on_a_factor_file_is_check_on_its_density_matrix(capsys, tmp_path):
    """A factor file prints the lines of the mixed file of its density
    matrix, within 1e-12, with the same labels, verdicts and exit code.
    Monogamy reads a rank-1 factor as pure and downgrades any other."""
    dims = SubsystemDims((2, 3, 2))
    families = "correlation,shadow,entropy,marginal"
    keys = ("family", "label", "threshold", "pass", "tolerance")
    for rank in (1, 4):
        state = zoo.ginibre_factor(dims, 9, rank)
        factor, mixed = tmp_path / f"factor{rank}.json", tmp_path / f"mixed{rank}.json"
        write_state_file(factor, state)
        write_state_file(mixed, state.density())
        code, lines = run(capsys, "check", "--state", str(factor), "--families", families)
        code_mixed, want = run(capsys, "check", "--state", str(mixed), "--families", families)
        assert code == code_mixed == 0
        assert [[line[k] for k in keys] for line in lines] == [[line[k] for k in keys]
                                                              for line in want]
        assert max(abs(a["value"] - b["value"]) for a, b in zip(lines, want)) <= 1e-12
        correlation = [line["value"] for line in lines if line["family"] == "correlation"]
        _, monogamy = run(capsys, "check", "--state", str(factor), "--families", "monogamy")
        if rank == 1:
            assert [line["value"] for line in monogamy] == [2.0 * v for v in correlation]
        else:
            assert monogamy[0]["label"] == "warning: mixed state; monogamy downgraded to correlation"
            assert [line["value"] for line in monogamy[1:]] == correlation


def test_pure_marginal_and_detect_stay_within_1e_12_of_the_outer_product_route(capsys, tmp_path):
    """Pure input acts on its exactly Hermitian Gram density; the values
    stay within 1e-12 of those of |psi><psi| formed by np.outer, which
    marginal and detect read through its lower-triangle completion."""
    psi = haar_pure(SubsystemDims((2, 3, 2)), 4)
    path = tmp_path / "pure.json"
    write_state_file(path, psi)
    old = states.DensityMatrix(np.outer(psi.vector, psi.vector.conj()), psi.dims)
    assert old.operand is not old.matrix
    _, lines = run(capsys, "check", "--state", str(path), "--families", "marginal")
    want = constraints.marginal_report(old).entries
    assert [line["label"] for line in lines] == [e.label for e in want]
    assert max(abs(line["value"] - e.value) for line, e in zip(lines, want)) <= 1e-12
    params = inversion.DetectionParams(t=0b001, act_on=0b011, alpha=1.0, beta=1.0)
    _, [line] = run(capsys, "detect", "--state", str(path), "--act-on", "1,2", "--t", "1")
    low = min_eigenvalue(inversion.apply_detection_map(old.operand, old.dims, params))
    assert abs(line["value"] - low) <= 1e-12
