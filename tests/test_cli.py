import json

import numpy as np
import pytest

from qinvert import cli, constraints, inversion, states, tensor
from qinvert.cli import main
from qinvert.dims import SubsystemDims
from qinvert.io import write_state_file
from qinvert.states import PureState
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
    monkeypatch.setattr("qinvert.cli.min_eigenvalue", lambda h: low)
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

    table = InvariantTable(values={0: 3.0, 1: 0.0, 2: 0.0, 3: -1e-6})
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


def test_verify_builds_each_member_and_its_stacks_once_for_the_three_suites(capsys, monkeypatch):
    """Each member is built once, in order; the inversion stacks are built
    once per chunk of consecutive members and feed all three suites."""
    built, stacked = [], []
    real_member, real_stacks = cli.ginibre_mixed, cli.inversion_stacks
    monkeypatch.setattr(cli, "ginibre_mixed",
                        lambda *a, **kw: built.append(kw) or real_member(*a, **kw))
    monkeypatch.setattr(cli, "inversion_stacks", lambda *a: stacked.append(a) or real_stacks(*a))
    code, shared = run(capsys, *VERIFY_ENSEMBLE_ARGV, ",".join(ENSEMBLE_SUITES))
    assert code == 0 and [line["family"] for line in shared[:3]] == ENSEMBLE_SUITES
    assert [kw["member"] for kw in built] == [0, 1, 2]
    # the three members fit in one chunk, stacked in member order
    [(mats, dims)] = stacked
    for k, mat in enumerate(mats):
        assert np.array_equal(mat, real_member(dims, 4, member=k).matrix)
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
    assert [kw["member"] for kw in built] == [0, 1, 2]
    assert [len(mats) for mats, _ in stacked] == [2, 1]


def test_factorization_inverts_each_product_once_in_groups_of_at_most_a_chunk(
    capsys, monkeypatch
):
    """With a bound that holds two (3,3) members, members sharing a split
    are inverted in groups of at most two, and every product built is
    inverted exactly once."""
    built, stacked = [], []
    real_product, real_stacks = cli.assemble_product, cli.inversion_stacks
    monkeypatch.setattr(cli, "assemble_product",
                        lambda *a: built.append(real_product(*a)) or built[-1])
    monkeypatch.setattr(cli, "inversion_stacks", lambda *a: stacked.append(a) or real_stacks(*a))
    two = 2 * inversion.CHUNK_STACKS * (16 << 2) * 9**2
    monkeypatch.setattr(inversion, "STACK_HOLD_BYTES", two)
    code, _ = run(capsys, "verify", "--dims", "3,3", "--size", "9", "--seed", "3",
                  "--suites", "factorization")
    assert code == 0 and len(built) == 9
    groups = [mats for mats, dims in stacked if dims.dims == (3, 3)]
    assert max(len(mats) for mats in groups) == 2
    inverted = sorted(mat.tobytes() for mats in groups for mat in mats)
    assert inverted == sorted(prod.matrix.tobytes() for prod in built)


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


def test_consecutive_verify_runs_in_one_process_print_the_same_lines(capsys):
    """Nothing built for one invocation (Kraus generators, stacks) outlives
    it or changes the next one's lines."""
    argv = ["verify", "--dims", "2,3,2", "--size", "3", "--seed", "8"]
    code, first = run(capsys, *argv)
    code_again, second = run(capsys, *argv)
    assert code == code_again == 0
    assert {line["family"] for line in first} == {*cli.VERIFY_SUITES, "summary"}
    assert _strip_elapsed(second) == _strip_elapsed(first)
