import copy
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dephkit
from conftest import CMAX, audit_only_triple, permutation, small_flip_channel
from dephkit import (
    channel_from_kraus,
    controlled_unitary_family,
    decompose_product_qubit,
    jamiolkowski,
    kron,
    random_channel,
    random_controlled_family,
    random_super_gram,
    validate_super_gram,
)
from dephkit.cli import main
from dephkit.io import (
    bundled_data_path,
    matrix_from_obj,
    matrix_to_obj,
    read_bipartite,
    read_matrix,
    write_bipartite,
    write_channel,
    write_family_pair,
    write_matrix,
)
from dephkit.linalg import basis_vector, max_abs
from dephkit.superchannels import bipartite_channel, controlled_unitary_channel
from reference import identity_bipartite, identity_channel, unitary_channel, write_jamiolkowski_channel

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code = main([str(a) for a in argv] + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.fixture
def cmax_file(tmp_path):
    path = tmp_path / "cmax.json"
    write_matrix(path, CMAX)
    return path


@pytest.fixture
def realization_files(tmp_path, cmax_families):
    pre, post = cmax_families
    enc = tmp_path / "enc.json"
    dec = tmp_path / "dec.json"
    tau = tmp_path / "tau.json"
    write_bipartite(enc, controlled_unitary_channel(pre))
    write_bipartite(dec, controlled_unitary_channel(post))
    e0 = basis_vector(0, 4)
    write_matrix(tau, np.outer(e0, e0))
    return enc, dec, tau


def test_gram_validate_pass(capsys, cmax_file):
    code, report = run_json(capsys, "gram-validate", cmax_file)
    assert code == 0
    assert report["verdict"] == "pass"
    assert report["provenance"]


def test_gram_validate_all_ones(capsys, tmp_path):
    path = tmp_path / "ones.json"
    write_matrix(path, np.ones((4, 4)))
    code, _ = run(capsys, "gram-validate", path)
    assert code == 0


def test_gram_validate_bad_diagonal(capsys, tmp_path):
    mat = np.eye(4, dtype=complex)
    mat[0, 0] = 0.9
    path = tmp_path / "bad.json"
    write_matrix(path, mat)
    code, report = run_json(capsys, "gram-validate", path)
    assert code == 1
    assert report["verdict"] == "fail"
    diag = next(d for d in report["details"] if d["check"] == "unit-diagonal")
    assert diag["value"] > diag["threshold"]


def test_parse_error_exit_code(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    assert main(["gram-validate", str(path)]) == 2


def _assert_parse_error(capsys, argv):
    assert main([str(a) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


def test_gram_validate_out_writes_a_realization_that_reads_back(capsys, tmp_path):
    gram, pair, recon = (tmp_path / name for name in ("gram.json", "pair.json", "recon.json"))
    write_matrix(gram, random_super_gram(3, 5).mat)
    code, report = run_json(capsys, "gram-validate", gram, "--out", pair)
    assert code == 0
    residual = next(d for d in report["details"] if d["check"] == "controlled-unitary round-trip residual")
    assert residual["value"] <= 1e-12
    assert main(["gram-from-unitaries", str(pair), "--out", str(recon)]) == 0
    assert max_abs(read_matrix(recon) - read_matrix(gram)) <= 1e-12


def test_gram_validate_out_writes_nothing_for_a_failing_matrix(capsys, tmp_path):
    bad, out = tmp_path / "bad.json", tmp_path / "pair.json"
    mat = np.eye(4, dtype=complex)
    mat[0, 0] = 0.9
    write_matrix(bad, mat)
    code, report = run_json(capsys, "gram-validate", bad, "--out", out)
    assert code == 1
    assert [d["check"] for d in report["details"]] == ["unit-diagonal", "hermitian", "psd", "equal-diagonal-blocks"]
    assert not out.exists()


def test_ppt_has_no_artifact_to_write(capsys, cmax_file, tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["ppt", str(cmax_file), "--out", str(tmp_path / "ppt.json")])
    assert err.value.code == 2
    assert not (tmp_path / "ppt.json").exists()


def test_bool_matrix_entry_is_a_parse_error(capsys, tmp_path):
    # read as 1 and 0, these entries would be the 4x4 identity, a valid Gram matrix
    path = tmp_path / "bools.json"
    data = [[True, False] if i % 5 == 0 else [False, False] for i in range(16)]
    path.write_text(json.dumps({"rows": 4, "cols": 4, "data": data}))
    _assert_parse_error(capsys, ["gram-validate", path])


@pytest.mark.parametrize("rows,cols", [(-1, -4), (-2, -2), (math.inf, 0)])
@pytest.mark.parametrize("command", ["gram-validate", "memory-activity", "ppt"])
def test_matrix_dimensions_out_of_range_are_a_parse_error(capsys, tmp_path, command, rows, cols):
    # rows * cols matches the data length of the negative pairs, so only the sign gives them away
    path = tmp_path / "dimensions.json"
    path.write_text(json.dumps({"rows": rows, "cols": cols, "data": [[1, 0], [0, 0], [0, 0], [1, 0]]}))
    _assert_parse_error(capsys, [command, path])


SIDES = {"0": 0, "3": 3, "5": 5, "4x2": (4, 2)}


@pytest.mark.parametrize(
    "command,side",
    [
        pytest.param([command], side, id=f"{command}-{name}")
        for command in ["gram-validate", "apply", "memory-activity", "memory-decompose", "ppt"]
        for name, side in SIDES.items()
    ]
    # with --dims, a file that does not split into factors of dimension >= 1 is a fault of the file
    + [pytest.param(["ppt", "--dims", "2", "1"], (4, 2), id="ppt-dims-4x2")]
    + [pytest.param(["ppt", "--dims", "3", "3"], 4, id="ppt-dims-3x3-on-4")]
    + [pytest.param(["ppt", "--dims", "0", "3"], 4, id="ppt-dims-0x3-on-4")],
)
def test_gram_file_whose_side_is_not_d_squared_is_a_parse_error(capsys, tmp_path, command, side):
    path = tmp_path / "side.json"
    write_matrix(path, np.eye(*side) if isinstance(side, tuple) else np.eye(side))
    channel = tmp_path / "channel.json"
    write_channel(channel, random_channel(2, 2, seed=3))
    _assert_parse_error(capsys, command + ([channel] if command == ["apply"] else []) + [path])


def test_bipartite_file_with_an_infinite_dimension_is_a_parse_error(capsys, tmp_path, realization_files):
    _, dec, tau = realization_files
    path = tmp_path / "enc.json"
    obj = json.loads(dec.read_text())
    obj["sys_in"] = math.inf
    path.write_text(json.dumps(obj))
    _assert_parse_error(capsys, ["verify-realization", path, dec, tau])


@pytest.mark.parametrize("content", ["[1, 2, 3]", '"x"'], ids=["list", "string"])
@pytest.mark.parametrize("command", ["apply", "bloch-affine"])
def test_channel_file_that_is_not_an_object_is_a_parse_error(capsys, tmp_path, cmax_file, command, content):
    path = tmp_path / "channel.json"
    path.write_text(content)
    _assert_parse_error(capsys, [command, path] + ([cmax_file] if command == "apply" else []))


def test_kraus_file_with_a_lying_dimension_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "channel.json"
    path.write_text(json.dumps({"kind": "kraus", "dim_in": 7, "dim_out": 3, "kraus": [matrix_to_obj(np.eye(2))]}))
    _assert_parse_error(capsys, ["bloch-affine", path])


@pytest.mark.parametrize("d", [7, "x"])
def test_family_file_with_a_wrong_d_is_a_parse_error(capsys, tmp_path, cmax_families, d):
    path = tmp_path / "fam.json"
    write_family_pair(path, *cmax_families)
    path.write_text(json.dumps(dict(json.loads(path.read_text()), d=d)))
    _assert_parse_error(capsys, ["gram-from-unitaries", path])


@pytest.mark.parametrize("kraus", [[], [np.eye(2), np.eye(3)]], ids=["empty", "ragged"])
@pytest.mark.parametrize("tagged", [True, False])
def test_empty_or_ragged_kraus_list_is_a_parse_error(capsys, tmp_path, kraus, tagged):
    path = tmp_path / "channel.json"
    obj = {"kraus": [matrix_to_obj(k) for k in kraus]}
    if tagged:
        obj.update(kind="kraus", dim_in=2, dim_out=2)
    path.write_text(json.dumps(obj))
    _assert_parse_error(capsys, ["bloch-affine", path])


EMPTY_MATRIX = {"rows": 0, "cols": 0, "data": []}


@pytest.mark.parametrize(
    "command,obj",
    [
        ("bloch-affine", EMPTY_MATRIX),
        ("bloch-affine", {"kind": "jamiolkowski", "dim": 0, "matrix": EMPTY_MATRIX}),
        (
            "verify-realization",
            {"kind": "bipartite-kraus", "sys_in": 2, "mem_in": 0, "sys_out": 2, "mem_out": 0, "kraus": [EMPTY_MATRIX]},
        ),
    ],
    ids=["untagged-jamiolkowski", "tagged-jamiolkowski", "bipartite"],
)
def test_zero_dimensional_input_is_a_parse_error(capsys, tmp_path, command, obj):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(obj))
    tau = tmp_path / "tau.json"
    tau.write_text(json.dumps(EMPTY_MATRIX))
    _assert_parse_error(capsys, [command, path] + ([path, tau] if command == "verify-realization" else []))


def test_memory_activity_bundled_nmr(capsys):
    code, report = run_json(capsys, "memory-activity", bundled_data_path("nmr_gram.json"))
    assert code == 0
    assert report["verdict"] == "value"
    assert abs(report["value"] - 0.625) < 5e-4


def test_memory_activity_cmax_and_out(capsys, cmax_file, tmp_path):
    out = tmp_path / "nearest.json"
    code, report = run_json(capsys, "memory-activity", cmax_file, "--out", out)
    assert code == 0
    assert report["value"] == pytest.approx(2.0)
    nearest = read_matrix(out)
    assert max_abs(nearest - nearest.conj().T) < 1e-12


def test_memory_activity_product_gram(capsys, tmp_path):
    c = np.array([[1, 0.5], [0.5, 1]], dtype=complex)
    path = tmp_path / "prod.json"
    write_matrix(path, kron(c, c))
    code, report = run_json(capsys, "memory-activity", path)
    assert code == 0
    assert abs(report["value"]) < 1e-12


def test_memory_activity_wrong_dimension(capsys, tmp_path):
    path = tmp_path / "nine.json"
    write_matrix(path, np.eye(9))
    assert main(["memory-activity", str(path)]) == 1


def test_family_ppt_closed_form(capsys):
    code, report = run_json(capsys, "family", "--alpha", "1", "--beta", "1", "--ppt")
    assert code == 0
    eig = next(d for d in report["details"] if "smallest eigenvalue" in d["check"])
    assert abs(eig["value"] - (1 - np.sqrt(2))) < 1e-9


def test_family_identity_matrix_out(capsys, tmp_path):
    out = tmp_path / "family.json"
    code, _ = run(capsys, "family", "--alpha", "0", "--beta", "0", "--out", out)
    assert code == 0
    assert max_abs(read_matrix(out) - np.eye(9)) < 1e-12


def test_family_realize_residual(capsys):
    code, report = run_json(capsys, "family", "--alpha", "0.8", "--beta", "0.3", "--realize")
    assert code == 0
    res = next(d for d in report["details"] if "round-trip residual" in d["check"])
    assert res["value"] <= 1e-9


def test_family_realization_file_reads_back_to_the_family_matrix(capsys, tmp_path):
    pair, recon, direct = (tmp_path / name for name in ("pair.json", "recon.json", "family.json"))
    params = ["--alpha", "0.8", "--beta", "0.5j"]
    assert main(["family", *params, "--realize", "--out", str(pair)]) == 0
    assert main(["gram-from-unitaries", str(pair), "--out", str(recon)]) == 0
    assert main(["family", *params, "--out", str(direct)]) == 0
    assert max_abs(read_matrix(recon) - read_matrix(direct)) <= 1e-12


@pytest.mark.parametrize("tol,code", [(None, 0), ("2e-16", 1)])
def test_family_checks_its_unitaries_at_the_tol_flag(capsys, tol, code):
    # The unitaries of the realization are unitary to 6.7e-16; a refusal is reported as its failed record.
    argv = ["family", "--alpha", "0.8", "--beta", "0.5j", "--realize", *(("--tol", tol) if tol else ())]
    got, report = run_json(capsys, *argv)
    assert got == code
    failed = [c["check"] for c in report["details"] if c["threshold"] is not None and not c["value"] <= c["threshold"]]
    assert failed == (["unitary"] if code else [])


def test_family_out_of_disk(capsys):
    assert main(["family", "--alpha", "2", "--beta", "0"]) == 1


def test_family_realizes_a_parameter_within_tol_of_the_disk(capsys):
    code, report = run_json(capsys, "family", "--alpha", "1.0000000000005", "--beta", "0", "--ppt", "--realize")
    assert code == 0
    assert report["verdict"] == "pass"


def test_family_realizes_a_parameter_at_the_edge_of_the_tol(capsys):
    # |alpha| - 1 = 5e-10 passes the unit-disk check at the default tol 1e-9;
    # pinned as given, its column would leave the unitary 1e-9 off.
    code, report = run_json(capsys, "family", "--alpha", "1.0000000005", "--beta", "0", "--realize")
    assert code == 0
    res = next(d for d in report["details"] if "round-trip residual" in d["check"])
    assert res["value"] <= 1e-9


def test_apply_identity_channel_all_ones(capsys, tmp_path):
    ch_path = tmp_path / "id.json"
    gram_path = tmp_path / "ones.json"
    out = tmp_path / "out.json"
    write_channel(ch_path, identity_channel(2))
    write_matrix(gram_path, np.ones((4, 4)))
    code, report = run_json(capsys, "apply", ch_path, gram_path, "--out", out)
    assert code == 0
    jam = read_matrix(out)
    psi = np.zeros(4)
    psi[[0, 3]] = 1 / np.sqrt(2)
    assert max_abs(jam - np.outer(psi, psi)) < 1e-12


def test_apply_hadamard_max_dephasing_reports_cgp_drop(capsys, tmp_path):
    ch_path = tmp_path / "h.json"
    gram_path = tmp_path / "eye.json"
    out = tmp_path / "out.json"
    write_channel(ch_path, unitary_channel(HADAMARD))
    write_matrix(gram_path, np.eye(4))
    code, report = run_json(capsys, "apply", ch_path, gram_path, "--out", out)
    assert code == 0
    before = next(d for d in report["details"] if "before" in d["check"])["value"]
    after = next(d for d in report["details"] if "after" in d["check"])["value"]
    assert before == pytest.approx(1.0)
    assert abs(after) < 1e-12
    jam = read_matrix(out)
    assert max_abs(jam - np.diag(np.diag(jam))) < 1e-12


@pytest.mark.parametrize("kind", ["kraus", "jamiolkowski"])
def test_apply_keeps_a_small_kraus_operator_at_a_tight_tol(capsys, tmp_path, kind):
    ch_path = tmp_path / "ch.json"
    gram_path = tmp_path / "ones.json"
    (write_channel if kind == "kraus" else write_jamiolkowski_channel)(ch_path, small_flip_channel())
    write_matrix(gram_path, np.ones((4, 4)))
    assert main(["apply", str(ch_path), str(gram_path), "--tol", "1e-13"]) == 0


def test_apply_holds_a_read_channel_to_tp_once(capsys, tmp_path):
    # Tr_1 J is off by 0.75 tol, so sum K†K is off by 1.5 tol: within the
    # d * tol the Jamiolkowski reader allows, and not measured again.
    jam = jamiolkowski(random_channel(2, 2, seed=3))
    jam[0, 0] += 7.5e-7
    ch_path = tmp_path / "jam.json"
    ch_path.write_text(json.dumps({"kind": "jamiolkowski", "dim": 2, "matrix": matrix_to_obj(jam)}))
    gram_path = tmp_path / "ones.json"
    write_matrix(gram_path, np.ones((4, 4)))
    assert main(["apply", str(ch_path), str(gram_path), "--tol", "1e-6"]) == 0


def test_apply_random_channel_cmax_residual(capsys, tmp_path, cmax_file):
    ch_path = tmp_path / "ch.json"
    write_channel(ch_path, random_channel(2, 3, seed=9))
    code, report = run_json(capsys, "apply", ch_path, cmax_file)
    assert code == 0
    res = next(d for d in report["details"] if "classical action" in d["check"])
    assert res["value"] <= 1e-9


def test_verify_realization_pass_writes_gram(capsys, realization_files, tmp_path, cmax_file):
    enc, dec, tau = realization_files
    out = tmp_path / "gram.json"
    code, report = run_json(capsys, "verify-realization", enc, dec, tau, "--out", out)
    assert code == 0
    assert report["verdict"] == "pass"
    assert max_abs(read_matrix(out) - read_matrix(cmax_file)) < 1e-9


def test_verify_realization_identity(capsys, tmp_path):
    enc = tmp_path / "enc.json"
    tau = tmp_path / "tau.json"
    out = tmp_path / "gram.json"
    write_bipartite(enc, identity_bipartite(2, 2))
    write_matrix(tau, np.eye(2) / 2)
    code, _ = run(capsys, "verify-realization", enc, enc, tau, "--out", out)
    assert code == 0
    assert max_abs(read_matrix(out) - np.ones((4, 4))) < 1e-12


def test_verify_realization_hadamard_encoder_fails(capsys, realization_files, tmp_path):
    _, dec, tau = realization_files
    from dephkit.superchannels import bipartite_channel

    bad_enc = tmp_path / "bad_enc.json"
    write_bipartite(bad_enc, bipartite_channel([kron(HADAMARD, np.eye(4))], (2, 4, 2, 4)))
    code, report = run_json(capsys, "verify-realization", bad_enc, dec, tau)
    assert code == 1
    enc_check = next(d for d in report["details"] if "encoder-dephasing" in d["check"])
    assert enc_check["value"] > enc_check["threshold"]


def test_gram_from_unitaries(capsys, tmp_path, cmax_families):
    pre, post = cmax_families
    fam = tmp_path / "fam.json"
    out = tmp_path / "gram.json"
    write_family_pair(fam, pre, post)
    code, _ = run(capsys, "gram-from-unitaries", fam, "--out", out)
    assert code == 0
    assert max_abs(read_matrix(out) - CMAX) < 1e-12



def lines_pass(report):
    """Whether every detail line with a threshold meets it."""
    return all(det["value"] <= det["threshold"] for det in report["details"] if det["threshold"] is not None)


@pytest.mark.parametrize("tol,code", [(None, 0), ("0", 1)])
def test_gram_from_unitaries_verdict_follows_its_measurements(capsys, tmp_path, tol, code):
    # At --tol 0 the rounding of QR unitaries and of their overlaps is a defect.
    fam = tmp_path / "fam.json"
    write_family_pair(fam, random_controlled_family(2, 1), random_controlled_family(2, 2))
    got, report = run_json(capsys, "gram-from-unitaries", fam, *(("--tol", tol) if tol else ()))
    assert got == code
    assert report["verdict"] == ("pass" if code == 0 else "fail")
    assert lines_pass(report) == (code == 0)


@pytest.mark.parametrize("tol", ["0", "1e-9"])
def test_gram_verdicts_agree_with_their_lines(capsys, tmp_path, realization_files, cmax_families, tol):
    enc, dec, tau = realization_files
    fam = tmp_path / "fam.json"
    write_family_pair(fam, *cmax_families)
    noisy = tmp_path / "noisy.json"
    write_matrix(noisy, random_super_gram(2, 3).mat)
    for argv in (
        ("gram-validate", noisy),
        ("gram-validate", bundled_data_path("nmr_gram.json")),
        ("gram-from-unitaries", fam),
        ("gram-from-simulation", enc, dec, tau),
    ):
        code, report = run_json(capsys, *argv, "--tol", tol)
        assert report["verdict"] == ("pass" if code == 0 else "fail")
        assert lines_pass(report) == (code == 0), argv


def _contract_argv(tmp_path, cmax_file, realization_files, cmax_families):
    """argv of one passing and, where the command can fail, one failing run of each subcommand."""
    enc, dec, tau = realization_files
    names = ("bad-gram", "product", "fam", "qr-fam", "hadamard", "channel")
    paths = {name: tmp_path / f"{name}.json" for name in names}
    bad = np.eye(4, dtype=complex)
    bad[0, 0] = 1.5
    write_matrix(paths["bad-gram"], bad)
    c = np.array([[1, 0.5], [0.5, 1]], dtype=complex)
    write_matrix(paths["product"], kron(c, c))
    write_family_pair(paths["fam"], *cmax_families)
    write_family_pair(paths["qr-fam"], random_controlled_family(2, 1), random_controlled_family(2, 2))
    write_bipartite(paths["hadamard"], bipartite_channel([kron(HADAMARD, np.eye(4))], (2, 4, 2, 4)))
    write_channel(paths["channel"], random_channel(2, 3, seed=9))
    return {
        "gram-validate-pass": ["gram-validate", cmax_file],
        "gram-validate-fail": ["gram-validate", paths["bad-gram"]],
        "gram-from-unitaries-pass": ["gram-from-unitaries", paths["fam"]],
        "gram-from-unitaries-fail": ["gram-from-unitaries", paths["qr-fam"], "--tol", "0"],
        "gram-from-simulation-pass": ["gram-from-simulation", enc, dec, tau],
        "gram-from-simulation-fail": ["gram-from-simulation", paths["hadamard"], dec, tau],
        "verify-realization-pass": ["verify-realization", enc, dec, tau],
        "verify-realization-fail": ["verify-realization", enc, paths["hadamard"], tau],
        "apply-pass": ["apply", paths["channel"], cmax_file],
        "memory-activity-value": ["memory-activity", cmax_file],
        "memory-decompose-pass": ["memory-decompose", paths["product"]],
        "ppt-value": ["ppt", cmax_file],
        "family-pass": ["family", "--alpha", "0.8", "--beta", "0.3", "--ppt", "--realize"],
        "family-fail": ["family", "--alpha", "0.8", "--beta", "0.3j", "--ppt", "--tol", "0"],
        "bloch-affine-pass": ["bloch-affine", paths["channel"]],
        "demo-nmr-value": ["demo-nmr"],
    }


CONTRACT_CASES = [
    "gram-validate-pass", "gram-validate-fail", "gram-from-unitaries-pass", "gram-from-unitaries-fail",
    "gram-from-simulation-pass", "gram-from-simulation-fail", "verify-realization-pass", "verify-realization-fail",
    "apply-pass", "memory-activity-value", "memory-decompose-pass", "ppt-value", "family-pass", "family-fail",
    "bloch-affine-pass", "demo-nmr-value",
]


@pytest.mark.parametrize("case", CONTRACT_CASES)
def test_exit_code_verdict_and_lines_agree(capsys, tmp_path, cmax_file, realization_files, cmax_families, case):
    # exit 1 <=> verdict "fail" <=> some line with a threshold has not value <= threshold
    argv = _contract_argv(tmp_path, cmax_file, realization_files, cmax_families)[case]
    code, report = run_json(capsys, *argv)
    failed = [d for d in report["details"] if d["threshold"] is not None and not d["value"] <= d["threshold"]]
    assert report["verdict"] == case.rsplit("-", 1)[1]
    assert (code == 1) == (report["verdict"] == "fail") == bool(failed), report
    assert code in (0, 1)
    assert all(set(d) == {"check", "value", "threshold", "detail"} for d in report["details"])


def test_decoder_check_names_its_worst_memory_index(capsys, tmp_path, realization_files):
    enc, _, tau = realization_files
    dec = tmp_path / "hadamard.json"
    write_bipartite(dec, bipartite_channel([kron(HADAMARD, np.eye(4))], (2, 4, 2, 4)))
    code, report = run_json(capsys, "verify-realization", enc, dec, tau)
    assert code == 1
    check = next(d for d in report["details"] if d["check"] == "decoder-dephasing")
    assert check["value"] > check["threshold"]
    assert check["detail"].startswith("worst conditional memory index m=")


def test_psd_line_shows_the_deviation_against_tol(capsys, cmax_file):
    code, report = run_json(capsys, "gram-validate", cmax_file, "--tol", "1e-6")
    psd = next(d for d in report["details"] if d["check"] == "psd")
    assert code == 0
    assert psd["threshold"] == 1e-6
    assert psd["value"] == pytest.approx(-np.linalg.eigvalsh(CMAX)[0], abs=1e-12)
    code, out = run(capsys, "gram-validate", cmax_file)
    assert "\n  unit-diagonal: " in out and "\n  psd: " in out


@pytest.mark.parametrize(
    "obj",
    [{"rows": 2.5, "cols": 2}, {"rows": True, "cols": 4}],
    ids=["fraction", "bool"],
)
def test_matrix_dimension_that_int_would_truncate_is_a_parse_error(capsys, tmp_path, obj):
    path = tmp_path / "dimensions.json"
    path.write_text(json.dumps({**obj, "data": [[1, 0], [0, 0], [0, 0], [1, 0]]}))
    _assert_parse_error(capsys, ["gram-validate", path])


def test_bipartite_dimension_that_int_would_truncate_is_a_parse_error(capsys, tmp_path):
    # read as sys_in = 2, the 4x4 identity passes as a realization and exits 0
    ident, tau = tmp_path / "ident.json", tmp_path / "tau.json"
    write_bipartite(ident, bipartite_channel([np.eye(4)], (2, 2, 2, 2)))
    write_matrix(tau, np.diag([1.0, 0.0]))
    enc = tmp_path / "enc.json"
    enc.write_text(json.dumps({**json.loads(ident.read_text()), "sys_in": 2.7}))
    _assert_parse_error(capsys, ["verify-realization", enc, ident, tau])


def test_simulation_reads_encoders_at_the_tol_flag(capsys, realization_files, tmp_path):
    enc, dec, tau = realization_files
    dented = tmp_path / "dented.json"
    kraus = [k * np.sqrt(1 + 1e-7) for k in read_bipartite(enc).inner.kraus]
    write_bipartite(dented, bipartite_channel(kraus, (2, 4, 2, 4), tol=1e-6))
    for command in ("gram-from-simulation", "verify-realization"):
        assert main([command, str(dented), str(dec), str(tau), "--tol", "1e-3"]) == 0
        capsys.readouterr()
        assert main([command, str(dented), str(dec), str(tau)]) == 1
        assert "sum K†K deviates from identity by 1.000e-07" in capsys.readouterr().err


def test_tagged_jamiolkowski_file_that_is_not_hermitian_is_refused(capsys, tmp_path):
    # a skew defect of 0.2, which the psd factorization alone would hermitize and accept
    jam = jamiolkowski(random_channel(2, 2, seed=3))
    jam[0, 1] += 0.1
    jam[1, 0] -= 0.1
    path = tmp_path / "skew.json"
    path.write_text(json.dumps({"kind": "jamiolkowski", "dim": 2, "matrix": matrix_to_obj(jam)}))
    assert main(["bloch-affine", str(path)]) == 1
    assert "hermitian is 2.000e-01" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("tol,code", [("1e-12", 2), ("1e-3", 0)])
def test_untagged_jamiolkowski_audit_follows_the_tol_flag(capsys, tmp_path, tol, code):
    gram = tmp_path / "ones.json"
    write_matrix(gram, np.ones((4, 4)))
    jam = jamiolkowski(random_channel(2, 2, seed=3))
    for defect in (5e-8, 5e-7):  # on either side of a former 1e-7 floor
        dented = jam.copy()
        dented[0, 0] += defect  # moves Tr_1 J off I/2 by the defect
        path = tmp_path / f"jam_{defect}.json"
        write_matrix(path, dented)
        assert main(["apply", str(path), str(gram), "--tol", tol]) == code

def test_gram_from_simulation_roundtrip(capsys, realization_files, tmp_path):
    enc, dec, tau = realization_files
    out = tmp_path / "gram.json"
    code, _ = run(capsys, "gram-from-simulation", enc, dec, tau, "--out", out)
    assert code == 0
    assert max_abs(read_matrix(out) - CMAX) < 1e-9


def test_gram_from_simulation_rejects_non_dephasing(capsys, realization_files, tmp_path):
    enc, dec, tau = realization_files
    from dephkit.superchannels import bipartite_channel

    bad = tmp_path / "bad.json"
    write_bipartite(bad, bipartite_channel([kron(HADAMARD, np.eye(4))], (2, 4, 2, 4)))
    code, report = run_json(capsys, "gram-from-simulation", bad, dec, tau)
    assert code == 1
    assert report["verdict"] == "fail"


def test_audit_only_reject_names_its_check(capsys, tmp_path):
    paths = [tmp_path / f"{name}.json" for name in ("enc", "dec", "tau")]
    enc, dec, tau = audit_only_triple(3e-5)
    write_bipartite(paths[0], enc)
    write_bipartite(paths[1], dec)
    write_matrix(paths[2], tau)
    code, report = run_json(capsys, "gram-from-simulation", *paths)
    assert code == 1
    assert report["verdict"] == "fail"
    assert [d["check"] for d in report["details"]] == ["simulation-mismatch"]
    code, report = run_json(capsys, "verify-realization", *paths)
    assert code == 1
    assert report["verdict"] == "fail"
    mismatch = report["details"][-1]
    assert mismatch["check"] == "simulation-mismatch"
    assert mismatch["value"] > mismatch["threshold"]


def test_memory_decompose(capsys, tmp_path):
    c1 = np.array([[1, 0.5], [0.5, 1]], dtype=complex)
    c2 = np.array([[1, -0.3j], [0.3j, 1]], dtype=complex)
    path = tmp_path / "prod.json"
    out = tmp_path / "dec.json"
    write_matrix(path, kron(c1, c2))
    code, report = run_json(capsys, "memory-decompose", path, "--out", out, "--tol", "1e-12")
    assert code == 0
    residual = next(d for d in report["details"] if "reconstruction residual" in d["check"])
    assert residual["threshold"] == 1e-12
    assert residual["value"] <= 1e-12
    obj = json.loads(out.read_text())
    recon = np.zeros((4, 4), dtype=complex)
    for term in obj["terms"]:
        c1m = np.array([complex(a, b) for a, b in term["c1"]["data"]]).reshape(2, 2)
        c2m = np.array([complex(a, b) for a, b in term["c2"]["data"]]).reshape(2, 2)
        recon += term["weight"] * np.kron(c1m, c2m)
    assert len(obj["terms"]) <= 8
    assert max_abs(recon - kron(c1, c2)) <= 1e-12


def test_memory_decompose_certifies_a_boundary_mixture(capsys, tmp_path):
    # (C(0) ⊗ C(0) + C(1) ⊗ C(2)) / 2 mixes two extreme points of the passive set.
    def circle(a):
        return np.array([[1, np.exp(-1j * a)], [np.exp(1j * a), 1]])

    path = tmp_path / "boundary.json"
    write_matrix(path, (kron(circle(0), circle(0)) + kron(circle(1), circle(2))) / 2)
    code, report = run_json(capsys, "memory-decompose", path, "--tol", "1e-12")
    assert code == 0
    assert next(d for d in report["details"] if d["check"] == "term count")["value"] == 2


def test_memory_decompose_rejects_active(capsys, cmax_file):
    assert main(["memory-decompose", str(cmax_file)]) == 1


def test_memory_decompose_certificate_rereads_to_its_terms(capsys, tmp_path):
    path = tmp_path / "eye.json"
    out = tmp_path / "certificate.json"
    write_matrix(path, np.eye(4))
    assert main(["memory-decompose", str(path), "--out", str(out)]) == 0
    dec = decompose_product_qubit(validate_super_gram(np.eye(4), 2))
    text = out.read_text()
    assert text.endswith("}\n")
    obj = json.loads(text)
    assert obj["residual"] == dec.residual
    assert [t["weight"] for t in obj["terms"]] == [t.weight for t in dec.terms]
    for term, t in zip(obj["terms"], dec.terms, strict=True):
        assert np.array_equal(matrix_from_obj(term["c1"]), t.c1)
        assert np.array_equal(matrix_from_obj(term["c2"]), t.c2)


def test_ppt_command(capsys, tmp_path):
    path = tmp_path / "family.json"
    assert main(["family", "--alpha", "1", "--beta", "1", "--out", str(path)]) == 0
    capsys.readouterr()
    code, report = run_json(capsys, "ppt", path)
    assert code == 0
    assert abs(report["value"] - (1 - np.sqrt(2))) < 1e-9
    code, report = run_json(capsys, "ppt", path, "--dims", "3", "3")
    assert abs(report["value"] - (1 - np.sqrt(2))) < 1e-9


@pytest.mark.parametrize("defect,tol,code", [(1e-6, "1e-3", 0), (1e-8, "1e-12", 1)])
def test_ppt_checks_hermiticity_at_the_tol_flag(capsys, tmp_path, defect, tol, code):
    mat = np.eye(4, dtype=complex)
    mat[0, 1] = defect  # deviates from Hermitian by exactly the defect
    path = tmp_path / "skewed.json"
    write_matrix(path, mat)
    assert main(["ppt", str(path), "--tol", tol]) == code
    assert ("Hermitian" in capsys.readouterr().err) == (code == 1)


def test_bloch_affine_command(capsys, tmp_path):
    path = tmp_path / "flip.json"
    out = tmp_path / "affine.json"
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    write_channel(path, unitary_channel(sx))
    code, report = run_json(capsys, "bloch-affine", path, "--out", out)
    assert code == 0
    lam = next(d for d in report["details"] if "distortion matrix" in d["check"])["value"]
    assert lam == [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]]
    obj = json.loads(out.read_text())
    assert obj["t"] == [0.0, 0.0, 0.0]


def test_bloch_affine_contraction_is_judged_at_the_callers_tol(capsys, tmp_path):
    # sqrt(1 + 5e-7) I is a channel at tol 1e-6 whose distortion is (1 + 5e-7) I:
    # a contraction at that tol, not at the default 1e-9.
    path = tmp_path / "dented.json"
    write_channel(path, channel_from_kraus([np.sqrt(1 + 5e-7) * np.eye(2)], tol=1e-6))
    code, report = run_json(capsys, "bloch-affine", path, "--tol", "1e-6")
    assert code == 0
    assert {d["check"]: d["value"] for d in report["details"]}["distortion is a contraction"] is True


def test_demo_nmr(capsys, tmp_path):
    out = tmp_path / "nmr.json"
    code, report = run_json(capsys, "demo-nmr", "--out", out)
    assert code == 0
    assert abs(report["value"] - 0.625) < 5e-4
    assert np.array_equal(read_matrix(out), read_matrix(bundled_data_path("nmr_gram.json")))


def test_commands_are_deterministic(capsys, cmax_file, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "memory-activity", cmax_file, "--out", out1)
    run(capsys, "memory-activity", cmax_file, "--out", out2)
    assert out1.read_bytes() == out2.read_bytes()


def test_env_tol_override(capsys, tmp_path, monkeypatch):
    # a slightly dented diagonal passes once DEPHKIT_TOL is loosened
    mat = np.ones((4, 4), dtype=complex)
    np.fill_diagonal(mat, 1 + 5e-7)
    path = tmp_path / "dented.json"
    write_matrix(path, mat)
    assert main(["gram-validate", str(path)]) == 1
    capsys.readouterr()
    monkeypatch.setenv("DEPHKIT_TOL", "1e-5")
    assert main(["gram-validate", str(path)]) == 0


@pytest.mark.parametrize(
    "tau,says",
    [
        (np.array([[0.5, 0.1], [-0.1, 0.5]]), "deviation from Hermitian is"),
        (0.6 * np.eye(2), "trace deviates from 1 by"),
        (np.diag([2.0, -1.0]), "smallest eigenvalue lies below 0 by"),
    ],
    ids=["hermitian", "unit-trace", "psd"],
)
@pytest.mark.parametrize("command", ["gram-from-simulation", "verify-realization"])
def test_memory_state_that_is_not_a_state_is_a_domain_error(capsys, tmp_path, command, tau, says):
    # The library checks tau; the CLI only reads it, and reports the refusal in one line.
    ident, tau_path = tmp_path / "ident.json", tmp_path / "tau.json"
    write_bipartite(ident, identity_bipartite(2, 2))
    write_matrix(tau_path, tau)
    assert main([command, str(ident), str(ident), str(tau_path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: memory state: {says} ") and err.count("\n") == 1, err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["abc", "nan", "-1", "inf"])
@pytest.mark.parametrize("source", ["flag", "env"])
def test_bad_tolerance_is_a_parse_error(capsys, monkeypatch, source, value):
    argv = ["gram-validate", str(bundled_data_path("nmr_gram.json"))]
    if source == "flag":
        argv += ["--tol", value]
    else:
        monkeypatch.setenv("DEPHKIT_TOL", value)
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert "error:" in capsys.readouterr().err


# The files each file-reading subcommand takes, in argument order, named for the fixtures below.
CONTRACT_FILES = {
    "gram-validate": ("gram",),
    "gram-from-unitaries": ("family",),
    "gram-from-simulation": ("enc", "dec", "tau"),
    "apply": ("kraus-channel", "gram"),
    "verify-realization": ("enc", "dec", "tau"),
    "memory-activity": ("gram",),
    "memory-decompose": ("product",),
    "ppt": ("gram",),
    "bloch-affine": ("jamiolkowski-channel",),
}
DIMENSION_FIELDS = {"rows", "cols", "dim_in", "dim_out", "dim", "d", "sys_in", "mem_in", "sys_out", "mem_out"}


@pytest.fixture(scope="module")
def contract_files(tmp_path_factory):
    """A directory of valid fixtures, and each fixture as a JSON object."""
    root = tmp_path_factory.mktemp("contract")
    pre = controlled_unitary_family([np.eye(4), permutation(4, 0, 1)])
    post = controlled_unitary_family([np.eye(4), permutation(4, 1, 2)])
    write_matrix(root / "gram.json", CMAX)
    write_matrix(root / "product.json", np.eye(4))
    write_matrix(root / "tau.json", np.diag([1.0, 0, 0, 0]))
    write_family_pair(root / "family.json", pre, post)
    write_bipartite(root / "enc.json", controlled_unitary_channel(pre))
    write_bipartite(root / "dec.json", controlled_unitary_channel(post))
    write_channel(root / "kraus-channel.json", random_channel(2, 3, seed=9))
    write_jamiolkowski_channel(root / "jamiolkowski-channel.json", random_channel(2, 2, seed=4))
    names = {name for files in CONTRACT_FILES.values() for name in files}
    return root, {name: json.loads((root / f"{name}.json").read_text()) for name in names}


def _fields(obj, path=()):
    """The path of every field of a JSON object, through nested objects and lists of objects."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield path + (key,)
            yield from _fields(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            if isinstance(value, dict):
                yield from _fields(value, path + (i,))


def _mutations(key, value):
    """(new value, whether it breaks the wire schema) for one field; a null kind makes a file untagged."""
    options = [(junk, junk is not None or key != "kind") for junk in (None, True, "x", [], 2.5, -1, 1e308)]
    if key == "data":
        options += [(value[:-1], True), (value + value[:1], True), ([[True, False]] + value[1:], True)]
    if key == "kraus":
        options.append(([], True))
    if key in DIMENSION_FIELDS:
        options.append((value + 1, True))
    return options


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_cli_contract_holds_on_mutated_files(contract_files, data):
    root, objs = contract_files
    command = data.draw(st.sampled_from(sorted(CONTRACT_FILES)))
    names = CONTRACT_FILES[command]
    target = data.draw(st.integers(0, len(names) - 1))
    obj = copy.deepcopy(objs[names[target]])
    whole = [()] if "rows" in obj else []  # () replaces a whole matrix file
    path = data.draw(st.sampled_from(list(_fields(obj)) + whole))
    if path:
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        value, breaks_schema = data.draw(st.sampled_from(_mutations(path[-1], parent[path[-1]])))
        parent[path[-1]] = value
    else:
        # A square side that is not d^2 for any d >= 2 is a shape fault of a Gram
        # matrix file; a memory state of the wrong side only disagrees with its encoder.
        value = data.draw(st.sampled_from([0, 3, 5]))
        obj, breaks_schema = matrix_to_obj(np.eye(value)), names[target] != "tau"
    (root / "mutated.json").write_text(json.dumps(obj))
    files = [root / ("mutated.json" if i == target else f"{name}.json") for i, name in enumerate(names)]
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([command, *map(str, files), "--json"])  # an exception escaping main fails the test
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code != 0:
        one_error_line = out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert one_error_line or (code == 1 and json.loads(out)["verdict"] == "fail"), (code, out, err)
    if breaks_schema:
        assert code == 2, (path, value, err)


def _source_env():
    """The environment of a fresh interpreter that imports dephkit from this source tree."""
    src = Path(dephkit.__file__).resolve().parent.parent
    return {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}


def test_closed_stdout_is_an_io_error_without_a_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the report's first write meets a pipe nobody reads
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "dephkit.cli", "demo-nmr", "--json"],
            stdout=write_end, stderr=subprocess.PIPE, env=_source_env(), text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


def _scipy_loaded_after(code):
    """Run code in a fresh interpreter on this source tree; whether scipy was imported."""
    probe = f"import sys; {code}; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], env=_source_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip() == "True"


def test_cli_import_leaves_scipy_unloaded():
    assert not _scipy_loaded_after("import dephkit.cli")


def test_certificate_leaves_scipy_unloaded():
    assert not _scipy_loaded_after(
        "from dephkit import decompose_product_qubit, nearest_passive_qubit, random_super_gram; "
        "decompose_product_qubit(nearest_passive_qubit(random_super_gram(2, 0)))"
    )
