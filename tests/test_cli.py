import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dephkit
from conftest import CMAX, audit_only_triple
from dephkit import (
    identity_channel,
    jamiolkowski,
    kron,
    random_channel,
    random_controlled_family,
    random_super_gram,
    unitary_channel,
)
from dephkit.cli import main
from dephkit.io import (
    bundled_data_path,
    read_bipartite,
    read_matrix,
    write_bipartite,
    write_channel,
    write_family_pair,
    write_matrix,
)
from dephkit.linalg import basis_vector, max_abs
from dephkit.superchannels import bipartite_channel, controlled_unitary_channel

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
    diag = next(d for d in report["details"] if "unit diagonal" in d["check"])
    assert diag["value"] > diag["threshold"]


def test_parse_error_exit_code(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    assert main(["gram-validate", str(path)]) == 2


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


@pytest.mark.parametrize("tol,code", [(None, 0), ("2e-16", 1)])
def test_family_checks_its_unitaries_at_the_tol_flag(capsys, tol, code):
    # The completed unitaries of the realization are unitary to 4.4e-16.
    argv = ["family", "--alpha", "0.8", "--beta", "0.5j", "--realize", *(("--tol", tol) if tol else ())]
    assert main(argv) == code
    assert ("deviation from unitarity" in capsys.readouterr().err) == (code == 1)


def test_family_out_of_disk(capsys):
    assert main(["family", "--alpha", "2", "--beta", "0"]) == 1


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
    from dephkit.superchannels import identity_bipartite

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
    """Whether every detail line with a threshold meets it; the eigenvalue line is held from below."""
    return all(
        det["value"] >= det["threshold"] if "smallest eigenvalue" in det["check"] else det["value"] <= det["threshold"]
        for det in report["details"]
        if det["threshold"] is not None
    )


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
    assert [d["check"] for d in report["details"]] == ["violated realization condition: simulation-mismatch"]
    code, report = run_json(capsys, "verify-realization", *paths)
    assert code == 1
    assert report["verdict"] == "fail"
    mismatch = report["details"][-1]
    assert mismatch["check"] == "realization condition: simulation-mismatch"
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
    assert len(obj["terms"]) <= 9
    assert max_abs(recon - kron(c1, c2)) <= 1e-12


def test_memory_decompose_rejects_active(capsys, cmax_file):
    assert main(["memory-decompose", str(cmax_file)]) == 1


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


def test_cli_import_leaves_scipy_unloaded():
    src = Path(dephkit.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    probe = "import sys, dephkit.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
