import numpy as np
import pytest

from dephkit import (
    ValidationError,
    bipartite_channel,
    channel_from_kraus,
    jamiolkowski,
    random_channel,
    random_controlled_family,
    superop_from_kraus,
)
from dephkit.io import (
    FileFormatError,
    file_digest,
    matrix_from_obj,
    matrix_to_obj,
    read_bipartite,
    read_channel,
    read_family_pair,
    read_matrix,
    write_bipartite,
    write_channel,
    write_family_pair,
    write_matrix,
)
from dephkit.linalg import max_abs
from dephkit.superchannels import controlled_unitary_channel


def test_matrix_roundtrip_bit_identical(tmp_path):
    rng = np.random.default_rng(0)
    mat = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    path = tmp_path / "m.json"
    write_matrix(path, mat)
    back = read_matrix(path)
    assert back.dtype == complex
    assert np.array_equal(back, mat)  # exact, not approximate
    # writing the re-read matrix reproduces the file byte for byte
    path2 = tmp_path / "m2.json"
    write_matrix(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_matrix_obj_validation():
    with pytest.raises(FileFormatError):
        matrix_from_obj({"rows": 2, "cols": 2, "data": [[1, 0]]})
    with pytest.raises(FileFormatError):
        matrix_from_obj({"rows": 2, "data": []})
    with pytest.raises(FileFormatError):
        matrix_from_obj({"rows": 1, "cols": 1, "data": [[float("nan"), 0]]})
    obj = matrix_to_obj(np.eye(2))
    assert obj["rows"] == obj["cols"] == 2
    assert obj["data"][0] == [1.0, 0.0]


def test_read_matrix_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(FileFormatError):
        read_matrix(path)


def test_channel_kraus_roundtrip(tmp_path):
    ch = random_channel(2, 3, seed=1)
    path = tmp_path / "ch.json"
    write_channel(path, ch, kind="kraus")
    back = read_channel(path)
    assert max_abs(superop_from_kraus(back) - superop_from_kraus(ch)) < 1e-12


def test_channel_jamiolkowski_roundtrip(tmp_path):
    ch = random_channel(2, 2, seed=2)
    path = tmp_path / "ch.json"
    write_channel(path, ch, kind="jamiolkowski")
    back = read_channel(path)
    assert max_abs(jamiolkowski(back) - jamiolkowski(ch)) < 1e-9


def test_channel_kraus_tp_checked_at_the_callers_tol(tmp_path):
    ch = random_channel(2, 3, seed=1)
    path = tmp_path / "ch.json"
    dented = channel_from_kraus([k * (1 + 5e-8) for k in ch.kraus], trace_preserving=False)
    write_channel(path, dented, kind="kraus")
    read_channel(path, tol=1e-6)
    with pytest.raises(ValidationError) as err:
        read_channel(path)
    assert err.value.check == "trace-preserving"


def test_channel_untagged_matrix_audited(tmp_path):
    ch = random_channel(2, 2, seed=3)
    path = tmp_path / "bare.json"
    write_matrix(path, jamiolkowski(ch))  # bare matrix file, no kind tag
    back = read_channel(path)
    assert max_abs(jamiolkowski(back) - jamiolkowski(ch)) < 1e-9

    bad = tmp_path / "bad.json"
    write_matrix(bad, np.eye(4))  # fails the trace audit: Tr_1 != I/2
    with pytest.raises(FileFormatError):
        read_channel(bad)


def test_bipartite_roundtrip(tmp_path):
    fam = random_controlled_family(2, 4)
    bc = controlled_unitary_channel(fam)
    path = tmp_path / "enc.json"
    write_bipartite(path, bc)
    back = read_bipartite(path)
    assert (back.sys_in, back.mem_in, back.sys_out, back.mem_out) == (2, 4, 2, 4)
    assert max_abs(back.inner.kraus[0] - bc.inner.kraus[0]) == 0.0


def test_family_pair_roundtrip(tmp_path):
    pre = random_controlled_family(2, 5)
    post = random_controlled_family(2, 6)
    path = tmp_path / "fam.json"
    write_family_pair(path, pre, post)
    p2, q2 = read_family_pair(path)
    assert max_abs(p2.unitaries[1] - pre.unitaries[1]) == 0.0
    assert max_abs(q2.unitaries[0] - post.unitaries[0]) == 0.0



def test_bipartite_and_family_readers_check_at_the_callers_tol(tmp_path):
    bc = controlled_unitary_channel(random_controlled_family(2, 4))
    dented = bipartite_channel([k * np.sqrt(1 + 1e-7) for k in bc.inner.kraus], (2, 4, 2, 4), tol=1e-6)
    enc = tmp_path / "enc.json"
    write_bipartite(enc, dented)
    read_bipartite(enc, tol=1e-6)
    with pytest.raises(ValidationError) as err:
        read_bipartite(enc)
    assert err.value.check == "trace-preserving"
    assert err.value.value == pytest.approx(1e-7, rel=1e-6)

    fam = tmp_path / "fam.json"
    write_family_pair(fam, random_controlled_family(2, 5), random_controlled_family(2, 6))
    read_family_pair(fam)
    with pytest.raises(ValidationError) as err:
        read_family_pair(fam, tol=0.0)  # a QR unitary is unitary to rounding, not exactly
    assert err.value.check == "unitary"
    assert 0.0 < err.value.value < 1e-14

def test_file_digest_stable(tmp_path):
    path = tmp_path / "x.json"
    write_matrix(path, np.eye(2))
    assert file_digest(path) == file_digest(path)
    assert len(file_digest(path)) == 64
