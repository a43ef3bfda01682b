import hashlib
import json
import re

import numpy as np
import pytest

from qsm import statespace
from qsm.errors import ValidationError

from helpers import (
    max_entangled_counterpart,
    partial_trace,
    sample_schmidt_span_member,
    schmidt_rank_r,
    swap_ab,
)


@pytest.mark.parametrize("shape", [(2, 4), (2, 2, 2, 2), (0, 2, 2), (2, 2, 0)],
                         ids=["two-axes", "four-axes", "empty-R", "empty-B"])
def test_state_requires_three_nonempty_axes(shape):
    amps = np.zeros(shape, dtype=complex)
    amps.reshape(-1)[:1] = 1.0
    with pytest.raises(ValidationError, match="three non-empty axes"):
        statespace.TripartiteState(amps)


def test_state_normalization_enforced():
    amps = np.zeros((2, 2, 2), dtype=complex)
    amps[0, 0, 0] = 2.0
    with pytest.raises(ValidationError):
        statespace.TripartiteState(amps)
    amps[0, 0, 0] = np.nan
    with pytest.raises(ValidationError):
        statespace.TripartiteState(amps)
    amps[0, 0, 0] = 1.0 + 5e-7  # within tolerance; renormalized exactly
    st = statespace.TripartiteState(amps)
    assert abs(np.linalg.norm(st.vector) - 1.0) < 1e-15


def test_marginals_consistent():
    st = statespace.random_state(np.random.default_rng(5), (2, 3, 2))
    rho = np.outer(st.vector, st.vector.conj())
    for which, keep in [("R", (0,)), ("A", (1,)), ("B", (2,)), ("RA", (0, 1)), ("AB", (1, 2)), ("RB", (0, 2))]:
        assert np.allclose(st.marginal(which), partial_trace(rho, st.dims, keep))
    assert abs(np.trace(st.marginal("A")) - 1.0) < 1e-12


def test_catalog_ghz():
    g = statespace.catalog("ghz", 3)
    assert g.dims == (3, 3, 3)
    assert abs(g.amplitudes[1, 1, 1] - 1 / np.sqrt(3.0)) < 1e-15
    assert np.allclose(g.marginal("A"), np.eye(3) / 3)
    with pytest.raises(ValidationError):
        statespace.catalog("ghz")


@pytest.mark.parametrize("d", [2.5, 2.0, True, "3"], ids=["fraction", "integral-float", "bool", "string"])
def test_catalog_ghz_rejects_non_integer_dimension(d):
    with pytest.raises(ValidationError, match=re.escape(f"got {d!r}")):
        statespace.catalog("ghz", d=d)
    assert statespace.catalog("ghz", d=np.int64(2)).dims == (2, 2, 2)


def test_catalog_names_all_buildable():
    for name in statespace.CATALOG_NAMES:
        st = statespace.catalog(name, 2) if name == "ghz" else statespace.catalog(name)
        assert abs(np.linalg.norm(st.vector) - 1.0) < 1e-12
        assert st.name


def test_catalog_implication3_marginals():
    st = statespace.catalog("implication3")
    # B marginal diag(3/4, 1/4)
    assert np.allclose(st.marginal("B"), np.diag([0.75, 0.25]))
    assert np.allclose(st.marginal("R"), np.eye(2) / 2)


def test_catalog_implication4_pair():
    psi = statespace.catalog("implication4_psi")
    prime = statespace.catalog("implication4_psi_prime")
    assert np.allclose(psi.marginal("R"), np.eye(2) / 2)
    assert np.allclose(prime.marginal("R"), np.eye(2) / 2)
    assert np.allclose(prime.marginal("B"), np.eye(2) / 2)
    assert np.allclose(psi.marginal("B"), np.array([[0.75, 0.25], [0.25, 0.25]]))
    # the two differ by swapping which of A/B carries the |+> tilt
    assert np.allclose(psi.amplitudes, prime.amplitudes.transpose(0, 2, 1))


def test_catalog_appendix_d():
    st = statespace.catalog("appendixD")
    assert st.dims == (3, 6, 3)
    # A-marginal diagonal with weights (1/8,1/8,1/8,1/8,1/2,0)
    diag = np.diag(st.marginal("A")).real
    assert np.allclose(diag, [0.125, 0.125, 0.125, 0.125, 0.5, 0.0])


def test_catalog_qutrit_choi():
    st = statespace.catalog("qutrit_choi")
    # uniform marginals on all three registers
    for which in ("R", "A", "B"):
        assert np.allclose(st.marginal(which), np.eye(3) / 3)


def test_catalog_implication2():
    st = statespace.catalog("implication2")
    assert st.dims == (3, 12, 12)
    assert abs(np.linalg.norm(st.vector) - 1.0) < 1e-12
    # R marginal uniform
    assert np.allclose(st.marginal("R"), np.eye(3) / 3)


# sha256 of ``catalog(name, d).amplitudes.tobytes()``: every catalog state is
# pinned to the last bit, so a rewrite of a builder cannot move a report
CATALOG_SHA256 = {
    ("ghz", 2): "3cee3b9253ca8b64ae69d1e8018a0ec8ca3f408493969d8bc184fe94bf44749d",
    ("ghz", 3): "51df412ff5d35ef8584751bf63c0ebd778cf99db265b7c075c5bce56e1ee3880",
    ("ghz", 4): "b8c6309dc9b04191d8cd8159fbc2c3479a7e60a69e59a6d8cc8859e1c1fd19c4",
    ("implication2", None): "a34fff969cf08f946cfe8f2f2c75132c98fad269178b462664540d764e00782c",
    ("implication3", None): "a6287d0643a3bc26017279a4c6e7f2817df3505115eebb9b3206bf329e2a6523",
    ("implication4_psi", None): "ca211f4c898599a496bb0e79a4cd3d47c12e6bb578f8c831d2f65b16c3e23958",
    ("implication4_psi_prime", None): "b8aa65e480fe8c33b33efa363738a2c0bd8f345020092d8d7ef967fc10a46c44",
    ("appendixD", None): "506703e74c0ade1657bb4ff5186645029c310678be8fed49c85bb40cf0461ad7",
    ("qutrit_choi", None): "467ed55fcb0b44cfca0b92fb570897ff6b8228d2fd2dbab8c04fce3b31a87619",
}


def test_catalog_amplitudes_are_pinned_bit_for_bit():
    assert {name for name, _ in CATALOG_SHA256} == set(statespace.CATALOG_NAMES)
    for (name, d), digest in CATALOG_SHA256.items():
        amplitudes = statespace.catalog(name, d=d).amplitudes
        assert hashlib.sha256(amplitudes.tobytes()).hexdigest() == digest, (name, d)


def test_save_load_roundtrip(tmp_path):
    st = statespace.random_state(np.random.default_rng(11), (2, 3, 4), name="rand")
    path = tmp_path / "state.json"
    statespace.save_state(st, path)
    st2 = statespace.load_state(path)
    assert st2.name == "rand"
    assert st2.dims == st.dims
    assert np.allclose(st2.amplitudes, st.amplitudes, atol=1e-15)


@pytest.mark.parametrize("name, d", list(CATALOG_SHA256))
def test_save_load_catalog_bit_for_bit(tmp_path, name, d):
    st = statespace.catalog(name, d=d)
    path = tmp_path / "state.json"
    statespace.save_state(st, path)
    st2 = statespace.load_state(path)
    assert st2.dims == st.dims
    assert st2.name == st.name
    # the file holds the amplitudes exactly and loading normalizes them once
    # more; that second division moves the last bit of states whose norm
    # after construction is 1 + 2**-52 (implication2, 3 and 4)
    renormalized = statespace.TripartiteState(st.amplitudes)
    assert st2.amplitudes.tobytes() == renormalized.amplitudes.tobytes()


def test_load_ignores_legacy_factor_keys(tmp_path):
    st = statespace.catalog("appendixD")
    path = tmp_path / "appd.json"
    statespace.save_state(st, path)
    doc = json.loads(path.read_text())
    assert "factorsA" not in doc and "factorsB" not in doc
    for factors in ([3, 2], "not a list"):
        doc["factorsA"] = factors
        doc["factorsB"] = [7]
        path.write_text(json.dumps(doc))
        st2 = statespace.load_state(path)
        assert st2.dims == (3, 6, 3)
        assert st2.amplitudes.tobytes() == st.amplitudes.tobytes()


@pytest.mark.parametrize("dims", [(True, 2, 2), (2.0, 2, 2), (2, -1, 2)],
                         ids=["bool", "float", "negative"])
def test_random_state_rejects_bad_dims(dims):
    with pytest.raises(ValidationError, match=re.escape(f"dims must be integers >= 1, got {dims!r}")):
        statespace.random_state(np.random.default_rng(0), dims)


def test_load_rejects_bad_files(tmp_path):
    path = tmp_path / "bad.json"
    for text in (b"not json", b'{"version": 2, "name": "\xff"}', b"[" + b"1" * 5000 + b"]"):
        path.write_bytes(text)  # not JSON, not UTF-8, an integer beyond the digit limit
        with pytest.raises(ValidationError, match="cannot read state file"):
            statespace.load_state(path)
    path.write_text(json.dumps({"version": 2}))
    with pytest.raises(ValidationError, match="field amplitudes must be an object"):
        statespace.load_state(path)
    # a version-1 file: dims block and sparse index rows
    doc = {"version": 1, "dims": {"R": 2, "A": 2, "B": 2}, "amps": [[0, 0, 0, 1.0, 0.0]]}
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="found version 1"):
        statespace.load_state(path)
    # bad norm: the constructor's check
    amps = np.zeros((2, 2, 2))
    amps[0, 0, 0] = 0.5
    path.write_text(json.dumps({"version": 2, "amplitudes": statespace.encode_complex(amps)}))
    with pytest.raises(ValidationError, match="state norm 0.5 deviates from 1"):
        statespace.load_state(path)
    # an integer too large for a float
    amps = statespace.encode_complex(np.ones((1, 1, 1)))
    amps["real"][0][0][0] = 10**400
    path.write_text(json.dumps({"version": 2, "amplitudes": amps}))
    with pytest.raises(ValidationError, match="amplitudes.real must be"):
        statespace.load_state(path)


@pytest.mark.parametrize("name", [None, 5, ["x"], {"x": 1}], ids=["null", "int", "list", "object"])
def test_load_rejects_a_name_that_is_not_a_string(tmp_path, name):
    path = tmp_path / "state.json"
    statespace.save_state(statespace.catalog("ghz", d=2), path)
    doc = json.loads(path.read_text())
    doc["name"] = name
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match=re.escape(f"field name must be a string, got {json.dumps(name)}")):
        statespace.load_state(path)


def test_load_without_a_name_gives_the_empty_name(tmp_path):
    path = tmp_path / "state.json"
    statespace.save_state(statespace.random_state(np.random.default_rng(3), (2, 2, 3)), path)
    assert "name" not in json.loads(path.read_text())
    assert statespace.load_state(path).name == ""


def test_swap_ab():
    st = statespace.catalog("implication4_psi")
    sw = swap_ab(st)
    assert np.allclose(sw.marginal("A"), st.marginal("B"))
    assert np.allclose(sw.marginal("B"), st.marginal("A"))
    assert sw.name.endswith("_swapped")


def test_max_entangled_counterpart():
    st = statespace.catalog("implication3")
    me = max_entangled_counterpart(st)
    assert np.allclose(me.marginal("R"), np.eye(2) / 2)
    # idempotent
    me2 = max_entangled_counterpart(me)
    assert np.allclose(np.abs(me2.overlap(me)), 1.0)
    # rank preserved
    assert schmidt_rank_r(me) == schmidt_rank_r(st)


def test_max_entangled_counterpart_rank_deficient():
    # product across R|AB: counterpart is the state itself up to phase
    amps = np.zeros((2, 2, 2), dtype=complex)
    amps[0, 1, 1] = 1.0
    st = statespace.TripartiteState(amps)
    me = max_entangled_counterpart(st)
    assert schmidt_rank_r(me) == 1
    assert abs(abs(me.overlap(st)) - 1.0) < 1e-12


def test_sample_schmidt_span_member():
    st = statespace.catalog("implication3")
    rng = np.random.default_rng(3)
    v = sample_schmidt_span_member(st, rng)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12
    # member lies in span of the AB Schmidt vectors: projecting onto the
    # AB-support of the R-steered states leaves it unchanged
    mat = st.amplitudes.reshape(st.dims[0], -1)
    q, _ = np.linalg.qr(mat.conj().T.astype(complex))
    proj = q @ q.conj().T
    assert np.allclose(proj @ v, v)
