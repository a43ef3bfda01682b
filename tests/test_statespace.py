import json

import numpy as np
import pytest

from qsm import statespace
from qsm.errors import ValidationError

from helpers import partial_trace, sample_schmidt_span_member, swap_ab


def test_registers_validation():
    r = statespace.Registers(3, 12, 12, factors_A=(3, 2, 2))
    assert r.factors_A == (3, 2, 2)
    with pytest.raises(ValidationError):
        statespace.Registers(2, 4, 4, factors_A=(3, 2))
    with pytest.raises(ValidationError):
        statespace.Registers(0, 2, 2)


def test_state_normalization_enforced():
    amps = np.zeros((2, 2, 2), dtype=complex)
    amps[0, 0, 0] = 2.0
    with pytest.raises(ValidationError):
        statespace.TripartiteState(statespace.Registers(2, 2, 2), amps)
    amps[0, 0, 0] = np.nan
    with pytest.raises(ValidationError):
        statespace.TripartiteState(statespace.Registers(2, 2, 2), amps)
    amps[0, 0, 0] = 1.0 + 5e-7  # within tolerance; renormalized exactly
    st = statespace.TripartiteState(statespace.Registers(2, 2, 2), amps)
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
    assert st.regs.factors_A == (3, 2)
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
    assert st.regs.factors_A == (3, 2, 2)
    assert abs(np.linalg.norm(st.vector) - 1.0) < 1e-12
    # R marginal uniform
    assert np.allclose(st.marginal("R"), np.eye(3) / 3)


def test_save_load_roundtrip(tmp_path):
    st = statespace.random_state(np.random.default_rng(11), (2, 3, 4), name="rand")
    path = tmp_path / "state.json"
    statespace.save_state(st, path)
    st2 = statespace.load_state(path)
    assert st2.name == "rand"
    assert st2.dims == st.dims
    assert np.allclose(st2.amplitudes, st.amplitudes, atol=1e-15)


def test_save_load_factors(tmp_path):
    st = statespace.catalog("appendixD")
    path = tmp_path / "appd.json"
    statespace.save_state(st, path)
    st2 = statespace.load_state(path)
    assert st2.regs.factors_A == (3, 2)
    assert np.allclose(st2.amplitudes, st.amplitudes)


def test_load_rejects_bad_files(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json")
    with pytest.raises(ValidationError):
        statespace.load_state(path)
    path.write_text(json.dumps({"version": 2}))
    with pytest.raises(ValidationError):
        statespace.load_state(path)
    # out-of-range index
    doc = {"version": 1, "dims": {"R": 2, "A": 2, "B": 2}, "amps": [[0, 0, 5, 1.0, 0.0]]}
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError):
        statespace.load_state(path)
    # duplicate index
    doc["amps"] = [[0, 0, 0, 0.8, 0.0], [0, 0, 0, 0.6, 0.0]]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError):
        statespace.load_state(path)
    # bad norm
    doc["amps"] = [[0, 0, 0, 0.5, 0.0]]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError):
        statespace.load_state(path)


def test_swap_ab():
    st = statespace.catalog("implication4_psi")
    sw = swap_ab(st)
    assert np.allclose(sw.marginal("A"), st.marginal("B"))
    assert np.allclose(sw.marginal("B"), st.marginal("A"))
    assert sw.name.endswith("_swapped")


def test_max_entangled_counterpart():
    st = statespace.catalog("implication3")
    me = statespace.max_entangled_counterpart(st)
    assert np.allclose(me.marginal("R"), np.eye(2) / 2)
    # idempotent
    me2 = statespace.max_entangled_counterpart(me)
    assert np.allclose(np.abs(me2.overlap(me)), 1.0)
    # rank preserved
    assert statespace.schmidt_rank_r(me) == statespace.schmidt_rank_r(st)


def test_max_entangled_counterpart_rank_deficient():
    # product across R|AB: counterpart is the state itself up to phase
    amps = np.zeros((2, 2, 2), dtype=complex)
    amps[0, 1, 1] = 1.0
    st = statespace.TripartiteState(statespace.Registers(2, 2, 2), amps)
    me = statespace.max_entangled_counterpart(st)
    assert statespace.schmidt_rank_r(me) == 1
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
