import numpy as np
import pytest

from qsm import numerics
from qsm.errors import ValidationError

from helpers import partial_trace, random_unitary


RNG = np.random.default_rng(20260823)


def test_tolerance_default_and_env(monkeypatch):
    assert numerics.tolerance() == 1e-9
    monkeypatch.setenv("QSM_TOL", "1e-7")
    assert numerics.tolerance() == 1e-7
    monkeypatch.setenv("QSM_TOL", "nonsense")
    with pytest.raises(ValidationError):
        numerics.tolerance()
    monkeypatch.setenv("QSM_TOL", "2.0")
    with pytest.raises(ValidationError):
        numerics.tolerance()


def test_dagger():
    m = np.array([[1.0, 2j], [3.0, 4.0]])
    assert np.allclose(numerics.dagger(m), m.conj().T)


def test_phase_normalize():
    v = np.array([0.0, 1e-12, -0.5j, 0.5])
    w = numerics.phase_normalize(v)
    idx = np.argmax(np.abs(w) > 1e-7)
    assert w[idx].real > 0 and abs(w[idx].imag) < 1e-12
    assert np.allclose(np.abs(w), np.abs(v))


def test_canonical_eigh_descending_and_deterministic():
    h = RNG.normal(size=(5, 5)) + 1j * RNG.normal(size=(5, 5))
    h = h + h.conj().T
    vals, vecs = numerics.canonical_eigh(h, 1e-9)
    assert np.all(np.diff(vals) <= 1e-12)
    assert np.allclose(vecs @ np.diag(vals) @ vecs.conj().T, h)
    # deterministic under permutation-invariant recomputation
    vals2, vecs2 = numerics.canonical_eigh(h.copy(), 1e-9)
    assert np.allclose(vals, vals2) and np.allclose(vecs, vecs2)


def test_canonical_eigh_degenerate_stable():
    # identity has fully degenerate spectrum; canonical order gives identity basis
    vals, vecs = numerics.canonical_eigh(np.eye(4, dtype=complex), 1e-9)
    assert np.allclose(vals, 1.0)
    assert np.allclose(np.abs(vecs), np.eye(4))


def test_schmidt_decompose_roundtrip():
    v = RNG.normal(size=12) + 1j * RNG.normal(size=12)
    v /= np.linalg.norm(v)
    sd = numerics.schmidt_decompose(v, 3)
    assert np.allclose((sd.left * sd.coeffs) @ sd.right.T, v.reshape(3, 4))
    assert np.all(np.diff(sd.coeffs) <= 1e-12)
    assert sd.rank() == 3
    # left vectors phase-normalized
    for k in range(sd.rank()):
        col = sd.left[:, k]
        lead = col[np.argmax(np.abs(col) > 1e-7)]
        assert lead.real > 0 and abs(lead.imag) < 1e-9


def test_schmidt_product_state_rank_one():
    a = np.array([1.0, 1.0]) / np.sqrt(2.0)
    b = np.array([1.0, 0.0, 0.0])
    sd = numerics.schmidt_decompose(np.kron(a, b), 2)
    assert sd.rank() == 1
    assert abs(sd.coeffs[0] - 1.0) < 1e-12


def test_partial_trace():
    v = RNG.normal(size=(2, 3, 2)) + 1j * RNG.normal(size=(2, 3, 2))
    v /= np.linalg.norm(v)
    rho = np.outer(v.reshape(-1), v.reshape(-1).conj())
    r1 = partial_trace(rho, (2, 3, 2), keep=(0,))
    mat = v.reshape(2, 6)
    assert np.allclose(r1, mat @ mat.conj().T)
    r23 = partial_trace(rho, (2, 3, 2), keep=(1, 2))
    mat2 = v.reshape(2, 6)
    assert np.allclose(r23, mat2.T @ mat2.conj())
    assert abs(np.trace(r23) - 1.0) < 1e-12


def test_fidelity_conventions():
    a = np.array([1.0, 0.0])
    b = np.array([1.0, 1.0]) / np.sqrt(2.0)
    # squared-overlap convention for pure states
    assert abs(numerics.fidelity(a, b) - 0.5) < 1e-12
    assert abs(numerics.fidelity(a, a) - 1.0) < 1e-12


def test_majorization_check():
    assert numerics.majorization_check([0.5, 0.5], [0.7, 0.3], 1e-9)
    assert not numerics.majorization_check([0.7, 0.3], [0.5, 0.5], 1e-9)
    # padding with zeros / different lengths
    assert numerics.majorization_check([0.25] * 4, [0.5, 0.5, 0.0], 1e-9)
    # unequal totals fail
    assert not numerics.majorization_check([0.5, 0.4], [0.5, 0.5], 1e-9)


def test_isometry_deviation():
    u = random_unitary(RNG, 4)
    assert numerics.isometry_deviation(u) <= 1e-9
    assert numerics.isometry_deviation(u[:, :2]) <= 1e-9
    assert not numerics.isometry_deviation(u[:2, :]) <= 1e-9  # wide, not an isometry
    assert numerics.isometry_deviation(2.0 * np.eye(3)) == pytest.approx(3.0)
    m = u.copy()
    m[0, 0] = np.nan
    assert not numerics.isometry_deviation(m) <= 1e-9


def test_orthonormal_complement():
    u = random_unitary(RNG, 5)
    cols = u[:, :2]
    comp = numerics.orthonormal_complement(cols, 5)
    assert comp.shape == (5, 3)
    full = np.hstack([cols, comp])
    assert np.allclose(full.conj().T @ full, np.eye(5))
    # empty input -> identity basis
    comp0 = numerics.orthonormal_complement(np.zeros((3, 0), dtype=complex), 3)
    assert np.allclose(comp0, np.eye(3))


def test_random_unitary_deterministic_seed():
    u1 = random_unitary(np.random.default_rng(7), 3)
    u2 = random_unitary(np.random.default_rng(7), 3)
    assert np.allclose(u1, u2)
    assert np.allclose(u1 @ u1.conj().T, np.eye(3))
