import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qsm import ki, locc, numerics
from qsm.errors import ValidationError
from qsm.split import build_split_protocol
from qsm.statespace import catalog

from helpers import materialized_majorization, partial_trace, random_unitary
from test_cli import _child_env


RNG = np.random.default_rng(20260823)


def test_tolerance_is_fixed():
    assert numerics.tolerance() == 1e-9


_TAU = 1e-9
# Each level of the tolerance table as the code spelled it before the table
# named it: a product on tau, or a literal.
_LEVELS = {
    "TIE": 10 * _TAU,
    "MATCH": 10 * _TAU,
    "SPECTRUM_DROP": 10 * _TAU,
    "BLOCK_DROP": 100 * _TAU,
    "FIDELITY_LOSS": 10 * _TAU,
    "ISOMETRY_SLACK": 10 * _TAU,
    "KI_SLACK": 1e3 * _TAU,
    "CEIL_SLACK": 100 * _TAU,
    "BRANCH_DROP": _TAU,
    "SCHMIDT_DROP": _TAU,
    "MASS_SLACK": _TAU,
    "PARALLEL_DROP": _TAU,
    "NORM_SLACK": 1e-6,
    "BOUND_SLACK": 1e-6,
    "COST_SLACK": 1e-9,
    "COST_TIE": 1e-12,
    "WEIGHT_SLACK": 1e-12,
    "RATIONAL_WIDENING": 1e-12,
    "CUT_FILTER": 1e-12,
    "POLAR_SLACK": 1e-6,
    "PHASE_ANCHOR": 1e-7,
    "COMPLEMENT_DROP": 1e-7,
    "CHANNEL_SLACK": 1e-8,
    "ALIGNMENT_SLACK": 1e-7,
}


def test_tolerance_table_keeps_every_level_bit_for_bit():
    """The table holds exactly these levels, each equal (``==``) to the
    product or literal the code compared with before: 100 tau and 1e3 tau
    are not the literals 1e-7 and 1e-6."""
    table = {
        name: value for name, value in vars(numerics).items()
        if name.isupper() and isinstance(value, float)
    }
    assert sorted(table) == sorted(_LEVELS)
    for name, value in _LEVELS.items():
        assert table[name] == value, name
    assert numerics.BLOCK_DROP == 1.0000000000000001e-07 != 1e-7
    assert numerics.KI_SLACK == 1.0000000000000002e-06 != 1e-6


@pytest.mark.parametrize("rise", [0.0, 0.5, 0.99, 1.5, 3.0])
def test_flatten_schedule_ties_as_canonical_eigh_does(rise):
    """Two masses that rise by ``rise`` TIE are taken as sorted by
    ``flatten_schedule`` exactly when ``canonical_eigh`` orders them as a tie
    (by their eigenvectors, so the rising pair keeps its basis order)."""
    rising = [0.3, 0.3 + rise * numerics.TIE]
    vals, _ = numerics.canonical_eigh(np.diag(rising))
    tied = vals.tolist() == rising
    try:
        locc.flatten_schedule(rising, 1)
        sorted_ = True
    except ValidationError:
        sorted_ = False
    assert tied == sorted_ == (rise <= 1.0)


def test_generator_witness_screens_with_the_proportional_cuts():
    """The batched screen of ``_generator_witness`` passes a compressed
    steered state exactly where ``_proportional`` calls it proportional to
    the reference, on both sides of its trace cut and of its deviation cut."""
    ref = np.diag([0.6, 0.4]).astype(complex)
    direction = np.diag([1.0, -1.0]).astype(complex)  # traceless
    space = np.eye(2, dtype=complex).reshape(2, 2, 1)  # compressions are the generators
    verdicts = {}
    for trace in (0.5 * numerics.BLOCK_DROP, 2.0 * numerics.BLOCK_DROP, 1.0):
        for dev in (0.5, 2.0):
            rho = trace * (ref + dev * numerics.MATCH * direction)
            proportional = ki._proportional(rho, ref)
            assert (ki._generator_witness(space, rho[None], ref) is None) == proportional
            verdicts[trace, dev] = proportional
    assert [key for key, ok in verdicts.items() if not ok] == [
        (2.0 * numerics.BLOCK_DROP, 2.0), (1.0, 2.0)
    ]


def test_rational_widening_does_not_exceed_the_flattening_cut_filter():
    """``rational_upper_approx`` widens its window down by no more than
    ``flatten_schedule`` filters its cuts; today the two are equal."""
    assert numerics.RATIONAL_WIDENING <= numerics.CUT_FILTER
    assert numerics.RATIONAL_WIDENING == numerics.CUT_FILTER


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
    vals, vecs = numerics.canonical_eigh(h)
    assert np.all(np.diff(vals) <= 1e-12)
    assert np.allclose(vecs @ np.diag(vals) @ vecs.conj().T, h)
    # deterministic under permutation-invariant recomputation
    vals2, vecs2 = numerics.canonical_eigh(h.copy())
    assert np.allclose(vals, vals2) and np.allclose(vecs, vecs2)


def test_canonical_eigh_degenerate_stable():
    # identity has fully degenerate spectrum; canonical order gives identity basis
    vals, vecs = numerics.canonical_eigh(np.eye(4, dtype=complex))
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
    # squared-overlap convention for pure states, as the KI check computes it
    def fidelity(u, v):
        return abs(np.vdot(u, v)) ** 2

    assert abs(fidelity(a, b) - 0.5) < 1e-12
    assert abs(fidelity(a, a) - 1.0) < 1e-12


def test_majorization_check():
    assert numerics.majorization_check([0.5, 0.5], 1, [0.7, 0.3], 1)
    assert not numerics.majorization_check([0.7, 0.3], 1, [0.5, 0.5], 1)
    # padding with zeros / different lengths
    assert numerics.majorization_check([0.25] * 4, 1, [0.5, 0.5, 0.0], 1)
    # unequal totals fail
    assert not numerics.majorization_check([0.5, 0.4], 1, [0.5, 0.5], 1)
    # uniform blocks: (0.5, 0.5) (x) 1/2 is the uniform 4-vector, more mixed than (0.7, 0.3)
    assert numerics.majorization_check([0.5, 0.5], 2, [0.7, 0.3], 1)
    assert not numerics.majorization_check([0.7, 0.3], 1, [0.5, 0.5], 2)
    # unsorted input is sorted first
    assert numerics.majorization_check([0.3, 0.7], 3, [0.2, 0.8], 2)


COPY_COUNTS = (1, 2, 3, 4, 5, 7, 12, 64, 511, 4096)


def _random_spectrum(rng, n, zeros):
    v = rng.dirichlet(np.full(n, 0.5))
    if zeros:
        v[n - zeros :] = 0.0
        v /= v.sum()
    return rng.permutation(v)


def test_majorization_check_matches_materialized_oracle():
    """Uniform-block check against sorting and padding the repeated vectors,
    on seeded spectra with zero tails, unequal lengths and copy counts 1..4096."""
    rng = np.random.default_rng(404)
    outcomes = set()
    for _ in range(300):
        n_x, n_y = (int(n) for n in rng.integers(1, 13, size=2))
        x = _random_spectrum(rng, n_x, int(rng.integers(0, n_x)))
        y = _random_spectrum(rng, n_y, int(rng.integers(0, n_y)))
        k, l = (int(c) for c in rng.choice(COPY_COUNTS, size=2))
        got = numerics.majorization_check(x, k, y, l)
        expected = materialized_majorization(np.repeat(x / k, k), np.repeat(y / l, l), 1e-9)
        assert got == expected, (x, k, y, l)
        outcomes.add(got)
    assert outcomes == {True, False}


@pytest.mark.parametrize("x_copies", COPY_COUNTS)
def test_majorization_check_exact_ties_on_uniform_spectra(x_copies):
    """GHZ-like uniform spectra: 1_n/n (x) 1_K/K is majorized by 1_m/m (x) 1_L/L
    exactly when n K >= m L, and at n K = m L the prefix sums meet everywhere."""
    for n in (1, 2, 3, 4, 6, 12):
        x = np.full(n, 1.0 / n)
        for m in (1, 2, 3, 4, 6, 8, 12):
            y = np.concatenate((np.full(m, 1.0 / m), np.zeros(3)))
            for l in {1, 2, 3, x_copies, max(1, n * x_copies // m), n * x_copies // m + 1}:
                got = numerics.majorization_check(x, x_copies, y, l)
                oracle = materialized_majorization(
                    np.repeat(x / x_copies, x_copies), np.repeat(y / l, l), 1e-9
                )
                assert got == oracle == (n * x_copies >= m * l), (n, x_copies, m, l)


def test_isometry_deviation():
    u = random_unitary(RNG, 4)
    assert float(numerics.isometry_deviations(u)) <= 1e-9
    assert float(numerics.isometry_deviations(u[:, :2])) <= 1e-9
    assert not float(numerics.isometry_deviations(u[:2, :])) <= 1e-9  # wide, not an isometry
    assert float(numerics.isometry_deviations(2.0 * np.eye(3))) == pytest.approx(3.0)
    assert float(numerics.isometry_deviations(2 * np.eye(3, dtype=int))) == 3.0
    m = u.copy()
    m[0, 0] = np.nan
    assert not float(numerics.isometry_deviations(m)) <= 1e-9


def _dense_deviation(m):
    """``isometry_deviations`` of one matrix as the plain formula: one Gram, a dense identity."""
    return float(np.max(np.abs(numerics.dagger(m) @ m - np.eye(m.shape[1]))))


def _split_stack():
    """The 1440 x 1440 sender stack of the implication2 split protocol."""
    protocol = build_split_protocol(catalog("implication2"))
    return protocol.a_ops.reshape(-1, protocol.a_in_dim)


def _deviation_cases():
    """The implication2 split stack, seeded isometries whose deviation is a
    few ulps (so it moves with any Gram entry), tall and wide non-isometries."""
    rng = np.random.default_rng(61)

    def gaussian(rows, cols):
        return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))

    cases = [_split_stack()]
    shapes = [(40, 9), (90, 33), (160, 71), (300, 130), (400, 257), (520, 300), (720, 513)]
    cases += [np.linalg.qr(gaussian(*shape))[0] for shape in shapes]
    cases += [gaussian(40, 7), gaussian(100, 30), gaussian(3, 8)]  # last one wide
    return cases


def test_isometry_deviation_matches_dense_formula():
    """Same float bits as the dense formula, and NaN stays NaN."""
    for m in _deviation_cases():
        assert float(numerics.isometry_deviations(m)) == _dense_deviation(m), m.shape
    m = random_unitary(np.random.default_rng(53), 6)
    m[2, -1] = np.nan
    assert math.isnan(numerics.isometry_deviations(m))
    assert math.isnan(_dense_deviation(m))


def test_isometry_deviation_keeps_one_gram_live():
    """The traced peak is the input's conjugate copy and the one Gram, with
    no identity or difference matrix beside them."""
    m = _split_stack()
    n = m.shape[1]
    tracemalloc.start()
    try:
        numerics.isometry_deviations(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < m.nbytes + 16 * n * n + 2**20


_KERNEL_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
from test_numerics import _deviation_cases, _dense_deviation
from qsm.numerics import isometry_deviations
print(all(float(isometry_deviations(m)) == _dense_deviation(m) for m in _deviation_cases()))
"""


@pytest.mark.parametrize("coretype", [None, "Haswell", "Prescott"])
def test_isometry_deviation_matches_dense_formula_per_blas_kernel(coretype):
    """Bit equality with the dense formula under each OpenBLAS kernel, not
    only under the one this host's CPU selects: a Gram split into row or
    column chunks can match the one product on one kernel and not another."""
    env = _child_env()
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    child = subprocess.run(
        [sys.executable, "-c", _KERNEL_CHILD, str(Path(__file__).resolve().parent)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "True"


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
