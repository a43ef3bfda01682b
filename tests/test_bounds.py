"""Tests for the converse bounds and the certified max-entropy solver."""

import math
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import qsm.bounds
import qsm.cli as cli
from qsm.bounds import (
    SearchReport,
    _spectrum as _search_spectrum,
    _uniform_spectator_form,
    compare_bounds,
    converse_search,
    converse_simple,
    h_max_conditional,
    qutrit_counterexample_report,
)
from qsm.errors import SolverError, ValidationError
from qsm.ki import ki_decompose
from qsm.merge import achievable_cost
from qsm.statespace import (
    CATALOG_NAMES,
    TripartiteState,
    catalog,
    random_state,
    save_state,
)

from helpers import max_entangled_counterpart, uniform_resource_majorization
from test_cli import _child_env

LOG2_3_HALVES = math.log2(1.5)
# reference optima from an independent high-accuracy solver run
H_MAX_IMPLICATION3 = 0.5431066063
H_MAX_RANDOM_222_SEED42 = [0.5528993882, 0.3062781564, 0.2152305010]
H_TOL = 2e-6


def _spectrum(mat):
    return np.clip(np.linalg.eigvalsh(mat)[::-1], 0.0, None)


def _b_decoupled_state():
    """|mu>^B tensor Bell^{RA} with a non-uniform receiver vector."""
    amps = np.zeros((2, 2, 2), dtype=complex)
    mu = np.array([0.6, 0.8])
    for i in range(2):
        amps[i, i, :] = mu / np.sqrt(2.0)
    return TripartiteState(amps)


# --------------------------------------------------------------------------
# closed-form bound


def test_simple_implication3():
    vals = converse_simple(catalog("implication3"))
    assert vals["catalytic"] == pytest.approx(LOG2_3_HALVES, abs=1e-12)
    assert vals["noncatalytic"] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_simple_ghz(d):
    vals = converse_simple(catalog("ghz", d=d))
    assert abs(vals["catalytic"]) <= 1e-9
    assert abs(vals["noncatalytic"]) <= 1e-9


def test_simple_qutrit_choi():
    vals = converse_simple(catalog("qutrit_choi"))
    assert abs(vals["catalytic"]) <= 1e-9
    assert abs(vals["noncatalytic"]) <= 1e-9


def test_simple_substitutes_skewed_spectator():
    rng = np.random.default_rng(5)
    state = random_state(rng, (2, 3, 2))
    counterpart = max_entangled_counterpart(state)
    assert converse_simple(state) == converse_simple(counterpart)
    lam0 = float(_spectrum(counterpart.marginal("B"))[0])
    expected = math.log2(lam0 * 2)
    assert converse_simple(state)["catalytic"] == pytest.approx(expected, abs=1e-12)


# --------------------------------------------------------------------------
# grid search bound


def test_search_implication3():
    report = converse_search(catalog("implication3"))
    assert report.catalytic_bits == pytest.approx(LOG2_3_HALVES, abs=1e-9)
    assert (report.catalytic_K, report.catalytic_L) == (3, 2)
    assert report.noncatalytic_bits == pytest.approx(1.0, abs=1e-12)
    assert report.noncatalytic_K == 2
    assert report.analytic_bits == pytest.approx(LOG2_3_HALVES, abs=1e-9)


def test_search_ghz2():
    report = converse_search(catalog("ghz", d=2))
    assert report.catalytic_bits == 0.0
    assert (report.catalytic_K, report.catalytic_L) == (1, 1)
    assert report.noncatalytic_bits == 0.0
    assert report.noncatalytic_K == 1


def test_search_b_decoupled():
    report = converse_search(_b_decoupled_state())
    assert report.catalytic_bits == pytest.approx(1.0, abs=1e-12)
    assert (report.catalytic_K, report.catalytic_L) == (2, 1)
    assert report.noncatalytic_bits == pytest.approx(1.0, abs=1e-12)


def test_search_caps_recorded_and_validated():
    report = converse_search(catalog("ghz", d=2), K_max=5, L_max=7)
    assert (report.K_max, report.L_max) == (5, 7)
    with pytest.raises(ValidationError):
        converse_search(catalog("ghz", d=2), K_max=0)
    with pytest.raises(ValidationError):
        converse_search(catalog("ghz", d=2), L_max=0)


def test_search_uniform_refinement_monotone():
    # if (K, L) passes the spectra test then so does (c*K, L) for c >= 1
    rng = np.random.default_rng(11)
    for _ in range(5):
        state = random_state(rng, (2, 2, 3))
        eig_b = _spectrum(state.marginal("B"))
        eig_ab = _spectrum(state.marginal("AB"))
        for K in range(1, 7):
            for L in range(1, 5):
                if uniform_resource_majorization(eig_b, eig_ab, K, L):
                    for c in (2, 3):
                        assert uniform_resource_majorization(eig_b, eig_ab, c * K, L)


def test_search_below_achievable_on_corpus():
    cases = [
        ("appendixD", None),
        ("implication2", None),
        ("implication3", None),
        ("ghz", 2),
        ("ghz", 3),
        ("qutrit_choi", None),
    ]
    for name, d in cases:
        state = catalog(name, d=d)
        decomp = ki_decompose(state)
        search = converse_search(state, K_max=16, L_max=16)
        for mode, bits in (
            ("catalytic", search.catalytic_bits),
            ("noncatalytic", search.noncatalytic_bits),
        ):
            cost = achievable_cost(decomp, mode=mode).cost_bits
            assert bits <= cost + 1e-9, (name, mode, bits, cost)


def _grid_search(state, caps):
    """Brute-force oracle: test every (K, L) pair, then take each cap's minima.

    The minima are taken in the order of the original grid loop (K ascending,
    then L ascending, strict ``< best - 1e-12`` update), so ties keep the
    smallest K exactly as that loop did.
    """
    eig_b = _search_spectrum(state.marginal("B"))
    eig_ab = _search_spectrum(state.marginal("AB"))
    k_top = max(k for k, _ in caps)
    l_top = max(l for _, l in caps)
    passes = {
        (K, L): uniform_resource_majorization(eig_b, eig_ab, K, L)
        for K in range(1, k_top + 1)
        for L in range(1, l_top + 1)
    }
    lam0_ab = float(eig_ab[0])
    analytic = math.log2(float(eig_b[0]) / lam0_ab) if lam0_ab > 0 else math.inf
    reports = {}
    for K_max, L_max in caps:
        best_bits, best_pair = math.inf, (None, None)
        non_bits, non_k = math.inf, None
        for K in range(1, K_max + 1):
            if non_k is None and passes[K, 1]:
                non_bits, non_k = math.log2(K), K
            for L in range(1, L_max + 1):
                bits = math.log2(K) - math.log2(L)
                if passes[K, L] and bits < best_bits - 1e-12:
                    best_bits, best_pair = bits, (K, L)
        reports[K_max, L_max] = SearchReport(
            catalytic_bits=best_bits,
            catalytic_K=best_pair[0],
            catalytic_L=best_pair[1],
            noncatalytic_bits=non_bits,
            noncatalytic_K=non_k,
            analytic_bits=analytic,
            K_max=K_max,
            L_max=L_max,
        )
    return reports


def _search_oracle_states():
    states = [catalog(name, d=2 if name == "ghz" else None) for name in CATALOG_NAMES]
    states.append(catalog("ghz", d=3))
    rng = np.random.default_rng(2024)
    states.extend(random_state(rng, dims) for dims in ((2, 2, 2), (3, 3, 3), (2, 5, 3), (4, 4, 4)))
    forms = [_uniform_spectator_form(state) for state in states]
    return states + [form for form, _, applicable in forms if not applicable]


def test_search_staircase_equals_grid(monkeypatch):
    caps = [(64, 64), (8, 3), (1, 1), (5, 64), (64, 5)]
    calls = []
    check = qsm.bounds.majorization_check

    def counted(x, x_copies, y, y_copies):
        calls.append((x_copies, y_copies))
        return check(x, x_copies, y, y_copies)

    monkeypatch.setattr(qsm.bounds, "majorization_check", counted)
    for state in _search_oracle_states():
        expected = _grid_search(state, caps)
        for K_max, L_max in caps:
            calls.clear()
            report = converse_search(state, K_max=K_max, L_max=L_max)
            assert report == expected[K_max, L_max], (state.dims, K_max, L_max)
            assert 0 < len(calls) <= K_max + L_max


def test_search_at_the_cap_checks_spectra_only(monkeypatch):
    """implication2 at 4096 x 4096 finishes, and every test reads the two
    spectra and their copy counts, never a repeated vector."""
    state = catalog("implication2")
    d_b, d_ab = state.dims[2], state.dims[1] * state.dims[2]
    calls = []
    check = qsm.bounds.majorization_check

    def spy(x, x_copies, y, y_copies):
        calls.append((len(x), x_copies, len(y), y_copies))
        return check(x, x_copies, y, y_copies)

    monkeypatch.setattr(qsm.bounds, "majorization_check", spy)
    report = converse_search(state, K_max=4096, L_max=4096)
    assert 0 < len(calls) <= 2 * 4096
    assert all(nx == d_b and ny == d_ab for nx, _, ny, _ in calls)
    assert max(k for _, k, _, _ in calls) <= 4096 and max(l for *_, l in calls) <= 4096
    monkeypatch.undo()
    small = converse_search(state)
    assert report.analytic_bits - 1e-9 <= report.catalytic_bits <= small.catalytic_bits
    assert report.noncatalytic_K == small.noncatalytic_K


@pytest.mark.parametrize(
    "caps",
    [{"K_max": 2.5}, {"K_max": True}, {"L_max": 3.0}, {"L_max": np.float64(4)}, {"K_max": "8"}],
    ids=["K-float", "K-bool", "L-integral-float", "L-numpy-float", "K-string"],
)
def test_search_rejects_non_integer_caps(caps):
    with pytest.raises(ValidationError, match=re.escape(repr(next(iter(caps.values()))))):
        converse_search(catalog("ghz", d=2), **caps)
    converse_search(catalog("ghz", d=2), K_max=np.int64(3), L_max=np.int32(2))


# --------------------------------------------------------------------------
# conditional max-entropy solver


def test_hmax_implication3():
    h = h_max_conditional(catalog("implication3"))
    assert 0.54 < h < 0.5432
    assert h == pytest.approx(H_MAX_IMPLICATION3, abs=H_TOL)


def test_hmax_pure_product():
    amps = np.zeros((1, 2, 2))
    amps[0, 0, 0] = 1.0
    h = h_max_conditional(TripartiteState(amps))
    assert h == pytest.approx(0.0, abs=H_TOL)


@pytest.mark.parametrize("d", [2, 3])
def test_hmax_maximally_entangled(d):
    amps = (np.eye(d) / math.sqrt(d)).reshape(1, d, d)
    h = h_max_conditional(TripartiteState(amps))
    assert h == pytest.approx(-math.log2(d), abs=H_TOL)


def test_hmax_ghz2():
    assert h_max_conditional(catalog("ghz", d=2)) == pytest.approx(0.0, abs=H_TOL)


def test_hmax_frozen_random_values():
    rng = np.random.default_rng(42)
    for expected in H_MAX_RANDOM_222_SEED42:
        h = h_max_conditional(random_state(rng, (2, 2, 2)))
        assert h == pytest.approx(expected, abs=H_TOL)


def test_hmax_trivial_spectator_law():
    # rank-1 spectator: optimum is the top receiver eigenvalue
    rng = np.random.default_rng(13)
    for _ in range(4):
        state = random_state(rng, (1, 3, 3))
        expected = math.log2(float(_spectrum(state.marginal("B"))[0]))
        assert h_max_conditional(state) == pytest.approx(expected, abs=H_TOL)


def test_hmax_trivial_receiver_law():
    # rank-1 receiver: optimum reduces to the Renyi-1/2 entropy of psi^A
    rng = np.random.default_rng(17)
    for _ in range(4):
        state = random_state(rng, (3, 3, 1))
        lam = _spectrum(state.marginal("A"))
        expected = math.log2(float(np.sqrt(lam).sum() ** 2))
        assert h_max_conditional(state) == pytest.approx(expected, abs=H_TOL)


def test_hmax_dimension_cap():
    with pytest.raises(ValidationError):
        h_max_conditional(catalog("qutrit_choi"))


def test_hmax_stage_exhaustion_reports_last_interval(tmp_path, monkeypatch):
    solver = qsm.bounds._MinSpectralNormSolver
    monkeypatch.setattr(solver, "_certificate", lambda self, point: (1.0, 2.0))
    steps = []
    center = solver._center

    def counted(self, point, tau):
        out = center(self, point, tau)
        steps.append(out[1])
        return out

    monkeypatch.setattr(solver, "_center", counted)
    state = catalog("ghz", d=2)
    with pytest.raises(SolverError) as info:
        h_max_conditional(state)
    message = str(info.value)
    assert "exhausted its 18 stages" in message
    assert "last certified interval (1.0, 2.0)" in message
    assert f"log(hi/lo) = {math.log(2.0)!r} > target {math.log(2.0) * 9e-7!r}" in message
    assert len(steps) == 18 and all(0 <= k <= 60 for k in steps) and any(steps)
    table = [(k, 1.0, 2.0) for k in steps]
    assert message.endswith(f"; per stage (Newton steps, certified lo, hi): {table!r}")

    path = tmp_path / "ghz2.json"
    save_state(state, path)
    steps.clear()
    code, report = cli.run(["bounds", str(path)])
    assert code == 3
    assert report["error"] == message


def _dense_hermitian_basis(n):
    """Orthonormal (Frobenius) basis of n x n Hermitian matrices; diagonal first."""
    mats = []
    for i in range(n):
        e = np.zeros((n, n), dtype=complex)
        e[i, i] = 1.0
        mats.append(e)
    inv = 1.0 / math.sqrt(2.0)
    for i in range(n):
        for j in range(i + 1, n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = inv
            e[j, i] = inv
            mats.append(e)
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1j * inv
            e[j, i] = -1j * inv
            mats.append(e)
    return mats


class _DenseSolver(qsm.bounds._MinSpectralNormSolver):
    """The solver with dense coefficient tensors E_a, 1_R (x) E_a and -tr_A E_a.

    Its slacks are tensor contractions, its barrier factors all three, its
    Newton step forms every inverse and product S^-1 F_a afresh and in full,
    and each stage's certificate is computed from the slacks of x and fresh
    inverses, reusing nothing from the centering; the structured solver must
    match it bit for bit.
    """

    def __init__(self, psi, dims):
        super().__init__(psi, dims)
        dim_r, dim_a, dim_b = dims
        n, m = self.n, self.m
        f1 = np.zeros((m, n, n), dtype=complex)
        f2 = np.zeros((m, dim_r * n, dim_r * n), dtype=complex)
        f3 = np.zeros((m, dim_b, dim_b), dtype=complex)
        f3[0] = np.eye(dim_b)
        eye_r = np.eye(dim_r)
        for a, e in enumerate(_dense_hermitian_basis(n), start=1):
            f1[a] = e
            f2[a] = np.kron(eye_r, e)
            f3[a] = -qsm.bounds._trace_out_A(e, dim_a, dim_b)
        self.coeffs = [f1, f2, f3]
        self.consts = [
            np.zeros((n, n), dtype=complex),
            -np.outer(self.psi, self.psi.conj()),
            np.zeros((dim_b, dim_b), dtype=complex),
        ]

    def _slacks(self, x):
        out = []
        for const, coeff in zip(self.consts, self.coeffs):
            s = const + np.tensordot(x, coeff, axes=1)
            out.append((s + s.conj().T) / 2.0)
        return out

    @staticmethod
    def _barrier_value(slacks):
        total = 0.0
        for s in slacks:
            try:
                chol = np.linalg.cholesky(s)
            except np.linalg.LinAlgError:
                return math.inf
            total -= 2.0 * float(np.log(np.abs(chol.diagonal())).sum())
        return total

    def _center(self, point, tau):
        """Dense centering from the point's x alone; hands back x alone."""
        m = self.m
        x = point.x
        moves = 0
        for _ in range(60):
            slacks = self._slacks(x)
            grad = np.zeros(m)
            grad[0] = tau
            hess = np.zeros((m, m))
            for s, coeff in zip(slacks, self.coeffs):
                inv = np.linalg.inv(s)
                inv = (inv + inv.conj().T) / 2.0
                grad -= np.einsum("ij,aji->a", inv, coeff).real
                prods = np.einsum("ij,ajk->aik", inv, coeff)
                flat = prods.reshape(m, -1)
                flat_t = prods.transpose(0, 2, 1).reshape(m, -1)
                hess += (flat @ flat_t.T).real
            try:
                step = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError:
                ridge = 1e-12 * max(1.0, float(np.abs(np.diag(hess)).max()))
                step = np.linalg.solve(hess + ridge * np.eye(m), -grad)
            dec2 = float(-grad @ step)
            if not math.isfinite(dec2) or dec2 <= 1e-7:
                break
            phi0 = tau * x[0] + self._barrier_value(slacks)
            scale = 1.0
            moved = False
            for _ in range(50):
                trial = x + scale * step
                phi1 = tau * trial[0] + self._barrier_value(self._slacks(trial))
                if phi1 < phi0 - 1e-4 * scale * dec2 or phi1 < phi0:
                    x = trial
                    moved = True
                    break
                scale *= 0.5
            if not moved:
                break
            moves += 1
        return types.SimpleNamespace(x=x), moves

    def _certificate(self, point):
        """From scratch: fresh dense slacks of x and their fresh inverses."""
        dim_r, dim_a, dim_b = self.dims
        slacks = self._slacks(point.x)
        z = slacks[0]
        upper = float(np.linalg.eigvalsh(qsm.bounds._trace_out_A(z, dim_a, dim_b))[-1].real)
        s2_inv = np.linalg.inv(slacks[1])
        s3_inv = np.linalg.inv(slacks[2])
        s2_inv = (s2_inv + s2_inv.conj().T) / 2.0
        s3_inv = (s3_inv + s3_inv.conj().T) / 2.0
        trace3 = float(np.trace(s3_inv).real)
        y3 = s3_inv / trace3
        y2 = s2_inv / trace3
        reduced = qsm.bounds._trace_out_R(y2, dim_r, self.n)
        anchor = np.kron(np.eye(dim_a), y3)
        inv_chol = np.linalg.inv(np.linalg.cholesky(anchor))
        whitened = inv_chol @ reduced @ inv_chol.conj().T
        lam = float(np.linalg.eigvalsh((whitened + whitened.conj().T) / 2.0)[-1].real)
        beta = 1.0 if lam <= 1.0 else 1.0 / lam
        lower = beta * float(np.real(self.psi.conj() @ y2 @ self.psi))
        return lower, upper


def _oracle_state(name):
    if name == "ghz2":
        return catalog("ghz", d=2)
    shape = tuple(int(c) for c in name)
    return random_state(np.random.default_rng(sum(shape) * 101), shape)


@pytest.mark.parametrize("normal_form", [False, True], ids=["given", "normal-form"])
@pytest.mark.parametrize("name", ["222", "232", "224", "242", "422", "144", "223", "ghz2"])
def test_structured_solver_matches_dense_oracle_bit_for_bit(name, normal_form):
    state = _oracle_state(name)
    if normal_form:
        state, _, _ = _uniform_spectator_form(state)
    structured = qsm.bounds._MinSpectralNormSolver(state.vector, state.dims)
    dense = _DenseSolver(state.vector, state.dims)
    # the starting point of solve() (zero off-diagonal coordinates) and a generic one
    start = np.zeros(dense.m)
    start[0] = 3.0 * state.dims[1]
    start[1 : 1 + dense.n] = 1.5
    generic = np.random.default_rng(7).normal(size=dense.m)
    for x in (start, generic):
        for got, want in zip(structured._slacks(x), dense._slacks(x)):
            assert got.tobytes() == want.tobytes()  # signed zeros included
    got = structured.solve()
    want = dense.solve()
    assert [v.hex() for v in got] == [v.hex() for v in want]


def _start_point(solver, state):
    """The point ``solve()`` starts from."""
    x = np.zeros(solver.m)
    x[0] = 3.0 * state.dims[1]
    x[1 : 1 + solver.n] = 1.5
    return qsm.bounds._Point(solver, x)


@pytest.mark.parametrize("damping", [1.0, 1e3], ids=["converged", "step-cap"])
def test_center_hands_back_the_slacks_and_inverses_of_its_point(monkeypatch, damping):
    """The certificate reuses the slacks and inverses of the point _center
    returns, and the next stage its barrier and Newton system, so each must
    be the fresh one of that point, also when the 60-step cap ends a stage
    (forced here by shrinking every Newton step)."""
    solver_type = qsm.bounds._MinSpectralNormSolver
    newton = solver_type._newton_system

    def damped(self, invs):
        terms, hess = newton(self, invs)
        return terms, damping * hess

    monkeypatch.setattr(solver_type, "_newton_system", damped)
    state = _oracle_state("232")
    solver = solver_type(state.vector, state.dims)
    point, steps = solver._center(_start_point(solver, state), 1.0)
    assert (steps == 60) == (damping > 1.0)
    # bytes taken before the fresh point is formed, so no shared buffer hides a change
    got = [a.tobytes() for a in point.slacks + point.inverses + list(point.newton)]
    fresh = qsm.bounds._Point(solver, point.x.copy())
    assert point.barrier.hex() == fresh.barrier.hex()
    want = [a.tobytes() for a in fresh.slacks + fresh.inverses + list(fresh.newton)]
    assert len(got) == 8 and got == want


@pytest.mark.parametrize("name", ["222", "224", "422", "ghz2"])
def test_each_point_forms_its_newton_system_once(monkeypatch, name):
    """A stage starts from the Newton system the last one ended on, so a
    solve with no capped stage forms one per Newton step plus one."""
    solver_type = qsm.bounds._MinSpectralNormSolver
    formed, steps = [], []
    newton, center = solver_type._newton_system, solver_type._center

    def spy(self, invs):
        formed.append(len(steps))
        return newton(self, invs)

    def counted(self, point, tau):
        out = center(self, point, tau)
        steps.append(out[1])
        return out

    monkeypatch.setattr(solver_type, "_newton_system", spy)
    monkeypatch.setattr(solver_type, "_center", counted)
    state = _oracle_state(name)
    solver_type(state.vector, state.dims).solve()
    assert len(steps) > 1 and 60 not in steps
    assert len(formed) == sum(steps) + 1


def test_trial_stops_at_its_first_failing_slack():
    """An infeasible trial builds no slack after the first whose Cholesky
    fails: the later ones' inputs are taken away, so building one raises."""
    state = _oracle_state("232")
    cases = [
        (-0.1, ("minus_projector", "coeff_b"), []),  # Z not positive definite
        (0.1, ("coeff_b",), [0]),  # Z = 0.1 1 is, but 1_R (x) Z - |psi><psi| is not
    ]
    for diag, removed, kept in cases:
        solver = qsm.bounds._MinSpectralNormSolver(state.vector, state.dims)
        x = np.zeros(solver.m)
        x[0] = 3.0 * state.dims[1]
        x[1 : 1 + solver.n] = diag
        full = list(solver._slacks(x))
        for name in removed:
            setattr(solver, name, None)
        point = qsm.bounds._Point(solver, x)
        assert point.barrier == math.inf
        assert [s.tobytes() for s in point.slacks] == [full[k].tobytes() for k in kept]


def test_barrier_sums_the_three_slacks_in_order():
    """A feasible point's barrier is -2 sum log|diag chol| of Z, the lifted
    and the traced slack, added in that order, bit for bit."""
    for name in ("222", "232", "ghz2"):
        state = _oracle_state(name)
        solver = qsm.bounds._MinSpectralNormSolver(state.vector, state.dims)
        start = _start_point(solver, state)
        for point in (start, solver._center(start, 1.0)[0]):
            slacks = list(solver._slacks(point.x))
            total = 0.0
            for s in slacks:
                total -= 2.0 * float(np.log(np.abs(np.linalg.cholesky(s).diagonal())).sum())
            assert point.barrier.hex() == total.hex()
            assert [s.tobytes() for s in point.slacks] == [s.tobytes() for s in slacks]
            logdets = sum(np.linalg.slogdet(s)[1] for s in slacks)
            assert point.barrier == pytest.approx(-logdets, rel=1e-12, abs=1e-12)


_KERNEL_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
from test_bounds import _DenseSolver, _oracle_state
from qsm.bounds import _MinSpectralNormSolver
same = []
for name in ("222", "224", "422", "ghz2"):
    state = _oracle_state(name)
    got = _MinSpectralNormSolver(state.vector, state.dims).solve()
    want = _DenseSolver(state.vector, state.dims).solve()
    same.append([v.hex() for v in got] == [v.hex() for v in want])
print(all(same))
"""


@pytest.mark.parametrize("coretype", [None, "Haswell", "Prescott"])
def test_structured_solver_matches_dense_oracle_per_blas_kernel(coretype):
    """Bit equality of the certified interval with the dense oracle under
    each OpenBLAS kernel, not only under the one this host's CPU selects."""
    env = _child_env()
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    child = subprocess.run(
        [sys.executable, "-c", _KERNEL_CHILD, str(Path(__file__).resolve().parent)],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "True"


# --------------------------------------------------------------------------
# bound comparison


def test_compare_implication3():
    report = compare_bounds(catalog("implication3"))
    assert report.applicable
    assert report.gap >= 0.0417
    assert report.simple_catalytic >= report.h_max - 1e-6
    assert report.search.catalytic_bits == pytest.approx(report.simple_catalytic, abs=1e-9)
    assert report.simple_noncatalytic == pytest.approx(1.0, abs=1e-12)
    assert report.search.noncatalytic_bits == pytest.approx(1.0, abs=1e-12)


def test_compare_ghz2():
    report = compare_bounds(catalog("ghz", d=2))
    assert abs(report.simple_catalytic) <= 1e-9
    assert abs(report.h_max) <= H_TOL
    assert abs(report.search.catalytic_bits) <= 1e-9
    assert abs(report.gap) <= H_TOL


def test_compare_random_sweep():
    rng = np.random.default_rng(2026)
    min_gap = math.inf
    for _ in range(100):
        state = random_state(rng, (2, 2, 2))
        report = compare_bounds(state, K_max=8, L_max=8)
        assert report.simple_catalytic >= report.h_max - 1e-6
        assert report.search.catalytic_bits >= report.simple_catalytic - 1e-6
        min_gap = min(min_gap, report.gap)
    assert min_gap >= -1e-6


@pytest.mark.parametrize(
    "bound, state, applicable",
    [
        (converse_simple, random_state(np.random.default_rng(5), (2, 3, 2)), False),
        (compare_bounds, random_state(np.random.default_rng(5), (2, 3, 2)), False),
        (converse_simple, catalog("ghz", d=2), True),
        (compare_bounds, catalog("ghz", d=2), True),
    ],
    ids=["simple-skewed", "compare-skewed", "simple-ghz2", "compare-ghz2"],
)
def test_one_schmidt_decomposition_per_bounds_call(monkeypatch, bound, state, applicable):
    assert _uniform_spectator_form(state)[2] is applicable
    calls = []
    decompose = qsm.numerics.schmidt_decompose

    def spy(*args):
        calls.append(args)
        return decompose(*args)

    holders = [
        module
        for name, module in sorted(sys.modules.items())
        if name.startswith("qsm.") and name != "qsm.numerics"
        and getattr(module, "schmidt_decompose", None) is decompose
    ]
    assert holders
    for module in holders:
        monkeypatch.setattr(module, "schmidt_decompose", spy)
    bound(state)
    assert len(calls) == 1


def test_simple_dominates_hmax_via_feasible_point():
    # the witness behind the ordering: Z = D * psi^{AB} is feasible and has
    # spectral norm D * lambda0^B once the spectator marginal is uniform
    for name, d in (("implication3", None), ("ghz", 3), ("appendixD", None)):
        state = max_entangled_counterpart(catalog(name, d=d))
        dims = state.dims
        dim = int(round(1.0 / float(_spectrum(state.marginal("R"))[0])))
        z = dim * state.marginal("AB")
        psi = state.vector
        gap = np.kron(np.eye(dims[0]), z) - np.outer(psi, psi.conj())
        assert np.linalg.eigvalsh(gap).min() >= -1e-9


# --------------------------------------------------------------------------
# qutrit channel report


def test_qutrit_report_checks():
    report = qutrit_counterexample_report()
    assert report.spectator_uniform
    assert report.receiver_uniform
    assert report.channel_unital
    assert report.channel_trace_preserving
    assert report.channel_completely_positive
    assert report.state_matches_choi
    assert report.choi_rank == 3
    assert report.choi_trace == pytest.approx(3.0, abs=1e-9)
    top = np.sort(report.choi_eigenvalues)[::-1]
    assert np.allclose(top[:3], 1.0, atol=1e-9)
    assert np.allclose(top[3:], 0.0, atol=1e-9)
    assert abs(report.converse_catalytic_bits) <= 1e-9
    assert abs(report.converse_noncatalytic_bits) <= 1e-9
