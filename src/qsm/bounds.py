"""Lower bounds on the entanglement cost of exact merging.

Three bound families are provided, plus artifacts relating them:

* a closed-form bound ``log2(lambda0^B * D)`` from the largest receiver
  eigenvalue and the spectator rank (:func:`converse_simple`);
* an exact search over the capped grid of uniform-resource ranks ``(K, L)``
  for the cheapest pair passing a spectra majorization test, done as one
  staircase sweep because the pass set is monotone in both ranks
  (:func:`converse_search`);
* the conditional max-entropy, computed by a bespoke certified
  interior-point solver (:func:`h_max_conditional`).

:func:`compare_bounds` evaluates all three on one state and checks the
known ordering; :func:`qutrit_counterexample_report` builds the qutrit
channel whose closed-form bound vanishes even though merging its
purification is provably costly.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import SolverError, ValidationError, VerificationError
from .merge import _guarded_ceil
from .numerics import majorization_check, tolerance
from .statespace import (
    TripartiteState,
    catalog,
    max_entangled_counterpart,
    schmidt_rank_r,
)

__all__ = [
    "H_MAX_DIM_CAP",
    "ConverseReport",
    "QutritChannelReport",
    "SearchReport",
    "compare_bounds",
    "converse_search",
    "converse_simple",
    "h_max_conditional",
    "qutrit_counterexample_report",
]

# Largest total dimension d_R * d_A * d_B that h_max_conditional accepts.
H_MAX_DIM_CAP = 16


def _spectrum(mat: np.ndarray) -> np.ndarray:
    """Descending, clipped-to-nonnegative eigenvalues of a Hermitian matrix."""
    vals = np.linalg.eigvalsh((mat + mat.conj().T) / 2.0).real
    return np.clip(vals[::-1], 0.0, None)


def _uniform_spectator_form(state: TripartiteState) -> tuple[TripartiteState, bool]:
    """Return ``(state', applicable)`` where ``state'`` has a uniform spectator.

    ``applicable`` records whether the input already had ``psi^R = 1/D`` on its
    support; if not, the maximally entangled counterpart (same Schmidt rank,
    uniform spectator spectrum) is substituted, since the cost bounds are stated
    for that normal form.
    """
    dim = schmidt_rank_r(state)
    evals = _spectrum(state.marginal("R"))
    tol = 10.0 * tolerance()
    applicable = bool(np.all(np.abs(evals[:dim] - 1.0 / dim) <= tol))
    if applicable:
        return state, True
    return max_entangled_counterpart(state), False


def converse_simple(state: TripartiteState) -> dict:
    """Closed-form cost lower bounds from the top receiver eigenvalue.

    Returns ``{"catalytic": log2(lambda0^B * D), "noncatalytic":
    log2(ceil(lambda0^B * D))}`` where ``lambda0^B`` is the largest eigenvalue
    of the receiver marginal and ``D`` the spectator Schmidt rank.  States
    without a uniform spectator marginal are first replaced by their maximally
    entangled counterpart.
    """
    normal, _ = _uniform_spectator_form(state)
    dim = schmidt_rank_r(normal)
    lam0 = float(_spectrum(normal.marginal("B"))[0])
    product = lam0 * dim
    return {
        "catalytic": math.log2(product),
        "noncatalytic": math.log2(_guarded_ceil(product)),
    }


@dataclasses.dataclass(frozen=True)
class SearchReport:
    """Exact minima of ``log2 K - log2 L`` over the capped grid passing the spectra test.

    ``catalytic_bits`` minimizes over all ``K <= K_max``, ``L <= L_max``,
    ``noncatalytic_bits`` over the ``L = 1`` column; ``analytic_bits`` is the
    cap-independent lower bound ``log2(lambda0^B / lambda0^{AB})`` implied by
    the top-eigenvalue prefix of the same test.  The minima are found by the
    staircase sweep of :func:`converse_search` and equal those of testing
    every pair.  They are ``inf`` with ``None`` witnesses if no pair passes
    within the caps; ties keep the smallest ``K``.
    """

    catalytic_bits: float
    catalytic_K: int | None
    catalytic_L: int | None
    noncatalytic_bits: float
    noncatalytic_K: int | None
    analytic_bits: float
    K_max: int
    L_max: int


def converse_search(state: TripartiteState, K_max: int = 64, L_max: int = 64) -> SearchReport:
    """Smallest certified cost bound over the integer resource grid, exactly.

    The spectra majorization test is evaluated on the state as given.  Its pass
    set is a staircase: the uniform vector ``1_K/K`` is majorized by
    ``1_{K-1}/(K-1)``, and majorization survives a tensor product with a fixed
    vector, so a passing ``(K, L)`` makes every ``(K' >= K, L' <= L)`` pass.
    One sweep over ``K`` therefore raises a pointer to the largest passing
    ``L``, which never moves back, with at most ``K_max + L_max`` tests.  The
    report records the minimum of ``log2 K - log2 L`` over passing pairs
    (noncatalytic: ``L = 1``), the witnessing pair, and the analytic
    top-eigenvalue bound, which is a true infimum bound independent of the caps.
    """
    if K_max < 1 or L_max < 1:
        raise ValidationError("search caps K_max and L_max must be >= 1")
    eig_b = _spectrum(state.marginal("B"))
    eig_ab = _spectrum(state.marginal("AB"))
    tol = tolerance()

    best_bits = math.inf
    best_pair: tuple[int | None, int | None] = (None, None)
    non_bits = math.inf
    non_k: int | None = None
    L = 0
    for K in range(1, K_max + 1):
        x = np.repeat(eig_b / K, K)
        while L < L_max and majorization_check(x, np.repeat(eig_ab / (L + 1), L + 1), tol):
            L += 1
        if L == 0:
            continue
        log_k = math.log2(K)
        if non_k is None:
            non_bits = log_k
            non_k = K
        bits = log_k - math.log2(L)
        if bits < best_bits - 1e-12:
            best_bits = bits
            best_pair = (K, L)

    lam0_ab = float(eig_ab[0])
    analytic = math.log2(float(eig_b[0]) / lam0_ab) if lam0_ab > 0 else math.inf
    return SearchReport(
        catalytic_bits=best_bits,
        catalytic_K=best_pair[0],
        catalytic_L=best_pair[1],
        noncatalytic_bits=non_bits,
        noncatalytic_K=non_k,
        analytic_bits=analytic,
        K_max=K_max,
        L_max=L_max,
    )


# ---------------------------------------------------------------------------
# Conditional max-entropy: certified interior-point solver
# ---------------------------------------------------------------------------


_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _hermitian_units(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather form of the orthonormal (Frobenius) Hermitian basis of n x n matrices.

    Returns ``(rows, vals)`` of shape ``(1 + n^2, n)``: column ``k`` of the
    basis element ``E_a`` holds its one nonzero entry ``vals[a, k]`` in row
    ``rows[a, k]``; an empty column has ``vals[a, k] = 0``.  Index 0 is the
    solver's variable t and has no element.  The diagonal units come first,
    then for each pair ``i < j`` in row-major order the symmetric unit
    ``(e_ij + e_ji)/sqrt2`` and the antisymmetric unit ``i(e_ij - e_ji)/sqrt2``.
    """
    rows = np.zeros((1 + n * n, n), dtype=np.intp)
    vals = np.zeros((1 + n * n, n), dtype=complex)
    diag = np.arange(n)
    rows[1 + diag, diag] = diag
    vals[1 + diag, diag] = 1.0
    i, j = np.triu_indices(n, 1)
    sym = 1 + n + 2 * np.arange(i.size)
    rows[sym, j], vals[sym, j] = i, _INV_SQRT2
    rows[sym, i], vals[sym, i] = j, _INV_SQRT2
    rows[sym + 1, j], vals[sym + 1, j] = i, 1j * _INV_SQRT2
    rows[sym + 1, i], vals[sym + 1, i] = j, -1j * _INV_SQRT2
    return rows, vals


def _trace_out_A(mat: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    return np.einsum("abac->bc", mat.reshape(dim_a, dim_b, dim_a, dim_b))


def _trace_out_R(mat: np.ndarray, dim_r: int, dim_ab: int) -> np.ndarray:
    return np.einsum("iaib->ab", mat.reshape(dim_r, dim_ab, dim_r, dim_ab))


class _MinSpectralNormSolver:
    """Certified solve of: minimize t over Hermitian Z subject to

    ``Z >= 0``, ``1_R (x) Z >= |psi><psi|``, ``t 1_B >= Z^B``.

    The variables are ``x = (t, z)``, with ``z`` the coordinates of Z in the
    orthonormal Hermitian basis ``E_a`` of :func:`_hermitian_units`.  Every
    column of ``E_a`` and of ``1_R (x) E_a`` has at most one nonzero entry,
    so neither is ever formed: the slacks ``Z`` and ``1_R (x) Z - |psi><psi|``
    are written entry by entry from ``x``, and each Newton-step product
    ``S^-1 (1_R (x) E_a)`` is a column gather of ``S^-1`` scaled by that entry,
    O(m d^2) for m variables and a d x d slack instead of a dense O(m d^3)
    product.  Each entry so produced is a single rounded product, the same
    float the dense sums give.  Only the small block ``t 1_B - Z^B``, where
    the partial trace adds several terms, keeps its coefficient tensor.

    A log-barrier path follows the central path of the primal; at every
    centering stage a feasible dual point is extracted from the slack
    inverses, giving a rigorous two-sided interval around the optimum that
    does not depend on the centering being exact.
    """

    def __init__(self, psi: np.ndarray, dims: tuple[int, int, int]):
        dim_r, dim_a, dim_b = dims
        n = dim_a * dim_b
        big = dim_r * n
        self.dims = dims
        self.n = n
        self.psi = np.asarray(psi, dtype=complex).reshape(-1)
        rows, vals = _hermitian_units(n)
        m = rows.shape[0]
        self.m = m
        self.upper = np.triu_indices(n, 1)
        # 1_R (x) E_a repeats the columns of E_a on each diagonal block
        shift = n * np.arange(dim_r)
        self.gathers = [
            (rows, vals),
            ((rows[:, None, :] + shift[:, None]).reshape(m, big), np.tile(vals, dim_r)),
        ]
        # coefficients of t 1_B - Z^B: an entry (i, k) of E_a survives tr_A
        # when i and k share their A index
        a, k = np.nonzero((vals != 0) & (rows // dim_b == np.arange(n) // dim_b))
        traced = np.zeros((m, dim_b, dim_b), dtype=complex)
        traced[a, rows[a, k] % dim_b, k % dim_b] = vals[a, k]
        self.coeff_b = -traced
        self.coeff_b[0] = np.eye(dim_b)
        self.minus_projector = -np.outer(self.psi, self.psi.conj())
        # barrier parameter of the product cone = total matrix dimension
        self.nu = n + big + dim_b

    def _slacks(self, x: np.ndarray) -> list[np.ndarray]:
        n = self.n
        dim_r = self.dims[0]
        i, j = self.upper
        z = np.zeros((n, n), dtype=complex)
        z.real[np.diag_indices(n)] = x[1 : 1 + n]
        z.real[i, j] = z.real[j, i] = x[1 + n :: 2] * _INV_SQRT2
        z.imag[i, j] = x[2 + n :: 2] * _INV_SQRT2
        z.imag[j, i] = -z.imag[i, j]
        # Negation leaves -0.0 where x is zero, while a sum over the basis
        # gives +0.0; adding +0.0 turns one into the other, so each entry is
        # bit for bit the sum over a of x_a E_a.
        z += 0.0
        # 1_R (x) Z: Z on each diagonal block
        lifted = np.zeros((dim_r, n, dim_r, n), dtype=complex)
        lifted[np.arange(dim_r), :, np.arange(dim_r), :] = z
        sums = [
            self.minus_projector + lifted.reshape(dim_r * n, dim_r * n),
            np.tensordot(x, self.coeff_b, axes=1),
        ]
        return [z] + [(s + s.conj().T) / 2.0 for s in sums]

    @staticmethod
    def _barrier_value(slacks: list[np.ndarray]) -> float:
        total = 0.0
        for s in slacks:
            try:
                chol = np.linalg.cholesky(s)
            except np.linalg.LinAlgError:
                return math.inf
            total -= 2.0 * float(np.log(np.abs(np.diag(chol))).sum())
        return total

    def _center(self, x: np.ndarray, tau: float) -> np.ndarray:
        m = self.m
        slacks = self._slacks(x)
        phi0 = tau * x[0] + self._barrier_value(slacks)
        for _ in range(60):
            grad = np.zeros(m)
            grad[0] = tau
            hess = np.zeros((m, m))
            for block, s in enumerate(slacks):
                inv = np.linalg.inv(s)
                inv = (inv + inv.conj().T) / 2.0
                if block < 2:
                    rows, vals = self.gathers[block]
                    # column k of S^-1 E_a is S^-1[:, rows[a, k]] vals[a, k]
                    cols = inv.T[rows]
                    cols *= vals[:, :, None]
                    prods = cols.transpose(0, 2, 1)
                    grad -= np.einsum("akk->a", prods).real
                else:
                    grad -= np.einsum("ij,aji->a", inv, self.coeff_b).real
                    prods = np.einsum("ij,ajk->aik", inv, self.coeff_b)
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
            scale = 1.0
            moved = False
            for _ in range(50):
                trial = x + scale * step
                trial_slacks = self._slacks(trial)
                phi1 = tau * trial[0] + self._barrier_value(trial_slacks)
                if phi1 < phi0 - 1e-4 * scale * dec2 or phi1 < phi0:
                    x, slacks, phi0 = trial, trial_slacks, phi1
                    moved = True
                    break
                scale *= 0.5
            if not moved:
                break
        return x

    def _certificate(self, x: np.ndarray) -> tuple[float, float]:
        """Rigorous (lower, upper) bounds on the optimum from the current point."""
        dim_r, dim_a, dim_b = self.dims
        slacks = self._slacks(x)
        z = slacks[0]
        upper = float(np.linalg.eigvalsh(_trace_out_A(z, dim_a, dim_b))[-1].real)
        s2_inv = np.linalg.inv(slacks[1])
        s3_inv = np.linalg.inv(slacks[2])
        s2_inv = (s2_inv + s2_inv.conj().T) / 2.0
        s3_inv = (s3_inv + s3_inv.conj().T) / 2.0
        trace3 = float(np.trace(s3_inv).real)
        y3 = s3_inv / trace3
        y2 = s2_inv / trace3
        reduced = _trace_out_R(y2, dim_r, self.n)
        anchor = np.kron(np.eye(dim_a), y3)
        chol = np.linalg.cholesky(anchor)
        inv_chol = np.linalg.inv(chol)
        whitened = inv_chol @ reduced @ inv_chol.conj().T
        lam = float(np.linalg.eigvalsh((whitened + whitened.conj().T) / 2.0)[-1].real)
        beta = 1.0 if lam <= 1.0 else 1.0 / lam
        lower = beta * float(np.real(self.psi.conj() @ y2 @ self.psi))
        return lower, upper

    def solve(self) -> tuple[float, float]:
        """Return a certified interval ``(lo, hi)`` with ``log2(hi/lo) <= 9e-7``."""
        dim_a = self.dims[1]
        x = np.zeros(self.m)
        x[0] = 3.0 * dim_a
        x[1 : 1 + self.n] = 1.5  # Z = 1.5 * identity (diagonal basis elements first)
        lo = 0.0
        hi = math.inf
        target = math.log(2.0) * 9e-7
        tau = 1.0
        stages = 18
        for _ in range(stages):
            x = self._center(x, tau)
            cert_lo, cert_hi = self._certificate(x)
            lo = max(lo, cert_lo)
            hi = min(hi, cert_hi)
            if lo > 0.0 and hi < math.inf and math.log(hi / lo) <= target:
                return lo, hi
            tau *= 10.0
        width = math.log(hi / lo) if lo > 0.0 and hi < math.inf else math.inf
        raise SolverError(
            f"conditional max-entropy solver exhausted its {stages} stages before "
            f"certifying the requested duality gap: last certified interval "
            f"({lo!r}, {hi!r}), log(hi/lo) = {width!r} > target {target!r}"
        )


def h_max_conditional(state: TripartiteState) -> float:
    """Conditional max-entropy of the receiver given the helper system.

    Solves ``minimize ||Z^B||_inf`` over ``Z >= 0`` on AB with
    ``1_R (x) Z >= |psi><psi|`` and returns ``log2`` of the optimum, accurate
    to 1e-6 absolute with a certified duality gap.  The tripartite state
    supplies the purification; total dimension is capped at ``H_MAX_DIM_CAP``.

    Raises :class:`SolverError` if the interior-point stages are exhausted
    before the gap certificate reaches the target width.
    """
    dim_r, dim_a, dim_b = state.dims
    if dim_r * dim_a * dim_b > H_MAX_DIM_CAP:
        raise ValidationError(
            f"conditional max-entropy solver is limited to total dimension <= {H_MAX_DIM_CAP}"
        )
    solver = _MinSpectralNormSolver(state.vector, state.dims)
    lo, hi = solver.solve()
    return 0.5 * (math.log2(lo) + math.log2(hi))


# ---------------------------------------------------------------------------
# Comparison and the qutrit channel artifacts
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ConverseReport:
    """All cost lower bounds for one state, with the known ordering checked.

    ``gap = simple_catalytic - h_max >= -1e-6`` always holds;
    ``search_catalytic >= simple_catalytic - 1e-6`` holds because the bounds
    are evaluated on the uniform-spectator normal form (``applicable`` records
    whether the input was already in that form).
    """

    simple_catalytic: float
    simple_noncatalytic: float
    search_catalytic: float
    search_noncatalytic: float
    h_max: float
    gap: float
    applicable: bool
    search: SearchReport


def compare_bounds(state: TripartiteState, K_max: int = 64, L_max: int = 64) -> ConverseReport:
    """Evaluate the closed-form, grid-search, and max-entropy bounds together.

    The state is first brought to its uniform-spectator normal form so that
    all three bounds refer to the same merging task; the report enforces
    ``simple_catalytic >= h_max - 1e-6`` and ``search_catalytic >=
    simple_catalytic - 1e-6``.
    """
    normal, applicable = _uniform_spectator_form(state)
    simple = converse_simple(normal)
    search = converse_search(normal, K_max=K_max, L_max=L_max)
    h_max = h_max_conditional(normal)
    if simple["catalytic"] < h_max - 1e-6:
        raise VerificationError(
            f"bound ordering violated: closed-form {simple['catalytic']} < "
            f"max-entropy {h_max}"
        )
    if search.catalytic_bits < simple["catalytic"] - 1e-6:
        raise VerificationError(
            f"bound ordering violated: grid search {search.catalytic_bits} < "
            f"closed-form {simple['catalytic']}"
        )
    return ConverseReport(
        simple_catalytic=simple["catalytic"],
        simple_noncatalytic=simple["noncatalytic"],
        search_catalytic=search.catalytic_bits,
        search_noncatalytic=search.noncatalytic_bits,
        h_max=h_max,
        gap=simple["catalytic"] - h_max,
        applicable=applicable,
        search=search,
    )


@dataclasses.dataclass(frozen=True)
class QutritChannelReport:
    """Checks on the qutrit channel whose closed-form bound is zero.

    The channel ``N(rho) = ((tr rho) 1 - rho^T) / 2`` has Choi operator equal
    to the antisymmetric projector (rank 3, trace 3); its normalized
    purification has uniform spectator and receiver marginals, and the
    closed-form catalytic bound evaluates to 0 even though the channel is not
    a mixture of unitaries (not certified here).
    """

    spectator_uniform: bool
    receiver_uniform: bool
    choi_eigenvalues: np.ndarray
    choi_trace: float
    choi_rank: int
    state_matches_choi: bool
    channel_unital: bool
    channel_trace_preserving: bool
    channel_completely_positive: bool
    converse_catalytic_bits: float
    converse_noncatalytic_bits: float
    note: str


def _qutrit_channel(rho: np.ndarray) -> np.ndarray:
    return (np.trace(rho) * np.eye(3, dtype=complex) - rho.T) / 2.0


def qutrit_counterexample_report() -> QutritChannelReport:
    """Verify the qutrit channel state on which the closed-form bound is 0.

    Builds the Choi operator of ``N(rho) = ((tr rho) 1 - rho^T) / 2`` from the
    channel formula, checks complete positivity, trace preservation and
    unitality, matches it against the catalog purification's spectator-receiver
    marginal, and evaluates the closed-form bounds on the purification.
    Whether the channel is a mixture of unitaries is out of scope.
    """
    state = catalog("qutrit_choi")
    tol = 10.0 * tolerance()

    spec_r = _spectrum(state.marginal("R"))
    spec_b = _spectrum(state.marginal("B"))
    spectator_uniform = bool(np.abs(spec_r - 1.0 / 3.0).max() <= tol)
    receiver_uniform = bool(np.abs(spec_b - 1.0 / 3.0).max() <= tol)

    choi = np.zeros((9, 9), dtype=complex)
    for i in range(3):
        for j in range(3):
            unit = np.zeros((3, 3), dtype=complex)
            unit[i, j] = 1.0
            choi += np.kron(unit, _qutrit_channel(unit))
    eigs = np.linalg.eigvalsh((choi + choi.conj().T) / 2.0).real
    completely_positive = bool(eigs.min() >= -tol)
    rank = int(np.sum(eigs > tol))
    partial = np.einsum("ibjb->ij", choi.reshape(3, 3, 3, 3))
    trace_preserving = bool(np.abs(partial - np.eye(3)).max() <= tol)
    unital = bool(np.abs(_qutrit_channel(np.eye(3) / 3.0) - np.eye(3) / 3.0).max() <= tol)
    state_matches_choi = bool(np.abs(state.marginal("RB") - choi / 3.0).max() <= tol)

    simple = converse_simple(state)
    return QutritChannelReport(
        spectator_uniform=spectator_uniform,
        receiver_uniform=receiver_uniform,
        choi_eigenvalues=np.sort(eigs)[::-1],
        choi_trace=float(eigs.sum()),
        choi_rank=rank,
        state_matches_choi=state_matches_choi,
        channel_unital=unital,
        channel_trace_preserving=trace_preserving,
        channel_completely_positive=completely_positive,
        converse_catalytic_bits=simple["catalytic"],
        converse_noncatalytic_bits=simple["noncatalytic"],
        note=(
            "closed-form bounds vanish although exact merging of this state "
            "is costly; non-mixed-unitarity of the channel is not certified here"
        ),
    )
