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
import functools
import math

import numpy as np

from .errors import SolverError, ValidationError, VerificationError
from .numerics import BOUND_SLACK, COST_TIE, MATCH, SPECTRUM_DROP
from .numerics import guarded_ceil, is_integer, majorization_check, schmidt_decompose
from .statespace import TripartiteState, _uniform_counterpart, catalog


# Largest total dimension d_R * d_A * d_B that h_max_conditional accepts.
H_MAX_DIM_CAP = 16
# Default K_max and L_max of converse_search and compare_bounds.
SEARCH_DEFAULT = 64
# Largest K_max or L_max that converse_search accepts (64x the default).
SEARCH_CAP = 4096


def _spectrum(mat: np.ndarray) -> np.ndarray:
    """Descending, clipped-to-nonnegative eigenvalues of a Hermitian matrix."""
    vals = np.linalg.eigvalsh((mat + mat.conj().T) / 2.0).real
    return np.clip(vals[::-1], 0.0, None)


def _uniform_spectator_form(state: TripartiteState) -> tuple[TripartiteState, int, bool]:
    """Return ``(state', D, applicable)`` where ``state'`` has a uniform spectator.

    ``D`` is the spectator Schmidt rank, shared by both states.  ``applicable``
    records whether the input already had ``psi^R = 1/D`` on its support; if
    not, the maximally entangled counterpart (same Schmidt rank, uniform
    spectator spectrum) is substituted, since the cost bounds are stated for
    that normal form.
    """
    sd = schmidt_decompose(state.vector, state.dims[0])
    dim = sd.rank()
    evals = _spectrum(state.marginal("R"))
    applicable = bool(np.all(np.abs(evals[:dim] - 1.0 / dim) <= MATCH))
    if applicable:
        return state, dim, True
    return _uniform_counterpart(state, sd), dim, False


def converse_simple(state: TripartiteState) -> dict:
    """Closed-form cost lower bounds from the top receiver eigenvalue.

    Returns ``{"catalytic": log2(lambda0^B * D), "noncatalytic":
    log2(ceil(lambda0^B * D))}`` where ``lambda0^B`` is the largest eigenvalue
    of the receiver marginal and ``D`` the spectator Schmidt rank.  States
    without a uniform spectator marginal are first replaced by their maximally
    entangled counterpart.
    """
    normal, dim, _ = _uniform_spectator_form(state)
    return _simple_bounds(normal, dim)


def _simple_bounds(normal: TripartiteState, dim: int) -> dict:
    """:func:`converse_simple` of a state in normal form with spectator rank ``dim``."""
    product = float(_spectrum(normal.marginal("B"))[0]) * dim
    return {
        "catalytic": math.log2(product),
        "noncatalytic": math.log2(guarded_ceil(product)),
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


def converse_search(
    state: TripartiteState, K_max: int = SEARCH_DEFAULT, L_max: int = SEARCH_DEFAULT
) -> SearchReport:
    """Smallest certified cost bound over the integer resource grid, exactly.

    The spectra majorization test is evaluated on the state as given.  Its pass
    set is a staircase: the uniform vector ``1_K/K`` is majorized by
    ``1_{K-1}/(K-1)``, and majorization survives a tensor product with a fixed
    vector, so a passing ``(K, L)`` makes every ``(K' >= K, L' <= L)`` pass.
    One sweep over ``K`` therefore raises a pointer to the largest passing
    ``L``, which never moves back, with at most ``K_max + L_max`` tests, and
    stops once ``L`` reaches ``L_max``, where no later ``K`` is cheaper.  The
    report records the minimum of ``log2 K - log2 L`` over passing pairs
    (noncatalytic: ``L = 1``), the witnessing pair, and the analytic
    top-eigenvalue bound, which is a true infimum bound independent of the caps.
    """
    for name, cap in (("K_max", K_max), ("L_max", L_max)):
        if not (is_integer(cap) and 1 <= cap <= SEARCH_CAP):
            raise ValidationError(
                f"search cap {name} must be an integer in 1..{SEARCH_CAP}, got {cap!r}"
            )
    eig_b = _spectrum(state.marginal("B"))
    eig_ab = _spectrum(state.marginal("AB"))

    best_bits = math.inf
    best_pair: tuple[int | None, int | None] = (None, None)
    non_bits = math.inf
    non_k: int | None = None
    L = 0
    for K in range(1, K_max + 1):
        while L < L_max and majorization_check(eig_b, K, eig_ab, L + 1):
            L += 1
        if L == 0:
            continue
        log_k = math.log2(K)
        if non_k is None:
            non_bits = log_k
            non_k = K
        bits = log_k - math.log2(L)
        if bits < best_bits - COST_TIE:
            best_bits = bits
            best_pair = (K, L)
        if L == L_max:  # every later K costs more at the same L
            break

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


class _Point:
    """A point ``x`` of :class:`_MinSpectralNormSolver`, evaluated once: its
    slacks are built Z first, each after the one before passed its Cholesky,
    and the barrier adds their ``-log det`` in that order, or is inf from the
    first that fails.  Inverses and Newton system are formed on first use."""

    def __init__(self, solver: _MinSpectralNormSolver, x: np.ndarray):
        self.solver = solver
        self.x = x
        self.slacks = []
        self.barrier = 0.0
        for slack in solver._slacks(x):
            try:
                chol = np.linalg.cholesky(slack)
            except np.linalg.LinAlgError:
                self.barrier = math.inf
                return
            self.slacks.append(slack)
            self.barrier -= 2.0 * float(np.log(np.abs(chol.diagonal())).sum())

    @functools.cached_property
    def inverses(self) -> list[np.ndarray]:
        return [(inv + inv.conj().T) / 2.0 for inv in map(np.linalg.inv, self.slacks)]

    @functools.cached_property
    def newton(self) -> tuple[np.ndarray, np.ndarray]:
        return self.solver._newton_system(self.inverses)


class _MinSpectralNormSolver:
    """Certified solve of: minimize t over Hermitian Z subject to

    ``Z >= 0``, ``1_R (x) Z >= |psi><psi|``, ``t 1_B >= Z^B``.

    The variables are ``x = (t, z)``, with ``z`` the coordinates of Z in the
    orthonormal Hermitian basis ``E_a`` of :func:`_hermitian_units`.  Every
    column of ``E_a`` and of ``1_R (x) E_a`` has at most one nonzero entry,
    so neither is ever formed.  Each float of Z is one coordinate times one
    basis entry, so ``__init__`` plans Z as one gather, coefficient product
    and scatter into its float view; ``1_R (x) Z - |psi><psi|`` adds Z to the
    diagonal blocks of a precomputed ``-|psi><psi|``.  Each Newton-step
    product ``S^-1 (1_R (x) E_a)`` is a column gather of ``S^-1`` scaled by
    that entry, O(m d^2) for m variables and a d x d slack instead of a dense
    O(m d^3) product, written into buffers the solver allocates once.  Each
    entry so produced is a single rounded product, the same float the dense
    sums give.  Only the small block ``t 1_B - Z^B``, where the partial trace
    adds several terms, keeps its coefficient tensor.

    A log-barrier path follows the central path of the primal.  Each point
    it visits is a :class:`_Point`, evaluated once: a stage hands its final
    point to the next, which rebuilds only the gradient of its Newton system
    (the Hessian does not depend on tau), and a line-search trial stops at
    its first slack whose Cholesky fails.  At every stage a feasible dual
    point is extracted from the final point's slack inverses, giving a
    rigorous two-sided interval around the optimum that does not depend on
    the centering being exact.
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
        # Z's float view takes x[a] * coef at dst for each nonzero float of
        # some E_a, whose column k holds vals[a, k] at row rows[a, k]
        floats = vals.view(np.float64)
        a, f = np.nonzero(floats)
        self.z_plan = (a, floats[a, f], 2 * (rows[a, f // 2] * n + f // 2) + f % 2)
        self.diag_blocks = np.arange(dim_r)
        # 1_R (x) E_a repeats the columns of E_a on each diagonal block
        shift = n * np.arange(dim_r)
        lifted_rows = (rows[:, None, :] + shift[:, None]).reshape(m, big)
        self.gathers = [(rows, vals[:, :, None]), (lifted_rows, np.tile(vals, dim_r)[:, :, None])]
        # coefficients of t 1_B - Z^B: an entry (i, k) of E_a survives tr_A
        # when i and k share their A index
        a, k = np.nonzero((vals != 0) & (rows // dim_b == np.arange(n) // dim_b))
        traced = np.zeros((m, dim_b, dim_b), dtype=complex)
        traced[a, rows[a, k] % dim_b, k % dim_b] = vals[a, k]
        self.coeff_b = -traced
        self.coeff_b[0] = np.eye(dim_b)
        # + 0.0 turns the -0.0 of negation into the +0.0 of an added zero block
        self.minus_projector = -np.outer(self.psi, self.psi.conj()) + 0.0
        # Newton-step buffers: the gathered columns of blocks 0 and 1, each
        # block's contiguous copy of a transposed product for the Hessian,
        # and the Hessian term
        self.cols = [np.empty((m, d, d), dtype=complex) for d in (n, big)]
        self.copies = [np.empty((m, d * d), dtype=complex) for d in (n, big, dim_b)]
        self.product = np.empty((m, m), dtype=complex)

    def _slacks(self, x: np.ndarray):
        """Yield the three slacks of x in order, each built when asked for."""
        n, m = self.n, self.m
        dim_r, _, dim_b = self.dims
        src, coef, dst = self.z_plan
        entries = x[src] * coef
        # Products leave -0.0 where x is zero, while a sum over the basis
        # gives +0.0; adding +0.0 turns one into the other, so each entry is
        # bit for bit the sum over a of x_a E_a.
        entries += 0.0
        z = np.zeros((n, n), dtype=complex)
        z.view(np.float64).put(dst, entries)
        yield z
        # 1_R (x) Z - |psi><psi|: Z added on each diagonal block
        lifted = self.minus_projector.copy()
        blocks = self.diag_blocks
        lifted.reshape(dim_r, n, dim_r, n)[blocks, :, blocks, :] += z
        yield (lifted + lifted.conj().T) / 2.0
        # t 1_B - Z^B: the (1, m) x (m, dim_b^2) product np.tensordot makes
        traced = np.dot(x.reshape(1, m), self.coeff_b.reshape(m, -1)).reshape(dim_b, dim_b)
        yield (traced + traced.conj().T) / 2.0

    def _newton_system(self, invs: list) -> tuple[np.ndarray, np.ndarray]:
        """``(terms, hess)``: one gradient term per slack and the Hessian, free of tau."""
        m = self.m
        terms = np.empty((3, m))
        hess = np.zeros((m, m))
        for block, inv in enumerate(invs):
            if block < 2:
                rows, vals = self.gathers[block]
                # column k of S^-1 E_a is S^-1[:, rows[a, k]] vals[a, k]
                cols = self.cols[block]
                np.take(inv.T, rows, axis=0, out=cols, mode="clip")
                np.multiply(cols, vals, out=cols)
                prods = cols.transpose(0, 2, 1)
                # a copy: this einsum is a view of the reused buffer
                terms[block] = np.einsum("akk->a", prods).real
                flat = self.copies[block]
                np.copyto(flat.reshape(prods.shape), prods)
                flat_t = cols.reshape(m, -1)
            else:
                terms[block] = np.einsum("ij,aji->a", inv, self.coeff_b).real
                prods = np.einsum("ij,ajk->aik", inv, self.coeff_b)
                flat = prods.reshape(m, -1)
                flat_t = self.copies[block]
                np.copyto(flat_t.reshape(prods.shape), prods.transpose(0, 2, 1))
            np.matmul(flat, flat_t.T, out=self.product)
            hess += self.product.real
        return terms, hess

    def _center(self, point: _Point, tau: float) -> tuple[_Point, int]:
        """Center at ``tau`` from ``point``.

        Returns ``(point, steps)``: the final point and the number of Newton
        steps taken.  The final point keeps what it formed, so the next stage
        starts from its Newton system and the certificate reads its inverses.
        """
        m = self.m
        phi0 = tau * point.x[0] + point.barrier
        for steps in range(60):
            terms, hess = point.newton
            grad = np.zeros(m)
            grad[0] = tau
            for term in terms:
                grad -= term
            try:
                step = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError:
                ridge = 1e-12 * max(1.0, float(np.abs(np.diag(hess)).max()))
                step = np.linalg.solve(hess + ridge * np.eye(m), -grad)
            dec2 = float(-grad @ step)
            if not math.isfinite(dec2) or dec2 <= 1e-7:
                return point, steps
            scale = 1.0
            for _ in range(50):
                trial = _Point(self, point.x + scale * step)
                phi1 = tau * trial.x[0] + trial.barrier
                if phi1 < phi0 - 1e-4 * scale * dec2 or phi1 < phi0:
                    point, phi0 = trial, phi1
                    break
                scale *= 0.5
            else:
                return point, steps
        # the step cap ended the stage after a move
        return point, 60

    def _certificate(self, point: _Point) -> tuple[float, float]:
        """Rigorous (lower, upper) bounds on the optimum from a feasible
        point's slacks and their symmetrized inverses."""
        dim_r, dim_a, dim_b = self.dims
        upper = float(np.linalg.eigvalsh(_trace_out_A(point.slacks[0], dim_a, dim_b))[-1].real)
        s2_inv, s3_inv = point.inverses[1], point.inverses[2]
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
        """Return a certified interval ``(lo, hi)`` with ``log2(hi/lo) <= 9e-7``.

        Each stage's Newton step count and certified interval are kept; the
        :class:`SolverError` of exhausted stages lists them.
        """
        dim_a = self.dims[1]
        x = np.zeros(self.m)
        x[0] = 3.0 * dim_a
        x[1 : 1 + self.n] = 1.5  # Z = 1.5 * identity (diagonal basis elements first)
        point = _Point(self, x)
        lo = 0.0
        hi = math.inf
        target = math.log(2.0) * 9e-7
        tau = 1.0
        stages = 18
        history = []
        for _ in range(stages):
            point, steps = self._center(point, tau)
            cert_lo, cert_hi = self._certificate(point)
            history.append((steps, cert_lo, cert_hi))
            lo = max(lo, cert_lo)
            hi = min(hi, cert_hi)
            if lo > 0.0 and hi < math.inf and math.log(hi / lo) <= target:
                return lo, hi
            tau *= 10.0
        width = math.log(hi / lo) if lo > 0.0 and hi < math.inf else math.inf
        raise SolverError(
            f"conditional max-entropy solver exhausted its {stages} stages before "
            f"certifying the requested duality gap: last certified interval "
            f"({lo!r}, {hi!r}), log(hi/lo) = {width!r} > target {target!r}; "
            f"per stage (Newton steps, certified lo, hi): {history!r}"
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

    ``gap = simple_catalytic - h_max >= -BOUND_SLACK`` always holds;
    ``search.catalytic_bits >= simple_catalytic - BOUND_SLACK`` holds as the
    bounds are evaluated on the uniform-spectator normal form (``applicable``
    records whether the input was already in that form).
    """

    simple_catalytic: float
    simple_noncatalytic: float
    h_max: float
    gap: float
    applicable: bool
    search: SearchReport


def compare_bounds(
    state: TripartiteState, K_max: int = SEARCH_DEFAULT, L_max: int = SEARCH_DEFAULT
) -> ConverseReport:
    """Evaluate the closed-form, grid-search, and max-entropy bounds together.

    The state is first brought to its uniform-spectator normal form so that
    all three bounds refer to the same merging task; the report enforces
    ``simple_catalytic >= h_max - BOUND_SLACK`` and ``search.catalytic_bits >=
    simple_catalytic - BOUND_SLACK``.
    """
    normal, dim, applicable = _uniform_spectator_form(state)
    simple = _simple_bounds(normal, dim)
    search = converse_search(normal, K_max=K_max, L_max=L_max)
    h_max = h_max_conditional(normal)
    if simple["catalytic"] < h_max - BOUND_SLACK:
        raise VerificationError(
            f"bound ordering violated: closed-form {simple['catalytic']} < "
            f"max-entropy {h_max}"
        )
    if search.catalytic_bits < simple["catalytic"] - BOUND_SLACK:
        raise VerificationError(
            f"bound ordering violated: grid search {search.catalytic_bits} < "
            f"closed-form {simple['catalytic']}"
        )
    return ConverseReport(
        simple_catalytic=simple["catalytic"],
        simple_noncatalytic=simple["noncatalytic"],
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
    spec_r = _spectrum(state.marginal("R"))
    spec_b = _spectrum(state.marginal("B"))
    spectator_uniform = bool(np.abs(spec_r - 1.0 / 3.0).max() <= MATCH)
    receiver_uniform = bool(np.abs(spec_b - 1.0 / 3.0).max() <= MATCH)

    choi = np.zeros((9, 9), dtype=complex)
    for i in range(3):
        for j in range(3):
            unit = np.zeros((3, 3), dtype=complex)
            unit[i, j] = 1.0
            choi += np.kron(unit, _qutrit_channel(unit))
    eigs = np.linalg.eigvalsh((choi + choi.conj().T) / 2.0).real
    completely_positive = bool(eigs.min() >= -SPECTRUM_DROP)
    rank = int(np.sum(eigs > SPECTRUM_DROP))
    partial = np.einsum("ibjb->ij", choi.reshape(3, 3, 3, 3))
    trace_preserving = bool(np.abs(partial - np.eye(3)).max() <= MATCH)
    unital = bool(np.abs(_qutrit_channel(np.eye(3) / 3.0) - np.eye(3) / 3.0).max() <= MATCH)
    state_matches_choi = bool(np.abs(state.marginal("RB") - choi / 3.0).max() <= MATCH)

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
