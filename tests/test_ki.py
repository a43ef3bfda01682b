import dataclasses

import numpy as np
import pytest

import qsm.cli as cli
from qsm import ki, merge, statespace
from qsm.errors import ValidationError, VerificationError
from qsm.numerics import dagger, guarded_ceil, tolerance

from helpers import (
    PerProbeSteeredOperators,
    planted_ki_state,
    projector,
    random_unitary,
    steered_unnormalized,
    steering_generators,
)


def _proj(cols):
    return cols @ cols.conj().T


def steered_state(state: statespace.TripartiteState, lam: np.ndarray) -> np.ndarray:
    """Normalized conditional state of A after a PSD steering operator on R."""
    lam = np.asarray(lam, dtype=complex)
    if lam.shape != (state.dims[0],) * 2:
        raise ValidationError(f"steering operator shape {lam.shape} does not match R")
    evals = np.linalg.eigvalsh((lam + dagger(lam)) / 2)
    if evals.min() < -10 * tolerance() * max(1.0, float(evals.max())):
        raise ValidationError("steering operator must be PSD")
    rho = steered_unnormalized(state, lam)
    tr = float(np.trace(rho).real)
    if tr <= tolerance():
        raise ValidationError("steering operator has vanishing overlap with the state")
    return rho / tr


def structure_dims(spaces: tuple[np.ndarray, ...]) -> list[tuple[int, int]]:
    return [(v.shape[1], v.shape[2]) for v in spaces]


def omega(block: ki.KIBlock) -> np.ndarray:
    """Density operator of the redundant part on a_j^L."""
    return block.omega_vec @ dagger(block.omega_vec)


def test_steered_state_examples():
    g2 = statespace.catalog("ghz", 2)
    assert np.allclose(steered_state(g2, np.eye(2)), np.diag([0.5, 0.5]))
    assert np.allclose(steered_state(g2, np.diag([1.0, 0.0])), np.diag([1.0, 0.0]))
    with pytest.raises(ValidationError):
        steered_state(g2, -np.eye(2))
    # steering onto an unpopulated direction
    amps = np.zeros((2, 2, 2), dtype=complex)
    amps[0, 0, 0] = 1.0
    st = statespace.TripartiteState(amps)
    with pytest.raises(ValidationError):
        steered_state(st, np.diag([0.0, 1.0]))


def test_steering_generators_span():
    for d in (2, 3):
        gens = steering_generators(d)
        assert len(gens) == d * d
        # real span of the generators covers all Hermitian operators
        basis = np.array([g.reshape(-1) for g in gens])
        stacked = np.vstack([basis.real.T, basis.imag.T])
        assert np.linalg.matrix_rank(stacked) == d * d


def test_refinement_index_formula():
    g2 = statespace.catalog("ghz", 2)
    init = ki.initial_structure(g2)
    assert ki.refinement_index(init) == 1
    # S=3, J=2 -> 5 ; S=2, J=2 -> 2
    fake = (np.zeros((6, 1, 2)), np.zeros((6, 2, 1)))
    assert ki.refinement_index(fake) == 5
    fake2 = (np.zeros((2, 1, 1)), np.zeros((2, 1, 1)))
    assert ki.refinement_index(fake2) == 2


def test_l_decompose_step_ghz2():
    g2 = statespace.catalog("ghz", 2)
    init = ki.initial_structure(g2)
    refined = ki.l_decompose_step(init, ki.SteeredOperators(g2))
    assert refined is not None
    assert len(refined) == 2
    assert structure_dims(refined) == [(1, 1), (1, 1)]


def test_l_decompose_step_appendix_d_first_split():
    st = statespace.catalog("appendixD")
    init = ki.initial_structure(st)
    assert structure_dims(init) == [(5, 1)]  # support of psi^A is 5-dimensional
    refined = ki.l_decompose_step(init, ki.SteeredOperators(st))
    assert refined is not None
    assert len(refined) == 2
    # one part spans {|0>_{A1}} (x) A2 = coords {0,1}; the other the rest of the support
    spans = sorted(
        [v.reshape(6, -1) for v in refined], key=lambda m: m.shape[1]
    )
    p_small = _proj(spans[0])
    expect = np.zeros((6, 6))
    expect[0, 0] = expect[1, 1] = 1.0
    assert np.linalg.norm(p_small - expect) < 1e-8 or np.linalg.norm(
        _proj(spans[1]) - expect
    ) < 1e-8


def test_l_decompose_step_generic():
    st = statespace.random_state(np.random.default_rng(42), (2, 2, 2))
    # the initial structure splits (steered states differ on the full space) ...
    steered = ki.SteeredOperators(st)
    init = ki.initial_structure(st)
    assert ki.l_decompose_step(init, steered) is not None
    # ... but the maximal single-quantum-block structure admits no witness
    dec = ki.ki_decompose(st)
    final = tuple(b.iso for b in dec.blocks)
    assert ki.l_decompose_step(final, steered) is None


def test_r_combine_step_ghz2_none():
    g2 = statespace.catalog("ghz", 2)
    steered = ki.SteeredOperators(g2)
    two = ki.l_decompose_step(ki.initial_structure(g2), steered)
    assert ki.r_combine_step(two, steered) is None


def test_r_combine_step_b_decoupled():
    # R-A maximally entangled, B decoupled: combines into one 2-dim quantum block
    amps = np.zeros((2, 2, 2), dtype=complex)
    amps[0, 0, 0] = amps[1, 1, 0] = 1 / np.sqrt(2.0)
    st = statespace.TripartiteState(amps)
    steered = ki.SteeredOperators(st)
    split = ki.l_decompose_step(ki.initial_structure(st), steered)
    assert split is not None and len(split) == 2
    combined = ki.r_combine_step(split, steered)
    assert combined is not None
    assert structure_dims(combined) == [(1, 2)]


def test_ki_decompose_appendix_d():
    st = statespace.catalog("appendixD")
    dec = ki.ki_decompose(st)
    assert dec.J == 2
    assert (dec.blocks[0].dim_L, dec.blocks[0].dim_R) == (2, 2)
    assert (dec.blocks[1].dim_L, dec.blocks[1].dim_R) == (2, 1)
    assert dec.trajectory == (1, 2, 4, 5)
    assert dec.r == 5
    # printed spans: block 0 = A1 in {0,1} (x) A2 ; block 1 = |2>_{A1} (x) A2
    p0_expect = np.diag([1.0, 1, 1, 1, 0, 0])
    p1_expect = np.diag([0.0, 0, 0, 0, 1, 1])
    assert np.linalg.norm(projector(dec.blocks[0]) - p0_expect) < 1e-8
    assert np.linalg.norm(projector(dec.blocks[1]) - p1_expect) < 1e-8
    assert abs(dec.blocks[0].p - 0.5) < 1e-9
    assert abs(dec.blocks[1].p - 0.5) < 1e-9
    # redundant parts: uniform rank-2 omega in block 0, rank-1 in the glued block 1
    assert np.allclose(dec.blocks[0].lambdas, [0.5, 0.5])
    assert np.allclose(dec.blocks[1].lambdas, [1.0])
    assert abs(dec.blocks[0].lambda0_L - 0.5) < 1e-9
    assert abs(dec.blocks[1].lambda0_L - 1.0) < 1e-9


def test_ki_decompose_ghz():
    for d in (2, 3):
        dec = ki.ki_decompose(statespace.catalog("ghz", d))
        assert dec.J == d
        for b in dec.blocks:
            assert (b.dim_L, b.dim_R) == (1, 1)
            assert abs(b.p - 1.0 / d) < 1e-9


def test_ki_decompose_generic_2x2x2():
    st = statespace.random_state(np.random.default_rng(42), (2, 2, 2))
    dec = ki.ki_decompose(st)
    assert dec.J == 1
    assert (dec.blocks[0].dim_L, dec.blocks[0].dim_R) == (1, 2)


def test_ki_decompose_implication2():
    st = statespace.catalog("implication2")
    dec = ki.ki_decompose(st)
    assert dec.J == 2
    dims = [(b.dim_L, b.dim_R) for b in dec.blocks]
    assert dims == [(4, 2), (4, 1)]
    assert abs(dec.blocks[0].p - 2.0 / 3.0) < 1e-9
    assert abs(dec.blocks[1].p - 1.0 / 3.0) < 1e-9
    # block 0 redundant part maximally mixed on 4 dims; block 1 rank 2 glued to 4
    assert np.allclose(dec.blocks[0].lambdas, 0.25)
    assert np.allclose(dec.blocks[1].lambdas, [0.5, 0.5])


def test_ki_decompose_implication3():
    st = statespace.catalog("implication3")
    dec = ki.ki_decompose(st)
    assert dec.J == 1
    assert (dec.blocks[0].dim_L, dec.blocks[0].dim_R) == (1, 2)
    assert abs(dec.blocks[0].lambda0_L - 1.0) < 1e-9


def test_block_invariants():
    for name in ("appendixD", "implication2", "implication3"):
        st = statespace.catalog(name)
        dec = ki.ki_decompose(st)
        total = sum(b.p for b in dec.blocks)
        assert abs(total - 1.0) < 1e-9
        proj_sum = sum(projector(b) for b in dec.blocks)
        assert np.linalg.norm(proj_sum - np.eye(st.dims[1])) < 1e-8
        for b in dec.blocks:
            if b.p > 0:
                om = omega(b)
                assert abs(np.trace(om).real - 1.0) < 1e-9
                assert np.linalg.eigvalsh(om).min() > -1e-9
                assert abs(np.linalg.norm(b.phi) - 1.0) < 1e-9


def test_local_unitary_invariance():
    rng = np.random.default_rng(202)
    st = statespace.catalog("appendixD")
    dec = ki.ki_decompose(st)
    sig = sorted(
        (b.dim_L, b.dim_R, round(b.p, 8), tuple(np.round(b.lambdas, 8))) for b in dec.blocks
    )
    v_r = random_unitary(rng, 3)
    v_a = random_unitary(rng, 6)
    v_b = random_unitary(rng, 3)
    rotated = np.einsum("xi,ab,yz,iaz->xby", v_r, v_a, v_b, st.amplitudes)
    st2 = statespace.TripartiteState(rotated)
    dec2 = ki.ki_decompose(st2)
    sig2 = sorted(
        (b.dim_L, b.dim_R, round(b.p, 8), tuple(np.round(b.lambdas, 8))) for b in dec2.blocks
    )
    assert sig == sig2


def test_steered_states_invariant_under_block_mixed_unitaries():
    from qsm.numerics import canonical_eigh

    rng = np.random.default_rng(7)
    st = statespace.catalog("appendixD")
    dec = ki.ki_decompose(st)
    # CPTP map: on each block, a mixed unitary on a_j^L that preserves omega_j
    # (phase unitaries in the omega eigenbasis), tensored with identity on a_j^R
    krauses = []
    for b in dec.blocks:
        flat = b.iso.reshape(st.dims[1], -1)
        _, basis = canonical_eigh(omega(b))
        for w in (0.3, 0.7):
            phases = np.exp(2j * np.pi * rng.random(b.dim_L))
            u = basis @ np.diag(phases) @ dagger(basis)
            op = flat @ np.kron(u, np.eye(b.dim_R)) @ dagger(flat)
            krauses.append(np.sqrt(w) * op)
    for gen in steering_generators(3):
        rho = steered_state(st, gen + 1e-3 * np.eye(3))
        mapped = sum(k @ rho @ dagger(k) for k in krauses)
        assert np.linalg.norm(mapped - rho) < 1e-7


def _reconstruction_cases():
    rng = np.random.default_rng(31)
    states = [statespace.catalog(name, d=3 if name == "ghz" else None) for name in statespace.CATALOG_NAMES]
    states += [statespace.random_state(rng, dims) for dims in ((2, 2, 2), (2, 3, 2), (3, 4, 3))]
    padded = np.zeros((3, 7, 3), dtype=complex)  # appendixD with an unused level of A
    padded[:, :6, :] = statespace.catalog("appendixD").amplitudes
    states.append(statespace.TripartiteState(padded))
    return states


def test_reconstruction_from_blocks():
    """The blocks alone carry the block form: the iso columns of all blocks
    are an orthonormal basis of A, the ws columns of the live blocks are
    orthonormal in B, and sum_j sqrt(p_j) iso omega phi ws is the state."""
    for st in _reconstruction_cases():
        dec = ki.ki_decompose(st)
        isos = np.hstack([b.iso.reshape(st.dims[1], -1) for b in dec.blocks])
        assert isos.shape == (st.dims[1], st.dims[1])
        assert np.allclose(dagger(isos) @ isos, np.eye(st.dims[1]), atol=1e-9)
        live = [b for b in dec.blocks if b.p > 0.0]
        ws = np.hstack([b.ws.reshape(st.dims[2], -1) for b in live])
        assert np.allclose(dagger(ws) @ ws, np.eye(ws.shape[1]), atol=1e-9)
        rebuilt = sum(
            np.sqrt(b.p) * np.einsum("alr,lm,irk,bmk->iab", b.iso, b.omega_vec, b.phi, b.ws)
            for b in live
        )
        assert np.allclose(rebuilt, st.amplitudes, atol=1e-9), st.dims


@pytest.mark.parametrize("name", ["appendixD", "implication2", "qutrit_choi"])
def test_reconstruction_check_rejects_mutated_blocks(name):
    st = statespace.catalog(name)
    blocks = ki.ki_decompose(st).blocks
    ki._verify_reconstruction(st, blocks)
    j = next(j for j, b in enumerate(blocks) if b.dim_R > 1)
    swapped_r = dataclasses.replace(blocks[j], phi=blocks[j].phi[:, ::-1, :])
    # a p_j that is too large can raise the overlap past 1; its norm catches it
    wrong_p = [dataclasses.replace(blocks[j], p=c * blocks[j].p) for c in (0.9, 1.1, 2.0)]
    mutants = [blocks[:j] + (block,) + blocks[j + 1 :] for block in [swapped_r, *wrong_p]]
    if len(blocks) > 1:  # each block dropped in turn
        mutants += [blocks[:k] + blocks[k + 1 :] for k in range(len(blocks))]
    for mutant in mutants:
        with pytest.raises(VerificationError, match="reconstruction (fidelity|squared norm)"):
            ki._verify_reconstruction(st, mutant)


def test_reconstruction_errors_name_their_threshold():
    st = statespace.catalog("implication2")
    blocks = ki.ki_decompose(st).blocks
    j = max(range(len(blocks)), key=lambda k: blocks[k].p)
    cases = [  # too little weight lowers the overlap; too much passes it but not the norm
        (0.5, "block-form reconstruction fidelity ", " below threshold 1 - 10 tau = 0.99999999"),
        (1.1, "block-form reconstruction squared norm ", " is not 1 within 10 tau = 1.0e-08"),
    ]
    for c, head, tail in cases:
        mutant = dataclasses.replace(blocks[j], p=c * blocks[j].p)
        with pytest.raises(VerificationError) as info:
            ki._verify_reconstruction(st, blocks[:j] + (mutant,) + blocks[j + 1 :])
        message = str(info.value)
        assert message.startswith(head) and message.endswith(tail), message
        float(message[len(head) : -len(tail)])  # the measured value sits between them


def test_refinement_errors_name_their_numbers(monkeypatch):
    st = statespace.catalog("ghz", d=2)
    monkeypatch.setattr(ki, "refinement_index", lambda spaces: 5)
    with pytest.raises(VerificationError, match=r"did not increase the index: 5 -> 5$"):
        ki.ki_decompose(st)
    steps = iter(range(1000))
    monkeypatch.setattr(ki, "refinement_index", lambda spaces: next(steps))
    monkeypatch.setattr(ki, "l_decompose_step", lambda spaces, steered: spaces)
    with pytest.raises(VerificationError, match=r"exceeded its iteration bound of 24$"):
        ki.ki_decompose(st)  # 4 d_A^2 + 8 steps for d_A = 2
    assert next(steps) == 25  # the initial index and one per step


_CATALOG_CASES = [(name, None) for name in statespace.CATALOG_NAMES if name != "ghz"] + [
    ("ghz", d) for d in (2, 3, 4)
]


@pytest.mark.parametrize("name,d", _CATALOG_CASES)
def test_reconstruction_check_rejects_blocks_scaled_by_one_ppm(name, d):
    st = statespace.catalog(name, d=d)
    blocks = ki.ki_decompose(st).blocks
    heavy = [j for j, b in enumerate(blocks) if b.p >= 0.1]
    assert heavy
    for j in heavy:
        for c in (1.0 - 1e-6, 1.0 + 1e-6):
            mutant = dataclasses.replace(blocks[j], p=c * blocks[j].p)
            with pytest.raises(VerificationError, match="reconstruction (fidelity|squared norm)"):
                ki._verify_reconstruction(st, blocks[:j] + (mutant,) + blocks[j + 1 :])


def test_ki_decompose_random_states_terminate():
    rng = np.random.default_rng(99)
    for dims in ((2, 2, 2), (3, 2, 2), (2, 3, 2), (2, 4, 3)):
        st = statespace.random_state(rng, dims)
        dec = ki.ki_decompose(st)
        assert sum(b.p for b in dec.blocks) == pytest.approx(1.0, abs=1e-9)


def test_ki_decompose_b_trivial():
    # B-decoupled product: psi = phi^{RA} (x) |0>_B with entangled phi
    amps = np.zeros((2, 2, 1), dtype=complex)
    amps[0, 0, 0] = np.sqrt(0.7)
    amps[1, 1, 0] = np.sqrt(0.3)
    st = statespace.TripartiteState(amps)
    dec = ki.ki_decompose(st)
    assert dec.J == 1
    assert (dec.blocks[0].dim_L, dec.blocks[0].dim_R) == (1, 2)


def _sequential_l_decompose_step(state, spaces):
    """Pair-by-pair L-decomposing step on the per-probe steered operators:
    every (generator, R-factor vector) compression tested in turn."""
    tol = tolerance()
    steered = PerProbeSteeredOperators(state)
    for j0, space in enumerate(spaces):
        t_full = ki._compressed(space, steered.full)
        diagonals = [t_full[:, b, :, b] for b in range(space.shape[2])]
        ref = next((d for d in diagonals if float(np.trace(d).real) > 100 * tol), None)
        if ref is None:
            continue
        witness = next((d for d in diagonals if not ki._proportional(d, ref)), None)
        if witness is None:
            for op in steered.generators:
                t_gen = ki._compressed(space, op)
                for a in ki._r_factor_vectors(space.shape[2]):
                    rho = np.einsum("lrms,r,s->lm", t_gen, a.conj(), a)
                    if not ki._proportional(rho, ref):
                        witness = rho
                        break
                if witness is not None:
                    break
        if witness is None:
            continue
        eta = witness / float(np.trace(witness).real) - ref / float(np.trace(ref).real)
        split = ki._split_eigenspaces((eta + dagger(eta)) / 2)
        if split is None:
            continue
        new_spaces = list(spaces)
        new_spaces[j0 : j0 + 1] = [np.einsum("alr,lp->apr", space, part) for part in split]
        return tuple(new_spaces)
    return None


def _sequential_r_combine_step(state, spaces):
    """R-combining step over the 2 d_R^2 + 1 per-probe steered candidates."""
    tol = tolerance()
    if len(spaces) < 2:
        return None
    candidates = PerProbeSteeredOperators(state).candidates
    for j0 in range(len(spaces)):
        for j1 in range(j0 + 1, len(spaces)):
            v0, v1 = spaces[j0], spaces[j1]
            for op in candidates:
                scale = max(1.0, abs(float(np.trace(op).real)))
                cross = np.einsum("alr,ab,bms->lrms", v1.conj(), op, v0)
                for b in range(v1.shape[2]):
                    for a in range(v0.shape[2]):
                        sigma = cross[:, b, :, a]
                        if np.max(np.abs(sigma)) <= 10 * tol * scale:
                            continue
                        d0 = np.einsum("alr,ab,bmr->lm", v0[:, :, a : a + 1].conj(), op, v0[:, :, a : a + 1])
                        d1 = np.einsum("alr,ab,bmr->lm", v1[:, :, b : b + 1].conj(), op, v1[:, :, b : b + 1])
                        if (
                            np.sum(np.linalg.eigvalsh(d0) > 10 * tol * scale) < v0.shape[1]
                            or np.sum(np.linalg.eigvalsh(d1) > 10 * tol * scale) < v1.shape[1]
                        ):
                            continue
                        return ki._apply_combine(spaces, j0, j1, sigma)
    return None


def _same_structure(got, expected):
    if expected is None:
        return got is None
    return (
        got is not None
        and len(got) == len(expected)
        and all(np.array_equal(u, v) for u, v in zip(got, expected))
    )


def _oracle_states():
    states = [
        statespace.catalog(name, d=3 if name == "ghz" else None)
        for name in statespace.CATALOG_NAMES
    ]
    rng = np.random.default_rng(404)
    for dims in ((2, 2, 2), (2, 3, 2), (3, 4, 3), (4, 6, 4), (2, 5, 3)):
        states += [statespace.random_state(rng, dims) for _ in range(2)]
    return states


def test_batched_witness_screen_matches_sequential():
    for st in _oracle_states():
        steered = ki.SteeredOperators(st)
        structure = ki.initial_structure(st)
        steps = 0
        while True:
            expected = _sequential_l_decompose_step(st, structure)
            assert _same_structure(ki.l_decompose_step(structure, steered), expected)
            if expected is None:
                expected = _sequential_r_combine_step(st, structure)
                assert _same_structure(ki.r_combine_step(structure, steered), expected)
            if expected is None:
                break
            structure = expected
            steps += 1
        assert steps + 1 == len(ki.ki_decompose(st).trajectory)


def test_l_screen_never_compresses_a_block_that_cannot_split(monkeypatch):
    """A split needs 0 < n_plus < dim_L, so blocks with dim_L == 1 are skipped."""
    dims_l = []
    original = ki._compressed

    def spy(space, op):
        dims_l.append(space.shape[1])
        return original(space, op)

    monkeypatch.setattr(ki, "_compressed", spy)
    for st in _oracle_states():
        ki.ki_decompose(st)
    assert dims_l and min(dims_l) > 1


def _planted_specs(
    count: int, seed: int, n_blocks: tuple = (2, 3), max_dim_r: int = 3, max_dim_a: int = 27
) -> list:
    """Seeded ``(blocks, dim_r)`` specs: J in ``n_blocks``, dim_L, dim_R and
    dim_bR up to 3, dim_r from 2 to ``max_dim_r``, d_A up to ``max_dim_a``,
    some block with at least two redundant levels, and every φ_j able to fill
    its a_j^R."""
    rng = np.random.default_rng(seed)
    specs = []
    while len(specs) < count:
        dim_r = int(rng.integers(2, max_dim_r + 1))
        blocks = [
            tuple(int(k) for k in rng.integers(1, 4, size=3))
            for _ in range(rng.integers(n_blocks[0], n_blocks[1] + 1))
        ]
        if max(dl for dl, _, _ in blocks) < 2:
            continue
        if any(dim_r * dbr < dr for _, dr, dbr in blocks):
            continue
        if sum(dl * dr for dl, dr, _ in blocks) > max_dim_a:
            continue
        specs.append((blocks, dim_r))
    return specs


def _assert_planted_recovered(rng, blocks, dim_r):
    """ki_decompose returns the planted J, (dim_L, dim_R) pairs, p_j and ω_j
    spectra of a locally rotated ⊕_j √p_j |ω_j⟩|φ_j⟩."""
    state, planted = planted_ki_state(rng, blocks, dim_r)
    dec = ki.ki_decompose(state)
    assert dec.J == len(blocks)
    got = sorted((b.dim_L, b.dim_R, b.p, tuple(b.lambdas)) for b in dec.blocks)
    want = sorted((dl, dr, p, tuple(lam)) for dl, dr, p, lam in planted)
    assert [g[:2] for g in got] == [w[:2] for w in want]
    for g, w in zip(got, want):
        assert g[2] == pytest.approx(w[2], abs=1e-9)
        assert np.allclose(g[3], w[3], atol=1e-9, rtol=0.0)


@pytest.mark.parametrize("k,spec", list(enumerate(_planted_specs(40, 606))))
def test_planted_structure_recovered(k, spec):
    _assert_planted_recovered(np.random.default_rng([606, k]), *spec)


_MORE_BLOCKS = _planted_specs(12, 707, n_blocks=(4, 5), max_dim_r=8, max_dim_a=30)


@pytest.mark.parametrize("k,spec", list(enumerate(_MORE_BLOCKS)))
def test_planted_structure_recovered_at_more_blocks(k, spec):
    """J in {4, 5} planted blocks with up to 8 spectator levels and d_A up to 30."""
    _assert_planted_recovered(np.random.default_rng([707, k]), *spec)


_COST_SPECS = _planted_specs(12, 707, max_dim_a=8)


@pytest.mark.parametrize("k,spec", list(enumerate(_COST_SPECS)))
def test_planted_costs_match_the_planted_structure(k, spec):
    """The merging costs of a planted state follow from its planted blocks
    alone: noncatalytic cost bits are log2 of max_j ceil(λ0_j · dim_R_j),
    with λ0_j the largest ω_j eigenvalue; the catalytic cost lies within
    ``DEFAULT_DELTA`` bits above log2 max_j λ0_j · dim_R_j (less 1e-12 for
    the float logs of one rational, log2 K − log2 L against log2 of the
    product); and both protocols verify."""
    state, planted = planted_ki_state(np.random.default_rng([707, k]), *spec)
    dec = ki.ki_decompose(state)
    products = [float(lam.max()) * dr for _, dr, _, lam in planted]
    lowest = float(np.log2(max(products)))
    for mode in ("noncatalytic", "catalytic"):
        build = merge.build_merge_protocol(state, dec, mode=mode)
        bits = build.report.cost_bits
        if mode == "noncatalytic":
            assert bits == float(np.log2(max(guarded_ceil(x) for x in products))), (k, bits)
        else:
            assert lowest - 1e-12 <= bits <= lowest + merge.DEFAULT_DELTA, (k, bits, lowest)
        assert merge.verify_merge(state, build).passed, (k, mode)


def _steering_cases():
    """The catalog (ghz at d = 2-4), seeded random states up to a 16-level
    spectator, and 20 planted states."""
    states = [statespace.catalog(name) for name in statespace.CATALOG_NAMES if name != "ghz"]
    states += [statespace.catalog("ghz", d) for d in (2, 3, 4)]
    rng = np.random.default_rng(1414)
    for dims in ((1, 4, 4), (2, 2, 2), (2, 3, 2), (3, 4, 3), (4, 6, 4), (5, 4, 4), (8, 6, 6), (16, 4, 4)):
        states += [statespace.random_state(rng, dims) for _ in range(2)]
    for k, (blocks, dim_r) in enumerate(_planted_specs(20, 1414)):
        states.append(planted_ki_state(np.random.default_rng([1414, k]), blocks, dim_r)[0])
    return states


def _same_bytes(u, v) -> bool:
    u, v = np.asarray(u), np.asarray(v)
    return u.dtype == v.dtype and u.shape == v.shape and u.tobytes() == v.tobytes()


def test_gram_steering_matches_per_probe_steering(monkeypatch):
    """Reading the steered operators off one Gram tensor leaves every
    decomposition byte for byte as the per-probe 3-operand einsums give it,
    and the operators themselves agree within 1e-13 max|G|."""
    for n, st in enumerate(_steering_cases()):
        gram = np.einsum("rab,scb->rasc", st.amplitudes, st.amplitudes.conj())
        bound = 1e-13 * np.max(np.abs(gram))
        new, ref = ki.SteeredOperators(st), PerProbeSteeredOperators(st)
        assert new.generators.shape == ref.generators.shape == (st.dims[0] ** 2,) + (st.dims[1],) * 2
        assert np.max(np.abs(new.generators - ref.generators)) <= bound, n
        for got, want in zip(new.combine(), ref.combine(), strict=True):
            assert np.max(np.abs(got - want)) <= bound, n

        got = ki.ki_decompose(st)
        with monkeypatch.context() as m:
            m.setattr(ki, "SteeredOperators", PerProbeSteeredOperators)
            want = ki.ki_decompose(st)
        assert (got.r, got.trajectory) == (want.r, want.trajectory), n
        assert len(got.blocks) == len(want.blocks), n
        for b, c in zip(got.blocks, want.blocks):
            for field in ("index", "iso", "p", "lambdas", "omega_vec", "phi", "ws"):
                assert _same_bytes(getattr(b, field), getattr(c, field)), (n, b.index, field)


@pytest.mark.parametrize("dim_R", [1, 2, 5, 16])
def test_steered_operators_take_two_einsums(monkeypatch, dim_R):
    """``SteeredOperators`` contracts the amplitudes in two einsum calls
    (``full`` and the Gram tensor) into d_R^2 generators, one at d_R = 1, and
    ``combine`` yields ``full``, then ``full + g`` and ``full + 2 g`` for
    each generator g in order."""
    st = statespace.random_state(np.random.default_rng([464, dim_R]), (dim_R, 4, 4))
    calls = []
    original = np.einsum

    def counting(*operands, **kwargs):
        calls.append(any(op is st.amplitudes for op in operands))
        return original(*operands, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(np, "einsum", counting)
        steered = ki.SteeredOperators(st)
    assert calls == [True, True]
    assert steered.generators.shape == (dim_R**2, 4, 4)
    expected = [steered.full] + [steered.full + c * g for g in steered.generators for c in (1, 2)]
    got = list(steered.combine())
    assert len(got) == 2 * dim_R**2 + 1
    assert all(_same_bytes(u, v) for u, v in zip(got, expected))


def _pad_spectator(state, zeros):
    """The state with zero R slices inserted at the positions ``zeros`` of the padded R."""
    dim_R = state.dims[0] + len(zeros)
    live = [r for r in range(dim_R) if r not in zeros]
    amps = np.zeros((dim_R,) + state.dims[1:], dtype=complex)
    amps[live] = state.amplitudes
    return statespace.TripartiteState(amps)


@pytest.mark.parametrize("name", ["appendixD", "implication2"])
def test_zero_spectator_levels_leave_the_decomposition(name):
    """Two unpopulated R levels, interleaved or at the end, give the same
    blocks: (dim_L, dim_R) pairs, p_j within 1e-12 and ω spectra."""
    st = statespace.catalog(name)
    dim_R = st.dims[0]
    want = ki.ki_decompose(st)
    for zeros in ((1, dim_R), (dim_R, dim_R + 1)):
        padded = _pad_spectator(st, zeros)
        got = ki.ki_decompose(padded)
        assert [(b.dim_L, b.dim_R) for b in got.blocks] == [(b.dim_L, b.dim_R) for b in want.blocks]
        for b, c in zip(got.blocks, want.blocks):
            assert abs(b.p - c.p) <= 1e-12
            assert np.allclose(b.lambdas, c.lambdas, atol=1e-12, rtol=0.0)
        ki._verify_reconstruction(padded, got.blocks)


# --------------------------------------------------------------------------
# tolerance edges: weights and spectral gaps near the cutoffs


def _rotated(amps: np.ndarray, seed: int) -> statespace.TripartiteState:
    """``amps`` with seeded Haar-random unitaries applied on A and on B."""
    rng = np.random.default_rng(seed)
    u_a, u_b = random_unitary(rng, amps.shape[1]), random_unitary(rng, amps.shape[2])
    return statespace.TripartiteState(np.einsum("xa,rab,yb->rxy", u_a, amps, u_b))


def _band_state(w: float, seed: int) -> statespace.TripartiteState:
    """√(1−w)|0⟩|00⟩ + √w|1⟩(|22⟩ + |33⟩)/√2 on (2, 4, 4), rotated on A and B."""
    amps = np.zeros((2, 4, 4), dtype=complex)
    amps[0, 0, 0] = np.sqrt(1.0 - w)
    amps[1, 2, 2] = amps[1, 3, 3] = np.sqrt(w / 2.0)
    return _rotated(amps, seed)


def _omega_state(spectrum, seed: int) -> statespace.TripartiteState:
    """Two blocks, rotated on A and B: |0⟩_R|ω⟩ with weight 0.6, ω of Schmidt
    spectrum ``spectrum``, and |1⟩_R|n⟩|n⟩ with weight 0.4, n = len(spectrum)."""
    n = len(spectrum)
    amps = np.zeros((2, n + 1, n + 1), dtype=complex)
    amps[0, np.arange(n), np.arange(n)] = np.sqrt(0.6 * np.asarray(spectrum))
    amps[1, n, n] = np.sqrt(0.4)
    return _rotated(amps, seed)


def _merge_outcome(state, tmp_path) -> str:
    """What ``qsm merge --verify`` does with ``state``: "verified", "branch"
    (a branch misses the target), "reconstruction" (``ki_decompose`` rejects
    its own block form) or the exit code and error of any other failure.  Any
    exception other than a ValidationError or VerificationError propagates."""
    path = tmp_path / "state.json"
    statespace.save_state(state, path)
    code, report = cli.run(["merge", str(path), "--verify"])
    verification = report.get("results", {}).get("verification")
    if code == 0 and verification["passed"]:
        return "verified"
    if code == 3 and verification is not None:
        assert verification["min_branch_fidelity"] < 1e-8
        return "branch"
    if code == 3 and report["error"].startswith("block-form reconstruction fidelity"):
        return "reconstruction"
    return f"exit {code}: {report['error']}"


def _two_level_state(w: float, seed: int) -> statespace.TripartiteState:
    """√(1−w)|00⟩ + √w|11⟩ on (1, 2, 2), rotated on A and B: no spectator."""
    amps = np.zeros((1, 2, 2), dtype=complex)
    amps[0, 0, 0] = np.sqrt(1.0 - w)
    amps[0, 1, 1] = np.sqrt(w)
    return _rotated(amps, seed)


# _band_state: A-side weight w/2 per level of the |1>_R branch.  The support
# cutoff drops A eigenvalues <= 10 tau and blocks with p_j <= 100 tau are
# zeroed, while the reconstruction check allows 10 tau of fidelity loss: a
# valid state between about 3e-9 and 1e-7 exits 3.  _two_level_state: the
# support cutoff drops the weight-w level of rho_A (<= 10 tau), but
# apply_protocol keeps every outcome above tau and verify_protocol scores each
# kept one at 1 - 10 tau, so w from about 1e-9 to 2e-8 exits 3 too.  Points
# within an ulp-scale margin of a threshold (5e-9, 1e-7; 1e-9) are left out.
_BAND_OUTCOMES = [
    (_band_state, 1e-9, "verified"),
    (_band_state, 2e-9, "verified"),
    (_band_state, 3e-9, "branch"),
    (_band_state, 4e-9, "branch"),
    (_band_state, 6e-9, "reconstruction"),
    (_band_state, 1e-8, "reconstruction"),
    (_band_state, 3e-8, "reconstruction"),
    (_band_state, 9e-8, "reconstruction"),
    (_band_state, 1.1e-7, "verified"),
    (_band_state, 2e-7, "verified"),
    (_band_state, 1e-6, "verified"),
    (_two_level_state, 5e-10, "verified"),
    (_two_level_state, 2e-9, "branch"),
    (_two_level_state, 5e-9, "branch"),
    (_two_level_state, 8e-9, "reconstruction"),
    (_two_level_state, 2e-8, "verified"),
]
_BAND_IDS = [
    f"{w:g}" if family is _band_state else f"two-level-{w:g}" for family, w, _ in _BAND_OUTCOMES
]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("family, w, outcome", _BAND_OUTCOMES, ids=_BAND_IDS)
def test_merge_outcome_across_the_small_weight_band(tmp_path, family, w, outcome, seed):
    """A small second R branch, or a small second level without a spectator,
    gives a deterministic verdict at every weight, never a raw numpy
    exception; the bands where the merge exits 3 are pinned as they stand
    (ROADMAP item 18)."""
    assert _merge_outcome(family(w, seed), tmp_path) == outcome


_SPECTRA = {
    "pair": lambda g: (0.5 + g / 2, 0.5 - g / 2),
    "lower-pair": lambda g: (0.5, 0.25 + g / 2, 0.25 - g / 2),
    "triple": lambda g: (1 / 3 + g, 1 / 3, 1 / 3 - g),
}


@pytest.mark.parametrize("gap", [0.0, 1e-10, 2e-9, 5e-9, 1e-7])
@pytest.mark.parametrize("shape", sorted(_SPECTRA))
@pytest.mark.parametrize("seed", [0, 1])
def test_degenerate_and_near_degenerate_omega_spectra(tmp_path, seed, shape, gap):
    """ω spectra that are degenerate or split by 1e-10 to 1e-7 keep their
    block structure, and the merge verifies, also where a split between tau
    and 10 tau comes out of KI rising: ``canonical_eigh`` orders eigenvalues
    within 10 tau as ties, by their eigenvectors, and ``flatten_schedule``
    takes such ties as sorted."""
    spectrum = _SPECTRA[shape](gap)
    state = _omega_state(spectrum, seed)
    dec = ki.ki_decompose(state)
    assert [(b.dim_L, b.dim_R) for b in dec.blocks] == [(len(spectrum), 1), (1, 1)]
    assert _merge_outcome(state, tmp_path) == "verified"
