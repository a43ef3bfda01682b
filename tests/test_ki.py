import numpy as np
import pytest

from qsm import ki, statespace
from qsm.errors import ValidationError
from qsm.numerics import dagger, tolerance

from helpers import planted_ki_state, projector, random_unitary


def _proj(cols):
    return cols @ cols.conj().T


def steered_state(state: statespace.TripartiteState, lam: np.ndarray) -> np.ndarray:
    """Normalized conditional state of A after a PSD steering operator on R."""
    lam = np.asarray(lam, dtype=complex)
    if lam.shape != (state.regs.dim_R,) * 2:
        raise ValidationError(f"steering operator shape {lam.shape} does not match R")
    evals = np.linalg.eigvalsh((lam + dagger(lam)) / 2)
    if evals.min() < -10 * tolerance() * max(1.0, float(evals.max())):
        raise ValidationError("steering operator must be PSD")
    rho = ki._steered_unnormalized(state, lam)
    tr = float(np.trace(rho).real)
    if tr <= tolerance():
        raise ValidationError("steering operator has vanishing overlap with the state")
    return rho / tr


def structure_dims(structure: ki.BlockStructure) -> list[tuple[int, int]]:
    return [(v.shape[1], v.shape[2]) for v in structure.spaces]


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
    st = statespace.TripartiteState(statespace.Registers(2, 2, 2), amps)
    with pytest.raises(ValidationError):
        steered_state(st, np.diag([0.0, 1.0]))


def test_steering_generators_span():
    for d in (2, 3):
        gens = ki.steering_generators(d)
        assert len(gens) == d * d
        # real span of the generators covers all Hermitian operators
        basis = np.array([g.reshape(-1) for g in gens])
        stacked = np.vstack([basis.real.T, basis.imag.T])
        assert np.linalg.matrix_rank(stacked) == d * d


def test_refinement_index_formula():
    g2 = statespace.catalog("ghz", 2)
    init = ki.initial_structure(g2, tolerance())
    assert ki.refinement_index(init) == 1
    # S=3, J=2 -> 5 ; S=2, J=2 -> 2
    fake = ki.BlockStructure(
        spaces=(np.zeros((6, 1, 2)), np.zeros((6, 2, 1)))
    )
    assert ki.refinement_index(fake) == 5
    fake2 = ki.BlockStructure(spaces=(np.zeros((2, 1, 1)), np.zeros((2, 1, 1))))
    assert ki.refinement_index(fake2) == 2


def test_l_decompose_step_ghz2():
    g2 = statespace.catalog("ghz", 2)
    init = ki.initial_structure(g2, tolerance())
    refined = ki.l_decompose_step(g2, init, ki.SteeredOperators(g2), tolerance())
    assert refined is not None
    assert refined.J == 2
    assert structure_dims(refined) == [(1, 1), (1, 1)]


def test_l_decompose_step_appendix_d_first_split():
    st = statespace.catalog("appendixD")
    init = ki.initial_structure(st, tolerance())
    assert structure_dims(init) == [(5, 1)]  # support of psi^A is 5-dimensional
    refined = ki.l_decompose_step(st, init, ki.SteeredOperators(st), tolerance())
    assert refined is not None
    assert refined.J == 2
    # one part spans {|0>_{A1}} (x) A2 = coords {0,1}; the other the rest of the support
    spans = sorted(
        [v.reshape(6, -1) for v in refined.spaces], key=lambda m: m.shape[1]
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
    init = ki.initial_structure(st, tolerance())
    assert ki.l_decompose_step(st, init, steered, tolerance()) is not None
    # ... but the maximal single-quantum-block structure admits no witness
    dec = ki.ki_decompose(st)
    final = ki.BlockStructure(spaces=tuple(b.iso for b in dec.blocks))
    assert ki.l_decompose_step(st, final, steered, tolerance()) is None


def test_r_combine_step_ghz2_none():
    g2 = statespace.catalog("ghz", 2)
    steered = ki.SteeredOperators(g2)
    two = ki.l_decompose_step(g2, ki.initial_structure(g2, tolerance()), steered, tolerance())
    assert ki.r_combine_step(g2, two, steered, tolerance()) is None


def test_r_combine_step_b_decoupled():
    # R-A maximally entangled, B decoupled: combines into one 2-dim quantum block
    amps = np.zeros((2, 2, 2), dtype=complex)
    amps[0, 0, 0] = amps[1, 1, 0] = 1 / np.sqrt(2.0)
    st = statespace.TripartiteState(statespace.Registers(2, 2, 2), amps)
    steered = ki.SteeredOperators(st)
    split = ki.l_decompose_step(st, ki.initial_structure(st, tolerance()), steered, tolerance())
    assert split is not None and split.J == 2
    combined = ki.r_combine_step(st, split, steered, tolerance())
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
        assert np.linalg.norm(proj_sum - np.eye(st.regs.dim_A)) < 1e-8
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
    st2 = statespace.TripartiteState(st.regs, rotated)
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
        flat = b.iso.reshape(st.regs.dim_A, -1)
        _, basis = canonical_eigh(omega(b), tolerance())
        for w in (0.3, 0.7):
            phases = np.exp(2j * np.pi * rng.random(b.dim_L))
            u = basis @ np.diag(phases) @ dagger(basis)
            op = flat @ np.kron(u, np.eye(b.dim_R)) @ dagger(flat)
            krauses.append(np.sqrt(w) * op)
    for gen in ki.steering_generators(3):
        rho = steered_state(st, gen + 1e-3 * np.eye(3))
        mapped = sum(k @ rho @ dagger(k) for k in krauses)
        assert np.linalg.norm(mapped - rho) < 1e-7


def test_reconstruction_block_form():
    from qsm.numerics import fidelity

    for name in ("appendixD", "implication2", "qutrit_choi"):
        st = statespace.catalog(name)
        dec = ki.ki_decompose(st)
        transformed = np.einsum("xa,iab,yb->ixy", dec.U_A, st.amplitudes, dec.U_B)
        target = ki.block_form_target(st, dec)
        assert fidelity(transformed.reshape(-1), target.reshape(-1)) > 1 - 1e-8
        # the embeddings are isometries from the physical registers
        assert np.allclose(dagger(dec.U_A) @ dec.U_A, np.eye(st.regs.dim_A), atol=1e-9)
        assert np.allclose(dagger(dec.U_B) @ dec.U_B, np.eye(st.regs.dim_B), atol=1e-9)


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
    st = statespace.TripartiteState(statespace.Registers(2, 2, 1), amps)
    dec = ki.ki_decompose(st)
    assert dec.J == 1
    assert (dec.blocks[0].dim_L, dec.blocks[0].dim_R) == (1, 2)


def _sequential_l_decompose_step(state, decomp):
    """Pair-by-pair L-decomposing step: every steered operator rebuilt, every
    (generator, R-factor vector) compression tested in turn."""
    tol = tolerance()
    full = ki._steered_unnormalized(state, np.eye(state.regs.dim_R))
    generators = ki.steering_generators(state.regs.dim_R)
    for j0, space in enumerate(decomp.spaces):
        t_full = ki._compressed(space, full)
        diagonals = [t_full[:, b, :, b] for b in range(space.shape[2])]
        ref = next((d for d in diagonals if float(np.trace(d).real) > 100 * tol), None)
        if ref is None:
            continue
        witness = next((d for d in diagonals if not ki._proportional(d, ref, tol)), None)
        if witness is None:
            for gen in generators:
                t_gen = ki._compressed(space, ki._steered_unnormalized(state, gen))
                for a in ki._r_factor_vectors(space.shape[2]):
                    rho = np.einsum("lrms,r,s->lm", t_gen, a.conj(), a)
                    if not ki._proportional(rho, ref, tol):
                        witness = rho
                        break
                if witness is not None:
                    break
        if witness is None:
            continue
        eta = witness / float(np.trace(witness).real) - ref / float(np.trace(ref).real)
        split = ki._split_eigenspaces((eta + dagger(eta)) / 2, tol)
        if split is None:
            continue
        new_spaces = list(decomp.spaces)
        new_spaces[j0 : j0 + 1] = [np.einsum("alr,lp->apr", space, part) for part in split]
        return ki.BlockStructure(spaces=tuple(new_spaces))
    return None


def _sequential_r_combine_step(state, decomp):
    """R-combining step with its 2 d_R^2 + 1 steered candidates rebuilt per call."""
    tol = tolerance()
    if decomp.J < 2:
        return None
    eye = np.eye(state.regs.dim_R, dtype=complex)
    candidates = [eye]
    for gen in ki.steering_generators(state.regs.dim_R):
        candidates += [eye + gen, eye + 2 * gen]
    for j0 in range(decomp.J):
        for j1 in range(j0 + 1, decomp.J):
            v0, v1 = decomp.spaces[j0], decomp.spaces[j1]
            for lam in candidates:
                op = ki._steered_unnormalized(state, lam)
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
                        return ki._apply_combine(decomp, j0, j1, sigma, tol)
    return None


def _same_structure(got, expected):
    if expected is None:
        return got is None
    return (
        got is not None
        and got.J == expected.J
        and all(np.array_equal(u, v) for u, v in zip(got.spaces, expected.spaces))
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


def test_batched_witness_screen_matches_sequential(monkeypatch):
    tol = tolerance()
    for st in _oracle_states():
        steered = ki.SteeredOperators(st)
        structure = ki.initial_structure(st, tol)
        steps = 0
        while True:
            expected = _sequential_l_decompose_step(st, structure)
            assert _same_structure(ki.l_decompose_step(st, structure, steered, tol), expected)
            if expected is None:
                expected = _sequential_r_combine_step(st, structure)
                assert _same_structure(ki.r_combine_step(st, structure, steered, tol), expected)
            if expected is None:
                break
            structure = expected
            steps += 1
        assert steps + 1 == len(ki.ki_decompose(st).trajectory)

    calls = []
    original = ki._steered_unnormalized

    def counting(state, lam):
        calls.append(lam.shape)
        return original(state, lam)

    monkeypatch.setattr(ki, "_steered_unnormalized", counting)
    for st in _oracle_states():
        calls.clear()
        ki.ki_decompose(st)
        assert 0 < len(calls) <= 3 * st.regs.dim_R**2 + 2


def _planted_specs(count: int, seed: int) -> list:
    """Seeded ``(blocks, dim_r)`` specs: J in {2, 3}, dim_L, dim_R and dim_bR
    up to 3, some block with at least two redundant levels, and every φ_j
    able to fill its a_j^R."""
    rng = np.random.default_rng(seed)
    specs = []
    while len(specs) < count:
        dim_r = int(rng.integers(2, 4))
        blocks = [
            tuple(int(k) for k in rng.integers(1, 4, size=3))
            for _ in range(rng.integers(2, 4))
        ]
        if max(dl for dl, _, _ in blocks) < 2:
            continue
        if any(dim_r * dbr < dr for _, dr, dbr in blocks):
            continue
        specs.append((blocks, dim_r))
    return specs


@pytest.mark.parametrize("k,spec", list(enumerate(_planted_specs(40, 606))))
def test_planted_structure_recovered(k, spec):
    """ki_decompose returns the planted J, (dim_L, dim_R) pairs, p_j and ω_j
    spectra of a locally rotated ⊕_j √p_j |ω_j⟩|φ_j⟩."""
    blocks, dim_r = spec
    state, planted = planted_ki_state(np.random.default_rng([606, k]), blocks, dim_r)
    dec = ki.ki_decompose(state)
    assert dec.J == len(blocks)
    got = sorted((b.dim_L, b.dim_R, b.p, tuple(b.lambdas)) for b in dec.blocks)
    want = sorted((dl, dr, p, tuple(lam)) for dl, dr, p, lam in planted)
    assert [g[:2] for g in got] == [w[:2] for w in want]
    for g, w in zip(got, want):
        assert g[2] == pytest.approx(w[2], abs=1e-9)
        assert np.allclose(g[3], w[3], atol=1e-9, rtol=0.0)
