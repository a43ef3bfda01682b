"""Exact state splitting: transmit the third register using minimal entanglement.

The sender holds the second and third registers of a tripartite pure state
and must hand the third one to the receiver exactly.  The optimal resource
is a maximally entangled state whose rank equals the Schmidt rank of the
transmitted register's marginal: the sender compresses that register onto
its Schmidt support, teleports the compressed content, and the receiver
decompresses.  :func:`split_cost` reports the cost, :func:`build_split_protocol`
constructs the protocol, and :func:`verify_split` simulates every branch once
and witnesses rank monotonicity on that run.
"""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np

from .errors import VerificationError
from .locc import (
    OneWayProtocol,
    VerificationReport,
    apply_protocol,
    check_protocol_budget,
    generalized_paulis,
    verify_protocol,
)
from .numerics import COST_SLACK, SCHMIDT_DROP, schmidt_decompose
from .statespace import TripartiteState


@dataclasses.dataclass(frozen=True)
class SplitReport:
    """Cost of exactly transmitting the third register.

    ``rank`` is the Schmidt rank of the transmitted register's marginal,
    ``cost_bits = log2 rank`` the exact one-shot cost, and
    ``asymptotic_rate`` the entropy of the same marginal — the many-copy
    rate, which ``cost_bits`` always dominates.
    """

    rank: int
    cost_bits: float
    asymptotic_rate: float


def _transmit_schmidt(state: TripartiteState):
    dim_r, dim_a, dim_c = state.dims
    return schmidt_decompose(state.vector, dim_r * dim_a, dim_c)


def split_cost(state: TripartiteState) -> SplitReport:
    """Exact transmission cost ``log2 rank`` of the third register.

    The rank uses the standard coefficient cutoff; coefficients within a
    factor 10 of the cutoff trigger a warning because the cost jumps
    discontinuously with the rank.
    """
    sd = _transmit_schmidt(state)
    rank = sd.rank()
    borderline = int(np.sum((sd.coeffs > SCHMIDT_DROP) & (sd.coeffs <= 10.0 * SCHMIDT_DROP)))
    if borderline:
        warnings.warn(
            f"{borderline} Schmidt coefficient(s) of the transmitted register "
            "sit within 10x of the rank cutoff; the reported rank and cost "
            "are sensitive to the tolerance",
            stacklevel=2,
        )
    weights = np.clip(sd.coeffs.astype(float) ** 2, 0.0, None)
    weights = weights[weights > 0.0]
    entropy = float(-(weights * np.log2(weights)).sum())
    cost = math.log2(rank)
    if cost < entropy - COST_SLACK:
        raise VerificationError(
            f"log2 rank {cost} fell below the entropy rate {entropy}; "
            "the numerical rank is inconsistent"
        )
    return SplitReport(rank=rank, cost_bits=cost, asymptotic_rate=entropy)


def build_split_protocol(state: TripartiteState) -> OneWayProtocol:
    """Compression + teleportation protocol transmitting the third register.

    The sender measures the compressed third register together with its
    resource half in the generalized Bell basis (labels ``(x, z)``), keeping
    the second register untouched; the receiver applies the Pauli correction
    and decompresses onto the transmitted register's Schmidt support.
    Branches labelled ``("kernel", c, k)`` complete the measurement on the
    unused part of the third register and never fire on the given state.
    The measurement rows M on (third register, resource half) are the K²
    Bell rows, from one stacked product, then the kernel rows; the sender
    stack ``1_A (x) M`` is written in one assignment, and the receivers
    ``support @ sigma_xz`` come from one stacked product.  A protocol over
    the byte budget of :func:`~qsm.locc.check_protocol_budget` raises
    :class:`~qsm.errors.SolverError` (exit 3) before allocation.
    """
    dim_r, dim_a, dim_c = state.dims
    sd = _transmit_schmidt(state)
    K = sd.rank()
    n = dim_c * K  # branches, and the length of one measurement row
    a_shape, b_shape = (dim_a, dim_a * n), (dim_c, K)
    check_protocol_budget(n, a_shape, b_shape)
    support = sd.right[:, :K]  # dim_c x K, orthonormal columns
    paulis = generalized_paulis(K)
    labels = [(x, z) for x in range(K) for z in range(K)]
    meas = np.zeros((n, dim_c, K), dtype=complex)  # M, one row per branch
    scale = 1.0 / math.sqrt(float(K))
    meas[: K * K] = ((support.conj() @ paulis.conj()) * scale).reshape(K * K, dim_c, K)
    b_ops = np.empty((n, *b_shape), dtype=complex)
    b_ops[: K * K] = (support @ paulis).reshape(K * K, dim_c, K)
    b_ops[K * K :] = support
    if K < dim_c:
        kernel = np.linalg.svd(support)[0][:, K:]  # orthonormal complement
        ks = np.arange(K)  # row (c, k): kernel column c, conjugated, in resource column k
        meas[K * K :].reshape(dim_c - K, K, dim_c, K)[:, ks, :, ks] = kernel.T.conj()
        labels += [("kernel", c, k) for c in range(dim_c - K) for k in range(K)]
    a_ops = np.zeros((n, *a_shape), dtype=complex)
    diag = np.arange(dim_a)
    a_ops.reshape(n, dim_a, dim_a, n)[:, diag, diag] = meas.reshape(n, 1, n)  # 1_A (x) M
    return OneWayProtocol(
        branches=labels, a_ops=a_ops, b_ops=b_ops, name=f"split[K={K}]"
    )


def verify_split(
    state: TripartiteState, protocol: OneWayProtocol | None = None
) -> tuple[VerificationReport, list]:
    """Simulate every branch of the splitting protocol once, against the state itself.

    The protocol runs on the state together with a maximally entangled pair
    whose rank is the protocol's receiver input dimension.  The target is the
    same amplitude tensor with the third register now held by the receiver;
    verification demands exact branch fidelities and measurement
    completeness.  Returns the :class:`~qsm.locc.VerificationReport` and the
    :func:`rank_monotonicity_witness` records of that same run.
    ``protocol`` defaults to ``build_split_protocol(state)``.
    """
    protocol = build_split_protocol(state) if protocol is None else protocol
    K = protocol.b_in_dim
    outcomes = apply_protocol(protocol, state.amplitudes, K)
    report = verify_protocol(protocol, outcomes, state.vector)
    return report, rank_monotonicity_witness(state, K, outcomes)


def rank_monotonicity_witness(state: TripartiteState, pair_rank: int, outcomes: list) -> list:
    """Schmidt rank across the receiver | rest cut, before and after each branch.

    ``outcomes`` are the live branches of one run of the splitting protocol
    on the state and a maximally entangled pair of rank ``pair_rank``.
    Before the run the receiver holds only its half of that pair, so the
    rank before is ``pair_rank``.  Local processing plus classical
    communication can never raise this rank; the returned records
    ``{"label", "probability", "rank_before", "rank_after"}`` witness that.
    """
    records = []
    for outcome in outcomes:
        svals = np.linalg.svd(outcome.state.reshape(-1, state.dims[2]), compute_uv=False)
        records.append(
            {
                "label": outcome.label,
                "probability": outcome.probability,
                "rank_before": pair_rank,
                "rank_after": int(np.sum(svals > SCHMIDT_DROP)),
            }
        )
    return records
