"""Seeded workload plans: the state files each workload writes and the CLI ops it runs.

A workload has ``POOL`` seeded instances.  An instance fixes the random
states and the ``--seed`` handed to ``approx`` and ``verify-corpus``; every
instance has a recorded reference output (see ``outputs.py``).  A plan is
the list of :class:`Op` of one instance; one pass runs every op once, in
order.  A run's passes go through the instances from ``seed % POOL`` on, so
each run averages over several instances.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np

from qsm.statespace import catalog, random_state, save_state

POOL = 16

CATALOG = (
    ("ghz2", "ghz", 2),
    ("ghz3", "ghz", 3),
    ("ghz4", "ghz", 4),
    ("appendixD", "appendixD", None),
    ("implication2", "implication2", None),
    ("implication3", "implication3", None),
    ("implication4_psi", "implication4_psi", None),
    ("implication4_psi_prime", "implication4_psi_prime", None),
    ("qutrit_choi", "qutrit_choi", None),
)
MERGE_SHAPES = ((2, 2, 2), (2, 3, 2), (3, 4, 3), (4, 6, 4))
BOUNDS_SHAPES = ((2, 2, 2), (2, 3, 2), (2, 2, 4), (2, 4, 2), (4, 2, 2))
STATES_PER_SHAPE = 3

WORKLOADS = ("catalog-certify", "random-merge", "bounds-sdp")


@dataclasses.dataclass(frozen=True)
class Op:
    """One ``qsm.cli.run`` call.

    ``key`` names the op in the reference file; ``case`` groups ops by input
    state (a catalog name or a random shape) for per-case tables.
    """

    key: str
    case: str
    command: str
    argv: tuple


def _states(workload: str, instance: int) -> list:
    """(label, case, state) triples of one instance."""
    if workload == "catalog-certify":
        return [(label, label, catalog(name, d=d)) for label, name, d in CATALOG]
    shapes, stream = {
        "random-merge": (MERGE_SHAPES, 1),
        "bounds-sdp": (BOUNDS_SHAPES, 2),
    }[workload]
    rng = np.random.default_rng([instance, stream])
    out = []
    for shape in shapes:
        case = "random({},{},{})".format(*shape)
        for k in range(STATES_PER_SHAPE):
            label = "i{}-r{}{}{}-{}".format(instance, *shape, k)
            out.append((label, case, random_state(rng, shape, name=label)))
    return out


def write_states(workload: str, directory: str) -> list:
    """Generate every instance's states and write one file per state.

    Returns, per instance, its ``(label, case, path)`` triples in plan
    order.  Every call writes byte-identical files.  The catalog states are
    the same in every instance and are written once.
    """
    os.makedirs(directory, exist_ok=True)
    files = []
    for instance in range(POOL):
        if workload == "catalog-certify" and files:
            files.append(files[0])
            continue
        written = []
        for label, case, state in _states(workload, instance):
            path = os.path.join(directory, f"{label}.json")
            save_state(state, path)
            written.append((label, case, path))
        files.append(written)
    return files


def _op(label: str, case: str, path: str | None, *args: str) -> Op:
    argv = (args[0],) + ((path,) if path else ()) + tuple(args[1:])
    return Op(key=f"{label}:{' '.join(args)}", case=case, command=args[0], argv=argv)


def plan(workload: str, instance: int, files: list) -> list:
    """Ops of one pass over ``instance``, given its ``write_states`` triples."""
    s = str(instance)
    ops = []
    for label, case, path in files:
        if workload == "catalog-certify":
            ops += [
                _op(label, case, path, "ki"),
                _op(label, case, path, "merge", "--mode", "catalytic", "--verify"),
                _op(label, case, path, "merge", "--mode", "noncatalytic", "--verify"),
                _op(label, case, path, "split", "--verify"),
                _op(label, case, path, "bounds"),
                _op(label, case, path, "approx", "--epsilon", "0.1",
                    "--heuristic", "2", "--seed", s),
            ]
        elif workload == "random-merge":
            ops += [
                _op(label, case, path, "ki"),
                _op(label, case, path, "merge", "--mode", "catalytic", "--verify"),
                _op(label, case, path, "merge", "--mode", "noncatalytic", "--verify"),
                _op(label, case, path, "approx", "--epsilon", "0.05",
                    "--heuristic", "4", "--seed", s),
            ]
        else:
            ops.append(_op(label, case, path, "bounds"))
    if workload == "catalog-certify":
        ops.append(_op("corpus", "corpus", None, "verify-corpus", "--seed", s))
    return ops
