"""The benchmark's correctness gate, replayed on instance 0 of every workload.

Every op of the instance runs through ``cli.run`` and the JSON encoding of
``cli.main`` (the bench's ``run_op``), and its checked part must match the
recorded reference under the bench's own comparator.  A change to any
report on this path then fails here, not only in a bench run.
"""

import os
import sys

import numpy as np
import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import qsm.cli as cli  # noqa: E402
from qsm.locc import apply_protocol  # noqa: E402
from qsm.split import build_split_protocol  # noqa: E402
from qsm.statespace import TripartiteState  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from outputs import checked_part, compare, load_reference  # noqa: E402
from workloads import plan, write_states  # noqa: E402


def _replay_instance_0(tmp_path, workload, count):
    refs = load_reference(workload)["ops"]
    ops = plan(workload, 0, write_states(workload, str(tmp_path))[0])
    assert len(ops) == count
    for op in ops:
        assert refs[op.key] is not None, op.key
        _, text, error = run.run_op(cli, op, run._no_span)
        assert error is None, (op.key, error)
        assert compare(refs[op.key], checked_part(text)) == [], op.key


def test_random_merge_instance_0_matches_reference(tmp_path):
    _replay_instance_0(tmp_path, "random-merge", 48)


@pytest.mark.parametrize(
    "workload, count", [("catalog-certify", 55), ("bounds-sdp", 15)],
    ids=["catalog-certify", "bounds-sdp"],
)
def test_instance_0_matches_reference(tmp_path, workload, count):
    _replay_instance_0(tmp_path, workload, count)


def test_tracing_notes_read_apply_protocol_calls():
    """The bench notes an ``apply_protocol`` span from the protocol, passed
    first or as ``protocol=``, and from the length of the returned list."""
    amps = np.zeros((1, 2, 4), dtype=complex)
    amps[0, 0, 0], amps[0, 1, 1] = np.sqrt(0.7), np.sqrt(0.3)
    state = TripartiteState(amps)
    protocol = build_split_protocol(state)  # rank 2 of 4: kernel branches never fire
    note = tracing._NOTES["apply_protocol"]
    expected = {"branches": 8, "live": 4, "a_in": 16}
    args = (protocol, state.amplitudes, 2)
    assert note(args, {}, apply_protocol(*args)) == expected
    kwargs = {"protocol": protocol, "amplitudes": state.amplitudes, "pair_rank": 2}
    assert note((), kwargs, apply_protocol(**kwargs)) == expected
