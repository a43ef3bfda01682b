"""The benchmark's correctness gate, replayed on instance 0 of every workload.

Every op of the instance runs through ``cli.run`` and the JSON encoding of
``cli.main`` (the bench's ``run_op``), and its checked part must match the
recorded reference under the bench's own comparator.  A change to any
report on this path then fails here, not only in a bench run.  The
catalog-certify ``approx`` ops are left out: implication2's takes seconds.
"""

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import qsm.cli as cli  # noqa: E402
import run  # noqa: E402
from outputs import checked_part, compare, load_reference  # noqa: E402
from workloads import plan, write_states  # noqa: E402


def _replay_instance_0(tmp_path, workload, count):
    refs = load_reference(workload)["ops"]
    ops = plan(workload, 0, write_states(workload, str(tmp_path))[0])
    ops = [op for op in ops if not (workload == "catalog-certify" and op.command == "approx")]
    assert len(ops) == count
    for op in ops:
        assert refs[op.key] is not None, op.key
        _, text, error = run.run_op(cli, op, run._no_span)
        assert error is None, (op.key, error)
        assert compare(refs[op.key], checked_part(text)) == [], op.key


def test_random_merge_instance_0_matches_reference(tmp_path):
    _replay_instance_0(tmp_path, "random-merge", 48)


@pytest.mark.parametrize(
    "workload, count", [("catalog-certify", 46), ("bounds-sdp", 15)],
    ids=["catalog-certify", "bounds-sdp"],
)
def test_instance_0_matches_reference(tmp_path, workload, count):
    _replay_instance_0(tmp_path, workload, count)
