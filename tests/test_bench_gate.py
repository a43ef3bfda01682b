"""The benchmark's correctness gate, replayed on one random-merge instance.

Every op of instance 0 runs through ``cli.run`` and the JSON encoding of
``cli.main`` (the bench's ``run_op``), and its checked part must match the
recorded reference under the bench's own comparator.  A change to any
report on this path then fails here, not only in a bench run.
"""

import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import qsm.cli as cli  # noqa: E402
import run  # noqa: E402
from outputs import checked_part, compare, load_reference  # noqa: E402
from workloads import plan, write_states  # noqa: E402


def test_random_merge_instance_0_matches_reference(tmp_path):
    refs = load_reference("random-merge")["ops"]
    ops = plan("random-merge", 0, write_states("random-merge", str(tmp_path))[0])
    assert len(ops) == 48
    for op in ops:
        assert refs[op.key] is not None, op.key
        _, text, error = run.run_op(cli, op, run._no_span)
        assert error is None, (op.key, error)
        assert compare(refs[op.key], checked_part(text)) == [], op.key
