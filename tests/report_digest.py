"""Digest of the reports of a fixed op corpus, to check that a change keeps
every report byte-identical.

Run from the repository root, with no options::

    python3 tests/report_digest.py

It writes the bench states (``perfbench/workloads.write_states``) to a
temporary directory and runs, through ``qsm.cli.run`` at one BLAS thread as
the bench does, every distinct op of catalog-certify instances 0-3,
random-merge instances 0-5 and bounds-sdp instance 0, then ``verify-corpus``
at seeds 0, 1 and 7.  For each op it prints ``key sha256``: the hash of the
``cli._jsonable`` report as sorted JSON, without ``wall_time_s`` and with the
state directory cut out of every path, so exit codes, errors and summaries
count too.  The last line is the hash of all op lines.  Equal totals on two
trees mean equal reports.
"""

import hashlib
import json
import os
import sys
import tempfile

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is first imported
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(_ROOT, "src"), os.path.join(_ROOT, "perfbench")]

import qsm.cli as cli  # noqa: E402
from workloads import plan, write_states  # noqa: E402

INSTANCES = {"catalog-certify": range(4), "random-merge": range(6), "bounds-sdp": range(1)}
CORPUS_SEEDS = (0, 1, 7)


def main() -> int:
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        ops = {}  # key -> argv, first occurrence wins
        for workload, instances in INSTANCES.items():
            files = write_states(workload, os.path.join(tmp, workload))
            for instance in instances:
                for op in plan(workload, instance, files[instance]):
                    ops.setdefault(op.key, op.argv)
        for seed in CORPUS_SEEDS:
            ops.setdefault(f"corpus:verify-corpus --seed {seed}", ("verify-corpus", "--seed", str(seed)))
        for key, argv in ops.items():
            _, report = cli.run(list(argv))
            report.pop("wall_time_s", None)
            text = json.dumps(cli._jsonable(report), sort_keys=True).replace(tmp + os.sep, "")
            line = f"{key} {hashlib.sha256(text.encode()).hexdigest()}"
            print(line, flush=True)
            total.update(line.encode() + b"\n")
    print(f"total {len(ops)} reports {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
