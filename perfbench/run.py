"""Seeded benchmark of the qsm certification pipeline.

Usage (from the repository root):

    python3 perfbench/run.py --workload catalog-certify --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload random-merge --record     # rewrite the reference

One op is a ``qsm.cli.run(argv)`` call on a generated state file followed by
the JSON encoding ``qsm.cli.main`` performs, written to a buffer.  A run is a
closed loop with one client in this process and no worker threads: passes
over the ops of one workload instance (``workloads.py``) follow each other,
instance ``seed % 16`` first, until ``--seconds`` have passed and the
op-latency samples are enough for the 90th percentile to have ten samples
beyond it.  Every op's output is checked against the recorded reference
(``outputs.py``).  With ``--trace 1`` untraced and traced passes over the
seed's instance alternate; the traced ones run with the layer functions
wrapped (``tracing.py``) and give the per-layer metrics.  The last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it name every metric with its unit, the
environment, each failed op, and for traced runs the time by layer.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import tracing
from outputs import checked_part, compare, load_reference, save_reference

BLAS_THREADS = "1"
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

REFERENCE_S = 1.3e-3  # host-speed kernel time on the reference host (see HostSpeed)
KERNEL_WINDOW = 4  # kernel samples on each side of an op's own two that set its speed
P_TAIL = 90  # tail percentile reported as op_p90_s
TAIL_BEYOND = 10  # samples that must lie beyond it
SETUP_REPEATS = 7
SETUP_KERNEL_SAMPLES = 5  # kernel samples taken before and after each setup
BUDGET_S = 120.0  # no pass starts that would end after this much measuring

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
OVERHEAD_METRICS = ("trace.ops_per_s_untraced", "trace.ops_per_s_traced", "trace.overhead_ops_per_s")
BASELINE_CASES = ("ghz3", "appendixD", "implication2", "random(2,3,2)", "random(4,6,4)")
BASELINE_COLUMNS = (  # (column, op command prefix, span, direct child left out)
    ("ki", "ki", "ki.ki_decompose", None),
    ("build nc", "merge --mode noncatalytic", "merge.build_merge_protocol", "ki.ki_decompose"),
    ("verify nc", "merge --mode noncatalytic", "locc.verify_protocol", None),
    ("build cat", "merge --mode catalytic", "merge.build_merge_protocol", "ki.ki_decompose"),
    ("verify cat", "merge --mode catalytic", "locc.verify_protocol", None),
    ("verify_split", "split", "split.verify_split", None),
    ("converse_search", "bounds", "bounds.converse_search", None),
    ("h_max", "bounds", "bounds.h_max_conditional", None),
)


def percentile(samples: list, pct: int) -> tuple:
    """Nearest-rank ``pct`` percentile and the number of samples beyond it."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[rank - 1], len(ordered) - rank


def min_samples(pct: int, beyond: int = TAIL_BEYOND) -> int:
    """Fewest samples for which ``beyond`` of them lie past the ``pct`` percentile."""
    n = 1
    while n - -(-n * pct // 100) < beyond:
        n += 1
    return n


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


class HostSpeed:
    """A fixed kernel that does not touch qsm, timed between ops.

    The speed of the shared host drifts by up to a factor of two over
    minutes, and every op slows with it.  End-to-end timings are therefore
    reported at the reference host speed: each is scaled by ``REFERENCE_S``
    over the median of the kernel times taken around it.  The kernel mixes
    interpreter work with small dense linear algebra, as most ops do; ops
    dominated by large matrices slow less than the kernel in the host's slow
    state, so their scaled times are less steady.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.mats = [rng.normal(size=(n, n)) for n in (4, 8, 16)]

    def sample(self) -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(3000):
            acc += i * i
        for _ in range(5):
            for m in self.mats:
                self.np.linalg.svd(m)
                self.np.linalg.eigh(m + m.T)
                m @ m
        return time.perf_counter() - start


def scaled(seconds: float, kernel_times: list) -> float:
    """``seconds`` at the reference host speed, given the kernel times around it."""
    return seconds * REFERENCE_S / statistics.median(kernel_times)


def _pin_blas_and_import_qsm():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS  # before numpy is first imported
    sys.path.insert(0, SRC)
    try:
        import qsm
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import qsm from {SRC}: {exc}")
    if not os.path.abspath(qsm.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: qsm was imported from {qsm.__file__}, not {SRC}")


def environment(args) -> dict:
    import numpy as np

    from workloads import POOL

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "qsm")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "first_instance": args.seed % POOL,
    }


def run_op(cli, op, span) -> tuple:
    """(seconds, encoded report or None, error or None) for one op."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with span("bench.op"):
            _, report = cli.run(list(op.argv))
            with span("cli.encode"):
                json.dump(cli._jsonable(report), buf, indent=2)
                buf.write("\n")
    except Exception as exc:  # a failing op is recorded and the pass goes on
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, buf.getvalue(), None


def _no_span(name):
    return contextlib.nullcontext()


def judge(op, text, error, refs) -> tuple:
    """(failure or None, whether the failure breaks correctness) for one op."""
    ref = refs.get(op.key)
    if error is not None:
        return error.split(":", 1)[0], ref is not None
    part = checked_part(text)
    if part["exit_code"] != 0:
        return f"exit {part['exit_code']}", ref is not None
    if ref is None:
        return "no reference", False
    mismatches = compare(ref, part)
    if mismatches:
        return "mismatch: " + "; ".join(mismatches[:3]), True
    return None, False


def measure_setup(args, files, host) -> tuple:
    """Wall times of fresh-process setups, the same at reference host speed,
    and whether all wrote identical files."""
    samples, adjusted, identical = [], [], True
    for k in range(SETUP_REPEATS):
        directory = os.path.join(OUT, f"setup-{args.workload}-{k}")
        shutil.rmtree(directory, ignore_errors=True)
        before = [host.sample() for _ in range(SETUP_KERNEL_SAMPLES)]
        start = time.perf_counter()
        # no timeout: with one, the wait polls and rounds the time up to 50 ms steps
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only", directory,
             "--workload", args.workload],
            check=True,
        )
        samples.append(time.perf_counter() - start)
        after = [host.sample() for _ in range(SETUP_KERNEL_SAMPLES)]
        adjusted.append(scaled(samples[-1], before + after))
        for _, _, path in {f for instance in files for f in instance}:
            other = os.path.join(directory, os.path.basename(path))
            with open(path, "rb") as a, open(other, "rb") as b:
                identical &= a.read() == b.read()
        shutil.rmtree(directory)
    return samples, adjusted, identical


def run_passes(cli, plans, refs, tracer, host, seconds, trace) -> list:
    """Closed loop over whole passes; returns one record per pass.

    Pass k runs ``plans[k % len(plans)]``; ``host`` is sampled between ops.
    A pass record holds each op's latency as measured and at reference host
    speed, and their sum as the pass time.  Untraced passes go on until
    ``seconds`` have passed and the latency samples suffice for the tail
    percentile.  With ``trace``, untraced and traced passes alternate,
    ending after a traced one.
    """
    need = min_samples(P_TAIL)
    passes = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        ops = plans[len(passes) % len(plans)]
        pass_ops = {}
        latencies, adjusted, failures, broken = [], [], [], 0
        with contextlib.ExitStack() as stack:
            span = _no_span
            if traced:
                stack.enter_context(tracing.installed(tracer))
                span = tracer.span
            outputs, kernel = [], [host.sample()]
            for op in ops:
                op_id = len(tracer.ops)
                tracer.ops.append(op)
                tracer.op = op_id
                pass_ops[op_id] = op.command
                outputs.append((op, *run_op(cli, op, span)))
                kernel.append(host.sample())
            tracer.op = None
        for i, (op, op_s, text, error) in enumerate(outputs):
            latencies.append(op_s)
            adjusted.append(scaled(op_s, kernel[max(0, i - KERNEL_WINDOW):i + KERNEL_WINDOW + 2]))
            failure, breaks = judge(op, text, error, refs)
            if failure:
                failures.append((op.key, failure))
                broken += breaks
        pass_s = sum(latencies)
        passes.append({
            "traced": traced, "seconds": pass_s, "ops": pass_ops, "latencies": latencies,
            "adjusted": adjusted, "kernel_s": kernel, "failures": failures, "broken": broken,
        })
        elapsed = time.perf_counter() - start
        untraced = sum(len(p["latencies"]) for p in passes if not p["traced"])
        if trace:
            done = elapsed >= seconds and len(passes) % 2 == 0
        else:
            done = elapsed >= seconds and untraced >= need
        if done or elapsed + pass_s > BUDGET_S:
            return passes


def end_to_end(passes, setup_raw, setup_adjusted) -> tuple:
    """End-to-end metrics at reference host speed, and a note on each."""
    plain = [p for p in passes if not p["traced"]]
    raw = [s for p in plain for s in p["latencies"]]
    latencies = [s for p in plain for s in p["adjusted"]]
    p90, beyond = percentile(latencies, P_TAIL)
    values = {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_s": statistics.median(latencies),
        "op_p90_s": p90,
        "setup_s": statistics.median(setup_adjusted),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    kernel = statistics.median(k for p in plain for k in p["kernel_s"])
    lo, hi = quartiles(latencies)
    notes = {
        "ops_per_s": "passes={} as measured {:.4g}; host kernel median {:.4g} ms vs {:.4g}".format(
            len(plain), len(raw) / sum(raw), 1e3 * kernel, 1e3 * REFERENCE_S
        ),
        "op_p50_s": f"n={len(latencies)} quartiles {lo:.4g}..{hi:.4g} as measured {statistics.median(raw):.4g}",
        "op_p90_s": f"n={len(latencies)} samples beyond={beyond} as measured {percentile(raw, P_TAIL)[0]:.4g}",
        "setup_s": "n={} quartiles {:.4g}..{:.4g} as measured {:.4g}".format(
            len(setup_adjusted), *quartiles(setup_adjusted), statistics.median(setup_raw)
        ),
        "peak_rss_mb": "ru_maxrss of this process",
    }
    return values, notes


def per_layer(passes, tracer) -> tuple:
    traced = [p for p in passes if p["traced"]]
    rows = [tracing.layer_metrics(tracer, p["ops"]) for p in traced]
    # counts repeat exactly between traced passes (``varying`` lists any that
    # do not); times are the median over them
    values = {
        k: rows[0][k] if k in tracing.COUNT_METRICS else statistics.median(r[k] for r in rows)
        for k in rows[0]
    }
    varying = sorted(
        k for k in tracing.COUNT_METRICS if len({row[k] for row in rows}) > 1
    )
    plain = [p for p in passes if not p["traced"]]

    def rate(group):
        return sum(len(p["latencies"]) for p in group) / sum(p["seconds"] for p in group)

    values.update(zip(OVERHEAD_METRICS, (rate(plain), rate(traced), rate(plain) - rate(traced))))
    all_ops = {op: cmd for p in traced for op, cmd in p["ops"].items()}
    errors = {
        layer: dict(count)
        for layer, count in tracing.error_counts(tracer, all_ops).items()
        if count
    }
    return values, varying, errors


def layer_unit(name: str) -> str:
    if name.startswith("trace."):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") or name.endswith("_per_op") else "count"


def attribution(passes, tracer) -> dict:
    """Layer shares of traced op time, per command and per baseline case and command."""
    selfs = tracing.self_times(tracer.spans)
    groups = {}
    for p in passes:
        if p["traced"]:
            for op_id in p["ops"]:
                op = tracer.ops[op_id]
                groups.setdefault(op.command, set()).add(op_id)
                if op.case in BASELINE_CASES:
                    groups.setdefault(f"{op.case} {op.command}", set()).add(op_id)
    return {
        name: {k: round(v, 4) for k, v in tracing.layer_shares(tracer.spans, selfs, ids).items()}
        for name, ids in sorted(groups.items())
    }


def baseline_rows(passes, tracer) -> dict:
    """ROADMAP baseline columns (ms, median over traced passes and states of a case)."""
    rows = {}
    for case in BASELINE_CASES:
        row = {}
        for column, prefix, name, exclude in BASELINE_COLUMNS:
            found = []
            for p in passes:
                if not p["traced"]:
                    continue
                for op_id in p["ops"]:
                    op = tracer.ops[op_id]
                    if op.case == case and op.key.split(":", 1)[1].startswith(prefix):
                        value = tracing.inclusive(tracer, op_id, name, exclude)
                        if value is not None:
                            found.append(value)
            row[column] = round(1e3 * statistics.median(found), 3) if found else None
        if any(v is not None for v in row.values()):
            rows[case] = row
    return rows


def write_spans(path, tracer, origin) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in tracer.spans:
            fh.write(json.dumps(
                [s.name, s.start - origin, s.end - origin, s.parent, s.op, s.error]
            ) + "\n")


def record(args) -> int:
    """Run every op of every instance once and store the outputs as the reference."""
    import qsm.cli as cli
    from workloads import POOL, plan, write_states

    refs = {}
    files = write_states(args.workload, os.path.join(OUT, "record", args.workload))
    for instance in range(POOL):
        for op in plan(args.workload, instance, files[instance]):
            if op.key in refs:
                continue
            _, text, error = run_op(cli, op, _no_span)
            part = None if error else checked_part(text)
            refs[op.key] = part if part and part["exit_code"] == 0 else None
            if refs[op.key] is None:
                print(f"no reference (fails today): {op.key}: {error or part['exit_code']}",
                      file=sys.stderr)
        print(f"recorded instance {instance}", file=sys.stderr, flush=True)
    env = environment(args)
    for key in ("seed", "first_instance"):
        env.pop(key)
    save_reference(args.workload, env, refs)
    return 0


def main(argv=None) -> int:
    import qsm.cli as cli
    from workloads import POOL, WORKLOADS, plan, write_states

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite the reference outputs")
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {WORKLOADS}")
    if args.setup_only:
        write_states(args.workload, args.setup_only)
        return 0
    if args.record:
        return record(args)

    env = environment(args)
    state_dir = os.path.join(OUT, "states", args.workload)
    files = write_states(args.workload, state_dir)
    host = HostSpeed()
    setup_raw, setup_adjusted, identical = measure_setup(args, files, host)
    refs = load_reference(args.workload)["ops"]
    # untraced passes go through the instances from the seed's on; traced
    # runs repeat the seed's instance so traced and untraced passes match
    order = [(args.seed + k) % POOL for k in range(1 if args.trace else POOL)]
    plans = [plan(args.workload, instance, files[instance]) for instance in order]
    env["ops_per_pass"] = len(plans[0])
    print("environment " + json.dumps(env, sort_keys=True), flush=True)

    tracer = tracing.Tracer()
    for op in plans[0]:  # warm-up on the first state, not measured
        if op.case == plans[0][0].case:
            run_op(cli, op, _no_span)
    origin = time.perf_counter()
    passes = run_passes(cli, plans, refs, tracer, host, args.seconds, bool(args.trace))

    attempted = sum(len(p["latencies"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    broken = sum(p["broken"] for p in passes)
    correct = identical and broken == 0
    print(
        f"ops attempted={attempted} failed={len(failures)} "
        f"fail_ratio={len(failures) / attempted:.6g} (ratio) "
        f"setup_files_identical={identical}",
        flush=True,
    )
    for key, failure in sorted(set(failures)):
        print(f"failed op {key}: {failure}")

    details = {
        "env": env,
        "failures": failures,
        "correct": correct,
        "setup_seconds": setup_raw,
        "setup_seconds_adjusted": setup_adjusted,
        "passes": [
            {"traced": p["traced"], "seconds": p["seconds"],
             "kernel_seconds": p["kernel_s"],
             "op_seconds": {tracer.ops[i].key: t for i, t in zip(p["ops"], p["latencies"])}}
            for p in passes
        ],
    }
    if args.trace:
        values, varying, errors = per_layer(passes, tracer)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
        details["errors_by_type"] = errors
        details["baseline_ms"] = baseline_rows(passes, tracer)
        details["layer_shares"] = attribution(passes, tracer)
        for name, shares in details["layer_shares"].items():
            top = ", ".join(f"{k} {v:.1%}" for k, v in list(shares.items())[:4])
            print(f"time by layer, {name}: {top}")
        for layer, count in errors.items():
            print(f"errors {layer}: {json.dumps(count, sort_keys=True)}")
        if varying:
            print(f"counts that differ between traced passes: {varying}")
        print("baseline (ms; inclusive span time, build excludes ki): "
              + ", ".join(c for c, *_ in BASELINE_COLUMNS))
        for case, row in details["baseline_ms"].items():
            print(f"  {case}: " + json.dumps(row))
        write_spans(os.path.join(OUT, f"{args.workload}-seed{args.seed}.spans.jsonl"),
                    tracer, origin)
    else:
        values, notes = end_to_end(passes, setup_raw, setup_adjusted)
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        for k, v in values.items():
            print(f"{k} {v:.6g} {END_TO_END_UNITS[k]} ({notes[k]})")
    details["metrics"] = metrics
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    _pin_blas_and_import_qsm()
    sys.exit(main())
