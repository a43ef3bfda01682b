"""Command-line entry point: inspectable runs of every library component.

Each subcommand loads and validates its inputs, computes, and emits a JSON
run report on stdout plus a one-line human summary on stderr (suppressed by
``--quiet``).  Exit codes: 0 success, 2 invalid input, 3 a verification that
should have passed did not, 64 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
import time
from fractions import Fraction

import numpy as np

from . import __version__
from .approx import best_smoothing_candidate, verify_approximate_merge
from .bounds import (
    H_MAX_DIM_CAP,
    SEARCH_DEFAULT,
    compare_bounds,
    converse_search,
    converse_simple,
    h_max_conditional,
)
from .errors import ValidationError, VerificationError
from .ki import ki_decompose
from .merge import DEFAULT_DELTA, build_merge_protocol, verify_merge
from .numerics import BOUND_SLACK, COST_SLACK
from .split import build_split_protocol, split_cost, verify_split
from .statespace import CATALOG_NAMES, catalog, encode_complex, load_state, random_state, save_state

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_VERIFICATION = 3
EXIT_USAGE = 64


class _UsageError(Exception):
    def __init__(self, message: str, usage: str):
        super().__init__(message)
        self.usage = usage


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want 64 + report
        raise _UsageError(message, self.format_usage())


def _jsonable(obj):
    """Recursively convert report objects to JSON-serializable structures."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        }
    if isinstance(obj, (np.ndarray, complex)):
        doc = encode_complex(obj) if np.iscomplexobj(obj) else obj.tolist()
        # non-finite entries take the float rule below
        return doc if np.isfinite(obj).all() else _jsonable(doc)
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return _jsonable(obj.item())
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(obj)
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`run` uses, built on first use; parsing leaves it unchanged."""
    parser = _Parser(prog="qsm", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--quiet", action="store_true", help="suppress the stderr summary line"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", parents=[common], help="emit a named example state")
    p.add_argument("name", help="state name (ghz needs --d)")
    p.add_argument("--d", type=int, default=None, help="dimension for ghz")
    p.add_argument("-o", "--out", default=None, help="write the state file here")

    p = sub.add_parser("ki", parents=[common], help="block decomposition of a state file")
    p.add_argument("state", help="input state file")

    p = sub.add_parser("merge", parents=[common], help="merging cost and protocol")
    p.add_argument("state", help="input state file")
    p.add_argument("--mode", choices=("catalytic", "noncatalytic"), default="catalytic")
    p.add_argument("--delta", type=float, default=DEFAULT_DELTA, help="cost slack for the catalytic rational fit")
    p.add_argument("--verify", action="store_true", help="simulate every branch against the target")
    p.add_argument("--dump-protocol", action="store_true", help="include branch operators in the report")

    p = sub.add_parser("split", parents=[common], help="splitting cost and protocol")
    p.add_argument("state", help="input state file (third register is transmitted)")
    p.add_argument("--verify", action="store_true", help="simulate every branch against the target")

    p = sub.add_parser("bounds", parents=[common], help="cost lower bounds")
    p.add_argument("state", help="input state file")
    p.add_argument("--kmax", type=int, default=SEARCH_DEFAULT, help="consumed-resource search cap, at most 4096")
    p.add_argument("--lmax", type=int, default=SEARCH_DEFAULT, help="returned-resource search cap, at most 4096")

    p = sub.add_parser("approx", parents=[common], help="approximate-merge chain")
    p.add_argument("state", help="input state file")
    p.add_argument("--epsilon", type=float, required=True, help="allowed error, in [0, 1]")
    p.add_argument("--candidate", default=None, help="candidate state file (defaults to the state itself)")
    p.add_argument("--heuristic", type=int, default=None, metavar="N", help="try N seeded in-ball candidates instead")
    p.add_argument("--mode", choices=("catalytic", "noncatalytic"), default="noncatalytic")
    p.add_argument("--delta", type=float, default=DEFAULT_DELTA)
    p.add_argument("--seed", type=int, default=0, help="heuristic seed")

    p = sub.add_parser("verify-corpus", parents=[common], help="golden states + seeded property checks")
    p.add_argument("--seed", type=int, default=7, help="seed for the random-state checks")
    return parser


# --------------------------------------------------------------------------
# subcommand implementations (each returns (results, summary, exit_code))


def _run_catalog(args):
    state = catalog(args.name, d=args.d)
    results = {
        "name": state.name,
        "dims": {"R": state.dims[0], "A": state.dims[1], "B": state.dims[2]},
    }
    if args.out:
        save_state(state, args.out)
        results["saved_to"] = args.out
        summary = f"catalog {state.name}: dims {state.dims} -> {args.out}"
    else:
        results["amplitudes"] = _jsonable(np.asarray(state.amplitudes))
        summary = f"catalog {state.name}: dims {state.dims}"
    return results, summary, EXIT_OK


def _run_ki(args):
    state = load_state(args.state)
    decomp = ki_decompose(state)
    results = {
        "J": decomp.J,
        "r": decomp.r,
        "trajectory": list(decomp.trajectory),
        "blocks": [
            {
                "index": block.index,
                "p": block.p,
                "dim_L": block.dim_L,
                "dim_R": block.dim_R,
                "dim_bL": block.dim_bL,
                "dim_bR": block.dim_bR,
                "lambda0_L": block.lambda0_L,
                "redundant_spectrum": _jsonable(np.asarray(block.lambdas, dtype=float)),
            }
            for block in decomp.blocks
        ],
    }
    summary = (
        f"ki {args.state}: J={decomp.J} blocks "
        f"{[(b.dim_L, b.dim_R) for b in decomp.blocks]}, r={decomp.r}"
    )
    return results, summary, EXIT_OK


def _run_merge(args):
    state = load_state(args.state)
    build = build_merge_protocol(state, mode=args.mode, delta=args.delta)
    rep = build.report
    results = {
        "mode": rep.mode,
        "K": rep.K,
        "L": rep.L,
        "cost_bits": rep.cost_bits,
        "leading_block": rep.j0,
        "lambda_tilde": _jsonable(rep.lambda_tilde),
        "delta": rep.delta,
        "branch_count": len(build.protocol.branches),
        "blocks": [_jsonable(bc) for bc in rep.blocks],
    }
    code = EXIT_OK
    if args.verify:
        ver = verify_merge(state, build)
        results["verification"] = _jsonable(ver)
        if not ver.passed:
            code = EXIT_VERIFICATION
    if args.dump_protocol:
        results["protocol"] = {
            "name": build.protocol.name,
            "branches": [
                {
                    "label": list(label),
                    "a_op": _jsonable(a_op),
                    "b_op": _jsonable(b_op),
                }
                for label, a_op, b_op in zip(
                    build.protocol.branches,
                    build.protocol.a_ops,
                    build.protocol.b_ops,
                )
            ],
        }
    summary = (
        f"merge {args.state}: mode={rep.mode} K={rep.K} L={rep.L} "
        f"cost={rep.cost_bits:.6g}"
    )
    if args.verify:
        summary += f" verified={results['verification']['passed']}"
    return results, summary, code


def _run_split(args):
    state = load_state(args.state)
    rep = split_cost(state)
    protocol = build_split_protocol(state)
    results = {
        "rank": rep.rank,
        "cost_bits": rep.cost_bits,
        "asymptotic_rate": rep.asymptotic_rate,
        "branch_count": len(protocol.branches),
    }
    code = EXIT_OK
    if args.verify:
        ver, witness = verify_split(state, protocol)
        results["verification"] = _jsonable(ver)
        results["rank_monotonicity"] = _jsonable(witness)
        if not ver.passed:
            code = EXIT_VERIFICATION
    summary = f"split {args.state}: rank={rep.rank} cost={rep.cost_bits:.6g}"
    if args.verify:
        summary += f" verified={results['verification']['passed']}"
    return results, summary, code


def _run_bounds(args):
    state = load_state(args.state)
    simple = converse_simple(state)
    search = converse_search(state, K_max=args.kmax, L_max=args.lmax)
    results = {"simple": _jsonable(simple), "search": _jsonable(search)}
    total_dim = state.dims[0] * state.dims[1] * state.dims[2]
    if total_dim <= H_MAX_DIM_CAP:
        h_max = h_max_conditional(state)
        results["h_max"] = h_max
        results["gap_simple_minus_h_max"] = simple["catalytic"] - h_max
        h_text = f" h_max={h_max:.6g}"
    else:
        results["h_max"] = None
        results["h_max_note"] = (
            f"skipped: total dimension exceeds the {H_MAX_DIM_CAP}-dimensional solver cap"
        )
        h_text = " h_max=skipped"
    summary = (
        f"bounds {args.state}: simple={simple['catalytic']:.6g} "
        f"search={search.catalytic_bits:.6g}" + h_text
    )
    return results, summary, EXIT_OK


def _run_approx(args):
    state = load_state(args.state)
    if args.heuristic is not None and args.candidate is not None:
        raise ValidationError("--candidate and --heuristic are mutually exclusive")
    if args.heuristic is not None:
        cert = best_smoothing_candidate(
            state,
            args.epsilon,
            mode=args.mode,
            delta=args.delta,
            candidates=args.heuristic,
            seed=args.seed,
        )
        source = f"heuristic(best of {args.heuristic}, seed {args.seed})"
    else:
        cand = load_state(args.candidate) if args.candidate else state
        cert = verify_approximate_merge(
            state, cand, args.epsilon, mode=args.mode, delta=args.delta
        )
        source = args.candidate or "state itself"
    results = {
        "epsilon": cert.epsilon,
        "mode": cert.mode,
        "candidate_source": source,
        "input_fidelity_sq": cert.input_fidelity_sq,
        "K": cert.K,
        "L": cert.L,
        "cost_bits": cert.cost_bits,
        "output_fidelity_sq": cert.output_fidelity_sq,
    }
    summary = (
        f"approx {args.state}: eps={cert.epsilon} cost={cert.cost_bits:.6g} "
        f"output_fidelity_sq={cert.output_fidelity_sq:.8f}"
    )
    return results, summary, EXIT_OK


def _run_verify_corpus(args):
    if args.seed < 0:
        raise ValidationError(f"--seed must be nonnegative, got {args.seed}")
    checks = []

    def record(name, passed, detail=""):
        entry = {"check": name, "passed": bool(passed)}
        if detail:
            entry["detail"] = detail
        checks.append(entry)

    # the golden corpus is the catalog: ghz at d = 2 and 3, then every other state
    corpus = [(f"ghz{d}", catalog("ghz", d=d)) for d in (2, 3)]
    corpus += [(name, catalog(name)) for name in CATALOG_NAMES if name != "ghz"]
    for label, state in corpus:
        decomp = ki_decompose(state)
        for mode in ("catalytic", "noncatalytic"):  # noncatalytic last: noncat keeps its cost
            build = build_merge_protocol(state, decomp, mode=mode)
            ver, noncat = verify_merge(state, build), build.report.cost_bits
            del build  # one build alive at a time: two raised the bench's peak RSS by 6 MB
            record(f"{label}:merge-{mode}", ver.passed,
                   f"min branch fidelity {ver.min_branch_fidelity:.12f}")
        record(f"{label}:split", verify_split(state)[0].passed)
        search = converse_search(state, K_max=16, L_max=16)
        record(
            f"{label}:search-below-achievable",
            search.noncatalytic_bits <= noncat + COST_SLACK,
            f"search {search.noncatalytic_bits:.6g} vs achievable {noncat:.6g}",
        )

    rng = np.random.default_rng(args.seed)
    for idx, dims in enumerate(((2, 2, 2), (2, 3, 2), (2, 2, 2), (3, 2, 2), (2, 3, 2))):
        state = random_state(rng, dims, name=f"random{idx}")
        ver = verify_merge(state, build_merge_protocol(state, mode="noncatalytic"))
        record(f"random{idx}:merge-noncatalytic", ver.passed)
        record(f"random{idx}:split", verify_split(state)[0].passed)
        report = compare_bounds(state, K_max=8, L_max=8)
        record(f"random{idx}:bound-ordering", report.gap >= -BOUND_SLACK,
               f"gap {report.gap:.6g}")

    all_passed = all(c["passed"] for c in checks)
    results = {"checks": checks, "all_passed": all_passed, "seed": args.seed}
    failed = [c["check"] for c in checks if not c["passed"]]
    summary = (
        f"verify-corpus: {len(checks)} checks, "
        + ("all passed" if all_passed else f"FAILED: {failed}")
    )
    return results, summary, EXIT_OK if all_passed else EXIT_VERIFICATION


_DISPATCH = {
    "catalog": _run_catalog,
    "ki": _run_ki,
    "merge": _run_merge,
    "split": _run_split,
    "bounds": _run_bounds,
    "approx": _run_approx,
    "verify-corpus": _run_verify_corpus,
}


def run(argv=None) -> tuple[int, dict]:
    """Parse ``argv``, execute the subcommand, and return (exit code, report)."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = _parser().parse_args(argv)
    except _UsageError as exc:
        return EXIT_USAGE, {
            "command": None,
            "error": str(exc),
            "usage": exc.usage,
            "version": __version__,
        }
    start = time.perf_counter()
    report = {
        "command": args.command,
        "inputs": {
            k: v for k, v in sorted(vars(args).items()) if k != "command"
        },
        "version": __version__,
        "seed": getattr(args, "seed", None),
    }
    try:
        results, summary, code = _DISPATCH[args.command](args)
        report["results"] = results
        report["summary"] = summary
    except ValidationError as exc:
        report["error"] = str(exc)
        report["summary"] = f"{args.command}: invalid input: {exc}"
        code = EXIT_VALIDATION
    except VerificationError as exc:  # includes solver failures
        report["error"] = str(exc)
        report["summary"] = f"{args.command}: verification failed: {exc}"
        code = EXIT_VERIFICATION
    report["exit_code"] = code
    report["wall_time_s"] = time.perf_counter() - start
    return code, report


def main(argv=None) -> int:
    code, report = run(argv)
    json.dump(_jsonable(report), sys.stdout, indent=2)
    sys.stdout.write("\n")
    quiet = bool(report.get("inputs", {}).get("quiet"))
    if not quiet:
        if "usage" in report:
            sys.stderr.write(report["usage"])
        line = report.get("summary") or report.get("error") or report.get("command") or ""
        if line:
            sys.stderr.write(f"{line}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
