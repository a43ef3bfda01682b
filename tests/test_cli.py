"""End-to-end checks of the command-line interface: exit codes, report shape,
determinism, and the documented usage examples."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qsm
import qsm.cli as cli
from qsm.errors import VerificationError
from qsm.ki import ki_decompose


def _state_file(tmp_path, name, d=None):
    path = tmp_path / f"{name}{d or ''}.json"
    argv = ["catalog", name, "-o", str(path), "--quiet"]
    if d is not None:
        argv[2:2] = ["--d", str(d)]
    code, _ = cli.run(argv)
    assert code == 0
    return path


def test_catalog_then_merge_pipeline(tmp_path):
    path = _state_file(tmp_path, "ghz", d=3)
    code, report = cli.run(
        ["merge", str(path), "--mode", "noncatalytic", "--verify"]
    )
    assert code == 0
    res = report["results"]
    assert res["cost_bits"] == pytest.approx(0.0, abs=1e-12)
    assert res["K"] == 1 and res["L"] == 1
    assert res["verification"]["passed"] is True
    assert report["exit_code"] == 0


def test_ki_reports_blocks(tmp_path):
    path = _state_file(tmp_path, "appendixD")
    code, report = cli.run(["ki", str(path)])
    assert code == 0
    res = report["results"]
    assert res["J"] == 2
    assert [(b["dim_L"], b["dim_R"]) for b in res["blocks"]] == [(2, 2), (2, 1)]
    assert res["r"] == 5


def test_unknown_flag_is_usage_error(tmp_path):
    path = _state_file(tmp_path, "ghz", d=2)
    code, report = cli.run(["merge", str(path), "--bogus-flag"])
    assert code == 64
    assert "usage" in report

    code, _ = cli.run([])
    assert code == 64

    code, _ = cli.run(["no-such-command"])
    assert code == 64


def test_invalid_inputs_exit_2(tmp_path):
    code, report = cli.run(["merge", str(tmp_path / "missing.json")])
    assert code == 2
    assert "error" in report

    bad = tmp_path / "bad.json"
    bad.write_text('{"broken"')
    code, _ = cli.run(["ki", str(bad)])
    assert code == 2

    # negative error budget
    path = _state_file(tmp_path, "ghz", d=2)
    code, _ = cli.run(["approx", str(path), "--epsilon", "-0.5"])
    assert code == 2

    # mutually exclusive candidate sources
    code, _ = cli.run(
        ["approx", str(path), "--epsilon", "0.1", "--candidate", str(path),
         "--heuristic", "2"]
    )
    assert code == 2


_AMP = 0.7071067811865475
_GHZ2_ROWS = [[0, 0, 0, _AMP, 0.0], [1, 1, 1, _AMP, 0.0]]


@pytest.mark.parametrize(
    "dims, rows, field",
    [
        ({"R": 2, "A": 2, "B": 2}, [[0, 0, 0, float("nan"), 0.0]], "amps[0][3]"),
        ({"R": 2, "A": 2, "B": 2}, [_GHZ2_ROWS[0], [1, float("nan"), 1, _AMP, 0.0]], "amps[1][1]"),
        ({"R": 2, "A": 2, "B": 2}, [[0.5, 0, 0, _AMP, 0.0], _GHZ2_ROWS[1]], "amps[0][0]"),
        ({"R": 2, "A": True, "B": 2}, _GHZ2_ROWS, "dims.A"),
        ({"R": 2, "A": 2, "B": 2.7}, _GHZ2_ROWS, "dims.B"),
    ],
    ids=["nan-amplitude", "nan-index", "fractional-index", "bool-dim", "fractional-dim"],
)
def test_malformed_state_file_exits_2_naming_field(tmp_path, dims, rows, field):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps({"version": 1, "dims": dims, "amps": rows}))
    code, report = cli.run(["merge", str(path)])
    assert code == 2
    assert report["exit_code"] == 2
    assert field in report["error"]


_HUGE = 1_000_000  # a 10^18-entry tensor: numpy refuses it before allocating


@pytest.mark.parametrize(
    "argv",
    [["ki", "STATE"], ["bounds", "STATE"], ["catalog", "ghz", "--d", str(_HUGE)]],
    ids=["ki", "bounds", "catalog-ghz"],
)
def test_oversized_dimensions_exit_2_naming_them(tmp_path, argv):
    path = tmp_path / "huge.json"
    dims = {"R": _HUGE, "A": _HUGE, "B": _HUGE}
    path.write_text(json.dumps({"version": 1, "dims": dims, "amps": [[0, 0, 0, 1.0, 0.0]]}))
    code, report = cli.run([str(path) if arg == "STATE" else arg for arg in argv])
    assert code == 2
    assert report["exit_code"] == 2
    assert f"({_HUGE}, {_HUGE}, {_HUGE})" in report["error"]


@pytest.mark.parametrize(
    "command, options, field",
    [
        ("merge", ["--delta", "nan"], "delta"),
        ("merge", ["--delta", "inf"], "delta"),
        ("approx", ["--epsilon", "nan"], "epsilon"),
        ("approx", ["--epsilon", "inf"], "epsilon"),
        ("approx", ["--epsilon", "nan", "--heuristic", "2"], "epsilon"),
        ("merge", ["--mode", "noncatalytic", "--delta", "nan"], "delta"),
        ("merge", ["--mode", "noncatalytic", "--delta", "-1"], "delta"),
        ("approx", ["--epsilon", "0.1", "--delta", "nan"], "delta"),
        ("approx", ["--epsilon", "0.1", "--heuristic", "2", "--mode", "catalytic",
                    "--delta", "nan"], "delta"),
    ],
    ids=["merge-delta-nan", "merge-delta-inf", "approx-epsilon-nan", "approx-epsilon-inf",
         "heuristic-epsilon-nan", "noncatalytic-delta-nan", "noncatalytic-delta-negative",
         "approx-delta-nan", "heuristic-delta-nan"],
)
def test_non_finite_parameter_exits_2_naming_field(tmp_path, command, options, field):
    path = _state_file(tmp_path, "implication3")
    code, report = cli.run([command, str(path), *options])
    assert code == 2
    assert report["exit_code"] == 2
    assert field in report["error"]
    assert "results" not in report


def test_verification_failure_exit_3(tmp_path, monkeypatch):
    def boom(args):
        raise VerificationError("forced failure")

    monkeypatch.setitem(cli._DISPATCH, "ki", boom)
    path = _state_file(tmp_path, "ghz", d=2)
    code, report = cli.run(["ki", str(path)])
    assert code == 3
    assert "forced failure" in report["error"]


def test_split_cli(tmp_path):
    path = _state_file(tmp_path, "ghz", d=2)
    code, report = cli.run(["split", str(path), "--verify"])
    assert code == 0
    res = report["results"]
    assert res["rank"] == 2
    assert res["cost_bits"] == pytest.approx(1.0, abs=1e-12)
    assert res["verification"]["passed"] is True
    assert all(
        rec["rank_after"] <= rec["rank_before"] for rec in res["rank_monotonicity"]
    )


def test_split_cli_builds_protocol_once(tmp_path, monkeypatch):
    import qsm.split

    path = _state_file(tmp_path, "implication2")
    _, before = cli.run(["split", str(path), "--verify"])
    calls = []

    def counting(name):
        original = getattr(qsm.split, name)

        def wrapper(state):
            calls.append(name)
            return original(state)

        monkeypatch.setattr(cli, name, wrapper)
        monkeypatch.setattr(qsm.split, name, wrapper)

    counting("build_split_protocol")
    counting("split_cost")
    code, after = cli.run(["split", str(path), "--verify"])
    assert code == 0
    assert sorted(calls) == ["build_split_protocol", "split_cost"]
    before.pop("wall_time_s")
    after.pop("wall_time_s")
    assert json.dumps(after, default=str) == json.dumps(before, default=str)


@pytest.mark.parametrize("mode", ["catalytic", "noncatalytic"])
def test_merge_svd_failure_exits_3_naming_branch(tmp_path, monkeypatch, mode):
    path = _state_file(tmp_path, "implication3")
    original = cli.build_merge_protocol

    def failing_svd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    def build_without_svd(state, **kwargs):
        decomp = ki_decompose(state)
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "svd", failing_svd)
            return original(state, decomp, **kwargs)

    monkeypatch.setattr(cli, "build_merge_protocol", build_without_svd)
    code, report = cli.run(["merge", str(path), "--mode", mode])
    assert code == 3
    assert "branch (0, 0, 0, 0)" in report["error"]
    assert "did not converge" in report["error"]
    assert "results" not in report


@pytest.mark.parametrize("mode", ["catalytic", "noncatalytic"])
def test_merge_receiver_deviation_exits_3_with_numbers(tmp_path, monkeypatch, mode):
    path = _state_file(tmp_path, "implication3")
    original, original_svd = cli.build_merge_protocol, np.linalg.svd

    def half_svd(*args, **kwargs):
        u, s, vh = original_svd(*args, **kwargs)
        return u, np.concatenate([[0.5], s[1:]]), vh

    def build_with_half_value(state, **kwargs):
        decomp = ki_decompose(state)
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "svd", half_svd)
            return original(state, decomp, **kwargs)

    monkeypatch.setattr(cli, "build_merge_protocol", build_with_half_value)
    code, report = cli.run(["merge", str(path), "--mode", mode])
    assert code == 3
    assert "branch (0, 0, 0, 0)" in report["error"]
    assert "singular values deviate from 0/1" in report["error"]
    assert "min(|s-1|, |s|) = 0.5 > 1e-06" in report["error"]
    assert "results" not in report


def test_bounds_cli_small_and_large(tmp_path):
    small = _state_file(tmp_path, "implication3")
    code, report = cli.run(["bounds", str(small), "--kmax", "8", "--lmax", "8"])
    assert code == 0
    res = report["results"]
    assert res["simple"]["catalytic"] == pytest.approx(0.5849625007, abs=1e-8)
    assert res["search"]["catalytic_bits"] == pytest.approx(0.5849625007, abs=1e-8)
    assert 0.54 < res["h_max"] < 0.5432
    assert res["gap_simple_minus_h_max"] > 0.04

    big = _state_file(tmp_path, "qutrit_choi")
    code, report = cli.run(["bounds", str(big)])
    assert code == 0
    res = report["results"]
    assert res["h_max"] is None
    assert "solver cap" in res["h_max_note"]
    assert res["simple"]["noncatalytic"] == pytest.approx(0.0, abs=1e-9)


def test_approx_cli_candidate_and_heuristic(tmp_path):
    path = _state_file(tmp_path, "ghz", d=2)
    code, report = cli.run(
        ["approx", str(path), "--epsilon", "0", "--candidate", str(path)]
    )
    assert code == 0
    assert report["results"]["output_fidelity_sq"] == pytest.approx(1.0, abs=1e-9)

    code, report = cli.run(
        ["approx", str(path), "--epsilon", "0.1", "--heuristic", "3", "--seed", "5"]
    )
    assert code == 0
    assert report["results"]["cost_bits"] <= 1.0 + 1e-9


def test_reports_are_deterministic_modulo_wall_time(tmp_path):
    path = _state_file(tmp_path, "implication3")
    argv = ["approx", str(path), "--epsilon", "0.1", "--heuristic", "4", "--seed", "11"]
    code1, rep1 = cli.run(argv)
    code2, rep2 = cli.run(argv)
    assert code1 == code2 == 0
    rep1.pop("wall_time_s")
    rep2.pop("wall_time_s")
    assert rep1 == rep2


def test_parser_reuse_matches_fresh_runs(tmp_path):
    """One process running several subcommands reports what fresh processes do."""
    path = _state_file(tmp_path, "ghz", d=2)
    argvs = [
        ["ki", str(path), "--quiet"],
        ["merge", str(path), "--bogus-flag"],
        ["bounds", str(path), "--kmax", "4", "--lmax", "3"],
        ["merge", str(path), "--mode", "noncatalytic"],
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(qsm.__file__).resolve().parent.parent), env.get("PYTHONPATH")) if p
    )
    codes = []
    for argv in argvs:
        code, report = cli.run(argv)
        codes.append(code)
        report.pop("wall_time_s", None)
        fresh = subprocess.run(
            [sys.executable, "-m", "qsm.cli", *argv],
            capture_output=True, text=True, timeout=60, env=env,
        )
        expected = json.loads(fresh.stdout)
        expected.pop("wall_time_s", None)
        assert code == fresh.returncode
        assert json.loads(json.dumps(cli._jsonable(report))) == expected
    assert codes == [0, 64, 0, 0]


def test_quiet_suppresses_stderr(capsys):
    code = cli.main(["catalog", "ghz", "--d", "2", "--quiet"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["results"]["dims"] == {"R": 2, "A": 2, "B": 2}

    code = cli.main(["catalog", "ghz", "--d", "2"])
    captured = capsys.readouterr()
    assert code == 0
    assert "catalog" in captured.err
    json.loads(captured.out)


def test_verify_corpus_passes():
    code, report = cli.run(["verify-corpus", "--seed", "7"])
    assert code == 0
    res = report["results"]
    assert res["all_passed"] is True
    assert len(res["checks"]) >= 30
    assert all(c["passed"] for c in res["checks"])


def test_console_script_installed(tmp_path):
    """The ``qsm`` console script declared in pyproject.toml works as a process.

    Runs the wrapper a console-script installer generates for the declared
    entry point, so the check needs no installed package and no ``qsm`` on
    PATH; the imported ``qsm`` package goes first on the child's PYTHONPATH.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["qsm"]
    module, _, func = target.partition(":")
    wrapper = (
        "import sys\n"
        f"from {module} import {func}\n"
        "sys.argv[0] = 'qsm'\n"
        f"sys.exit({func}())\n"
    )
    src = str(Path(qsm.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )

    def qsm_process(*args):
        return subprocess.run(
            [sys.executable, "-c", wrapper, *args],
            capture_output=True, text=True, timeout=60, cwd=tmp_path, env=env,
        )

    out = qsm_process("catalog", "ghz", "--d", "2", "--quiet")
    assert out.returncode == 0
    assert json.loads(out.stdout)["command"] == "catalog"
    assert out.stderr == ""
    # main's return value must reach the exit status: a usage error exits 64.
    assert qsm_process("merge").returncode == 64
