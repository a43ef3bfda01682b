"""End-to-end checks of the command-line interface: exit codes, report shape,
determinism, and the documented usage examples."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qsm
import qsm.cli as cli
from qsm.errors import VerificationError
from qsm.ki import ki_decompose
from qsm.bounds import converse_search, converse_simple, h_max_conditional
from qsm.statespace import CATALOG_NAMES, encode_complex, load_state, random_state, save_state


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
_DELETE = object()


def _ghz2_doc():
    amps = np.zeros((2, 2, 2), dtype=complex)
    amps[0, 0, 0] = amps[1, 1, 1] = _AMP
    return {"version": 2, "amplitudes": encode_complex(amps)}


@pytest.mark.parametrize(
    "keys, value, field",
    [
        (("amplitudes", "real", 0, 0, 0), float("nan"), "amplitudes.real"),
        (("amplitudes", "imag", 1, 1, 1), float("inf"), "amplitudes.imag"),
        (("amplitudes", "real", 0, 0, 0), True, "amplitudes.real"),
        (("amplitudes", "real", 1, 1, 1), str(_AMP), "amplitudes.real"),
        (("amplitudes", "imag", 0, 1, 0), None, "amplitudes.imag"),
        (("amplitudes", "real", 1, 0), [0.0], "amplitudes.real"),
        (("amplitudes", "imag", 1), [0.0, 0.0], "amplitudes.imag"),
        (("amplitudes",), {"real": [[1.0]], "imag": [[0.0]]}, "amplitudes.real"),
        (("amplitudes",), {"real": [[[[1.0]]]], "imag": [[[[0.0]]]]}, "amplitudes.real"),
        (("amplitudes",), {"real": [[[]]], "imag": [[[]]]}, "amplitudes.real"),
        (("amplitudes", "imag"), [[[0.0] * 3] * 2] * 2, "amplitudes.imag"),
        (("amplitudes", "imag"), _DELETE, "amplitudes.imag"),
        (("amplitudes",), _DELETE, "amplitudes"),
        (("version",), 1, "version 1"),
    ],
    ids=["nan-amplitude", "infinity-amplitude", "bool-amplitude", "string-amplitude",
         "null-amplitude", "ragged-length", "ragged-depth", "nested-2-deep", "nested-4-deep",
         "empty-axis", "shapes-differ", "missing-imag", "missing-amplitudes", "version-1"],
)
def test_malformed_state_file_exits_2_naming_field(tmp_path, keys, value, field):
    doc = _ghz2_doc()
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[keys[-1]]
    else:
        parent[keys[-1]] = value
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    code, report = cli.run(["merge", str(path)])
    assert code == 2
    assert report["exit_code"] == 2
    assert field in report["error"]


def test_ghz2_document_loads_unedited(tmp_path):
    path = tmp_path / "ghz2.json"
    path.write_text(json.dumps(_ghz2_doc()))
    code, _ = cli.run(["ki", str(path)])
    assert code == 0


_HUGE = 1_000_000  # a 10^18-entry tensor: numpy refuses it before allocating


@pytest.mark.parametrize("argv", [["catalog", "ghz", "--d", str(_HUGE)]], ids=["catalog-ghz"])
def test_oversized_dimensions_exit_2_naming_them(argv):
    code, report = cli.run(argv)
    assert code == 2
    assert report["exit_code"] == 2
    assert f"({_HUGE}, {_HUGE}, {_HUGE})" in report["error"]


@pytest.mark.parametrize("target", ["missing-dir/x.json", "."], ids=["missing-dir", "directory"])
def test_unwritable_output_path_exits_2_naming_it(tmp_path, target):
    path = tmp_path / target
    code, report = cli.run(["catalog", "ghz", "--d", "2", "-o", str(path), "--quiet"])
    assert code == 2
    assert report["exit_code"] == 2
    assert str(path) in report["error"]


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_catalog_report_and_state_file_share_the_amplitude_encoding(tmp_path, name):
    argv = ["catalog", name, "--quiet"] + (["--d", "3"] if name == "ghz" else [])
    code, report = cli.run(argv)
    assert code == 0
    path = tmp_path / "state.json"
    code, _ = cli.run(argv + ["-o", str(path)])
    assert code == 0
    assert report["results"]["amplitudes"] == json.loads(path.read_text())["amplitudes"]


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
        ("approx", ["--epsilon", "3"], "epsilon"),
        ("approx", ["--epsilon", "1.5", "--heuristic", "2"], "epsilon"),
        ("bounds", ["--kmax", "4097"], "K_max"),
        ("bounds", ["--lmax", "4097"], "L_max"),
    ],
    ids=["merge-delta-nan", "merge-delta-inf", "approx-epsilon-nan", "approx-epsilon-inf",
         "heuristic-epsilon-nan", "noncatalytic-delta-nan", "noncatalytic-delta-negative",
         "approx-delta-nan", "heuristic-delta-nan", "approx-epsilon-above-1",
         "heuristic-epsilon-above-1", "bounds-kmax-above-cap", "bounds-lmax-above-cap"],
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


@pytest.mark.parametrize(
    "argv, build",
    [
        (["split", "--verify"], "split.build_split_protocol"),
        (["merge", "--verify", "--mode", "catalytic"], "merge.build_merge_protocol"),
        (["merge", "--verify", "--mode", "noncatalytic"], "merge.build_merge_protocol"),
    ],
    ids=["split", "merge-catalytic", "merge-noncatalytic"],
)
def test_verify_builds_once_and_simulates_once(tmp_path, monkeypatch, argv, build):
    """A verified split or merge builds its protocol once and runs it once."""
    path = _state_file(tmp_path, "implication2")
    calls = []
    for target in (build, "locc.apply_protocol"):
        module, name = target.split(".")
        original = getattr(sys.modules[f"qsm.{module}"], name)

        def spy(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        for holder in [m for n, m in sys.modules.items() if n.startswith("qsm.")]:
            if getattr(holder, name, None) is original:
                monkeypatch.setattr(holder, name, spy)
    code, report = cli.run([argv[0], str(path), *argv[1:]])
    assert code == 0
    assert report["results"]["verification"]["passed"] is True
    assert sorted(calls) == ["apply_protocol", build.split(".")[1]]


@pytest.mark.parametrize("mode", ["catalytic", "noncatalytic"])
def test_merge_svd_failure_exits_3_naming_branch(tmp_path, monkeypatch, mode):
    path = _state_file(tmp_path, "implication3")
    original = cli.build_merge_protocol

    def failing_svd(*args, **kwargs):
        # fails a whole stacked batch as well as each single matrix
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
        s = s.copy()
        s.flat[0] = 0.5  # first singular value of the first (stacked) matrix
        return u, s, vh

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


def test_bounds_cli_reports_simple_of_the_normal_form_and_the_rest_of_the_state(tmp_path):
    """``qsm bounds`` reports ``simple`` by :func:`converse_simple`, which
    works on the uniform-spectator normal form, but ``search`` and ``h_max``
    of the state as given, so for a state off the normal form the three
    bound two different states (``compare_bounds`` uses the normal form for
    all three).  Pinned, so that unifying them is a declared report change."""
    path = tmp_path / "random.json"
    save_state(random_state(np.random.default_rng(1), (2, 2, 2)), path)
    state = load_state(path)
    code, report = cli.run(["bounds", str(path)])
    assert code == 0
    res = report["results"]
    assert res["simple"] == converse_simple(state)
    assert res["search"] == dataclasses.asdict(converse_search(state, K_max=64, L_max=64))
    assert res["h_max"] == h_max_conditional(state)
    assert res["gap_simple_minus_h_max"] == res["simple"]["catalytic"] - res["h_max"]
    # the as-given search sits below the normal form's simple bound
    assert res["search"]["catalytic_bits"] < res["simple"]["catalytic"]


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


def test_negative_seed_is_a_validation_error(tmp_path):
    path = _state_file(tmp_path, "ghz", d=2)
    argvs = [
        ["approx", str(path), "--epsilon", "0.1", "--heuristic", "2", "--seed", "-1"],
        ["verify-corpus", "--seed", "-1"],
    ]
    for argv in argvs:
        code, report = cli.run(argv)
        assert code == cli.EXIT_VALIDATION == 2, report
        assert "seed must be nonnegative, got -1" in report["error"]


def test_reports_are_deterministic_modulo_wall_time(tmp_path):
    path = _state_file(tmp_path, "implication3")
    argv = ["approx", str(path), "--epsilon", "0.1", "--heuristic", "4", "--seed", "11"]
    code1, rep1 = cli.run(argv)
    code2, rep2 = cli.run(argv)
    assert code1 == code2 == 0
    rep1.pop("wall_time_s")
    rep2.pop("wall_time_s")
    assert rep1 == rep2


def _child_env(**extra):
    """Environment for a child interpreter that imports this copy of ``qsm``."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(qsm.__file__).resolve().parent.parent), env.get("PYTHONPATH")) if p
    )
    return env


def test_tolerance_is_not_read_from_the_environment(tmp_path):
    """tau is a fixed constant: setting ``QSM_TOL``, to a number or to
    nonsense, changes neither the report nor the exit code."""
    path = tmp_path / "r232.json"
    save_state(random_state(np.random.default_rng(0), (2, 3, 2)), path)

    def merge_child(qsm_tol):
        env = _child_env(OPENBLAS_NUM_THREADS="1")
        env.pop("QSM_TOL", None)
        if qsm_tol is not None:
            env["QSM_TOL"] = qsm_tol
        out = subprocess.run(
            [sys.executable, "-m", "qsm.cli", "merge", str(path), "--mode", "catalytic",
             "--verify", "--quiet"],
            capture_output=True, text=True, timeout=60, env=env,
        )
        report = json.loads(out.stdout)
        report.pop("wall_time_s")
        return out.returncode, report

    unset = merge_child(None)
    assert unset[0] == 0
    assert merge_child("1e-3") == unset
    assert merge_child("nonsense") == unset


def test_parser_reuse_matches_fresh_runs(tmp_path):
    """One process running several subcommands reports what fresh processes do."""
    path = _state_file(tmp_path, "ghz", d=2)
    argvs = [
        ["ki", str(path), "--quiet"],
        ["merge", str(path), "--bogus-flag"],
        ["bounds", str(path), "--kmax", "4", "--lmax", "3"],
        ["merge", str(path), "--mode", "noncatalytic"],
    ]
    env = _child_env()
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


# Runs each argv through cli.run under a 3 GiB address-space limit, so that a
# build the byte budget fails to refuse stops with MemoryError instead of
# filling the machine's memory.
_LIMITED_CHILD = """
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
import qsm.cli as cli
print(json.dumps([cli.run(argv)[1] for argv in json.loads(sys.argv[1])]))
"""


def test_over_budget_protocols_exit_3_naming_bytes(tmp_path):
    """Catalytic merges of seeded (1,4,4) states and the split of a (1,24,24)
    state would need far more than the protocol byte budget: each exits 3
    naming the count and the budget, and seeds 0, 2 and 3 are refused on one
    grid interval (1 branch), before the flattening schedules run."""
    argvs = []
    for seed in range(4):
        path = tmp_path / f"r144-{seed}.json"
        save_state(random_state(np.random.default_rng(seed), (1, 4, 4)), path)
        argvs.append(["merge", str(path), "--quiet"])
    path = tmp_path / "r1-24-24.json"
    save_state(random_state(np.random.default_rng(0), (1, 24, 24)), path)
    argvs.append(["split", str(path), "--quiet"])
    child = subprocess.run(
        [sys.executable, "-c", _LIMITED_CHILD, json.dumps(argvs)],
        capture_output=True, text=True, timeout=120,
        env=_child_env(OPENBLAS_NUM_THREADS="1"),
    )
    assert child.returncode == 0, child.stderr
    reports = json.loads(child.stdout)
    assert [r["exit_code"] for r in reports] == [3] * 5
    for report in reports:
        assert re.search(r"need \d+ bytes, over the budget of 2147483648 bytes", report["error"])
    for seed in (0, 2, 3):
        assert reports[seed]["error"].startswith("protocol of 1 branches too large")
    assert "increase delta" in reports[0]["error"]
    assert "(576, 24, 13824)" in reports[4]["error"]


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
    # the golden checks are ghz2, ghz3 and every other catalog state, in
    # catalog order, four each, so a new catalog state reaches the corpus
    labels = ["ghz2", "ghz3"] + [name for name in CATALOG_NAMES if name != "ghz"]
    kinds = ("merge-catalytic", "merge-noncatalytic", "split", "search-below-achievable")
    expected = [f"{label}:{kind}" for label in labels for kind in kinds]
    checks = [c["check"] for c in res["checks"]]
    assert checks[: len(expected)] == expected
    assert all(name.startswith("random") for name in checks[len(expected) :])


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


@pytest.mark.parametrize(
    "value, expected",
    [
        (float("nan"), "nan"),
        (np.array([[1.0, np.inf], [-np.inf, np.nan]]), [[1.0, "inf"], ["-inf", "nan"]]),
        (complex(float("inf"), float("nan")), {"real": "inf", "imag": "nan"}),
        (
            np.array([1 + 1j, complex(0.0, -np.inf), complex(np.nan, 2.0)]),
            {"real": [1.0, 0.0, "nan"], "imag": [1.0, "-inf", 2.0]},
        ),
    ],
    ids=["scalar", "real-array", "complex-scalar", "complex-array"],
)
def test_non_finite_floats_encode_as_strict_json(value, expected):
    """Every non-finite float becomes its ``repr`` string, in a scalar, an
    array or a complex encoding alike, so reports stay strict JSON."""
    text = json.dumps(cli._jsonable({"v": value}), allow_nan=False)
    assert json.loads(text) == {"v": expected}
