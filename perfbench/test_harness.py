"""Self-tests of the benchmark harness: python3 -m pytest perfbench"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

import qsm.cli  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from outputs import compare  # noqa: E402
from workloads import POOL, WORKLOADS, Op, write_states  # noqa: E402


class FixedHost:
    sample = staticmethod(lambda: 2 * run.REFERENCE_S)


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.min_samples(90) == 100
    assert run.percentile(list(range(100)), 90) == (89, 10)
    assert run.percentile(list(range(99)), 90)[1] == 9
    assert run.percentile(list(range(110)), 90) == (98, 11)
    assert run.min_samples(50) == 20


def test_self_time_subtracts_nested_children():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 5.0, 8.0, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    with tracer.span("cli.run"):  # 0 .. 10
        with tracer.span("ki.ki_decompose"):  # 1 .. 5
            with tracer.span("numerics.inner"):  # 2 .. 4
                pass
        with tracer.span("merge.achievable_cost"):  # 5 .. 8
            pass
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 0]
    assert tracing.self_times(tracer.spans) == [3.0, 2.0, 2.0, 3.0]


def test_failed_op_is_counted_and_the_pass_goes_on():
    class FakeCli:
        @staticmethod
        def run(argv):
            if argv[0] == "split":
                raise ValueError("boom")
            return 0, {"exit_code": 0, "results": {"K": 2}}

        _jsonable = staticmethod(lambda report: report)

    ops = [Op(f"s:{c}", "s", c, (c, "s.json")) for c in ("ki", "split", "merge")]
    refs = {"s:ki": {"exit_code": 0, "results": {"K": 2}}, "s:split": None,
            "s:merge": {"exit_code": 0, "results": {"K": 3}}}
    passes = run.run_passes(FakeCli, [ops], refs, tracing.Tracer(), FixedHost, 0.0, False)
    assert len(passes) == run.min_samples(run.P_TAIL) // len(ops) + 1
    first = passes[0]
    assert len(first["latencies"]) == 3
    assert [key for key, _ in first["failures"]] == ["s:split", "s:merge"]
    assert first["failures"][0][1] == "ValueError"
    assert first["failures"][1][1].startswith("mismatch: .results.K")
    assert first["broken"] == 1  # the split op had no reference: it failed before
    assert first["adjusted"] == pytest.approx([t / 2 for t in first["latencies"]])


def test_untraced_passes_see_original_functions():
    namespaces = tracing._namespaces()
    before = {
        (m.__name__, t.name): getattr(m, t.name)
        for t in tracing.TARGETS for m in namespaces if hasattr(m, t.name)
    }
    seen = []

    class ProbeCli:
        @staticmethod
        def run(argv):
            seen.append(qsm.merge.build_merge_protocol)
            return 0, {"exit_code": 0, "results": {}}

        _jsonable = staticmethod(lambda report: report)

    ops = [Op("s:ki", "s", "ki", ("ki",))]
    tracer = tracing.Tracer()
    passes = run.run_passes(ProbeCli, [ops], {}, tracer, FixedHost, 0.0, True)
    assert [p["traced"] for p in passes] == [False, True]
    assert list(run.per_layer(passes, tracer)[0]) == _benchmark_names("per_layer")
    original = before["qsm.merge", "build_merge_protocol"]
    assert seen[0] is original and seen[1] is not original
    after = {key: getattr(sys.modules[key[0]], key[1]) for key in before}
    assert all(after[key] is before[key] for key in before)


def test_wrappers_reach_every_namespace_that_holds_the_function():
    tracer = tracing.Tracer()
    with tracing.installed(tracer) as patched:
        names = {(m.__name__, n) for m, n, _ in patched}
        assert ("qsm.cli", "build_merge_protocol") in names
        assert ("qsm.merge", "ki_decompose") in names
        assert ("qsm.split", "build_split_protocol") in names
        assert ("qsm.bounds", "majorization_check") in names
        assert ("qsm.approx", "majorization_check") not in names


def _benchmark_names(kind):
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[kind]]


def test_benchmark_file_lists_the_reported_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in doc["per_layer"])
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_setup_writes_byte_identical_state_files(tmp_path, workload):
    def contents(name):
        out = []
        for instance in write_states(workload, str(tmp_path / name)):
            out.append([])
            for _, _, path in instance:
                with open(path, "rb") as fh:
                    out[-1].append(fh.read())
        return out

    first = contents("a")
    assert first == contents("b")
    assert len(first) == POOL
    if workload != "catalog-certify":  # instances differ
        assert first[3] != first[4]


def test_compare_tolerances():
    ref = {"K": 2, "passed": True, "cost": 1.0, "h_max": 0.5, "note": "gap 0.25 bits"}
    assert compare(ref, dict(ref, cost=1.0 + 5e-10, h_max=0.5 + 5e-7)) == []
    assert compare(ref, dict(ref, note="gap 0.2500000001 bits")) == []
    assert compare(ref, dict(ref, cost=1.0 + 5e-9))
    assert compare(ref, dict(ref, h_max=0.5 + 5e-6))
    assert compare(ref, dict(ref, K=3))
    assert compare(ref, dict(ref, passed=1))
    assert compare(ref, dict(ref, note="gap 0.25 nats"))
