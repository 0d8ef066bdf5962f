"""Self-tests of the benchmark, at smoke sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

workloads.load_program()
BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in BENCHMARK["workloads"]]


@pytest.fixture
def workdir():
    root = HERE / ".work"
    root.mkdir(exist_ok=True)
    path = root / f"test-{os.getpid()}-{time.monotonic_ns()}"
    path.mkdir()
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _command(workload: str, seed: int, trace: int, cwd: Path = workloads.ROOT, hash_seed: str = "0"):
    argv = BENCHMARK["command"] + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", "0", "--trace", str(trace), "--smoke"]
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True, timeout=170)


def test_workload_list_matches_the_benchmark_file():
    assert NAMES == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric(workload, trace):
    done = _command(workload, seed=3, trace=trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _analyses(name: str, seed: int, workdir: Path):
    return workloads.build(name, smoke=True).setup(seed, workdir, [])


@pytest.mark.parametrize("workload", NAMES)
def test_same_seed_same_inputs_other_seed_other_inputs(workload, workdir):
    first = [a.inputs for a in _analyses(workload, 5, workdir)]
    again = [a.inputs for a in _analyses(workload, 5, workdir)]
    other = [a.inputs for a in _analyses(workload, 6, workdir)]
    assert first == again
    assert first != other


def test_relabeling_is_order_preserving_and_invertible():
    text = '<urn:bench:p10> <urn:bench:p2> <urn:bench:u1> "l3" "l12" <urn:fresh:1>'
    relabel = workloads.Relabeling([text], seed=1, salt="t")
    renamed = relabel.forward(text)
    assert "p10" not in renamed and "<urn:fresh:1>" in renamed
    assert relabel.backward(renamed) == text
    iris = renamed.split()[:3]
    assert sorted(iris) == [iris[i] for i in sorted(range(3), key=lambda i: text.split()[i])]


def _outcome(analysis, output):
    return analysis.check(output, workloads.pinned_digests())


@pytest.mark.parametrize("workload", ["evolve-wide", "evolve-rules"])
def test_corrupted_evolved_schema_is_caught(workload, workdir):
    (analysis,) = _analyses(workload, 2, workdir)
    output = analysis.run()
    assert _outcome(analysis, output) is None
    assert _outcome(analysis, output.replace("applicable: ", "applicable: r0 ")) is not None


def test_corrupted_violation_reports_are_caught(workdir):
    for analysis in _analyses("violations", 2, workdir):
        schema, rules, report = analysis.run()
        if report.violated and report.retained:
            break
    assert _outcome(analysis, (schema, rules, report)) is None
    # a violated rule reported as retained
    moved = dataclasses.replace(report, retained=report.retained + (report.violated[0].rule,),
                                violated=report.violated[1:])
    assert _outcome(analysis, (schema, rules, moved)) is not None
    # a witness whose closure violates nothing
    empty = dataclasses.replace(report.violated[0], witness=workloads._sf("terms").Graph())
    bad_witness = dataclasses.replace(report, violated=(empty,) + report.violated[1:])
    assert _outcome(analysis, (schema, rules, bad_witness)) is not None


def test_corrupted_cli_outputs_are_caught(workdir):
    validate, closure, demo = _analyses("instance-cli", 2, workdir)
    for analysis in (validate, closure, demo):
        code, text = analysis.run()
        assert _outcome(analysis, (code, text)) is None
        assert _outcome(analysis, (code, text + "x")) is not None
        assert _outcome(analysis, (1, text)) is not None
    assert _outcome(validate, (0, "invalid\n")) is not None


def test_analysis_cut_at_the_limit_counts_as_the_limit_and_is_not_rerun():
    def spin():
        while True:
            pass

    analysis = workloads.Analysis("spin", (), spin, lambda output: None)
    outcomes = run.Outcomes()
    probe = hostspeed.SpeedProbe()
    signal.signal(signal.SIGALRM, run._on_alarm)
    run.run_analysis(analysis, 0.05, {}, outcomes, probe)
    assert (outcomes.cut, outcomes.raised, outcomes.wrong) == (1, 0, 0)
    assert outcomes.times["spin"] == outcomes.plain["spin"] == [0.05]
    started = time.perf_counter()
    run.run_analysis(analysis, 0.05, {}, outcomes, probe)  # not run again
    assert time.perf_counter() - started < 0.05
    assert (outcomes.attempted, outcomes.cut, outcomes.times["spin"]) == (2, 2, [0.05, 0.05])
    assert outcomes.completed == {}  # so a cut analysis stays out of analysis_p50_s


def test_speed_probe_samples_inside_a_span_and_leaves_its_own_time_out():
    probe = hostspeed.SpeedProbe()
    wall = time.perf_counter()
    with probe.span() as span:
        started = time.process_time()
        while time.process_time() - started < 0.3:
            pass
    wall = time.perf_counter() - wall
    # at least one probe per PROBE_INTERVAL_S of CPU time inside the span
    assert len(probe._samples) >= 2 * hostspeed.BRACKET_PROBES + 3
    assert span.seconds == pytest.approx(wall - probe.spent, abs=0.01)
    assert span.scaled == pytest.approx(
        span.seconds * hostspeed.REFERENCE_KERNEL_S / statistics.median(probe._samples))
    assert signal.getitimer(signal.ITIMER_VIRTUAL) == (0.0, 0.0)


def _counts(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] in ("count", "ratio")}


@pytest.mark.parametrize("workload", NAMES)
def test_two_traced_runs_give_identical_counts(workload):
    runs = [_command(workload, seed=4, trace=1, hash_seed=h) for h in ("1", "2")]
    first, second = (json.loads(r.stdout.splitlines()[-1]) for r in runs)
    assert _counts(first) == _counts(second)
    assert sum(_counts(first).values()) > 0


def test_tracer_reports_missing_layers_and_restores_the_program(monkeypatch):
    consequence = workloads._sf("consequence")
    original = consequence.find_origin_patterns
    monkeypatch.setitem(layers.COUNTERS, "consequence.no_such_layer", {})
    monkeypatch.setitem(layers.COUNTERS, "nosuchmodule.f", {})
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert tracer.absent == ["consequence.no_such_layer", "nosuchmodule.f"]
        assert consequence.find_origin_patterns is not original
        recording = layers.Recording()
        tracer.begin(recording)
        schema, _ = workloads._sf("generator").generate(workloads._fig2a(20, 0))
        sandbox = consequence.build_sandbox(schema)
        for t in sandbox:
            consequence.find_origin_patterns(t, schema)
        tracer.end()
    finally:
        tracer.uninstall()
    assert consequence.find_origin_patterns is original
    assert workloads._sf("existential").filter_and_annotate is consequence.filter_and_annotate
    span = recording.spans["consequence.find_origin_patterns"]
    assert span.calls == len(sandbox)
    assert span.counts["patterns_scanned"] == len(sandbox) * len(schema.graph)
    assert recording.spans["consequence.build_sandbox"].calls == 1


def test_without_the_program_the_benchmark_fails_without_a_result(workdir):
    (workdir / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, workdir / "perfbench" / path.name)
    shutil.copy(workloads.DIGESTS, workdir / "perfbench" / workloads.DIGESTS.name)
    shutil.copy(workloads.ROOT / "BENCHMARK.json", workdir / "BENCHMARK.json")
    done = _command("evolve-wide", seed=1, trace=0, cwd=workdir)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
