"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload evolve-wide --seed 1 --seconds 30 --trace 0

The run sets the workload's inputs up once, then repeats passes over its
fixed batch of analyses until the next pass would end after ``--seconds``;
at least ``MIN_PASSES`` passes always run. Between analyses it sets the
inputs up again, so that set-up takes about ``SETUP_SHARE`` of the run and
its samples (the median is ``setup_s``) are spread over the whole run.
Every analysis runs under the workload's per-analysis limit, enforced here
with an interval timer, and its output is checked after the clock stops.
Every set-up and analysis is timed with a ``hostspeed.SpeedProbe``, and the
time metrics are its times scaled to the reference host speed; the
human-readable lines give the plain times beside them.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of one set-up
plus one pass, with the tracing overhead. Human-readable lines come first;
the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import hostspeed
import layers
import workloads

SETUP_SHARE = 0.05  # set-up repeats between analyses until it has taken this share of the run
SETUP_MIN_REPEATS = 5
# On violations the first pass takes about 20 s, 16 s of it the four cut
# problems, which later passes skip. Whether a second pass fitted into the
# run would otherwise depend on the host's speed, and a one-pass run has
# half the samples of the others. A third pass is not forced: it would take
# a violations run from about 31 s to about 40 s, too long for the number
# of runs a full check makes.
MIN_PASSES = 2
END_TO_END_UNITS = {"setup_s": "s", "batch_s": "s", "analysis_p50_s": "s",
                    "completed_ratio": "ratio", "peak_rss_mb": "MB"}


class AnalysisCut(BaseException):
    """Raised by the interval timer when an analysis reaches its limit.

    A BaseException, so that no ``except Exception`` in the program can
    swallow it.
    """


def _on_alarm(signum, frame):
    raise AnalysisCut()


class Outcomes:
    """Per-analysis times and failure counts over the passes of a run."""

    def __init__(self) -> None:
        # Per analysis, one time per pass, scaled to the reference host speed
        # (``times``) and plain (``plain``); a cut analysis counts as the limit.
        self.times: dict[str, list[float]] = {}
        self.plain: dict[str, list[float]] = {}
        # Per analysis, the times of the passes in which it finished.
        self.completed: dict[str, list[float]] = {}
        self.completed_plain: dict[str, list[float]] = {}
        self.cut_names: set[str] = set()
        self.attempted = 0
        self.cut = 0
        self.raised = 0
        self.wrong = 0

    def batch_s(self, scaled: bool = True) -> float:
        """Sum over the batch of each analysis's median time."""
        times = self.times if scaled else self.plain
        return sum(statistics.median(ts) for ts in times.values())

    def analysis_p50_s(self, limit_s: float, scaled: bool = True) -> float:
        """Median over the analyses that finished of each one's median time.

        Cut analyses are left out: they are already in batch_s and
        completed_ratio, and as the fixed limit they would put the median on
        whichever finished analysis is slowest. Taking each analysis's
        median first keeps the result from jumping between two analyses of
        close times as the order of their single samples changes.
        """
        times = self.completed if scaled else self.completed_plain
        return statistics.median([statistics.median(ts) for ts in times.values()] or [limit_s])

    def finished(self) -> int:
        return sum(len(ts) for ts in self.completed.values())

    def pass_s(self, index: int) -> float:
        """The summed analysis times of one pass."""
        return sum(ts[index] for ts in self.times.values())

    def passes(self) -> int:
        return max(len(ts) for ts in self.times.values())

    def next_pass_s(self) -> float:
        """Expected plain time of an untraced pass: cut analyses are skipped."""
        return sum(ts[-1] for name, ts in self.plain.items() if name not in self.cut_names)

    def record(self, name: str, scaled: float, plain: float) -> None:
        self.times.setdefault(name, []).append(scaled)
        self.plain.setdefault(name, []).append(plain)


def call_limited(call, limit_s: float):
    """``call()`` under the limit: ``(output, None)``, or ``(None, "cut")``
    or ``(None, "raised")``. SIGALRM must be handled by ``_on_alarm``."""
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    try:
        return call(), None
    except AnalysisCut:
        return None, "cut"
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None, "raised"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def run_analysis(analysis, limit_s: float, pinned: dict, outcomes: Outcomes, probe: hostspeed.SpeedProbe,
                 tracer: layers.Tracer | None = None, recording: layers.Recording | None = None) -> None:
    """Time one analysis under the limit, check its output, record the outcome.

    With a tracer, spans of the analysis (not of its checks) go to ``recording``.
    Untraced, an analysis cut in an earlier pass is not run again: it counts
    as cut. Traced, it runs again, so that every traced pass is complete.
    """
    outcomes.attempted += 1
    if tracer is None and analysis.name in outcomes.cut_names:
        outcomes.cut += 1
        outcomes.record(analysis.name, limit_s, limit_s)
        return
    gc.collect()
    if tracer is not None:
        tracer.begin(recording)
    try:
        with probe.span() as span:
            output, failure = call_limited(analysis.run, limit_s)
    finally:
        if tracer is not None:
            tracer.end()
    if recording is not None:
        recording.wall += span.seconds
    if failure == "cut":
        outcomes.cut += 1
        outcomes.cut_names.add(analysis.name)
        outcomes.record(analysis.name, limit_s, limit_s)
        return
    if failure == "raised":
        outcomes.raised += 1
    else:
        outcomes.completed.setdefault(analysis.name, []).append(span.scaled)
        outcomes.completed_plain.setdefault(analysis.name, []).append(span.seconds)
        problem = analysis.check(output, pinned)
        if problem is not None:
            outcomes.wrong += 1
            print(f"wrong: {problem}", file=sys.stderr)
    outcomes.record(analysis.name, span.scaled, span.seconds)


class SetUps:
    """Timed set-ups of the workload's inputs.

    ``program_s`` holds the time of each set-up less the benchmark's own
    relabelling of the inputs, scaled to the reference host speed;
    ``plain_s`` the same unscaled, and ``relabel_s`` the relabelling's time.
    """

    def __init__(self, workload, seed: int, workdir: Path, probe: hostspeed.SpeedProbe) -> None:
        self.workload, self.seed, self.workdir, self.probe = workload, seed, workdir, probe
        self.program_s: list[float] = []
        self.plain_s: list[float] = []
        self.relabel_s: list[float] = []

    def run(self):
        gc.collect()
        relabel_s: list[float] = []
        with self.probe.span() as span:
            analyses = self.workload.setup(self.seed, self.workdir, relabel_s)
        plain = span.seconds - sum(relabel_s)
        self.program_s.append(plain * span.scale)
        self.plain_s.append(plain)
        self.relabel_s.append(sum(relabel_s))
        return analyses

    def catch_up(self, run_s: float) -> None:
        """Set up again until set-up has taken SETUP_SHARE of ``run_s``."""
        while sum(self.plain_s) + sum(self.relabel_s) < SETUP_SHARE * run_s:
            self.run()

    def traced(self, tracer: layers.Tracer) -> layers.Recording:
        """One further set-up, traced; its recording."""
        recording = layers.Recording()
        tracer.begin(recording)
        try:
            with self.probe.span() as span:
                self.workload.setup(self.seed, self.workdir, [])
        finally:
            tracer.end()
        recording.wall = span.seconds
        return recording


def run_pass(analyses, limit_s: float, pinned: dict, outcomes: Outcomes, setups: SetUps,
             run_start: float, tracer=None):
    """One pass over the batch, setting up again after each analysis as due;
    returns the pass's recording, if traced."""
    recording = layers.Recording() if tracer is not None else None
    for analysis in analyses:
        run_analysis(analysis, limit_s, pinned, outcomes, setups.probe, tracer, recording)
        setups.catch_up(time.perf_counter() - run_start)
    return recording


def measure(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """One run of the workload: the result object printed as the last line."""
    signal.signal(signal.SIGALRM, _on_alarm)
    pinned = workloads.pinned_digests()
    probe = hostspeed.SpeedProbe()
    workloads.clock = probe.clock
    tracer = layers.Tracer(probe.clock) if trace else None
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        setups = SetUps(workload, seed, workdir, probe)
        analyses = setups.run()
        setup_recording = setups.traced(tracer) if tracer is not None else None
        plain, traced, recordings = Outcomes(), Outcomes(), []
        while True:
            run_pass(analyses, workload.limit_s, pinned, plain, setups, start)
            upcoming = plain.next_pass_s()
            if tracer is not None:
                recordings.append(run_pass(analyses, workload.limit_s, pinned, traced, setups, start, tracer))
                upcoming += traced.pass_s(-1)
            if (plain.passes() >= MIN_PASSES
                    and time.perf_counter() - start + upcoming * (1 + SETUP_SHARE) > seconds):
                break
        while len(setups.program_s) < SETUP_MIN_REPEATS:
            setups.run()
    finally:
        if tracer is not None:
            tracer.uninstall()

    everything = [plain, traced]
    attempted = sum(o.attempted for o in everything)
    cut = sum(o.cut for o in everything)
    errors = sum(o.raised + o.wrong for o in everything)
    wrong = sum(o.wrong for o in everything)
    e2e = {
        "setup_s": statistics.median(setups.program_s),
        "batch_s": plain.batch_s(),
        "analysis_p50_s": plain.analysis_p50_s(workload.limit_s),
        "completed_ratio": 1.0 - (plain.cut + plain.raised + plain.wrong) / plain.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    unscaled = {"setup_s": statistics.median(setups.plain_s), "batch_s": plain.batch_s(scaled=False),
                "analysis_p50_s": plain.analysis_p50_s(workload.limit_s, scaled=False)}
    print(f"workload {workload.name}  seed {seed}  analyses {len(analyses)}  passes {plain.passes()}  "
          f"trace {int(trace)}")
    for name, value in e2e.items():
        aside = f"   (unscaled {unscaled[name]:.4f} s)" if name in unscaled else ""
        print(f"  {name:<16} {value:12.4f} {END_TO_END_UNITS[name]}{aside}")
    print(f"  {'(sample count)':<16} {plain.finished():12d} finished analyses timed "
          f"({len(plain.completed)} of the batch's {len(analyses)} finished), "
          f"{len(setups.program_s)} set-ups (relabelling {statistics.median(setups.relabel_s):.4f} s each, "
          f"not in setup_s); times scaled to the reference host speed")
    print(f"  {'fail_ratio':<16} {(cut + errors) / attempted:12.4f} "
          f"({cut} cut at {workload.limit_s:g} s, {errors - wrong} raised, {wrong} wrong, of {attempted})")
    print(f"  {'wrong_ratio':<16} {wrong / attempted:12.4f}")
    for name, times in plain.times.items():
        print(f"  {name}: " + " ".join(f"{t:.3f}" for t in times)
              + "   (unscaled " + " ".join(f"{t:.3f}" for t in plain.plain[name]) + ")")

    if tracer is None:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in e2e.items()}
    else:
        values = layers.layer_metrics(setup_recording, recordings)
        values["trace.batch_s"] = traced.batch_s(scaled=False)
        values["trace.untraced_batch_s"] = plain.batch_s(scaled=False)
        values["trace.overhead_s"] = statistics.median(
            traced.pass_s(i) - plain.pass_s(i) for i in range(plain.passes()))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in layers.metric_names()}
        for name in tracer.absent:
            print(f"  absent layer: {name}")
        for name in sorted(tracer.broken_counters):
            print(f"  counter no longer applies: {name}")
        ranked = sorted((v["value"], n) for n, v in metrics.items() if n.endswith(".self_s"))
        for value, name in reversed(ranked):
            if value > 0:
                print(f"  {name:<58} {value:10.4f} s")
        print(f"  {'trace.unattributed_s':<58} {values['trace.unattributed_s']:10.4f} s")
        print(f"  {'trace.batch_s':<58} {values['trace.batch_s']:10.4f} s  "
              f"(untraced {values['trace.untraced_batch_s']:.4f} s)")
        print(f"  {'trace.overhead_s':<58} {values['trace.overhead_s']:10.4f} s  "
              f"(median over {plain.passes()} traced/untraced pass pairs)")
    return {"correct": wrong == 0, "attempted": attempted, "failed": errors, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="few-second input sizes, for self-tests")
    args = parser.parse_args(argv)
    try:
        workloads.load_program()
    except workloads.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    work_root = workloads.HERE / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        workload = workloads.build(args.workload, smoke=args.smoke)
        result = measure(workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
