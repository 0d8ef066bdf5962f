"""Benchmark harness: timed consequence computations over generated inputs.

A sweep is a base configuration plus a list of per-point overrides. Every
run regenerates the point's input from the same seed, so each requested
algorithm/mode combination and every repetition is measured on the same
input, under a wall-clock budget. A run that exhausts a budget is recorded
with its flag set and the sweep continues. Generation happens outside the
timed section.

Records serialise to CSV with one fixed column set; all value columns are
deterministic for a given seed, only the timing columns vary between runs.
"""

from __future__ import annotations

import csv
import io
import os
import time
from dataclasses import asdict, dataclass, fields, replace
from typing import Iterable, Sequence

from .consequence import CRITICAL, SCORE, simple_schema_consequence
from .errors import BudgetExceededError, ParseError
from .eval import BudgetClock
from .existential import retained_existentials
from .generator import GeneratorConfig, generate

SEED_ENV_VAR = "SCHEMAFORGE_SEED"

SIMPLE = "simple"
EXISTENTIAL = "existential"

@dataclass(frozen=True)
class BenchRecord:
    seed: int
    schema_size: int
    p_count: int
    pi_c: float
    u_count: int
    l_count: int
    rule_count: int
    antecedent_len: int
    existential_count: int
    algo: str
    mode: str
    time_ms: float
    timed_out: bool
    out_patterns: int
    violated_count: int


CSV_COLUMNS = [field.name for field in fields(BenchRecord)]


def run_one(config: GeneratorConfig, algo: str, mode: str, budget_seconds: float) -> BenchRecord:
    """Generate, then measure one consequence computation under a budget."""
    schema, rules = generate(config)
    clock = BudgetClock(budget_seconds)
    timed_out = False
    out_patterns = 0
    violated = 0
    start = time.perf_counter()
    try:
        result = simple_schema_consequence(schema, rules, mode=algo, clock=clock)
        out_patterns = len(result.graph)
        if mode == EXISTENTIAL:
            report = retained_existentials(schema, rules, clock=clock)
            violated = len(report.violated)
    except BudgetExceededError:
        timed_out = True
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return BenchRecord(
        seed=config.seed,
        schema_size=config.schema_size,
        p_count=config.p_count,
        pi_c=config.pi_c,
        u_count=config.u_count,
        l_count=config.l_count,
        rule_count=config.rule_count,
        antecedent_len=config.antecedent_len,
        existential_count=config.existential_count,
        algo=algo,
        mode=mode,
        time_ms=round(elapsed_ms, 3),
        timed_out=timed_out,
        out_patterns=0 if timed_out else out_patterns,
        violated_count=0 if timed_out else violated,
    )


def config_from_dict(values: dict) -> GeneratorConfig:
    """The point's generator configuration, its seed overridden by the
    seed variable if that is set; a malformed one raises ParseError."""
    seed = os.environ.get(SEED_ENV_VAR, values.get("seed", 0))
    try:
        return GeneratorConfig(**{**values, "seed": int(seed)})
    except (TypeError, ValueError) as exc:  # a field unknown, missing or mistyped, or the seed
        raise ParseError(str(exc), f"sweep point {values} with seed {seed!r}") from exc


def _check_sweep(algorithms, modes, budget_seconds, repetitions) -> None:
    """Raise ParseError for a sweep value no run can use."""
    for name, values, allowed in (
        ("algorithms", algorithms, (SCORE, CRITICAL)),
        ("modes", modes, (SIMPLE, EXISTENTIAL)),
    ):
        if not isinstance(values, (list, tuple)) or not all(v in allowed for v in values):
            raise ParseError(f"must be a list of {' or '.join(allowed)}", f"{name} {values!r}")
    if isinstance(budget_seconds, bool) or not isinstance(budget_seconds, (int, float)) or not budget_seconds > 0:
        raise ParseError("must be a positive number", f"budget_seconds {budget_seconds!r}")
    if isinstance(repetitions, bool) or not isinstance(repetitions, int) or repetitions < 1:
        raise ParseError("must be a positive integer", f"repetitions {repetitions!r}")


def run_benchmark(
    base: dict,
    points: Sequence[dict] = ({},),
    algorithms: Sequence[str] = ("score",),
    modes: Sequence[str] = (SIMPLE,),
    budget_seconds: float = 600.0,
    repetitions: int = 1,
) -> list[BenchRecord]:
    """Run the sweep; per-run budget exhaustion is recorded, never fatal.
    A malformed sweep value raises ParseError before anything runs.

    Each point is the base configuration updated with its overrides.
    Repetitions re-measure the same seeded input; the emitted record
    carries the mean time, so everything except the timing columns is
    reproducible byte-for-byte for a fixed seed.
    """
    _check_sweep(algorithms, modes, budget_seconds, repetitions)
    records = []
    for config in [config_from_dict({**base, **point}) for point in points]:  # all checked first
        for algo in algorithms:
            for mode in modes:
                runs = [run_one(config, algo, mode, budget_seconds) for _ in range(repetitions)]
                completed = [r for r in runs if not r.timed_out]
                sample = completed[0] if completed else runs[0]
                records.append(
                    replace(
                        sample,
                        time_ms=round(sum(r.time_ms for r in runs) / len(runs), 3),
                        timed_out=all(r.timed_out for r in runs),
                    )
                )
    return records


def records_to_csv(records: Iterable[BenchRecord]) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for record in records:
        row = asdict(record)
        row["timed_out"] = "true" if record.timed_out else "false"
        writer.writerow(row)
    return buffer.getvalue()


def write_csv(records: Iterable[BenchRecord], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(records_to_csv(records))
