"""Per-layer tracing of schemaforge, done from outside the package.

A layer is a public function of a schemaforge module. Installing a
:class:`Tracer` replaces that function, in its own module and in every
schemaforge module that imported the name, with a wrapper that records one
span per call: the call count, the inclusive time, the self time (inclusive
time minus the time of traced calls made inside it) and the layer's work
counts. Nothing is patched unless a tracer is installed, so untraced runs
execute the program exactly as shipped.

A layer whose function has been renamed or deleted is reported as absent
and its metrics read 0. A work counter that no longer fits the function's
arguments or result is dropped the same way; neither ever breaks a run.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
import time
from statistics import median
from typing import Any, Callable

PACKAGE = "schemaforge"


def _arg(args: tuple, kwargs: dict, pos: int, name: str) -> Any:
    return kwargs[name] if name in kwargs else args[pos]


def _rule_triples(rules) -> int:
    return sum(len(r.antecedent) + len(r.consequent) for r in rules)


# Work counters per layer: counter name -> f(args, kwargs, result) -> number.
# Counters whose name starts with "_" feed a ratio and are not reported.
COUNTERS: dict[str, dict[str, Callable[[tuple, dict, Any], float]]] = {
    "generator.generate": {},
    "formats.parse_schema": {"triples": lambda a, k, r: len(r[0].graph)},
    "formats.parse_rules": {"triples": lambda a, k, r: _rule_triples(r[0])},
    "formats.parse_graph": {"triples": lambda a, k, r: len(r[0])},
    "formats.serialize_schema": {"triples": lambda a, k, r: len(_arg(a, k, 0, "schema").graph)},
    "formats.serialize_rules": {"triples": lambda a, k, r: _rule_triples(_arg(a, k, 0, "rules"))},
    "formats.serialize_graph": {"triples": lambda a, k, r: len(_arg(a, k, 0, "graph"))},
    "consequence.simple_schema_consequence_report": {"rounds": lambda a, k, r: r.rounds},
    "schema.normalize_schema": {
        "in_patterns": lambda a, k, r: len(_arg(a, k, 0, "schema").graph),
        "_out_patterns": lambda a, k, r: len(r.graph),
    },
    "consequence.basic_consequence": {},
    "consequence.build_sandbox": {},
    "eval.build_lambda_rewriting": {},
    "eval.evaluate_union_query": {"mappings_out": lambda a, k, r: len(r)},
    "consequence.filter_and_annotate": {"_survived": lambda a, k, r: r is not None},
    "consequence.find_origin_patterns": {
        "patterns_scanned": lambda a, k, r: len(_arg(a, k, 1, "schema").graph)
    },
    "consequence.expand_schema": {},
    "existential.retained_existentials": {},
    "existential.rewrite_antecedents": {"rewritings_out": lambda a, k, r: len(r)},
    "schema.is_instance": {"_true": lambda a, k, r: bool(r)},
    "rules.closure": {"derived_triples": lambda a, k, r: len(r) - len(_arg(a, k, 0, "graph"))},
    "schema.violations": {"hits": lambda a, k, r: len(r)},
    "cli.main": {},
}

# Reported ratios: name -> (numerator counter, denominator counter or "calls").
RATIOS: dict[str, dict[str, tuple[str, str]]] = {
    "schema.normalize_schema": {"kept_ratio": ("_out_patterns", "in_patterns")},
    "consequence.filter_and_annotate": {"survive_ratio": ("_survived", "calls")},
    "schema.is_instance": {"true_ratio": ("_true", "calls")},
}

# cli.main is split by subcommand, so each gets its own span name. Only the
# subcommands a workload runs are reported; spans of others are recorded but
# not reported.
CLI_SUBCOMMANDS = ("validate", "closure", "consequence")


def _span_names(layer: str) -> list[str]:
    if layer == "cli.main":
        return [f"cli.main.{c}" for c in CLI_SUBCOMMANDS]
    return [layer]


def _cli_span(args: tuple, kwargs: dict) -> str:
    try:
        argv = _arg(args, kwargs, 0, "argv")
        command = argv[0] if argv else "none"
    except (IndexError, KeyError, TypeError):
        command = "none"
    return f"cli.main.{command}"


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in a fixed order."""
    out = []
    for layer, counters in COUNTERS.items():
        for span in _span_names(layer):
            out += [(f"{span}.calls", "count"), (f"{span}.self_s", "s"), (f"{span}.total_s", "s")]
            out += [(f"{span}.{c}", "count") for c in counters if not c.startswith("_")]
            out += [(f"{span}.{r}", "ratio") for r in RATIOS.get(layer, {})]
    out += [
        ("trace.batch_s", "s"),
        ("trace.untraced_batch_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.unattributed_s", "s"),
    ]
    return out


class Span:
    __slots__ = ("calls", "total", "self_time", "counts")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.counts: dict[str, float] = {}


class Recording:
    """Spans of one traced stretch of work (one set-up or one pass)."""

    def __init__(self) -> None:
        self.spans: dict[str, Span] = {}
        self.wall = 0.0  # time of the traced calls into the program
        self.top = 0.0  # time inside outermost spans

    def span(self, name: str) -> Span:
        s = self.spans.get(name)
        if s is None:
            s = self.spans[name] = Span()
        return s


class Tracer:
    """Installs span-recording wrappers around every layer in COUNTERS."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.recording: Recording | None = None
        self.absent: list[str] = []
        self.broken_counters: set[str] = set()
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []

    # --- installation --------------------------------------------------------

    def install(self) -> None:
        package = importlib.import_module(PACKAGE)
        for info in pkgutil.iter_modules(package.__path__):
            importlib.import_module(f"{PACKAGE}.{info.name}")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for layer in COUNTERS:
            module_name, func_name = layer.rsplit(".", 1)
            home = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(home, func_name, None) if home is not None else None
            if not callable(original):
                self.absent.append(layer)
                continue
            wrapper = self._wrap(layer, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # --- recording -----------------------------------------------------------

    def begin(self, recording: Recording) -> None:
        """Record spans into ``recording`` until end()."""
        self._stack.clear()
        self.recording = recording

    def end(self) -> None:
        self.recording = None

    def _wrap(self, layer: str, original: Callable) -> Callable:
        counters = COUNTERS[layer]
        fixed_name = None if layer == "cli.main" else layer
        stack = self._stack
        perf = self.clock

        def traced(*args, **kwargs):
            recording = self.recording
            if recording is None:
                return original(*args, **kwargs)
            name = fixed_name or _cli_span(args, kwargs)
            frame = [0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = perf() - t0
                if stack and stack[-1] is frame:
                    stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                else:
                    recording.top += elapsed
                span = recording.span(name)
                span.calls += 1
                span.total += elapsed
                span.self_time += elapsed - frame[0]
            for counter, count in counters.items():
                key = f"{layer}.{counter}"
                if key in self.broken_counters:
                    continue
                try:
                    value = count(args, kwargs, result)
                except Exception:  # the function's signature or result changed
                    self.broken_counters.add(key)
                    continue
                span.counts[counter] = span.counts.get(counter, 0) + value
            return result

        traced.__wrapped__ = original
        return traced


def layer_metrics(setup: Recording, passes: list[Recording]) -> dict[str, float]:
    """Per-layer metrics for one set-up plus one pass of the batch.

    Times are medians over the traced passes; counts come from the first
    pass, since every pass repeats the same work.
    """
    values: dict[str, float] = {}
    first = passes[0]
    for layer, counters in COUNTERS.items():
        for name in _span_names(layer):
            s_setup = setup.spans.get(name, Span())
            s_first = first.spans.get(name, Span())
            values[f"{name}.calls"] = s_setup.calls + s_first.calls
            for attr, key in (("self_time", "self_s"), ("total", "total_s")):
                per_pass = median(getattr(p.spans.get(name, Span()), attr) for p in passes)
                values[f"{name}.{key}"] = getattr(s_setup, attr) + per_pass
            merged = dict(s_setup.counts)
            for c, v in s_first.counts.items():
                merged[c] = merged.get(c, 0) + v
            calls = values[f"{name}.calls"]
            for c in counters:
                if not c.startswith("_"):
                    values[f"{name}.{c}"] = merged.get(c, 0)
            for ratio, (num, den) in RATIOS.get(layer, {}).items():
                denominator = calls if den == "calls" else merged.get(den, 0)
                values[f"{name}.{ratio}"] = merged.get(num, 0) / denominator if denominator else 0.0
    values["trace.unattributed_s"] = median(p.wall - p.top for p in passes)
    return values
