"""The benchmark's workloads: seeded inputs, the timed analyses, output checks.

Each workload is a fixed list of problems. A problem's structure comes from
the generator at a fixed generator seed, because the cost of these
algorithms jumps between structures (one fixpoint round or two, a union
query that ends in a second or runs for minutes) and a run-to-run mix of
structures would swamp any regression bound. The run's ``--seed`` draws an
order-preserving relabelling of every IRI and literal in the inputs: the
inputs differ from seed to seed in every name, while the sort order the
program uses to make its choices, and so the work it does, stays the same.
Every output is mapped back through the relabelling and compared with a
digest pinned at the seed commit, so each run also checks that no result
depends on the names a user picks.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import re
import string
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
DEMO_DATA = ROOT / "demos" / "data"
DEMO_GOLDEN = ROOT / "tests" / "golden" / "mine_existential_consequence.txt"

# Names the generator and the instance builder below give to constants.
_IRI = re.compile(r"<urn:bench:([^<>:\s]+)>")
_LIT = re.compile(r'"(l[0-9]+)"')
_TOKEN_LEN = 12
_IRI_BACK = re.compile(r"<urn:bench:([a-z]{%d})>" % _TOKEN_LEN)
_LIT_BACK = re.compile(r'"(l[a-z]{%d})"' % _TOKEN_LEN)

# The clock relabelling is timed on; run.py sets it to one that leaves out
# the time of its host-speed probes.
clock: Callable[[], float] = time.perf_counter


class ProgramMissing(RuntimeError):
    """The checkout does not hold the program's sources."""


def load_program() -> None:
    """Import schemaforge from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "schemaforge" / "__init__.py").is_file():
        raise ProgramMissing(f"no schemaforge sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("schemaforge")
    if Path(package.__file__).resolve().parent != SRC / "schemaforge":
        raise ProgramMissing(f"schemaforge was imported from {package.__file__}, not {SRC}")
    for name in ("cli", "consequence", "existential", "formats", "generator", "rules", "schema", "terms"):
        importlib.import_module(f"schemaforge.{name}")


def _sf(module: str) -> Any:
    # Looked up at call time, so a traced run reaches the layer wrappers.
    return sys.modules[f"schemaforge.{module}"]


# --- relabelling -----------------------------------------------------------


class Relabeling:
    """An order-preserving renaming of the benchmark's IRIs and literals.

    The names found in the texts are sorted and mapped, in order, onto sorted
    random tokens of one length, so every comparison between two renamed
    names, and between a renamed name and any name the program invents
    (``urn:fresh:``, ``urn:lambda:``, probe literals), comes out as before.
    """

    def __init__(self, texts: list[str], seed: int, salt: str):
        rng = random.Random(f"{salt}/{seed}")
        iris = sorted({m for t in texts for m in _IRI.findall(t)})
        lits = sorted({m for t in texts for m in _LIT.findall(t)})
        self._iri = dict(zip(iris, self._tokens(rng, len(iris), "")))
        self._lit = dict(zip(lits, self._tokens(rng, len(lits), "l")))
        self._iri_back = {v: k for k, v in self._iri.items()}
        self._lit_back = {v: k for k, v in self._lit.items()}

    @staticmethod
    def _tokens(rng: random.Random, n: int, stem: str) -> list[str]:
        tokens: set[str] = set()
        while len(tokens) < n:
            tokens.add(stem + "".join(rng.choices(string.ascii_lowercase, k=_TOKEN_LEN)))
        return sorted(tokens)

    def forward(self, text: str) -> str:
        text = _IRI.sub(lambda m: f"<urn:bench:{self._iri[m.group(1)]}>", text)
        return _LIT.sub(lambda m: f'"{self._lit[m.group(1)]}"', text)

    def backward(self, text: str) -> str:
        text = _IRI_BACK.sub(lambda m: f"<urn:bench:{self._iri_back.get(m.group(1), m.group(1))}>", text)
        return _LIT_BACK.sub(lambda m: f'"{self._lit_back.get(m.group(1), m.group(1))}"', text)


# --- analyses and checks -----------------------------------------------------


@dataclass
class Analysis:
    """One timed call into the program and the checks of its output.

    ``inputs`` are the texts the analysis reads. ``canonical`` gives the
    output text that is pinned, with every name mapped back through the
    relabelling, or None where nothing is pinned; ``validate`` makes the
    checks that need no pinned value and returns what is wrong, or None.
    """

    name: str
    inputs: tuple[str, ...]
    run: Callable[[], Any]
    canonical: Callable[[Any], str | None]
    validate: Callable[[Any], str | None] = lambda output: None

    def check(self, output: Any, pinned: dict[str, str | None]) -> str | None:
        problem = self.validate(output)
        if problem is not None:
            return f"{self.name}: {problem}"
        text = self.canonical(output)
        if text is None:
            return None
        if self.name not in pinned:
            return f"{self.name}: no pinned digest"
        expected = pinned[self.name]
        if expected is not None and digest(text) != expected:
            return f"{self.name}: output differs from the pinned digest"
        return None


@dataclass(frozen=True)
class Workload:
    name: str
    limit_s: float  # per-analysis limit; an analysis cut there counts as the limit
    # (seed, workdir, relabel_s) -> analyses; appends the time spent relabelling to relabel_s
    setup: Callable[[int, Path, list[float]], list[Analysis]]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def pinned_digests() -> dict[str, str | None]:
    """Digests of the canonical outputs at the seed commit, by analysis.

    A null digest marks an analysis that was cut at its limit there, so
    only its other checks apply.
    """
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def _config(pi_c: float, p: int, u: int, l: int, n: int, rules: int, ex: int, length: int, seed: int):
    return _sf("generator").GeneratorConfig(pi_c, p, u, l, n, rules, ex, length, seed)


def _relabel(texts: list[str], seed: int, name: str, relabel_s: list[float]):
    """The relabelling of the texts and the relabelled texts; its time goes to relabel_s."""
    start = clock()
    relabel = Relabeling(texts, seed, name)
    inputs = tuple(relabel.forward(t) for t in texts)
    relabel_s.append(clock() - start)
    return relabel, inputs


def _problems(workload: str, configs: list, seed: int, relabel_s: list[float]):
    """Per generated problem: its analysis name, relabelling and input texts."""
    formats = _sf("formats")
    for config in configs:
        name = f"{workload}/g{config.seed}"
        schema, rules = _sf("generator").generate(config)
        texts = [formats.serialize_schema(schema), formats.serialize_rules(rules)]
        yield (name, *_relabel(texts, seed, name, relabel_s))


def _parse(schema_text: str, rules_text: str):
    formats = _sf("formats")
    schema, _ = formats.parse_schema(schema_text, "schema")
    rules, _ = formats.parse_rules(rules_text, "rules")
    return schema, rules


# evolve-wide, evolve-rules: simple consequence (with applicability) by score


def _evolve(schema_text: str, rules_text: str) -> str:
    schema, rules = _parse(schema_text, rules_text)
    report = _sf("consequence").simple_schema_consequence_report(schema, rules)
    applicable = " ".join(sorted(report.applicable_rules))
    return _sf("formats").serialize_schema(report.schema) + f"applicable: {applicable}\n"


def _evolve_setup(workload: str, configs: list, seed: int, workdir: Path,
                  relabel_s: list[float]) -> list[Analysis]:
    return [Analysis(name, inputs, partial(_evolve, *inputs), relabel.backward)
            for name, relabel, inputs in _problems(workload, configs, seed, relabel_s)]


# violations: which existential rules the inference rules can break


def _violations(schema_text: str, rules_text: str):
    schema, rules = _parse(schema_text, rules_text)
    return schema, rules, _sf("existential").retained_existentials(schema, rules)


def _classification(relabel: Relabeling, output) -> str:
    """The retained/violated split, which is what gets pinned.

    Witnesses are checked for validity instead of pinned, so a change that
    finds other, equally valid witnesses is not counted wrong.
    """
    triple_str = _sf("formats").triple_str
    _, _, report = output
    lines = [f"retained: {triple_str(e.antecedent, {})} => {triple_str(e.consequent, {})}"
             for e in report.retained]
    lines += [f"violated: {triple_str(v.rule.antecedent, {})} => {triple_str(v.rule.consequent, {})}"
              for v in report.violated]
    return relabel.backward("\n".join(lines) + "\n")


def _check_witnesses(output) -> str | None:
    """Every witness is an instance whose closure violates its rule."""
    schema_mod, rules_mod = _sf("schema"), _sf("rules")
    schema, rules, report = output
    for v in report.violated:
        if not schema_mod.is_instance(v.witness, schema):
            return "a witness is not an instance of the schema"
        if not schema_mod.violations([v.rule], rules_mod.closure(v.witness, rules)):
            return "a witness's closure does not violate its rule"
    return None


def _violations_setup(workload: str, configs: list, seed: int, workdir: Path,
                      relabel_s: list[float]) -> list[Analysis]:
    return [Analysis(name, inputs, partial(_violations, *inputs), partial(_classification, relabel),
                     _check_witnesses)
            for name, relabel, inputs in _problems(workload, configs, seed, relabel_s)]


# instance-cli: the command line on data rather than on schemas


def build_instance(schema, seed: int, per_pattern: int, pool: int):
    """A valid instance: ``per_pattern`` random instantiations of every
    schema pattern over a pool of IRIs and literals small enough that rule
    antecedents join. The schema must have no existential rules."""
    terms = _sf("terms")
    rng = random.Random(seed)
    iris = [terms.iri(f"urn:bench:i{i}") for i in range(pool)]
    lits = [terms.lit(f"l{i}") for i in range(pool)]
    triples = set()
    for pattern in schema.sorted_patterns():
        for _ in range(per_pattern):
            values = []
            for pos, term in enumerate(pattern):
                if term.is_constant:
                    values.append(term)
                elif pos == 2 and term.lexical not in schema.no_literal and rng.random() < 0.5:
                    values.append(rng.choice(lits))
                else:
                    values.append(rng.choice(iris))
            triples.add(terms.Triple(*values))
    return terms.Graph(triples)


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = _sf("cli").main(argv)
    return code, out.getvalue()


def _exit_status(output: tuple[int, str]) -> str | None:
    return None if output[0] == 0 else f"exit code {output[0]}"


def _expect_text(expected: Callable[[], str], output: tuple[int, str]) -> str | None:
    code, text = output
    if code != 0 or text != expected():
        return f"exit code {code}, printed {text[:60]!r}"
    return None


def _instance_cli_setup(workload: str, shape: tuple, seed: int, workdir: Path,
                        relabel_s: list[float]) -> list[Analysis]:
    config, per_pattern, pool = shape
    formats = _sf("formats")
    schema, rules = _sf("generator").generate(config)
    graph = build_instance(schema, config.seed, per_pattern, pool)
    texts = [formats.serialize_schema(schema), formats.serialize_rules(rules), formats.serialize_graph(graph)]
    name = f"{workload}/g{config.seed}"
    relabel, inputs = _relabel(texts, seed, name, relabel_s)
    paths = [workdir / "instance.schema.txt", workdir / "instance.rules.rq", workdir / "instance.nt"]
    for path, text in zip(paths, inputs):
        path.write_text(text, encoding="utf-8")
    schema_path, rules_path, graph_path = (str(p) for p in paths)
    demo = ["consequence", "--existential", "-s", str(DEMO_DATA / "mine.schema.txt"),
            "-r", str(DEMO_DATA / "mine.rules.rq")]
    golden = partial(DEMO_GOLDEN.read_text, encoding="utf-8")
    return [
        Analysis(f"{name}/validate", inputs, partial(_cli, ["validate", "-s", schema_path, "-g", graph_path]),
                 lambda output: None, partial(_expect_text, lambda: "valid\n")),
        Analysis(f"{name}/closure", inputs, partial(_cli, ["closure", "-g", graph_path, "-r", rules_path]),
                 lambda output: relabel.backward(output[1]), _exit_status),
        Analysis(f"{workload}/mine-existential", (), partial(_cli, demo),
                 lambda output: None, partial(_expect_text, golden)),
    ]


# --- the workloads -----------------------------------------------------------


def _fig2a(n: int, seed: int):
    return _config(0.1, round(1.5 * n), n, n, n, 4, 0, 2, seed)


def build(name: str, smoke: bool = False) -> Workload:
    """The named workload, or its few-second smoke size for self-tests."""
    key = f"{name}-smoke" if smoke else name  # prefixes the analysis names
    if name == "evolve-wide":
        configs = [_fig2a(60 if smoke else 1000, 0)]
        return Workload(name, HANG_LIMIT_S, partial(_evolve_setup, key, configs))
    if name == "evolve-rules":
        n, p, rules = (50, 60, 10) if smoke else (500, 510, 100)
        configs = [_config(0.1, p, n, n, n, rules, 0, 3, 0)]
        return Workload(name, HANG_LIMIT_S, partial(_evolve_setup, key, configs))
    if name == "violations":
        if smoke:
            configs = [_config(0.1, 22, 20, 20, 20, 4, 10, 3, g) for g in range(3)]
        else:
            configs = [_config(0.1, 110, 100, 100, 100, 20, 50, 3, g) for g in range(10)]
        # The fast problems end within 1 s on a quiet host and the slow ones
        # run for more than 60 s; the limit sits in that gap, with room for a
        # host running at half speed and for tracing.
        return Workload(name, 4.0, partial(_violations_setup, key, configs))
    if name == "instance-cli":
        if smoke:
            shape = (_config(0.1, 33, 30, 30, 30, 3, 0, 2, 0), 5, 10)
        else:
            shape = (_config(0.1, 330, 300, 300, 300, 30, 0, 2, 0), 50, 100)
        return Workload(name, HANG_LIMIT_S, partial(_instance_cli_setup, key, shape))
    raise KeyError(name)


WORKLOADS = ("evolve-wide", "evolve-rules", "violations", "instance-cli")

# Keeps a run under 180 s should a later change make an analysis hang.
HANG_LIMIT_S = 40.0
