"""Command-line interface.

Subcommands:

* ``consequence`` — evolved schema of a schema file under a rules file,
  simple or existential-preserving, by either algorithm.
* ``validate`` — check a graph against a schema.
* ``closure`` — close a graph under a rules file.
* ``applicable`` — which rules can fire on some instance of a schema.
* ``shacl2schema`` / ``schema2shacl`` — translate shape documents.
* ``bench`` — run a generated benchmark sweep to CSV.

Exit codes: 0 success, 1 usage error, 2 parse error, 3 resource budget
exceeded, 4 unsupported SHACL construct.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bench import run_benchmark, write_csv
from .consequence import simple_schema_consequence, simple_schema_consequence_report
from .errors import BudgetExceededError, ParseError, SchemaforgeError, UnsupportedShaclError
from .eval import BudgetClock
from .existential import existential_schema_consequence
from .formats import (
    triple_str,
    parse_graph,
    parse_rules,
    parse_schema,
    serialize_graph,
    serialize_schema,
)
from .rules import closure
from .schema import is_instance
from .shacl import ShapeDocument, schema_to_shacl, shacl_to_schema

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_SHACL = 4


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse exits 2 by default; we use 1
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(str(exc), path) from exc


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _cmd_consequence(args: argparse.Namespace) -> int:
    schema, schema_prefixes = parse_schema(_read(args.schema), args.schema)
    rules, rule_prefixes = parse_rules(_read(args.rules), args.rules)
    prefixes = {**schema_prefixes, **rule_prefixes}
    clock = BudgetClock(args.budget)
    if args.existential:
        out, report = existential_schema_consequence(schema, rules, mode=args.algo, clock=clock)
        _write_output(serialize_schema(out, prefixes), args.output)
        print(f"existential rules violated: {len(report.violated)}")
        for violation in report.violated:
            rule = violation.rule
            antecedent = triple_str(rule.antecedent, prefixes)
            consequent = triple_str(rule.consequent, prefixes)
            print(f"violated: {antecedent} => {consequent} (via {violation.via_rule})")
            print("  witness instance:")
            for line in serialize_graph(violation.witness, prefixes).splitlines():
                if line.strip():
                    print(f"    {line}")
    else:
        simple = simple_schema_consequence(schema, rules, mode=args.algo, clock=clock)
        _write_output(serialize_schema(simple, prefixes), args.output)
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    schema, _ = parse_schema(_read(args.schema), args.schema)
    graph, _ = parse_graph(_read(args.graph), args.graph)
    print("valid" if is_instance(graph, schema) else "invalid")
    return EXIT_OK


def _cmd_closure(args: argparse.Namespace) -> int:
    graph, graph_prefixes = parse_graph(_read(args.graph), args.graph)
    rules, rule_prefixes = parse_rules(_read(args.rules), args.rules)
    closed = closure(graph, rules, clock=BudgetClock(args.budget))
    _write_output(serialize_graph(closed, {**graph_prefixes, **rule_prefixes}), args.output)
    return EXIT_OK


def _cmd_applicable(args: argparse.Namespace) -> int:
    schema, _ = parse_schema(_read(args.schema), args.schema)
    rules, _ = parse_rules(_read(args.rules), args.rules)
    report = simple_schema_consequence_report(schema, rules, clock=BudgetClock(args.budget))
    for i in report.fired:
        print(rules[i].name)
    return EXIT_OK


def _cmd_shacl2schema(args: argparse.Namespace) -> int:
    doc = ShapeDocument.from_text(_read(args.input), args.input)
    schema = shacl_to_schema(doc)
    _write_output(serialize_schema(schema, doc.prefix_map()), args.output)
    return EXIT_OK


def _cmd_schema2shacl(args: argparse.Namespace) -> int:
    schema, prefixes = parse_schema(_read(args.input), args.input)
    doc = schema_to_shacl(schema)
    prefixes = {**doc.prefix_map(), **prefixes}
    _write_output(ShapeDocument.of(doc.graph, prefixes).to_text(), args.output)
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    try:
        config = json.loads(_read(args.config))
    except json.JSONDecodeError as exc:
        raise ParseError(str(exc), args.config) from exc
    if not isinstance(config, dict):
        raise ParseError("a sweep configuration must be a JSON object", args.config)
    base, points = config.get("base", {}), config.get("points", [{}])
    if not (isinstance(base, dict) and isinstance(points, list) and all(isinstance(p, dict) for p in points)):
        raise ParseError('"base" must be an object and "points" a list of objects', args.config)
    records = run_benchmark(
        base=base,
        points=points,
        algorithms=config.get("algorithms", ["score"]),
        modes=config.get("modes", ["simple"]),
        budget_seconds=config.get("budget_seconds", 600.0),
        repetitions=config.get("repetitions", 1),
    )
    write_csv(records, args.csv)
    print(f"wrote {len(records)} records to {args.csv}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="schemaforge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("consequence", help="compute a schema consequence")
    kind = p.add_mutually_exclusive_group()
    kind.add_argument("--simple", action="store_true", help="graph/no-literal parts only (default)")
    kind.add_argument("--existential", action="store_true", help="also retain surviving existential rules")
    p.add_argument("--algo", choices=["score", "critical"], default="score")
    p.add_argument("-s", "--schema", required=True)
    p.add_argument("-r", "--rules", required=True)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--budget", type=float, default=600.0, help="wall-clock budget in seconds")
    p.set_defaults(func=_cmd_consequence)

    p = sub.add_parser("validate", help="check a graph against a schema")
    p.add_argument("-s", "--schema", required=True)
    p.add_argument("-g", "--graph", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("closure", help="close a graph under inference rules")
    p.add_argument("-g", "--graph", required=True)
    p.add_argument("-r", "--rules", required=True)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--budget", type=float, default=600.0)
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("applicable", help="rules that fire on some instance of the schema")
    p.add_argument("-s", "--schema", required=True)
    p.add_argument("-r", "--rules", required=True)
    p.add_argument("--budget", type=float, default=600.0)
    p.set_defaults(func=_cmd_applicable)

    p = sub.add_parser("shacl2schema", help="translate a shape document to a schema")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_shacl2schema)

    p = sub.add_parser("schema2shacl", help="translate a schema to a shape document")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_schema2shacl)

    p = sub.add_parser("bench", help="run a benchmark sweep to CSV")
    p.add_argument("--config", required=True, help="JSON sweep description")
    p.add_argument("--csv", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except UnsupportedShaclError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SHACL
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except SchemaforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
