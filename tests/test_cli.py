"""End-to-end command-line behaviour on the shipped fixtures."""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from schemaforge import Triple, TriplestoreSchema, iri, lit, triple_instantiates
from schemaforge.cli import main
from schemaforge.formats import (
    parse_graph,
    parse_schema,
    serialize_graph,
    serialize_rules,
    serialize_schema,
)
from schemaforge.generator import GeneratorConfig, generate

from conftest import cyclic_chase_problem, generated_instance

DATA = Path(__file__).resolve().parents[1] / "demos" / "data"

SCHEMA = str(DATA / "mine.schema.txt")
RULES = str(DATA / "mine.rules.rq")
INSTANCE = str(DATA / "mine.instance.nt")
SHAPES = str(DATA / "mine.shapes.ttl")


def test_validate_instance_is_valid(capsys):
    assert main(["validate", "-s", SCHEMA, "-g", INSTANCE]) == 0
    assert capsys.readouterr().out.strip() == "valid"


def test_closure_contains_trespassing_triple(tmp_path, capsys):
    out = tmp_path / "closure.nt"
    assert main(["closure", "-g", INSTANCE, "-r", RULES, "-o", str(out)]) == 0
    graph, _ = parse_graph(out.read_text(), "closure.nt")
    assert any(
        t.p.lexical.endswith("isTrespassingIn") and t.s.lexical.endswith("WID2")
        for t in graph
    )
    # closed graph is no longer valid against the original schema
    assert main(["validate", "-s", SCHEMA, "-g", str(out)]) == 0
    assert capsys.readouterr().out.strip().endswith("invalid")


def test_existential_consequence_reports_violation(tmp_path, capsys):
    out = tmp_path / "consequence.schema"
    code = main(
        ["consequence", "--existential", "--algo", "score", "-s", SCHEMA, "-r", RULES, "-o", str(out)]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "existential rules violated: 1" in printed
    assert "via r1" in printed
    assert "witness instance" in printed
    schema, _ = parse_schema(out.read_text(), "consequence.schema")
    assert not schema.existentials
    predicates = {t.p.lexical for t in schema.graph}
    assert any(p.endswith("isTrespassingIn") for p in predicates)
    assert any(p.endswith("isLocatedIn") for p in predicates)


def test_simple_consequence_to_stdout(capsys):
    assert main(["consequence", "--simple", "-s", SCHEMA, "-r", RULES]) == 0
    out = capsys.readouterr().out
    assert "GRAPH {" in out and "isTrespassingIn" in out


def test_both_algorithms_print_identical_consequences(capsys):
    assert main(["consequence", "--simple", "--algo", "score", "-s", SCHEMA, "-r", RULES]) == 0
    score_out = capsys.readouterr().out
    assert main(["consequence", "--simple", "--algo", "critical", "-s", SCHEMA, "-r", RULES]) == 0
    critical_out = capsys.readouterr().out
    assert score_out == critical_out  # canonical form, not just equivalence


def test_applicable_lists_all_rules(capsys):
    assert main(["applicable", "-s", SCHEMA, "-r", RULES]) == 0
    assert capsys.readouterr().out.split() == ["r1", "r2", "r3"]


def test_shacl_pipeline(tmp_path, capsys):
    schema_out = tmp_path / "from_shapes.schema"
    assert main(["shacl2schema", "-i", SHAPES, "-o", str(schema_out)]) == 0
    text = schema_out.read_text()
    assert "GRAPH {" in text and "carriedBy" in text and "=>" in text

    shapes_out = tmp_path / "emitted.ttl"
    assert main(["schema2shacl", "-i", str(schema_out), "-o", str(shapes_out)]) == 0
    schema_again = tmp_path / "again.schema"
    assert main(["shacl2schema", "-i", str(shapes_out), "-o", str(schema_again)]) == 0
    first, _ = parse_schema(schema_out.read_text())
    second, _ = parse_schema(schema_again.read_text())
    from schemaforge import schema_equivalent

    assert schema_equivalent(first, second)


def test_bench_writes_csv(tmp_path, capsys):
    config = {
        "base": {
            "pi_c": 0.1,
            "p_count": 8,
            "u_count": 5,
            "l_count": 5,
            "schema_size": 5,
            "rule_count": 2,
            "existential_count": 1,
            "antecedent_len": 2,
            "seed": 11,
        },
        "points": [{}, {"schema_size": 6}],
        "algorithms": ["score"],
        "modes": ["simple", "existential"],
        "budget_seconds": 60,
        "repetitions": 1,
    }
    config_path = tmp_path / "sweep.json"
    config_path.write_text(json.dumps(config))
    csv_path = tmp_path / "out.csv"
    assert main(["bench", "--config", str(config_path), "--csv", str(csv_path)]) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("seed,schema_size,")
    assert len(lines) == 1 + 4  # two points x two modes


def test_seed_env_override(tmp_path, monkeypatch):
    config = {
        "base": {
            "pi_c": 0.0,
            "p_count": 8,
            "u_count": 5,
            "l_count": 5,
            "schema_size": 4,
            "rule_count": 2,
            "existential_count": 0,
            "antecedent_len": 2,
            "seed": 11,
        },
        "algorithms": ["score"],
        "modes": ["simple"],
        "budget_seconds": 60,
    }
    config_path = tmp_path / "sweep.json"
    config_path.write_text(json.dumps(config))
    csv_path = tmp_path / "out.csv"
    monkeypatch.setenv("SCHEMAFORGE_SEED", "99")
    assert main(["bench", "--config", str(config_path), "--csv", str(csv_path)]) == 0
    row = csv_path.read_text().splitlines()[1]
    assert row.startswith("99,")


def test_exit_codes(tmp_path, capsys):
    assert main(["nosuchcommand"]) == 1
    assert main(["validate", "-s", SCHEMA]) == 1  # missing -g
    broken = tmp_path / "broken.schema"
    broken.write_text("GRAPH { ?v <urn:p> }")
    assert main(["validate", "-s", str(broken), "-g", INSTANCE]) == 2
    bad_shapes = tmp_path / "bad.ttl"
    bad_shapes.write_text(
        """
        @prefix sh: <http://www.w3.org/ns/shacl#> .
        @prefix ex: <urn:t:> .
        ex:s a sh:NodeShape ; sh:targetObjectsOf ex:p ; sh:not [ sh:in ( ex:a ) ] .
        """
    )
    assert main(["shacl2schema", "-i", str(bad_shapes)]) == 4
    assert main(["consequence", "-s", SCHEMA, "-r", RULES, "--budget", "0.0001"]) == 3


def test_budget_bounds_the_existential_chase(tmp_path, capsys):
    schema, rules = cyclic_chase_problem()
    schema_path, rules_path = tmp_path / "cyclic.schema", tmp_path / "cyclic.rq"
    schema_path.write_text(serialize_schema(schema))
    rules_path.write_text(serialize_rules(rules))
    args = ["consequence", "--existential", "-s", str(schema_path), "-r", str(rules_path)]
    assert main([*args, "--budget", "1"]) == 3
    # The chase's step bound also exits 3, 7 to 9 s later; the message
    # tells the spent budget apart.
    assert "wall-clock budget exceeded" in capsys.readouterr().err


def test_duplicate_rule_names_exit_2(tmp_path, capsys):
    text = Path(RULES).read_text().replace("# name: r2", "# name: r1")
    rules = tmp_path / "dup.rq"
    rules.write_text(text)
    assert main(["consequence", "--existential", "-s", SCHEMA, "-r", str(rules)]) == 2
    assert "duplicate rule name 'r1'" in capsys.readouterr().err


# --- validate on a generated instance ------------------------------------------


def validate_verdict(tmp_path, schema, graph) -> str:
    schema_path, graph_path = tmp_path / "v.schema", tmp_path / "v.nt"
    schema_path.write_text(serialize_schema(schema))
    graph_path.write_text(serialize_graph(graph))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["validate", "-s", str(schema_path), "-g", str(graph_path)]) == 0
    return out.getvalue()


def test_validate_turns_away_a_planted_triple(tmp_path):
    # The shape of the benchmark's instance check, at a small size. Its
    # benchmark run only ever sees valid instances, so this one plants an
    # uncovered triple: one on a predicate no pattern has, and one with a
    # literal under an object variable of the no-literal set.
    schema, _ = generate(GeneratorConfig(0.1, 33, 30, 30, 30, 3, 0, 2, 0))
    graph = generated_instance(schema)
    assert validate_verdict(tmp_path, schema, graph) == "valid\n"

    stray = Triple(iri("urn:inst:s"), iri("urn:inst:no-such-predicate"), iri("urn:inst:o"))
    assert not any(triple_instantiates(stray, p, schema.no_literal) for p in schema.graph)
    assert validate_verdict(tmp_path, schema, graph.union([stray])) == "invalid\n"

    for pattern in schema.sorted_patterns():
        if pattern.o.is_variable and pattern.s.is_variable:
            strict = TriplestoreSchema.of(schema.graph, schema.no_literal | {pattern.o.lexical})
            planted = Triple(iri("urn:inst:i0"), pattern.p, lit("planted"))
            if not any(triple_instantiates(planted, p, strict.no_literal) for p in strict.graph):
                break
    else:
        raise AssertionError("no pattern to plant a literal under")
    assert triple_instantiates(Triple(planted.s, planted.p, iri("urn:inst:i1")), pattern, strict.no_literal)
    strict_graph = generated_instance(strict)
    assert validate_verdict(tmp_path, strict, strict_graph) == "valid\n"
    assert validate_verdict(tmp_path, strict, strict_graph.union([planted])) == "invalid\n"
