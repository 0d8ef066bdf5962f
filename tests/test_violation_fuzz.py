"""Randomised cross-check of the violation search against enumeration.

The backward-rewriting search promises that its grounded candidates are
representative of all instances whose closure can break an existential
rule; that claim is exercised here empirically. For each seeded random
case, every instance of up to three triples over a small universe is
enumerated, closed, and checked directly; the set of rules found violable
that way must be reported by the search (completeness on small cases),
and every reported violation must come with a sound witness (soundness,
unconditionally). Cases whose random rules fall outside the terminating
class are skipped; the chase step bound and the rewrite depth bound flag
them.
"""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import schemaforge
from schemaforge import (
    BudgetExceededError,
    ExistentialRule,
    Graph,
    InferenceRule,
    Triple,
    TriplestoreSchema,
    closure,
    is_instance,
    iri,
    lit,
    retained_existentials,
    var,
    violations,
)

IRIS = [iri("urn:z:a"), iri("urn:z:b")]
ONE = lit("1")
PREDS = [iri("urn:z:p"), iri("urn:z:q"), iri("urn:z:r")]


def random_case(seed: int) -> tuple[TriplestoreSchema, list[InferenceRule]]:
    rng = random.Random(seed)
    preds = rng.sample(PREDS, rng.randint(2, 3))
    patterns: list[Triple] = []
    delta: set[str] = set()
    names = iter(f"s{i}" for i in range(20))
    for p in preds:
        s = var(next(names))
        delta.add(s.lexical)
        if rng.random() < 0.3:
            o: Triple | object = rng.choice(IRIS + [ONE])
        else:
            o = var(next(names))
            if rng.random() < 0.5:
                delta.add(o.lexical)
        patterns.append(Triple(s, p, o))
    rules = []
    for k in range(rng.randint(1, 2)):
        n = rng.randint(1, 2)
        vs = [var(f"v{k}0"), var(f"v{k}1"), var(f"v{k}2")]
        body = [Triple(vs[i], rng.choice(preds), vs[i + 1]) for i in range(n)]
        rules.append(InferenceRule.of(body, [Triple(vs[0], rng.choice(preds), vs[n])], f"r{k}"))
    existentials = []
    for k in range(rng.randint(1, 2)):
        a = Triple(var(f"e{k}0"), rng.choice(preds), var(f"e{k}1"))
        shared = rng.choice([f"e{k}0", f"e{k}1"])
        if rng.random() < 0.5:
            c = Triple(var(f"e{k}2"), rng.choice(preds), var(shared))
        else:
            c = Triple(var(shared), rng.choice(preds), var(f"e{k}2"))
        existentials.append(ExistentialRule(a, c))
    return TriplestoreSchema.of(patterns, delta, existentials), rules


def valid_triples(schema: TriplestoreSchema) -> list[Triple]:
    out = set()
    for t in sorted(schema.graph, key=Triple.sort_key):
        subjects = [t.s] if t.s.is_constant else IRIS
        if t.o.is_constant:
            objects = [t.o]
        elif t.o.lexical in schema.no_literal:
            objects = IRIS
        else:
            objects = IRIS + [ONE]
        for s, o in itertools.product(subjects, objects):
            out.add(Triple(s, t.p, o))
    return sorted(out, key=Triple.sort_key)


def enumerated_violations(schema, rules, max_size=3) -> set[ExistentialRule]:
    found: set[ExistentialRule] = set()
    universe = valid_triples(schema)
    for size in range(1, max_size + 1):
        for combo in itertools.combinations(universe, size):
            g = Graph(combo)
            if not is_instance(g, schema):
                continue
            for violation in violations(schema.existentials, closure(g, rules)):
                found.add(violation.rule)
    return found


@pytest.mark.parametrize("block", range(4))
def test_search_is_sound_and_complete_on_small_cases(block):
    checked = 0
    for seed in range(block * 30, (block + 1) * 30):
        schema, rules = random_case(seed)
        try:
            report = retained_existentials(schema, rules)
        except BudgetExceededError:
            # random rule sets may be outside the terminating class; the
            # chase step bound and rewrite depth bound flag them
            continue
        for violation in report.violated:
            witness = violation.witness
            assert is_instance(witness, schema), seed
            assert not violations([violation.rule], witness), seed
            assert violations([violation.rule], closure(witness, rules)), seed
        reported = {v.rule for v in report.violated}
        assert enumerated_violations(schema, rules) <= reported, seed
        checked += 1
    assert checked >= 15


def test_seed_81_is_answered_with_a_checked_witness():
    # Enumeration finds a counterexample of at most three triples here. A
    # search that built every grounding up front raised
    # ChaseNonterminationError on one that no existential rule needs.
    schema, rules = random_case(81)
    report = retained_existentials(schema, rules)
    assert report.violated
    for violation in report.violated:
        assert is_instance(violation.witness, schema)
        assert violations([violation.rule], closure(violation.witness, rules))
        assert violation.rule in enumerated_violations(schema, rules)


REPORT_CASE_54 = """
from schemaforge import retained_existentials
from schemaforge.formats import serialize_graph, serialize_schema, triple_str
from test_violation_fuzz import random_case

schema, rules = random_case(54)
report = retained_existentials(schema, rules)
print(serialize_schema(schema))
for e in report.retained:
    print("retained", triple_str(e.antecedent, {}), "=>", triple_str(e.consequent, {}))
for v in report.violated:
    a, c = v.rule.antecedent, v.rule.consequent
    print("violated", triple_str(a, {}), "=>", triple_str(c, {}), v.via_rule)
    print(serialize_graph(v.witness))
"""


def test_reports_and_schemas_are_byte_stable_across_hash_seeds():
    # Case 54 has two violated existential rules equal up to renaming, so
    # their order rests on the sort key's tie-break, not on the set's order.
    path = os.pathsep.join(
        [str(Path(schemaforge.__file__).resolve().parents[1]), str(Path(__file__).resolve().parent)]
    )

    def run(seed: str) -> bytes:
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
        done = subprocess.run(
            [sys.executable, "-c", REPORT_CASE_54], env=env, capture_output=True, timeout=120
        )
        assert done.returncode == 0, done.stderr.decode()
        return done.stdout

    first = run("1")
    assert first.count(b"violated") == 2
    assert run("2") == first
