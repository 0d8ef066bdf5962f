#!/usr/bin/env python3
"""Two canonical instances, one answer.

A schema consequence is computed by matching a rule's antecedent against a
stand-in for "all instances at once". This script builds both stand-ins for
a small schema: the critical instance (every wildcard replaced by every
known constant plus a placeholder, exponentially many triples) and the
sandbox graph (every wildcard collapsed to the placeholder, one triple per
pattern), shows how the antecedent matches the sandbox with the placeholder
as a wildcard, and demonstrates that both routes produce equivalent schemas while their costs
diverge quickly.
"""

from __future__ import annotations

import time

from schemaforge import (
    Mapping,
    Triple,
    basic_consequence,
    build_critical,
    build_sandbox,
    evaluate_union_query,
    schema_equivalent,
    simple_schema_consequence,
)
from schemaforge.consequence import CRITICAL, SCORE, lambda_for
from schemaforge.formats import compact_term, serialize_schema, triple_str
from schemaforge.generator import GeneratorConfig, generate


def main() -> None:
    config = GeneratorConfig(
        pi_c=0.3, p_count=6, u_count=3, l_count=3, schema_size=4,
        rule_count=1, existential_count=0, antecedent_len=2, seed=4,
    )
    schema, (rule,) = generate(config)
    lam = lambda_for(schema, rule)

    print("== a small schema and one chain rule ==")
    print(serialize_schema(schema))
    print("rule antecedent:")
    for t in rule.sorted_antecedent():
        print(f"  {triple_str(t, {})}")
    print("rule consequent:")
    for t in rule.sorted_consequent():
        print(f"  {triple_str(t, {})}")

    sandbox = build_sandbox(schema, lam)
    critical = build_critical(schema, rule, lam)
    print(f"\nsandbox graph: {len(sandbox)} triples (one per pattern)")
    print(f"critical instance: {len(critical)} triples (constants^variables blow-up)")

    print("\n== the placeholder rewriting evaluated over the sandbox ==")
    for t in rule.sorted_antecedent():
        print(f"  {triple_str(t, {})}  matches, the placeholder as a wildcard:")
        for u in sorted(sandbox, key=Triple.sort_key):
            if all(a.is_variable or b in (a, lam) for a, b in zip(t, u)):
                print(f"    {triple_str(u, {})}")
    print("  answers:")
    for m in sorted(evaluate_union_query(rule.antecedent, lam, sandbox), key=Mapping.sort_key):
        print("    " + ", ".join(f"?{name} = {compact_term(value, {})}" for name, value in m))

    left, _ = basic_consequence(schema, rule, SCORE)
    right, _ = basic_consequence(schema, rule, CRITICAL)
    print(f"\nboth routes compute equivalent consequences: {schema_equivalent(left, right)}")

    print("\n== and the costs diverge as the schema grows ==")
    for size in (10, 20, 30):
        big = GeneratorConfig(
            pi_c=0.1, p_count=round(1.5 * size), u_count=size, l_count=size,
            schema_size=size, rule_count=4, existential_count=0, antecedent_len=2, seed=1,
        )
        big_schema, big_rules = generate(big)
        start = time.perf_counter()
        simple_schema_consequence(big_schema, big_rules, mode=SCORE)
        score_time = time.perf_counter() - start
        start = time.perf_counter()
        simple_schema_consequence(big_schema, big_rules, mode=CRITICAL)
        critical_time = time.perf_counter() - start
        print(f"  size {size:3d}: rewriting {score_time*1000:7.1f} ms   critical {critical_time*1000:9.1f} ms")


if __name__ == "__main__":
    main()
