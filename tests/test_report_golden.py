"""Golden digests of full violation-search reports.

Each report is written out in full: the retained rules, then each violated
rule with its ``via_rule`` and its serialised witness, invented IRIs
included. The sha256 of that text is pinned per problem: the ten problems
of the ``violations`` benchmark workload and the (1000, 100, 300) rung of
the fig2b ladder. A change that alters a single witness fails here; a
change meant to alter witnesses (subset-minimal witnesses, say) updates the
pins deliberately and says which problems changed.
"""

from __future__ import annotations

import hashlib

import pytest

from schemaforge import retained_existentials
from schemaforge.existential import ExistentialReport
from schemaforge.formats import serialize_graph, triple_str
from schemaforge.generator import GeneratorConfig, generate

PINNED = {
    "violations-g0": "17c2a87d5eee7dbbf5ee0a34e72c4bd467de83a8effdcff68d441c8e5eb1d1c3",
    "violations-g1": "0e4645a04c89510739fe64567e0f458898c28cb26ae83ecb3014a48094bb5e4e",
    "violations-g2": "ce5ab1e25857628d7199e6d5e39e49660bd6e4b16e71d6dcf5464e195de6f584",
    "violations-g3": "f81c5de84eb30c2bbf8fa372baaa50a5e83e8f8af96aa750d7d18db04316165a",
    "violations-g4": "4dd34b4c8e74f49977740269cd43243fa506b584c01bac47cc0b3d556f488179",
    "violations-g5": "9bb879e220a90759c1aebeec82f3915eed7b32332336ed81515442847d0f3c38",
    "violations-g6": "e86469c7364c1603a505445c612e1e2490341a60ec5a535a0751d28876f228f4",
    "violations-g7": "ee18e3b35d8e5d1c1a218c56db68596708db8638882490b6adb716548da761c1",
    "violations-g8": "64167270ef237dbb6a0fb3644c73e0761566ccab7359aad1f038b9843045abc0",
    "violations-g9": "1090770f731e05466a1b8981cabb310f5adb564bd03ea8bc83333bfb5e940625",
    "ladder-1000-100-300": "c7457913f016adcec6e5a90fb884a833f0fec4334d32d198887575cba3cab05a",
}

CONFIGS = {
    **{f"violations-g{g}": GeneratorConfig(0.1, 110, 100, 100, 100, 20, 50, 3, g) for g in range(10)},
    "ladder-1000-100-300": GeneratorConfig(0.1, 1100, 1000, 1000, 1000, 100, 300, 3, 0),
}


def report_text(report: ExistentialReport) -> str:
    lines = [f"retained: {triple_str(e.antecedent, {})} => {triple_str(e.consequent, {})}" for e in report.retained]
    for v in report.violated:
        lines.append(f"violated: {triple_str(v.rule.antecedent, {})} => {triple_str(v.rule.consequent, {})}"
                     f" (via {v.via_rule})")
        lines.extend("  " + line for line in serialize_graph(v.witness).splitlines())
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", sorted(PINNED))
def test_reports_match_their_pinned_digests(name):
    schema, rules = generate(CONFIGS[name])
    text = report_text(retained_existentials(schema, rules))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PINNED[name]
