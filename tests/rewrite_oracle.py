"""The rewriting search that renames every rule for every rewriting, kept
as the oracle that the predicate-indexed ``rewrite_antecedents`` is tested
against.

Each dequeued rewriting renames every inference rule apart, unifies every
antecedent triple with every renamed consequent triple, and prunes by a
homomorphism test that always runs the join. It is a direct transcription
of backward unfolding. It draws fresh names for every rule it renames,
where the indexed search draws them only for the rules that can unify, so
the two results are compared up to homomorphic equivalence.
"""

from __future__ import annotations

from typing import Sequence

from schemaforge import FreshNames, Graph, InferenceRule, Mapping, Triple
from schemaforge.errors import RewriteDepthExceededError
from schemaforge.eval import _join
from schemaforge.existential import MAX_REWRITE_DEPTH, Rewriting, _mgu
from schemaforge.terms import pattern_vars


def _homomorphism_exists(src: frozenset[Triple], dst: frozenset[Triple]) -> bool:
    target = Graph(dst, validate=False)
    goals = [(t, target) for t in sorted(src, key=Triple.sort_key)]
    return next(_join(goals), None) is not None


def _rename_apart(rule: InferenceRule, fresh: FreshNames) -> tuple[frozenset[Triple], list[Triple]]:
    renaming = Mapping.of(
        {name: fresh.fresh_var("r") for name in sorted(pattern_vars(rule.antecedent | rule.consequent))}
    )
    return renaming.apply(rule.antecedent), sorted(renaming.apply(rule.consequent), key=Triple.sort_key)


def oracle_rewrite_antecedents(
    rule: InferenceRule,
    rules: Sequence[InferenceRule],
    fresh: FreshNames | None = None,
) -> list[Rewriting]:
    """The rule's antecedent plus every minimal backward unfolding."""
    if fresh is None:
        fresh = FreshNames.of(*(r.antecedent | r.consequent for r in (*rules, rule)))

    start = Rewriting(frozenset(rule.antecedent), 0)
    kept: list[Rewriting] = [start]
    queue: list[Rewriting] = [start]
    while queue:
        current = queue.pop(0)
        if current.depth >= MAX_REWRITE_DEPTH:
            raise RewriteDepthExceededError(
                f"antecedent rewriting of rule {rule.name or '?'} exceeded depth {MAX_REWRITE_DEPTH}"
            )
        # One renaming per rule keeps every candidate of this rewriting apart.
        renamings = [_rename_apart(other, fresh) for other in rules]
        for t in sorted(current.antecedent, key=Triple.sort_key):
            for antecedent, consequent in renamings:
                for t_c in consequent:
                    theta = _mgu(t, t_c)
                    if theta is None:
                        continue
                    new_antecedent = theta.apply(current.antecedent - {t}) | theta.apply(antecedent)
                    candidate = Rewriting(new_antecedent, current.depth + 1)
                    if any(_homomorphism_exists(k.antecedent, candidate.antecedent) for k in kept):
                        continue
                    dominated = [
                        k for k in kept if _homomorphism_exists(candidate.antecedent, k.antecedent)
                    ]
                    for k in dominated:
                        kept.remove(k)
                        if k in queue:
                            queue.remove(k)
                    kept.append(candidate)
                    queue.append(candidate)
    return kept
