"""Conjunctive-pattern evaluation over in-memory graphs.

The join, :func:`_join`, matches a conjunction of triple patterns, each in
its own graph: basic graph patterns, semi-naive closure steps (one pattern
in the delta) and the homomorphism test of the rewriting search (over the
target frozen into a graph). It is a left-deep nested loop with index
lookups on the positions already bound, the patterns planned once per
call, most-bound first.

A union query rewrites a rule antecedent for the sandbox graph, in which
every schema variable is collapsed to one reserved placeholder IRI: each
triple expands into the 8 variants that substitute any subset of its
positions with the placeholder, or 4 when the graph cannot hold the
placeholder in predicate position. Its answers are the mappings over all
the antecedent's variables that send one chosen variant per triple into
the graph. A join over the choices reaches a mapping once per choice that
produces it, a count that grows about threefold per triple, so
:func:`evaluate_union_query` binds each variable once instead, as a
constraint problem (Dechter, *Constraint Processing*, 2003, ch. 3). A
variable's domain is the graph terms at the positions where some variant
keeps it, looked up with the variables already bound. A triple is tested
once its variables are bound, one membership probe per variant. A mapping
is kept when one held variant per triple can be chosen so that the chosen
variants *together* keep every variable: over ``{(λ :p :c), (:a :p λ)}``,
``?x :p ?y`` under ``{x: :a, y: :c}`` holds ``(λ :p ?y)`` and
``(?x :p λ)``, one keeping each variable, yet no one variant keeps both,
so that mapping is no answer. A one-triple query has no choice to make
jointly: the join matches each of its variants that keeps every variable,
which costs less than laying out the search for it.

Graphs here are small (the sandbox has one triple per schema pattern),
except for critical instances where the cost explosion is exactly the
phenomenon under study. Results are duplicate-free sets of mappings.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import BudgetExceededError
from .terms import Graph, Mapping, Term, Triple


class BudgetClock:
    """Cooperative wall-clock budget. check() raises once the deadline passes.

    Checks are throttled so callers may invoke it in tight loops.
    """

    def __init__(self, seconds: float | None):
        self.deadline = None if seconds is None else time.perf_counter() + seconds
        self._ticks = 0

    def check(self, every: int = 1024) -> None:
        if self.deadline is None:
            return
        self._ticks += 1
        if self._ticks % every == 0 and time.perf_counter() > self.deadline:
            raise BudgetExceededError("wall-clock budget exceeded")


Goal = tuple[Triple, Graph]


def _most_bound_first(patterns: Sequence[Triple]) -> list[int]:
    """The patterns' positions in join order: next the pattern with the
    fewest variable positions not bound by those before it, ties in list
    order."""
    names = [[t.lexical for t in pattern if t.is_variable] for pattern in patterns]
    bound: set[str] = set()
    pending = list(range(len(patterns)))
    order: list[int] = []
    while len(pending) > 1:
        unbound = [sum(n not in bound for n in names[i]) for i in pending]
        order.append(pending.pop(unbound.index(min(unbound))))
        bound.update(names[order[-1]])
    return order + pending


def _extend(
    goals: Sequence[Goal], depth: int, binding: dict[str, Term], clock: BudgetClock | None
) -> Iterator[dict[str, Term]]:
    """The bindings extending ``binding`` through the goals from ``depth``
    on. A module-level generator rather than a nested function, so no
    reference cycle keeps the goals' graphs alive after the join."""
    if clock is not None:
        clock.check()
    if depth == len(goals):
        yield binding
        return
    pattern, graph = goals[depth]
    lookup = [term if term.is_constant else binding.get(term.lexical) for term in pattern]
    for t in graph.match(*lookup):
        new = dict(binding)
        for term, value in zip(pattern, t):
            if term.is_variable and term.lexical not in binding:
                prior = new.setdefault(term.lexical, value)
                if prior is not value and prior != value:
                    break
        else:
            yield from _extend(goals, depth + 1, new, clock)


def _join(goals: Sequence[Goal], clock: BudgetClock | None = None) -> Iterator[dict[str, Term]]:
    """Lazily, every binding sending each goal's pattern into the goal's graph."""
    order = _most_bound_first([pattern for pattern, _ in goals])
    return _extend([goals[i] for i in order], 0, {}, clock)


def evaluate_bgp(
    patterns: Iterable[Triple],
    graph: Graph,
    clock: BudgetClock | None = None,
) -> set[Mapping]:
    """All mappings m with domain vars(P) and m(P) contained in the graph.

    A ground pattern contained in the graph yields the singleton set holding
    the empty mapping; an empty pattern likewise.
    """
    goals = [(t, graph) for t in sorted(patterns, key=Triple.sort_key)]
    return set(map(Mapping.of, _join(goals, clock)))


@dataclass(frozen=True)
class UnionEntry:
    """One antecedent triple with its placeholder-substituted alternatives."""

    source: Triple
    alternatives: tuple[Triple, ...]


@dataclass(frozen=True)
class UnionQuery:
    """Conjunction over entries, disjunction over each entry's alternatives."""

    entries: tuple[UnionEntry, ...]


def lambda_variants(
    t: Triple, lam: Term, drop_lambda_predicates: bool = False
) -> tuple[Triple, ...]:
    """The triple with every subset of its positions replaced by the
    placeholder, the triple itself first.

    ``drop_lambda_predicates`` applies the optimisation that is sound when
    the target graph has no placeholder in predicate position (schemas with
    constant predicates): variants with the placeholder as predicate can
    never match and are omitted.
    """
    variants = (
        Triple(s, p, o)
        for s in (t.s, lam)
        for p in (t.p, lam)
        if not (drop_lambda_predicates and p == lam != t.p)
        for o in (t.o, lam)
    )
    return tuple(dict.fromkeys(variants))


def build_lambda_rewriting(
    antecedent: Iterable[Triple],
    lam: Term,
    drop_lambda_predicates: bool = False,
) -> UnionQuery:
    """Expand each triple into its placeholder variants."""
    return UnionQuery(
        tuple(
            UnionEntry(t, lambda_variants(t, lam, drop_lambda_predicates))
            for t in sorted(antecedent, key=Triple.sort_key)
        )
    )


def evaluate_union_query(
    query: UnionQuery,
    graph: Graph,
    clock: BudgetClock | None = None,
) -> set[Mapping]:
    """Union over all alternative choices, one alternative per entry, of
    the mappings binding every variable of the source antecedent: those
    sending each chosen alternative into the graph while the chosen
    alternatives together keep every variable. Each variable is bound once
    (see the module notes), so each mapping is reached once."""
    if len(query.entries) == 1:
        (entry,) = query.entries
        variables = {t for t in entry.source if t.is_variable}
        full = [alt for alt in entry.alternatives if variables <= set(alt)]
        return {Mapping.of(b) for alt in full for b in _join([(alt, graph)], clock)}
    return set(_assign(_UnionPlan(query, graph), 0, {}, [0], clock))


def _maximal(masks: Iterable[int]) -> list[int]:
    """The masks that no other mask of the collection strictly contains."""
    distinct = set(masks)
    return [m for m in distinct if not any(m != o and m & o == m for o in distinct)]


class _UnionPlan:
    """A union query laid out for :func:`_assign`. Variables are bound in
    a fixed order, each entry's new ones in position order with the
    entries taken most-bound first (ties in query order); variable ``k`` is
    bit ``k`` of a mask. ``tests[d]`` holds the entries whose variables are
    the first ``d``, each as its alternatives with the mask each keeps.
    ``domains[k]`` pairs lookups, the unbound variables left open, with
    variable ``k``'s positions in them. An alternative substituting a later
    variable gives no lookup: the one keeping it finds a superset."""

    __slots__ = ("graph", "variables", "tests", "domains")

    def __init__(self, query: UnionQuery, graph: Graph) -> None:
        self.graph = graph
        sources = [entry.source for entry in query.entries]
        order = _most_bound_first(sources)
        self.variables = list(dict.fromkeys(t for i in order for t in sources[i] if t.is_variable))
        index = {v: k for k, v in enumerate(self.variables)}

        def mask(pattern: Triple) -> int:
            return sum(1 << k for k in {index[t] for t in pattern if t.is_variable})

        self.tests: list[list[list[tuple[Triple, int]]]] = [[] for _ in range(len(index) + 1)]
        self.domains: list[set[tuple[tuple, tuple[int, ...]]]] = [set() for _ in index]
        for entry in query.entries:
            variables = mask(entry.source)
            alternatives = [(alt, mask(alt)) for alt in entry.alternatives]
            self.tests[variables.bit_length()].append(alternatives)
            for alt, kept in alternatives:
                floor = (variables ^ kept).bit_length()
                for t in {t for t in alt if t.is_variable and index[t] >= floor}:
                    k = index[t]
                    lookup = tuple(None if u.is_variable and index[u] >= k else u for u in alt)
                    self.domains[k].add((lookup, tuple(i for i, u in enumerate(alt) if u == t)))

    def domain(self, k: int, binding: dict[Term, Term]) -> set[Term]:
        """The graph terms at variable ``k``'s kept positions, looked up
        with the variables bound so far; one term at all of them."""
        values: set[Term] = set()
        for lookup, (first, *rest) in self.domains[k]:
            for t in self.graph.match(*map(binding.get, lookup, lookup)):
                if all(t[i] == t[first] for i in rest):
                    values.add(t[first])
        return values

    def cover(self, depth: int, binding: dict[Term, Term], covers: list[int]) -> list[int]:
        """The variable masks that one held alternative per tested entry
        can keep, once the entries of ``tests[depth]`` are probed. Empty
        means that no choice succeeds."""
        for alternatives in self.tests[depth]:
            held = _maximal(m for alt, m in alternatives if Triple(*map(binding.get, alt, alt)) in self.graph)
            covers = _maximal(c | h for c in covers for h in held)
        if depth == len(self.variables):
            return [c for c in covers if c == (1 << depth) - 1]
        return covers


def _assign(
    plan: _UnionPlan, depth: int, binding: dict[Term, Term], covers: list[int], clock: BudgetClock | None
) -> Iterator[Mapping]:
    """The mappings extending ``binding``, which holds the first ``depth``
    variables. A module-level generator rather than a nested function, so
    no reference cycle keeps the graph alive after the call."""
    if clock is not None:
        clock.check()
    covers = plan.cover(depth, binding, covers)
    if not covers:
        return
    if depth == len(plan.variables):
        yield Mapping.of((v.lexical, value) for v, value in binding.items())
        return
    variable = plan.variables[depth]
    for value in plan.domain(depth, binding):
        binding[variable] = value
        yield from _assign(plan, depth + 1, binding, covers, clock)
    binding.pop(variable, None)
