"""Graph lookups and the hashing they rest on.

``Graph.match`` answers each probe shape (which of subject, predicate and
object are bound) from its own lazily built index, or for (s, p) and
(p, o) from a per-predicate partition, so every shape is compared here with
a brute-force filter over the graph, also across in-place inserts and
freezes. A counting guard holds closure on a benchmark-shaped instance to
partitions of the predicates its rules probe. Terms, triples and
mappings are tuples; the hash contract is checked within a process, through
copying and pickling, and across two processes whose string hashes are
salted differently.
"""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import schemaforge
from schemaforge import Graph, Mapping, Term, Triple, closure, iri, lit, var
from schemaforge.generator import GeneratorConfig, generate

from conftest import generated_instance

EXAMPLES = settings(derandomize=True, database=None, max_examples=200, deadline=None)

IRIS = [iri(f"urn:g:{name}") for name in "abcd"]
LITERALS = [lit("1"), lit("urn:g:a")]  # a literal spelled like an IRI
SHAPES = [(bool(mask & 1), bool(mask & 2), bool(mask & 4)) for mask in range(8)]

ground_triples = st.builds(
    Triple, st.sampled_from(IRIS), st.sampled_from(IRIS[:2]), st.sampled_from(IRIS + LITERALS)
)
probes = st.builds(
    Triple, st.sampled_from(IRIS), st.sampled_from(IRIS), st.sampled_from(IRIS + LITERALS)
)


def brute_force(graph: Graph, s, p, o) -> list[Triple]:
    return sorted(
        (t for t in graph
         if (s is None or t.s == s) and (p is None or t.p == p) and (o is None or t.o == o)),
        key=Triple.sort_key,
    )


@EXAMPLES
@given(st.sets(ground_triples, max_size=12), st.lists(probes, min_size=1, max_size=4))
def test_match_agrees_with_a_brute_force_filter_on_every_shape(triples, probe_list):
    # One graph answers every shape, so an index keyed for the wrong
    # shape, or shared between two shapes, gives a wrong answer; probing
    # each shape again reads its index after it was built.
    graph = Graph(triples)
    for _ in range(2):
        for probe in probe_list:
            for shape in SHAPES:
                s, p, o = (term if bound else None for term, bound in zip(probe, shape))
                got = graph.match(s, p, o)
                assert sorted(got, key=Triple.sort_key) == brute_force(graph, s, p, o)


# --- predicate partitions under insert and freeze ---------------------------

inserts = st.builds(
    Triple, st.sampled_from(IRIS), st.sampled_from(IRIS), st.sampled_from(IRIS + LITERALS)
)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), inserts),
        st.tuples(st.just("match"), probes, st.sampled_from(SHAPES)),
        st.tuples(st.just("freeze")),
    ),
    max_size=30,
)


def assert_matches_filter(graph: Graph, probe: Triple, shape: tuple) -> None:
    s, p, o = (term if bound else None for term, bound in zip(probe, shape))
    assert sorted(graph.match(s, p, o), key=Triple.sort_key) == brute_force(graph, s, p, o)


@EXAMPLES
@given(st.sets(ground_triples, max_size=10), st.lists(probes, min_size=1, max_size=3), operations)
def test_match_agrees_with_a_filter_across_inserts_and_freezes(triples, probe_list, ops):
    # Partitions built before the inserts must be kept up to date by them,
    # also for predicates the graph lacked when first probed; partitions
    # built after them, by the interleaved and the final probes, must hold
    # the inserted triples. Probing each inserted triple reads its keys.
    graph = Graph(triples)
    for probe in probe_list:
        for shape in SHAPES:
            assert_matches_filter(graph, probe, shape)
    inserted = []
    for op in ops:
        if op[0] == "insert":
            is_new = op[1] not in graph
            assert graph.insert(op[1]) == is_new and op[1] in graph
            inserted.append(op[1])
        elif op[0] == "match":
            assert_matches_filter(graph, *op[1:])
        else:
            graph.freeze()
        assert set(graph.predicates()) == {t.p for t in graph}
    for probe in probe_list + inserted:
        for shape in SHAPES:
            assert_matches_filter(graph, probe, shape)


def test_insert_reports_new_triples_and_reaches_built_partitions():
    a, b, c = IRIS[:3]
    graph = Graph([Triple(a, b, c)])
    assert graph.match(a, b, None) == [Triple(a, b, c)]
    assert graph.match(None, c, a) == []  # no triple on c yet: nothing kept
    assert graph.insert(Triple(a, b, a)) and not graph.insert(Triple(a, b, a))
    assert graph.insert(Triple(b, c, a))
    assert sorted(graph.match(a, b, None)) == sorted([Triple(a, b, c), Triple(a, b, a)])
    assert graph.match(None, c, a) == [Triple(b, c, a)]
    assert set(graph.freeze().predicates()) == {b, c}


def test_closure_partitions_only_the_predicates_its_rules_probe():
    # The data shape of the benchmark's closure: a 14k-triple instance of a
    # generated schema and 30 rules of antecedent length 2. Closure must not
    # index the whole graph for (s, p) or (p, o) lookups: the only index
    # over the whole graph is the predicate index, and each partition is
    # of a rule's antecedent predicate and built once per graph.
    schema, rules = generate(GeneratorConfig(0.1, 330, 300, 300, 300, 30, 0, 2, 0))
    graph = generated_instance(schema, 50, 100)
    partitions, whole = [], set()
    real_partition, real_index = Graph._partition, Graph._index

    def partition(self, mask, p):
        part = real_partition(self, mask, p)
        partitions.append((id(self), mask, p, sum(map(len, part.values()))))
        return part

    def index(self, mask):
        if len(self) >= len(graph):
            whole.add(mask)
        return real_index(self, mask)

    with mock.patch.object(Graph, "_partition", partition), mock.patch.object(Graph, "_index", index):
        closed = closure(graph, rules)
    assert closed == closure(graph, rules, naive=True) and len(closed) > len(graph)
    probed = {t.p for rule in rules for t in rule.antecedent}
    assert whole == {2}
    assert partitions and {p for _, _, p, _ in partitions} <= probed
    assert len({key[:3] for key in partitions}) == len(partitions)
    assert sum(size for *_, size in partitions) < len(graph) / 2


# --- the hash contract ------------------------------------------------------


def test_terms_triples_and_mappings_hash_and_compare_as_tuples():
    # Tuples hash, compare and pickle in C; a Python-level override would
    # put a frame on every set and dict use.
    for cls in (Term, Triple, Mapping):
        assert issubclass(cls, tuple)
        for method in ("__hash__", "__eq__", "__iter__", "__getitem__", "__reduce__"):
            assert getattr(cls, method) is getattr(tuple, method), (cls, method)


def test_equal_terms_and_triples_hash_alike_and_find_each_other():
    a1, a2 = Term("iri", "urn:g:a"), iri("urn:g:a")
    assert a1 is not a2 and a1 == a2 and hash(a1) == hash(a2)
    assert a2 in {a1} and {a1: 1}[a2] == 1
    assert iri("urn:g:a") != lit("urn:g:a") != var("urn:g:a")
    t1, t2 = Triple(a1, iri("urn:g:p"), lit("1")), Triple(a2, iri("urn:g:p"), lit("1"))
    assert t1 is not t2 and t1 == t2 and hash(t1) == hash(t2)
    assert t2 in {t1} and {t1: 1}[t2] == 1
    assert t2 in Graph([t1]) and Graph([t1]).match(a2, None, None) == [t1]


def test_copies_and_pickles_keep_equality_and_hash():
    term = lit("x y")
    triple = Triple(iri("urn:g:a"), iri("urn:g:p"), term)
    mapping = Mapping.of({"x": term, "y": var("y")})
    for value in (term, triple, mapping):
        for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(copied) is type(value)
            assert copied == value and hash(copied) == hash(value)
            assert copied in {value}


PICKLE_TERMS = """
import pickle, sys
from schemaforge import Mapping, Triple, iri, lit
term = iri("urn:g:salted")
triple = Triple(term, iri("urn:g:p"), lit("v"))
sys.stdout.buffer.write(pickle.dumps([term, triple, Mapping.of({"x": term})]))
"""

LOAD_TERMS = """
import pickle, sys
from schemaforge import Mapping, Triple, iri, lit
term, triple, mapping = pickle.loads(sys.stdin.buffer.read())
fresh = iri("urn:g:salted")
print(term in {fresh}, triple in {Triple(fresh, iri("urn:g:p"), lit("v"))},
      mapping in {Mapping.of({"x": fresh})}, repr(mapping) == "{?x-><urn:g:salted>}")
"""


def test_a_term_pickled_under_one_hash_seed_is_found_under_another():
    # String hashes are salted per process, so a hash stored in the pickle
    # would be wrong in the loading process.
    src = str(Path(schemaforge.__file__).resolve().parents[1])

    def run(seed: str, code: str, data: bytes = b"") -> bytes:
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", code], input=data, env=env, capture_output=True, timeout=60
        )
        assert done.returncode == 0, done.stderr.decode()
        return done.stdout

    assert run("2", LOAD_TERMS, run("1", PICKLE_TERMS)).decode().split() == ["True"] * 4
