"""Bridge between a SHACL fragment and triplestore schemas.

The supported fragment is a closed-vocabulary template set:

* ``sh:targetObjectsOf p`` / ``sh:targetSubjectsOf p`` with value
  constraints (``sh:in``, ``sh:nodeKind sh:IRI|sh:IRIOrLiteral``,
  ``sh:hasValue``, ``sh:class``, or an ``sh:or`` of such blocks; constraints
  within one block conjoin) restrict the patterns allowed for ``p``.
* ``sh:targetClass c`` (or a target over ``p``) with
  ``sh:property [sh:path q; sh:minCount 1]`` (``sh:path [sh:inversePath q]``,
  or ``sh:hasValue`` instead of ``sh:minCount``) contributes an existential
  rule and allows the predicate ``q``. Values required to exist this way
  are IRIs in this fragment, matching the fresh IRIs the chase invents.
* an or-disjunct may carry ``sh:node`` pointing at a shape whose
  ``sh:property [sh:path [sh:inversePath p]]`` block constrains the
  subjects that may point at the value; this is the form the emitter below
  produces to tie constant subjects to their objects.
* ``sh:targetNode n`` with a direct ``sh:path p`` and value constraints
  describes the objects node ``n`` may take for ``p``; when ``p``'s
  patterns are already known the shape is a consistent refinement and is
  skipped, otherwise it introduces them.
* one shape with ``sh:closed true`` declares the closed vocabulary:
  instances may use only predicates the other shapes license.

Anything else (``sh:not``, recursive shapes, cardinalities other than 1)
is rejected with an error naming the shape and the offending term.

Documents are interpreted shape by shape in sorted subject order through
three transformations: ``include`` adds existential rules, ``allow`` adds
patterns for a predicate only while none exist, and ``restrict`` replaces a
predicate's patterns by their positionwise meet with the new ones, marking
the predicate uninstantiable when the meet is empty. Uninstantiable
predicates are swept from the schema graph at the end.

The reverse direction re-emits existential rules as their template shapes
and computes, per predicate, a target-objects shape whose or-disjuncts
mirror the patterns (with inverse-path refinements for constant subjects),
one target-node shape per constant subject, and a target-subjects shape
when every subject is constant. Per-predicate shapes are emitted before
the existential shapes so that re-parsing in sorted order reproduces an
equivalent schema.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import UnsupportedShaclError
from .formats import parse_turtle, serialize_turtle
from .schema import (
    ExistentialRule,
    TriplestoreSchema,
    normalize_schema,
    pattern_shape_key,
)
from .terms import (
    BNODE_NS,
    Graph,
    RDF_FIRST,
    RDF_NIL,
    RDF_NS,
    RDF_REST,
    RDF_TYPE,
    Term,
    Triple,
    iri,
    lit,
    var,
)

SH_NS = "http://www.w3.org/ns/shacl#"
SHAPE_NS = "urn:shape:"

SH_NODE_SHAPE = iri(SH_NS + "NodeShape")
SH_TARGET_OBJECTS_OF = iri(SH_NS + "targetObjectsOf")
SH_TARGET_SUBJECTS_OF = iri(SH_NS + "targetSubjectsOf")
SH_TARGET_CLASS = iri(SH_NS + "targetClass")
SH_TARGET_NODE = iri(SH_NS + "targetNode")
SH_NODE_KIND = iri(SH_NS + "nodeKind")
SH_IRI = iri(SH_NS + "IRI")
SH_IRI_OR_LITERAL = iri(SH_NS + "IRIOrLiteral")
SH_IN = iri(SH_NS + "in")
SH_PROPERTY = iri(SH_NS + "property")
SH_PATH = iri(SH_NS + "path")
SH_INVERSE_PATH = iri(SH_NS + "inversePath")
SH_MIN_COUNT = iri(SH_NS + "minCount")
SH_CLASS = iri(SH_NS + "class")
SH_HAS_VALUE = iri(SH_NS + "hasValue")
SH_NODE = iri(SH_NS + "node")
SH_OR = iri(SH_NS + "or")
SH_NOT = iri(SH_NS + "not")
SH_CLOSED = iri(SH_NS + "closed")

TARGET_PREDICATES = (SH_TARGET_OBJECTS_OF, SH_TARGET_SUBJECTS_OF, SH_TARGET_CLASS, SH_TARGET_NODE)

DEFAULT_PREFIXES = {"sh": SH_NS, "rdf": RDF_NS, "shp": SHAPE_NS}


@dataclass(frozen=True, eq=True)
class ShapeDocument:
    """A SHACL document as a graph plus the prefixes it was read with."""

    graph: Graph
    prefixes: tuple[tuple[str, str], ...] = ()

    @staticmethod
    def of(graph: Graph, prefixes: dict[str, str] | None = None) -> "ShapeDocument":
        return ShapeDocument(graph, tuple(sorted((prefixes or {}).items())))

    def prefix_map(self) -> dict[str, str]:
        merged = dict(DEFAULT_PREFIXES)
        merged.update(dict(self.prefixes))
        return merged

    @staticmethod
    def from_text(text: str, source: str = "<shapes>") -> "ShapeDocument":
        graph, prefixes = parse_turtle(text, source)
        return ShapeDocument.of(graph, prefixes)

    def to_text(self) -> str:
        return serialize_turtle(self.graph, self.prefix_map())


def subsumes(e: Term, e_prime: Term, delta: Iterable[str]) -> bool:
    """Element subsumption: e is covered by e_prime.

    Holds iff the elements are equal, or e_prime is a variable permitting
    literals, or e is an IRI and e_prime is a variable.
    """
    if e == e_prime:
        return True
    if e_prime.is_variable and e_prime.lexical not in set(delta):
        return True
    return e.is_iri and e_prime.is_variable


# --- document access helpers ---------------------------------------------------


def _objects(graph: Graph, subject: Term, predicate: Term) -> list[Term]:
    return sorted((t.o for t in graph.match(subject, predicate, None)), key=Term.sort_key)


def _object(graph: Graph, subject: Term, predicate: Term, shape: str) -> Term | None:
    values = _objects(graph, subject, predicate)
    if len(values) > 1:
        raise UnsupportedShaclError(shape, f"multiple values for {predicate!r}")
    return values[0] if values else None


def read_list(graph: Graph, head: Term, shape: str) -> list[Term]:
    items: list[Term] = []
    seen: set[Term] = set()
    while head != RDF_NIL:
        if head in seen:
            raise UnsupportedShaclError(shape, "cyclic RDF list")
        seen.add(head)
        first = _object(graph, head, RDF_FIRST, shape)
        rest = _object(graph, head, RDF_REST, shape)
        if first is None or rest is None:
            raise UnsupportedShaclError(shape, "malformed RDF list")
        items.append(first)
        head = rest
    return items


# --- constraint blocks ----------------------------------------------------------

# A slot describes what one triple position may hold: a finite set of
# constants, any IRI, or any constant at all.
_ANY_IRI = "any-iri"
_ANY = "any"


@dataclass(frozen=True)
class _Slot:
    kind: str  # 'consts' | 'any-iri' | 'any'
    consts: tuple[Term, ...] = ()


def _conjoin(a: _Slot, b: _Slot) -> _Slot:
    order = {_ANY: 0, _ANY_IRI: 1, "consts": 2}
    first, second = (a, b) if order[a.kind] <= order[b.kind] else (b, a)
    if first.kind == _ANY:
        return second
    if first.kind == _ANY_IRI:
        if second.kind == _ANY_IRI:
            return first
        return _Slot("consts", tuple(c for c in second.consts if c.is_iri))
    merged = tuple(c for c in first.consts if c in set(second.consts))
    return _Slot("consts", merged)


@dataclass(frozen=True)
class _ValueBlock:
    """What one or-disjunct admits for the constrained slot."""

    slot: _Slot
    classes: tuple[Term, ...]  # sh:class constraints contributing existentials
    subject_slot: _Slot | None  # via sh:node + inversePath refinement


def _direct_slot(doc: Graph, node: Term, shape: str) -> tuple[_Slot, tuple[Term, ...], bool]:
    """The conjunction of one node's direct value constraints."""
    slot = _Slot(_ANY)
    classes: list[Term] = []
    found = False
    in_list = _object(doc, node, SH_IN, shape)
    if in_list is not None:
        slot = _conjoin(slot, _Slot("consts", tuple(read_list(doc, in_list, shape))))
        found = True
    kind = _object(doc, node, SH_NODE_KIND, shape)
    if kind is not None:
        if kind == SH_IRI:
            slot = _conjoin(slot, _Slot(_ANY_IRI))
        elif kind == SH_IRI_OR_LITERAL:
            slot = _conjoin(slot, _Slot(_ANY))
        else:
            raise UnsupportedShaclError(shape, f"sh:nodeKind {kind!r}")
        found = True
    value = _object(doc, node, SH_HAS_VALUE, shape)
    if value is not None:
        slot = _conjoin(slot, _Slot("consts", (value,)))
        found = True
    klass = _object(doc, node, SH_CLASS, shape)
    if klass is not None:
        slot = _conjoin(slot, _Slot(_ANY_IRI))
        classes.append(klass)
        found = True
    return slot, tuple(classes), found


def _value_blocks(doc: Graph, shape_node: Term, predicate: Term, shape: str) -> list[_ValueBlock]:
    or_list = _object(doc, shape_node, SH_OR, shape)
    members = read_list(doc, or_list, shape) if or_list is not None else [shape_node]
    blocks: list[_ValueBlock] = []
    for member in members:
        slot, classes, found = _direct_slot(doc, member, shape)
        subject_slot: _Slot | None = None
        node_ref = _object(doc, member, SH_NODE, shape)
        if node_ref is not None:
            prop = _object(doc, node_ref, SH_PROPERTY, shape)
            if prop is None:
                raise UnsupportedShaclError(shape, "sh:node without an sh:property refinement")
            path = _object(doc, prop, SH_PATH, shape)
            inner = _object(doc, path, SH_INVERSE_PATH, shape) if path is not None else None
            if inner != predicate:
                raise UnsupportedShaclError(shape, "sh:node refinement must invert the target predicate")
            inner_or = _object(doc, prop, SH_OR, shape)
            if inner_or is not None:
                refinement = _Slot("consts", ())
                acc: _Slot | None = None
                for m in read_list(doc, inner_or, shape):
                    m_slot, m_classes, m_found = _direct_slot(doc, m, shape)
                    if m_classes or not m_found:
                        raise UnsupportedShaclError(shape, "unsupported subject refinement")
                    acc = m_slot if acc is None else _disjoin(acc, m_slot)
                subject_slot = acc if acc is not None else refinement
            else:
                m_slot, m_classes, m_found = _direct_slot(doc, prop, shape)
                if not m_found or m_classes:
                    raise UnsupportedShaclError(shape, "unsupported subject refinement")
                subject_slot = m_slot
        if not found and subject_slot is None:
            raise UnsupportedShaclError(shape, "disjunct carries no supported constraint")
        blocks.append(_ValueBlock(slot, classes, subject_slot))
    return blocks


def _disjoin(a: _Slot, b: _Slot) -> _Slot:
    if a.kind == _ANY or b.kind == _ANY:
        return _Slot(_ANY)
    if a.kind == _ANY_IRI or b.kind == _ANY_IRI:
        # IRIs-or-some-constants; constants beyond IRIs only matter if literal
        extra = tuple(c for c in a.consts + b.consts if c.is_literal)
        if extra:
            raise UnsupportedShaclError("<or>", "mixed IRI/literal subject refinement")
        return _Slot(_ANY_IRI)
    return _Slot("consts", tuple(dict.fromkeys(a.consts + b.consts)))


# --- SHACL -> schema -------------------------------------------------------------


class _Builder:
    def __init__(self) -> None:
        self.patterns: dict[Term, list[Triple]] = {}
        self.delta: set[str] = set()
        self.existentials: list[ExistentialRule] = []
        self.uninstantiable: set[Term] = set()
        self._counter = 0

    def fresh(self, no_literal: bool) -> Term:
        self._counter += 1
        name = f"a{self._counter}"
        if no_literal:
            self.delta.add(name)
        return var(name)

    def slots_to_patterns(
        self, predicate: Term, subject: _Slot, obj: _Slot, shape: str
    ) -> list[Triple]:
        """One pattern per combination of slot choices, with fresh variables
        minted per pattern so the at-most-once rule holds."""
        if subject.kind == "consts":
            if any(not c.is_iri for c in subject.consts):
                raise UnsupportedShaclError(shape, "subjects must be IRIs")
            subject_choices: list[Term | str] = list(subject.consts)
        elif subject.kind == _ANY_IRI:
            subject_choices = [_ANY_IRI]
        else:
            raise UnsupportedShaclError(shape, "literals cannot appear in subject position")
        object_choices: list[Term | str] = (
            list(obj.consts) if obj.kind == "consts" else [obj.kind]
        )
        out = []
        for s_choice in subject_choices:
            for o_choice in object_choices:
                s = self.fresh(True) if s_choice == _ANY_IRI else s_choice
                if o_choice == _ANY_IRI:
                    o = self.fresh(True)
                elif o_choice == _ANY:
                    o = self.fresh(False)
                else:
                    o = o_choice
                out.append(Triple(s, predicate, o))
        return out

    def include(self, rule: ExistentialRule) -> None:
        self.existentials.append(rule)

    def allow(self, predicate: Term, patterns: list[Triple]) -> None:
        if self.patterns.get(predicate):
            return
        self.patterns[predicate] = self._dedupe(patterns)

    def restrict(self, predicate: Term, incoming: list[Triple]) -> None:
        if not incoming:
            self.patterns[predicate] = []
            self.uninstantiable.add(predicate)
            return
        existing = self.patterns.get(predicate)
        if not existing:
            self.patterns[predicate] = self._dedupe(incoming)
            return
        met: list[Triple] = []
        for old in existing:
            for new in incoming:
                got = self._meet(old, new)
                if got is not None:
                    met.append(got)
        for t in existing + incoming:
            for term in t:
                if term.is_variable:
                    self.delta.discard(term.lexical)
        self.patterns[predicate] = self._dedupe(met)
        if not met:
            self.uninstantiable.add(predicate)

    def _meet(self, p: Triple, q: Triple) -> Triple | None:
        terms: list[Term] = []
        for pos, (a, b) in enumerate(zip(p, q)):
            if a.is_constant and b.is_constant:
                if a != b:
                    return None
                terms.append(a)
            elif a.is_constant or b.is_constant:
                const, v = (a, b) if a.is_constant else (b, a)
                if const.is_literal and (pos < 2 or v.lexical in self.delta):
                    return None
                terms.append(const)
            else:
                no_literal = pos < 2 or a.lexical in self.delta or b.lexical in self.delta
                terms.append(self.fresh(no_literal))
        return Triple(*terms)

    def _dedupe(self, patterns: list[Triple]) -> list[Triple]:
        seen: dict[tuple, Triple] = {}
        for t in patterns:
            seen.setdefault(pattern_shape_key(t, self.delta), t)
        return list(seen.values())

    def finish(self) -> TriplestoreSchema:
        kept: list[Triple] = []
        for predicate in sorted(self.patterns, key=Term.sort_key):
            if predicate in self.uninstantiable:
                continue
            kept.extend(self.patterns[predicate])
        used = {term.lexical for t in kept for term in t if term.is_variable}
        return normalize_schema(
            TriplestoreSchema.of(kept, self.delta & used, self.existentials)
        )


@dataclass(frozen=True)
class _PropertySpec:
    predicate: Term
    inverse: bool
    has_value: Term | None


def _parse_property_shape(doc: Graph, node: Term, shape: str) -> _PropertySpec:
    path = _object(doc, node, SH_PATH, shape)
    if path is None:
        raise UnsupportedShaclError(shape, "property shape without sh:path")
    inverse = False
    if doc.match(path, SH_INVERSE_PATH, None):
        inner = _object(doc, path, SH_INVERSE_PATH, shape)
        path, inverse = inner, True
    if path is None or not path.is_iri or path.lexical.startswith((BNODE_NS, SHAPE_NS)):
        raise UnsupportedShaclError(shape, "unsupported property path")
    min_count = _object(doc, node, SH_MIN_COUNT, shape)
    if min_count is not None and min_count.lexical != "1":
        raise UnsupportedShaclError(shape, f"sh:minCount {min_count.lexical} (only 1 is supported)")
    has_value = _object(doc, node, SH_HAS_VALUE, shape)
    if min_count is None and has_value is None:
        raise UnsupportedShaclError(shape, "property shape needs sh:minCount 1 or sh:hasValue")
    return _PropertySpec(path, inverse, has_value)


def shacl_to_schema(doc: ShapeDocument) -> TriplestoreSchema:
    """Translate a shape document into a triplestore schema.

    Shapes are processed in sorted subject order; an unsupported construct
    raises, naming the shape and term.
    """
    g = doc.graph
    builder = _Builder()
    shape_nodes = sorted({t.s for t in g.match(None, RDF_TYPE, SH_NODE_SHAPE)}, key=Term.sort_key)
    referenced = {t.o for t in g if t.p in (SH_NODE, SH_PROPERTY)}

    for node in shape_nodes:
        shape = node.lexical
        if node in referenced:
            continue  # constraint blocks are interpreted from their referencing shape
        if _object(g, node, SH_CLOSED, shape) is not None:
            continue  # the closed-vocabulary declaration
        if g.match(node, SH_NOT, None):
            raise UnsupportedShaclError(shape, "sh:not")

        target_objects = _object(g, node, SH_TARGET_OBJECTS_OF, shape)
        target_subjects = _object(g, node, SH_TARGET_SUBJECTS_OF, shape)
        target_class = _object(g, node, SH_TARGET_CLASS, shape)
        target_node = _object(g, node, SH_TARGET_NODE, shape)
        targets = [t for t in (target_objects, target_subjects, target_class, target_node) if t]
        if len(targets) != 1:
            raise UnsupportedShaclError(shape, "exactly one target is required")

        prop = _object(g, node, SH_PROPERTY, shape)
        if prop is not None:
            spec = _parse_property_shape(g, prop, shape)
            _include_existential(builder, shape, target_objects, target_subjects, target_class, spec)
            continue

        if target_class is not None:
            raise UnsupportedShaclError(shape, "sh:targetClass requires an sh:property block")

        if target_node is not None:
            path = _object(g, node, SH_PATH, shape)
            if path is None:
                raise UnsupportedShaclError(shape, "sh:targetNode requires sh:path here")
            if builder.patterns.get(path):
                continue  # consistent refinement of already-known patterns
            patterns = []
            for block in _value_blocks(g, node, path, shape):
                patterns.extend(
                    builder.slots_to_patterns(path, _Slot("consts", (target_node,)), block.slot, shape)
                )
                _include_class_existentials(builder, path, block.classes, anchor_subject=False)
            builder.restrict(path, patterns)
            continue

        predicate = target_objects or target_subjects
        assert predicate is not None
        patterns = []
        for block in _value_blocks(g, node, predicate, shape):
            if target_objects is not None:
                subject_slot = block.subject_slot if block.subject_slot is not None else _Slot(_ANY_IRI)
                patterns.extend(builder.slots_to_patterns(predicate, subject_slot, block.slot, shape))
            else:
                if block.subject_slot is not None:
                    raise UnsupportedShaclError(shape, "inverse refinement on a subject target")
                patterns.extend(builder.slots_to_patterns(predicate, block.slot, _Slot(_ANY), shape))
            _include_class_existentials(
                builder, predicate, block.classes, anchor_subject=target_subjects is not None
            )
        builder.restrict(predicate, patterns)

    return builder.finish()


def _include_class_existentials(
    builder: _Builder, predicate: Term, classes: tuple[Term, ...], anchor_subject: bool
) -> None:
    for klass in classes:
        s = builder.fresh(True)
        o = builder.fresh(False)
        anchored = s if anchor_subject else o
        builder.include(ExistentialRule(Triple(s, predicate, o), Triple(anchored, RDF_TYPE, klass)))


def _include_existential(
    builder: _Builder,
    shape: str,
    target_objects: Term | None,
    target_subjects: Term | None,
    target_class: Term | None,
    spec: _PropertySpec,
) -> None:
    if target_class is not None:
        anchor = builder.fresh(True)
        antecedent = Triple(anchor, RDF_TYPE, target_class)
    else:
        predicate = target_objects or target_subjects
        if predicate is None:
            raise UnsupportedShaclError(shape, "sh:targetNode cannot carry sh:property here")
        s = builder.fresh(True)
        o = builder.fresh(False)
        antecedent = Triple(s, predicate, o)
        anchor = o if target_objects is not None else s
    other: Term = spec.has_value if spec.has_value is not None else builder.fresh(False)
    consequent = Triple(other, spec.predicate, anchor) if spec.inverse else Triple(anchor, spec.predicate, other)
    if consequent.s.is_literal:
        raise UnsupportedShaclError(shape, "required value would be a literal subject")
    builder.include(ExistentialRule(antecedent, consequent))
    builder.allow(spec.predicate, [Triple(builder.fresh(True), spec.predicate, builder.fresh(True))])


# --- schema -> SHACL --------------------------------------------------------------


class _Emitter:
    def __init__(self) -> None:
        self.triples: list[Triple] = []
        self._counter = 0

    def fresh(self) -> Term:
        self._counter += 1
        return iri(f"{SHAPE_NS}n{self._counter:04d}")

    def add(self, *triples: Triple) -> None:
        self.triples.extend(triples)

    def shacl_list(self, items: list[Term]) -> Term:
        head = RDF_NIL
        for item in reversed(items):
            node = self.fresh()
            self.add(Triple(node, RDF_FIRST, item), Triple(node, RDF_REST, head))
            head = node
        return head

    def compute_constraints(self, elements: Iterable[Term], delta: frozenset[str]) -> list[Term]:
        """Constraint nodes describing a set of slot elements."""
        elements = sorted(set(elements), key=Term.sort_key)
        nodes: list[Term] = []
        if any(e.is_variable and e.lexical not in delta for e in elements):
            b = self.fresh()
            self.add(Triple(b, SH_NODE_KIND, SH_IRI_OR_LITERAL))
            return [b]
        if any(e.is_variable and e.lexical in delta for e in elements):
            b = self.fresh()
            self.add(Triple(b, SH_NODE_KIND, SH_IRI))
            nodes.append(b)
        constants = [e for e in elements if e.is_constant]
        if constants:
            b2 = self.fresh()
            self.add(Triple(b2, SH_IN, self.shacl_list(constants)))
            nodes.append(b2)
        return nodes

    def add_constraints(self, shape: Term, nodes: list[Term]) -> None:
        self.add(Triple(shape, SH_OR, self.shacl_list(nodes)))


def schema_to_shacl(schema: TriplestoreSchema) -> ShapeDocument:
    """Re-express a constant-predicate schema as shapes of the fragment."""
    schema = normalize_schema(schema)
    for t in schema.graph:
        if not t.p.is_constant:
            raise UnsupportedShaclError("<schema>", "variable predicates are outside the fragment")

    em = _Emitter()
    delta = schema.no_literal
    predicates = sorted({t.p for t in schema.graph}, key=Term.sort_key)
    for predicate in predicates:
        patterns = [t for t in schema.sorted_patterns() if t.p == predicate]
        _emit_object_shape(em, predicate, patterns, delta)
        _emit_target_node_shapes(em, predicate, patterns, delta)
        _emit_subject_shape(em, predicate, patterns, delta)
    for e in schema.sorted_existentials():
        _emit_existential_shape(em, e)
    closed = em.fresh()
    em.add(Triple(closed, RDF_TYPE, SH_NODE_SHAPE), Triple(closed, SH_CLOSED, lit("true")))
    return ShapeDocument.of(Graph(em.triples, validate=False), DEFAULT_PREFIXES)


def _slot_key(term: Term, delta) -> tuple:
    return term.sort_key() if term.is_constant else ("var", term.lexical in delta)


def _emit_object_shape(em: _Emitter, predicate: Term, patterns: list[Triple], delta) -> None:
    shape = em.fresh()
    em.add(Triple(shape, RDF_TYPE, SH_NODE_SHAPE), Triple(shape, SH_TARGET_OBJECTS_OF, predicate))
    disjuncts: list[Term] = []
    wildcard_objects = [t.o for t in patterns if t.s.is_variable]
    if wildcard_objects:
        disjuncts.extend(em.compute_constraints(wildcard_objects, delta))
    emitted: set[tuple] = set()
    for t in patterns:
        if not t.s.is_constant:
            continue
        for t2 in patterns:
            if not subsumes(t2.o, t.o, delta):
                continue
            allowed_subjects = sorted(
                {t3.s for t3 in patterns if subsumes(t2.o, t3.o, delta)}, key=Term.sort_key
            )
            key = (_slot_key(t2.o, delta), tuple(_slot_key(s, delta) for s in allowed_subjects))
            if key in emitted:
                continue
            emitted.add(key)
            b = em.fresh()
            b_prop = em.fresh()
            b_path = em.fresh()
            em.add(
                Triple(b, RDF_TYPE, SH_NODE_SHAPE),
                Triple(b, SH_PROPERTY, b_prop),
                Triple(b_prop, SH_PATH, b_path),
                Triple(b_path, SH_INVERSE_PATH, predicate),
            )
            em.add_constraints(b_prop, em.compute_constraints(allowed_subjects, delta))
            (n,) = em.compute_constraints([t2.o], delta)
            em.add(Triple(n, SH_NODE, b))
            disjuncts.append(n)
    em.add_constraints(shape, disjuncts)


def _emit_target_node_shapes(em: _Emitter, predicate: Term, patterns: list[Triple], delta) -> None:
    for t in patterns:
        if not t.s.is_constant:
            continue
        shape = em.fresh()
        em.add(
            Triple(shape, RDF_TYPE, SH_NODE_SHAPE),
            Triple(shape, SH_TARGET_NODE, t.s),
            Triple(shape, SH_PATH, predicate),
        )
        allowed = [t2.o for t2 in patterns if subsumes(t.s, t2.s, delta)]
        em.add_constraints(shape, em.compute_constraints(allowed, delta))


def _emit_subject_shape(em: _Emitter, predicate: Term, patterns: list[Triple], delta) -> None:
    if any(t.s.is_variable for t in patterns):
        return
    shape = em.fresh()
    em.add(
        Triple(shape, RDF_TYPE, SH_NODE_SHAPE),
        Triple(shape, SH_TARGET_SUBJECTS_OF, predicate),
    )
    em.add_constraints(shape, em.compute_constraints([t.s for t in patterns], delta))


def _emit_existential_shape(em: _Emitter, rule: ExistentialRule) -> None:
    a, c = rule.antecedent, rule.consequent
    unsupported = UnsupportedShaclError(
        "<existential>", f"rule {a!r} => {c!r} does not match a template"
    )
    if not a.p.is_constant or not c.p.is_constant:
        raise unsupported
    shape = em.fresh()
    em.add(Triple(shape, RDF_TYPE, SH_NODE_SHAPE))

    if a.p == RDF_TYPE and a.s.is_variable and a.o.is_constant:
        anchor = a.s
        em.add(Triple(shape, SH_TARGET_CLASS, a.o))
    elif a.s.is_variable and a.o.is_variable:
        if a.s in (c.s, c.o):
            anchor = a.s
            em.add(Triple(shape, SH_TARGET_SUBJECTS_OF, a.p))
        elif a.o in (c.s, c.o):
            anchor = a.o
            em.add(Triple(shape, SH_TARGET_OBJECTS_OF, a.p))
        else:
            raise unsupported
    else:
        raise unsupported

    if c.s == anchor and c.o != anchor:
        inverse, other = False, c.o
    elif c.o == anchor and c.s != anchor:
        inverse, other = True, c.s
    else:
        raise unsupported
    prop = em.fresh()
    em.add(Triple(shape, SH_PROPERTY, prop))
    if inverse:
        path_node = em.fresh()
        em.add(Triple(prop, SH_PATH, path_node), Triple(path_node, SH_INVERSE_PATH, c.p))
    else:
        em.add(Triple(prop, SH_PATH, c.p))
    if other.is_variable:
        em.add(Triple(prop, SH_MIN_COUNT, lit("1")))
    else:
        em.add(Triple(prop, SH_HAS_VALUE, other))


# --- reference validator -----------------------------------------------------------


def _licensed_predicates(doc: Graph) -> tuple[set[Term], set[Term]]:
    """Predicates instances may use, and the subset licensed only through
    property paths, whose objects the fragment requires to be IRIs."""
    targeted = {t.o for t in doc if t.p in (SH_TARGET_OBJECTS_OF, SH_TARGET_SUBJECTS_OF)}
    for t in doc:
        if t.p == SH_TARGET_NODE:
            for x in doc.match(t.s, SH_PATH, None):
                if x.o.is_iri and not x.o.lexical.startswith((BNODE_NS, SHAPE_NS)):
                    targeted.add(x.o)
    path_only: set[Term] = set()
    for t in doc:
        if t.p == SH_PATH:
            inner = [x.o for x in doc.match(t.o, SH_INVERSE_PATH, None)]
            pred = inner[0] if inner else t.o
            if pred.is_iri and not pred.lexical.startswith((BNODE_NS, SHAPE_NS)):
                if pred not in targeted:
                    path_only.add(pred)
    return targeted | path_only, path_only


class _Validator:
    def __init__(self, doc: Graph):
        self.doc = doc

    def conforms(self, node: Term, shape: Term, graph: Graph, stack: tuple[Term, ...] = ()) -> bool:
        if shape in stack:
            raise UnsupportedShaclError(shape.lexical, "recursive shape")
        stack = stack + (shape,)
        doc = self.doc
        # A target-carrying shape with a direct path constrains the node's
        # path values, not the node itself.
        if doc.match(shape, SH_PATH, None) and any(
            doc.match(shape, target, None) for target in TARGET_PREDICATES
        ):
            return self._values_conform(node, shape, shape, graph, stack)
        if not self._value_ok(node, shape, graph, stack, check_has_value=True):
            return False
        for t in doc.match(shape, SH_PROPERTY, None):
            if not self._values_conform(node, t.o, t.o, graph, stack):
                return False
        return True

    def _value_ok(
        self, v: Term, carrier: Term, graph: Graph, stack: tuple[Term, ...], check_has_value: bool
    ) -> bool:
        """The carrier's sh:in, sh:nodeKind, sh:hasValue (a node's own, when
        asked), sh:class, sh:node and sh:or constraints on one term, in that
        order."""
        doc = self.doc
        for t in doc.match(carrier, SH_IN, None):
            if v not in read_list(doc, t.o, carrier.lexical):
                return False
        for t in doc.match(carrier, SH_NODE_KIND, None):
            if t.o == SH_IRI and not v.is_iri:
                return False
            if t.o == SH_IRI_OR_LITERAL and not (v.is_iri or v.is_literal):
                return False
        if check_has_value:
            for t in doc.match(carrier, SH_HAS_VALUE, None):
                if v != t.o:
                    return False
        for t in doc.match(carrier, SH_CLASS, None):
            if not graph.match(v, RDF_TYPE, t.o):
                return False
        for t in doc.match(carrier, SH_NODE, None):
            if not self.conforms(v, t.o, graph, stack):
                return False
        for t in doc.match(carrier, SH_OR, None):
            members = read_list(doc, t.o, carrier.lexical)
            if not any(self.conforms(v, m, graph, stack) for m in members):
                return False
        return True

    def _path_values(self, node: Term, path_carrier: Term, graph: Graph) -> list[Term] | None:
        paths = [t.o for t in self.doc.match(path_carrier, SH_PATH, None)]
        if not paths:
            return None
        (path_term,) = paths
        inverse = [t.o for t in self.doc.match(path_term, SH_INVERSE_PATH, None)]
        if inverse:
            return [t.s for t in graph.match(None, inverse[0], node)]
        return [t.o for t in graph.match(node, path_term, None)]

    def _values_conform(
        self, node: Term, path_carrier: Term, constraint_carrier: Term, graph: Graph,
        stack: tuple[Term, ...],
    ) -> bool:
        values = self._path_values(node, path_carrier, graph)
        if values is None:
            return True
        doc = self.doc
        for t in doc.match(constraint_carrier, SH_MIN_COUNT, None):
            if len(values) < int(t.o.lexical):
                return False
        for t in doc.match(constraint_carrier, SH_HAS_VALUE, None):
            if t.o not in values:
                return False
        return all(
            self._value_ok(v, constraint_carrier, graph, stack, check_has_value=False) for v in values
        )


def validate_graph(graph: Graph, doc: ShapeDocument) -> bool:
    """Direct validation of the supported templates, independent of the
    schema translation; used as the agreement oracle in tests.

    Applies the closed-vocabulary rule (predicates must be licensed by some
    shape), the fragment's IRI-value rule for predicates licensed only via
    property paths, and every targeted shape's constraints.
    """
    d = doc.graph
    licensed, path_only = _licensed_predicates(d)
    has_closed = any(t.p == SH_CLOSED and t.o == lit("true") for t in d)
    for t in graph:
        if has_closed and t.p not in licensed:
            return False
        if t.p in path_only and not t.o.is_iri:
            return False

    validator = _Validator(d)
    for shape in sorted({t.s for t in d.match(None, RDF_TYPE, SH_NODE_SHAPE)}, key=Term.sort_key):
        focus: list[Term] = []
        for t in d.match(shape, SH_TARGET_OBJECTS_OF, None):
            focus.extend(x.o for x in graph.match(None, t.o, None))
        for t in d.match(shape, SH_TARGET_SUBJECTS_OF, None):
            focus.extend(x.s for x in graph.match(None, t.o, None))
        for t in d.match(shape, SH_TARGET_CLASS, None):
            focus.extend(x.s for x in graph.match(None, RDF_TYPE, t.o))
        for t in d.match(shape, SH_TARGET_NODE, None):
            focus.append(t.o)
        for node in sorted(set(focus), key=Term.sort_key):
            if not validator.conforms(node, shape, graph):
                return False
    return True
