"""The public constructors refuse a malformed argument with ValueError.

Hypothesis draws JSON-like values (None, numbers, strings, lists, dicts and
nestings of them) for each argument of ``Graph``, ``Partition``,
``PermGroup``, ``HomMap`` and ``FiniteGroup``; each call builds an object or
raises ValueError, never another exception.  ``golden.CONSTRUCTOR_REFUSALS``
pins the words of each refusal.
"""

from __future__ import annotations

from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quograph import FiniteGroup, Graph, HomMap, Partition, PermGroup

from golden import CONSTRUCTOR_REFUSALS, PAIR

# a few labels that the drawn graphs use, so that some draws get past the
# shape checks to the later ones
LABELS = st.sampled_from(["a", "b", "e"])
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 2), st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=2), LABELS,
)
JSON_LIKE = st.recursive(
    SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(st.one_of(LABELS, st.text(max_size=2)), inner, max_size=4)),
    max_leaves=12,
)
GRAPHS = st.sampled_from([Graph(["a"]), PAIR, Graph(["a", "b", "e"], [("a", "e")])])


def built_or_refused(constructor, *args) -> None:
    try:
        constructor(*args)
    except ValueError:
        pass


@settings(max_examples=200, deadline=None)
@given(JSON_LIKE, JSON_LIKE)
def test_graph(vertices, edges):
    built_or_refused(Graph, vertices, edges)


@settings(max_examples=200, deadline=None)
@given(JSON_LIKE, JSON_LIKE)
def test_partition(blocks, universe):
    built_or_refused(Partition, blocks, universe)


@settings(max_examples=200, deadline=None)
@given(JSON_LIKE, JSON_LIKE)
def test_perm_group(universe, generators):
    built_or_refused(PermGroup, universe, generators)


@settings(max_examples=200, deadline=None)
@given(GRAPHS, GRAPHS, JSON_LIKE)
def test_hom_map(source, target, mapping):
    built_or_refused(HomMap, source, target, mapping)


@settings(max_examples=200, deadline=None)
@given(JSON_LIKE, JSON_LIKE, JSON_LIKE)
def test_finite_group(elements, identity, table):
    built_or_refused(FiniteGroup, elements, identity, table)


@pytest.mark.parametrize(
    "constructor,args,message", CONSTRUCTOR_REFUSALS, ids=[m for _, _, m in CONSTRUCTOR_REFUSALS]
)
def test_refusal_message(constructor, args, message):
    with pytest.raises(ValueError) as exc:
        constructor(*args)
    assert str(exc.value) == message


def test_other_shapes_are_still_accepted():
    # a generator as a list of pairs, and maps and tables that are mappings but no dicts
    assert PermGroup(["a", "b"], [[("a", "b"), ("b", "a")]]).generators == ({"a": "b", "b": "a"},)
    assert HomMap(PAIR, PAIR, MappingProxyType({"a": "b", "b": "a"})).mapping == {"a": "b", "b": "a"}
    table = MappingProxyType({"e": MappingProxyType({"e": "e"})})
    assert FiniteGroup(("e",), "e", table).elements == ("e",)


def test_labels_of_a_str_subclass_are_accepted():
    class Label(str):
        pass

    a, b = Label("a"), Label("b")
    assert Graph([b, a], [(a, b)]).sorted_edges() == [("a", "b")]
    assert Partition([[a], [b]], [a, b]).blocks == (("a",), ("b",))
    assert PermGroup([a, b], [{a: b, b: a}]).generators == ({"a": "b", "b": "a"},)


def test_an_edge_read_once_is_refused_as_it_was_read():
    # an edge given as an iterator is read once; the refusal of a later edge
    # must not read it again and find it empty
    with pytest.raises(ValueError) as exc:
        Graph(["a", "b", "c"], [iter(["a", "b"]), ["c", "c"]])
    assert str(exc.value) == "loop at 'c' supplied as a proper edge; loops are implicit"
    with pytest.raises(ValueError) as exc:
        Graph(["a", "b", "c"], [iter(["a", "b", "c"])])
    assert str(exc.value) == "edge ('a', 'b', 'c') is not a two-element list"


def test_an_edge_read_once_is_kept_as_it_was_read():
    class Label(str):
        pass

    a, b = Label("a"), Label("b")
    assert Graph([a, b], [iter([a, b])]).sorted_edges() == [("a", "b")]
    edges = [iter(["a", "b"]), ["b", "c"]]
    first = edges[0]
    Graph(["a", "b", "c"], edges)
    assert edges[0] is first  # the caller's list is left as it was
