"""The paper's class diagram, both ways, at bounds (4, 3) and (5, 3).

Every inclusion of ``golden.CLASS_INCLUSIONS`` holds on each of the 21,387
maps of the map sweep at bound (4, 3), each row follows from the laws it
cites, and every other ordered pair of classes fails on some map there, or,
when only a larger source separates the two classes, on a stored witness.
At bound (5, 3) the 43 stored witnesses of ``golden.CLASS_VECTOR_WITNESSES``,
one per class vector realised there, keep their vectors, and the same holds
on them: every row, and a failure of every other pair.  On every instance
of the orbit sweep at bound 5, ``classify`` with its group finds an orbit
map, and what it reads off one member per fibre matches full passes.
"""

from __future__ import annotations

import itertools
from dataclasses import fields

import pytest

from quograph import ClassificationReport, Graph, HomMap, classify, homs
from quograph.verify import _index_maps, enumerate_graphs

from golden import CLASS_INCLUSIONS, CLASS_VECTOR_WITNESSES, INCLUSION_WITNESSES
from reference import label_is_equitable, orbit_instances_for

CLASSES = [f.name for f in fields(ClassificationReport) if f.name != "orbit"]
# the classes homs._broken_inclusions reads, in the order of its arguments
LAW_CLASSES = [
    "surjective", "complete", "isomorphism", "locally_surjective", "locally_injective",
    "locally_bijective", "locally_strong", "pseudo_covering", "equitable",
]
TABLE = {(a, b) for a, b, _ in CLASS_INCLUSIONS}
WITNESSED = {(a, b): build for a, b, build in INCLUSION_WITNESSES}


@pytest.fixture(scope="module")
def sweep() -> tuple[int, set[tuple[bool, ...]]]:
    """The number of maps at bound (4, 3) and their distinct class vectors,
    in the order of ``CLASSES``."""
    count, vectors = 0, set()
    targets = list(enumerate_graphs(3))
    for source in enumerate_graphs(4):
        for target in targets:
            for index_map in _index_maps(source, target):
                report = classify(HomMap._from_index_map(source, target, index_map))
                vectors.add(tuple(getattr(report, c) for c in CLASSES))
                count += 1
    return count, vectors


def breaks(vectors, a: str, b: str) -> bool:
    """True when some vector is in class a but not in class b."""
    i, j = CLASSES.index(a), CLASSES.index(b)
    return any(v[i] and not v[j] for v in vectors)


def implied(a: str, b: str, laws) -> bool:
    """True when every membership vector that keeps ``laws`` and is in
    class a is in class b, over all vectors of the law classes."""
    if a not in LAW_CLASSES or b not in LAW_CLASSES:
        return False
    i, j = LAW_CLASSES.index(a), LAW_CLASSES.index(b)
    for v in itertools.product((False, True), repeat=len(LAW_CLASSES)):
        if v[i] and not v[j] and not set(laws) & set(homs._broken_inclusions(*v)):
            return False
    return True


def test_sweep_covers_every_map(sweep):
    count, vectors = sweep
    assert count == 21_387
    assert len(vectors) == 38


def test_table_rows_are_distinct_classes():
    assert len(TABLE) == len(CLASS_INCLUSIONS) == 23
    assert all(a in CLASSES and b in CLASSES and a != b for a, b in TABLE)
    assert set(WITNESSED) <= set(itertools.permutations(CLASSES, 2)) - TABLE


@pytest.mark.parametrize("a,b,laws", CLASS_INCLUSIONS, ids=[f"{a}->{b}" for a, b, _ in CLASS_INCLUSIONS])
def test_inclusion_holds_on_every_map(sweep, a, b, laws):
    assert not breaks(sweep[1], a, b)


@pytest.mark.parametrize("a,b,laws", CLASS_INCLUSIONS, ids=[f"{a}->{b}" for a, b, _ in CLASS_INCLUSIONS])
def test_cited_laws_imply_the_row(a, b, laws):
    assert set(laws) <= set(homs.INCLUSION_LAWS)
    if laws:
        assert implied(a, b, laws)
    else:  # observed only: the laws together do not give it
        assert not implied(a, b, homs.INCLUSION_LAWS)


def test_every_pair_left_out_fails_on_some_map(sweep):
    left_out = set(itertools.permutations(CLASSES, 2)) - TABLE
    unbroken = sorted(pair for pair in left_out if not breaks(sweep[1], *pair))
    assert unbroken == sorted(WITNESSED)


@pytest.mark.parametrize("a,b", sorted(WITNESSED))
def test_witness_breaks_the_pair(a, b):
    report = classify(WITNESSED[(a, b)]())
    assert getattr(report, a) and not getattr(report, b)


def vector_witness(source_vertices, source_edges, target_vertices, target_edges, images) -> HomMap:
    """The map of a ``CLASS_VECTOR_WITNESSES`` row."""
    source = Graph(list(source_vertices), [tuple(e) for e in source_edges.split()])
    target = Graph(list(target_vertices), [tuple(e) for e in target_edges.split()])
    return HomMap(source, target, dict(zip(source_vertices, images)))


@pytest.fixture(scope="module")
def witness_vectors() -> list[tuple[bool, ...]]:
    """The class vector of each witness at bound (5, 3), in row order."""
    reports = [classify(vector_witness(*row[:5])) for row in CLASS_VECTOR_WITNESSES]
    return [tuple(getattr(r, c) for c in CLASSES) for r in reports]


def test_witnesses_keep_their_stored_vectors(witness_vectors):
    stored = [tuple(c in names.split() for c in CLASSES) for *_, names in CLASS_VECTOR_WITNESSES]
    assert all(set(names.split()) <= set(CLASSES) for *_, names in CLASS_VECTOR_WITNESSES)
    assert all(len(row[0]) <= 5 and len(row[2]) <= 3 for row in CLASS_VECTOR_WITNESSES)
    assert witness_vectors == stored
    assert len(set(stored)) == 43


@pytest.mark.parametrize("a,b,laws", CLASS_INCLUSIONS, ids=[f"{a}->{b}" for a, b, _ in CLASS_INCLUSIONS])
def test_inclusion_holds_on_every_witness(witness_vectors, a, b, laws):
    assert not breaks(witness_vectors, a, b)


def test_every_pair_left_out_fails_on_a_witness(witness_vectors):
    left_out = set(itertools.permutations(CLASSES, 2)) - TABLE
    assert sorted(pair for pair in left_out if not breaks(witness_vectors, *pair)) == []


def test_every_orbit_sweep_instance_is_an_orbit_map():
    # classify takes the orbit fork here: local classes from one member per
    # fibre and equitability without a test, so both are judged afresh
    count = 0
    for g in enumerate_graphs(5):
        nbhd = {v: g.neighborhood(v) for v in g.vertices}
        for inst in orbit_instances_for(g):
            m = inst.m
            report = classify(m, inst.grp)
            assert report.orbit is True
            fresh = HomMap._from_index_map(m.source, m.target, m._index_map)
            local = (report.locally_surjective, report.locally_injective, report.locally_strong)
            assert local == homs._local_classes(fresh)
            assert label_is_equitable(nbhd, m.fibres.values(), m.mapping)
            assert report.complete and report.pseudo_covering and report.component_equitable
            count += 1
    assert count == 3857
