from __future__ import annotations

import itertools
import os
import random
from pathlib import Path

from hypothesis import strategies as st

import quograph
from quograph import Graph, HomMap, Partition, PermGroup, quotient

from reference import random_orbit_instance


def subprocess_env() -> dict[str, str]:
    """Environment whose PYTHONPATH puts the quograph under test first."""
    env = dict(os.environ)
    src = str(Path(quograph.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@st.composite
def graphs(draw, max_vertices: int = 6):
    n = draw(st.integers(1, max_vertices))
    labels = [f"v{i}" for i in range(n)]
    pairs = list(itertools.combinations(labels, 2))
    if pairs:
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    else:
        chosen = []
    return Graph(labels, chosen)


@st.composite
def graphs_with_partitions(draw, max_vertices: int = 6):
    g = draw(graphs(max_vertices))
    cells: dict[int, list[str]] = {}
    for v in g.vertices:
        cells.setdefault(draw(st.integers(0, len(g.vertices) - 1)), []).append(v)
    return g, Partition(list(cells.values()), g.vertex_set)


@st.composite
def projections(draw, max_vertices: int = 6):
    """Quotient projections: always complete homomorphisms."""
    g, p = draw(graphs_with_partitions(max_vertices))
    return quotient(g, p).projection


@st.composite
def vertex_maps(draw, max_source: int = 5, max_target: int = 4):
    """Arbitrary total vertex maps; most do not preserve edges."""
    src = draw(graphs(max_source))
    tgt = draw(graphs(max_target))
    mapping = {v: draw(st.sampled_from(tgt.vertices)) for v in src.vertices}
    return src, tgt, mapping


@st.composite
def homomorphism_inputs(draw, max_source: int = 6, max_target: int = 4):
    """Source, target and label map of an edge-preserving map: images first,
    then source edges only where they land on a target edge or a loop.  Many
    are not surjective."""
    tgt = draw(graphs(max_target))
    n = draw(st.integers(1, max_source))
    labels = [f"s{i}" for i in range(n)]
    mapping = {v: draw(st.sampled_from(tgt.vertices)) for v in labels}
    allowed = [(u, v) for u, v in itertools.combinations(labels, 2) if tgt.has_edge(mapping[u], mapping[v])]
    edges = draw(st.lists(st.sampled_from(allowed), unique=True)) if allowed else []
    return Graph(labels, edges), tgt, mapping


def homomorphisms(max_source: int = 6, max_target: int = 4):
    """The maps ``homomorphism_inputs`` draws, built."""
    return homomorphism_inputs(max_source, max_target).map(lambda case: HomMap(*case))


@st.composite
def orbit_instances(draw, max_vertices: int = 24):
    rng = random.Random(draw(st.integers(0, 2**20)))
    return random_orbit_instance(rng, max_vertices=max_vertices)
