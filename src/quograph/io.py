"""JSON file formats for graphs, partitions, maps, and groups.

All emitters produce canonical JSON: vertices and blocks sorted, edges as
sorted pairs in sorted order, keys sorted.  Loaders validate eagerly and
raise ValueError with a pointed message on malformed input.
"""

from __future__ import annotations

import json

from .graphs import Graph
from .groups import FiniteGroup
from .homs import HomMap
from .partitions import Partition
from .perms import PermGroup


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _expect_labels(labels, what: str) -> None:
    """Refuse labels that are not strings; a list would crash set lookups later."""
    if set(map(type, labels)) <= {str}:
        return
    for x in labels:
        _expect(isinstance(x, str), f"{what} {x!r} is not a string")


# ------------------------------------------------------------------ graphs

def graph_to_dict(g: Graph) -> dict:
    return {"vertices": list(g.vertices), "edges": [list(e) for e in g.sorted_edges()]}


def graph_from_dict(data) -> Graph:
    _expect(isinstance(data, dict), "graph document must be a JSON object")
    _expect("vertices" in data, 'graph document needs a "vertices" list')
    _expect("edges" in data, 'graph document needs an "edges" list')
    vertices = data["vertices"]
    edges = data["edges"]
    _expect(isinstance(vertices, list), '"vertices" must be a list')
    _expect(isinstance(edges, list), '"edges" must be a list')
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2 and isinstance(e[0], str) and isinstance(e[1], str)):
            _expect(isinstance(e, list) and len(e) == 2, f"edge {e!r} is not a two-element list")
            _expect_labels(e, "edge endpoint")
    return Graph(vertices, edges)


# --------------------------------------------------------------- partitions

def partition_to_dict(p: Partition) -> dict:
    return {"blocks": [list(cell) for cell in p.cells]}


def partition_from_dict(data, g: Graph) -> Partition:
    _expect(isinstance(data, dict), "partition document must be a JSON object")
    _expect("blocks" in data, 'partition document needs a "blocks" list')
    blocks = data["blocks"]
    _expect(isinstance(blocks, list), '"blocks" must be a list')
    for b in blocks:
        _expect(isinstance(b, list), f"block {b!r} is not a list")
        _expect_labels(b, "block member")
    return Partition(blocks, g.vertex_set)


# --------------------------------------------------------------------- maps

def hom_to_dict(m: HomMap) -> dict:
    return {"map": dict(m.mapping)}


def hom_from_dict(data, source: Graph, target: Graph) -> HomMap:
    _expect(isinstance(data, dict), "map document must be a JSON object")
    _expect("map" in data, 'map document needs a "map" object')
    mapping = data["map"]
    _expect(isinstance(mapping, dict), '"map" must be an object')
    _expect_labels(mapping.values(), "map image")
    return HomMap(source, target, mapping)


# ------------------------------------------------------------------- groups

def group_to_dict(grp: PermGroup) -> dict:
    return {"generators": [dict(sorted(f.mapping.items())) for f in grp.generators]}


def group_from_dict(data, g: Graph) -> PermGroup:
    """Permutation group file; the universe is the companion graph's vertices."""
    _expect(isinstance(data, dict), "group document must be a JSON object")
    _expect("generators" in data, 'group document needs a "generators" list')
    gens = data["generators"]
    _expect(isinstance(gens, list), '"generators" must be a list')
    for f in gens:
        _expect(isinstance(f, dict), f"generator {f!r} is not an object")
        _expect_labels(f.values(), "generator image")
    try:
        return PermGroup(g.vertex_set, gens)
    except ValueError as exc:
        raise ValueError(f"bad generator: {exc}") from None


def cayley_from_dict(data) -> FiniteGroup:
    _expect(isinstance(data, dict), "group table document must be a JSON object")
    for key in ("elements", "identity", "table"):
        _expect(key in data, f'group table document needs "{key}"')
    _expect(isinstance(data["elements"], list), '"elements" must be a list')
    _expect(isinstance(data["table"], dict), '"table" must be an object')
    _expect_labels(data["elements"], "group element")
    for row in data["table"].values():
        _expect(isinstance(row, dict), f"table row {row!r} is not an object")
        _expect_labels(row.values(), "product")
    return FiniteGroup(data["elements"], data["identity"], data["table"])


def cayley_to_dict(group: FiniteGroup) -> dict:
    return {
        "elements": list(group.elements),
        "identity": group.identity,
        "table": {a: {b: group.op(a, b) for b in group.elements} for a in group.elements},
    }


# --------------------------------------------------------------------- files

def dumps(payload) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON is nested too deeply") from None


def save_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(payload))


def load_graph(path) -> Graph:
    return graph_from_dict(load_json(path))


def load_partition(path, g: Graph) -> Partition:
    return partition_from_dict(load_json(path), g)


def load_hom(path, source: Graph, target: Graph) -> HomMap:
    return hom_from_dict(load_json(path), source, target)


def load_group(path, g: Graph) -> PermGroup:
    return group_from_dict(load_json(path), g)


def load_cayley(path) -> FiniteGroup:
    return cayley_from_dict(load_json(path))
