"""JSON file formats for graphs, partitions, maps, and groups.

All emitters produce canonical JSON: vertices and blocks sorted, edges as
sorted pairs in sorted order, keys sorted.  Loaders validate eagerly and
raise ValueError with a pointed message on malformed input.
"""

from __future__ import annotations

import functools
import json
from itertools import chain

from .graphs import Graph, Partition
from .groups import FiniteGroup
from .homs import HomMap
from .perms import PermGroup


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _all_of(kind: type, items) -> bool:
    """True when every item is exactly a ``kind``: one pass in C, so a
    loader words a refusal item by item only when it has one to word."""
    return set(map(type, items)) <= {kind}


def _expect_labels(labels, what: str) -> None:
    """Refuse labels that are not strings; a list would crash set lookups later."""
    if _all_of(str, labels):
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
    return {"blocks": [list(block) for block in p.blocks]}


def partition_from_dict(data, g: Graph) -> Partition:
    _expect(isinstance(data, dict), "partition document must be a JSON object")
    _expect("blocks" in data, 'partition document needs a "blocks" list')
    blocks = data["blocks"]
    _expect(isinstance(blocks, list), '"blocks" must be a list')
    if not (_all_of(list, blocks) and _all_of(str, chain.from_iterable(blocks))):
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
    if not (_all_of(dict, gens) and _all_of(str, chain.from_iterable(map(dict.values, gens)))):
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
    rows = data["table"].values()
    if not (_all_of(dict, rows) and _all_of(str, chain.from_iterable(map(dict.values, rows)))):
        for row in rows:
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
    """Canonical JSON text: sorted keys, two-space indent, trailing newline.

    The text is that of ``json.dumps(payload, sort_keys=True, indent=2)``,
    byte for byte.  An indent sends ``json`` to its pure-Python encoder, so
    the indented layout is built here around compact encoder calls instead:
    each container that holds no non-empty container, and each list of such
    objects or of lists of scalars, is written by one call.
    """
    return _emit(payload, 0) + "\n"


_CONTAINERS = (dict, list, tuple)


@functools.cache
def _encoder(depth: int) -> json.JSONEncoder:
    """Compact encoder whose item separator starts a new line indented to
    ``depth``: the members of a container at ``depth - 1`` come out laid
    out as ``indent=2`` lays them out, bar the brackets."""
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + "  " * depth, ": "))


def _scalars(items) -> bool:
    """True when no item is a dict, list or tuple."""
    return not any(issubclass(t, _CONTAINERS) for t in set(map(type, items)))


def _flat(items) -> bool:
    """True when no item is a non-empty dict, list or tuple: an empty one
    comes out of the compact encoder as ``{}`` or ``[]``, as it does with
    an indent.  ``items`` is iterated twice."""
    return _scalars(items) or not any(v for v in items if isinstance(v, _CONTAINERS))


def _leaf_rows(items) -> str | None:
    """The brackets of the members of a list whose members are all non-empty
    flat dicts, or all non-empty lists of scalars; else None."""
    if not all(items):
        return None
    kinds = set(map(type, items))
    if all(issubclass(t, dict) for t in kinds):
        return "{}" if _flat([*chain.from_iterable(map(dict.values, items))]) else None
    if all(issubclass(t, (list, tuple)) for t in kinds):
        return "[]" if _scalars(chain.from_iterable(items)) else None
    return None


def _emit(x, depth: int) -> str:
    """``x`` as ``json.dumps(x, sort_keys=True, indent=2)`` writes it when it
    starts ``depth`` levels in."""
    is_dict = isinstance(x, dict)
    if not (is_dict or isinstance(x, (list, tuple))):
        return _encoder(depth).encode(x)
    if not x:
        return "{}" if is_dict else "[]"
    outer, inner = "  " * depth, "  " * (depth + 1)
    if _flat(x.values() if is_dict else x):
        text = _encoder(depth + 1).encode(x)
        return f"{text[0]}\n{inner}{text[1:-1]}\n{outer}{text[-1]}"
    sep = ",\n" + inner
    if is_dict:
        # the member names as the encoder writes them in a flat object:
        # converted to strings, escaped and sorted
        names = _encoder(depth + 1).encode(dict.fromkeys(x, 0))[1:-1].split(sep)
        parts = (name[:-1] + _emit(x[k], depth + 1) for name, k in zip(names, sorted(x)))
        return f"{{\n{inner}{sep.join(parts)}\n{outer}}}"
    rows = _leaf_rows(x)
    if rows is None:
        return f"[\n{inner}{sep.join(_emit(v, depth + 1) for v in x)}\n{outer}]"
    # With ensure_ascii a string never holds a raw newline, so every newline
    # in the text starts a separator.  Inside a member a separator comes
    # before a quoted name or a scalar, never before an opening bracket (an
    # empty list could, which is why list rows hold scalars only); so the
    # separators before one are exactly those between two members.
    open_, close = rows
    deeper = "  " * (depth + 2)
    text = _encoder(depth + 2).encode(x)[2:-2].replace(
        f"{close},\n{deeper}{open_}", f"\n{inner}{close},\n{inner}{open_}\n{deeper}"
    )
    return f"[\n{inner}{open_}\n{deeper}{text}\n{inner}{close}\n{outer}]"


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
