"""JSON file formats for graphs, partitions, maps, and groups.

All emitters produce canonical JSON: vertices and blocks sorted, edges as
sorted pairs in sorted order, keys sorted.  Loaders validate eagerly and
raise ValueError with a pointed message on malformed input; the map loader
raises HypothesisError for a total map that is not a homomorphism.
"""

from __future__ import annotations

import functools
import json
from itertools import chain
from operator import itemgetter

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
    return Graph(vertices, edges)  # Graph names the first faulty item in document order


# --------------------------------------------------------------- partitions

def partition_to_dict(p: Partition) -> dict:
    return {"blocks": [list(block) for block in p.blocks]}


def partition_from_dict(data, g: Graph) -> Partition:
    _expect(isinstance(data, dict), "partition document must be a JSON object")
    _expect("blocks" in data, 'partition document needs a "blocks" list')
    blocks = data["blocks"]
    _expect(isinstance(blocks, list), '"blocks" must be a list')
    return Partition._on_graph(g, blocks)  # Partition words a malformed block as the other loaders do


# --------------------------------------------------------------------- maps

def hom_to_dict(m: HomMap) -> dict:
    return {"map": dict(m.mapping)}


def hom_from_dict(data, source: Graph, target: Graph) -> HomMap:
    _expect(isinstance(data, dict), "map document must be a JSON object")
    _expect("map" in data, 'map document needs a "map" object')
    mapping = data["map"]
    _expect(isinstance(mapping, dict), '"map" must be an object')
    return HomMap(source, target, mapping)


# ------------------------------------------------------------------- groups

def group_to_dict(grp: PermGroup) -> dict:
    return {"generators": list(grp.generators)}


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
        return PermGroup._on_graph(g, gens)
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


# --------------------------------------------------------------------- files

def dumps(payload) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline.

    The text is that of ``json.dumps(payload, sort_keys=True, indent=2)``,
    byte for byte.  An indent sends ``json`` to its pure-Python encoder, so
    the indented layout is built here around compact encoder calls instead:
    each container that holds no non-empty container, and each list of lists
    of scalars, is written by one call; so are the values of a list of such
    objects with one set of ``str`` keys, laid out through one row template.
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


def _object_rows(items, depth: int) -> str | None:
    """The members of ``items``, two or more non-empty ``dict`` objects, when
    all have one set of ``str`` keys and flat values, laid out through one
    row template; else None.

    Only ``str`` keys share a template: ``1`` and ``True``, or ``1`` and
    ``1.0``, are equal keys that the encoder writes differently.
    """
    size = len(items[0])
    if len(items) < 2 or set(map(len, items)) != {size} or not _all_of(str, chain.from_iterable(items)):
        return None
    keys = sorted(items[0])
    pick = itemgetter(*keys)  # one key gives its value, not a 1-tuple
    try:
        values = [*map(pick, items)] if size == 1 else [*chain.from_iterable(map(pick, items))]
    except KeyError:  # as many keys, but not the same ones
        return None
    if not _flat(values):
        return None
    # Every member name is followed by a "%s" slot for its value.  Under
    # ensure_ascii a name never holds a raw newline, so each ': 0,\n' is a
    # separator; the last name's "0" is cut off with the closing brace.
    inner, deeper = "  " * (depth + 1), "  " * (depth + 2)
    names = _encoder(depth + 2).encode(dict.fromkeys(keys, 0))[1:-2]
    names = names.replace("%", "%%").replace(': 0,\n', ': %s,\n')
    row = f"{{\n{deeper}{names}%s\n{inner}}}"
    # Nor does a flat value's text hold a raw newline, so ",\n" splits the
    # values apart.
    texts = _encoder(0).encode(values)[1:-1].split(",\n")
    return f",\n{inner}".join([row] * len(items)) % tuple(texts)


def _list_rows(items, depth: int) -> str:
    """The members of ``items``, non-empty lists of scalars, in one call.

    With ensure_ascii a string never holds a raw newline, so every newline
    in the text starts a separator.  Inside a member a separator comes
    before a scalar, never before an opening bracket (an empty list could,
    which is why list rows hold scalars only); so the separators before one
    are exactly those between two members.
    """
    inner, deeper = "  " * (depth + 1), "  " * (depth + 2)
    text = _encoder(depth + 2).encode(items)[2:-2].replace(f"],\n{deeper}[", f"\n{inner}],\n{inner}[\n{deeper}")
    return f"[\n{deeper}{text}\n{inner}]"


def _leaf_rows(items, depth: int) -> str | None:
    """The members of a list of non-empty flat objects of one key set, or of
    non-empty lists of scalars, written without recursion; else None.

    A ``dict`` subclass takes the recursion: it may read its members in
    another way than ``dict`` does, which is how the template reads them.
    """
    if not all(items):
        return None
    kinds = set(map(type, items))
    if kinds == {dict}:
        return _object_rows(items, depth)
    if all(issubclass(t, (list, tuple)) for t in kinds) and _scalars(chain.from_iterable(items)):
        return _list_rows(items, depth)
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
    rows = _leaf_rows(x, depth)
    if rows is None:
        rows = sep.join(_emit(v, depth + 1) for v in x)
    return f"[\n{inner}{rows}\n{outer}]"


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
