"""JSON file formats for graphs, partitions, maps, and groups.

All emitters produce canonical JSON: vertices and blocks sorted, edges as
sorted pairs in sorted order, keys sorted.  Loaders check only a document's
envelope and leave its items to the constructors, which raise ValueError
with a pointed message on malformed input; the map loader raises
HypothesisError for a total map that is not a homomorphism.
"""

from __future__ import annotations

import functools
import json
from itertools import chain
from json.encoder import encode_basestring_ascii

from .counting import CountBreakdown, CountTerm
from .graphs import Graph, Partition
from .groups import FiniteGroup
from .homs import HomMap
from .perms import PermGroup


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


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
    return PermGroup._on_graph(g, gens)


def cayley_from_dict(data) -> FiniteGroup:
    _expect(isinstance(data, dict), "group table document must be a JSON object")
    _expect("elements" in data, 'group table document needs "elements"')
    _expect("identity" in data, 'group table document needs "identity"')
    _expect("table" in data, 'group table document needs "table"')
    _expect(isinstance(data["elements"], list), '"elements" must be a list')
    _expect(isinstance(data["table"], dict), '"table" must be an object')
    return FiniteGroup(data["elements"], data["identity"], data["table"])


# --------------------------------------------------------------------- files

def dumps(payload) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline.

    The text is that of ``json.dumps(payload, sort_keys=True, indent=2)``,
    byte for byte.  An indent sends ``json`` to its pure-Python encoder, so
    the indented layout is built here around compact encoder calls instead:
    each container that holds no non-empty container, and each list of lists
    of scalars, is written by one call.
    """
    return _emit(payload, 0) + "\n"


def count_text(b: CountBreakdown) -> str:
    """``dumps(b.as_dict())``, byte for byte, written straight from the terms.

    Each term field is encoded once as a column, as its first cell says:
    labels by the function the C encoder itself uses, None as ``null``, and
    an exact ``int`` as ``%s`` writes it.  The columns fill a copy of
    ``_TERM_ROW`` per term.  A count has at least one term, and each of its
    columns holds labels only, None only or ints only.
    """
    columns = [
        list(map(encode_basestring_ascii, c)) if isinstance(c[0], str) else ["null"] * len(c) if c[0] is None else c
        for c in zip(*b.terms)
    ]
    values = chain.from_iterable(zip(*(columns[field] for _, field in _TERM_SLOTS)))  # row by row
    rows = ",\n    ".join([_TERM_ROW] * len(b.terms)) % tuple(values)
    # the frame's one "[]" is the empty terms list, as the total is a number
    head, _, tail = _emit(CountBreakdown((), b.total).as_dict(), 0).partition("[]")
    return f"{head}[\n    {rows}\n  ]{tail}\n"


# A count term's member names, sorted, each with the field it is read from
# (read off ``CountTerm.as_dict``), and its row template at depth 2.
_TERM_SLOTS = sorted(CountTerm(*range(len(CountTerm._fields))).as_dict().items())
_TERM_ROW = "{\n      %s\n    }" % ",\n      ".join(
    encode_basestring_ascii(name).replace("%", "%%") + ": %s" for name, _ in _TERM_SLOTS
)


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
    if all(x) and all(issubclass(t, (list, tuple)) for t in set(map(type, x))) and _scalars(chain.from_iterable(x)):
        rows = _list_rows(x, depth)  # non-empty lists of scalars, in one call
    else:
        rows = sep.join(_emit(v, depth + 1) for v in x)
    return f"[\n{inner}{rows}\n{outer}]"


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON is nested too deeply") from None


def save_json(path, payload) -> None:
    save_text(path, dumps(payload))


def save_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


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
