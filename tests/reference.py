"""Earlier, plainer forms of library routines, kept as test oracles, and
code that only the tests use.

Each oracle here computes what a faster routine in the package must
compute; the tests compare the two on the same inputs.
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from fractions import Fraction
from typing import NamedTuple

from quograph.counting import (
    CountBreakdown,
    CountTerm,
    _exact_div,
    admissible_components,
    multiplicity,
)
from quograph.errors import HypothesisError, InternalCheckError
from quograph.graphs import Graph
from quograph.groups import MAX_ORDER, FiniteGroup
from quograph.homs import HomMap
from quograph.partitions import Partition, quotient
from quograph.perms import PermGroup, orbit_partition
from quograph.verify import OrbitInstance, _draw_orbit_group, _orbit_subgroups


def label_graph(vertices, edges) -> tuple[dict[str, frozenset[str]], frozenset[frozenset[str]]]:
    """A graph stored by label, as ``Graph`` once stored it: each vertex's
    closed neighbourhood as a frozenset of labels, and the proper edges as a
    frozenset of two-label frozensets, built in one pass over well-formed
    edges."""
    nbhd = {v: {v} for v in vertices}
    edge_set = set()
    for u, v in edges:
        nbhd[u].add(v)
        nbhd[v].add(u)
        edge_set.add(frozenset((u, v)))
    return {v: frozenset(s) for v, s in nbhd.items()}, frozenset(edge_set)


def graph_document_result(vertices, edges):
    """What the graph loader gives for the lists ``vertices`` and ``edges``,
    spelled on labels as two walks: the loader's own walk over every edge's
    shape and endpoint types, then ``Graph``'s checks of the labels and,
    edge by edge, of the endpoints, loops and repeats.  Returns the sorted
    vertices and the proper edges as two-label sets, or the refusal's exact
    message."""
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2):
            return f"edge {e!r} is not a two-element list"
        for x in e:
            if not isinstance(x, str):
                return f"edge endpoint {x!r} is not a string"
    if not vertices:
        return "a graph needs at least one vertex"
    declared = set()
    for v in vertices:
        if not isinstance(v, str):
            return f"vertex labels must be strings, got {v!r}"
        if v in declared:
            return f"duplicate vertex label {v!r}"
        declared.add(v)
    proper = set()
    for u, v in edges:
        for x in (u, v):
            if x not in declared:
                return f"edge endpoint {x!r} is not a declared vertex"
        if u == v:
            return f"loop at {u!r} supplied as a proper edge; loops are implicit"
        if frozenset((u, v)) in proper:
            return f"duplicate edge ({min(u, v)!r}, {max(u, v)!r})"
        proper.add(frozenset((u, v)))
    return tuple(sorted(vertices)), frozenset(proper)


def map_document_result(source: Graph, target: Graph, mapping: dict):
    """What the map loader gives for the ``"map"`` object ``mapping``,
    spelled on labels as two walks: the loader's own walk over the images'
    types, then ``HomMap``'s checks of totality, of the domain, of the
    images and of each proper source edge.  Returns the map by source label,
    or the refusal's exact message."""
    for y in mapping.values():
        if not isinstance(y, str):
            return f"map image {y!r} is not a string"
    for v in source.vertices:
        if v not in mapping:
            return f"map is not total: no image for {v!r}"
    for v in mapping:
        if v not in source.vertices:
            return f"map defined on unknown vertex {v!r}"
    for y in mapping.values():
        if y not in target.vertices:
            return f"image vertex {y!r} is not in the target"
    for u, v in source.sorted_edges():
        if mapping[u] != mapping[v] and frozenset((mapping[u], mapping[v])) not in target.proper_edges:
            return "map is not a homomorphism (an edge is not preserved)"
    return {v: mapping[v] for v in source.vertices}


def label_components(nbhd: dict[str, frozenset[str]]) -> tuple[tuple[str, ...], ...]:
    """Component blocks by breadth-first search over label neighbourhoods,
    each seeded at the smallest label not yet reached."""
    unseen = set(nbhd)
    blocks = []
    for seed in sorted(nbhd):
        if seed not in unseen:
            continue
        unseen.discard(seed)
        block = [seed]
        queue = deque([seed])
        while queue:
            for u in nbhd[queue.popleft()]:
                if u in unseen:
                    unseen.discard(u)
                    block.append(u)
                    queue.append(u)
        blocks.append(tuple(sorted(block)))
    return tuple(blocks)


class LabelPartition(NamedTuple):
    """A partition stored by label, as ``Partition`` once stored it: the
    blocks as sorted tuples ordered by smallest member, each label's block
    ordinal, and the vertex set."""

    blocks: tuple[tuple[str, ...], ...]
    block_of: dict[str, int]
    universe: frozenset[str]


def label_partition(blocks, universe) -> LabelPartition:
    """The label form of a list of blocks that partitions ``universe``:
    each block sorted with its repeats dropped, the blocks ordered by first
    member, and a dict from each label to its block ordinal."""
    normalized = sorted((tuple(sorted(set(raw))) for raw in blocks), key=lambda b: b[0])
    block_of = {v: i for i, block in enumerate(normalized) for v in block}
    return LabelPartition(tuple(normalized), block_of, frozenset(universe))


def label_quotient(edges, p: LabelPartition) -> tuple[list[str], frozenset[frozenset[str]]]:
    """Vertex names and proper edges of the quotient by p, by label: block
    names "[<smallest member>]", joined where a proper edge crosses."""
    names = ["[" + block[0] + "]" for block in p.blocks]
    qedges = set()
    for u, v in edges:
        bu, bv = p.block_of[u], p.block_of[v]
        if bu != bv:
            qedges.add(frozenset((names[bu], names[bv])))
    return names, frozenset(qedges)


def label_edge_classes(mapping, source_edges, target_vertices, target_edges) -> tuple[bool, bool]:
    """(edge preserving, complete) from the label pairs the proper source
    edges land on when they do not collapse."""
    covered = set()
    for u, v in source_edges:
        yu, yv = mapping[u], mapping[v]
        if yu != yv:
            covered.add(frozenset((yu, yv)))
    preserving = covered <= target_edges
    surjective = set(mapping.values()) == set(target_vertices)
    return preserving, preserving and len(covered) == len(target_edges) and surjective


def label_local_pass(mapping, source_nbhd, target_nbhd, vertices) -> tuple[bool, bool, bool]:
    """(locally surjective, locally injective, locally strong) over
    ``vertices``, comparing each local image m(N(x)) with N(m(x)) by label."""
    image = set(mapping.values())
    surjective = injective = strong = True
    for x in vertices:
        nbhd = source_nbhd[x]
        local_image = {mapping[u] for u in nbhd}
        target = target_nbhd[mapping[x]]
        injective = injective and len(local_image) == len(nbhd)
        if not target <= local_image:
            surjective = False
            strong = strong and (target & image) <= local_image
    return surjective, injective, strong


def label_is_equitable(nbhd, blocks, block_of) -> bool:
    """Equitability by label: each member of a block counts its closed
    neighbourhood into a dict keyed by block, compared within the block."""
    for block in blocks:
        reference = None
        for x in block:
            row: dict = {}
            for u in nbhd[x]:
                row[block_of[u]] = row.get(block_of[u], 0) + 1
            if reference is None:
                reference = row
            elif row != reference:
                return False
    return True


def label_fibres(mapping) -> dict[str, tuple[str, ...]]:
    """Each image vertex's sorted preimage under a label map, keyed in the
    order of the fibres' smallest members."""
    fibres: dict[str, list[str]] = {}
    for v in sorted(mapping):
        fibres.setdefault(mapping[v], []).append(v)
    return {y: tuple(vs) for y, vs in fibres.items()}


def label_fibre_blocks(mapping, blocks, target_vertices) -> dict[int, dict[int, int]]:
    """For each image vertex, keyed by its place among the sorted target
    vertices, how many of its preimages lie in each block that meets its
    fibre, blocks numbered in the given order."""
    place = {y: i for i, y in enumerate(sorted(target_vertices))}
    table: dict[int, dict[int, int]] = {}
    for i, block in enumerate(blocks):
        for v in block:
            counts = table.setdefault(place[mapping[v]], {})
            counts[i] = counts.get(i, 0) + 1
    return table


def indent_dumps(payload) -> str:
    """Canonical JSON text by the standard library's indenting encoder."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def edge_set_verify_automorphisms(g: Graph, grp: PermGroup) -> bool:
    """Automorphism test by looking each image edge up in the edge set."""
    if frozenset(grp.vertices) != g.vertex_set:
        raise ValueError("group universe does not match the graph's vertices")
    for f in grp.generators:
        for u, v in g.proper_edges:
            if frozenset((f[u], f[v])) not in g.proper_edges:
                return False
    return True


def fibre_scan_is_locally_strong(m: HomMap) -> bool:
    """Locally strong by the definition: for each x1 and each neighbor y2 of
    m(x1) in the image, scan the fibre of y2 for a neighbor of x1."""
    for x1 in m.source.vertices:
        nbhd1 = m.source.neighborhood(x1)
        y1 = m.mapping[x1]
        for y2 in m.target.neighborhood(y1):
            if y2 == y1 or y2 not in m.fibres:
                continue
            if not any(x2 in nbhd1 for x2 in m.fibres[y2]):
                return False
    return True


def loop_is_locally_surjective(m: HomMap) -> bool:
    """Locally surjective by its own loop: each N(m(x)) lies in m(N(x))."""
    for x in m.source.vertices:
        image_nbhd = {m.mapping[u] for u in m.source.neighborhood(x)}
        if not m.target.neighborhood(m.mapping[x]) <= image_nbhd:
            return False
    return True


def loop_is_locally_injective(m: HomMap) -> bool:
    """Locally injective by its own loop: m(N(x)) is as large as N(x)."""
    for x in m.source.vertices:
        nbhd = m.source.neighborhood(x)
        if len({m.mapping[u] for u in nbhd}) != len(nbhd):
            return False
    return True


def rebuilding_ratio_count(m: HomMap) -> CountBreakdown:
    """The ratio walk that rebuilds the list of uncovered target vertices at
    every step and takes its first vertex and first admissible component."""
    tcomp = m.target.components()
    covered: set[int] = set()
    terms = []
    for _ in range(tcomp.count):
        eligible = [y for y in m.target.vertices if tcomp.block_of[y] not in covered]
        y = eligible[0]
        chosen = admissible_components(m, y)[0]
        k_x = len(m.fibre(y))
        k_c = multiplicity(m, chosen, y)
        terms.append(CountTerm(y, chosen[0], k_x, k_c, _exact_div(k_x, k_c)))
        covered.add(tcomp.block_of[y])
    return CountBreakdown(tuple(terms), sum(t.value for t in terms))


def every_choice_terms(m: HomMap) -> list[set[Fraction]]:
    """For each target component, the ratios |fibre(y)| / |C ∩ fibre(y)| over
    every vertex y of it and every source component C meeting its fibre,
    found by scanning all source components."""
    out = []
    for t_block in m.target.components().blocks:
        ratios = set()
        for y in t_block:
            fibre = {x for x in m.source.vertices if m.mapping[x] == y}
            for block in m.source.components().blocks:
                k_c = len(fibre.intersection(block))
                if k_c:
                    ratios.add(Fraction(len(fibre), k_c))
        out.append(ratios)
    return out


def exhaustive_is_associative(elements, table) -> bool:
    """Associativity of a nested-dict Cayley table on every triple, n³ lookups."""
    return all(
        table[table[a][b]][c] == table[a][table[b][c]]
        for a in elements
        for b in elements
        for c in elements
    )


def dict_table_refusal(elements, identity, table) -> str | None:
    """The refusal ``FiniteGroup`` must give for a nested-dict Cayley table,
    or None when it must accept it: the rows and products read in the
    table's own order, the table copied into a dict keyed by label pairs,
    then the identity, inverses and Light's test over the greedy generating
    set, each on label lookups."""
    for row in table.values():
        if not hasattr(row, "keys"):
            return f"table row {row!r} is not an object"
        for c in row.values():
            if not isinstance(c, str):
                return f"product {c!r} is not a string"
    elements = tuple(elements)
    if len(elements) != len(set(elements)):
        return "duplicate group element"
    if not elements:
        return "a group needs at least one element"
    if len(elements) > MAX_ORDER:
        return f"group order {len(elements)} exceeds the cap {MAX_ORDER}"
    if identity not in elements:
        return f"identity {identity!r} is not an element"
    universe = set(elements)
    pairs = {}
    for a in elements:
        row = table.get(a)
        if row is None:
            return f"Cayley table has no row for {a!r}"
        for b in elements:
            if b not in row:
                return f"Cayley table misses the product {a!r}*{b!r}"
            c = row[b]
            if c not in universe:
                return f"product {a!r}*{b!r} = {c!r} is not an element"
            pairs[(a, b)] = c
    e = identity
    for a in elements:
        if pairs[(e, a)] != a or pairs[(a, e)] != a:
            return f"{e!r} does not act as the identity on {a!r}"
    units = {ab for ab, c in pairs.items() if c == e}
    invertible = {a for a, b in units if (b, a) in units}
    for a in elements:
        if a not in invertible:
            return f"element {a!r} has no inverse"
    gens = []
    closed = {e}
    for a in elements:
        if a in closed:
            continue
        gens.append(a)
        frontier = list(closed)
        closed.add(a)
        frontier.append(a)
        while frontier:
            x = frontier.pop()
            for s in gens:
                for y in (pairs[(x, s)], pairs[(s, x)]):
                    if y not in closed:
                        closed.add(y)
                        frontier.append(y)
        if len(closed) == len(elements):
            break
    for s in gens:
        for x in elements:
            xs = pairs[(x, s)]
            for y in elements:
                if pairs[(xs, y)] != pairs[(x, pairs[(s, y)])]:
                    return f"associativity fails on ({x!r}, {s!r}, {y!r})"
    return None


def pairwise_power_edges(group: FiniteGroup, elements) -> frozenset[frozenset[str]]:
    """Distinct x, y among ``elements`` where one is a positive power of the
    other, by testing every pair against powers taken with ``group.op``."""

    def powers(a):
        out = {a}
        x = a
        while x != group.identity:
            x = group.op(x, a)
            out.add(x)
        return out

    pows = {a: powers(a) for a in elements}
    return frozenset(
        frozenset((x, y))
        for i, x in enumerate(elements)
        for y in elements[i + 1 :]
        if x in pows[y] or y in pows[x]
    )


def partition_of_map(m: HomMap) -> Partition:
    """The partition of the source into the map's nonempty fibres."""
    return Partition(list(m.fibres.values()), m.source.vertex_set)


def factorize(m: HomMap):
    """Split a homomorphism through the quotient by its fibres.

    Returns (projection, injection): the projection of the source onto the
    quotient by the fibre partition, and the injective map sending each fibre
    cell to its common image.  Their composition reproduces the original map;
    the injection is an isomorphism exactly when the map is complete.
    """
    result = quotient(m.source, partition_of_map(m))
    projection = result.projection
    try:
        injection = HomMap(
            result.quotient,
            m.target,
            {projection.mapping[x]: m.mapping[x] for x in m.source.vertices},
        )
    except HypothesisError:
        raise InternalCheckError("factorization produced a non-homomorphism injection") from None
    if len(injection.image) != len(result.quotient.vertices):
        raise InternalCheckError("factorization injection is not injective")
    for x in m.source.vertices:
        if injection.mapping[projection.mapping[x]] != m.mapping[x]:
            raise InternalCheckError("factorization does not compose back to the map")
    return projection, injection


def list_row_is_equitable(g: Graph, p: Partition) -> bool:
    """Equitability by one count row per vertex, as long as the number of
    cells; O(|V|·|cells|)."""
    k = len(p.blocks)
    for cell in p.blocks:
        reference = None
        for x in cell:
            row = [0] * k
            for u in g.neighborhood(x):
                row[p.block_of[u]] += 1
            if reference is None:
                reference = row
            elif row != reference:
                return False
    return True


def cell_scan_is_tame(g: Graph, p: Partition) -> bool:
    """Tameness of a partition: every cell lies inside a single component of g."""
    comp = g.components()
    return all(len({comp.block_of[v] for v in cell}) == 1 for cell in p.blocks)


def fibre_count_is_component_equitable(m: HomMap) -> bool:
    """Component equitability by counting, per fibre, its members in each
    source component."""
    comp = m.source.components()
    for fibre in m.fibres.values():
        counts: dict[int, int] = {}
        for v in fibre:
            b = comp.block_of[v]
            counts[b] = counts.get(b, 0) + 1
        if len(set(counts.values())) > 1:
            return False
    return True


def fibre_scan_admissible_components(m: HomMap, y: str) -> list[tuple[str, ...]]:
    """Source components meeting the fibre of y, found by scanning the fibre."""
    comp = m.source.components()
    return [comp.blocks[i] for i in sorted({comp.block_of[v] for v in m.fibre(y)})]


def two_loop_is_consistent(m: HomMap, grp: PermGroup) -> bool:
    """Fibres equal orbits: no generator changes the map, and no fibre
    meets two orbits."""
    for f in grp.generators:
        for x in m.source.vertices:
            if m.mapping[f[x]] != m.mapping[x]:
                return False
    orbits = label_orbit_partition(grp)
    return all(len({orbits.block_of[v] for v in fibre}) == 1 for fibre in m.fibres.values())


def label_orbit_partition(grp: PermGroup) -> LabelPartition:
    """Orbits by closing each unseen label, in label order, under the label
    mappings of the generators, in their label form."""
    gens = grp.generators
    unseen = set(grp.vertices)
    cells = []
    for seed in grp.vertices:
        if seed in unseen:
            orbit = {seed}
            frontier = [seed]
            while frontier:
                x = frontier.pop()
                for f in gens:
                    if f[x] not in orbit:
                        orbit.add(f[x])
                        frontier.append(f[x])
            unseen -= orbit
            cells.append(orbit)
    return label_partition(cells, grp.vertices)


def label_generated_elements(grp: PermGroup) -> list[dict[str, str]]:
    """Every element of the group as a label mapping, composed as dicts
    (f after p) from the identity, in the order of their sorted items."""
    verts = grp.vertices
    identity = {v: v for v in verts}
    seen = {tuple(sorted(identity.items())): identity}
    frontier = [identity]
    while frontier:
        new = []
        for p in frontier:
            for f in grp.generators:
                q = {v: f[p[v]] for v in verts}
                key = tuple(sorted(q.items()))
                if key not in seen:
                    seen[key] = q
                    new.append(q)
        frontier = new
    return [seen[key] for key in sorted(seen)]


def tuple_symmetric_table(n: int) -> tuple[list[str], str, dict[str, dict[str, str]]]:
    """Elements, identity and Cayley table of S_n, composed as integer tuples
    and only then written in one-line notation."""

    def one_line(perm):
        return "".join(str(i) for i in perm)

    perms = list(itertools.permutations(range(1, n + 1)))
    table = {
        one_line(pa): {one_line(pb): one_line(tuple(pa[pb[i] - 1] for i in range(n))) for pb in perms}
        for pa in perms
    }
    return [one_line(p) for p in perms], one_line(tuple(range(1, n + 1))), table


def edge_set_automorphism_group(g: Graph, max_vertices: int = 10) -> PermGroup:
    """A generating set for the automorphism group of g, by a search of its
    own that looks each pair up in the edge set.

    Works through the vertices in a fixed search order: pass i keeps the
    first i vertices pointwise fixed and backtracks for one automorphism
    moving vertex i to each feasible image.  The collected maps generate the
    full group (each pass contributes coset representatives for the next
    pointwise stabilizer).  Degree pruning keeps the search small; the size
    bound guards against graphs this simple search cannot handle.
    """
    n = len(g.vertices)
    if n > max_vertices:
        raise ValueError(f"graph has {n} vertices, above the search bound {max_vertices}")
    deg = {v: len(g.neighborhood(v)) for v in g.vertices}
    order = sorted(g.vertices, key=lambda v: (-deg[v], v))
    position = {v: i for i, v in enumerate(order)}
    gens = []
    for i, v in enumerate(order):
        for w in g.vertices:  # lexicographic, deterministic
            if w == v or deg[w] != deg[v] or position[w] < i:
                continue
            found = _stabilized_automorphism(g, order, deg, i, w)
            if found is not None:
                gens.append(found)
    return PermGroup(g.vertex_set, gens)


def _stabilized_automorphism(g, order, deg, fixed, image_of_fixed):
    """Backtrack for an automorphism fixing order[:fixed] and moving
    order[fixed] to image_of_fixed; returns a mapping or None."""
    assigned = {order[j]: order[j] for j in range(fixed)}
    used = set(assigned.values())

    def consistent(v, img):
        for u, uimg in assigned.items():
            if (frozenset((u, v)) in g.proper_edges) != (frozenset((uimg, img)) in g.proper_edges):
                return False
        return True

    v0 = order[fixed]
    if not consistent(v0, image_of_fixed):
        return None
    assigned[v0] = image_of_fixed
    used.add(image_of_fixed)

    def extend(pos):
        if pos == len(order):
            return True
        v = order[pos]
        for cand in g.vertices:
            if cand in used or deg[cand] != deg[v]:
                continue
            if consistent(v, cand):
                assigned[v] = cand
                used.add(cand)
                if extend(pos + 1):
                    return True
                del assigned[v]
                used.discard(cand)
        return False

    if extend(fixed + 1):
        return dict(assigned)
    return None


def is_hom(source: Graph, target: Graph, mapping: dict[str, str]) -> bool:
    """True iff ``HomMap`` accepts the total map, i.e. it preserves edges."""
    try:
        HomMap(source, target, mapping)
    except HypothesisError:
        return False
    return True


def orbit_instances_for(g: Graph):
    """Orbit quotients of g, one per orbit partition of the subgroups the
    orbit sweep draws from its automorphism group."""
    for p, grp in _orbit_subgroups(g):
        yield OrbitInstance(quotient(g, p).projection, grp)


def random_orbit_instance(rng, max_vertices: int = 40) -> OrbitInstance:
    """A randomized orbit quotient from the randomized layer's stream,
    built so the hypotheses hold by construction."""
    g, grp = _draw_orbit_group(rng, max_vertices)
    return OrbitInstance(quotient(g, orbit_partition(grp)).projection, grp)


def make_klein_four() -> FiniteGroup:
    """The Klein four-group: three commuting involutions."""
    elements = ["e", "a", "b", "c"]
    table = {
        "e": {"e": "e", "a": "a", "b": "b", "c": "c"},
        "a": {"e": "a", "a": "e", "b": "c", "c": "b"},
        "b": {"e": "b", "a": "c", "b": "e", "c": "a"},
        "c": {"e": "c", "a": "b", "b": "a", "c": "e"},
    }
    return FiniteGroup(elements, "e", table)


def cayley_to_dict(group: FiniteGroup) -> dict:
    """A group's Cayley table in the ``cayley:PATH`` file format."""
    return {
        "elements": list(group.elements),
        "identity": group.identity,
        "table": {a: {b: group.op(a, b) for b in group.elements} for a in group.elements},
    }


def closure_set_partitions(items):
    """``verify.set_partitions`` as a recursive closure, the form it had
    before it moved to a module-level generator."""
    items = list(items)

    def rec(idx, parts):
        if idx == len(items):
            yield [list(p) for p in parts]
            return
        x = items[idx]
        for p in parts:
            p.append(x)
            yield from rec(idx + 1, parts)
            p.pop()
        parts.append([x])
        yield from rec(idx + 1, parts)
        parts.pop()

    yield from rec(0, [])


def closure_index_maps(source: Graph, target: Graph):
    """``verify._index_maps`` as a recursive closure, the form it had before
    it moved to a module-level generator."""
    n = len(source.vertices)
    earlier_neighbors = [[j for j in nbhd if j < i] for i, nbhd in enumerate(source._nbhd)]
    target_nbhds = target._nbhd
    image = [0] * n

    def rec(i):
        if i == n:
            yield tuple(image)
            return
        for w, nbhd in enumerate(target_nbhds):
            for j in earlier_neighbors[i]:
                if image[j] not in nbhd:
                    break
            else:
                image[i] = w
                yield from rec(i + 1)

    yield from rec(0)
