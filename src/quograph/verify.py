"""Independent oracles and the exhaustive / randomized verification sweeps.

The sweeps enumerate small labeled graphs together with all their vertex
partitions, all edge-preserving maps between small graphs, orbit quotients
drawn from automorphism subgroups, and a seeded stream of larger randomized
orbit quotients.  Every structural claim the package relies on is checked on
every applicable instance, with counterexamples serialized so a reported
failure can be replayed in isolation.

Each claim kind takes one argument (a graph, a quotient projection, a
``HomMap`` or an ``OrbitInstance``) and has one payload encoder and decoder.
The claims call the ``homs`` predicates (looked up at call time), which cache
their passes on the ``HomMap``.  Every claim call, in the sweeps and in replay
with its decoding, goes through ``_run``, which records a hypothesis or
self-check error as an ``exception: ...`` failure, so it replays as True.

Component counts are cross-checked against ``oracle_component_count``, a
union-find counter kept deliberately separate from the breadth-first search
used by ``Graph.components``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

from . import counting, homs, io, partitions, perms
from .errors import HypothesisError, InternalCheckError
from .graphs import Graph, Partition, find_isomorphism
from .homs import HomMap
from .perms import PermGroup, Permutation

_FAILURE_CAP = 20  # serialized counterexamples kept per claim

# Largest sweep bounds: 6 source vertices already take hours (see README).
MAX_SOURCE_VERTICES = 6
MAX_TARGET_VERTICES = 3
# Largest randomized layer: about the cost of the 6-vertex exhaustive layer.
MAX_RANDOM_INSTANCES = 1_000_000

# Subgroups generated by two automorphisms are tried only for graphs with at
# most this many non-identity automorphisms.
_PAIR_CAP = 150


# ------------------------------------------------------------------- oracle

def oracle_component_count(g: Graph) -> int:
    """Union-find component counter, independent of the BFS in Graph."""
    parent = list(range(len(g.vertices)))

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for u, v in g._edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    return len({find(v) for v in range(len(parent))})


# -------------------------------------------------------------- enumeration

def enumerate_graphs(max_vertices: int):
    """All labeled graphs on vertex sets "1".."n" for n up to the bound.

    Iterates over every subset of the possible proper edges; no isomorphism
    rejection, so the stream is exhaustive over labeled graphs.
    """
    for n in range(1, max_vertices + 1):
        labels = [str(i) for i in range(1, n + 1)]
        pairs = list(itertools.combinations(labels, 2))
        for mask in range(1 << len(pairs)):
            yield Graph(labels, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def set_partitions(items):
    """All partitions of a finite sequence (Bell-number many)."""
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


def enumerate_homs(source: Graph, target: Graph):
    """All edge-preserving vertex maps from source to target, as label dicts."""
    sverts, tverts = source.vertices, target.vertices
    for index_map in _index_maps(source, target):
        yield {v: tverts[y] for v, y in zip(sverts, index_map)}


def _index_maps(source: Graph, target: Graph):
    """All edge-preserving maps from source to target, by backtracking, as
    tuples of target positions by source position (see ``Graph.index``).

    Assigns images in source vertex order, each in target vertex order, and
    prunes as soon as an edge to an already-assigned vertex cannot be
    preserved.
    """
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


# ----------------------------------------------------------- instance kinds

class OrbitInstance(NamedTuple):
    """An orbit quotient: the projection onto the orbits of the group."""

    m: HomMap
    grp: PermGroup


def _project(results, cid: str, g: Graph, p: Partition, payload_fn) -> HomMap | None:
    """The projection of g onto its quotient by p, or None when it fails
    ``quotient``'s completeness check, which is then recorded as a failure
    of claim ``cid`` with ``payload_fn()`` as its counterexample."""
    try:
        return partitions.quotient(g, p).projection
    except InternalCheckError as exc:
        results[cid].record([f"exception: {exc}"], payload_fn)
        return None


# ------------------------------------------------------------ claim helpers

def _image_edges(m: HomMap, i: int) -> set[tuple[int, int]]:
    """The target position pairs that proper edges of source component i
    land on; the source's ``components()`` must have run."""
    comp, index_map = m.source._component_of, m._index_map
    out = set()
    for a, b in m.source._edges:
        if comp[a] == i:
            ya, yb = index_map[a], index_map[b]
            if ya != yb:
                out.add((ya, yb) if ya < yb else (yb, ya))
    return out


def _component_edges(g: Graph, i: int) -> set[tuple[int, int]]:
    """The proper edges of component i of g, as position pairs; ``g.components()`` must have run."""
    comp = g._component_of
    return {(a, b) for a, b in g._edges if comp[a] == i}


def _image_gap(m: HomMap, i: int) -> tuple[int, str | None]:
    """The target component t that source component i lands in, and what
    the image of i lacks of it: "vertices" (tested first), "edges", or None
    when the image is all of t."""
    block = m.source.components().blocks[i]
    t = counting._target_component(m, block[0])
    index_map, index, target = m._index_map, m.source.index, m.target
    if {index_map[index[v]] for v in block} != set(map(target.index.__getitem__, target.components().blocks[t])):
        return t, "vertices"
    if _image_edges(m, i) != _component_edges(target, t):
        return t, "edges"
    return t, None


def _fibre_size(m: HomMap, y: str) -> int:
    """The number of source vertices mapped to target vertex y."""
    return m._index_map.count(m.target.index[y])


# ------------------------------------------------------------- graph claims

def _claim_oracle_component_agreement(g: Graph):
    comp = g.components()
    fails = []
    if comp.count != oracle_component_count(g):
        fails.append(f"breadth-first count {comp.count} != union-find count")
    covered = [v for b in comp.blocks for v in b]
    if sorted(covered) != list(g.vertices):
        fails.append("component blocks do not partition the vertex set")
    return fails


def _claim_singleton_quotient_isomorphic(g: Graph):
    result = partitions.quotient(g, Partition.singletons(g.vertex_set))
    if find_isomorphism(result.quotient, g) is None:
        return ["quotient by singletons is not isomorphic to the graph"]
    return []


# --------------------------------------------------------- partition claims
# Each takes the projection m of a graph (m.source) onto its quotient (m.target).

def _claim_quotient_count_monotone(m: HomMap):
    cq = m.target.components().count
    cg = m.source.components().count
    if cq > cg:
        return [f"quotient has {cq} components, more than the graph's {cg}"]
    return []


def _claim_quotient_count_equality_iff_tame(m: HomMap):
    cq = m.target.components().count
    cg = m.source.components().count
    tame = homs.is_tame(m)
    if (cq == cg) != tame:
        return [f"component counts {cq}/{cg} disagree with tame={tame}"]
    return []


def _claim_quotient_connectivity_transfer(m: HomMap):
    connected = m.source.components().count == 1
    q_connected = m.target.components().count == 1
    tame = homs.is_tame(m)
    if connected != (q_connected and tame):
        return [
            f"graph connected={connected} but quotient connected={q_connected}, tame={tame}"
        ]
    return []


def _claim_projection_complete(m: HomMap):
    if not homs.is_complete(m):
        return ["quotient projection is not complete"]
    return []


def _claim_connectedness_criterion_sound(m: HomMap):
    if m.target.components().count != 1:
        return None
    if not homs.is_pseudo_covering(m):
        return None
    verdict = counting.connectedness_criterion(m)
    if verdict and oracle_component_count(m.source) != 1:
        return ["criterion returned True on a disconnected graph"]
    return []


# --------------------------------------------------------------- hom claims

def _claim_lsur_implies_ls(m: HomMap):
    if not homs.is_locally_surjective(m):
        return None
    if not homs.is_locally_strong(m):
        return ["locally surjective map is not locally strong"]
    return []


def _claim_ls_matches_lsur_when_surjective(m: HomMap):
    if not homs.is_surjective(m):
        return None
    ls = homs.is_locally_strong(m)
    lsur = homs.is_locally_surjective(m)
    if ls != lsur:
        return [f"surjective map: locally_strong={ls} but locally_surjective={lsur}"]
    return []


def _claim_class_inclusion_chain(m: HomMap):
    sur = homs.is_surjective(m)
    com = homs.is_complete(m)
    ls = homs.is_locally_strong(m)
    lsur = homs.is_locally_surjective(m)
    pc = homs.is_pseudo_covering(m)
    eq = homs._is_equitable(m.source, m._index_map)
    iso = com and len(m._image) == len(m.source.vertices)
    fails = []
    if com and not sur:
        fails.append("complete map is not surjective")
    if iso and not (eq and com):
        fails.append("isomorphism is not a complete equitable map")
    if eq and com and not pc:
        fails.append("complete equitable map is not a pseudo-covering")
    if pc != (ls and com):
        fails.append(f"pseudo_covering={pc} but locally_strong={ls}, complete={com}")
    if pc != (lsur and com):
        fails.append(f"pseudo_covering={pc} but locally_surjective={lsur}, complete={com}")
    if pc and not com:
        fails.append("pseudo-covering is not complete")
    return fails


def _claim_component_sum_over_target(m: HomMap):
    scomp = m.source.components()
    tcomp = m.target.components()
    per_target = [0] * tcomp.count
    for block in scomp.blocks:
        images = {counting._target_component(m, v) for v in block}
        if len(images) != 1:
            return [f"component of {block[0]!r} maps into {len(images)} target components"]
        per_target[images.pop()] += 1
    if sum(per_target) != scomp.count:
        return ["per-target component counts do not sum to the component count"]
    return []


def _claim_component_migration(m: HomMap):
    if not homs.is_locally_surjective(m):
        return None
    fails = []
    for i, block in enumerate(m.source.components().blocks):
        t, gap = _image_gap(m, i)
        if gap == "vertices":
            fails.append(f"image of component of {block[0]!r} is not a full target component")
            continue
        if gap == "edges":
            fails.append(f"image of component of {block[0]!r} misses edges of its target component")
            continue
        # C/∼, the quotient of C by its fibres, needs no isomorphism search
        # past these two checks: its cells are the sets fibre(y) ∩ C, one for
        # each y of the target component, and two cells are joined exactly
        # when a proper edge of C maps onto the edge between their two y's.
        # So y ↦ fibre(y) ∩ C is already an isomorphism from m(C) onto C/∼.
        # The preimage of m(C) must be a union of components: the counting
        # layer's check raises InternalCheckError when it is not.
        counting._preimage_union(m, t)
    return fails


def _claim_isolated_vertex_image(m: HomMap):
    if not homs.is_locally_surjective(m):
        return None
    fails = []
    source_nbhds, target_nbhds = m.source._nbhd, m.target._nbhd
    for x, y in enumerate(m._index_map):
        if len(source_nbhds[x]) == 1 and len(target_nbhds[y]) != 1:
            fails.append(f"isolated vertex {m.source.vertices[x]!r} maps to a non-isolated vertex")
    return fails


def _claim_admissible_constant_on_target_components(m: HomMap):
    if not homs.is_locally_surjective(m):
        return None
    scomp = m.source.components()
    tcomp = m.target.components()
    table, index = homs._fibre_blocks(m), m.target.index
    fails = []
    for t, t_block in enumerate(tcomp.blocks):
        into = {i for i, block in enumerate(scomp.blocks) if counting._target_component(m, block[0]) == t}
        for y in t_block:
            if set(table.get(index[y], ())) != into:
                fails.append(
                    f"admissible components at {y!r} differ from the components mapping into"
                    f" its target component"
                )
    return fails


def _claim_admissible_count_total(m: HomMap):
    if not homs.is_locally_surjective(m):
        return None
    breakdown = counting.count_admissible(m)
    if breakdown.total != oracle_component_count(m.source):
        return [f"admissibility total {breakdown.total} disagrees with the union-find oracle"]
    return []


def _claim_multiplicity_ratio_formula(m: HomMap):
    if not (homs.is_locally_surjective(m) and homs.is_component_equitable(m)):
        return None
    fails = []
    for y in sorted(m.image):
        admissible = counting.admissible_components(m, y)
        c_y = len(admissible)
        k_x = _fibre_size(m, y)
        for block in admissible:
            k_c = counting.multiplicity(m, block, y)
            if k_c == 0 or k_x % k_c != 0:
                fails.append(f"multiplicity {k_c} at {y!r} does not divide the fibre size {k_x}")
            elif k_x // k_c != c_y:
                fails.append(
                    f"ratio {k_x}/{k_c} at {y!r} is not the admissible component count {c_y}"
                )
    return fails


def _claim_tame_pseudocover_component_bijection(m: HomMap):
    if not (homs.is_pseudo_covering(m) and homs.is_tame(m)):
        return None
    scomp = m.source.components()
    tcomp = m.target.components()
    fails = []
    assignment = {i: counting._target_component(m, block[0]) for i, block in enumerate(scomp.blocks)}
    if len(set(assignment.values())) != scomp.count:
        fails.append("two source components share an image component")
    if set(assignment.values()) != set(range(tcomp.count)):
        fails.append("some target component is not an image")
    comp_of = m.target._component_of
    for i, block in enumerate(scomp.blocks):
        pre = {v for v, y in zip(m.source.vertices, m._index_map) if comp_of[y] == assignment[i]}
        if pre != set(block):
            fails.append(f"component of {block[0]!r} is not the full preimage of its image")
    return fails


def _claim_single_main_component_image(m: HomMap):
    if not homs.is_complete(m):
        return None
    scomp = m.source.components()
    nontrivial = [b for b in scomp.blocks if len(b) > 1]
    if len(nontrivial) > 1:
        return None
    block = nontrivial[0] if nontrivial else scomp.blocks[0]
    _, gap = _image_gap(m, scomp.block_of[block[0]])
    if gap == "vertices":
        return None  # the image is not a full component's vertex set: hypothesis absent
    if gap == "edges":
        return ["main component image has the component's vertices but not its edges"]
    return []


def _claim_component_image_iso_criterion(m: HomMap):
    if not homs.is_pseudo_covering(m):
        return None
    fails = []
    for block in m.source.components().blocks:
        flag = counting.component_iso_check(m, block)
        t_block = counting.image_of_component(m, block)
        witness = find_isomorphism(m.source.induced(block), m.target.induced(t_block))
        if flag != (witness is not None):
            fails.append(
                f"component of {block[0]!r}: multiplicity test says {flag}"
                f" but isomorphism search says {witness is not None}"
            )
    return fails


# ------------------------------------------------------------- orbit claims

def _claim_orbit_partition_equitable(inst: OrbitInstance):
    m = inst.m
    fails = []
    if not perms.verify_automorphisms(m.source, inst.grp):
        fails.append("group does not act by automorphisms")
    if not homs._is_equitable(m.source, m._index_map):
        fails.append("orbit partition is not equitable")
    return fails


def _claim_orbit_projection_consistent(inst: OrbitInstance):
    if not perms.is_consistent(inst.m, inst.grp):
        return ["projection fibres are not the orbits of the group"]
    report = homs.classify(inst.m, inst.grp)
    if not (report.complete and report.orbit):
        return ["orbit projection did not classify as a complete orbit map"]
    return []


def _claim_orbit_admissible_single_orbit(inst: OrbitInstance):
    m = inst.m
    fails = []
    for y in sorted(m.image):
        blocks = counting.admissible_components(m, y)
        admissible = [frozenset(b) for b in blocks]
        first = blocks[0]
        closure = {frozenset(first)}
        frontier = [frozenset(first)]
        while frontier:
            blk = frontier.pop()
            for f in inst.grp.generators:
                img = frozenset(f.mapping[v] for v in blk)
                if img not in closure:
                    closure.add(img)
                    frontier.append(img)
        if closure != set(admissible):
            fails.append(f"admissible components at {y!r} are not a single group orbit")
            continue
        base = m.source.induced(first)
        for other in admissible:
            if find_isomorphism(base, m.source.induced(other)) is None:
                fails.append(f"admissible components at {y!r} are not pairwise isomorphic")
                break
    return fails


def _claim_orbit_count_vertex_ratio(inst: OrbitInstance):
    m = inst.m
    fails = []
    for y in sorted(m.image):
        admissible = counting.admissible_components(m, y)
        c_y = len(admissible)
        for block in admissible:
            pre = counting.preimage_of_component_vertices(m, block)
            if len(pre) != c_y * len(block):
                fails.append(
                    f"preimage of the image of a component at {y!r} has {len(pre)} vertices,"
                    f" expected {c_y}*{len(block)}"
                )
    return fails


def _claim_orbit_multiplicity_total(inst: OrbitInstance):
    m = inst.m
    expected = oracle_component_count(m.source)
    breakdown = counting.count_orbit(m, inst.grp)
    fails = []
    if breakdown.total != expected:
        fails.append(f"orbit count total {breakdown.total} disagrees with the oracle count {expected}")
    # The term must not depend on the choice: every representative y of the
    # target component and every admissible component C give the same ratio.
    for t_block, term in zip(m.target.components().blocks, breakdown.terms):
        for y in t_block:
            k_x = _fibre_size(m, y)
            for block in counting.admissible_components(m, y):
                k_c = counting.multiplicity(m, block, y)
                if k_c * term.value != k_x:
                    fails.append(
                        f"choosing {y!r} and the component of {block[0]!r} gives {k_x}/{k_c},"
                        f" not the term {term.value}"
                    )
    return fails


def _claim_multiplicity_ratio_independence(inst: OrbitInstance):
    m = inst.m
    fails = []
    for block in m.source.components().blocks:
        t_block = counting.image_of_component(m, block)
        pairs = [(y, _fibre_size(m, y), counting.multiplicity(m, block, y)) for y in t_block]
        _, kx0, kc0 = pairs[0]
        for y, k_x, k_c in pairs[1:]:
            if k_x * kc0 != kx0 * k_c:
                fails.append(f"ratio at {y!r} differs from the ratio at {pairs[0][0]!r}")
        saturated = [k_c == k_x for _, k_x, k_c in pairs]
        if any(saturated) and not all(saturated):
            fails.append(f"multiplicity equals fibre size at some but not all of {t_block}")
        if all(saturated) and pairs[0][1] > 1:
            if counting.component_iso_check(m, block):
                fails.append(
                    f"component of {block[0]!r} absorbs a fibre of size {pairs[0][1]}"
                    f" yet passes the copy test"
                )
    return fails


# ----------------------------------------------------------- claim registry

_GRAPH_CLAIMS = {
    "oracle_component_agreement": _claim_oracle_component_agreement,
    "singleton_quotient_isomorphic": _claim_singleton_quotient_isomorphic,
}

_PARTITION_CLAIMS = {
    "quotient_count_monotone": _claim_quotient_count_monotone,
    "quotient_count_equality_iff_tame": _claim_quotient_count_equality_iff_tame,
    "quotient_connectivity_transfer": _claim_quotient_connectivity_transfer,
    "projection_complete": _claim_projection_complete,
    "connectedness_criterion_sound": _claim_connectedness_criterion_sound,
}

_HOM_CLAIMS = {
    "locally_surjective_implies_locally_strong": _claim_lsur_implies_ls,
    "locally_strong_matches_locally_surjective_when_surjective": _claim_ls_matches_lsur_when_surjective,
    "class_inclusion_chain": _claim_class_inclusion_chain,
    "component_sum_over_target_components": _claim_component_sum_over_target,
    "component_migration": _claim_component_migration,
    "isolated_vertex_image": _claim_isolated_vertex_image,
    "admissible_constant_on_target_components": _claim_admissible_constant_on_target_components,
    "admissible_count_total": _claim_admissible_count_total,
    "multiplicity_ratio_formula": _claim_multiplicity_ratio_formula,
    "tame_pseudocover_component_bijection": _claim_tame_pseudocover_component_bijection,
    "single_main_component_image": _claim_single_main_component_image,
    "component_image_iso_criterion": _claim_component_image_iso_criterion,
}

_ORBIT_CLAIMS = {
    "orbit_partition_equitable": _claim_orbit_partition_equitable,
    "orbit_projection_consistent": _claim_orbit_projection_consistent,
    "orbit_admissible_single_orbit": _claim_orbit_admissible_single_orbit,
    "orbit_count_vertex_ratio": _claim_orbit_count_vertex_ratio,
    "orbit_multiplicity_total": _claim_orbit_multiplicity_total,
    "multiplicity_ratio_independence": _claim_multiplicity_ratio_independence,
}

def _pair_payload(g: Graph, p: Partition) -> dict:
    return {"graph": io.graph_to_dict(g), "partition": io.partition_to_dict(p)}


def _decode_projection(data: dict) -> HomMap:
    g = io.graph_from_dict(data["graph"])
    return partitions.quotient(g, io.partition_from_dict(data["partition"], g)).projection


def _orbit_payload(g: Graph, grp: PermGroup) -> dict:
    return {"graph": io.graph_to_dict(g), "group": io.group_to_dict(grp)}


def _decode_orbit(data: dict) -> OrbitInstance:
    g = io.graph_from_dict(data["graph"])
    grp = io.group_from_dict(data["group"], g)
    return OrbitInstance(partitions.quotient(g, perms.orbit_partition(grp)).projection, grp)


# kind -> (its claims, the encoder of their argument into a recorded payload,
# the decoder from that payload back to their argument)
_KINDS = {
    "graph": (
        _GRAPH_CLAIMS, lambda g: {"graph": io.graph_to_dict(g)}, lambda d: io.graph_from_dict(d["graph"])
    ),
    "partition": (
        _PARTITION_CLAIMS,
        lambda m: _pair_payload(m.source, Partition(m.fibres.values(), m.source.vertex_set)),
        _decode_projection,
    ),
    "hom": (
        _HOM_CLAIMS,
        lambda m: {
            "source": io.graph_to_dict(m.source), "target": io.graph_to_dict(m.target), **io.hom_to_dict(m)
        },
        lambda d: io.hom_from_dict(d, io.graph_from_dict(d["source"]), io.graph_from_dict(d["target"])),
    ),
    "orbit": (
        _ORBIT_CLAIMS,
        lambda inst: _orbit_payload(inst.m.source, inst.grp),
        _decode_orbit,
    ),
}

CLAIM_KINDS = {cid: kind for kind, (claims, _, _) in _KINDS.items() for cid in claims}


# ----------------------------------------------------------- configuration

@dataclass(frozen=True)
class SweepConfig:
    """Bounds and seed for one verification run."""

    max_source_vertices: int = 5
    max_target_vertices: int = 3
    random_instances: int = 1000
    seed: int = 42

    def __post_init__(self):
        if self.max_source_vertices < 1 or self.max_target_vertices < 1:
            raise ValueError("vertex bounds must be at least 1")
        if self.max_source_vertices > MAX_SOURCE_VERTICES or self.max_target_vertices > MAX_TARGET_VERTICES:
            raise ValueError(f"at most {MAX_SOURCE_VERTICES} source, {MAX_TARGET_VERTICES} target vertices")
        if self.random_instances < 0:
            raise ValueError("random instance count cannot be negative")
        if self.random_instances > MAX_RANDOM_INSTANCES:
            raise ValueError(f"at most {MAX_RANDOM_INSTANCES} random instances")


@dataclass
class ClaimResult:
    claim: str
    instances: int = 0
    failure_count: int = 0
    failures: list = field(default_factory=list)

    def record(self, details, payload_fn):
        self.instances += 1
        for detail in details:
            self.failure_count += 1
            if len(self.failures) < _FAILURE_CAP:
                self.failures.append({"claim": self.claim, "detail": detail, "data": payload_fn()})


@dataclass
class VerificationReport:
    config: SweepConfig
    claims: list[ClaimResult]

    @property
    def passed(self) -> bool:
        return all(c.failure_count == 0 for c in self.claims)

    def as_dict(self) -> dict:
        return {
            "config": asdict(self.config),
            "passed": self.passed,
            "claims": [asdict(c) for c in sorted(self.claims, key=lambda c: c.claim)],
        }


def new_results() -> dict[str, ClaimResult]:
    return {cid: ClaimResult(cid) for cid in CLAIM_KINDS}


def _select(registry, claims):
    if claims is None:
        return registry
    unknown = set(claims) - set(registry)
    if unknown:
        raise ValueError(f"unknown claim identifiers: {sorted(unknown)}")
    return {cid: registry[cid] for cid in registry if cid in claims}


def _run(fn, instance):
    """One claim's failures on one instance, None where its hypotheses are absent."""
    try:
        return fn(instance)
    except (HypothesisError, InternalCheckError) as exc:
        return [f"exception: {exc}"]


def _apply(results, kind, instance, claims=None):
    """Run a kind's claims, or the selected ones, on one instance and record the outcomes."""
    registry, encode, _ = _KINDS[kind]
    payload_fn = lambda: encode(instance)
    for cid, fn in (registry if claims is None else claims).items():
        out = _run(fn, instance)
        if out is not None:
            results[cid].record(out, payload_fn)


# ------------------------------------------------------------------- sweeps

def sweep_partition_claims(cfg: SweepConfig, results=None):
    """Graph-level and (graph, partition)-level claims, exhaustively."""
    results = results if results is not None else new_results()
    for g in enumerate_graphs(cfg.max_source_vertices):
        _apply(results, "graph", g)
        for blocks in set_partitions(g.vertices):
            p = Partition(blocks, g.vertex_set)
            m = _project(results, "projection_complete", g, p, lambda: _pair_payload(g, p))
            if m is not None:  # the other partition claims need the projection
                _apply(results, "partition", m)
    return results


def sweep_hom_claims(cfg: SweepConfig, results=None, claims=None):
    """Map-level claims over every valid map in the configured bounds.

    ``claims`` restricts the run to a subset of claim identifiers; the
    default is all map-level claims.
    """
    results = results if results is not None else new_results()
    selected = _select(_HOM_CLAIMS, claims)
    targets = list(enumerate_graphs(cfg.max_target_vertices))
    for src in enumerate_graphs(cfg.max_source_vertices):
        for tgt in targets:
            for index_map in _index_maps(src, tgt):
                _apply(results, "hom", HomMap._from_index_map(src, tgt, index_map), selected)
    return results


def _orbit_subgroups(g: Graph) -> list[tuple[Partition, PermGroup]]:
    """Subgroups of g's automorphism group, one per orbit partition, with it.

    Subgroups are generated by one or two automorphisms (plus the trivial
    subgroup and the full group); they are deduplicated by orbit partition,
    which is what the projection depends on, and come in block order.
    """
    aut = perms.automorphism_group(g)
    elements = perms.generated_elements(aut)
    moving = [f for f in elements if not f.is_identity()]
    candidate_gens = [[]]
    candidate_gens += [[f] for f in moving]
    if len(moving) <= _PAIR_CAP:
        candidate_gens += [
            [f, h] for i, f in enumerate(moving) for h in moving[i + 1 :]
        ]
    if aut.generators:
        candidate_gens.append(list(aut.generators))
    seen = {}
    for gens in candidate_gens:
        grp = PermGroup(g.vertex_set, gens)
        p = perms.orbit_partition(grp)
        if p.blocks not in seen:
            seen[p.blocks] = (p, grp)
    return [seen[blocks] for blocks in sorted(seen)]


def sweep_orbit_claims(cfg: SweepConfig, results=None, claims=None):
    """Orbit-quotient claims over subgroup instances of every graph in the bounds."""
    results = results if results is not None else new_results()
    selected = _select(_ORBIT_CLAIMS, claims)
    for g in enumerate_graphs(cfg.max_source_vertices):
        for p, grp in _orbit_subgroups(g):
            m = _project(results, "orbit_projection_consistent", g, p, lambda: _orbit_payload(g, grp))
            if m is not None:
                _apply(results, "orbit", OrbitInstance(m, grp), selected)
    return results


def _draw_orbit_group(rng: random.Random, max_vertices: int = 40) -> tuple[Graph, PermGroup]:
    """A random graph and a group acting on it, for the randomized orbit layer.

    Takes a random base graph, lays out disjoint copies, and acts on them
    with a copy shift and/or diagonal automorphisms of the base; the
    projection onto the orbit quotient is then a complete orbit map whatever
    the random choices were.
    """
    base_n = rng.randint(1, 6)
    labels = [f"v{i}" for i in range(base_n)]
    pairs = list(itertools.combinations(labels, 2))
    density = rng.choice([0.0, 0.2, 0.4, 0.6, 0.9])
    base_edges = [p for p in pairs if rng.random() < density]
    copies = rng.randint(1, max(1, min(8, max_vertices // base_n)))

    def tag(v, i):
        return f"{v}@{i:02d}"

    verts = [tag(v, i) for i in range(copies) for v in labels]
    edges = [(tag(u, i), tag(v, i)) for i in range(copies) for (u, v) in base_edges]
    g = Graph(verts, edges)

    base = Graph(labels, base_edges)
    base_aut = perms.automorphism_group(base)
    gens = []
    if copies > 1 and rng.random() < 0.8:
        gens.append(
            Permutation({tag(v, i): tag(v, (i + 1) % copies) for i in range(copies) for v in labels})
        )
    for _ in range(rng.randint(0, 2)):
        word = {v: v for v in labels}
        for _ in range(rng.randint(1, 3)):
            f = rng.choice(base_aut.generators) if base_aut.generators else None
            if f is not None:
                word = {v: f.mapping[word[v]] for v in labels}
        gens.append(Permutation({tag(v, i): tag(word[v], i) for i in range(copies) for v in labels}))
    return g, PermGroup(g.vertex_set, gens)


def sweep_random_claims(cfg: SweepConfig, results=None):
    """Orbit-quotient and counting claims over the seeded randomized layer."""
    results = results if results is not None else new_results()
    rng = random.Random(cfg.seed)
    hom_claims = _select(_HOM_CLAIMS, {"admissible_count_total"})
    graph_claims = _select(_GRAPH_CLAIMS, {"oracle_component_agreement"})
    for _ in range(cfg.random_instances):
        g, grp = _draw_orbit_group(rng)
        p = perms.orbit_partition(grp)
        m = _project(results, "orbit_projection_consistent", g, p, lambda: _orbit_payload(g, grp))
        if m is None:
            continue  # every claim below needs the projection
        _apply(results, "orbit", OrbitInstance(m, grp))
        _apply(results, "hom", m, hom_claims)
        _apply(results, "graph", g, graph_claims)
    return results


def run_suite(cfg: SweepConfig = SweepConfig()) -> VerificationReport:
    """Run every sweep and collect one result per claim.

    The report is fully determined by the configuration: enumeration order
    is fixed and the randomized layer is seeded, so two runs with the same
    configuration produce byte-identical JSON.
    """
    results = new_results()
    sweep_partition_claims(cfg, results)
    sweep_hom_claims(cfg, results)
    sweep_orbit_claims(cfg, results)
    sweep_random_claims(cfg, results)
    return VerificationReport(cfg, [results[cid] for cid in sorted(results)])


# ------------------------------------------------------------------- replay

def replay_counterexample(failure: dict) -> bool:
    """Re-run one recorded failure, decoding included; True iff the violation reproduces."""
    cid = failure["claim"]
    claims, _, decode = _KINDS[CLAIM_KINDS[cid]]
    return bool(_run(lambda data: claims[cid](decode(data)), failure["data"]))
