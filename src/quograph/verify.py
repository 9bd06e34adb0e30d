"""Independent oracles and the exhaustive / randomized verification sweeps.

The sweeps enumerate small labeled graphs together with all their vertex
partitions, all edge-preserving maps between small graphs, orbit quotients
drawn from automorphism subgroups, and a seeded stream of larger randomized
orbit quotients.  Every structural claim the package relies on is checked on
every applicable instance, with counterexamples serialized so a reported
failure can be replayed in isolation.

Each claim kind takes one argument (a graph, a quotient projection, a
``HomMap`` or an ``OrbitInstance``) and has one payload encoder and decoder.
Each claim lists its hypotheses next to it in the claim table, as names of
``homs`` predicates (looked up at call time; they cache their passes on the
``HomMap``).  Every claim call, in the sweeps and in replay, goes through
``_run``, which runs a table's claims in table order, tests each hypothesis
once per instance, and skips a claim when one of its hypotheses fails (a
skipped claim counts no instance).  A hypothesis or self-check error fails
the claim as ``exception: ...``, and replays as True, as a decoding error does.

The class inclusions are not stated here: ``class_inclusion_chain`` reads
the memberships through the ``homs`` predicates and checks them against
``homs.INCLUSION_LAWS``, the list behind ``classify``'s self-check.

Component counts are cross-checked against ``oracle_component_count``, a
union-find counter kept deliberately separate from the breadth-first search
used by ``Graph.components``.

``run_suite`` splits the sweeps into units (see ``_Share``) and forks one
child per further CPU it may run on.  Every process runs the four sweeps on
its own units, and each child sends its instance count per claim back
through a pipe.  Only a run in which every share passed is added up from
its shares.  When a share fails a claim or stops on an exception, or a fork
fails, the parent runs every unit again on its own: that run writes the
report with its failures, or raises the earliest unit's exception as it is.
"""

from __future__ import annotations

import itertools
import marshal
import os
import random
import signal
import threading
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

from . import counting, homs, io, partitions, perms
from .errors import HypothesisError, InternalCheckError
from .graphs import Graph, Partition, find_isomorphism
from .homs import HomMap
from .perms import PermGroup

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
    yield from _place_items(list(items), 0, [])


def _place_items(items, idx, parts):
    """Every partition that puts items[idx:] into the blocks ``parts`` or
    into new blocks after them.  A module-level generator, not a closure: a
    closure that calls itself is a reference cycle."""
    if idx == len(items):
        yield [list(p) for p in parts]
        return
    x = items[idx]
    for p in parts:
        p.append(x)
        yield from _place_items(items, idx + 1, parts)
        p.pop()
    parts.append([x])
    yield from _place_items(items, idx + 1, parts)
    parts.pop()


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
    earlier_neighbors = [[j for j in nbhd if j < i] for i, nbhd in enumerate(source._nbhd)]
    yield from _assign_images(earlier_neighbors, target._nbhd, [0] * len(source.vertices), 0)


def _assign_images(earlier_neighbors, target_nbhds, image, i):
    """Every completion of ``image`` from source position i on, as in
    ``_index_maps``; module level for the reason ``_place_items`` is."""
    if i == len(image):
        yield tuple(image)
        return
    for w, nbhd in enumerate(target_nbhds):
        for j in earlier_neighbors[i]:
            if image[j] not in nbhd:
                break
        else:
            image[i] = w
            yield from _assign_images(earlier_neighbors, target_nbhds, image, i + 1)


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

def _image_gap(m: HomMap, i: int) -> tuple[int, str | None]:
    """The target component t that source component i lands in, and what
    the image of i lacks of it: "vertices" (tested first), "edges", or None
    when the image is all of t."""
    t, full = counting._landing(m, i)
    if not full:
        return t, "vertices"
    scomp, tcomp = m.source.components()._of, m.target.components()._of
    image = homs._edge_image([e for e in m.source._edges if scomp[e[0]] == i], m._index_map)
    if image != {(a, b) for a, b in m.target._edges if tcomp[a] == t}:
        return t, "edges"
    return t, None


def _component_targets(m: HomMap) -> list[int]:
    """The target component of each source component, read at its leader."""
    tcomp, index_map = m.target.components()._of, m._index_map
    return [tcomp[index_map[x]] for x in m.source.components()._leaders]


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
    verdict = counting.connectedness_criterion(m)
    if verdict and oracle_component_count(m.source) != 1:
        return ["criterion returned True on a disconnected graph"]
    return []


# --------------------------------------------------------------- hom claims

def _claim_lsur_implies_ls(m: HomMap):
    if not homs.is_locally_strong(m):
        return ["locally surjective map is not locally strong"]
    return []


def _claim_ls_matches_lsur_when_surjective(m: HomMap):
    ls = homs.is_locally_strong(m)
    lsur = homs.is_locally_surjective(m)
    if ls != lsur:
        return [f"surjective map: locally_strong={ls} but locally_surjective={lsur}"]
    return []


def _claim_class_inclusion_chain(m: HomMap):
    # the laws of homs.INCLUSION_LAWS, on memberships read through the
    # predicates; equitability is tested on complete maps only
    com = homs.is_complete(m)
    return homs._broken_inclusions(
        homs.is_surjective(m), com, com and len(m._image) == len(m.source.vertices),
        homs.is_locally_surjective(m), homs.is_locally_injective(m), homs.is_locally_bijective(m),
        homs.is_locally_strong(m), homs.is_pseudo_covering(m), com and homs._is_equitable(m.source, m._index_map),
    )


def _claim_component_sum_over_target(m: HomMap):
    scomp, tcomp, index_map = m.source.components(), m.target.components()._of, m._index_map
    leaders = scomp._leaders  # each vertex against its component's smallest member
    spans = {b for y, b in zip(index_map, scomp._of) if tcomp[y] != tcomp[index_map[leaders[b]]]}
    if not spans:
        return []
    i = min(spans)  # the first component whose image meets two target components
    images = {tcomp[y] for y, b in zip(index_map, scomp._of) if b == i}
    return [f"component of {scomp.blocks[i][0]!r} maps into {len(images)} target components"]


def _claim_component_migration(m: HomMap):
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
    fails = []
    source_nbhds, target_nbhds = m.source._nbhd, m.target._nbhd
    for x, y in enumerate(m._index_map):
        if len(source_nbhds[x]) == 1 and len(target_nbhds[y]) != 1:
            fails.append(f"isolated vertex {m.source.vertices[x]!r} maps to a non-isolated vertex")
    return fails


def _claim_admissible_constant_on_target_components(m: HomMap):
    tcomp, table, names = m.target.components(), homs._fibre_blocks(m), m.target.vertices
    into = [set() for _ in tcomp._leaders]
    for i, t in enumerate(_component_targets(m)):
        into[t].add(i)
    return [
        f"admissible components at {names[y]!r} differ from the components mapping into its target component"
        for t, y in sorted(zip(tcomp._of, range(len(names))))  # by target component, then by member
        if set(table.get(y, ())) != into[t]
    ]


def _claim_admissible_count_total(m: HomMap):
    breakdown = counting.count_admissible(m)
    if breakdown.total != oracle_component_count(m.source):
        return [f"admissibility total {breakdown.total} disagrees with the union-find oracle"]
    return []


def _claim_multiplicity_ratio_formula(m: HomMap):
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
    scomp, tcomp, into = m.source.components(), m.target.components(), _component_targets(m)
    fails = []
    if len(set(into)) != scomp.count:
        fails.append("two source components share an image component")
    if set(into) != set(range(tcomp.count)):
        fails.append("some target component is not an image")
    for i, (t, leader) in enumerate(zip(into, scomp._leaders)):
        pre = {x for x, y in enumerate(m._index_map) if tcomp._of[y] == t}
        if pre != {x for x, b in enumerate(scomp._of) if b == i}:
            fails.append(f"component of {m.source.vertices[leader]!r} is not the full preimage of its image")
    return fails


def _claim_single_main_component_image(m: HomMap):
    nontrivial = [i for i, block in enumerate(m.source.components().blocks) if len(block) > 1]
    if len(nontrivial) > 1:
        return None
    _, gap = _image_gap(m, nontrivial[0] if nontrivial else 0)
    if gap == "vertices":
        return None  # the image is not a full component's vertex set: hypothesis absent
    if gap == "edges":
        return ["main component image has the component's vertices but not its edges"]
    return []


def _claim_component_image_iso_criterion(m: HomMap):
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
    index = m.source.index
    for y in sorted(m.image):
        blocks = counting.admissible_components(m, y)
        admissible = {frozenset(map(index.__getitem__, b)) for b in blocks}
        first = frozenset(map(index.__getitem__, blocks[0]))
        closure = {first}
        frontier = [first]
        while frontier:
            blk = frontier.pop()
            for f in inst.grp._gens:
                img = frozenset([f[x] for x in blk])
                if img not in closure:
                    closure.add(img)
                    frontier.append(img)
        if closure != admissible:
            fails.append(f"admissible components at {y!r} are not a single group orbit")
            continue
        base = m.source.induced(blocks[0])
        for other in blocks:
            if find_isomorphism(base, m.source.induced(other)) is None:
                fails.append(f"admissible components at {y!r} are not pairwise isomorphic")
                break
    return fails


def _claim_orbit_count_vertex_ratio(inst: OrbitInstance):
    m = inst.m
    fails = []
    # every block still has its landing checked, but the components landing
    # in one target component share its preimage, cross-checked once
    preimages: dict[int, frozenset[str]] = {}
    for y in sorted(m.image):
        admissible = counting.admissible_components(m, y)
        c_y = len(admissible)
        for block in admissible:
            t = counting._image_component(m, block)[1]
            pre = preimages.get(t)
            if pre is None:
                pre = preimages[t] = counting._preimage_union(m, t)
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

# Each row maps a claim identifier to the claim and its hypotheses: the names
# of the ``homs`` predicates its instance must satisfy, tested in order.
_GRAPH_CLAIMS = {
    "oracle_component_agreement": (_claim_oracle_component_agreement, ()),
    "singleton_quotient_isomorphic": (_claim_singleton_quotient_isomorphic, ()),
}

_PARTITION_CLAIMS = {
    "quotient_count_monotone": (_claim_quotient_count_monotone, ()),
    "quotient_count_equality_iff_tame": (_claim_quotient_count_equality_iff_tame, ()),
    "quotient_connectivity_transfer": (_claim_quotient_connectivity_transfer, ()),
    "projection_complete": (_claim_projection_complete, ()),
    "connectedness_criterion_sound": (_claim_connectedness_criterion_sound, ("is_pseudo_covering",)),
}

_HOM_CLAIMS = {
    "locally_surjective_implies_locally_strong": (_claim_lsur_implies_ls, ("is_locally_surjective",)),
    "locally_strong_matches_locally_surjective_when_surjective": (
        _claim_ls_matches_lsur_when_surjective, ("is_surjective",)
    ),
    "class_inclusion_chain": (_claim_class_inclusion_chain, ()),
    "component_sum_over_target_components": (_claim_component_sum_over_target, ()),
    "component_migration": (_claim_component_migration, ("is_locally_surjective",)),
    "isolated_vertex_image": (_claim_isolated_vertex_image, ("is_locally_surjective",)),
    "admissible_constant_on_target_components": (
        _claim_admissible_constant_on_target_components, ("is_locally_surjective",)
    ),
    "admissible_count_total": (_claim_admissible_count_total, ("is_locally_surjective",)),
    "multiplicity_ratio_formula": (
        _claim_multiplicity_ratio_formula, ("is_locally_surjective", "is_component_equitable")
    ),
    "tame_pseudocover_component_bijection": (
        _claim_tame_pseudocover_component_bijection, ("is_pseudo_covering", "is_tame")
    ),
    "single_main_component_image": (_claim_single_main_component_image, ("is_complete",)),
    "component_image_iso_criterion": (_claim_component_image_iso_criterion, ("is_pseudo_covering",)),
}

_ORBIT_CLAIMS = {
    "orbit_partition_equitable": (_claim_orbit_partition_equitable, ()),
    "orbit_projection_consistent": (_claim_orbit_projection_consistent, ()),
    "orbit_admissible_single_orbit": (_claim_orbit_admissible_single_orbit, ()),
    "orbit_count_vertex_ratio": (_claim_orbit_count_vertex_ratio, ()),
    "orbit_multiplicity_total": (_claim_orbit_multiplicity_total, ()),
    "multiplicity_ratio_independence": (_claim_multiplicity_ratio_independence, ()),
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
            "claims": [
                {"claim": c.claim, "instances": c.instances, "failure_count": c.failure_count, "failures": c.failures}
                for c in sorted(self.claims, key=lambda c: c.claim)
            ],
        }


def new_results() -> dict[str, ClaimResult]:
    return {cid: ClaimResult(cid) for cid in CLAIM_KINDS}


def _select(registry, claims=None):
    """A table's ``(cid, fn, hypotheses)`` rows, or the selected ones, in table
    order; each sweep call selects its own, so it sees the table as it is then."""
    if claims is not None and not set(claims) <= set(registry):
        raise ValueError(f"unknown claim identifiers: {sorted(set(claims) - set(registry))}")
    return [(cid, fn, hyps) for cid, (fn, hyps) in registry.items() if claims is None or cid in claims]


def _run(rows, instance):
    """Each row's (cid, failures) on one instance, in order; none for a row
    whose hypotheses do not all hold.  Each hypothesis is tested at most once
    per instance.  A hypothesis or claim that raises fails the claim."""
    held = {}  # hypothesis name -> whether it holds, or the failure its exception gives
    for cid, fn, hypotheses in rows:
        for name in hypotheses:
            if name not in held:
                try:
                    held[name] = bool(getattr(homs, name)(instance))
                except (HypothesisError, InternalCheckError) as exc:
                    held[name] = f"exception: {exc}"
            if held[name] is not True:
                if held[name]:
                    yield cid, [held[name]]
                break
        else:
            try:
                yield cid, fn(instance)
            except (HypothesisError, InternalCheckError) as exc:
                yield cid, [f"exception: {exc}"]


def _apply(results, kind, rows, instance):
    """Run a kind's claim rows on one instance and record the outcomes."""
    payload_fn = lambda: _KINDS[kind][1](instance)  # the encoder, called on a failure only
    for cid, out in _run(rows, instance):
        if out is not None:
            results[cid].record(out, payload_fn)


class _Share:
    """The units of the sweeps one process runs.  A unit is a graph of the
    partition or orbit sweep, a (source, target) pair of the map sweep, or
    an instance of the random layer.  ``run_suite`` numbers them on across
    its four sweeps, in the order one process meets them; a sweep called
    alone numbers its own from 0.

    Unit u is process floor(count * frac(u / phi))'s, phi the golden ratio
    (Fibonacci hashing, Knuth, TAOCP vol. 3, 6.4).  These fractions spread
    evenly over every run of consecutive units, and do not follow the
    period of the enumeration, as u % count would: unit costs rise and fall
    with the graphs' edge masks, which u % count tracks.
    """

    __slots__ = ("index", "count", "unit")

    def __init__(self, index: int = 0, count: int = 1):
        self.index, self.count, self.unit = index, count, -1

    def owner(self, unit: int) -> int:
        """The process whose unit ``unit`` is."""
        return (unit * 0x9E3779B97F4A7C15 & 0xFFFF_FFFF_FFFF_FFFF) * self.count >> 64

    def mine(self, items):
        """Each of ``items`` that is this process's, one unit per item."""
        for item in items:
            self.unit += 1
            if self.owner(self.unit) == self.index:
                yield item


# ------------------------------------------------------------------- sweeps

def sweep_partition_claims(cfg: SweepConfig, results=None, *, _share=None):
    """Graph-level and (graph, partition)-level claims, exhaustively; one unit per graph."""
    results = results if results is not None else new_results()
    graph_claims, partition_claims = _select(_GRAPH_CLAIMS), _select(_PARTITION_CLAIMS)
    for g in (_share or _Share()).mine(enumerate_graphs(cfg.max_source_vertices)):
        _apply(results, "graph", graph_claims, g)
        for blocks in set_partitions(g.vertices):
            p = Partition._on_graph(g, blocks)
            m = _project(results, "projection_complete", g, p, lambda: _pair_payload(g, p))
            if m is not None:  # the other partition claims need the projection
                _apply(results, "partition", partition_claims, m)
    return results


def sweep_hom_claims(cfg: SweepConfig, results=None, claims=None, *, _share=None):
    """Map-level claims over every valid map in the configured bounds; one
    unit per (source, target) pair.

    ``claims`` restricts the run to a subset of claim identifiers; the
    default is all map-level claims.
    """
    results = results if results is not None else new_results()
    rows = _select(_HOM_CLAIMS, claims)
    targets = list(enumerate_graphs(cfg.max_target_vertices))
    pairs = ((src, tgt) for src in enumerate_graphs(cfg.max_source_vertices) for tgt in targets)
    for src, tgt in (_share or _Share()).mine(pairs):
        for index_map in _index_maps(src, tgt):
            _apply(results, "hom", rows, HomMap._from_index_map(src, tgt, index_map))
    return results


def _orbit_subgroups(g: Graph) -> list[tuple[Partition, PermGroup]]:
    """Subgroups of g's automorphism group, one per orbit partition, with it.

    Subgroups are generated by one or two automorphisms (plus the trivial
    subgroup and the full group); they are deduplicated by orbit partition,
    which is what the projection depends on, and come in block order.
    """
    aut = perms.automorphism_group(g)
    elements = perms.generated_elements(aut)
    moving = elements[1:]  # the identity sorts first
    candidate_gens = [[]]
    candidate_gens += [[f] for f in moving]
    if len(moving) <= _PAIR_CAP:
        candidate_gens += [
            [f, h] for i, f in enumerate(moving) for h in moving[i + 1 :]
        ]
    if aut._gens:
        candidate_gens.append(aut._gens)
    seen = {}
    for gens in candidate_gens:
        grp = PermGroup._from_positions(g.vertices, gens)
        p = perms.orbit_partition(grp)
        if p.blocks not in seen:
            seen[p.blocks] = (p, grp)
    return [seen[blocks] for blocks in sorted(seen)]


def sweep_orbit_claims(cfg: SweepConfig, results=None, claims=None, *, _share=None):
    """Orbit-quotient claims over subgroup instances of every graph in the
    bounds; one unit per graph."""
    results = results if results is not None else new_results()
    rows = _select(_ORBIT_CLAIMS, claims)
    for g in (_share or _Share()).mine(enumerate_graphs(cfg.max_source_vertices)):
        for p, grp in _orbit_subgroups(g):
            m = _project(results, "orbit_projection_consistent", g, p, lambda: _orbit_payload(g, grp))
            if m is not None:
                _apply(results, "orbit", rows, OrbitInstance(m, grp))
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

    # g's labels sort by base vertex, then by copy ("v0@00" < "v0@01" < ...
    # < "v1@00", as base_n <= 6 and copies <= 8), so tag(labels[j], i) has
    # position j * copies + i.
    base_aut = perms.automorphism_group(Graph(labels, base_edges))._gens
    gens = []
    if copies > 1 and rng.random() < 0.8:
        gens.append(tuple(j * copies + (i + 1) % copies for j in range(base_n) for i in range(copies)))
    for _ in range(rng.randint(0, 2)):
        word = tuple(range(base_n))
        for _ in range(rng.randint(1, 3)):
            if base_aut:
                f = rng.choice(base_aut)
                word = tuple(map(f.__getitem__, word))  # f after word
        gens.append(tuple(word[j] * copies + i for j in range(base_n) for i in range(copies)))
    return g, PermGroup._from_positions(g.vertices, gens)


def sweep_random_claims(cfg: SweepConfig, results=None, *, _share=None):
    """Orbit-quotient and counting claims over the seeded randomized layer;
    one unit per instance.  Every process draws every instance, so that each
    sees the one seeded stream."""
    results = results if results is not None else new_results()
    rng = random.Random(cfg.seed)
    orbit_claims = _select(_ORBIT_CLAIMS)
    hom_claims = _select(_HOM_CLAIMS, {"admissible_count_total"})
    graph_claims = _select(_GRAPH_CLAIMS, {"oracle_component_agreement"})
    draws = (_draw_orbit_group(rng) for _ in range(cfg.random_instances))
    for g, grp in (_share or _Share()).mine(draws):
        p = perms.orbit_partition(grp)
        m = _project(results, "orbit_projection_consistent", g, p, lambda: _orbit_payload(g, grp))
        if m is None:
            continue  # every claim below needs the projection
        _apply(results, "orbit", orbit_claims, OrbitInstance(m, grp))
        _apply(results, "hom", hom_claims, m)
        _apply(results, "graph", graph_claims, g)
    return results


# ------------------------------------------------------------ processes
# ``run_suite`` forks one child per extra CPU; each process runs every sweep
# on its own units, and each child sends its instance counts back through a pipe.

# At most this many processes.  The parent forks them one after another, at
# about 2.5 ms each on a shared 2-CPU x86 host, and every process walks every
# unit's enumeration and redraws the whole random stream; on a --max-vertices
# 3 run (about 60 ms in one process there) a fifth process would save less
# than its fork costs.
_MAX_PROCESSES = 4


def _process_count() -> int:
    """One process per CPU this process may run on, up to ``_MAX_PROCESSES``;
    one where the affinity is unknown or another thread is alive (a fork
    then copies that thread's locks, not the thread)."""
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return min(len(os.sched_getaffinity(0)), _MAX_PROCESSES)


def _sweep_share(cfg: SweepConfig, results, share: _Share) -> None:
    sweep_partition_claims(cfg, results, _share=share)
    sweep_hom_claims(cfg, results, _share=share)
    sweep_orbit_claims(cfg, results, _share=share)
    sweep_random_claims(cfg, results, _share=share)


class _FirstFailure(ClaimResult):
    """A claim's result in a share, which stops at the claim's first failure."""

    def record(self, details, payload_fn):
        self.instances += 1
        for detail in details:
            raise InternalCheckError(detail)


def _share_outcome(cfg: SweepConfig, share: _Share):
    """A process's share of the sweeps as ``marshal`` carries it: each
    claim's instance count, or None when the share failed a claim or an
    exception stopped it."""
    results = {cid: _FirstFailure(cid) for cid in CLAIM_KINDS}
    try:
        _sweep_share(cfg, results, share)
    except Exception:
        return None
    return {cid: r.instances for cid, r in results.items()}


def _fork_share(cfg: SweepConfig, share: _Share) -> tuple[int, int]:
    """Fork a child that runs ``share`` and writes its outcome to a pipe;
    return the child's pid and the pipe's read end."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid:
        os.close(w)
        return pid, r
    # The child never returns into its caller's code, whatever it raises, and
    # never flushes the stdio buffers it inherited.
    code = 1
    try:
        os.close(r)
        with open(w, "wb") as pipe:
            pipe.write(marshal.dumps(_share_outcome(cfg, share)))
        code = 0
    finally:
        os._exit(code)


def _collect(children: dict) -> list:
    """Each child's outcome.  Reads every pipe to its end, then reaps each
    child, removing it from ``children`` (pid -> read end, None once closed)."""
    data = {}
    for pid, fd in children.items():
        children[pid] = None  # closed by the with statement
        with open(fd, "rb") as pipe:
            data[pid] = pipe.read()
    outcomes = []
    for pid in list(children):
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        del children[pid]
        if code:
            names = {s.value: s.name for s in signal.Signals}
            how = f"was killed by {names.get(-code, -code)}" if code < 0 else f"exited with status {code}"
            raise InternalCheckError(f"a verify process {how} before it reported")
        outcomes.append(marshal.loads(data[pid]))
    return outcomes


def _kill(children: dict) -> None:
    """Kill and reap every child left in ``children``."""
    for pid, fd in children.items():
        os.kill(pid, signal.SIGKILL)
        if fd is not None:
            os.close(fd)
        os.waitpid(pid, 0)
    children.clear()


def run_suite(cfg: SweepConfig = SweepConfig()) -> VerificationReport:
    """Run every sweep and collect one result per claim.

    The report is fully determined by the configuration: enumeration order
    is fixed and the randomized layer is seeded, so two runs with the same
    configuration produce byte-identical JSON.  The units are spread over
    ``_process_count()`` processes.  When every share passes, the parent
    adds up their instance counts.  Otherwise (a share failed a claim or
    raised, a pipe or fork failed, or there is one process) the parent
    kills its children and runs every unit on its own: that run writes the
    first ``_FAILURE_CAP`` failures of each claim, or raises the earliest
    unit's exception with its own type, message and traceback.
    """
    count = _process_count()
    children = {}  # pid -> the read end of its pipe, until the child is reaped
    outcomes = [None]  # one process runs every unit unless every share passed
    try:
        try:
            for index in range(1, count):
                pid, fd = _fork_share(cfg, _Share(index, count))
                children[pid] = fd
        except OSError:  # a failed pipe or fork
            count = 1
        if count > 1:
            outcomes = [_share_outcome(cfg, _Share(0, count))]
            if outcomes[0] is not None:
                outcomes += _collect(children)
    finally:
        _kill(children)
    results = new_results()
    if None in outcomes:
        _sweep_share(cfg, results, _Share())
    else:
        for counts in outcomes:
            for cid, instances in counts.items():
                results[cid].instances += instances
    return VerificationReport(cfg, [results[cid] for cid in sorted(results)])


# ------------------------------------------------------------------- replay

def replay_counterexample(failure: dict) -> bool:
    """Re-run one recorded failure, decoding included; True iff the violation
    reproduces.  ``_run`` catches its own errors, so the ones caught here come
    from a decoding that raises, and reproduce an ``exception: ...`` failure."""
    cid = failure["claim"]
    claims, _, decode = _KINDS[CLAIM_KINDS[cid]]
    fn, hypotheses = claims[cid]
    try:
        return any(out for _, out in _run([(cid, fn, hypotheses)], decode(failure["data"])))
    except (HypothesisError, InternalCheckError):
        return True
