"""Independent oracles and the exhaustive / randomized verification sweeps.

The sweeps enumerate small labeled graphs together with all their vertex
partitions, all edge-preserving maps between small graphs, orbit quotients
drawn from automorphism subgroups, and a seeded stream of larger randomized
orbit quotients.  Every structural claim the package relies on is checked on
every applicable instance, with counterexamples serialized so a reported
failure can be replayed in isolation.

The map claims take the ``HomMap`` itself and call the ``homs`` predicates
(looked up at call time) where they need a value; the predicates cache their
passes on the ``HomMap``.  Every claim call, in the sweeps and in replay,
goes through ``_run``, which records a hypothesis or self-check error as an
``exception: ...`` failure, so such a failure replays as True.

Component counts are cross-checked against ``oracle_component_count``, a
union-find counter kept deliberately separate from the breadth-first search
used by ``Graph.components``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import asdict, dataclass, field

from . import counting, homs, io, partitions, perms
from .errors import HypothesisError, InternalCheckError
from .graphs import Graph, find_isomorphism
from .homs import HomMap
from .partitions import Partition
from .perms import PermGroup, Permutation

_FAILURE_CAP = 20  # serialized counterexamples kept per claim

# Largest sweep bounds: 6 source vertices already take hours (see README).
MAX_SOURCE_VERTICES = 6
MAX_TARGET_VERTICES = 3


# ------------------------------------------------------------------- oracle

def oracle_component_count(g: Graph) -> int:
    """Union-find component counter, independent of the BFS in Graph."""
    parent = {v: v for v in g.vertices}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for u, v in g.proper_edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    return len({find(v) for v in g.vertices})


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
    """All edge-preserving vertex maps from source to target, by backtracking.

    Assigns images in source vertex order and prunes as soon as an edge to an
    already-assigned vertex cannot be preserved.
    """
    sverts = source.vertices
    n = len(sverts)
    index = {v: i for i, v in enumerate(sverts)}
    earlier_neighbors = [
        [index[u] for u in source.neighborhood(v) if u != v and index[u] < i]
        for i, v in enumerate(sverts)
    ]
    tverts = target.vertices
    tn = {w: target.neighborhood(w) for w in tverts}
    image: list[str | None] = [None] * n

    def rec(i):
        if i == n:
            yield {sverts[j]: image[j] for j in range(n)}
            return
        for w in tverts:
            ok = True
            for j in earlier_neighbors[i]:
                if w not in tn[image[j]]:
                    ok = False
                    break
            if ok:
                image[i] = w
                yield from rec(i + 1)

    yield from rec(0)


# ----------------------------------------------------------- instance kinds

class PartitionInstance:
    """A (graph, partition) pair with its quotient computed once."""

    def __init__(self, g: Graph, p: Partition):
        self.g = g
        self.p = p
        self.result = partitions.quotient(g, p)

    def payload(self) -> dict:
        return {"graph": io.graph_to_dict(self.g), "partition": io.partition_to_dict(self.p)}

    @classmethod
    def from_payload(cls, data: dict) -> "PartitionInstance":
        g = io.graph_from_dict(data["graph"])
        return cls(g, io.partition_from_dict(data["partition"], g))


class OrbitInstance:
    """An orbit quotient: graph, group, orbit partition, and the projection."""

    def __init__(self, g: Graph, p: Partition, grp: PermGroup, m: HomMap):
        self.g = g
        self.p = p
        self.grp = grp
        self.m = m

    @classmethod
    def from_group(cls, g: Graph, grp: PermGroup) -> "OrbitInstance":
        p = perms.orbit_partition(grp)
        return cls(g, p, grp, partitions.quotient(g, p).projection)

    def payload(self) -> dict:
        return {"graph": io.graph_to_dict(self.g), "group": io.group_to_dict(self.grp)}

    @classmethod
    def from_payload(cls, data: dict) -> "OrbitInstance":
        g = io.graph_from_dict(data["graph"])
        return cls.from_group(g, io.group_from_dict(data["group"], g))


def _hom_payload(m: HomMap) -> dict:
    return {"source": io.graph_to_dict(m.source), "target": io.graph_to_dict(m.target), **io.hom_to_dict(m)}


def _hom_from_payload(data: dict) -> HomMap:
    return io.hom_from_dict(data, io.graph_from_dict(data["source"]), io.graph_from_dict(data["target"]))


# ------------------------------------------------------------ claim helpers

def _image_proper_edges(m: HomMap, vertices) -> set[frozenset]:
    keep = set(vertices)
    out = set()
    for e in m.source.proper_edges:
        if e <= keep:
            u, v = e
            yu, yv = m.mapping[u], m.mapping[v]
            if yu != yv:
                out.add(frozenset((yu, yv)))
    return out


def _restricted_fibre_partition(m: HomMap, block) -> Partition:
    keep = set(block)
    cells = []
    for fibre in m.fibres.values():
        cell = [v for v in fibre if v in keep]
        if cell:
            cells.append(cell)
    return Partition(cells, keep)


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

def _claim_quotient_count_monotone(inst: PartitionInstance):
    cq = inst.result.quotient.components().count
    cg = inst.g.components().count
    if cq > cg:
        return [f"quotient has {cq} components, more than the graph's {cg}"]
    return []


def _claim_quotient_count_equality_iff_tame(inst: PartitionInstance):
    cq = inst.result.quotient.components().count
    cg = inst.g.components().count
    tame = homs.is_tame(inst.result.projection)
    if (cq == cg) != tame:
        return [f"component counts {cq}/{cg} disagree with tame={tame}"]
    return []


def _claim_quotient_connectivity_transfer(inst: PartitionInstance):
    connected = inst.g.components().count == 1
    q_connected = inst.result.quotient.components().count == 1
    tame = homs.is_tame(inst.result.projection)
    if connected != (q_connected and tame):
        return [
            f"graph connected={connected} but quotient connected={q_connected}, tame={tame}"
        ]
    return []


def _claim_projection_complete(inst: PartitionInstance):
    if not homs.is_complete(inst.result.projection):
        return ["quotient projection is not complete"]
    return []


def _claim_connectedness_criterion_sound(inst: PartitionInstance):
    if inst.result.quotient.components().count != 1:
        return None
    if not homs.is_pseudo_covering(inst.result.projection):
        return None
    verdict = counting.connectedness_criterion(inst.g, inst.p)
    if verdict and oracle_component_count(inst.g) != 1:
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
    eq = homs._is_equitable(m.source, m.fibres.values(), m.mapping)
    iso = com and len(m.image) == len(m.source.vertices)
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
        images = {tcomp.block_of[m.mapping[v]] for v in block}
        if len(images) != 1:
            return [f"component of {block[0]!r} maps into {len(images)} target components"]
        per_target[images.pop()] += 1
    if sum(per_target) != scomp.count:
        return ["per-target component counts do not sum to the component count"]
    return []


def _claim_component_migration(m: HomMap):
    if not homs.is_locally_surjective(m):
        return None
    scomp = m.source.components()
    tcomp = m.target.components()
    fails = []
    for block in scomp.blocks:
        direct = {m.mapping[v] for v in block}
        t_block = tcomp.block_containing(m.mapping[block[0]])
        if direct != set(t_block):
            fails.append(f"image of component of {block[0]!r} is not a full target component")
            continue
        if _image_proper_edges(m, block) != m.target.induced(t_block).proper_edges:
            fails.append(f"image of component of {block[0]!r} misses edges of its target component")
            continue
        sub = m.source.induced(block)
        q = partitions.quotient(sub, _restricted_fibre_partition(m, block))
        if find_isomorphism(q.quotient, m.target.induced(t_block)) is None:
            fails.append(
                f"component of {block[0]!r}: quotient by fibres is not isomorphic to the image"
            )
            continue
        pre = {v for v in m.source.vertices if m.mapping[v] in direct}
        union: set[str] = set()
        for other in scomp.blocks:
            if m.mapping[other[0]] in direct:
                union.update(other)
        if pre != union:
            fails.append(
                f"preimage of the image of component of {block[0]!r} is not a union of components"
            )
    return fails


def _claim_isolated_vertex_image(m: HomMap):
    if not homs.is_locally_surjective(m):
        return None
    fails = []
    for v in m.source.vertices:
        if len(m.source.neighborhood(v)) == 1 and len(m.target.neighborhood(m.mapping[v])) != 1:
            fails.append(f"isolated vertex {v!r} maps to a non-isolated vertex")
    return fails


def _claim_admissible_constant_on_target_components(m: HomMap):
    if not homs.is_locally_surjective(m):
        return None
    scomp = m.source.components()
    tcomp = m.target.components()
    fails = []
    for t_block in tcomp.blocks:
        members = set(t_block)
        into = {i for i, block in enumerate(scomp.blocks) if m.mapping[block[0]] in members}
        for y in t_block:
            admissible = {scomp.block_of[v] for v in m.fibre(y)}
            if admissible != into:
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
    for y in sorted(m.fibres):
        admissible = counting.admissible_components(m, y)
        c_y = len(admissible)
        k_x = len(m.fibre(y))
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
    assignment = {}
    for i, block in enumerate(scomp.blocks):
        assignment[i] = tcomp.block_of[m.mapping[block[0]]]
    if len(set(assignment.values())) != scomp.count:
        fails.append("two source components share an image component")
    if set(assignment.values()) != set(range(tcomp.count)):
        fails.append("some target component is not an image")
    for i, block in enumerate(scomp.blocks):
        t_members = set(tcomp.blocks[assignment[i]])
        pre = {v for v in m.source.vertices if m.mapping[v] in t_members}
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
    direct = {m.mapping[v] for v in block}
    tcomp = m.target.components()
    t_block = tcomp.block_containing(m.mapping[block[0]])
    if direct != set(t_block):
        return None  # the image is not a full component's vertex set: hypothesis absent
    if _image_proper_edges(m, block) != m.target.induced(t_block).proper_edges:
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
    fails = []
    if not perms.verify_automorphisms(inst.g, inst.grp):
        fails.append("group does not act by automorphisms")
    if not partitions.is_equitable(inst.g, inst.p):
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
    for y in sorted(m.fibres):
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
    for y in sorted(m.fibres):
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
    expected = oracle_component_count(inst.g)
    breakdown = counting.count_orbit(m, inst.grp)
    fails = []
    if breakdown.total != expected:
        fails.append(f"orbit count total {breakdown.total} disagrees with the oracle count {expected}")
    # The term must not depend on the choice: every representative y of the
    # target component and every admissible component C give the same ratio.
    for t_block, term in zip(m.target.components().blocks, breakdown.terms):
        for y in t_block:
            k_x = len(m.fibre(y))
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
        pairs = []
        for y in t_block:
            k_x = len(m.fibre(y))
            k_c = counting.multiplicity(m, block, y)
            pairs.append((y, k_x, k_c))
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

# kind -> (its claims, the decoder from a recorded payload to their argument)
_KINDS = {
    "graph": (_GRAPH_CLAIMS, lambda data: io.graph_from_dict(data["graph"])),
    "partition": (_PARTITION_CLAIMS, PartitionInstance.from_payload),
    "hom": (_HOM_CLAIMS, _hom_from_payload),
    "orbit": (_ORBIT_CLAIMS, OrbitInstance.from_payload),
}

CLAIM_KINDS = {cid: kind for kind, (claims, _) in _KINDS.items() for cid in claims}


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

    def to_json(self) -> str:
        return io.dumps(self.as_dict())


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


def _apply(results, claims, instance, payload_fn):
    for cid, fn in claims.items():
        out = _run(fn, instance)
        if out is not None:
            results[cid].record(out, payload_fn)


# ------------------------------------------------------------------- sweeps

def sweep_partition_claims(cfg: SweepConfig, results=None):
    """Graph-level and (graph, partition)-level claims, exhaustively."""
    results = results if results is not None else new_results()
    for g in enumerate_graphs(cfg.max_source_vertices):
        _apply(results, _GRAPH_CLAIMS, g, lambda g=g: {"graph": io.graph_to_dict(g)})
        for cells in set_partitions(g.vertices):
            inst = PartitionInstance(g, Partition(cells, g.vertex_set))
            _apply(results, _PARTITION_CLAIMS, inst, inst.payload)
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
            for mapping in enumerate_homs(src, tgt):
                m = HomMap(src, tgt, mapping)
                _apply(results, selected, m, lambda m=m: _hom_payload(m))
    return results


def orbit_instances_for(g: Graph, pair_cap: int = 150):
    """Orbit quotients of g from subgroups of its automorphism group.

    Subgroups are generated by one or two automorphisms (plus the trivial
    subgroup and the full group); instances are deduplicated by orbit
    partition, which is what the projection depends on.
    """
    aut = perms.automorphism_group(g)
    elements = perms.generated_elements(aut)
    moving = [f for f in elements if not f.is_identity()]
    candidate_gens = [[]]
    candidate_gens += [[f] for f in moving]
    if len(moving) <= pair_cap:
        candidate_gens += [
            [f, h] for i, f in enumerate(moving) for h in moving[i + 1 :]
        ]
    if aut.generators:
        candidate_gens.append(list(aut.generators))
    seen = {}
    for gens in candidate_gens:
        grp = PermGroup(g.vertex_set, gens)
        p = perms.orbit_partition(grp)
        if p.cells not in seen:
            seen[p.cells] = (p, grp)
    for cells in sorted(seen):
        p, grp = seen[cells]
        yield OrbitInstance(g, p, grp, partitions.quotient(g, p).projection)


def sweep_orbit_claims(cfg: SweepConfig, results=None, graphs=None, claims=None):
    """Orbit-quotient claims over subgroup instances of the given graphs."""
    results = results if results is not None else new_results()
    selected = _select(_ORBIT_CLAIMS, claims)
    source = graphs if graphs is not None else enumerate_graphs(cfg.max_source_vertices)
    for g in source:
        for inst in orbit_instances_for(g):
            _apply(results, selected, inst, inst.payload)
    return results


def random_orbit_instance(rng: random.Random, max_vertices: int = 40) -> OrbitInstance:
    """A randomized orbit quotient, built so the hypotheses hold by construction.

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
    grp = PermGroup(g.vertex_set, gens)
    return OrbitInstance.from_group(g, grp)


def sweep_random_claims(cfg: SweepConfig, results=None):
    """Orbit-quotient and counting claims over the seeded randomized layer."""
    results = results if results is not None else new_results()
    rng = random.Random(cfg.seed)
    hom_claims = _select(_HOM_CLAIMS, {"admissible_count_total"})
    graph_claims = _select(_GRAPH_CLAIMS, {"oracle_component_agreement"})
    for _ in range(cfg.random_instances):
        inst = random_orbit_instance(rng)
        _apply(results, _ORBIT_CLAIMS, inst, inst.payload)
        _apply(results, hom_claims, inst.m, lambda m=inst.m: _hom_payload(m))
        _apply(results, graph_claims, inst.g, lambda g=inst.g: {"graph": io.graph_to_dict(g)})
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
    """Re-run one recorded failure; True iff the violation reproduces."""
    cid = failure["claim"]
    claims, decode = _KINDS[CLAIM_KINDS[cid]]
    return bool(_run(claims[cid], decode(failure["data"])))
