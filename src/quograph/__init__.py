"""Quotients, homomorphism classes, and component counting for reflexive graphs.

Graphs here are finite, undirected, and reflexive: every vertex carries an
implicit loop, so closed neighborhoods always contain the vertex itself.
The package builds quotient graphs from vertex partitions, classifies maps
between graphs (complete, locally strong, pseudo-covering, equitable,
orbit, ...), and counts components of a graph from a quotient projection,
with an exhaustive verification harness backing every structural claim.
"""

from .counting import (
    CountBreakdown,
    CountTerm,
    admissible_components,
    component_iso_check,
    connectedness_criterion,
    count_admissible,
    count_ce,
    count_orbit,
    image_of_component,
    multiplicity,
)
from .errors import HypothesisError, InternalCheckError
from .graphs import Graph, Partition, find_isomorphism
from .groups import (
    FiniteGroup,
    conjugation_group,
    generating_set,
    make_cyclic,
    make_symmetric,
    power_graph,
    proper_power_graph,
)
from .homs import (
    ClassificationReport,
    HomMap,
    classify,
    is_complete,
    is_component_equitable,
    is_locally_bijective,
    is_locally_injective,
    is_locally_strong,
    is_locally_surjective,
    is_orbit_map,
    is_pseudo_covering,
    is_surjective,
    is_tame,
)
from .partitions import QuotientResult, is_equitable, quotient
from .perms import (
    PermGroup,
    automorphism_group,
    generated_elements,
    is_consistent,
    orbit_partition,
    verify_automorphisms,
)
from .verify import (
    SweepConfig,
    VerificationReport,
    enumerate_graphs,
    enumerate_homs,
    oracle_component_count,
    replay_counterexample,
    run_suite,
    set_partitions,
)

__all__ = [
    "ClassificationReport",
    "CountBreakdown",
    "CountTerm",
    "FiniteGroup",
    "Graph",
    "HomMap",
    "HypothesisError",
    "InternalCheckError",
    "Partition",
    "PermGroup",
    "QuotientResult",
    "SweepConfig",
    "VerificationReport",
    "admissible_components",
    "automorphism_group",
    "classify",
    "component_iso_check",
    "conjugation_group",
    "connectedness_criterion",
    "count_admissible",
    "count_ce",
    "count_orbit",
    "enumerate_graphs",
    "enumerate_homs",
    "find_isomorphism",
    "generated_elements",
    "generating_set",
    "image_of_component",
    "is_complete",
    "is_component_equitable",
    "is_consistent",
    "is_equitable",
    "is_locally_bijective",
    "is_locally_injective",
    "is_locally_strong",
    "is_locally_surjective",
    "is_orbit_map",
    "is_pseudo_covering",
    "is_surjective",
    "is_tame",
    "make_cyclic",
    "make_symmetric",
    "multiplicity",
    "oracle_component_count",
    "orbit_partition",
    "power_graph",
    "proper_power_graph",
    "quotient",
    "replay_counterexample",
    "run_suite",
    "set_partitions",
    "verify_automorphisms",
]

__version__ = "0.1.0"
