"""Earlier, plainer forms of library routines, kept as test oracles.

Each function here computes what a faster routine in the package must
compute; the tests compare the two on the same inputs.
"""

from __future__ import annotations

import random

from quograph.counting import (
    CountBreakdown,
    CountTerm,
    _exact_div,
    admissible_components,
    multiplicity,
)
from quograph.homs import HomMap, _require_hom


def fibre_scan_is_locally_strong(m: HomMap) -> bool:
    """Locally strong by the definition: for each x1 and each neighbor y2 of
    m(x1) in the image, scan the fibre of y2 for a neighbor of x1."""
    _require_hom(m)
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
    _require_hom(m)
    for x in m.source.vertices:
        image_nbhd = {m.mapping[u] for u in m.source.neighborhood(x)}
        if not m.target.neighborhood(m.mapping[x]) <= image_nbhd:
            return False
    return True


def loop_is_locally_injective(m: HomMap) -> bool:
    """Locally injective by its own loop: m(N(x)) is as large as N(x)."""
    _require_hom(m)
    for x in m.source.vertices:
        nbhd = m.source.neighborhood(x)
        if len({m.mapping[u] for u in nbhd}) != len(nbhd):
            return False
    return True


def rebuilding_ratio_count(m: HomMap, rng: random.Random | None) -> CountBreakdown:
    """The ratio walk that rebuilds the list of uncovered target vertices at
    every step; it draws from ``rng`` in the same order as the library's."""
    tcomp = m.target.components()
    covered: set[int] = set()
    terms = []
    for _ in range(tcomp.count):
        eligible = [y for y in m.target.vertices if tcomp.block_of[y] not in covered]
        y = rng.choice(eligible) if rng is not None else eligible[0]
        candidates = admissible_components(m, y)
        chosen = rng.choice(candidates) if rng is not None else candidates[0]
        k_x = len(m.fibre(y))
        k_c = multiplicity(m, chosen, y)
        terms.append(CountTerm(y, chosen[0], k_x, k_c, _exact_div(k_x, k_c)))
        covered.add(tcomp.block_of[y])
    return CountBreakdown(tuple(terms), sum(t.value for t in terms))


def exhaustive_is_associative(elements, table) -> bool:
    """Associativity of a nested-dict Cayley table on every triple, n³ lookups."""
    return all(
        table[table[a][b]][c] == table[a][table[b][c]]
        for a in elements
        for b in elements
        for c in elements
    )
