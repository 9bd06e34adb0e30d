from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings

from quograph import (
    Graph,
    HomMap,
    Partition,
    PermGroup,
    automorphism_group,
    generated_elements,
    is_consistent,
    orbit_partition,
    quotient,
    verify_automorphisms,
)
from quograph import perms
from quograph.verify import _draw_orbit_group, enumerate_graphs

from conftest import graphs
from reference import (
    edge_set_automorphism_group,
    edge_set_verify_automorphisms,
    label_generated_elements,
    label_orbit_partition,
    random_orbit_instance,
)


def cycle(n):
    labels = [str(i) for i in range(n)]
    return Graph(labels, [(str(i), str((i + 1) % n)) for i in range(n)])


def rotation(n, step=1):
    return {str(i): str((i + step) % n) for i in range(n)}


def label_elements(grp):
    """``generated_elements(grp)`` as label mappings."""
    verts = grp.vertices
    return [dict(zip(verts, map(verts.__getitem__, f))) for f in generated_elements(grp)]


class TestPermGroup:
    def test_non_bijection_rejected(self):
        with pytest.raises(ValueError, match="not a bijection"):
            PermGroup({"a", "b"}, [{"a": "b", "b": "b"}])

    def test_generators_are_stored_by_position(self):
        for swap in ({"a": "b", "b": "a", "c": "c"}, {"c": "c", "b": "a", "a": "b"}):
            grp = PermGroup(["c", "a", "b", "a"], [swap])
            assert grp.vertices == ("a", "b", "c") and grp._gens == ((1, 0, 2),)
            assert [list(f.items()) for f in grp.generators] == [[("a", "b"), ("b", "a"), ("c", "c")]]


class TestVerifyAutomorphisms:
    def test_rotation_preserves_cycle(self):
        g = cycle(4)
        assert verify_automorphisms(g, PermGroup(g.vertex_set, [rotation(4)]))

    def test_universe_mismatch_rejected(self):
        g = cycle(3)
        with pytest.raises(ValueError):
            verify_automorphisms(g, PermGroup({"a"}, []))

    def test_edge_breaking_permutation_detected(self):
        g = Graph(["a", "b", "c"], [("a", "b")])
        swap_bc = {"a": "a", "b": "c", "c": "b"}
        assert not verify_automorphisms(g, PermGroup(g.vertex_set, [swap_bc]))

    @staticmethod
    def agree(g, grp, verdicts):
        verdict = verify_automorphisms(g, grp)
        assert verdict == edge_set_verify_automorphisms(g, grp)
        verdicts.add(verdict)

    def test_agrees_with_edge_set_oracle_on_the_small_sweep(self):
        # the sources of SweepConfig(4, 3): each graph's automorphism group,
        # then every single permutation of its vertices, most of which break
        # an edge
        verdicts = set()
        for g in enumerate_graphs(4):
            self.agree(g, automorphism_group(g), verdicts)
            for perm in itertools.permutations(g.vertices):
                self.agree(g, PermGroup(g.vertex_set, [dict(zip(g.vertices, perm))]), verdicts)
        assert verdicts == {True, False}

    def test_agrees_with_edge_set_oracle_on_random_orbit_instances(self):
        verdicts = set()
        for seed in range(50):
            rng = random.Random(seed)
            inst = random_orbit_instance(rng)
            g = inst.m.source
            self.agree(g, inst.grp, verdicts)
            shuffled = list(g.vertices)
            rng.shuffle(shuffled)
            self.agree(g, PermGroup(g.vertex_set, [*inst.grp.generators, dict(zip(g.vertices, shuffled))]), verdicts)
        assert verdicts == {True, False}


class TestOrbitPartition:
    def test_trivial_group_gives_singletons(self):
        grp = PermGroup({"a", "b"}, [])
        assert orbit_partition(grp) == Partition.singletons({"a", "b"})

    def test_full_rotation_gives_single_orbit(self):
        grp = PermGroup(cycle(5).vertex_set, [rotation(5)])
        assert len(orbit_partition(grp).blocks) == 1

    def test_antipodal_map_pairs_vertices(self):
        grp = PermGroup(cycle(6).vertex_set, [rotation(6, step=3)])
        p = orbit_partition(grp)
        assert p.blocks == (("0", "3"), ("1", "4"), ("2", "5"))

    def test_orbits_closed_under_generators(self):
        g = cycle(6)
        grp = PermGroup(g.vertex_set, [rotation(6, step=2), rotation(6, step=3)])
        p = orbit_partition(grp)
        for f in grp.generators:
            for cell in p.blocks:
                assert {f[v] for v in cell} == set(cell)


class TestAutomorphismGroup:
    def test_cycle_has_dihedral_symmetries(self):
        assert len(generated_elements(automorphism_group(cycle(6)))) == 12

    def test_path_has_one_flip(self):
        g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert len(generated_elements(automorphism_group(g))) == 2

    def test_generators_are_automorphisms(self):
        g = cycle(5)
        grp = automorphism_group(g)
        assert verify_automorphisms(g, grp)

    def test_size_bound_enforced(self):
        g = Graph([f"v{i}" for i in range(11)], [])
        with pytest.raises(ValueError):
            automorphism_group(g)

    def test_exhaustive_agreement_with_brute_force(self):
        # dual route: compare the backtracking search against filtering all
        # label permutations, over every labeled graph with up to 4 vertices
        for g in enumerate_graphs(4):
            expected = set()
            for perm in itertools.permutations(g.vertices):
                cand = dict(zip(g.vertices, perm))
                if all(
                    g.has_edge(cand[u], cand[v])
                    for e in g.proper_edges
                    for u, v in [tuple(e)]
                ):
                    expected.add(tuple(sorted(cand.items())))
            found = {tuple(sorted(f.items())) for f in label_elements(automorphism_group(g))}
            assert found == expected, f"automorphism mismatch on {g!r}"

    def test_generators_match_the_oracle_in_order(self, monkeypatch):
        # The randomized verify layer draws ``rng.choice(base_aut.generators)``,
        # so the generators, in their order, are part of every seeded report.
        bases = []
        search = perms.automorphism_group
        monkeypatch.setattr(perms, "automorphism_group", lambda g: bases.append(g) or search(g))
        rng = random.Random(5)
        for _ in range(50):
            random_orbit_instance(rng)
        assert len(bases) == 50
        for g in [*enumerate_graphs(5), *bases]:
            assert search(g).generators == edge_set_automorphism_group(g).generators, g

    @given(graphs(max_vertices=5))
    @settings(max_examples=40)
    def test_closure_is_a_group(self, g):
        elements = generated_elements(automorphism_group(g))
        index = set(elements)
        assert tuple(range(len(g.vertices))) in index
        for f in elements[:8]:
            for h in elements[:8]:
                assert tuple(map(f.__getitem__, h)) in index


class TestConsistency:
    def test_orbit_projection_is_consistent(self):
        g = cycle(6)
        grp = PermGroup(g.vertex_set, [rotation(6, step=3)])
        m = quotient(g, orbit_partition(grp)).projection
        assert is_consistent(m, grp)

    def test_map_not_constant_on_orbits_is_inconsistent(self):
        g = cycle(6)
        grp = PermGroup(g.vertex_set, [rotation(6, step=3)])
        # singleton quotient: fibres are strictly finer than the orbits
        m = quotient(g, Partition.singletons(g.vertex_set)).projection
        assert not is_consistent(m, grp)

    def test_fibres_coarser_than_orbits_are_inconsistent(self):
        g = Graph(["a", "b", "c", "d"], [])
        grp = PermGroup(g.vertex_set, [{"a": "b", "b": "a", "c": "c", "d": "d"}])
        m = quotient(g, Partition([["a", "b", "c"], ["d"]], g.vertex_set)).projection
        assert not is_consistent(m, grp)

    def test_universe_mismatch_rejected(self):
        g = cycle(3)
        other = PermGroup({"a"}, [])
        m = quotient(g, Partition.singletons(g.vertex_set)).projection
        with pytest.raises(ValueError):
            is_consistent(m, other)


class TestGeneratedElements:
    def test_identity_sorts_first(self):
        # ``verify._orbit_subgroups`` drops the first element as the identity
        for g in enumerate_graphs(4):
            assert generated_elements(automorphism_group(g))[0] == tuple(range(len(g.vertices)))

    def test_cyclic_generator_materializes_whole_cycle(self):
        grp = PermGroup(cycle(7).vertex_set, [rotation(7)])
        assert len(generated_elements(grp)) == 7

    def test_limit_enforced(self, monkeypatch):
        monkeypatch.setattr(perms, "MAX_GENERATED_ELEMENTS", 100)
        g = Graph([f"v{i}" for i in range(8)], [])
        grp = automorphism_group(g)  # symmetric group on 8 points
        with pytest.raises(ValueError, match="materialization limit 100"):
            generated_elements(grp)


class TestLabelOracles:
    """The position routines against the label mappings they replaced:
    the same orbit blocks and the same elements, in the same order."""

    @staticmethod
    def check(grp):
        p, q = orbit_partition(grp), label_orbit_partition(grp)
        assert (p.blocks, p.block_of, p.universe) == (q.blocks, q.block_of, q.universe)
        assert label_elements(grp) == label_generated_elements(grp)

    def test_automorphism_groups_on_five_vertices(self):
        for g in enumerate_graphs(5):
            self.check(automorphism_group(g))

    def test_randomized_layer_draws(self):
        rng = random.Random(42)
        for _ in range(200):
            g, grp = _draw_orbit_group(rng)
            assert verify_automorphisms(g, grp)
            self.check(grp)
