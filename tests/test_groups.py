from __future__ import annotations

import ast
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quograph import (
    FiniteGroup,
    HypothesisError,
    conjugation_group,
    generating_set,
    make_cyclic,
    make_klein_four,
    make_symmetric,
    orbit_partition,
    power_graph,
    proper_power_graph,
)
from golden import CAYLEY_TABLE_REFUSALS
from reference import (
    cayley_to_dict,
    dict_table_refusal,
    exhaustive_is_associative,
    pairwise_power_edges,
    tuple_symmetric_table,
)


def _mod_table(n):
    els = [str(i) for i in range(n)]
    return els, {a: {b: str((int(a) + int(b)) % n) for b in els} for a in els}


def _label_cyclic_table(n):
    els, table = _mod_table(n)
    return els, "0", table


def _refusal(elements, identity, table):
    """The constructor's refusal message for a table, or None if it accepts."""
    try:
        FiniteGroup(elements, identity, table)
    except ValueError as exc:
        return str(exc)
    return None


def _assert_power_edges_match(group):
    assert power_graph(group).proper_edges == pairwise_power_edges(group, group.elements)
    if group.order() > 1:
        rest = tuple(x for x in group.elements if x != group.identity)
        assert proper_power_graph(group).proper_edges == pairwise_power_edges(group, rest)


def _has_inverses(elements, identity, table):
    return all(any(table[a][b] == identity == table[b][a] for b in elements) for a in elements)


def _assert_triple_fails(message, table):
    """The triple an associativity refusal names must really fail."""
    x, s, y = ast.literal_eval(message.removeprefix("associativity fails on "))
    assert table[table[x][s]][y] != table[x][table[s][y]]


def _decide(elements, identity, table):
    """Build the group and check the decision against the exhaustive oracle:
    accepted exactly when the table is associative and has inverses, and a
    refusal for associativity names a triple that really fails."""
    associative = exhaustive_is_associative(elements, table)
    try:
        FiniteGroup(elements, identity, table)
    except ValueError as exc:
        message = str(exc)
        if message.startswith("associativity fails on "):
            _assert_triple_fails(message, table)
            assert not associative
            return "not associative"
        assert "has no inverse" in message
        assert not _has_inverses(elements, identity, table)
        return "no inverse"
    assert associative and _has_inverses(elements, identity, table)
    return "accepted"


SMALL_GROUPS = [make_cyclic(n) for n in range(2, 7)] + [make_symmetric(3), make_klein_four()]


@st.composite
def perturbed_tables(draw):
    """A group table of order 2..6 with 1-3 cells off the identity's row and
    column set to arbitrary elements."""
    group = draw(st.sampled_from(SMALL_GROUPS))
    table = cayley_to_dict(group)["table"]
    cells = [(a, b) for a in group.elements for b in group.elements if group.identity not in (a, b)]
    for a, b in draw(st.lists(st.sampled_from(cells), min_size=1, max_size=3, unique=True)):
        table[a][b] = draw(st.sampled_from(group.elements))
    return group.elements, group.identity, table


@st.composite
def broken_tables(draw):
    """A group table of order 2..6 with one or two faults of the kinds the
    constructor names before the axioms: a missing row, a missing product, a
    product that is not an element, or a changed cell in the identity's row
    or column.  A second fault lands in the same row half the time, so the
    order in which one row's faults are named is drawn too."""
    group = draw(st.sampled_from(SMALL_GROUPS))
    els, e = group.elements, group.identity
    table = cayley_to_dict(group)["table"]
    element = st.sampled_from(els)
    a = draw(element)
    for kind in draw(st.lists(st.sampled_from(["row", "product", "outsider", "identity"]), min_size=1, max_size=2)):
        if draw(st.booleans()):
            a = draw(element)
        row, b = a, draw(element)
        if kind == "identity":
            row, b = draw(st.sampled_from([(e, b), (b, e)]))
            kept = b if row == e else row
        if row not in table:
            continue
        if kind == "row":
            del table[row]
        elif kind == "product":
            table[row].pop(b, None)
        elif kind == "outsider":
            table[row][b] = "x"
        else:
            table[row][b] = draw(st.sampled_from([c for c in els if c != kept]))
    return els, e, table


class TestFiniteGroupValidation:
    def test_duplicate_element(self):
        els, table = _mod_table(2)
        with pytest.raises(ValueError, match="duplicate"):
            FiniteGroup(els + ["0"], "0", table)

    def test_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            FiniteGroup([], "0", {})

    def test_order_cap(self):
        els, table = _mod_table(121)
        with pytest.raises(ValueError, match="cap"):
            FiniteGroup(els, "0", table)

    def test_identity_must_be_an_element(self):
        els, table = _mod_table(2)
        with pytest.raises(ValueError, match="not an element"):
            FiniteGroup(els, "9", table)

    def test_missing_row(self):
        els, table = _mod_table(2)
        del table["1"]
        with pytest.raises(ValueError, match="no row"):
            FiniteGroup(els, "0", table)

    def test_missing_product(self):
        els, table = _mod_table(2)
        del table["1"]["0"]
        with pytest.raises(ValueError, match="misses the product"):
            FiniteGroup(els, "0", table)

    def test_product_outside_universe(self):
        els, table = _mod_table(2)
        table["1"]["1"] = "7"
        with pytest.raises(ValueError, match="not an element"):
            FiniteGroup(els, "0", table)

    def test_identity_must_act_trivially(self):
        els, table = _mod_table(3)
        table["0"]["1"] = "2"
        with pytest.raises(ValueError, match="identity"):
            FiniteGroup(els, "0", table)

    def test_inverses_required(self):
        # x*y = x: every product collapses to the left factor
        els = ["0", "1"]
        table = {"0": {"0": "0", "1": "1"}, "1": {"0": "1", "1": "1"}}
        with pytest.raises(ValueError, match="inverse"):
            FiniteGroup(els, "0", table)

    def test_associativity_checked(self):
        els, table = _mod_table(3)
        table["1"]["2"] = "0"
        table["2"]["1"] = "0"
        table["1"]["1"] = "0"  # keep inverses, break associativity
        with pytest.raises(ValueError):
            FiniteGroup(els, "0", table)


class TestAssociativityProof:
    @given(perturbed_tables())
    @settings(max_examples=400, deadline=None)
    def test_perturbed_tables_agree_with_the_oracle(self, case):
        _decide(*case)

    def test_every_one_and_two_cell_perturbation_up_to_order_four(self):
        outcomes = set()
        for group in SMALL_GROUPS:
            if group.order() > 4:
                continue
            els, e = group.elements, group.identity
            cells = [(a, b) for a in els for b in els if e not in (a, b)]
            for i, first in enumerate(cells):
                for second in [None, *cells[i + 1 :]]:
                    changed = [c for c in (first, second) if c is not None]
                    for values in itertools.product(els, repeat=len(changed)):
                        table = cayley_to_dict(group)["table"]
                        for (a, b), v in zip(changed, values):
                            table[a][b] = v
                        outcomes.add(_decide(els, e, table))
        assert outcomes == {"accepted", "no inverse", "not associative"}

    @pytest.mark.parametrize("n", [26, 30, 120])
    @pytest.mark.parametrize("anchor", ["low", "high"])
    def test_cyclic_table_with_an_intercalate_swapped_is_refused(self, n, anchor):
        els, table = _mod_table(n)
        _swap_intercalate(table, n, 1 if anchor == "low" else n // 2 - 1)
        with pytest.raises(ValueError, match="associativity fails on") as exc:
            FiniteGroup(els, "0", table)
        _assert_triple_fails(str(exc.value), table)

    def test_the_only_intercalate_of_z4_gives_the_klein_group(self):
        # Off the identity's row and column, Z_4 has one intercalate, on
        # {1, 3} x {1, 3}; swapping it makes every element an involution.
        els, table = _mod_table(4)
        _swap_intercalate(table, 4, 1)
        assert _decide(els, "0", table) == "accepted"
        assert proper_power_graph(FiniteGroup(els, "0", table)).components().count == 3

    def test_builders_are_accepted(self):
        groups = [make_cyclic(n) for n in range(1, 61)]
        groups += [make_symmetric(n) for n in range(1, 6)] + [make_klein_four()]
        for group in groups:
            if group.order() <= 24:
                assert exhaustive_is_associative(group.elements, cayley_to_dict(group)["table"])


class TestDictKeyedOracle:
    """The constructor against the plain dict-keyed validator: the same
    decision on every table, and the same message on every refusal."""

    @given(st.one_of(perturbed_tables(), broken_tables()))
    @settings(max_examples=400, deadline=None)
    def test_drawn_tables_agree(self, case):
        message = _refusal(*case)
        assert message == dict_table_refusal(*case)
        if message is None:
            _assert_power_edges_match(FiniteGroup(*case))

    @pytest.mark.parametrize("doc,message", CAYLEY_TABLE_REFUSALS)
    def test_golden_refusals(self, doc, message):
        case = (doc["elements"], doc["identity"], doc["table"])
        assert _refusal(*case) == message == dict_table_refusal(*case)


def _swap_intercalate(table, n, a):
    """Swap the 2x2 Latin subsquare of Z_n on {a, a + n/2} x {a, a + n/2}."""
    h = n // 2
    for x in (a, a + h):
        for y in (a, a + h):
            table[str(x)][str(y)] = str((x + y + h) % n)


class TestBuilders:
    @pytest.mark.parametrize("n", [1, 2, 7, 60])
    def test_cyclic_orders(self, n):
        g = make_cyclic(n)
        assert g.order() == n
        assert g.op("0", "0") == "0"
        if n > 1:
            assert g.powers("1") == frozenset(str(i) for i in range(n))

    @pytest.mark.parametrize("n", [0, 61])
    def test_cyclic_range(self, n):
        with pytest.raises(ValueError):
            make_cyclic(n)

    @pytest.mark.parametrize("n,order", [(1, 1), (2, 2), (3, 6), (4, 24), (5, 120)])
    def test_symmetric_orders(self, n, order):
        assert make_symmetric(n).order() == order

    def test_symmetric_composition_is_right_to_left(self):
        s3 = make_symmetric(3)
        # (a*b)(i) = a(b(i)): a = "213" swaps 1,2; b = "231" sends 1->2
        assert s3.op("213", "231") == "132"
        assert s3.op("231", "213") == "321"

    @pytest.mark.parametrize(
        "builder,label_table,n",
        [pytest.param(make_symmetric, tuple_symmetric_table, n, id=str(n)) for n in range(1, 6)]
        + [pytest.param(make_cyclic, _label_cyclic_table, n, id=f"cyclic:{n}") for n in range(1, 61)],
    )
    def test_symmetric_table_matches_tuple_composition(self, builder, label_table, n):
        built, expected = builder(n), FiniteGroup(*label_table(n))
        assert cayley_to_dict(built) == cayley_to_dict(expected)
        assert built.generators == expected.generators
        for a in built.elements:
            assert built.inverse(a) == expected.inverse(a)
            assert built.powers(a) == expected.powers(a)

    @pytest.mark.parametrize("n", [0, 6])
    def test_symmetric_range(self, n):
        with pytest.raises(ValueError):
            make_symmetric(n)

    def test_klein_four(self):
        k = make_klein_four()
        assert k.order() == 4
        for a in k.elements:
            assert k.op(a, a) == "e"
        assert k.op("a", "b") == "c"

    def test_inverse_roundtrip(self):
        s4 = make_symmetric(4)
        for a in s4.elements:
            assert s4.op(a, s4.inverse(a)) == s4.identity


class TestPowerGraphs:
    @pytest.mark.parametrize(
        "group",
        [pytest.param(make_cyclic(n), id=f"cyclic:{n}") for n in range(1, 61)]
        + [pytest.param(make_symmetric(n), id=f"symmetric:{n}") for n in range(1, 6)]
        + [pytest.param(make_klein_four(), id="klein")],
    )
    def test_edges_match_the_pairwise_oracle(self, group):
        _assert_power_edges_match(group)

    def test_cyclic3_is_complete(self):
        g = power_graph(make_cyclic(3))
        assert len(g.sorted_edges()) == 3

    def test_prime_order_is_complete(self):
        g = power_graph(make_cyclic(7))
        assert len(g.sorted_edges()) == 7 * 6 // 2

    def test_cyclic6_separates_coprime_generators_of_subgroups(self):
        g = power_graph(make_cyclic(6))
        # 2 generates {0,2,4}, 3 generates {0,3}; neither is a power of the other
        assert not g.has_edge("2", "3")
        assert g.has_edge("1", "4")  # 4 = 1+1+1+1

    def test_identity_adjacent_to_all(self):
        g = power_graph(make_symmetric(3))
        assert g.neighborhood("123") == g.vertex_set

    def test_proper_drops_identity(self):
        g = proper_power_graph(make_cyclic(3))
        assert sorted(g.vertices) == ["1", "2"]
        assert len(g.sorted_edges()) == 1

    def test_proper_of_order_two_is_a_point(self):
        g = proper_power_graph(make_cyclic(2))
        assert g.vertices == ("1",) and not g.sorted_edges()

    def test_proper_of_klein_is_three_isolated_points(self):
        g = proper_power_graph(make_klein_four())
        assert g.components().count == 3

    def test_proper_of_s3(self):
        g = proper_power_graph(make_symmetric(3))
        assert len(g.vertices) == 5
        assert len(g.sorted_edges()) == 1
        assert g.components().count == 4

    def test_trivial_group_has_no_proper_power_graph(self):
        with pytest.raises(HypothesisError):
            proper_power_graph(make_cyclic(1))

    @pytest.mark.parametrize(
        "grp",
        [make_cyclic(12), make_symmetric(4), make_klein_four()],
        ids=["c12", "s4", "klein"],
    )
    def test_full_power_graph_always_connected(self, grp):
        assert power_graph(grp).components().count == 1


class TestGeneratingSet:
    @pytest.mark.parametrize(
        "grp,most",
        [(make_cyclic(12), 1), (make_symmetric(4), 2), (make_klein_four(), 2)],
        ids=["c12", "s4", "klein"],
    )
    def test_generates_whole_group(self, grp, most):
        gens = generating_set(grp)
        assert len(gens) <= most + 1
        closed = {grp.identity}
        frontier = list(closed)
        while frontier:
            x = frontier.pop()
            for s in gens:
                for y in (grp.op(x, s), grp.op(s, x)):
                    if y not in closed:
                        closed.add(y)
                        frontier.append(y)
        assert len(closed) == grp.order()

    def test_trivial_group_needs_nothing(self):
        assert generating_set(make_cyclic(1)) == []

    @pytest.mark.parametrize("grp", SMALL_GROUPS + [make_symmetric(5)])
    def test_group_keeps_the_set_its_validation_used(self, grp):
        assert list(grp.generators) == generating_set(grp)


class TestConjugation:
    def test_abelian_conjugation_is_trivial(self):
        grp = make_cyclic(6)
        pg = proper_power_graph(grp)
        action = conjugation_group(grp, pg)
        assert len(orbit_partition(action).blocks) == len(pg.vertices)

    def test_s3_orbits_are_conjugacy_classes(self):
        grp = make_symmetric(3)
        action = conjugation_group(grp, proper_power_graph(grp))
        cells = orbit_partition(action).blocks
        assert cells == (("132", "213", "321"), ("231", "312"))

    def test_accepts_full_power_graph(self):
        grp = make_symmetric(3)
        action = conjugation_group(grp, power_graph(grp))
        assert ("123",) in orbit_partition(action).blocks

    def test_rejects_unrelated_graph(self):
        from quograph import Graph

        grp = make_cyclic(3)
        with pytest.raises(ValueError, match="not a power graph"):
            conjugation_group(grp, Graph(["1", "2"], []))
        # the proper power graph of Z6 with one edge removed, one added, and
        # one swapped for another (same edge count)
        grp = make_cyclic(6)
        pg = proper_power_graph(grp)
        edges = pg.sorted_edges()
        missing = [e for e in itertools.combinations(pg.vertices, 2) if e not in edges]
        for changed in (edges[1:], edges + missing[:1], edges[1:] + missing[:1]):
            with pytest.raises(ValueError, match="not a power graph"):
                conjugation_group(grp, Graph(pg.vertices, changed))
