"""Hand-checked worked examples shared by the unit tests and the acceptance gate.

Each builder returns a HomMap whose class memberships were worked out by
hand from the definitions; the expected values live next to the builders so
a test can compare a full classification in one step.  The hand-picked
6- and 7-vertex graphs of the larger orbit sweeps live here too.
"""

from __future__ import annotations

from quograph import Graph, HomMap, Partition, quotient

EDGE_TARGET = Graph(["y", "z"], [("y", "z")])


def balanced_two_component_map() -> HomMap:
    """Eight vertices, two components, every component meets each fibre twice.

    Component {1,2,5,6} carries a square plus a chord, component {3,4,7,8} a
    path; both place two vertices in each fibre, so the map is component
    equitable, but degrees inside a fibre differ, so the fibre partition is
    not equitable.
    """
    x = Graph(
        [str(i) for i in range(1, 9)],
        [("1", "2"), ("1", "5"), ("1", "6"), ("2", "6"), ("3", "4"), ("3", "7"), ("4", "8")],
    )
    mapping = {str(i): "y" if i <= 4 else "z" for i in range(1, 9)}
    return HomMap(x, EDGE_TARGET, mapping)


BALANCED_EXPECTED = {
    "surjective": True,
    "complete": True,
    "isomorphism": False,
    "tame": False,
    "locally_surjective": True,
    "locally_injective": False,
    "locally_bijective": False,
    "locally_strong": True,
    "pseudo_covering": True,
    "equitable": False,
    "component_equitable": True,
    "orbit": None,
}


def lopsided_two_component_map() -> HomMap:
    """Six vertices, two components meeting one fibre 2 versus 1 times.

    Still a pseudo-covering, but the unequal multiplicities kill component
    equitability, and unequal fibre contacts kill equitability.
    """
    x = Graph(
        [str(i) for i in range(1, 7)],
        [("1", "2"), ("1", "4"), ("2", "5"), ("3", "6")],
    )
    mapping = {str(i): "y" if i <= 3 else "z" for i in range(1, 7)}
    return HomMap(x, EDGE_TARGET, mapping)


LOPSIDED_EXPECTED = {
    "surjective": True,
    "complete": True,
    "isomorphism": False,
    "tame": False,
    "locally_surjective": True,
    "locally_injective": False,
    "locally_bijective": False,
    "locally_strong": True,
    "pseudo_covering": True,
    "equitable": False,
    "component_equitable": False,
    "orbit": None,
}


def prism_and_cube_map() -> HomMap:
    """A triangular prism and a cube, each mapped rim-to-rim onto one edge.

    The fibre partition is equitable (every vertex sees 3 of its own fibre
    and 1 of the other), but the prism meets the first fibre 3 times and the
    cube 4 times, so the map is not component equitable.
    """
    x = Graph(
        [str(i) for i in range(1, 15)],
        [
            ("1", "2"), ("1", "3"), ("1", "8"), ("2", "3"), ("2", "9"), ("3", "10"),
            ("4", "5"), ("4", "7"), ("4", "11"), ("5", "6"), ("5", "12"),
            ("6", "7"), ("6", "13"), ("7", "14"), ("8", "9"), ("8", "10"),
            ("9", "10"), ("11", "12"), ("11", "14"), ("12", "13"), ("13", "14"),
        ],
    )
    mapping = {str(i): "y" if i <= 7 else "z" for i in range(1, 15)}
    return HomMap(x, EDGE_TARGET, mapping)


PRISM_CUBE_EXPECTED = {
    "surjective": True,
    "complete": True,
    "isomorphism": False,
    "tame": False,
    "locally_surjective": True,
    "locally_injective": False,
    "locally_bijective": False,
    "locally_strong": True,
    "pseudo_covering": True,
    "equitable": True,
    "component_equitable": False,
    "orbit": None,
}


def two_arcs_graph() -> Graph:
    """Two disjoint edges whose endpoints interleave lexicographically."""
    return Graph(["1a", "1b", "2", "3"], [("1a", "3"), ("1b", "2")])


def two_arcs_projection() -> HomMap:
    """Collapse 1a with 1b: complete, but wild and not locally surjective."""
    g = two_arcs_graph()
    p = Partition([["1a", "1b"], ["2"], ["3"]], g.vertex_set)
    return quotient(g, p).projection


TWO_ARCS_EXPECTED = {
    "surjective": True,
    "complete": True,
    "isomorphism": False,
    "tame": False,
    "locally_surjective": False,
    "locally_injective": True,
    "locally_bijective": False,
    "locally_strong": False,
    "pseudo_covering": False,
    "equitable": False,
    "component_equitable": True,
    "orbit": None,
}


def point_into_edge_map() -> HomMap:
    """One vertex landing on one end of an edge.

    Locally strong holds vacuously (the far endpoint has no preimage), but
    the neighborhood restriction is not onto, separating the two classes.
    """
    src = Graph(["1"], [])
    tgt = Graph(["a", "b"], [("a", "b")])
    return HomMap(src, tgt, {"1": "a"})


POINT_EXPECTED = {
    "surjective": False,
    "complete": False,
    "isomorphism": False,
    "tame": True,
    "locally_surjective": False,
    "locally_injective": True,
    "locally_bijective": False,
    "locally_strong": True,
    "pseudo_covering": False,
    "equitable": True,
    "component_equitable": True,
    "orbit": None,
}


GOLDEN_CASES = [
    ("balanced_two_component", balanced_two_component_map, BALANCED_EXPECTED),
    ("lopsided_two_component", lopsided_two_component_map, LOPSIDED_EXPECTED),
    ("prism_and_cube", prism_and_cube_map, PRISM_CUBE_EXPECTED),
    ("two_arcs_projection", two_arcs_projection, TWO_ARCS_EXPECTED),
    ("point_into_edge", point_into_edge_map, POINT_EXPECTED),
]


def medium_test_graphs() -> list[Graph]:
    """Hand-picked 6- and 7-vertex graphs for the larger orbit sweeps."""
    def cycle(n, prefix):
        labels = [f"{prefix}{i}" for i in range(n)]
        return Graph(labels, [(labels[i], labels[(i + 1) % n]) for i in range(n)])

    def path(n, prefix):
        labels = [f"{prefix}{i}" for i in range(n)]
        return Graph(labels, [(labels[i], labels[i + 1]) for i in range(n - 1)])

    two_triangles = Graph(
        ["a0", "a1", "a2", "b0", "b1", "b2"],
        [("a0", "a1"), ("a0", "a2"), ("a1", "a2"), ("b0", "b1"), ("b0", "b2"), ("b1", "b2")],
    )
    prism = Graph(
        ["p0", "p1", "p2", "q0", "q1", "q2"],
        [
            ("p0", "p1"), ("p1", "p2"), ("p0", "p2"),
            ("q0", "q1"), ("q1", "q2"), ("q0", "q2"),
            ("p0", "q0"), ("p1", "q1"), ("p2", "q2"),
        ],
    )
    complete_bipartite_33 = Graph(
        ["l0", "l1", "l2", "r0", "r1", "r2"],
        [(f"l{i}", f"r{j}") for i in range(3) for j in range(3)],
    )
    star6 = Graph(
        ["c", "s0", "s1", "s2", "s3", "s4"],
        [("c", f"s{i}") for i in range(5)],
    )
    square_plus_triangle = Graph(
        ["c0", "c1", "c2", "c3", "t0", "t1", "t2"],
        [
            ("c0", "c1"), ("c1", "c2"), ("c2", "c3"), ("c0", "c3"),
            ("t0", "t1"), ("t0", "t2"), ("t1", "t2"),
        ],
    )
    return [
        cycle(6, "u"),
        cycle(7, "w"),
        path(6, "x"),
        path(7, "y"),
        two_triangles,
        prism,
        complete_bipartite_33,
        star6,
        square_plus_triangle,
    ]


# Refusals, with the exact message each one must give.  Rows of a table are
# (vertices, edges or blocks, message).  GRAPH_REFUSALS are Graph's own
# checks; LOADER_REFUSALS are the shape checks the graph loader makes before
# any edge reaches Graph, so a malformed edge is named even when an earlier
# edge has an undeclared endpoint.
GRAPH_REFUSALS = [
    (["a", "b"], [["z", "y"]], "edge endpoint 'z' is not a declared vertex"),
    (["a", "b"], [["a", "b"], ["a", "z"]], "edge endpoint 'z' is not a declared vertex"),
    (["a", "b"], [["z", "z"]], "edge endpoint 'z' is not a declared vertex"),
    (["a", "b"], [["a", "a"]], "loop at 'a' supplied as a proper edge; loops are implicit"),
    (["a", "b"], [["a", "a"], ["a", "z"]], "loop at 'a' supplied as a proper edge; loops are implicit"),
    (["a", "b"], [["b", "a"], ["a", "b"]], "duplicate edge ('a', 'b')"),
    (["a", "b", "c"], [["a", "b"], ["c", "b"], ["b", "c"]], "duplicate edge ('b', 'c')"),
    (["a", "a", 3], [], "duplicate vertex label 'a'"),
    ([3, "a"], [], "vertex labels must be strings, got 3"),
    ([["a"], "a"], [], "vertex labels must be strings, got ['a']"),
    ([], [], "a graph needs at least one vertex"),
]
LOADER_REFUSALS = [
    (["a", "b"], ["ab"], "edge 'ab' is not a two-element list"),
    (["a", "b"], [["a", "b", "c"]], "edge ['a', 'b', 'c'] is not a two-element list"),
    (["a", "b"], [{"a": "b"}], "edge {'a': 'b'} is not a two-element list"),
    (["a", "b"], [["a", "z"], ["a"]], "edge ['a'] is not a two-element list"),
    (["a", "b"], [["a", 1]], "edge endpoint 1 is not a string"),
    (["a", "b"], [["a", "b"], [["a"], "b"]], "edge endpoint ['a'] is not a string"),
]
# Graph's refusals of a malformed edge, worded as the loader words them, and
# of edge lists with more than one fault, where the first fault in input
# order is the one named.  Graph, the loader and the CLI all give these.
EDGE_REFUSALS = [
    (["a", "b"], [["a", "b"], "ba"], "edge 'ba' is not a two-element list"),
    (["a"], [["a"]], "edge ['a'] is not a two-element list"),
    (["a", "b", "c"], [["a", "b", "c"]], "edge ['a', 'b', 'c'] is not a two-element list"),
    (["a", "b"], [["a", ["b"]]], "edge endpoint ['b'] is not a string"),
    (["a", "b"], [["b", 1]], "edge endpoint 1 is not a string"),
    (["a", "b"], [["a", "b"], ["b", "a"], ["a", "z"]], "duplicate edge ('a', 'b')"),
    (["a", "b"], [["a", "z"], ["b", "b"]], "edge endpoint 'z' is not a declared vertex"),
    (["a", "b", "c"], [["c", "c"], ["a", "b"], ["b", "a"]], "loop at 'c' supplied as a proper edge; loops are implicit"),
    (["a", "b"], [{"a": 1, "b": 2}], "edge {'a': 1, 'b': 2} is not a two-element list"),
    (["a", "b"], [{"a": "b", "b": "a"}, ["a", "z"]], "edge {'a': 'b', 'b': 'a'} is not a two-element list"),
]
PARTITION_REFUSALS = [
    (["a"], [["a"], []], "empty cell in partition"),
    (["a"], [["z"], []], "cell member 'z' is outside the universe"),
    (["a"], [["a", "z"]], "cell member 'z' is outside the universe"),
    (["a", "b"], [["a", "b"], ["b"]], "vertex 'b' appears in two cells"),
    (["b"], [["b"], ["b", "z"]], "vertex 'b' appears in two cells"),
    (["a", "b", "c"], [["c"]], "vertex 'a' is not covered by any cell"),
    (["a", "b", "c", "d"], [["a"], ["c"]], "vertex 'b' is not covered by any cell"),
]
# Partition's refusals of a string or dict block, worded as the loader words
# them: set() would take "ab" or {"a": 1, "b": 2} as the block {a, b}.
BLOCK_REFUSALS = [  # (vertices, blocks, message)
    (["a", "b"], ["ab"], "block 'ab' is not a list"),
    (["a", "b"], [["a"], {"b": 1}], "block {'b': 1} is not a list"),
    (["a", "b"], [{"a": 1, "b": 2}], "block {'a': 1, 'b': 2} is not a list"),
    (["a", "b"], [["z"], "ab"], "block 'ab' is not a list"),
]
MAP_REFUSALS = [  # (source vertices, target vertices, map, message)
    (["a", "b"], ["x"], {"a": "x"}, "map is not total: no image for 'b'"),
    (["a", "b", "c"], ["x"], {"c": "x", "q": "x"}, "map is not total: no image for 'a'"),
    (["a"], ["x"], {"a": "x", "q": "x"}, "map defined on unknown vertex 'q'"),
    (["a"], ["x"], {"q": "x", "a": "w"}, "map defined on unknown vertex 'q'"),
    (["a", "b", "c"], ["x"], {"a": "x", "b": "w", "c": "v"}, "image vertex 'w' is not in the target"),
]
# The loaders' own shape checks, run before a Partition, PermGroup or
# FiniteGroup is built; the first fault in document order is the one named.
# Keys are in sorted order, so a document keeps its order through a file.
PARTITION_LOADER_REFUSALS = [  # (vertices, blocks, message)
    (["a", "b"], ["ab"], "block 'ab' is not a list"),
    (["a", "b"], [["a"], {"b": 1}], "block {'b': 1} is not a list"),
    (["a", "b"], [["a", 1], "b"], "block member 1 is not a string"),
    (["a", "b"], [["a"], ["b", ["a"]], 3], "block member ['a'] is not a string"),
    (["a", "b"], [["z", None]], "block member None is not a string"),
    (["a"], [[], 7], "block 7 is not a list"),
]
GROUP_LOADER_REFUSALS = [  # (vertices, generators, message)
    (["a", "b"], ["x"], "generator 'x' is not an object"),
    (["a", "b"], [{"a": "a", "b": "b"}, [["a", "b"]]], "generator [['a', 'b']] is not an object"),
    (["a", "b"], [{"a": "b", "b": 1}], "generator image 1 is not a string"),
    (["a", "b"], [{"a": "b", "b": ["a"]}, "x"], "generator image ['a'] is not a string"),
    (["a", "b"], [{"a": "a"}, 5], "generator 5 is not an object"),
    (["a", "b"], [{"a": "a"}], "bad generator: generator domain does not match the universe"),
    (["a", "b"], [{"a": "a", "b": "a"}], "bad generator: mapping is not a bijection of its domain"),
]
CAYLEY_LOADER_REFUSALS = [  # (document, message)
    ({"identity": "e", "table": {}}, 'group table document needs "elements"'),
    ({"elements": "e", "identity": "e", "table": {}}, '"elements" must be a list'),
    ({"elements": ["e", 1], "identity": "e", "table": {"e": "x"}}, "group element 1 is not a string"),
    ({"elements": ["e"], "identity": "e", "table": {"e": ["e"]}}, "table row ['e'] is not an object"),
    ({"elements": ["e", "a"], "identity": "e", "table": {"a": "x", "e": {"e": 1}}}, "table row 'x' is not an object"),
    ({"elements": ["e"], "identity": "e", "table": {"e": {"e": 1}}}, "product 1 is not a string"),
    (
        {"elements": ["e", "a"], "identity": "e", "table": {"a": {"a": ["a"], "e": "a"}, "e": "x"}},
        "product ['a'] is not a string",
    ),
    ({"elements": ["e"], "identity": "e", "table": {}}, "Cayley table has no row for 'e'"),
]
# FiniteGroup's own refusals, one per check, through a well-formed document;
# the first fault in element order is the one named.
CAYLEY_TABLE_REFUSALS = [  # (document, message)
    ({"elements": ["e", "a", "e"], "identity": "e", "table": {}}, "duplicate group element"),
    ({"elements": [], "identity": "e", "table": {}}, "a group needs at least one element"),
    ({"elements": [str(i) for i in range(121)], "identity": "0", "table": {}}, "group order 121 exceeds the cap 120"),
    ({"elements": ["e", "a"], "identity": "x", "table": {}}, "identity 'x' is not an element"),
    ({"elements": ["e", "a"], "identity": "e", "table": {"e": {"a": "a", "e": "e"}}}, "Cayley table has no row for 'a'"),
    (  # and 'a'*'a' is not an element
        {"elements": ["e", "a"], "identity": "e", "table": {"a": {"a": "x"}, "e": {"a": "a", "e": "e"}}},
        "Cayley table misses the product 'a'*'e'",
    ),
    (  # and 'a'*'a' is missing
        {"elements": ["e", "a"], "identity": "e", "table": {"a": {"e": "x"}, "e": {"a": "a", "e": "e"}}},
        "product 'a'*'e' = 'x' is not an element",
    ),
    (  # Z_3 with 2*0 = 1
        {
            "elements": ["0", "1", "2"],
            "identity": "0",
            "table": {"0": {"0": "0", "1": "1", "2": "2"}, "1": {"0": "1", "1": "2", "2": "0"}, "2": {"0": "1", "1": "0", "2": "1"}},
        },
        "'0' does not act as the identity on '2'",
    ),
    (  # x*y = x
        {"elements": ["0", "1"], "identity": "0", "table": {"0": {"0": "0", "1": "1"}, "1": {"0": "1", "1": "1"}}},
        "element '1' has no inverse",
    ),
    (  # Z_3 with 1*1 = 1*2 = 2*1 = 0: (1*1)*2 = 2 but 1*(1*2) = 1
        {
            "elements": ["0", "1", "2"],
            "identity": "0",
            "table": {"0": {"0": "0", "1": "1", "2": "2"}, "1": {"0": "1", "1": "0", "2": "0"}, "2": {"0": "2", "1": "0", "2": "1"}},
        },
        "associativity fails on ('1', '1', '2')",
    ),
]
