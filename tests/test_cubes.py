import itertools
import textwrap
import types
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpcubes.groups import GraphProduct, LabeledGraph, parse_graph
from gpcubes import cubes
from gpcubes.cubes import (
    CosetVertex,
    Cube,
    NotInteriorError,
    SoundnessError,
    ball_to_json,
    ball_vertices,
    build_ball,
    check_link_models,
    cliques,
    coset_elements,
    coset_vertex,
    fundamental_domain_check,
    stabilizer,
    std_subset,
    vertex_link,
)

from gpcubes.morse import morse_report
from gpcubes.special import check_special

from conftest import (
    GRAPH_TEXTS,
    SimplicialComplex,
    clique_at,
    fresh_python,
    hat_base,
    hat_names,
    is_flag,
    labelled_graphs,
    link_complex,
    maximal_faces,
    oracle_ball,
    vertex_of,
)


def hat_graph(graph):
    """The doubled graph derived pair by pair from the hat names, kept as
    the reference for GraphProduct.doubled: edges pulled back from the base
    graph, the two signed copies of an infinite generator never adjacent,
    each vertex labelled with the size of its standard subset."""
    names = hat_names(graph)
    orders = {name: graph.orders.get(name, 2) for name in names}
    edges = []
    for a, b in itertools.combinations(names, 2):
        sa, _ = hat_base(graph, a)
        sb, _ = hat_base(graph, b)
        if sa != sb and graph.adjacent(sa, sb):
            edges.append((a, b))
    return LabeledGraph(names, orders, edges)


def poset_leq(a, b):
    """Inclusion order on coset vertices."""
    return a.elements <= b.elements


def flag_complex(graph):
    """The flag complex of a LabeledGraph: faces are its cliques."""
    return SimplicialComplex(graph.vertices, cliques(graph))


def skeleton_edges(faces):
    """The faces of a face set with two vertices."""
    return [f for f in faces if len(f) == 2]


@pytest.fixture(scope="module")
def balls(graphs):
    radii = {
        "single_inf": 3,
        "single_z2": 3,
        "single_z3": 3,
        "free2": 3,
        "z_squared": 2,
        "inf_dihedral": 3,
        "pentagon": 2,
        "mixed": 2,
    }
    return {name: build_ball(graphs[name], r) for name, r in radii.items()}


# -- doubled graph and cliques --------------------------------------------------


def check_doubled(graph):
    d, expected = GraphProduct(graph).doubled, hat_graph(graph)
    assert d.to_text() == expected.to_text()
    assert d.vertices == expected.vertices
    assert d.orders == expected.orders
    assert d.edges == expected.edges


class TestHatGraph:
    def test_infinite_generator_splits(self, products):
        d = products["single_inf"].doubled
        assert d.vertices == ("a+", "a-")
        assert not d.adjacent("a+", "a-")
        assert d.order("a+") == 2

    def test_finite_generator_kept(self, products):
        d = products["single_z3"].doubled
        assert d.vertices == ("a",)
        assert d.order("a") == 3

    def test_commuting_pair_gives_complete_bipartite(self, products):
        d = products["z_squared"].doubled
        assert set(d.vertices) == {"a+", "a-", "b+", "b-"}
        for x in ("a+", "a-"):
            for y in ("b+", "b-"):
                assert d.adjacent(x, y)
        assert not d.adjacent("a+", "a-")
        assert not d.adjacent("b+", "b-")

    def test_mixed(self, products):
        d = products["mixed"].doubled
        assert set(d.vertices) == {"a+", "a-", "u"}
        assert d.adjacent("a+", "u") and d.adjacent("a-", "u")

    def test_name_collision_rejected(self):
        with pytest.raises(ValueError):
            GraphProduct(parse_graph("s:inf\ns+:2\n"))

    def test_matches_the_pairwise_derivation_on_the_fixtures(self, graphs):
        for g in graphs.values():
            check_doubled(g)

    @given(labelled_graphs(max_vertices=6, orders=(2, 3, 4, None)))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_matches_the_pairwise_derivation_on_random_graphs(self, graph):
        check_doubled(graph)


class TestCliques:
    def test_complete_bipartite(self, products):
        cs = cliques(products["z_squared"].doubled)
        by_size = {k: sum(1 for c in cs if len(c) == k) for k in range(3)}
        assert by_size == {0: 1, 1: 4, 2: 4}

    def test_pentagon(self, products):
        cs = cliques(products["pentagon"].doubled)
        assert len(cs) == 1 + 5 + 5
        assert max(len(c) for c in cs) == 2

    def test_sorted_by_size(self, products):
        cs = cliques(products["mixed"].doubled)
        assert [len(c) for c in cs] == sorted(len(c) for c in cs)

    def test_size_bound_keeps_the_small_cliques(self, graphs):
        for g in graphs.values():
            d = GraphProduct(g).doubled
            for most in range(4):
                assert cliques(d, most) == [c for c in cliques(d) if len(c) <= most]

    def test_ball_lists_cliques_of_at_most_radius_plus_one_letters(self):
        # Z^6: 3^6 = 729 cliques of the doubled graph, 1 + 12 + 15 * 4 of
        # them with at most two letters
        names = "abcdef"
        z6 = LabeledGraph(names, dict.fromkeys(names), itertools.combinations(names, 2))
        assert len(build_ball(z6, 1).cliques) == 73

    @staticmethod
    def _check_against_brute_force(graph):
        cs = cliques(graph)
        assert len(cs) == len(set(cs))
        assert set(cs) == {
            frozenset(sub)
            for k in range(len(graph.vertices) + 1)
            for sub in itertools.combinations(graph.vertices, k)
            if all(graph.adjacent(a, b) for a, b in itertools.combinations(sub, 2))
        }

    def test_fixtures_match_brute_force(self, graphs):
        for g in graphs.values():
            self._check_against_brute_force(g)
            self._check_against_brute_force(GraphProduct(g).doubled)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_random_graphs_match_brute_force(self, data):
        names = ["v%d" % i for i in range(data.draw(st.integers(0, 6)))]
        edges = [
            pair for pair in itertools.combinations(names, 2) if data.draw(st.booleans())
        ]
        self._check_against_brute_force(LabeledGraph(names, dict.fromkeys(names, 2), edges))


def verdicts(ball):
    """What a certificate reads of a ball: its JSON, the link verdicts, and
    the Morse and specialness reports."""
    links = [check_link_models(ball, v) for v in ball.interior_vertices]
    return ball_to_json(ball), links, morse_report(ball), check_special(ball)


def unbounded_ball(graph, radius):
    """The ball built over every clique of the doubled graph."""
    with mock.patch("gpcubes.cubes.cliques", lambda graph, most=None: cliques(graph)):
        return build_ball(graph, radius)


class TestCliqueBound:
    @pytest.mark.parametrize("radius", [0, 1, 2])
    def test_fixtures_certify_as_with_every_clique(self, graphs, radius):
        for g in graphs.values():
            assert verdicts(build_ball(g, radius)) == verdicts(unbounded_ball(g, radius))

    @given(labelled_graphs(max_vertices=4, orders=(2, 3, None)), st.integers(0, 2))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_random_graphs_certify_as_with_every_clique(self, graph, radius):
        ball, full = build_ball(graph, radius), unbounded_ball(graph, radius)
        assert len(full.cliques) >= len(ball.cliques)
        assert verdicts(ball) == verdicts(full)


# -- the vertex scan ----------------------------------------------------------------


def check_vertex_scan(graph, radius):
    """The ball against the unbounded scan: the same (rep, clique, elements)
    and interior flags, and max length |rep| + |clique| at every vertex."""
    ball, expected = build_ball(graph, radius), oracle_ball(graph, radius)
    found = {(v.rep, v.clique, v.elements): ball.is_interior(v) for v in ball.vertices}
    assert len(found) == len(ball.vertices)
    assert found == expected
    for rep, clique, elements in expected:
        assert max(x.length for x in elements) == rep.length + len(clique)


class TestVertexScan:
    @pytest.mark.parametrize("radius", [0, 1, 2, 3, 4])
    def test_fixtures_match_the_unbounded_scan(self, graphs, radius):
        for g in graphs.values():
            check_vertex_scan(g, radius)

    @given(labelled_graphs(max_vertices=5, orders=(2, 3, 4, None)), st.integers(0, 3))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_random_graphs_match_the_unbounded_scan(self, graph, radius):
        check_vertex_scan(graph, radius)

    @pytest.mark.parametrize("radius", [0, 1, 2, 3])
    def test_one_coset_per_kept_pair(self, graphs, radius, monkeypatch):
        formed = []

        def counting(gp, g, clique):
            formed.append((g, clique))
            return coset_elements(gp, g, clique)

        monkeypatch.setattr(cubes, "coset_elements", counting)
        for g in graphs.values():
            gp = GraphProduct(g)
            elements = gp.enumerate_ball(radius)
            cs = cliques(gp.doubled, radius + 1)
            formed.clear()
            vertices = ball_vertices(gp, elements, radius, cs)
            kept = {(x, c) for x in elements for c in cs if x.length + len(c) <= radius}
            assert len(formed) == len(set(formed)) >= len(vertices)
            assert set(formed) <= kept

    def test_the_length_identity_is_checked(self, graphs, monkeypatch):
        # a vertex whose clique is read too small breaks |rep| + |C|
        def forgetful(gp, g, clique, elements):
            v = coset_vertex(gp, g, clique, elements)
            return CosetVertex(v.rep, frozenset(), v.elements)

        monkeypatch.setattr(cubes, "coset_vertex", forgetful)
        assert len(build_ball(graphs["single_inf"], 0).vertices) == 1
        with pytest.raises(SoundnessError):
            build_ball(graphs["single_inf"], 1)

    def test_given_elements_are_not_formed_again(self, products, monkeypatch):
        gp = products["z_squared"]
        c = frozenset(["a+", "b-"])
        elements = coset_elements(gp, gp.generator("a"), c)
        monkeypatch.setattr(cubes, "coset_elements", None)
        v = coset_vertex(gp, gp.generator("a"), c, elements)
        assert v.elements is elements
        assert (str(v.rep), v.clique) == ("a", c)


class TestStdSubset:
    def test_infinite_letter(self, products):
        gp = products["single_inf"]
        assert std_subset(gp, frozenset(["a+"])) == {gp.identity, gp.generator("a")}
        assert std_subset(gp, frozenset(["a-"])) == {gp.identity, gp.generator("a", -1)}

    def test_finite_letter_full_cyclic_group(self, products):
        gp = products["single_z3"]
        assert std_subset(gp, frozenset(["a"])) == {
            gp.identity,
            gp.generator("a"),
            gp.generator("a", 2),
        }

    def test_product_over_clique(self, products):
        gp = products["z_squared"]
        sub = std_subset(gp, frozenset(["a+", "b-"]))
        assert len(sub) == 4
        assert gp.normalize((("a", 1), ("b", -1))) in sub

    def test_empty_clique(self, products):
        gp = products["free2"]
        assert std_subset(gp, frozenset()) == {gp.identity}


class TestCosetElements:
    def test_matches_product_of_standard_subsets(self, products):
        # reference: g times every product of one member per hat letter
        for gp in products.values():
            for x in gp.enumerate_ball(2):
                for c in cliques(gp.doubled):
                    expected = {
                        gp.normalize(x.letters + tuple(l for h in hs for l in h.letters))
                        for hs in itertools.product(*(gp.hat_subsets[hat] for hat in c))
                    }
                    assert coset_elements(gp, x, c) == expected


# -- coset vertices --------------------------------------------------------------


def standardized_clique(gp, elements, at):
    """Reference read-off: translate the coset by at^-1 and test every hat
    generator for membership."""
    inv = gp.invert(at)
    standardized = {gp.multiply(inv, x) for x in elements}
    return frozenset(
        hat
        for hat in hat_names(gp.graph)
        if gp.generator(*hat_base(gp.graph, hat)) in standardized
    )


class TestCliqueAt:
    def test_matches_reference_at_every_member(self, graphs):
        for g in graphs.values():
            b = build_ball(g, 2)
            for v in b.vertices:
                assert clique_at(b.gp, v.elements, v.rep) == v.clique
                for at in v.elements:
                    assert clique_at(b.gp, v.elements, at) == standardized_clique(
                        b.gp, v.elements, at
                    )


class TestCosetVertex:
    def test_translation_invariant(self, products):
        gp = products["z_squared"]
        c = frozenset(["a+"])
        v = vertex_of(gp, gp.identity, c)
        w = vertex_of(gp, gp.generator("a"), frozenset(["a-"]))
        # {1, a} = 1*<<a+>> = a*<<a->> is one vertex
        assert v == w
        assert hash(v) == hash(w)
        assert v.clique == frozenset(["a+"])  # canonical at the least rep

    def test_rep_is_least_element(self, products):
        gp = products["single_inf"]
        v = vertex_of(gp, gp.generator("a", 2), frozenset(["a-"]))
        assert v.rep == gp.generator("a")
        assert v.max_length == 2

    def test_finite_coset(self, products):
        gp = products["mixed"]
        v = vertex_of(gp, gp.generator("u", 2), frozenset(["u"]))
        assert v.rep.is_identity
        assert len(v.elements) == 3

    def test_poset_order(self, products):
        gp = products["z_squared"]
        bottom = vertex_of(gp, gp.identity, frozenset())
        mid = vertex_of(gp, gp.identity, frozenset(["a+"]))
        top = vertex_of(gp, gp.identity, frozenset(["a+", "b+"]))
        assert poset_leq(bottom, mid) and poset_leq(mid, top)
        assert not poset_leq(top, mid)
        other = vertex_of(gp, gp.identity, frozenset(["b-"]))
        assert not poset_leq(other, top)


# -- simplicial complexes ---------------------------------------------------------


class TestSimplicialComplex:
    def test_downward_closure(self):
        k = SimplicialComplex("abc", [frozenset("abc")])
        assert k.has_face("ab") and k.has_face("c") and k.has_face("")
        assert maximal_faces(k.faces) == [frozenset("abc")]

    def test_flag(self):
        full = SimplicialComplex("abc", [frozenset("abc")])
        hollow = SimplicialComplex(
            "abc", [frozenset("ab"), frozenset("bc"), frozenset("ac")]
        )
        cycle4 = SimplicialComplex(
            "abcd",
            [frozenset("ab"), frozenset("bc"), frozenset("cd"), frozenset("ad")],
        )
        assert is_flag(full)
        assert not is_flag(hollow)
        assert is_flag(cycle4)

    def test_flag_complex_of_graph(self, graphs):
        k = flag_complex(GraphProduct(graphs["z_squared"]).doubled)
        assert is_flag(k)
        assert len(k.faces) == 9  # exactly the cliques, the empty face included

    @given(st.data())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_closure_matches_all_subsets(self, data):
        # the oracle: every subset of every given face, by combinations
        faces = data.draw(
            st.lists(st.frozensets(st.integers(0, 5), max_size=6), max_size=6)
        )
        expected = {frozenset()}
        for f in faces:
            for k in range(len(f) + 1):
                expected.update(map(frozenset, itertools.combinations(f, k)))
        assert SimplicialComplex(range(6), faces).faces == expected
        # closing a closed family again changes nothing
        assert SimplicialComplex(range(6), expected).faces == expected


# -- ball construction ------------------------------------------------------------


class TestCubeBall:
    @pytest.mark.parametrize(
        "name,counts",
        [
            ("single_inf", (13, 12, 0)),
            ("single_z2", (3, 2, 0)),
            ("single_z3", (4, 3, 0)),
            ("free2", (105, 104, 0)),
            ("z_squared", (33, 48, 16)),
            ("inf_dihedral", (13, 12, 0)),
            ("pentagon", (51, 70, 20)),
        ],
    )
    def test_census(self, balls, name, counts):
        b = balls[name]
        assert (len(b.vertices), len(b.edges), len(b.squares)) == counts

    def test_interiority_is_found_on_first_use(self, graphs):
        ball = build_ball(graphs["z_squared"], 2)
        assert "_interior" not in vars(ball)
        assert ball.is_interior(ball.vertex({ball.gp.identity}))
        assert "_interior" in vars(ball)

    def test_cubes_are_made_once(self, balls):
        # each (top, sub, h) of the build gives its own (bottom, top) pair
        for b in balls.values():
            pairs = [(c.bottom, c.top) for c in b.cubes]
            assert len(set(pairs)) == len(pairs)

    def test_hashes_are_distinct(self):
        # CPython hashes -1 like -2: hashing the raw letters made a^-1 and
        # a^-2 collide, and their hashes cancel in that of the vertex
        # {a^-1, a^-2}; on this ball 313 elements had 234 hashes
        ball = build_ball(parse_graph("a:inf\nb:inf\nc:inf\nedge a b\nedge b c\n"), 4)
        elements = ball.gp.enumerate_ball(4)
        assert len({hash(g) for g in elements}) == len(elements) == 313
        assert len({hash(v) for v in ball.vertices}) == len(ball.vertices) == 913

    def test_real_line_is_a_path(self, balls):
        b = balls["single_inf"]
        degree = {}
        for e in b.edges:
            for v in (e.bottom, e.top):
                degree[v] = degree.get(v, 0) + 1
        # interior vertices of the tiled line all have degree two
        assert all(degree[v] == 2 for v in b.interior_vertices)
        assert len(b.edges) == len(b.vertices) - 1  # a tree, in fact a path

    def test_four_squares_at_base_point(self, balls):
        b = balls["z_squared"]
        base = b.vertex({b.gp.identity})
        assert sum(1 for c in b.cubes_containing(base) if c.dim == 2) == 4

    def test_cubes_are_boolean_intervals(self, balls):
        for name in ("z_squared", "mixed", "pentagon"):
            b = balls[name]
            for cube in b.cubes:
                verts = b.cube_vertices(cube)
                assert len(verts) == 2 ** cube.dim
                assert all(
                    poset_leq(cube.bottom, v) and poset_leq(v, cube.top) for v in verts
                )

    def test_edge_count_matches_covers(self, balls):
        for b in balls.values():
            covers = sum(len(b.covers_up(v)) for v in b.vertices)
            # covers_up only records pairs whose top lies in the ball, which
            # is exactly the edge census
            assert covers == len(b.edges)

    def test_interior_base_point(self, balls):
        for b in balls.values():
            base = b.vertex({b.gp.identity})
            assert b.is_interior(base)

    def test_boundary_not_interior(self, balls):
        b = balls["single_inf"]
        gp = b.gp
        far = b.vertex({gp.normalize((("a", 3),))})
        assert not b.is_interior(far)
        with pytest.raises(NotInteriorError):
            vertex_link(b, far)

    def test_local_finiteness(self, balls):
        # an interior singleton has one cover per hat letter
        for name in ("z_squared", "mixed", "pentagon"):
            b = balls[name]
            n_hats = len(b.delta.vertices)
            for v in b.interior_vertices:
                if not v.clique:
                    assert len(b.covers_up(v)) == n_hats

    def test_covers_down_class_sizes(self, balls):
        b = balls["mixed"]
        for v in b.vertices:
            for hat, members in b.covers_down(v).items():
                assert len(members) == len(b.gp.hat_subsets[hat])
                assert all(poset_leq(u, v) for u in members)


class TestCubeValue:
    def test_repr(self, balls):
        cube = balls["single_inf"].cubes[0]
        assert repr(cube) == (
            "Cube(bottom=CosetVertex(1|{}), top=CosetVertex(1|{a+}), dim=1)"
        )

    def test_no_instance_dict(self, balls):
        assert not hasattr(balls["single_inf"].cubes[0], "__dict__")

    def test_cubes_compare_by_identity(self, balls):
        # a ball holds one Cube per cube, so identity is equality
        assert "__eq__" not in vars(Cube) and "__hash__" not in vars(Cube)
        edge = balls["z_squared"].edges[0]
        assert Cube(edge.bottom, edge.top, 1) != edge

    def test_foreign_cube_raises_key_error(self, balls):
        ball = balls["z_squared"]
        for cube in ball.cubes:
            with pytest.raises(KeyError):
                ball.cube_vertices(Cube(cube.bottom, cube.top, cube.dim))


# -- links -------------------------------------------------------------------------


class TestLinks:
    def test_real_line_base_point(self, balls):
        b = balls["single_inf"]
        faces, up_hats, down_classes = vertex_link(b, b.vertex({b.gp.identity}))
        # two isolated points: one per direction
        assert len(up_hats) == 2 and not down_classes
        assert sorted(map(len, maximal_faces(faces))) == [1, 1]
        assert set(up_hats.values()) == {"a+", "a-"}

    def test_real_line_edge_midpoint(self, balls):
        b = balls["single_inf"]
        gp = b.gp
        _, up_hats, down_classes = vertex_link(b, b.vertex({gp.identity, gp.generator("a")}))
        assert not up_hats and list(map(len, down_classes.values())) == [2]

    def test_torus_base_point_is_four_cycle(self, balls):
        b = balls["z_squared"]
        faces, up_hats, _ = vertex_link(b, b.vertex({b.gp.identity}))
        assert len(up_hats) == 4
        assert len(skeleton_edges(faces)) == 4
        assert sorted(map(len, maximal_faces(faces))) == [2, 2, 2, 2]

    def test_links_are_flag(self, balls):
        for name in ("single_inf", "z_squared", "mixed", "pentagon", "inf_dihedral"):
            b = balls[name]
            for v in b.interior_vertices:
                assert is_flag(link_complex(b, v))

    def test_link_models(self, balls):
        for name in ("single_inf", "z_squared", "mixed", "pentagon", "free2"):
            b = balls[name]
            for v in b.interior_vertices:
                assert check_link_models(b, v)


def check_faces_are_cubes(ball):
    """Each sub-interval of each cube is a cube of the ball, and each link's
    face set is closed under subsets: what vertex_link reads without a
    closure walk."""
    pairs = {(c.bottom, c.top) for c in ball.cubes}
    for cube in ball.cubes:
        for lo, hi in itertools.combinations(ball.cube_vertices(cube), 2):
            if lo.elements < hi.elements:
                assert (lo, hi) in pairs
    for v in ball.interior_vertices:
        faces = vertex_link(ball, v)[0]
        assert SimplicialComplex((), faces).faces == faces


@pytest.mark.parametrize("radius", range(5))
@pytest.mark.parametrize("name", sorted(GRAPH_TEXTS))
def test_faces_of_cubes_are_cubes(graphs, name, radius):
    check_faces_are_cubes(build_ball(graphs[name], radius))


@given(labelled_graphs(), st.integers(0, 2))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_faces_of_cubes_are_cubes_on_random_graphs(graph, radius):
    check_faces_are_cubes(build_ball(graph, radius))


# -- group action -------------------------------------------------------------------


class TestSoundnessChecks:
    def test_raise_under_python_O(self):
        # assert statements vanish under -O; the soundness checks must not
        code = textwrap.dedent(
            """
            import sys
            from gpcubes.cubes import Cube, SoundnessError, build_ball
            from gpcubes.groups import parse_graph
            if sys.flags.optimize != 1:
                sys.exit(3)
            ball = build_ball(parse_graph("a:inf\\nb:inf\\nedge a b\\n"), 1)
            edge = ball.edges[0]
            try:
                ball._interval(Cube(edge.bottom, edge.top, 2))
            except SoundnessError:
                sys.exit(0)
            sys.exit(1)
            """
        )
        proc = fresh_python(code, "-O")
        assert proc.returncode == 0, proc.stderr


class TestStabilizer:
    @staticmethod
    def _vertex(balls, name, clique):
        b = balls[name]
        return b, b.vertex(std_subset(b.gp, frozenset(clique)))

    def test_base_point_trivial(self, balls):
        b, v = self._vertex(balls, "mixed", [])
        assert stabilizer(b, v) == {b.gp.identity}

    def test_finite_coset_fixed_by_cyclic_subgroup(self, balls):
        b, v = self._vertex(balls, "mixed", ["u"])
        gp = b.gp
        assert stabilizer(b, v) == {gp.identity, gp.generator("u"), gp.generator("u", 2)}

    def test_infinite_edge_coset_trivial_stabilizer(self, balls):
        # {1, a} for a of infinite order: nothing nontrivial permutes it
        b, v = self._vertex(balls, "single_inf", ["a+"])
        assert stabilizer(b, v) == {b.gp.identity}

    def test_stabilizers_fix_their_vertex(self, balls):
        b = balls["mixed"]
        gp = b.gp
        for v in b.vertices:
            for h in stabilizer(b, v):
                assert frozenset(gp.multiply(h, x) for x in v.elements) == v.elements


def standardized_domain_check(ball):
    """The fundamental-domain check by standardisation: every element of a
    vertex multiplied by rep^-1, and the set compared with <<C>>.  The
    oracle for fundamental_domain_check's translated base cosets."""
    gp = ball.gp
    census = {}
    ok = True
    for v in ball.vertices:
        rep_inv = gp.invert(v.rep)
        if frozenset(gp.multiply(rep_inv, x) for x in v.elements) != std_subset(gp, v.clique):
            ok = False
        key = ",".join(sorted(v.clique, key=ball.delta.index.__getitem__))
        census[key] = census.get(key, 0) + 1
    orbit_keys = {frozenset(gp.base_of[hat] for hat in v.clique) for v in ball.vertices}
    return {"ok": ok, "census": census, "orbit_classes": len(orbit_keys)}


class TestFundamentalDomain:
    def test_every_vertex_is_a_translate(self, balls):
        for b in balls.values():
            assert fundamental_domain_check(b)["ok"]

    def test_translates_match_the_standardised_sets(self, balls):
        for name, b in balls.items():
            gp = b.gp
            for v in b.vertices:
                base = std_subset(gp, v.clique)
                rep_inv = gp.invert(v.rep)
                assert frozenset(gp.multiply(v.rep, c) for c in base) == v.elements, (name, v)
                assert frozenset(gp.multiply(rep_inv, x) for x in v.elements) == base, (name, v)
            assert fundamental_domain_check(b) == standardized_domain_check(b), name

    def test_a_swapped_element_set_is_not_a_translate(self, balls):
        # one vertex given the element set of another coset of its clique:
        # its rep no longer translates <<C>> onto it
        for name, b in balls.items():
            by_clique = {}
            for v in b.vertices:
                by_clique.setdefault(v.clique, []).append(v)
            v, w = next(vs[:2] for vs in by_clique.values() if len(vs) > 1)
            fake = CosetVertex(v.rep, v.clique, w.elements)
            vertices = [fake if u is v else u for u in b.vertices]
            corrupt = types.SimpleNamespace(gp=b.gp, delta=b.delta, vertices=vertices)
            report = fundamental_domain_check(corrupt)
            assert not report["ok"], name
            assert report == standardized_domain_check(corrupt), name

    def test_orbit_census(self, balls):
        report = fundamental_domain_check(balls["z_squared"])
        # orbits: empty clique, a-edges, b-edges, squares
        assert report["orbit_classes"] == 4
        assert report["census"][""] == 13
