import itertools
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpcubes.groups import LabeledGraph, hat_base, hat_names, parse_graph
from gpcubes.cubes import (
    CosetVertex,
    Cube,
    NotInteriorError,
    SimplicialComplex,
    build_ball,
    check_link_models,
    cliques,
    coset_elements,
    coset_vertex,
    fundamental_domain_check,
    hat_graph,
    is_flag,
    stabilizer,
    std_subset,
    vertex_link,
)

from conftest import clique_at, fresh_python, maximal_faces


def poset_leq(a, b):
    """Inclusion order on coset vertices."""
    return a.elements <= b.elements


def flag_complex(graph):
    """The flag complex of a LabeledGraph: faces are its cliques."""
    return SimplicialComplex(graph.vertices, cliques(graph))


def skeleton_edges(complex_):
    """The faces of a SimplicialComplex with two vertices."""
    return [f for f in complex_.faces if len(f) == 2]


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


class TestHatGraph:
    def test_infinite_generator_splits(self, graphs):
        d = hat_graph(graphs["single_inf"])
        assert d.vertices == ("a+", "a-")
        assert not d.adjacent("a+", "a-")
        assert d.order("a+") == 2

    def test_finite_generator_kept(self, graphs):
        d = hat_graph(graphs["single_z3"])
        assert d.vertices == ("a",)
        assert d.order("a") == 3

    def test_commuting_pair_gives_complete_bipartite(self, graphs):
        d = hat_graph(graphs["z_squared"])
        assert set(d.vertices) == {"a+", "a-", "b+", "b-"}
        for x in ("a+", "a-"):
            for y in ("b+", "b-"):
                assert d.adjacent(x, y)
        assert not d.adjacent("a+", "a-")
        assert not d.adjacent("b+", "b-")

    def test_mixed(self, graphs):
        d = hat_graph(graphs["mixed"])
        assert set(d.vertices) == {"a+", "a-", "u"}
        assert d.adjacent("a+", "u") and d.adjacent("a-", "u")

    def test_name_collision_rejected(self):
        with pytest.raises(ValueError):
            hat_graph(parse_graph("s:inf\ns+:2\n"))


class TestCliques:
    def test_complete_bipartite(self, graphs):
        cs = cliques(hat_graph(graphs["z_squared"]))
        by_size = {k: sum(1 for c in cs if len(c) == k) for k in range(3)}
        assert by_size == {0: 1, 1: 4, 2: 4}

    def test_pentagon(self, graphs):
        cs = cliques(hat_graph(graphs["pentagon"]))
        assert len(cs) == 1 + 5 + 5
        assert max(len(c) for c in cs) == 2

    def test_sorted_by_size(self, graphs):
        cs = cliques(hat_graph(graphs["mixed"]))
        assert [len(c) for c in cs] == sorted(len(c) for c in cs)

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
            self._check_against_brute_force(hat_graph(g))

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_random_graphs_match_brute_force(self, data):
        names = ["v%d" % i for i in range(data.draw(st.integers(0, 6)))]
        edges = [
            pair for pair in itertools.combinations(names, 2) if data.draw(st.booleans())
        ]
        self._check_against_brute_force(LabeledGraph(names, dict.fromkeys(names, 2), edges))


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
                for c in cliques(hat_graph(gp.graph)):
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
        v = coset_vertex(gp, gp.identity, c)
        w = coset_vertex(gp, gp.generator("a"), frozenset(["a-"]))
        # {1, a} = 1*<<a+>> = a*<<a->> is one vertex
        assert v == w
        assert hash(v) == hash(w)
        assert v.clique == frozenset(["a+"])  # canonical at the least rep

    def test_rep_is_least_element(self, products):
        gp = products["single_inf"]
        v = coset_vertex(gp, gp.generator("a", 2), frozenset(["a-"]))
        assert v.rep == gp.generator("a")
        assert v.max_length == 2

    def test_finite_coset(self, products):
        gp = products["mixed"]
        v = coset_vertex(gp, gp.generator("u", 2), frozenset(["u"]))
        assert v.rep.is_identity
        assert len(v.elements) == 3

    def test_poset_order(self, products):
        gp = products["z_squared"]
        bottom = coset_vertex(gp, gp.identity, frozenset())
        mid = coset_vertex(gp, gp.identity, frozenset(["a+"]))
        top = coset_vertex(gp, gp.identity, frozenset(["a+", "b+"]))
        assert poset_leq(bottom, mid) and poset_leq(mid, top)
        assert not poset_leq(top, mid)
        other = coset_vertex(gp, gp.identity, frozenset(["b-"]))
        assert not poset_leq(other, top)


# -- simplicial complexes ---------------------------------------------------------


class TestSimplicialComplex:
    def test_downward_closure(self):
        k = SimplicialComplex("abc", [frozenset("abc")])
        assert k.has_face("ab") and k.has_face("c") and k.has_face("")
        assert maximal_faces(k) == [frozenset("abc")]

    def test_join(self):
        a = SimplicialComplex("ab", [frozenset("a"), frozenset("b")])
        b = SimplicialComplex("cd", [frozenset("c"), frozenset("d")])
        j = a.join(b)
        assert j.has_face("ac") and not j.has_face("ab")
        # the product of two closed families needs no second closure
        assert j.faces == SimplicialComplex("abcd", [x | y for x in a.faces for y in b.faces]).faces
        assert sorted(map(len, maximal_faces(j))) == [2, 2, 2, 2]

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
        k = flag_complex(hat_graph(graphs["z_squared"]))
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
        lk = vertex_link(b, b.vertex({b.gp.identity}))
        # two isolated points: one per direction
        assert len(lk.up.vertices) == 2 and not lk.down.vertices
        assert sorted(map(len, maximal_faces(lk.complex))) == [1, 1]
        assert set(lk.up_hats.values()) == {"a+", "a-"}

    def test_real_line_edge_midpoint(self, balls):
        b = balls["single_inf"]
        gp = b.gp
        lk = vertex_link(b, b.vertex({gp.identity, gp.generator("a")}))
        assert not lk.up.vertices and len(lk.down.vertices) == 2

    def test_torus_base_point_is_four_cycle(self, balls):
        b = balls["z_squared"]
        lk = vertex_link(b, b.vertex({b.gp.identity}))
        assert len(lk.up.vertices) == 4
        assert len(skeleton_edges(lk.complex)) == 4
        assert sorted(map(len, maximal_faces(lk.complex))) == [2, 2, 2, 2]

    def test_links_are_flag(self, balls):
        for name in ("single_inf", "z_squared", "mixed", "pentagon", "inf_dihedral"):
            b = balls[name]
            for v in b.interior_vertices:
                assert is_flag(vertex_link(b, v).complex)

    def test_link_models(self, balls):
        for name in ("single_inf", "z_squared", "mixed", "pentagon", "free2"):
            b = balls[name]
            for v in b.interior_vertices:
                assert check_link_models(b, v)


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


class TestFundamentalDomain:
    def test_every_vertex_is_a_translate(self, balls):
        for b in balls.values():
            assert fundamental_domain_check(b)["ok"]

    def test_orbit_census(self, balls):
        report = fundamental_domain_check(balls["z_squared"])
        # orbits: empty clique, a-edges, b-edges, squares
        assert report["orbit_classes"] == 4
        assert report["census"][""] == 13
