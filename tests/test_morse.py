import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpcubes import morse
from gpcubes.cubes import NotInteriorError, build_ball
from gpcubes.groups import LabeledGraph, parse_graph
from gpcubes.morse import (
    MorseViolationError,
    check_down_link_simplex,
    check_up_link_subdivided_simplex,
    cube_max_vertex,
    height,
    morse_report,
    sublevel_eulers,
)

from conftest import (
    TruncatedSublevelError,
    descending_link,
    join,
    maximal_faces,
    sublevel_euler,
    vertex_of,
)


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


class TestHeight:
    def test_examples(self, products):
        gp = products["single_inf"]
        base = vertex_of(gp, gp.identity, frozenset())
        point = vertex_of(gp, gp.generator("a"), frozenset())
        edge = vertex_of(gp, gp.identity, frozenset(["a+"]))
        assert height(base) == (0, 0)
        assert height(point) == (1, 0)
        assert height(edge) == (1, -1)
        # bigger cliques come first at equal coset length
        assert height(edge) < height(point)

    def test_square_below_its_corner(self, products):
        gp = products["z_squared"]
        square = vertex_of(gp, gp.identity, frozenset(["a+", "b+"]))
        corner = vertex_of(gp, gp.normalize((("a", 1), ("b", 1))), frozenset())
        assert height(square) == (2, -2) < (2, 0) == height(corner)


class TestCubeMax:
    def test_edge_maximum_is_far_endpoint(self, balls):
        b = balls["single_inf"]
        gp = b.gp
        mid = b.vertex({gp.identity, gp.generator("a")})
        (edge,) = [
            c for c in b.edges if c.bottom.rep.is_identity and c.top == mid
        ]
        assert cube_max_vertex(b, edge) == mid

    def test_square_maximum_attains_top_length(self, balls):
        # the winner reaches the length of the top coset with the smallest
        # clique among the corners that do
        b = balls["z_squared"]
        for square in b.squares:
            best = cube_max_vertex(b, square)
            assert height(best)[0] == square.top.max_length
            for v in b.cube_vertices(square):
                if v != best and v.max_length == square.top.max_length:
                    assert len(v.clique) > len(best.clique)

    def test_all_cubes_have_unique_maximum(self, balls):
        for b in balls.values():
            for cube in b.cubes:
                cube_max_vertex(b, cube)  # raises MorseViolationError on a tie


class TestDescendingLink:
    def test_base_point_has_empty_descending_link(self, balls):
        b = balls["single_inf"]
        up, down = descending_link(b, b.vertex({b.gp.identity}))
        assert not up.vertices and not down.vertices

    def test_point_descends_towards_origin(self, balls):
        b = balls["single_inf"]
        gp = b.gp
        up, down = descending_link(b, b.vertex({gp.generator("a")}))
        assert len(up.vertices) == 1 and not down.vertices
        (w,) = up.vertices
        assert w.elements == {gp.identity, gp.generator("a")}

    def test_edge_descends_to_its_near_corner(self, balls):
        b = balls["single_inf"]
        gp = b.gp
        up, down = descending_link(b, b.vertex({gp.identity, gp.generator("a")}))
        assert not up.vertices and len(down.vertices) == 1
        (u,) = down.vertices
        assert u.rep.is_identity

    def test_finite_torsion_point(self, balls):
        # for u of order three the whole coset {1,u,u^2} hangs below u
        b = balls["mixed"]
        gp = b.gp
        up, down = descending_link(b, b.vertex({gp.generator("u")}))
        assert len(up.vertices) == 1 and not down.vertices
        assert sorted(map(len, maximal_faces(join(up, down).faces))) == [1]


class TestDescentChecks:
    def test_down_link_simplex_everywhere(self, balls):
        for b in balls.values():
            for v in b.interior_vertices:
                if v.clique:
                    assert check_down_link_simplex(b, v)

    def test_up_link_subdivided_simplex_everywhere(self, balls):
        for b in balls.values():
            for v in b.interior_vertices:
                if not v.clique and not v.rep.is_identity:
                    assert check_up_link_subdivided_simplex(b, v)

    def test_wrong_vertex_kind_rejected(self, balls):
        b = balls["single_inf"]
        gp = b.gp
        base = b.vertex({gp.identity})
        edge = b.vertex({gp.identity, gp.generator("a")})
        with pytest.raises(ValueError):
            check_down_link_simplex(b, base)
        with pytest.raises(ValueError):
            check_up_link_subdivided_simplex(b, edge)
        with pytest.raises(ValueError):
            check_up_link_subdivided_simplex(b, base)

    def test_boundary_singleton_rejected(self, balls):
        # the up-link check reads no link, so it guards interiority itself
        boundary = 0
        for b in balls.values():
            for v in b.vertices:
                if not v.clique and not v.rep.is_identity and not b.is_interior(v):
                    boundary += 1
                    with pytest.raises(NotInteriorError):
                        check_up_link_subdivided_simplex(b, v)
        assert boundary


class TestSublevels:
    def test_real_line_euler(self, balls):
        b = balls["single_inf"]
        # sublevel at (2, 0): 9 vertices, 8 edges
        assert sublevel_euler(b, (1, 0)) == 1
        assert sublevel_euler(b, (2, 0)) == 1

    def test_truncated_sublevel_rejected(self, balls):
        with pytest.raises(TruncatedSublevelError):
            sublevel_euler(balls["single_inf"], (4, 0))

    def test_all_complete_sublevels_contractible_census(self, balls):
        for b in balls.values():
            for h in sorted({height(v) for v in b.vertices}):
                assert sublevel_euler(b, h) == 1


def _cliques_up(v):
    """A height under which bigger cliques come later: its sublevels are not
    contractible, so the sweep's steps are nonzero."""
    return (v.max_length, len(v.clique))


class TestSweep:
    """The one-sweep Euler characteristics against the per-height oracle."""

    @staticmethod
    def _check(ball):
        # under the Morse height every sublevel has Euler characteristic 1,
        # so every step but the first is zero; _cliques_up tests the order
        # and signs of the steps as well
        swept = {}
        for fn in (morse.height, _cliques_up):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(morse, "height", fn)
                cube_heights = [fn(cube_max_vertex(ball, c)) for c in ball.cubes]
                swept[fn] = sublevel_eulers(ball, cube_heights)
                vertex_heights = {fn(v) for v in ball.vertices}
                assert set(swept[fn]) == vertex_heights
                for h in vertex_heights:
                    assert swept[fn][h] == sublevel_euler(ball, h), (fn.__name__, h)
        return swept[_cliques_up]

    def test_fixtures(self, balls):
        nontrivial = [chi for b in balls.values() for chi in self._check(b).values() if chi != 1]
        assert nontrivial

    @given(st.data())
    @settings(max_examples=12, deadline=None)
    def test_random_graphs(self, data):
        names = ["v%d" % i for i in range(data.draw(st.integers(1, 4)))]
        orders = {n: data.draw(st.sampled_from([2, 3, None])) for n in names}
        edges = [
            pair for pair in itertools.combinations(names, 2) if data.draw(st.booleans())
        ]
        self._check(build_ball(LabeledGraph(names, orders, edges), 2))


class TestReport:
    def test_all_fixtures_certify(self, balls):
        for name, b in balls.items():
            report = morse_report(b)
            assert report["ok"], (name, report["failures"])
            assert report["checked_vertices"] == len(b.interior_vertices)

    def test_violation_error_type(self):
        assert issubclass(MorseViolationError, AssertionError)

    def test_tie_fails_the_report_without_raising(self, monkeypatch):
        # with a constant height every cube ties, so no sublevel is defined
        ball = build_ball(parse_graph("a:inf\n"), 2)
        monkeypatch.setattr(morse, "height", lambda v: (0, 0))
        report = morse_report(ball)
        assert report["unique_cube_maxima"] is False
        assert report["sublevel_euler_ok"] is False
        assert report["ok"] is False
        assert any("sublevels are undefined" in f for f in report["failures"])
