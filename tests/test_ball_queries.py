"""Differential tests of the ball queries that the certificate layers read:
each is compared, list order included, with the version that re-multiplied
the products the ball already holds.  The old versions are kept here as
oracles.  The balls are every fixture at r = 1, 2, 3 and the triangle
a:inf b:inf u:3 at r = 4, whose 3-cubes the small balls lack."""

import functools
import itertools

import pytest

from gpcubes.cubes import (
    Cube,
    SoundnessError,
    added_hat,
    build_ball,
    clique_at,
    coset_elements,
    stabilizer,
    vertex_link,
)
from gpcubes.groups import parse_graph
from gpcubes.special import edge_hat

from conftest import GRAPH_TEXTS

TRIANGLE_TEXT = "a:inf\nb:inf\nu:3\nedge a b\nedge b u\nedge a u\n"

CASES = [(name, r) for name in sorted(GRAPH_TEXTS) for r in (1, 2, 3)] + [("triangle", 4)]


def old_stabilizer(gp, v):
    """All |S|^2 quotients rep*q*p^-1*rep^-1, each checked on the coset."""
    sub = {gp.multiply(gp.invert(v.rep), x) for x in v.elements}
    candidates = {
        gp.multiply(gp.multiply(v.rep, gp.multiply(q, gp.invert(p))), gp.invert(v.rep))
        for q in sub
        for p in sub
    }
    return frozenset(
        h for h in candidates if frozenset(gp.multiply(h, x) for x in v.elements) == v.elements
    )


def old_cube_vertices(ball, cube):
    """Every sub-coset bottom.rep<<bottom.clique + E>>, formed from the
    clique of the top read off at the bottom's rep."""
    gp, bottom = ball.gp, cube.bottom
    top_clique = clique_at(gp, cube.top.elements, bottom.rep)
    diff = sorted(top_clique - bottom.clique, key=ball.delta.index.__getitem__)
    assert len(diff) == cube.dim
    return [
        ball.vertex(coset_elements(gp, bottom.rep, bottom.clique | frozenset(extra)))
        for k in range(len(diff) + 1)
        for extra in itertools.combinations(diff, k)
    ]


def old_cubes_containing(ball, v):
    """A scan of every cube for each vertex."""
    return [
        c for c in ball.cubes if c.bottom.elements <= v.elements and v.elements <= c.top.elements
    ]


def old_edge_hat(ball, edge):
    """One product per hat letter, at the bottom's rep."""
    (hat,) = clique_at(ball.gp, edge.top.elements, edge.bottom.rep) - edge.bottom.clique
    return hat


@functools.lru_cache(maxsize=None)
def _ball(name, radius):
    text = TRIANGLE_TEXT if name == "triangle" else GRAPH_TEXTS[name]
    return build_ball(parse_graph(text), radius)


@pytest.fixture(params=CASES, ids=["%s-r%d" % case for case in CASES])
def ball(request):
    return _ball(*request.param)


def test_triangle_has_3_cubes():
    assert max(c.dim for c in _ball("triangle", 4).cubes) == 3


def test_stabilizer_matches_all_quotients(ball):
    for v in ball.vertices:
        assert stabilizer(ball.gp, v) == old_stabilizer(ball.gp, v)


def test_cube_vertices_match_the_model(ball):
    for cube in ball.cubes:
        assert ball.cube_vertices(cube) == old_cube_vertices(ball, cube)


def test_cubes_containing_matches_the_scan(ball):
    for v in ball.vertices:
        assert ball.cubes_containing(v) == old_cubes_containing(ball, v)


def test_edge_hat_matches_clique_at(ball):
    for e in ball.edges:
        assert edge_hat(ball, e) == old_edge_hat(ball, e)


def test_up_hats_match_clique_at(ball):
    for v in ball.interior_vertices:
        for w, hat in vertex_link(ball, v).up_hats.items():
            assert {hat} == clique_at(ball.gp, w.elements, v.rep) - v.clique


def test_interval_of_the_wrong_dimension_raises(ball):
    for cube in ball.cubes:
        with pytest.raises(SoundnessError):
            ball.cube_vertices(Cube(cube.bottom, cube.top, cube.dim + 1))


def test_added_hat_rejects_a_non_cover(ball):
    for sq in ball.squares:
        with pytest.raises(SoundnessError):
            added_hat(ball.gp, ball.graph, sq.bottom, sq.top)
