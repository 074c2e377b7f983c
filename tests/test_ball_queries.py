"""Differential tests of the ball queries that the certificate layers read:
each is compared with the version that re-multiplied the products the ball
already holds, or scanned the covers by inclusion, list order included
where the order is kept.  The old versions are kept here as oracles.  The
balls are every fixture at r = 1, 2, 3 and the triangle a:inf b:inf u:3 at
r = 4, whose 3-cubes the small balls lack."""

import functools
import itertools

import pytest

from gpcubes import cubes
from gpcubes.cubes import (
    Cube,
    CubeBall,
    SimplicialComplex,
    SoundnessError,
    added_hat,
    build_ball,
    check_link_models,
    clique_at,
    coset_elements,
    stabilizer,
    vertex_link,
)
from gpcubes.groups import parse_graph
from gpcubes.morse import cube_max_vertex, descending_link, morse_report
from gpcubes.special import check_special, edge_hat

from conftest import GRAPH_TEXTS

TRIANGLE_TEXT = "a:inf\nb:inf\nu:3\nedge a b\nedge b u\nedge a u\n"

CASES = [(name, r) for name in sorted(GRAPH_TEXTS) for r in (1, 2, 3)] + [("triangle", 4)]
IDS = ["%s-r%d" % case for case in CASES]


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


def old_covers_up(ball, v):
    """The cosets rep<<C>> over the cliques C covering v's, kept when they
    lie in the ball."""
    gp = ball.gp
    found = (
        ball._by_elements.get(coset_elements(gp, v.rep, c))
        for c in ball.cliques
        if v.clique < c and len(c) == len(v.clique) + 1
    )
    return [w for w in found if w is not None]


def old_covers_down(ball, v):
    """The cosets rep*h<<C - hat>> for each hat letter of v's clique C and
    each h in <<hat>>."""
    gp = ball.gp
    out = {}
    for hat in sorted(v.clique, key=ball.delta.index.__getitem__):
        rest = v.clique - {hat}
        out[hat] = [
            ball.vertex(coset_elements(gp, gp.multiply(v.rep, h), rest))
            for h in sorted(gp.hat_subset(hat), key=gp.sort_key)
        ]
    return out


def old_link_faces(ball, v, cubes_at_v):
    """The link simplex of each cube at v: the covers of v, from the
    oracles above, that lie above the cube's bottom or below its top."""
    ups = old_covers_up(ball, v)
    downs = [d for members in old_covers_down(ball, v).values() for d in members]
    return [
        {d for d in downs if c.bottom.elements <= d.elements}
        | {w for w in ups if w.elements <= c.top.elements}
        for c in cubes_at_v
    ]


@functools.lru_cache(maxsize=None)
def _ball(name, radius):
    text = TRIANGLE_TEXT if name == "triangle" else GRAPH_TEXTS[name]
    return build_ball(parse_graph(text), radius)


@pytest.fixture(params=CASES, ids=IDS)
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


def test_edge_hats_are_formed_once(monkeypatch):
    # check_special labels every edge and vertex_link every up-cover; both
    # read one edge -> hat map, so added_hat runs once per edge
    calls = []
    real = cubes.added_hat
    monkeypatch.setattr(cubes, "added_hat", lambda *args: calls.append(args) or real(*args))
    ball = build_ball(parse_graph(TRIANGLE_TEXT), 3)
    check_special(ball)
    for v in ball.interior_vertices:
        vertex_link(ball, v)
    assert len(calls) == len(ball.edges)


def test_interval_of_the_wrong_dimension_raises(ball):
    for cube in ball.cubes:
        with pytest.raises(SoundnessError):
            ball.cube_vertices(Cube(cube.bottom, cube.top, cube.dim + 1))


def test_added_hat_rejects_a_non_cover(ball):
    for sq in ball.squares:
        with pytest.raises(SoundnessError):
            added_hat(ball.gp, ball.graph, sq.bottom, sq.top)


def test_covers_up_match_the_model(ball):
    for v in ball.vertices:
        ups = ball.covers_up(v)
        assert len(ups) == len(set(ups))
        assert set(ups) == set(old_covers_up(ball, v))


def test_covers_down_match_the_model(ball):
    # the order inside a hat class follows ball.cubes now, so each class
    # is compared as a set; the classes keep their order
    for v in ball.vertices:
        downs, old = ball.covers_down(v), old_covers_down(ball, v)
        assert list(downs) == list(old)
        for hat, members in old.items():
            assert len(downs[hat]) == len(members)
            assert set(downs[hat]) == set(members)


def test_covers_form_no_products(ball, monkeypatch):
    ball.cubes_containing(ball.vertices[0])  # the incidence is built before

    def forbidden(*args):
        pytest.fail("a cover query formed a product")

    monkeypatch.setattr(ball.gp, "multiply", forbidden)
    monkeypatch.setattr(cubes, "coset_elements", forbidden)
    for v in ball.vertices:
        ball.covers_up(v)
        ball.covers_down(v)


def test_link_faces_match_the_inclusion_scan(ball):
    for v in ball.interior_vertices:
        at_v = ball.cubes_containing(v)
        link = vertex_link(ball, v)
        assert link.complex == SimplicialComplex(
            link.complex.vertices, old_link_faces(ball, v, at_v)
        )
        ups = set(link.up.vertices)
        faces = old_link_faces(ball, v, [c for c in at_v if cube_max_vertex(ball, c) == v])
        up, down = descending_link(ball, v)
        assert up.faces == SimplicialComplex((), [f & ups for f in faces]).faces
        assert down.faces == SimplicialComplex((), [f - ups for f in faces]).faces


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_each_interval_is_searched_once(case, monkeypatch):
    ball = _ball.__wrapped__(*case)  # a fresh ball: no interval found yet
    searched = []
    search = CubeBall._interval

    def counted(self, cube):
        searched.append(cube)
        return search(self, cube)

    monkeypatch.setattr(CubeBall, "_interval", counted)
    morse_report(ball)
    check_special(ball)
    for v in ball.interior_vertices:
        check_link_models(ball, v)
    assert len(searched) == len(ball.cubes)
    assert set(searched) == set(ball.cubes)
