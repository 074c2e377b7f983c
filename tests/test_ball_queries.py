"""Differential tests of the ball queries that the certificate layers read:
each is compared with the version that re-multiplied the products the ball
already holds, or scanned the covers by inclusion, list order included
where the order is kept.  The old versions are kept here as oracles.  The
balls are every fixture at r = 1, 2, 3 and the triangle a:inf b:inf u:3 at
r = 4, whose 3-cubes the small balls lack; the oracles of the ball's index
(element ids, the right table and the vertex masks) also run on
Hypothesis graphs."""

import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpcubes import cubes
from gpcubes.cubes import (
    Cube,
    CubeBall,
    SimplicialComplex,
    SoundnessError,
    added_hat,
    build_ball,
    check_link_models,
    coset_elements,
    coset_vertex,
    stabilizer,
    vertex_link,
)
from gpcubes.groups import LabeledGraph, parse_graph
from gpcubes.morse import cube_max_vertex, descending_link, morse_report
from gpcubes.special import check_free_kernel_action, check_special

from conftest import GRAPH_TEXTS, clique_at

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
            for h in sorted(gp.hat_subsets[hat], key=gp.sort_key)
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


def inclusion_interval(ball, cube, holding):
    """The vertices between a cube's ends by frozenset inclusion, among
    those that hold the bottom's rep (holding: element -> vertices)."""
    bottom, top = cube.bottom, cube.top
    return {w for w in holding[bottom.rep] if bottom.elements <= w.elements <= top.elements}


# -- the index oracles, one function per query, run on fixed and random balls


def check_right_table(ball):
    """Ids follow (length, lex) order, and each table entry is the id of
    gp.multiply, -1 exactly when the product is longer than the radius."""
    gp, elements = ball.gp, ball._elements
    keys = [gp.sort_key(x) for x in elements]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    assert set(elements) == ball._element_set
    for i, x in enumerate(elements):
        assert ball._ids[x] == i
        row = ball._right[i]
        assert len(row) == sum(len(gp.hat_subsets[hat]) - 1 for hat in ball.delta.vertices)
        for hat in ball.delta.vertices:
            for k, h in zip(ball._columns[hat], gp.hat_subsets[hat][1:]):
                y = gp.multiply(x, h)
                if y.length > ball.radius:
                    assert row[k] == -1
                else:
                    assert row[k] >= 0 and elements[row[k]] == y


def check_stabilizers(ball):
    for v in ball.vertices:
        assert stabilizer(ball, v) == old_stabilizer(ball.gp, v)


def check_descent_hats(ball):
    # every vertex, not only the interior singletons the Morse check reads:
    # a product leaving the ball must read as rising
    for v in ball.vertices:
        assert ball.descent_hats(v) == ball.gp.desc_letters(v.rep)


def check_cofaces(ball):
    gp = ball.gp
    for v in ball.vertices:
        if v.clique:
            continue
        for c in ball.cliques:
            expected = ball._by_elements.get(coset_elements(gp, v.rep, c))
            if expected is None:
                with pytest.raises(SoundnessError):
                    ball.coface(v, c)
            else:
                assert ball.coface(v, c) is expected


def check_mask_intervals(ball):
    holding = {}
    for v in ball.vertices:
        for x in v.elements:
            holding.setdefault(x, []).append(v)
    for cube in ball.cubes:
        found = ball.cube_vertices(cube)
        assert len(found) == 2 ** cube.dim
        assert set(found) == inclusion_interval(ball, cube, holding)


def check_cliques_per_base(ball):
    for v in ball.vertices:
        assert v.clique == clique_at(ball.gp, v.elements, v.rep)


INDEX_ORACLES = [
    check_right_table,
    check_stabilizers,
    check_descent_hats,
    check_cofaces,
    check_mask_intervals,
    check_cliques_per_base,
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
    check_stabilizers(ball)


def test_right_table_matches_multiply(ball):
    check_right_table(ball)


def test_descent_hats_match_desc_letters(ball):
    check_descent_hats(ball)


def test_cofaces_match_coset_elements(ball):
    check_cofaces(ball)


def test_mask_intervals_match_the_inclusion_scan(ball):
    check_mask_intervals(ball)


def test_cliques_per_base_match_clique_at(ball):
    check_cliques_per_base(ball)


@given(st.data())
@settings(max_examples=20, deadline=None, derandomize=True)
def test_index_oracles_on_random_graphs(data):
    names = ["v%d" % i for i in range(data.draw(st.integers(1, 5)))]
    orders = {n: data.draw(st.sampled_from([2, 3, None])) for n in names}
    edges = [pair for pair in itertools.combinations(names, 2) if data.draw(st.booleans())]
    ball = build_ball(LabeledGraph(names, orders, edges), data.draw(st.integers(1, 2)))
    for oracle in INDEX_ORACLES:
        oracle(ball)


def test_coset_vertex_rejects_a_base_landing_twice(monkeypatch):
    # {a^-1, 1, a} is no coset of <<a+>>: at its rep 1 both a and a^-1
    # land, so no one sign can be read off
    gp = build_ball(parse_graph("a:inf\n"), 1).gp
    a = gp.generator("a")
    line = frozenset([gp.invert(a), gp.identity, a])
    monkeypatch.setattr(cubes, "coset_elements", lambda *args: line)
    with pytest.raises(SoundnessError):
        coset_vertex(gp, gp.identity, frozenset(["a+"]))


def test_cube_vertices_match_the_model(ball):
    for cube in ball.cubes:
        assert ball.cube_vertices(cube) == old_cube_vertices(ball, cube)


def test_cubes_containing_matches_the_scan(ball):
    for v in ball.vertices:
        assert ball.cubes_containing(v) == old_cubes_containing(ball, v)


def test_cubes_containing_hands_back_the_balls_cubes(ball):
    # cubes compare by identity, so no query may build a Cube of its own
    held = {id(c) for c in ball.cubes}
    for v in ball.vertices:
        assert all(id(c) in held for c in ball.cubes_containing(v))


def test_edge_hat_matches_clique_at(ball):
    for e in ball.edges:
        assert ball.edge_hat(e.bottom, e.top) == old_edge_hat(ball, e)


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
            ball._interval(Cube(cube.bottom, cube.top, cube.dim + 1))


def test_added_hat_rejects_a_non_cover(ball):
    for sq in ball.squares:
        with pytest.raises(SoundnessError):
            added_hat(ball, sq.bottom, sq.top)


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


def test_checks_form_no_products(ball, monkeypatch):
    # once the index is built, links, Morse and specialness form no product;
    # the kernel action forms one per non-identity stabilizer element, the
    # quotient x*rep^-1 it reports, so none where every stabilizer is trivial
    ball.cubes_containing(ball.vertices[0])  # the incidence reads the masks
    ball.coface(ball.vertices[0], frozenset())  # the right table
    calls = []
    real = ball.gp.normalize
    monkeypatch.setattr(ball.gp, "normalize", lambda w: calls.append(w) or real(w))
    for v in ball.interior_vertices:
        check_link_models(ball, v)
    morse_report(ball)
    check_special(ball)
    assert calls == []
    report = check_free_kernel_action(ball)
    assert len(calls) == report["checked"] - len(ball.vertices)
