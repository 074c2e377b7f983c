"""Differential tests of the ball queries that the certificate layers read:
each is compared with the version that re-multiplied the products the ball
already holds, or scanned the covers by inclusion, list order included
where the order is kept.  The old versions are kept here as oracles.  The
checks ask gp.times one hat letter at a time (cubes._lands) and compare
element sets, so _lands is compared with multiply at every element, hat
letter and vertex holding the element.  The balls are every fixture at
r = 1, 2, 3 and the triangle a:inf b:inf u:3 at r = 4, whose 3-cubes the
small balls lack; the oracles of the checks' queries also run on
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
    SoundnessError,
    added_hat,
    build_ball,
    check_link_models,
    cliques,
    coset_elements,
    coset_vertex,
    stabilizer,
    vertex_link,
)
from gpcubes.groups import LabeledGraph, parse_graph
from gpcubes.morse import cube_max_vertex, descending_cofaces, morse_report
from gpcubes.special import check_free_kernel_action, check_special, hyperplanes

from conftest import GRAPH_TEXTS, SimplicialComplex, clique_at, descending_link, join

TRIANGLE_TEXT = "a:inf\nb:inf\nu:3\nedge a b\nedge b u\nedge a u\n"
PATH_TEXT = "a:inf\nb:inf\nc:inf\nedge a b\nedge b c\n"

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
        for c in cliques(ball.delta)
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


def old_check_link_models(ball, v, faces, up_hats, down_classes):
    """The three-part check of a link, given the parts vertex_link returns:
    the link is the join of its up- and down-parts, the up-part maps onto
    the link of v.clique in the flag complex through distinct hats, and the
    down-part is the join of discrete sets of |<<h>>| members."""
    ups = set(up_hats)
    downs = {d for members in down_classes.values() for d in members}
    up = SimplicialComplex(ups, [f & ups for f in faces])
    down = SimplicialComplex(downs, [f & downs for f in faces])
    ok = faces == join(up, down).faces

    hats = set(up_hats.values())
    ok = ok and len(hats) == len(up.vertices)
    expected_up_faces = {
        frozenset(c - v.clique) for c in cliques(ball.delta) if v.clique <= c and c - v.clique <= hats
    }
    inverse = {hat: w for w, hat in up_hats.items()}
    ok = ok and {frozenset(up_hats[w] for w in f) for f in up.faces} == expected_up_faces
    ok = ok and all(frozenset(inverse[h] for h in f) in up.faces for f in expected_up_faces)

    for hat, members in down_classes.items():
        ok = ok and len(set(members)) == len(ball.gp.hat_subsets[hat])
    transversals = {frozenset()}
    for members in down_classes.values():
        transversals = {
            t | extra for t in transversals for extra in [frozenset()] + [frozenset([m]) for m in members]
        }
    return ok and down.faces == transversals


def inclusion_interval(ball, cube, holding):
    """The vertices between a cube's ends by frozenset inclusion, among
    those that hold the bottom's rep (holding: element -> vertices)."""
    bottom, top = cube.bottom, cube.top
    return {w for w in holding[bottom.rep] if bottom.elements <= w.elements <= top.elements}


# -- the query oracles, one function per query, run on fixed and random balls


def check_right_table(ball):
    """Each right product x*h of a ball element by a non-identity hat power,
    read by one gp.times of h's letter, is gp.multiply's, and it is in the
    ball exactly when it is no longer than the radius."""
    gp = ball.gp
    elements = {v.rep for v in ball.vertices if not v.clique}  # the vertices {g}
    assert elements == set().union(*(v.elements for v in ball.vertices))
    for x in elements:
        for hat in ball.delta.vertices:
            for h in gp.hat_subsets[hat][1:]:
                y = gp.times(x, *h.letters[0])
                assert y == gp.multiply(x, h)
                assert (y in elements) == (y.length <= ball.radius)


def check_lands(ball):
    """_lands agrees with multiply for every element, hat letter and vertex
    holding the element."""
    gp = ball.gp
    for v in ball.vertices:
        for x in v.elements:
            for hat in ball.delta.vertices:
                expected = gp.multiply(x, gp.hat_generators[hat]) in v.elements
                assert cubes._lands(gp, x, hat, v.elements) == expected


def check_stabilizers(ball):
    for v in ball.vertices:
        assert stabilizer(ball, v) == old_stabilizer(ball.gp, v)


def interior_singletons(ball):
    return [v for v in ball.interior_vertices if not v.clique]


def check_descent_hats(ball):
    # the base point included: none of its up-covers stays at length 0
    for v in interior_singletons(ball):
        assert descending_cofaces(ball, v)[0] == ball.gp.desc_letters(v.rep)


def check_cofaces(ball):
    gp = ball.gp
    for v in interior_singletons(ball):
        n = v.rep.length
        expected = {
            c for c in cliques(ball.delta) if c and max(x.length for x in coset_elements(gp, v.rep, c)) == n
        }
        assert descending_cofaces(ball, v)[1] == expected


def check_intervals(ball):
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
    check_lands,
    check_stabilizers,
    check_descent_hats,
    check_cofaces,
    check_intervals,
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


def test_lands_matches_multiply(ball):
    check_lands(ball)


def test_descent_hats_match_desc_letters(ball):
    check_descent_hats(ball)


def test_cofaces_match_coset_elements(ball):
    check_cofaces(ball)


def test_mask_intervals_match_the_inclusion_scan(ball):
    check_intervals(ball)


def test_cliques_per_base_match_clique_at(ball):
    check_cliques_per_base(ball)


@given(st.data())
@settings(max_examples=20, deadline=None, derandomize=True)
def test_index_oracles_on_random_graphs(data):
    names = ["v%d" % i for i in range(data.draw(st.integers(1, 5)))]
    orders = {n: data.draw(st.sampled_from([2, 3, 4, None])) for n in names}
    edges = [pair for pair in itertools.combinations(names, 2) if data.draw(st.booleans())]
    ball = build_ball(LabeledGraph(names, orders, edges), data.draw(st.integers(1, 2)))
    for oracle in INDEX_ORACLES:
        oracle(ball)


def test_coset_vertex_rejects_a_base_landing_twice():
    # {a^-1, 1, a} is no coset of <<a+>>: at its rep 1 both a and a^-1
    # land, so no one sign can be read off
    gp = build_ball(parse_graph("a:inf\n"), 1).gp
    a = gp.generator("a")
    line = frozenset([gp.invert(a), gp.identity, a])
    with pytest.raises(SoundnessError):
        coset_vertex(gp, gp.identity, frozenset(["a+"]), line)


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
        for w, hat in vertex_link(ball, v)[1].items():
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


def test_hyperplanes_are_in_the_order_of_their_least_bottom_reps(ball):
    # the classes come in the order of their first edges, and ball.edges is
    # sorted by bottom rep first, so the stable sort by least bottom rep
    # that hyperplanes once made leaves them as they are
    hps = hyperplanes(ball)
    old = sorted(hps, key=lambda h: min(ball.gp.sort_key(e.bottom.rep) for e in h.edges))
    assert [h.edges for h in old] == [h.edges for h in hps]


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
        link, up_hats, _ = vertex_link(ball, v)
        assert link == SimplicialComplex((), old_link_faces(ball, v, at_v)).faces
        faces = old_link_faces(ball, v, [c for c in at_v if cube_max_vertex(ball, c) == v])
        up, down = descending_link(ball, v)
        assert up.faces == SimplicialComplex((), [f & up_hats.keys() for f in faces]).faces
        assert down.faces == SimplicialComplex((), [f - up_hats.keys() for f in faces]).faces


def test_link_check_matches_the_three_part_check(ball):
    for v in ball.interior_vertices:
        assert check_link_models(ball, v)
        assert old_check_link_models(ball, v, *vertex_link(ball, v))


@given(st.data())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_link_check_matches_the_three_part_check_on_random_graphs(data):
    names = ["v%d" % i for i in range(data.draw(st.integers(1, 5)))]
    orders = {n: data.draw(st.sampled_from([2, 3, None])) for n in names}
    edges = [pair for pair in itertools.combinations(names, 2) if data.draw(st.booleans())]
    ball = build_ball(LabeledGraph(names, orders, edges), 2)
    for v in ball.interior_vertices:
        verdict = check_link_models(ball, v)
        assert verdict == old_check_link_models(ball, v, *vertex_link(ball, v))


def drop_a_face(link, up_hats, down_classes):
    """The link without one of its largest faces."""
    return link - {max(link, key=len)}, up_hats, down_classes


def share_a_hat(link, up_hats, down_classes):
    """Two up-covers given one hat; None with fewer than two."""
    if len(up_hats) < 2:
        return None
    first, second, *_ = up_hats
    return link, {**up_hats, second: up_hats[first]}, down_classes


def shorten_a_class(link, up_hats, down_classes):
    """A down class one member short, the member gone from the link too, so
    that the faces still match; None without a down class."""
    if not down_classes:
        return None
    hat, members = next(iter(down_classes.items()))
    gone = members[-1]
    kept = frozenset(f for f in link if gone not in f)
    return kept, up_hats, {**down_classes, hat: members[:-1]}


@pytest.mark.parametrize("mutate", [drop_a_face, share_a_hat, shorten_a_class])
def test_both_link_checks_reject_a_broken_link(ball, mutate, monkeypatch):
    real = cubes.vertex_link
    mutated = 0
    for v in ball.interior_vertices:
        parts = mutate(*real(ball, v))
        if parts is None:
            continue
        mutated += 1
        monkeypatch.setattr(cubes, "vertex_link", lambda ball, v: parts)
        assert not check_link_models(ball, v)
        assert not old_check_link_models(ball, v, *parts)
    # every control reaches a vertex on the larger balls
    if ball.radius >= 2 and len(ball.delta.vertices) >= 2:
        assert mutated


def test_link_check_sees_a_missing_up_edge():
    # the edge from {a^-1} up to {a^-2, a^-1} and the two squares above it
    # are dropped before the incidence is built.  Predicting the up-part
    # only from the hats found as covers loses a- on both sides, so the
    # check asks for one up-cover per hat that extends the clique.
    ball = build_ball(parse_graph(PATH_TEXT), 3)
    gp = ball.gp
    v = ball.vertex({gp.normalize((("a", -1),))})
    w = ball.vertex(v.elements | {gp.normalize((("a", -2),))})
    kept = [c for c in ball.cubes if not (c.bottom is v and w.elements <= c.top.elements)]
    assert len(ball.cubes) - len(kept) == 3
    ball.cubes = kept
    ball.edges = [c for c in kept if c.dim == 1]
    ball.squares = [c for c in kept if c.dim == 2]
    assert ball.is_interior(v) and ball.is_interior(w)
    assert not check_link_models(ball, v)
    assert not check_link_models(ball, w)


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
    # once the incidence is built, links, Morse and specialness normalize no
    # word; the kernel action normalizes one per non-identity stabilizer
    # element, the quotient x*rep^-1 it reports, so none where every
    # stabilizer is trivial
    ball.cubes_containing(ball.vertices[0])  # the incidence
    ball.interior_vertices  # the interiority pass forms cosets by products
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
