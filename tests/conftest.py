import itertools
import os
import subprocess
import sys

import pytest
from hypothesis import strategies as st

import gpcubes
from gpcubes.cubes import _all_cliques, cliques, coset_elements, coset_vertex, vertex_link
from gpcubes.groups import GraphProduct, LabeledGraph, parse_graph
from gpcubes import morse
from gpcubes.special import full_label

# The standing fixture set: one graph per small phenomenon.
GRAPH_TEXTS = {
    "single_inf": "a:inf\n",
    "single_z2": "a:2\n",
    "single_z3": "a:3\n",
    "free2": "a:inf\nb:inf\n",
    "z_squared": "a:inf\nb:inf\nedge a b\n",
    "inf_dihedral": "a:2\nb:2\n",
    "pentagon": "\n".join(
        ["v0:2", "v1:2", "v2:2", "v3:2", "v4:2"]
        + ["edge v%d v%d" % (i, (i + 1) % 5) for i in range(5)]
    )
    + "\n",
    "mixed": "a:inf\nu:3\nedge a u\n",
}


def hat_names(graph):
    """The doubled alphabet spelled out from the graph, kept as the
    reference for GraphProduct's tables: s for a finite generator s, s+ and
    s- for an infinite one."""
    names = []
    for s in graph.vertices:
        names.extend((s,) if graph.is_finite(s) else (s + "+", s + "-"))
    return tuple(names)


def hat_base(graph, name):
    """Split a hat letter's name into (base generator, sign)."""
    if name in graph.orders:
        if not graph.is_finite(name):
            raise ValueError("infinite generator %r needs a sign tag" % name)
        return name, 1
    base, tag = name[:-1], name[-1:]
    if tag in "+-" and base in graph.orders and not graph.is_finite(base):
        return base, (1 if tag == "+" else -1)
    raise ValueError("not a hat letter of this graph: %r" % name)


@st.composite
def labelled_graphs(draw, max_vertices=5, orders=(2, 3, None)):
    """Random presentation graphs on at most max_vertices generators, each
    of an order drawn from orders (None is inf)."""
    names = ["v%d" % i for i in range(draw(st.integers(1, max_vertices)))]
    drawn = {n: draw(st.sampled_from(orders)) for n in names}
    edges = [pair for pair in itertools.combinations(names, 2) if draw(st.booleans())]
    return LabeledGraph(names, drawn, edges)


def fresh_python(code, *flags, env=None, args=()):
    """Run code in a new interpreter that imports the gpcubes under test,
    with the variables in env set on top of this process's environment and
    args (str or bytes) as its sys.argv[1:]."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(gpcubes.__file__)))
    env = dict(os.environ, **(env or {}))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *flags, "-c", code, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def clique_at(gp, elements, at):
    """The clique C with elements = at<<C>>, read off at a member `at`: the
    hat letters h with at*h in the coset, every hat generator tried.  The
    oracle for the per-base read of coset_vertex."""
    return frozenset(
        hat for hat, h in gp.hat_generators.items() if gp.multiply(at, h) in elements
    )


def vertex_of(gp, g, clique):
    """The vertex g<<C>>, its coset formed first as ball_vertices forms it."""
    return coset_vertex(gp, g, clique, coset_elements(gp, g, clique))


def oracle_ball(graph, radius):
    """The ball's vertices by the unbounded scan, the reference for the
    length bound of ball_vertices: the coset of every (element, clique)
    pair, kept when it lies in the ball, and a vertex interior when every
    coface at its rep does.  Maps (rep, clique, elements) to the interior
    flag; the order of the cliques is never read."""
    gp = GraphProduct(graph)
    elements = gp.enumerate_ball(radius)
    cs = cliques(gp.doubled, radius + 1)
    by_key = {}
    for g in elements:
        for c in cs:
            candidate = coset_elements(gp, g, c)
            if candidate in by_key or not candidate <= elements:
                continue
            by_key[candidate] = coset_vertex(gp, g, c, candidate)
    return {
        (v.rep, v.clique, v.elements): all(
            coset_elements(gp, v.rep, c) in by_key for c in cs if v.clique < c
        )
        for v in by_key.values()
    }


class SimplicialComplex:
    """Finite abstract simplicial complex: a vertex list and a set of faces
    closed under subsets (the empty face included).

    The closure walks down from missing faces only: the facets of a face
    are pushed when the face is new, so a family that is already closed
    costs one membership test per face."""

    def __init__(self, vertices, faces):
        self.vertices = tuple(vertices)
        closed = {frozenset()}
        todo = [frozenset(f) for f in faces]
        while todo:
            f = todo.pop()
            if f not in closed:
                closed.add(f)
                todo.extend(f - {x} for x in f)
        self.faces = frozenset(closed)

    def has_face(self, f):
        return frozenset(f) in self.faces

    def __repr__(self):
        return "SimplicialComplex(%d vertices, %d faces)" % (
            len(self.vertices),
            len(self.faces) - 1,
        )


def is_flag(complex_):
    """True iff every pairwise-adjacent vertex set spans a face."""
    cs = _all_cliques(complex_.vertices, lambda a, b: complex_.has_face((a, b)))
    return all(complex_.has_face(c) for c in cs)


def link_complex(ball, v):
    """The link of an interior vertex as a SimplicialComplex on its covers:
    the face set vertex_link reads off the cubes."""
    faces, up_hats, down_classes = vertex_link(ball, v)
    downs = [d for members in down_classes.values() for d in members]
    return SimplicialComplex(downs + list(up_hats), faces)


def descending_link(ball, v):
    """Up- and down-parts of the descending link of an interior vertex.

    A cube containing v contributes a simplex exactly when v is its unique
    height-maximal vertex.
    """
    _, up_hats, down_classes = vertex_link(ball, v)
    covers = set(up_hats).union(*down_classes.values())
    faces = [
        covers.intersection(ball.cube_vertices(cube))
        for cube in ball.cubes_containing(v)
        if morse.cube_max_vertex(ball, cube) == v
    ]
    faces_up = [f & up_hats.keys() for f in faces]
    faces_down = [f - up_hats.keys() for f in faces]
    up_vertices = sorted({x for f in faces_up for x in f}, key=lambda w: ball.gp.sort_key(w.rep))
    down_vertices = sorted(
        {x for f in faces_down for x in f}, key=lambda w: ball.gp.sort_key(w.rep)
    )
    return (
        SimplicialComplex(up_vertices, faces_up),
        SimplicialComplex(down_vertices, faces_down),
    )


class TruncatedSublevelError(ValueError):
    """The requested sublevel set is not fully contained in the ball."""


def sublevel_euler(ball, h):
    """Euler characteristic of the sublevel set at height h, the per-height
    oracle of morse.sublevel_eulers.

    Counts vertices minus edges plus squares etc.; requires the sublevel to
    be complete inside the ball (primary height <= radius).  The height is
    read as morse.height at each call, so a test that patches it there
    patches this oracle too.
    """
    if h[0] > ball.radius:
        raise TruncatedSublevelError(
            "sublevel at primary height %d exceeds ball radius %d" % (h[0], ball.radius)
        )
    chi = sum(1 for v in ball.vertices if morse.height(v) <= h)
    for cube in ball.cubes:
        if morse.height(morse.cube_max_vertex(ball, cube)) <= h:
            chi += (-1) ** cube.dim
    return chi


def base_label(ball, edge):
    """Coarser label that forgets the sign of infinite letters: a
    deliberately broken labelling, the negative control of check_special."""
    hat, k = full_label(ball, edge)
    return (ball.gp.base_of[hat], k)


def join(a, b):
    """The join of two SimplicialComplexes: each face of a with each of b."""
    return SimplicialComplex(a.vertices + b.vertices, [x | y for x in a.faces for y in b.faces])


def maximal_faces(faces):
    """The faces of a face set that lie in no other face."""
    return [f for f in faces if not any(f < g for g in faces)]


@pytest.fixture(scope="session")
def graphs():
    return {name: parse_graph(text) for name, text in GRAPH_TEXTS.items()}


@pytest.fixture(scope="session")
def products(graphs):
    return {name: GraphProduct(g) for name, g in graphs.items()}
