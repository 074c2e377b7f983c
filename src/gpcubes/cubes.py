"""Finite balls of the cube complex attached to a graph product.

Vertices of the complex are cosets g<<C>> where C is a clique of the doubled
graph (one vertex per finite-order generator, two signed vertices per
infinite-order one) and <<C>> is the element-wise product of the standard
subsets <<s>> (the whole cyclic group for finite s, {1, s} for a signed
infinite letter).  The cosets are ordered by inclusion and every interval
[bottom, top] is a boolean lattice, hence a cube.

A CubeBall materializes every vertex whose coset has maximal element length
at most r, together with all cubes among them.  Checks that would be
falsified by the artificial ball boundary are gated on an exact interiority
predicate (all cofaces of the vertex exist inside the ball).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .groups import (
    DEFAULT_ELEMENT_BUDGET,
    GraphProduct,
    LabeledGraph,
    hat_base,
    hat_names,
)


class NotInteriorError(ValueError):
    """A link or star query hit a vertex truncated by the ball boundary."""


class SoundnessError(AssertionError):
    """An invariant that a certificate's soundness rests on does not hold.

    Raised explicitly rather than by assert, so that it is never skipped
    under python -O."""


def hat_graph(graph):
    """The doubled graph: edges pulled back from the base graph, with the two
    signed copies of an infinite generator never adjacent.  Vertex labels
    record the size of the standard subset."""
    names = hat_names(graph)
    orders = {name: graph.orders.get(name, 2) for name in names}
    edges = []
    for a, b in itertools.combinations(names, 2):
        sa, _ = hat_base(graph, a)
        sb, _ = hat_base(graph, b)
        if sa != sb and graph.adjacent(sa, sb):
            edges.append((a, b))
    return LabeledGraph(names, orders, edges)


def _all_cliques(vertices, adjacent):
    """Every clique of a finite graph, the empty one included: the
    all-cliques form of Bron-Kerbosch (CACM 1973)."""
    out = []

    def extend(clique, candidates):
        out.append(frozenset(clique))
        for i, v in enumerate(candidates):
            extend(clique + [v], [w for w in candidates[i + 1 :] if adjacent(v, w)])

    extend([], list(vertices))
    return out


def cliques(graph):
    """All cliques of a finite graph, the empty one included."""
    out = _all_cliques(graph.vertices, graph.adjacent)
    index = graph.index
    out.sort(key=lambda c: (len(c), sorted(index[v] for v in c)))
    return out


def coset_elements(gp, g, clique):
    """The element set of the coset g<<C>>, as a frozenset of normal forms."""
    elements = {g}
    expected = 1
    for hat in clique:
        _, *others = gp.hat_subset(hat)  # the identity comes first
        expected *= 1 + len(others)
        elements |= {gp.multiply(x, h) for x in elements for h in others}
    if len(elements) != expected:
        raise SoundnessError(
            "coset %s<<%s>> has %d elements, not %d"
            % (g, ",".join(sorted(clique)), len(elements), expected)
        )
    return frozenset(elements)


def std_subset(gp, clique):
    """The element set <<C>>, as a frozenset of normal forms."""
    return coset_elements(gp, gp.identity, clique)


def clique_at(gp, elements, at):
    """The clique C with elements = at<<C>>, read off at a member `at`: the
    hat letters h with at*h in the coset."""
    return frozenset(
        hat for hat, h in gp.hat_generators.items() if gp.multiply(at, h) in elements
    )


class CosetVertex:
    """A vertex g<<C>> of the complex.

    Identity is the element set: the same set of group elements can be
    written as a coset of <<C>> for several sign choices on infinite
    letters, and those writings all denote one vertex.  The stored rep is
    the (length, lex)-least element and the stored clique is the one
    recovered from rep^-1 * elements, which makes both canonical.
    """

    __slots__ = ("rep", "clique", "elements", "_hash")

    def __init__(self, rep, clique, elements):
        self.rep = rep
        self.clique = clique
        self.elements = elements
        self._hash = hash(elements)

    def __eq__(self, other):
        return isinstance(other, CosetVertex) and self.elements == other.elements

    def __hash__(self):
        return self._hash

    @property
    def max_length(self):
        return max(x.length for x in self.elements)

    def __repr__(self):
        return "CosetVertex(%s|{%s})" % (self.rep, ",".join(sorted(self.clique)))


def coset_vertex(gp, g, clique):
    """Canonicalized vertex g<<C>>; invariant under g -> g*h, h in <<C>>."""
    elements = coset_elements(gp, g, clique)
    rep = min(elements, key=gp.sort_key)
    canonical = clique_at(gp, elements, rep)
    if len(canonical) != len(clique):
        raise SoundnessError(
            "coset %s<<%s>> reads off clique %s" % (g, sorted(clique), sorted(canonical))
        )
    return CosetVertex(rep, canonical, elements)


def poset_leq(a, b):
    """Inclusion order on coset vertices."""
    return a.elements <= b.elements


@dataclass(frozen=True)
class Cube:
    """Interval [bottom, top]; the 2^dim intermediate vertices are
    materialized on demand."""

    bottom: CosetVertex
    top: CosetVertex
    dim: int


class SimplicialComplex:
    """Finite abstract simplicial complex: a vertex list and a set of faces
    closed under subsets (the empty face included)."""

    def __init__(self, vertices, faces):
        self.vertices = tuple(vertices)
        closed = {frozenset()}
        for f in faces:
            f = frozenset(f)
            for k in range(len(f) + 1):
                closed.update(map(frozenset, itertools.combinations(f, k)))
        self.faces = frozenset(closed)

    def has_face(self, f):
        return frozenset(f) in self.faces

    @property
    def maximal_faces(self):
        return [f for f in self.faces if not any(f < g for g in self.faces)]

    def skeleton_edges(self):
        return [f for f in self.faces if len(f) == 2]

    def join(self, other):
        return SimplicialComplex(
            self.vertices + other.vertices,
            [a | b for a in self.faces for b in other.faces],
        )

    def __eq__(self, other):
        return (
            isinstance(other, SimplicialComplex)
            and set(self.vertices) == set(other.vertices)
            and self.faces == other.faces
        )

    def __repr__(self):
        return "SimplicialComplex(%d vertices, %d faces)" % (
            len(self.vertices),
            len(self.faces) - 1,
        )


def is_flag(complex_):
    """True iff every pairwise-adjacent vertex set spans a face."""
    cs = _all_cliques(complex_.vertices, lambda a, b: complex_.has_face((a, b)))
    return all(complex_.has_face(c) for c in cs)


def flag_complex(graph):
    """The flag complex of a LabeledGraph: faces are its cliques."""
    return SimplicialComplex(graph.vertices, cliques(graph))


class CubeBall:
    """All vertices of the complex with coset max length <= radius, with
    every cube among them.  Immutable once built; queries are pure."""

    def __init__(self, graph, radius, max_elements=DEFAULT_ELEMENT_BUDGET):
        self.graph = graph
        self.radius = radius
        self.gp = GraphProduct(graph)
        self.delta = hat_graph(graph)
        self.cliques = cliques(self.delta)
        gp = self.gp

        elements = gp.enumerate_ball(radius, max_elements=max_elements)
        self._element_set = elements

        by_key = {}
        for g in elements:
            for c in self.cliques:
                candidate = coset_elements(gp, g, c)
                if candidate in by_key or not candidate <= elements:
                    continue
                by_key[candidate] = coset_vertex(gp, g, c)
        hat_index = self.delta.index
        self.vertices = sorted(
            by_key.values(),
            key=lambda v: (gp.sort_key(v.rep), sorted(hat_index[h] for h in v.clique)),
        )
        self._by_elements = {v.elements: v for v in self.vertices}

        self._interior = set()
        self._covers_up = {v: [] for v in self.vertices}
        for v in self.vertices:
            complete = True
            for c in self.cliques:
                if not v.clique < c:
                    continue
                w = self._by_elements.get(coset_elements(gp, v.rep, c))
                if w is None:
                    complete = False
                elif len(c) == len(v.clique) + 1:
                    self._covers_up[v].append(w)
            if complete:
                self._interior.add(v)

        seen = set()
        cubes = []
        for top in self.vertices:
            top_clique = sorted(top.clique, key=hat_index.__getitem__)
            for k in range(len(top_clique)):
                for sub in itertools.combinations(top_clique, k):
                    rest = top.clique - frozenset(sub)
                    for h in sorted(std_subset(gp, rest), key=gp.sort_key):
                        bottom = self._by_elements[
                            coset_elements(gp, gp.multiply(top.rep, h), frozenset(sub))
                        ]
                        key = (bottom.elements, top.elements)
                        if key not in seen:
                            seen.add(key)
                            cubes.append(Cube(bottom, top, len(top.clique) - k))
        cubes.sort(
            key=lambda c: (
                c.dim,
                gp.sort_key(c.bottom.rep),
                gp.sort_key(c.top.rep),
                sorted(hat_index[h] for h in c.top.clique),
            )
        )
        self.cubes = cubes
        self.edges = [c for c in cubes if c.dim == 1]
        self.squares = [c for c in cubes if c.dim == 2]

    # -- queries ---------------------------------------------------------------

    def vertex(self, elements):
        return self._by_elements[frozenset(elements)]

    def is_interior(self, v):
        return v in self._interior

    @property
    def interior_vertices(self):
        return [v for v in self.vertices if v in self._interior]

    def covers_up(self, v):
        return list(self._covers_up[v])

    def covers_down(self, v):
        """The vertices directly below v, grouped by the removed hat letter."""
        gp = self.gp
        out = {}
        for hat in sorted(v.clique, key=self.delta.index.__getitem__):
            rest = v.clique - {hat}
            out[hat] = [
                self._by_elements[coset_elements(gp, gp.multiply(v.rep, h), rest)]
                for h in sorted(gp.hat_subset(hat), key=gp.sort_key)
            ]
        return out

    def cubes_containing(self, v):
        return [
            c
            for c in self.cubes
            if c.bottom.elements <= v.elements and v.elements <= c.top.elements
        ]

    def cube_vertices(self, cube):
        """The 2^dim vertices of an interval cube.

        The top's clique is re-standardized at the bottom's rep first: the
        canonical cliques of the two endpoints may disagree in the signs of
        infinite letters.
        """
        gp = self.gp
        bottom = cube.bottom
        top_clique = clique_at(gp, cube.top.elements, bottom.rep)
        diff = sorted(top_clique - bottom.clique, key=self.delta.index.__getitem__)
        if len(diff) != cube.dim:
            raise SoundnessError("cube %r of dimension %d adds hats %r" % (cube, cube.dim, diff))
        out = [
            self._by_elements[coset_elements(gp, bottom.rep, bottom.clique | frozenset(extra))]
            for k in range(len(diff) + 1)
            for extra in itertools.combinations(diff, k)
        ]
        if len(set(out)) != 2 ** cube.dim:
            raise SoundnessError("cube %r has repeated vertices" % (cube,))
        return out


def build_ball(graph, radius, max_elements=DEFAULT_ELEMENT_BUDGET):
    return CubeBall(graph, radius, max_elements=max_elements)


@dataclass
class LinkDecomposition:
    """Link of a vertex, split into the join of its up- and down-parts."""

    complex: SimplicialComplex
    up: SimplicialComplex
    down: SimplicialComplex
    up_hats: dict  # up-link vertex -> hat letter added
    down_classes: dict  # hat letter of the clique -> list of down-link vertices


def vertex_link(ball, v):
    """The link of an interior vertex, with its up/down join decomposition.

    Simplices of the link correspond to cubes containing v; an up-link
    vertex is a cover above v, a down-link vertex a cover below.
    """
    if not ball.is_interior(v):
        raise NotInteriorError("link of %r is truncated by the ball boundary" % v)
    ups = ball.covers_up(v)
    up_hats = {}
    for w in ups:
        extra = clique_at(ball.gp, w.elements, v.rep) - v.clique
        if len(extra) != 1:
            raise SoundnessError("cover %r of %r adds hats %r" % (w, v, sorted(extra)))
        up_hats[w] = next(iter(extra))
    down_classes = ball.covers_down(v)
    downs = [d for members in down_classes.values() for d in members]

    faces = []
    for cube in ball.cubes_containing(v):
        face = {d for d in downs if cube.bottom.elements <= d.elements}
        face |= {w for w in ups if w.elements <= cube.top.elements}
        faces.append(face)
    link = SimplicialComplex(tuple(downs) + tuple(ups), faces)
    up = SimplicialComplex(ups, [f & set(ups) for f in faces])
    down = SimplicialComplex(downs, [f & set(downs) for f in faces])
    return LinkDecomposition(link, up, down, up_hats, down_classes)


def check_link_models(ball, v, link=None):
    """Verify the structure of the link of an interior vertex:

    * the link is the join of its up- and down-parts,
    * the up-link is isomorphic (via the added hat letter) to the link of
      the clique in the flag complex of the doubled graph,
    * the down-link is the join of discrete sets, one of size |<<s>>| per
      clique letter s.
    """
    link = link or vertex_link(ball, v)
    ok = link.complex == link.up.join(link.down)

    # up-link against the flag complex of the doubled graph
    delta = ball.delta
    hats = set(link.up_hats.values())
    ok = ok and len(hats) == len(link.up.vertices)
    expected_up_faces = set()
    for c in ball.cliques:
        if v.clique <= c and (c - v.clique) <= hats:
            expected_up_faces.add(frozenset(c - v.clique))
    inverse = {hat: w for w, hat in link.up_hats.items()}
    actual_up_faces = {
        frozenset(link.up_hats[w] for w in f) for f in link.up.faces
    }
    ok = ok and actual_up_faces == expected_up_faces
    ok = ok and all(
        frozenset(inverse[h] for h in f) in link.up.faces for f in expected_up_faces
    )

    # down-link as a join of discrete sets
    gp = ball.gp
    for hat, members in link.down_classes.items():
        ok = ok and len(set(members)) == len(gp.hat_subset(hat))
    transversals = {frozenset()}
    for members in link.down_classes.values():
        transversals = {
            t | extra for t in transversals for extra in ([frozenset()] + [frozenset([m]) for m in members])
        }
    ok = ok and link.down.faces == frozenset(transversals)
    return ok


def stabilizer(gp, v):
    """Elements fixing the vertex, i.e. permuting its coset; always finite."""
    sub = sorted(
        {gp.multiply(gp.invert(v.rep), x) for x in v.elements}, key=gp.sort_key
    )
    candidates = {
        gp.multiply(gp.multiply(v.rep, gp.multiply(q, gp.invert(p))), gp.invert(v.rep))
        for q in sub
        for p in sub
    }
    out = []
    for h in candidates:
        if frozenset(gp.multiply(h, x) for x in v.elements) == v.elements:
            out.append(h)
    if gp.identity not in out:
        raise SoundnessError("the identity does not fix %r" % (v,))
    return frozenset(out)


def fundamental_domain_check(ball):
    """Verify the ball is covered by translates of the base-point vertices
    <<C>> and report the orbit census.

    Every vertex must be rep * <<C'>> for a clique C' of the doubled graph,
    and two base-point vertices lie in one orbit exactly when their cliques
    differ only by sign flips on infinite letters.
    """
    gp = ball.gp
    census = {}
    ok = True
    for v in ball.vertices:
        rep_inv = gp.invert(v.rep)
        standardized = frozenset(gp.multiply(rep_inv, x) for x in v.elements)
        if standardized != std_subset(gp, v.clique):
            ok = False
        key = ",".join(sorted(v.clique, key=ball.delta.index.__getitem__))
        census[key] = census.get(key, 0) + 1
    orbit_keys = {
        frozenset(hat_base(ball.graph, hat)[0] for hat in v.clique)
        for v in ball.vertices
    }
    return {"ok": ok, "census": census, "orbit_classes": len(orbit_keys)}


# -- export ---------------------------------------------------------------------


def _vertex_label(ball, v):
    clique = ",".join(sorted(v.clique, key=ball.delta.index.__getitem__))
    return "%s|{%s}" % (v.rep, clique)


def ball_to_json(ball):
    from .morse import height  # local import to avoid a cycle

    vertices = [
        {
            "rep": str(v.rep),
            "clique": sorted(v.clique, key=ball.delta.index.__getitem__),
            "elements": sorted(str(x) for x in v.elements),
            "height": list(height(v)),
            "interior": ball.is_interior(v),
        }
        for v in ball.vertices
    ]
    cubes = [
        {
            "bottom": sorted(str(x) for x in c.bottom.elements),
            "top": sorted(str(x) for x in c.top.elements),
            "dim": c.dim,
        }
        for c in ball.cubes
    ]
    return {
        "graph": ball.graph.to_text(),
        "radius": ball.radius,
        "vertices": vertices,
        "cubes": cubes,
    }


def ball_to_dot(ball):
    ids = {v: "v%d" % i for i, v in enumerate(ball.vertices)}
    lines = ["graph ball {"]
    for v in ball.vertices:
        lines.append('  %s [label="%s"];' % (ids[v], _vertex_label(ball, v)))
    for e in ball.edges:
        lines.append("  %s -- %s;" % (ids[e.bottom], ids[e.top]))
    lines.append("}")
    return "\n".join(lines) + "\n"
