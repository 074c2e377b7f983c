"""Commensurability scaffolding for graph products of cyclic groups.

Two auxiliary presentations sit over a given defining graph:

* the doubled graph (each infinite generator split into two order-2
  letters) presents a graph product of finite cyclic groups, and
* an ambient graph keeps the finite generators, replaces each infinite
  generator s by an order-2 letter s+ and adds a second order-2 letter s0
  adjacent to everything but s+, so that s+ s0 has infinite order.

Both the original group and the doubled-graph group embed into the ambient
one (maps beta and alpha below), with one common "error" subgroup E
generated by the s0 letters.  Every ambient element factors uniquely as an
image under beta (or alpha) times an element of E, and the two cube
complexes become isomorphic after multiplying vertex cosets by E.  All of
this is checked on finite balls.
"""

from __future__ import annotations

import itertools

from .cubes import SoundnessError, build_ball, cliques, coset_elements, hat_graph
from .groups import (
    DEFAULT_ELEMENT_BUDGET,
    GraphProduct,
    LabeledGraph,
    hat_base,
)


def doubled_graph(graph):
    """The graph presenting the finite-cyclic-generator companion group;
    identical to the doubled graph underlying the cube complex."""
    return hat_graph(graph)


def _plus(s):
    return s + "+"


def _zero(s):
    return s + "0"


def ambient_graph(graph):
    """Finite generators kept; each infinite s becomes s+ (order 2) with
    the adjacency of s, plus s0 (order 2) adjacent to everything but s+."""
    names = list(graph.finite_vertices)
    for s in graph.infinite_vertices:
        names.extend((_plus(s), _zero(s)))
    orders = {s: graph.orders[s] for s in graph.finite_vertices}
    orders.update({_plus(s): 2 for s in graph.infinite_vertices})
    orders.update({_zero(s): 2 for s in graph.infinite_vertices})

    def image(s):
        return s if graph.is_finite(s) else _plus(s)

    edges = [
        (image(a), image(b))
        for a, b in (tuple(e) for e in graph.edges)
    ]
    for s in graph.infinite_vertices:
        for t in names:
            if t not in (_zero(s), _plus(s)):
                edges.append((_zero(s), t))
    return LabeledGraph(names, orders, set(map(frozenset, edges)))


class DJPair:
    """The ambient group with its two embedded companions and the subgroup E."""

    def __init__(self, graph):
        self.graph = graph
        self.gp = GraphProduct(graph)
        self.doubled = doubled_graph(graph)
        self.gp_doubled = GraphProduct(self.doubled)
        self.ambient = ambient_graph(graph)
        self.gp_ambient = GraphProduct(self.ambient)
        inf = graph.infinite_vertices
        self._e_elements = {
            frozenset(sub): self.e_hat(frozenset(sub))
            for k in range(len(inf) + 1)
            for sub in itertools.combinations(inf, k)
        }

    # -- the embeddings ---------------------------------------------------------

    def beta(self, g):
        """Embedding of the original group: finite s -> s, infinite
        s -> s+ s0."""
        out = []
        for s, e in g.letters:
            if self.graph.is_finite(s):
                out.append((s, e))
            elif e > 0:
                out.extend(((_plus(s), 1), (_zero(s), 1)) * e)
            else:
                out.extend(((_zero(s), 1), (_plus(s), 1)) * (-e))
        return self.gp_ambient.normalize(tuple(out))

    def alpha(self, g):
        """Embedding of the doubled-graph group: finite s -> s, s+ -> s+,
        s- -> s0 s+ s0."""
        out = []
        for hat, e in g.letters:
            base, sign = hat_base(self.graph, hat)
            if self.graph.is_finite(base):
                out.append((base, e))
            elif sign > 0:
                out.append((_plus(base), 1))
            else:
                out.extend(((_zero(base), 1), (_plus(base), 1), (_zero(base), 1)))
        return self.gp_ambient.normalize(tuple(out))

    # -- the subgroup E ----------------------------------------------------------

    def e_elements(self):
        """All of E, keyed by the subset of infinite generators involved."""
        return dict(self._e_elements)

    def e_hat(self, e):
        """The element of E attached to a set of infinite generators (the
        s0 letters commute, so the product needs no ordering)."""
        return self.gp_ambient.normalize(
            tuple((_zero(s), 1) for s in sorted(e))
        )

    # -- factorization -----------------------------------------------------------

    def factorize(self, g):
        """Unique writing g = beta(a) * e_hat(e); raises if the residual
        check fails (it cannot, for honest inputs).  The letters of a are
        collected in one pass and normalized once."""
        out = []
        e = set()
        for x, k in g.letters:
            if x in self.graph.orders:
                out.append((x, k))
            elif x.endswith("+"):
                s = x[:-1]
                if k % 2:
                    out.append((s, -1 if s in e else 1))
                    e ^= {s}
            elif k % 2:
                e ^= {x[:-1]}
        a = self.gp.normalize(tuple(out))
        e = frozenset(e)
        if self.gp_ambient.multiply(self.beta(a), self._e_elements[e]) != g:
            raise SoundnessError("factorization failed for %s" % g)
        return a, e

    def factorize_doubled(self, g):
        """Unique writing g = alpha(a) * e_hat(e) over the doubled graph,
        with the letters of a normalized once as in factorize."""
        out = []
        e = set()
        for x, k in g.letters:
            if x in self.graph.orders:
                out.append((x, k))
            elif x.endswith("+"):
                s = x[:-1]
                if k % 2:
                    out.append((s + ("-" if s in e else "+"), 1))
            elif k % 2:
                e ^= {x[:-1]}
        a = self.gp_doubled.normalize(tuple(out))
        e = frozenset(e)
        if self.gp_ambient.multiply(self.alpha(a), self._e_elements[e]) != g:
            raise SoundnessError("factorization failed for %s" % g)
        return a, e


# -- the common coset complex -------------------------------------------------------


def _saturate(pair, elements):
    """Multiply a set of ambient elements by all of E on the right."""
    gp2 = pair.gp_ambient
    es = pair._e_elements.values()
    return frozenset(gp2.multiply(x, e) for x in elements for e in es)


def build_y_ball(pair, radius, max_elements=DEFAULT_ELEMENT_BUDGET):
    """Vertices of the common complex: sets g * <<C>> * E in the ambient
    group whose members all have original-group part of length <= radius.

    Every member of such a set has ambient length at most
    2*radius + #infinite generators, so scanning the ambient ball of that
    radius finds each vertex at least once.  A set contains its rep g, so
    reps whose own original-group part is longer than radius are skipped
    before any set is formed.  Each element is factorised, and its E-orbit
    formed, once per call.
    """
    graph = pair.graph
    gp2 = pair.gp_ambient
    reach = 2 * radius + len(graph.infinite_vertices)
    big = gp2.enumerate_ball(reach, max_elements=max_elements)
    # one clique of the doubled graph per sign pattern is enough: the E
    # factor washes the signs out
    plus_cliques = [
        c
        for c in cliques(pair.doubled)
        if not any(hat.endswith("-") for hat in c)
    ]
    lengths = {}
    orbits = {}
    es = pair._e_elements.values()

    def short(x):
        if x not in lengths:
            lengths[x] = pair.factorize(x)[0].length
        return lengths[x] <= radius

    def orbit(x):
        if x not in orbits:
            orbits[x] = frozenset(gp2.multiply(x, e) for e in es)
        return orbits[x]

    out = set()
    for g in sorted(big, key=gp2.sort_key):
        if not short(g):
            continue
        for c in plus_cliques:
            members = frozenset().union(*map(orbit, coset_elements(gp2, g, c)))
            if members not in out and all(map(short, members)):
                out.add(members)
    return out


def iso_check(graph, radius, max_elements=DEFAULT_ELEMENT_BUDGET):
    """Certify on radius-r balls that the two cube complexes have one common
    E-saturated model: the vertex maps v -> beta(v)*E and v -> alpha(v)*E
    are inclusion-preserving bijections onto the same vertex set."""
    pair = DJPair(graph)
    ball = build_ball(graph, radius, max_elements=max_elements)
    ball_doubled = build_ball(pair.doubled, radius, max_elements=max_elements)
    y = build_y_ball(pair, radius, max_elements=max_elements)

    image = {
        v: _saturate(pair, {pair.beta(x) for x in v.elements})
        for v in ball.vertices
    }
    image_doubled = {
        v: _saturate(pair, {pair.alpha(x) for x in v.elements})
        for v in ball_doubled.vertices
    }
    report = {
        "vertices": len(ball.vertices),
        "vertices_doubled": len(ball_doubled.vertices),
        "vertices_common": len(y),
        "injective": len(set(image.values())) == len(ball.vertices),
        "injective_doubled": len(set(image_doubled.values()))
        == len(ball_doubled.vertices),
        "onto_common": set(image.values()) == y,
        "onto_common_doubled": set(image_doubled.values()) == y,
        "edges": len(ball.edges),
        "edges_doubled": len(ball_doubled.edges),
    }
    order_ok = True
    for u, v in itertools.combinations(ball.vertices, 2):
        for a, b in ((u, v), (v, u)):
            if (a.elements <= b.elements) != (image[a] <= image[b]):
                order_ok = False
    for u, v in itertools.combinations(ball_doubled.vertices, 2):
        for a, b in ((u, v), (v, u)):
            if (a.elements <= b.elements) != (image_doubled[a] <= image_doubled[b]):
                order_ok = False
    report["order_preserved"] = order_ok
    report["ok"] = (
        report["injective"]
        and report["injective_doubled"]
        and report["onto_common"]
        and report["onto_common_doubled"]
        and report["order_preserved"]
        and report["edges"] == report["edges_doubled"]
    )
    return report
