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

from .cubes import SoundnessError, build_ball, cliques, maximal_cliques
from .groups import DEFAULT_ELEMENT_BUDGET, BudgetExceededError, GraphProduct, LabeledGraph


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


def dimensions(graph):
    """The largest cube dimension of the original, doubled and ambient
    complexes: the most letters in one clique of each one's doubled graph,
    read off the cliques of the graph alone.

    A clique of the doubled graph takes one hat letter of each generator of
    a clique of the graph, so the first two are the largest clique.  The
    ambient graph is its own doubled graph; its cliques are Z + Q', for Q'
    the image of a clique Q of the graph and Z a set of s0 letters with s0
    not in Z when s+ is in Q', as s0 commutes with all but s+.  The largest
    takes every s0 but those of Q's infinite generators, so it has #inf
    letters plus one per finite generator of Q.  Both maxima grow with Q,
    so only the maximal cliques of the graph are read.
    """
    cs = maximal_cliques(graph)
    most = max(map(len, cs))
    finite = max(sum(map(graph.is_finite, c)) for c in cs)
    return {
        "original": most,
        "doubled": most,
        "ambient": len(graph.infinite_vertices) + finite,
    }


def plus_cliques(pair, most=None):
    """One clique of the doubled graph per clique of the graph with at most
    `most` generators (all of them when None), each infinite s read as s+:
    in build_y_ball the E factor washes the signs out, so no other sign
    pattern is needed."""
    hats = pair.gp.base_hats
    return [frozenset(hats[s][0] for s in c) for c in cliques(pair.graph, most)]


class DJPair:
    """The ambient group with its two embedded companions and the subgroup E."""

    def __init__(self, graph):
        self.graph = graph
        self.gp = GraphProduct(graph)
        self.doubled = self.gp.doubled
        self.gp_doubled = GraphProduct(self.doubled)
        self.ambient = ambient_graph(graph)
        self.gp_ambient = GraphProduct(self.ambient)

    # -- the embeddings ---------------------------------------------------------

    def beta(self, g):
        """Embedding of the original group: finite s -> s, infinite
        s -> s+ s0.  The image is built from the identity one ambient
        letter at a time."""
        times = self.gp_ambient.times
        x = self.gp_ambient.identity
        for s, e in g.letters:
            if self.graph.is_finite(s):
                x = times(x, s, e)
                continue
            first, second = (_plus(s), _zero(s)) if e > 0 else (_zero(s), _plus(s))
            for _ in range(abs(e)):
                x = times(times(x, first, 1), second, 1)
        return x

    def alpha(self, g):
        """Embedding of the doubled-graph group: finite s -> s, s+ -> s+,
        s- -> s0 s+ s0, built one ambient letter at a time as in beta."""
        times = self.gp_ambient.times
        x = self.gp_ambient.identity
        for hat, e in g.letters:
            base = self.gp.base_of[hat]
            if self.graph.is_finite(base):
                x = times(x, base, e)
            elif hat == self.gp.base_hats[base][0]:
                x = times(x, _plus(base), 1)
            else:
                x = times(times(times(x, _zero(base), 1), _plus(base), 1), _zero(base), 1)
        return x

    # -- the subgroup E ----------------------------------------------------------

    def times_e(self, x, e):
        """x times the element of E attached to a set e of infinite
        generators, the product of their s0, one s0 letter at a time (the s0
        letters commute, so the product needs no ordering)."""
        for s in e:
            x = self.gp_ambient.times(x, _zero(s), 1)
        return x

    # -- factorization -----------------------------------------------------------

    def factorize(self, g):
        """Unique writing g = times_e(beta(a), e), for a set e of infinite
        generators; raises if the residual check fails (it cannot, for
        honest inputs).  The letters of a are collected in one pass and
        normalized once."""
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
        if self.times_e(self.beta(a), e) != g:
            raise SoundnessError("factorization failed for %s" % g)
        return a, e

    def factorize_doubled(self, g):
        """Unique writing g = times_e(alpha(a), e) over the doubled graph,
        with the letters of a normalized once as in factorize."""
        out = []
        e = set()
        for x, k in g.letters:
            if x in self.graph.orders:
                out.append((x, k))
            elif x.endswith("+"):
                s = x[:-1]
                if k % 2:
                    plus, minus = self.gp.base_hats[s]
                    out.append((minus if s in e else plus, 1))
            elif k % 2:
                e ^= {x[:-1]}
        a = self.gp_doubled.normalize(tuple(out))
        e = frozenset(e)
        if self.times_e(self.alpha(a), e) != g:
            raise SoundnessError("factorization failed for %s" % g)
        return a, e


# -- the common coset complex -------------------------------------------------------


def _saturate(pair, elements):
    """Multiply a set of ambient elements by all of E on the right, one s0
    letter at a time."""
    times = pair.gp_ambient.times
    out = set(elements)
    for s in pair.graph.infinite_vertices:
        out |= {times(x, _zero(s), 1) for x in out}
    return frozenset(out)


def build_y_ball(pair, radius, max_elements=DEFAULT_ELEMENT_BUDGET):
    """Vertices of the common complex: sets g * <<C>> * E in the ambient
    group whose members all have original-group part of length <= radius.

    Orbits.  Every ambient element is x = beta(a) * e for one a of the
    original group and one e in E (factorize); x is short if |a| <= radius.
    E is abelian, so x * f = beta(a) * (e ^ f): an E-orbit shares its part,
    and the search's nodes are orbits.  When a short x is first reached,
    its 2^#inf members x * f are formed, one s0 letter each, and each is
    counted against max_elements as it is formed; the orbit is checked
    once, times_e(beta(a), e) == x, or a SoundnessError.  The member x * f
    is named by its offset f, the generators whose s0 it adds.

    Parts.  Only x * u^k (finite u, 0 < k < |u|) and x * s0^eps * s+
    (infinite s, eps in {0, 1}) are formed, from the orbit's first member
    x = beta(a) * e, and each carries its part instead of factorising:
    x * u^k = beta(a * u^k) * e, as u commutes with every s0; and with
    e' = e ^ eps{s}, x * s0^eps * s+ = beta(a * s^sigma) * (e' ^ {s}),
    sigma = -1 iff s is in e', as beta(s) = s+ s0, beta(s^-1) = s0 s+ and
    s+ commutes with t0 for t != s.  A product not yet reached costs one
    original-group times for its part and is a new orbit iff that part is
    short.  Every other member's moves follow from its offset f:
    (x * f) * u^k = (x * u^k) * f, and (x * f) * s+ =
    (x * s0^eps * s+) * (f - {s}) with eps = [s in f].  Each prefix a' of
    the normal form of a short part is short, and a' * u^k and a' * s^+-1
    are one move from a' (eps picks the sign), so every short orbit is
    reached.  When x * u is not short, |a * u| > radius >= |a| says that a
    does not end in u, so no a * u^k is short and no other power is formed.

    Cliques.  A set g<<C>>E, for a plus clique C, is kept iff every member
    of the coset g<<C>>, read off the moves, is short; it is the union of
    the orbits of the coset's nodes.  The coset's parts form a coset
    P = a<<C'>> of the original group, C' the signed letters the moves
    add, and P holds an element of length >= |C'| = |C| (see CubeBall),
    so only plus cliques of at most radius generators are read.  Each is
    read at each orbit's first member only.  The search is breadth first
    and a move changes the part's length by at most one, so a first member
    is reached by moves that each lengthen the part.  The last of them in
    s leaves it the bit of s whose s+ move steps back, and later u or t+
    moves keep that bit.  That last step has the sign of the last syllable
    in s of the part, for the longest element p of P the sign of s in C'.
    So at the first member x of p's orbit, every s+ move of C stays in P,
    and x<<C>>E = g<<C>>E.

    Every product is one letter put into a normal form by
    GraphProduct.times, so no word of either group is normalized.
    """
    members, step = _orbit_search(pair, radius, max_elements)
    n = len(pair.graph.infinite_vertices)
    orbits = [frozenset(orbit) for orbit in members]
    out = set()
    for c in plus_cliques(pair, radius):
        for first in range(0, len(members) << n, 1 << n):
            coset = [first]
            for h in c:
                nodes = [step(node, h) for node in coset]
                if None in nodes:
                    break
                coset += [node for found in nodes for node in found]
            else:
                out.add(frozenset().union(*(orbits[node >> n] for node in coset)))
    return out


def _orbit_search(pair, radius, max_elements):
    """The short E-orbits reached from the identity, and their moves, as
    build_y_ball describes: (members, step), with members[i] the members of
    orbit i indexed by offset, and step(node, h) the nodes of g * h^k,
    k = 1, ..., |<<h>>| - 1, for the node of g and a plus letter h (u or
    s+), or None if one of them is not short.  The node of members[i][f]
    is i << #inf | f."""
    gp, gp2 = pair.gp, pair.gp_ambient
    graph = pair.graph
    infinite = graph.infinite_vertices
    n = len(infinite)
    low = (1 << n) - 1  # the offset bits of a node
    bit = {_plus(s): 1 << k for k, s in enumerate(infinite)}
    zeros = [_zero(s) for s in infinite]
    members = []  # orbit -> its members, indexed by offset
    parts = []  # orbit -> (a, e) of its first member beta(a) * e, e a bitmask
    node_of = {}  # element -> orbit << n | offset

    def reach(x, a, e):
        # the orbit of a short x = beta(a) * e, e a bitmask: its first node
        if pair.times_e(pair.beta(a), [s for k, s in enumerate(infinite) if e >> k & 1]) != x:
            raise SoundnessError("orbit of %s has no part %s" % (x, a))
        orbit = []
        for f in range(1 << n):
            if len(node_of) + f >= max_elements:
                raise BudgetExceededError(
                    "common complex of radius %d exceeds %d elements"
                    % (radius, max_elements)
                )
            last = f & -f  # the member x * f is x * (f - last), times one s0
            orbit.append(gp2.times(orbit[f ^ last], zeros[last.bit_length() - 1], 1) if f else x)
        first = len(members) << n
        node_of.update(zip(orbit, range(first, first + len(orbit))))
        members.append(orbit)
        parts.append((a, e))
        return first

    reach(gp2.identity, gp.identity, 0)
    # moves[i][h]: the nodes of x * h^k, k = 1, 2, ..., for the first member
    # x of orbit i and a finite u = h, or None if x * u is not short; for
    # h = s+, the node of x * s0^eps * s+ (or None) for eps = 0, 1
    moves = []
    while len(moves) < len(members):
        orbit = members[len(moves)]
        a, e = parts[len(moves)]
        row = {}
        for u in graph.finite_vertices:
            nodes = []
            y = orbit[0]
            for k in range(1, graph.orders[u]):
                y = gp2.times(y, u, 1)
                node = node_of.get(y)
                if node is None:
                    b = gp.times(a, u, k)
                    if b.length > radius:
                        nodes = None
                        break
                    node = reach(y, b, e)
                nodes.append(node)
            row[u] = nodes
        for s in infinite:
            plus = _plus(s)
            nodes = []
            for eps in (0, bit[plus]):
                y = gp2.times(orbit[eps], plus, 1)
                node = node_of.get(y)
                if node is None:
                    f = e ^ eps
                    b = gp.times(a, s, -1 if f & bit[plus] else 1)
                    node = reach(y, b, f ^ bit[plus]) if b.length <= radius else None
                nodes.append(node)
            row[plus] = nodes
        moves.append(row)

    def step(node, h):
        nodes = moves[node >> n][h]
        offset = node & low
        if h in bit:
            target = nodes[1 if offset & bit[h] else 0]
            return None if target is None else (target ^ (offset & ~bit[h]),)
        return None if nodes is None else [target ^ offset for target in nodes]

    return members, step


def _images(pair, vertices, embed):
    """v -> embed(v) * E for each vertex, with embed(x) * E formed once per
    element x rather than once per vertex holding x."""
    saturated = {}
    for v in vertices:
        for x in v.elements:
            if x not in saturated:
                saturated[x] = _saturate(pair, (embed(x),))
    return {v: frozenset().union(*(saturated[x] for x in v.elements)) for v in vertices}


def order_preserved(vertices, image):
    """True iff u <= v exactly when image[u] <= image[v], over all pairs of
    vertices (element sets ordered by inclusion).

    For each u both sides are read among few candidates: every v above u
    holds u.rep, and every v whose image lies above image[u] holds any one
    fixed element of image[u].  So the two up-sets of u are compared whole,
    in O(V * k) set tests for k the most vertices holding one element.
    """
    holders = {}
    image_holders = {}
    for v in vertices:
        for x in v.elements:
            holders.setdefault(x, []).append(v)
        for z in image[v]:
            image_holders.setdefault(z, []).append(v)
    for u in vertices:
        up = {v for v in holders[u.rep] if u.elements <= v.elements}
        fu = image[u]
        up_image = {v for v in image_holders[next(iter(fu))] if fu <= image[v]}
        if up != up_image:
            return False
    return True


def iso_check(graph, radius, max_elements=DEFAULT_ELEMENT_BUDGET):
    """Certify on radius-r balls that the two cube complexes have one common
    E-saturated model: the vertex maps v -> beta(v)*E and v -> alpha(v)*E
    are inclusion-preserving bijections onto the same vertex set."""
    pair = DJPair(graph)
    ball = build_ball(graph, radius, max_elements=max_elements)
    ball_doubled = build_ball(pair.doubled, radius, max_elements=max_elements)
    y = build_y_ball(pair, radius, max_elements=max_elements)

    image = _images(pair, ball.vertices, pair.beta)
    image_doubled = _images(pair, ball_doubled.vertices, pair.alpha)
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
    report["order_preserved"] = (
        order_preserved(ball.vertices, image)
        and order_preserved(ball_doubled.vertices, image_doubled)
    )
    report["ok"] = (
        report["injective"]
        and report["injective_doubled"]
        and report["onto_common"]
        and report["onto_common_doubled"]
        and report["order_preserved"]
        and report["edges"] == report["edges_doubled"]
    )
    return report
