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


def plus_cliques(pair):
    """One clique of the doubled graph per clique of the graph, each
    infinite s read as s+: in build_y_ball the E factor washes the signs
    out, so no other sign pattern is needed."""
    hats = pair.gp.base_hats
    return [frozenset(hats[s][0] for s in c) for c in cliques(pair.graph)]


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

    Call an ambient element short if the a of its factorisation beta(a) * e
    has length <= radius.  A search from the identity moves by every
    non-identity element of each ambient hat subset (u, u^2, s+, s0) and
    keeps what it reaches only if it is short.  It reaches every short
    element x = beta(a) * e: walk the ambient letters of the word beta
    writes for the normal form a (s -> s+ s0, s^-1 -> s0 s+, finite letters
    as they are), then the s0 letters of e.  A prefix ending inside beta(a)
    is beta(a'), beta(a') * s0 or beta(a') * s+ = beta(a' s) * s0 with a'
    (and a' s) a prefix of the normal form a, so its part is no longer than
    a; a prefix beyond it has part a.  Every prefix is short, so the search
    follows the walk.  max_elements bounds the short elements reached.

    One factorisation serves a whole E-orbit: x = beta(a) * e_x gives
    x * e = beta(a) * (e_x ^ e), since E is abelian, so the members of the
    orbit, formed once, share the part a.  A candidate set g<<C>>E, for g
    reached and C a clique, is kept iff every element of the coset g<<C>>
    is short; the coset is read off the search's moves (<<C>> is a group of
    commuting hat subsets) and saturated with the cached orbits.

    Only a finite u has more than one power, and when x * u is not short
    no x * u^k is, so its other powers are neither formed nor factorised:
    u commutes with every s0, so x * u^k = beta(a * u^k) * e has the part
    a * u^k, and |a * u| > radius >= |a| says that a does not end in u,
    so every a * u^k is |a| + 1 long.  The search thus keeps one move per
    hat, the letter of its generator and its |<<h>>| - 1 powers, formed
    one product at a time, and lists no power of a hat it cannot take.

    Every move is one ambient letter, and every orbit member one s0 letter
    more, so the search forms its products with GraphProduct.times and
    normalizes no ambient word; factorize's residual check is built the
    same way.
    """
    gp2 = pair.gp_ambient
    # (hat, s, e, n) for each hat: the letter s^e of its generator and its n
    # non-identity powers
    moves = [
        (hat, *h.letters[0], gp2.doubled.orders[hat] - 1)
        for hat, h in gp2.hat_generators.items()
    ]
    part = {}  # element -> length of its original-group part
    orbit = {}  # element -> its E-orbit

    def factor(x):
        a, _ = pair.factorize(x)
        members = _saturate(pair, (x,))
        for y in members:
            part[y] = a.length
            orbit[y] = members

    # reached[i] is short; right[i][h] lists reached[i] * h^j for the hat h
    # and j = 1, 2, ..., or is None if reached[i] * h is not short
    factor(gp2.identity)
    reached = [gp2.identity]
    index = {gp2.identity: 0}
    right = []
    while len(right) < len(reached):
        x = reached[len(right)]
        row = {}
        for hat, s, e, n in moves:
            powers = []
            y = x
            for _ in range(n):
                y = gp2.times(y, s, e)
                if y not in part:
                    factor(y)
                if part[y] > radius:
                    powers = None
                    break
                if y not in index:
                    index[y] = len(reached)
                    reached.append(y)
                    if len(reached) > max_elements:
                        raise BudgetExceededError(
                            "common complex of radius %d exceeds %d elements"
                            % (radius, max_elements)
                        )
                powers.append(y)
            row[hat] = powers
        right.append(row)

    out = set()
    for c in plus_cliques(pair):
        done = set()  # elements of a coset of <<C>> already formed
        for g in reached:
            if g in done:
                continue
            coset = [g]
            for h in c:
                powers = [right[index[x]][h] for x in coset]
                if None in powers:
                    break
                coset += [y for p in powers for y in p]
            else:
                out.add(frozenset().union(*(orbit[x] for x in coset)))
            done.update(coset)
    return out


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
