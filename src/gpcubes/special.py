"""Hyperplanes, edge labels, and specialness certificates on cube balls.

Every edge of the complex gets a label (hat letter, trailing power): the hat
letter is the one added when passing from the bottom coset to the top one
(standardized at the bottom's rep), and the power is the exponent of the
trailing letter of that base in the bottom's rep (zero when the rep does not
end in that base).  Edges dual to one hyperplane carry one label, and the
specialness conditions below are phrased through labels so they stay
checkable on a finite ball.
"""

from __future__ import annotations

from .cubes import SoundnessError, clique_at
from .groups import hat_base


def edge_hat(ball, edge):
    """The hat letter an edge adds, standardized at the bottom's rep."""
    (hat,) = clique_at(ball.gp, edge.top.elements, edge.bottom.rep) - edge.bottom.clique
    return hat


def trailing_power(gp, g, base):
    """Exponent of the letter of the given base movable to the end of g,
    zero when there is none."""
    if base not in gp.end_letters(g):
        return 0
    for s, e in reversed(g.letters):
        if s == base:
            return e
    raise SoundnessError("end letter without a letter")  # pragma: no cover


def full_label(ball, edge):
    """(hat letter, trailing power of its base in the bottom rep)."""
    hat = edge_hat(ball, edge)
    base, _ = hat_base(ball.graph, hat)
    return (hat, trailing_power(ball.gp, edge.bottom.rep, base))


def hat_label(ball, edge):
    """Coarser label: the hat letter alone (too coarse to certify
    specialness; kept for the certificate's census)."""
    return edge_hat(ball, edge)


def base_label(ball, edge):
    """Coarser label that forgets the sign of infinite letters (useful as a
    deliberately broken labelling in negative controls)."""
    hat, k = full_label(ball, edge)
    return (hat_base(ball.graph, hat)[0], k)


def _edge_key(edge):
    return (edge.bottom.elements, edge.top.elements)


def _square_edges(ball, square):
    """The four boundary edges of a 2-cube, as dim-1 cubes of the ball,
    paired so that [0] is parallel to [1] and [2] to [3]."""
    b, m1, m2, t = ball.cube_vertices(square)
    by_key = {_edge_key(e): e for e in ball.edges}
    quad = [(b, m1), (m2, t), (b, m2), (m1, t)]
    return [by_key[(lo.elements, hi.elements)] for lo, hi in quad]


class _UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        parent = self.parent
        if x not in parent:
            parent[x] = x
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, x, y):
        self.parent[self.find(x)] = self.find(y)


class Hyperplane:
    """A class of edges glued along opposite sides of squares."""

    def __init__(self, edges, interior):
        self.edges = tuple(edges)
        self.interior = interior

    def __len__(self):
        return len(self.edges)

    def __repr__(self):
        return "Hyperplane(%d edges%s)" % (
            len(self.edges),
            "" if self.interior else ", truncated",
        )


def hyperplanes(ball):
    """All hyperplanes of the ball.  A hyperplane is interior when every
    dual edge has an interior top, so no square along it can be missing."""
    uf = _UnionFind()
    for e in ball.edges:
        uf.find(_edge_key(e))
    for sq in ball.squares:
        e0, e1, e2, e3 = _square_edges(ball, sq)
        uf.union(_edge_key(e0), _edge_key(e1))
        uf.union(_edge_key(e2), _edge_key(e3))
    classes = {}
    for e in ball.edges:
        classes.setdefault(uf.find(_edge_key(e)), []).append(e)
    out = []
    for members in classes.values():
        interior = all(ball.is_interior(e.top) for e in members)
        out.append(Hyperplane(members, interior))
    out.sort(key=lambda h: min(ball.gp.sort_key(e.bottom.rep) for e in h.edges))
    return out


def check_special(ball, label_fn=None):
    """Certify the specialness conditions observable on the ball:

    1. no square has both directions in one hyperplane (no self-crossing),
    2. no two distinct edges at a common vertex carry one label
       (no self-osculation, in the labelled reading),
    3. the two hat letters of every square are adjacent in the doubled graph,
    4. two edges at a common interior vertex whose hat letters have adjacent
       bases span a square (crossing hyperplanes through one vertex cross
       there; no inter-osculation).

    A custom label_fn (ball, edge) -> hashable serves as a negative control:
    a labelling that conflates distinct hyperplanes must fail condition 2.
    """
    label_fn = label_fn or full_label
    failures = []
    report = {
        "edges": len(ball.edges),
        "squares": len(ball.squares),
        "no_self_crossing": True,
        "no_label_osculation": True,
        "square_hats_adjacent": True,
        "crossings_realized": True,
        "failures": failures,
    }

    uf = _UnionFind()
    for e in ball.edges:
        uf.find(_edge_key(e))
    for sq in ball.squares:
        e0, e1, e2, e3 = _square_edges(ball, sq)
        uf.union(_edge_key(e0), _edge_key(e1))
        uf.union(_edge_key(e2), _edge_key(e3))

    labels = {_edge_key(e): label_fn(ball, e) for e in ball.edges}

    for sq in ball.squares:
        e0, _, e2, _ = _square_edges(ball, sq)
        if uf.find(_edge_key(e0)) == uf.find(_edge_key(e2)):
            report["no_self_crossing"] = False
            failures.append("square %r crossed twice by one hyperplane" % (sq,))
        h1, h2 = edge_hat(ball, e0), edge_hat(ball, e2)
        if not ball.delta.adjacent(h1, h2):
            report["square_hats_adjacent"] = False
            failures.append("square %r with non-adjacent hats %r, %r" % (sq, h1, h2))

    incident = {v: [] for v in ball.vertices}
    for e in ball.edges:
        incident[e.bottom].append(e)
        incident[e.top].append(e)

    for v in ball.vertices:
        edges = incident[v]
        for i, e1 in enumerate(edges):
            for e2 in edges[i + 1 :]:
                if labels[_edge_key(e1)] == labels[_edge_key(e2)]:
                    report["no_label_osculation"] = False
                    failures.append(
                        "label %r repeats at vertex %r" % (labels[_edge_key(e1)], v)
                    )

    square_edge_keys = [
        frozenset(map(_edge_key, _square_edges(ball, sq))) for sq in ball.squares
    ]
    for v in ball.interior_vertices:
        edges = incident[v]
        for i, e1 in enumerate(edges):
            b1 = hat_base(ball.graph, edge_hat(ball, e1))[0]
            for e2 in edges[i + 1 :]:
                b2 = hat_base(ball.graph, edge_hat(ball, e2))[0]
                if b1 == b2 or not ball.graph.adjacent(b1, b2):
                    continue
                wanted = {_edge_key(e1), _edge_key(e2)}
                if not any(wanted <= keys for keys in square_edge_keys):
                    report["crossings_realized"] = False
                    failures.append(
                        "edges %r, %r at %r span no square" % (e1, e2, v)
                    )

    hps = hyperplanes(ball)
    report["hyperplanes"] = len(hps)
    report["interior_hyperplanes"] = sum(1 for h in hps if h.interior)
    report["hyperplane_labels_constant"] = all(
        len({labels[_edge_key(e)] for e in h.edges}) == 1 for h in hps if h.interior
    )
    report["label_census"] = {
        "full": len({full_label(ball, e) for e in ball.edges}),
        "hat": len({hat_label(ball, e) for e in ball.edges}),
        "base": len({base_label(ball, e) for e in ball.edges}),
    }
    report["truncation"] = (
        None
        if report["interior_hyperplanes"] == len(hps)
        else "%d hyperplane(s) touch the ball boundary; only violations found "
        "there are conclusive" % (len(hps) - report["interior_hyperplanes"])
    )
    report["ok"] = (
        report["no_self_crossing"]
        and report["no_label_osculation"]
        and report["square_hats_adjacent"]
        and report["crossings_realized"]
        and report["hyperplane_labels_constant"]
    )
    return report


# -- torsion quotient and the action of its kernel --------------------------------


def torsion_projection(gp, g):
    """Image of g in the direct sum of the finite cyclic vertex groups:
    exponent sums modulo the orders, infinite letters killed."""
    sums = {s: 0 for s in gp.graph.finite_vertices}
    for s, e in g.letters:
        if s in sums:
            sums[s] = (sums[s] + e) % gp.graph.order(s)
    return tuple(sums[s] for s in gp.graph.finite_vertices)


def check_free_kernel_action(ball):
    """The kernel of the torsion projection must act freely: no nontrivial
    vertex stabilizer element may project to zero."""
    from .cubes import stabilizer

    gp = ball.gp
    zero = torsion_projection(gp, gp.identity)
    failures = []
    checked = 0
    for v in ball.vertices:
        for h in stabilizer(gp, v):
            checked += 1
            if not h.is_identity and torsion_projection(gp, h) == zero:
                failures.append("kernel element %s fixes %r" % (h, v))
    return {"ok": not failures, "checked": checked, "failures": failures}
