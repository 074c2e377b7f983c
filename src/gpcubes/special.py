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


def trailing_power(gp, g, base):
    """Exponent of the letter of the given base movable to the end of g,
    zero when there is none.  One scan back from the end: it stops at the
    first letter of the base, or at the first letter that does not commute
    with the base and so keeps any earlier one from moving past it."""
    adjacent = gp.graph.adjacent
    for s, e in reversed(g.letters):
        if s == base:
            return e
        if not adjacent(s, base):
            return 0
    return 0


def full_label(ball, edge):
    """(hat letter, trailing power of its base in the bottom rep)."""
    hat = ball.edge_hat(edge.bottom, edge.top)
    return (hat, trailing_power(ball.gp, edge.bottom.rep, ball.gp.base_of[hat]))


def _edge_index(ball):
    """Position in ball.edges of each edge, keyed by (bottom, top)."""
    return {(e.bottom, e.top): i for i, e in enumerate(ball.edges)}


def _square_edges(ball, index):
    """The positions in ball.edges of each square's four boundary edges,
    paired so that [0] is parallel to [1] and [2] to [3]."""
    out = []
    for sq in ball.squares:
        b, m1, m2, t = ball.cube_vertices(sq)
        out.append([index[lo, hi] for lo, hi in ((b, m1), (m2, t), (b, m2), (m1, t))])
    return out


def _edge_roots(ball, quads):
    """Each edge's class representative under gluing the opposite sides of
    every square: one union-find over edge positions."""
    parent = list(range(len(ball.edges)))

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for e0, e1, e2, e3 in quads:
        parent[find(e0)] = find(e1)
        parent[find(e2)] = find(e3)
    return [find(i) for i in range(len(parent))]


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


def hyperplanes(ball, roots=None):
    """All hyperplanes of the ball, in the order of their first edges in
    ball.edges.  ball.edges is sorted by bottom rep first, so that is the
    order of each hyperplane's least bottom rep.  A hyperplane is interior
    when every dual edge has an interior top, so no square along it can be
    missing.  roots is _edge_roots of the ball, when the caller has it
    already."""
    if roots is None:
        roots = _edge_roots(ball, _square_edges(ball, _edge_index(ball)))
    classes = {}
    for e, root in zip(ball.edges, roots):
        classes.setdefault(root, []).append(e)
    return [
        Hyperplane(members, all(ball.is_interior(e.top) for e in members))
        for members in classes.values()
    ]


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

    edges = ball.edges
    index = _edge_index(ball)
    quads = _square_edges(ball, index)
    roots = _edge_roots(ball, quads)
    fulls = [full_label(ball, e) for e in edges]
    labels = fulls if label_fn is None else [label_fn(ball, e) for e in edges]
    bases = [ball.gp.base_of[hat] for hat, _ in fulls]

    corners = set()
    for sq, (e0, e1, e2, e3) in zip(ball.squares, quads):
        if roots[e0] == roots[e2]:
            report["no_self_crossing"] = False
            failures.append("square %r crossed twice by one hyperplane" % (sq,))
        h1, h2 = fulls[e0][0], fulls[e2][0]
        if not ball.delta.adjacent(h1, h2):
            report["square_hats_adjacent"] = False
            failures.append("square %r with non-adjacent hats %r, %r" % (sq, h1, h2))
        for i, j in ((e0, e2), (e0, e3), (e1, e2), (e1, e3)):
            corners.add((min(i, j), max(i, j)))

    # ball.edges is the dim-1 prefix of ball.cubes, and cubes_containing
    # keeps cubes order, so each vertex's edge positions ascend
    incident = {
        v: [index[c.bottom, c.top] for c in ball.cubes_containing(v) if c.dim == 1]
        for v in ball.vertices
    }

    for v in ball.vertices:
        around = incident[v]
        for k, i in enumerate(around):
            for j in around[k + 1 :]:
                if labels[i] == labels[j]:
                    report["no_label_osculation"] = False
                    failures.append("label %r repeats at vertex %r" % (labels[i], v))

    # incident positions ascend, so each pair is already (min, max)
    for v in ball.interior_vertices:
        around = incident[v]
        for k, i in enumerate(around):
            for j in around[k + 1 :]:
                b1, b2 = bases[i], bases[j]
                if b1 != b2 and ball.graph.adjacent(b1, b2) and (i, j) not in corners:
                    report["crossings_realized"] = False
                    failures.append("edges %r, %r at %r span no square" % (edges[i], edges[j], v))

    hps = hyperplanes(ball, roots)
    report["hyperplanes"] = len(hps)
    report["interior_hyperplanes"] = sum(1 for h in hps if h.interior)
    report["hyperplane_labels_constant"] = all(
        len({labels[index[e.bottom, e.top]] for e in h.edges}) == 1 for h in hps if h.interior
    )
    report["label_census"] = {
        "full": len(set(fulls)),
        "hat": len({hat for hat, _ in fulls}),
        "base": len({(b, k) for b, (_, k) in zip(bases, fulls)}),
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
        for h in stabilizer(ball, v):
            checked += 1
            if not h.is_identity and torsion_projection(gp, h) == zero:
                failures.append("kernel element %s fixes %r" % (h, v))
    return {"ok": not failures, "checked": checked, "failures": failures}
