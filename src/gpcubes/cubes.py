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

import functools
import itertools

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
        _, *others = gp.hat_subsets[hat]  # the identity comes first
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


def added_hat(ball, bottom, top):
    """The hat letter h with top = bottom.rep<<bottom.clique + h>>, for a
    cover bottom < top.

    Only the hat letters of the one base generator that top adds are tried
    at bottom.rep, each read through the ball's right table; a
    SoundnessError unless exactly one of them lands in top and
    |top| = |bottom| * |<<h>>|."""
    base_of = ball.gp.base_of
    bases = {base_of[hat] for hat in top.clique}
    bases -= {base_of[hat] for hat in bottom.clique}
    if len(bases) != 1:
        raise SoundnessError("cover %r of %r adds bases %r" % (top, bottom, sorted(bases)))
    (base,) = bases
    x, mask = ball._ids[bottom.rep], ball._masks[top]
    landed = [hat for hat in ball.gp.base_hats[base] if ball._lands(x, hat, mask)]
    if len(landed) != 1 or len(top.elements) != len(bottom.elements) * len(
        ball.gp.hat_subsets[landed[0]]
    ):
        raise SoundnessError("cover %r of %r adds hats %r" % (top, bottom, landed))
    return landed[0]


class CosetVertex:
    """A vertex g<<C>> of the complex.

    Identity is the element set: the same set of group elements can be
    written as a coset of <<C>> for several sign choices on infinite
    letters, and those writings all denote one vertex.  The stored rep is
    the (length, lex)-least element and the stored clique is the one
    recovered from rep^-1 * elements, which makes both canonical.
    """

    __slots__ = ("rep", "clique", "elements", "max_length", "_hash")

    def __init__(self, rep, clique, elements):
        self.rep = rep
        self.clique = clique
        self.elements = elements
        self.max_length = max(x.length for x in elements)
        self._hash = hash(elements)

    def __eq__(self, other):
        return isinstance(other, CosetVertex) and self.elements == other.elements

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "CosetVertex(%s|{%s})" % (self.rep, ",".join(sorted(self.clique)))


def coset_vertex(gp, g, clique):
    """Canonicalized vertex g<<C>>; invariant under g -> g*h, h in <<C>>.

    The clique at rep is read as added_hat reads a hat: only the hat
    letters of each base of C are tried at rep, and a SoundnessError is
    raised unless exactly one of them lands in the coset."""
    elements = coset_elements(gp, g, clique)
    rep = min(elements, key=gp.sort_key)
    canonical = []
    for base in {gp.base_of[hat] for hat in clique}:
        landed = [
            hat
            for hat in gp.base_hats[base]
            if gp.multiply(rep, gp.hat_generators[hat]) in elements
        ]
        if len(landed) != 1:
            raise SoundnessError(
                "coset %s<<%s>> lands hats %r of %s at its rep"
                % (g, ",".join(sorted(clique)), landed, base)
            )
        canonical += landed
    return CosetVertex(rep, frozenset(canonical), elements)


class Cube:
    """Interval [bottom, top]; the 2^dim intermediate vertices are
    materialized on demand.  A ball builds one Cube per cube and every
    query hands that one back, so cubes compare and hash by identity;
    immutable by convention, as CosetVertex."""

    __slots__ = ("bottom", "top", "dim")

    def __init__(self, bottom, top, dim):
        self.bottom = bottom
        self.top = top
        self.dim = dim

    def __repr__(self):
        return "Cube(bottom=%r, top=%r, dim=%r)" % (self.bottom, self.top, self.dim)


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

    def join(self, other):
        """The join: each face of self with each of other.  Both families
        hold the empty face and are closed, so their product is closed."""
        out = SimplicialComplex(self.vertices + other.vertices, ())
        out.faces = frozenset(a | b for a in self.faces for b in other.faces)
        return out

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


class CubeBall:
    """All vertices of the complex with coset max length <= radius, with
    every cube among them.  Immutable once built; queries are pure.

    Every query about what lies next to a vertex reads one incidence: each
    cube's interval, searched for once by inclusion through an element ->
    vertices index, and from it vertex -> the cubes holding it.
    cube_vertices and cubes_containing return it as it stands; the covers
    of v are the other ends of the edges at v.

    The checks read the ball through an index of ints instead of forming
    products of normal forms:
    * an id per element, in (length, lex) order, so that no id depends on
      the hash seed and a coset's rep has the least id of its members;
    * a right table: id -> the ids of x*h for every non-identity hat power
      h, -1 where x*h leaves the ball, each entry one gp.multiply;
    * each vertex's element ids as a bitmask.
    Interval inclusion is a mask test; edge_hat (added_hat), the Morse
    up-link check (descent_hats, coface) and stabilizer read the table.
    fundamental_domain_check still forms products: it is the independent
    check that every vertex is a translate of a base vertex, and must not
    rest on the table it would vouch for.  The index and the incidence are
    built on first use, as only the checks need them."""

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

        self._interior = {
            v
            for v in self.vertices
            if all(
                coset_elements(gp, v.rep, c) in self._by_elements
                for c in self.cliques
                if v.clique < c
            )
        }

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
        self._edge_hats = {}

    # -- queries ---------------------------------------------------------------

    def vertex(self, elements):
        return self._by_elements[frozenset(elements)]

    def is_interior(self, v):
        return v in self._interior

    @property
    def interior_vertices(self):
        return [v for v in self.vertices if v in self._interior]

    def covers_up(self, v):
        """The vertices directly above v: the tops of the edges v bottoms."""
        return [c.top for c in self._cubes_at.get(v, ()) if c.dim == 1 and c.bottom is v]

    def covers_down(self, v):
        """The vertices directly below v: the bottoms of the edges v tops,
        grouped by the hat letter of v.clique whose base they lack."""
        base_index = self._base_index
        out = {hat: [] for hat in sorted(v.clique, key=self.delta.index.__getitem__)}
        for c in self._cubes_at.get(v, ()):
            if c.dim == 1 and c.top is v:
                kept = {base_index[h] for h in c.bottom.clique}
                (hat,) = [h for h in out if base_index[h] not in kept]
                out[hat].append(c.bottom)
        return out

    def cubes_containing(self, v):
        """The cubes whose interval holds v, in ball.cubes order."""
        return list(self._cubes_at.get(v, ()))

    def edge_hat(self, bottom, top):
        """The hat letter the edge [bottom, top] adds, standardized at the
        bottom's rep: added_hat, formed once per edge and kept."""
        key = (bottom, top)
        if key not in self._edge_hats:
            self._edge_hats[key] = added_hat(self, bottom, top)
        return self._edge_hats[key]

    def descent_hats(self, v):
        """The hat letters h whose coset v.rep<<h>> does not rise above
        v.rep: GraphProduct.desc_letters of v.rep, read through the right
        table.  A product that leaves the ball is longer than v.rep."""
        right, elements = self._right[self._ids[v.rep]], self._elements
        n = v.rep.length
        return frozenset(
            hat
            for hat, cols in self._columns.items()
            if all(right[k] >= 0 and elements[right[k]].length <= n for k in cols)
        )

    def coface(self, v, clique):
        """The vertex v.rep<<C>>, read through the right table and found
        among the vertices holding v.rep; a SoundnessError unless it is a
        vertex of the ball."""
        x = self._ids[v.rep]
        mask, masks = self._coset_mask(x, clique), self._masks
        for w in self._holding[x]:
            if masks[w] == mask:
                return w
        raise SoundnessError(
            "%s<<%s>> is not a vertex of the ball" % (v.rep, ",".join(sorted(clique)))
        )

    def cube_vertices(self, cube):
        """The 2^dim vertices of an interval cube, bottom first.

        The others follow in itertools.combinations order over the base
        generators each adds to the bottom, by graph index: the signs of the
        endpoints' infinite letters may differ, their bases may not.  The
        cube must be one of ball.cubes: any other raises KeyError.
        """
        return list(self._intervals[cube])

    # -- the index -------------------------------------------------------------

    @functools.cached_property
    def _elements(self):
        """Id -> element: the ball in (length, lex) order."""
        return sorted(self._element_set, key=self.gp.sort_key)

    @functools.cached_property
    def _ids(self):
        """Element -> id."""
        return {x: i for i, x in enumerate(self._elements)}

    @functools.cached_property
    def _columns(self):
        """Hat letter -> its columns of the right table: one per
        non-identity power, in hat_subsets order."""
        out, k = {}, 0
        for hat in self.delta.vertices:
            n = len(self.gp.hat_subsets[hat]) - 1
            out[hat] = range(k, k + n)
            k += n
        return out

    @functools.cached_property
    def _right(self):
        """Id of x -> the ids of x*h for the non-identity hat powers h, by
        _columns, with -1 where x*h leaves the ball."""
        gp, ids = self.gp, self._ids
        powers = [h for hat in self.delta.vertices for h in gp.hat_subsets[hat][1:]]
        return [[ids.get(gp.multiply(x, h), -1) for h in powers] for x in self._elements]

    @functools.cached_property
    def _masks(self):
        """Vertex -> the bitmask of its element ids."""
        ids = self._ids
        out = {}
        for v in self.vertices:
            mask = 0
            for x in v.elements:
                mask |= 1 << ids[x]
            out[v] = mask
        return out

    @functools.cached_property
    def _holding(self):
        """Element id -> the vertices whose coset holds it."""
        out = [[] for _ in self._elements]
        ids = self._ids
        for v in self.vertices:
            for x in v.elements:
                out[ids[x]].append(v)
        return out

    def _lands(self, x, hat, mask):
        """Whether x*h, for the element id x and the generator h of a hat
        letter, is in the ball and in the coset of the given mask."""
        y = self._right[x][self._columns[hat][0]]
        return y >= 0 and mask >> y & 1 == 1

    def _coset_mask(self, x, clique):
        """The mask of x<<C>> for the element id x, read through the right
        table; 0 when the coset leaves the ball."""
        right, columns = self._right, self._columns
        members = [x]
        for hat in clique:
            step = [right[y][k] for y in members for k in columns[hat]]
            if -1 in step:
                return 0
            members += step
        mask = 0
        for y in members:
            mask |= 1 << y
        return mask

    # -- the incidence ----------------------------------------------------------

    @functools.cached_property
    def _base_index(self):
        """Hat letter -> graph index of its base generator."""
        index = self.graph.index
        return {hat: index[base] for hat, base in self.gp.base_of.items()}

    @functools.cached_property
    def _intervals(self):
        """Cube -> its vertices, each interval searched for once."""
        return {cube: self._interval(cube) for cube in self.cubes}

    @functools.cached_property
    def _cubes_at(self):
        """Vertex -> the cubes whose interval holds it, in ball.cubes order."""
        out = {}
        for cube, interval in self._intervals.items():
            for w in interval:
                out.setdefault(w, []).append(cube)
        return out

    def _interval(self, cube):
        """The vertices w with bottom <= w <= top, found by mask inclusion
        among those holding bottom.rep; a SoundnessError unless they are
        2^dim, one per set of added bases."""
        bottom, top = cube.bottom, cube.top
        base_index, masks = self._base_index, self._masks
        below = {base_index[h] for h in bottom.clique}
        low, high = masks[bottom], masks[top]
        keyed = {}
        found = 0
        # the rep is the least member of its coset, so it has the lowest id
        for w in self._holding[(low & -low).bit_length() - 1]:
            m = masks[w]
            if low & m == low and m & high == m:
                found += 1
                keyed[tuple(sorted({base_index[h] for h in w.clique} - below))] = w
        if not found == len(keyed) == 2 ** cube.dim:
            raise SoundnessError(
                "cube %r of dimension %d spans %d vertices" % (cube, cube.dim, found)
            )
        return [keyed[k] for k in sorted(keyed, key=lambda k: (len(k), k))]


def build_ball(graph, radius, max_elements=DEFAULT_ELEMENT_BUDGET):
    return CubeBall(graph, radius, max_elements=max_elements)


class LinkDecomposition:
    """Link of a vertex, split into the join of its up- and down-parts.

    up_hats maps an up-link vertex to the hat letter it adds; down_classes
    maps a hat letter of the clique to its list of down-link vertices."""

    __slots__ = ("complex", "up", "down", "up_hats", "down_classes")

    def __init__(self, complex, up, down, up_hats, down_classes):
        self.complex = complex
        self.up = up
        self.down = down
        self.up_hats = up_hats
        self.down_classes = down_classes


def vertex_link(ball, v):
    """The link of an interior vertex, with its up/down join decomposition.

    Simplices of the link correspond to cubes containing v, each spanned
    by the covers of v in its interval; an up-link vertex is a cover above
    v, labelled by the hat letter it adds (ball.edge_hat), a down-link vertex
    a cover below.
    """
    if not ball.is_interior(v):
        raise NotInteriorError("link of %r is truncated by the ball boundary" % v)
    ups = ball.covers_up(v)
    up_hats = {w: ball.edge_hat(v, w) for w in ups}
    down_classes = ball.covers_down(v)
    downs = [d for members in down_classes.values() for d in members]

    covers = set(downs + ups)
    faces = [covers.intersection(ball.cube_vertices(c)) for c in ball.cubes_containing(v)]
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
        ok = ok and len(set(members)) == len(gp.hat_subsets[hat])
    transversals = {frozenset()}
    for members in link.down_classes.values():
        transversals = {
            t | extra for t in transversals for extra in ([frozenset()] + [frozenset([m]) for m in members])
        }
    ok = ok and link.down.faces == frozenset(transversals)
    return ok


def stabilizer(ball, v):
    """Elements fixing a vertex of the ball, i.e. permuting its coset;
    always finite.

    h fixes v = rep<<C>> only if x = h*rep lies in v, and then h fixes v
    iff x<<C>> = v.  So the stabilizer is {x*rep^-1 : x in v, x<<C>> = v},
    each x<<C>> read through the ball's right table and compared as a mask;
    a SoundnessError unless rep<<C>> is v.  The only products formed are
    the quotients x*rep^-1 other than the identity, one normalize each."""
    gp, ids, mask = ball.gp, ball._ids, ball._masks[v]
    fixing = [x for x in v.elements if ball._coset_mask(ids[x], v.clique) == mask]
    if v.rep not in fixing:
        raise SoundnessError("the identity does not fix %r" % (v,))
    inverse = tuple((s, -e) for s, e in reversed(v.rep.letters))
    return frozenset(
        gp.identity if x == v.rep else gp.normalize(x.letters + inverse) for x in fixing
    )


def fundamental_domain_check(ball):
    """Verify the ball is covered by translates of the base-point vertices
    <<C>> and report the orbit census.

    Every vertex must be rep * <<C'>> for a clique C' of the doubled graph,
    and two base-point vertices lie in one orbit exactly when their cliques
    differ only by sign flips on infinite letters.
    """
    gp = ball.gp
    subsets = {}  # clique -> <<C>>, formed once per clique
    census = {}
    ok = True
    for v in ball.vertices:
        if v.clique not in subsets:
            subsets[v.clique] = std_subset(gp, v.clique)
        rep_inv = gp.invert(v.rep)
        standardized = frozenset(gp.multiply(rep_inv, x) for x in v.elements)
        if standardized != subsets[v.clique]:
            ok = False
        key = ",".join(sorted(v.clique, key=ball.delta.index.__getitem__))
        census[key] = census.get(key, 0) + 1
    orbit_keys = {frozenset(gp.base_of[hat] for hat in v.clique) for v in ball.vertices}
    return {"ok": ok, "census": census, "orbit_classes": len(orbit_keys)}


# -- export ---------------------------------------------------------------------


def _vertex_label(ball, v):
    """The text of a DOT label, with \\ and " escaped: names may hold both."""
    clique = ",".join(sorted(v.clique, key=ball.delta.index.__getitem__))
    return ("%s|{%s}" % (v.rep, clique)).replace("\\", "\\\\").replace('"', '\\"')


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
