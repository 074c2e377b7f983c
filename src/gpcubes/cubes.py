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

from .groups import DEFAULT_ELEMENT_BUDGET, GraphProduct


class NotInteriorError(ValueError):
    """A link or star query hit a vertex truncated by the ball boundary."""


class SoundnessError(AssertionError):
    """An invariant that a certificate's soundness rests on does not hold.

    Raised explicitly rather than by assert, so that it is never skipped
    under python -O."""


def _all_cliques(vertices, adjacent, most=None):
    """Every clique of a finite graph with at most `most` vertices (no
    limit when None), the empty one included: the all-cliques form of
    Bron-Kerbosch (CACM 1973)."""
    out = []

    def extend(clique, candidates):
        out.append(frozenset(clique))
        if len(clique) == most:
            return
        for i, v in enumerate(candidates):
            extend(clique + [v], [w for w in candidates[i + 1 :] if adjacent(v, w)])

    extend([], list(vertices))
    return out


def cliques(graph, most=None):
    """The cliques of a finite graph with at most `most` vertices (all of
    them when None), the empty one included, by size and then index."""
    out = _all_cliques(graph.vertices, graph.adjacent, most)
    index = graph.index
    out.sort(key=lambda c: (len(c), sorted(index[v] for v in c)))
    return out


def maximal_cliques(graph):
    """The maximal cliques of a finite graph (the empty one alone when it has
    no vertex), in no fixed order: Bron-Kerbosch with a pivot (Tomita,
    Tanaka and Takahashi, TCS 2006), which branches only on the candidates
    outside the pivot's neighbourhood, so a complete graph costs one path."""
    out = []

    def extend(clique, candidates, excluded):
        if not candidates and not excluded:
            out.append(frozenset(clique))
            return
        pivot = max(candidates | excluded, key=lambda u: len(candidates & graph.neighbors(u)))
        for v in candidates - graph.neighbors(pivot):
            near = graph.neighbors(v)
            extend(clique + [v], candidates & near, excluded & near)
            candidates = candidates - {v}
            excluded = excluded | {v}

    extend([], frozenset(graph.vertices), frozenset())
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


def _lands(gp, x, hat, elements):
    """Whether x*h, for the generator h of a hat letter, lies in elements:
    one letter put into the normal form x by gp.times, no normalize."""
    return gp.times(x, *gp.hat_generators[hat].letters[0]) in elements


def added_hat(ball, bottom, top):
    """The hat letter h with top = bottom.rep<<bottom.clique + h>>, for a
    cover bottom < top.

    Only the hat letters of the one base generator that top adds are tried
    at bottom.rep, each by _lands; a SoundnessError unless exactly one of
    them lands in top and |top| = |bottom| * |<<h>>|."""
    gp = ball.gp
    bases = {gp.base_of[hat] for hat in top.clique}
    bases -= {gp.base_of[hat] for hat in bottom.clique}
    if len(bases) != 1:
        raise SoundnessError("cover %r of %r adds bases %r" % (top, bottom, sorted(bases)))
    (base,) = bases
    landed = [hat for hat in gp.base_hats[base] if _lands(gp, bottom.rep, hat, top.elements)]
    if len(landed) != 1 or len(top.elements) != len(bottom.elements) * ball.delta.order(
        landed[0]
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


def coset_vertex(gp, g, clique, elements):
    """Canonicalized vertex g<<C>>; invariant under g -> g*h, h in <<C>>.
    elements is the coset's element set, coset_elements(gp, g, clique).

    The clique at rep is read as added_hat reads a hat: only the hat
    letters of each base of C are tried at rep, each by _lands, and a
    SoundnessError is raised unless exactly one of them lands in the
    coset."""
    rep = min(elements, key=gp.sort_key)
    canonical = []
    for base in {gp.base_of[hat] for hat in clique}:
        landed = [hat for hat in gp.base_hats[base] if _lands(gp, rep, hat, elements)]
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


def ball_vertices(gp, elements, radius, cs):
    """The vertices of the radius-r ball, whose elements are `elements`:
    the cosets g<<C>> of the pairs (g, C) of an element and a clique of cs
    with |g| + |C| <= radius, one coset formed per pair and handed to
    coset_vertex.  cs must be sorted by size, as the loop over it stops at
    the first clique too large for g.  CubeBall says why these pairs give
    every vertex and no coset leaving the ball; a SoundnessError where a
    vertex breaks the identity max_length = |rep| + |clique| that this
    rests on."""
    out = {}
    for g in elements:
        for c in cs:
            if g.length + len(c) > radius:
                break
            coset = coset_elements(gp, g, c)
            if coset in out:
                continue
            v = out[coset] = coset_vertex(gp, g, c, coset)
            if v.max_length != v.rep.length + len(v.clique):
                raise SoundnessError(
                    "vertex %r has max length %d, not %d + %d"
                    % (v, v.max_length, v.rep.length, len(v.clique))
                )
    return list(out.values())


class CubeBall:
    """All vertices of the complex with coset max length <= radius, with
    every cube among them.  Immutable once built; queries are pure.

    The vertices are read off the pairs (g, C) with |g| + |C| <= radius
    only (ball_vertices), as a vertex's max length is |rep| + |C| for its
    least member rep and its clique C there.  No hat letter h of C shortens
    rep: for a finite base s, rep ends in no letter s^f, or rep * s^-f
    would be a shorter member; and rep * s^+-1 for s+ or s- is one longer
    or one shorter than rep, shorter again being ruled out.  So every
    non-identity element of <<h>> lengthens rep by one.  The letters of C
    have distinct bases that commute, and a power of one base leaves the
    last letter rep has in each other base as it is, so the gains add up:
    rep * x is |rep| + k long for x in <<C>> a product of k non-identity
    factors, and rep<<C>> lies in the ball iff |rep| + |C| <= radius.  Its
    own pair is then scanned.  Conversely each letter lengthens g by at
    most one, so every scanned coset g<<C>> lies in the ball.  The cosets
    are those of Davis's cells (w, T), each named by its least element w
    (Davis, The Geometry and Topology of Coxeter Groups, 2008).

    The cliques are those of at most radius + 1 hat letters.  A coset
    g<<C>> holds an element of length >= |C|, so no vertex of the ball has
    a larger clique; and a vertex whose clique lies in one of radius + 1
    letters is already shown not interior by that clique, so the interior
    vertices, the only ones the link and Morse checks read cliques at,
    meet no larger clique either.

    Every query about what lies next to a vertex reads one incidence: each
    cube's interval, searched for once by inclusion through an element ->
    vertices index, and from it vertex -> the cubes holding it.
    cube_vertices and cubes_containing return it as it stands; the covers
    of v are the other ends of the edges at v.

    The checks hold each vertex once, as its frozenset of normal forms, and
    ask two things only.  Does a hat letter h take x into a coset: _lands,
    one gp.times of x and the letter of h, no normalize; edge_hat
    (added_hat), stabilizer and coset_vertex all ask it so.  Does one
    coset lie inside another: a frozenset inclusion, which finds each
    cube's interval.  The link-model check reads each interior vertex's
    link once (vertex_link), and the Morse up-link check reads only the
    up-covers and their hats.  fundamental_domain_check
    forms its own products, each base coset translated by a vertex's rep:
    it is the independent check that every vertex is a translate of a base
    vertex.  The interior vertices and the incidence are built on first
    use, as only the checks and the export need them."""

    def __init__(self, graph, radius, max_elements=DEFAULT_ELEMENT_BUDGET):
        self.graph = graph
        self.radius = radius
        self.gp = GraphProduct(graph)
        self.delta = self.gp.doubled
        self.cliques = cliques(self.delta, radius + 1)
        gp = self.gp

        elements = gp.enumerate_ball(radius, max_elements=max_elements)
        hat_index = self.delta.index
        self.vertices = sorted(
            ball_vertices(gp, elements, radius, self.cliques),
            key=lambda v: (gp.sort_key(v.rep), sorted(hat_index[h] for h in v.clique)),
        )
        self._by_elements = {v.elements: v for v in self.vertices}

        # no cube is made twice: a bottom's clique is sub, and sub shares no
        # base generator with rest, so distinct h give distinct bottoms
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

    def cube_vertices(self, cube):
        """The 2^dim vertices of an interval cube, bottom first.

        The others follow in itertools.combinations order over the base
        generators each adds to the bottom, by graph index: the signs of the
        endpoints' infinite letters may differ, their bases may not.  The
        cube must be one of ball.cubes: any other raises KeyError.
        """
        return list(self._intervals[cube])

    @functools.cached_property
    def _interior(self):
        """The vertices all of whose cofaces lie in the ball.  A coset of
        a clique of more than radius letters is not formed: it holds an
        element longer than the radius."""
        gp, by_elements, radius = self.gp, self._by_elements, self.radius
        return {
            v
            for v in self.vertices
            if all(
                len(c) <= radius and coset_elements(gp, v.rep, c) in by_elements
                for c in self.cliques
                if v.clique < c
            )
        }

    # -- the incidence ----------------------------------------------------------

    @functools.cached_property
    def _base_index(self):
        """Hat letter -> graph index of its base generator."""
        index = self.graph.index
        return {hat: index[base] for hat, base in self.gp.base_of.items()}

    @functools.cached_property
    def _holding(self):
        """Element -> the vertices whose coset holds it."""
        out = {}
        for v in self.vertices:
            for x in v.elements:
                out.setdefault(x, []).append(v)
        return out

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
        """The vertices w with bottom <= w <= top, found by element-set
        inclusion among those holding bottom.rep; a SoundnessError unless
        they are 2^dim, one per set of added bases."""
        bottom, top = cube.bottom, cube.top
        base_index = self._base_index
        below = {base_index[h] for h in bottom.clique}
        keyed = {}
        found = 0
        for w in self._holding[bottom.rep]:
            if bottom.elements <= w.elements <= top.elements:
                found += 1
                keyed[tuple(sorted({base_index[h] for h in w.clique} - below))] = w
        if not found == len(keyed) == 2 ** cube.dim:
            raise SoundnessError(
                "cube %r of dimension %d spans %d vertices" % (cube, cube.dim, found)
            )
        return [keyed[k] for k in sorted(keyed, key=lambda k: (len(k), k))]


def build_ball(graph, radius, max_elements=DEFAULT_ELEMENT_BUDGET):
    return CubeBall(graph, radius, max_elements=max_elements)


def vertex_link(ball, v):
    """The link of an interior vertex, as (faces, up_hats, down_classes).

    faces holds the empty face and, for each cube containing v, the covers
    of v in its interval.  The cube loop of CubeBall lists every interval
    under every top, so each face of a cube of the ball is a cube of the
    ball, and the faces are closed under subsets as they are read.  up_hats
    maps each cover above v to the hat letter it adds (ball.edge_hat);
    down_classes is ball.covers_down(v), the covers below v grouped by hat
    letter.
    """
    if not ball.is_interior(v):
        raise NotInteriorError("link of %r is truncated by the ball boundary" % v)
    up_hats = {w: ball.edge_hat(v, w) for w in ball.covers_up(v)}
    down_classes = ball.covers_down(v)
    covers = set(up_hats).union(*down_classes.values())
    faces = {frozenset()}
    faces.update(
        frozenset(covers.intersection(ball.cube_vertices(c))) for c in ball.cubes_containing(v)
    )
    return frozenset(faces), up_hats, down_classes


def check_link_models(ball, v):
    """Verify that the link of an interior vertex is the join of an up-part
    and a down-part.  Each hat h with v.clique + h a clique must add exactly
    one up-cover, and the faces must be exactly the unions U + D, where U
    runs over the up-covers adding the hats of C - v.clique for a clique
    C >= v.clique (the link of v.clique in the flag complex of the doubled
    graph, read through distinct hats), and D over the partial transversals
    of the down classes, each of |<<h>>| covers for a letter h of v.clique.
    An interior vertex meets no clique above its own that ball.cliques
    lacks (CubeBall).
    """
    faces, up_hats, down_classes = vertex_link(ball, v)
    cover = {hat: w for w, hat in up_hats.items()}
    above = [c - v.clique for c in ball.cliques if v.clique <= c]
    if len(cover) != len(up_hats) or cover.keys() != set().union(*above) or any(
        len(set(members)) != ball.delta.order(hat) for hat, members in down_classes.items()
    ):
        return False
    predicted = [frozenset(cover[h] for h in c) for c in above]
    for members in down_classes.values():
        predicted = [f | {m} for f in predicted for m in members] + predicted
    return faces == set(predicted)


def stabilizer(ball, v):
    """Elements fixing a vertex of the ball, i.e. permuting its coset;
    always finite.

    h fixes v = rep<<C>> only if x = h*rep lies in v, and then h fixes v
    iff x<<C>> = v.  Write x = rep*c with c the product of one c_h in
    <<h>> for each hat letter h of C: the factors have distinct bases
    that commute, so c and its factors determine each other.  Then
    x<<C>> = v iff c<<C>> = <<C>> iff c_h<<h>> = <<h>> for each h, which
    holds iff h is finite (<<h>> is then a group) or c_h = 1 (for
    <<s+>> = {1, s}, s<<s+>> = {s, s^2}).  And x*h lies in v iff c_h*h
    lies in <<h>>, the other factors being kept: always for a finite h,
    and iff c_h = 1 for a signed one.  So x is kept iff every hat of C
    lands x in v (_lands), and the stabilizer is the x*rep^-1 of those x;
    a SoundnessError unless rep is one.  The only products normalized are
    the quotients x*rep^-1 other than the identity, one normalize each."""
    gp, elements = ball.gp, v.elements
    fixing = [x for x in elements if all(_lands(gp, x, hat, elements) for hat in v.clique)]
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
    differ only by sign flips on infinite letters.  Each vertex is tested
    by translating the base coset: {rep * c : c in <<C>>} must be its
    element set, each rep * c formed by folding the letters of c into rep
    with gp.times.  Left multiplication by rep is a bijection, so this holds
    iff rep^-1 * elements = <<C>>.
    """
    gp = ball.gp
    subsets = {}  # clique -> <<C>>, formed once per clique
    census = {}
    ok = True
    for v in ball.vertices:
        if v.clique not in subsets:
            subsets[v.clique] = std_subset(gp, v.clique)
        translated = set()
        for c in subsets[v.clique]:
            x = v.rep
            for s, e in c.letters:
                x = gp.times(x, s, e)
            translated.add(x)
        if translated != v.elements:
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
