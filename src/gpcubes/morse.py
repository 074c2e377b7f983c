"""Combinatorial Morse theory on cube balls.

The Morse function sends a vertex g<<C>> to the pair
(max length over the coset, -#C), compared lexicographically.  Every cube
must attain its maximum height in a unique vertex; descending links
decompose as a join of an up-part and a down-part, and the two descent
checks below certify that one join factor is contractible for every vertex
other than the base point.  Contractibility of complete sublevel sets is
certified by Euler characteristic 1.
"""

from __future__ import annotations

from .cubes import NotInteriorError, SimplicialComplex, SoundnessError, vertex_link


class MorseViolationError(AssertionError):
    """A cube attained its maximal height in more than one vertex."""


class TruncatedSublevelError(ValueError):
    """The requested sublevel set is not fully contained in the ball."""


def height(v):
    """(max length over the coset, -#clique), ordered lexicographically."""
    return (v.max_length, -len(v.clique))


def cube_max_vertex(ball, cube):
    """The unique height-maximal vertex of a cube.

    Non-uniqueness would falsify the Morse property and raises; as a sanity
    check the winner must contain the length-maximal element of the top
    coset.
    """
    vertices = ball.cube_vertices(cube)
    best = max(vertices, key=height)
    ties = [v for v in vertices if height(v) == height(best)]
    if len(ties) != 1:
        raise MorseViolationError(
            "cube [%r, %r] has %d height-maximal vertices" % (cube.bottom, cube.top, len(ties))
        )
    # best lies in top, so it holds top's longest element iff it is as long
    if best.max_length != cube.top.max_length:
        raise SoundnessError("height-maximal vertex %r misses the top's longest element" % best)
    return best


def descending_link(ball, v):
    """Up- and down-parts of the descending link of an interior vertex.

    A cube containing v contributes a simplex exactly when v is its unique
    height-maximal vertex.
    """
    link, up_hats, _ = vertex_link(ball, v)
    covers = set(link.vertices)
    faces = [
        covers.intersection(ball.cube_vertices(cube))
        for cube in ball.cubes_containing(v)
        if cube_max_vertex(ball, cube) == v
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


def descending_cofaces(ball, v):
    """For a singleton vertex {g}, read off its link: the hats h whose
    up-cover g<<h>> is no longer than g (desc_letters(g)), and the cliques
    C whose cube bottomed at {g} has a top g<<C>> no longer than g."""
    _, up_hats, _ = vertex_link(ball, v)
    n = v.rep.length
    desc = frozenset(hat for w, hat in up_hats.items() if w.max_length == n)
    cofaces = {
        frozenset(up_hats[w] for w in ball.cube_vertices(cube) if w in up_hats)
        for cube in ball.cubes_containing(v)
        if cube.bottom is v and cube.top.max_length == n
    }
    return desc, cofaces


def check_down_link_simplex(ball, v):
    """For a vertex with nonempty clique: each clique letter contributes
    exactly one descending cover below, so the descending down-link is a
    simplex (hence contractible)."""
    if not v.clique:
        raise ValueError("vertex has empty clique; use the up-link check")
    if not ball.is_interior(v):
        raise NotInteriorError("vertex %r is not interior" % v)
    h = height(v)
    for members in ball.covers_down(v).values():
        descending = [u for u in members if height(u) < h]
        if len(descending) != 1:
            return False
    return True


def check_up_link_subdivided_simplex(ball, v):
    """For a singleton vertex {g}, g != 1: the descending up-link must be
    the poset of nonempty subsets of desc_letters(g) (the barycentric
    subdivision of a simplex), with desc_letters(g) a clique.  The descent
    letters and the descending cofaces are read off the link of {g}, the
    one link read that check_link_models makes too."""
    if v.clique:
        raise ValueError("vertex has a nonempty clique; use the down-link check")
    if v.rep.is_identity:
        raise ValueError("the base point has an empty descending link")
    desc, descending = descending_cofaces(ball, v)
    if any(a != b and not ball.delta.adjacent(a, b) for a in desc for b in desc):
        return False
    return descending == {frozenset(c) for c in ball.cliques if c and c <= desc}


def sublevel_euler(ball, h):
    """Euler characteristic of the sublevel set at height h.

    Counts vertices minus edges plus squares etc.; requires the sublevel to
    be complete inside the ball (primary height <= radius).
    """
    if h[0] > ball.radius:
        raise TruncatedSublevelError(
            "sublevel at primary height %d exceeds ball radius %d" % (h[0], ball.radius)
        )
    chi = sum(1 for v in ball.vertices if height(v) <= h)
    for cube in ball.cubes:
        if height(cube_max_vertex(ball, cube)) <= h:
            chi += (-1) ** cube.dim
    return chi


def sublevel_eulers(ball, cube_heights):
    """Euler characteristic of the sublevel set at every vertex height, in
    one sweep: a cell enters at its height (a cube at that of its maximum,
    given in cube_heights parallel to ball.cubes), and running sums over the
    sorted heights give every sublevel at once."""
    steps = {}
    for v in ball.vertices:
        h = height(v)
        steps[h] = steps.get(h, 0) + 1
    for cube, h in zip(ball.cubes, cube_heights):
        steps[h] = steps.get(h, 0) + (-1) ** cube.dim
    chi = 0
    out = {}
    for h in sorted(steps):
        chi = out[h] = chi + steps[h]
    return out


def morse_report(ball):
    """Run every Morse check the ball supports and collect verdicts."""
    results = {
        "unique_cube_maxima": True,
        "down_link_simplex": True,
        "up_link_subdivided_simplex": True,
        "sublevel_euler_ok": True,
        "checked_vertices": 0,
        "failures": [],
    }
    cube_heights = []
    for cube in ball.cubes:
        try:
            cube_heights.append(height(cube_max_vertex(ball, cube)))
        except MorseViolationError as err:
            results["unique_cube_maxima"] = False
            results["failures"].append(str(err))
    for v in ball.interior_vertices:
        results["checked_vertices"] += 1
        if v.clique:
            if not check_down_link_simplex(ball, v):
                results["down_link_simplex"] = False
                results["failures"].append("down-link not a simplex at %r" % v)
        elif not v.rep.is_identity:
            if not check_up_link_subdivided_simplex(ball, v):
                results["up_link_subdivided_simplex"] = False
                results["failures"].append("up-link not a subdivided simplex at %r" % v)
    if not results["unique_cube_maxima"]:
        results["sublevel_euler_ok"] = False
        results["failures"].append("sublevels are undefined: a cube has no unique maximum")
    else:
        for h, chi in sublevel_eulers(ball, cube_heights).items():
            if chi != 1:
                results["sublevel_euler_ok"] = False
                results["failures"].append("sublevel %r has Euler characteristic %d" % (h, chi))
    results["ok"] = (
        results["unique_cube_maxima"]
        and results["down_link_simplex"]
        and results["up_link_subdivided_simplex"]
        and results["sublevel_euler_ok"]
    )
    return results
