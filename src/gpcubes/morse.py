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

from .cubes import NotInteriorError, SoundnessError


class MorseViolationError(AssertionError):
    """A cube attained its maximal height in more than one vertex."""


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


def descending_cofaces(ball, v):
    """For a singleton vertex {g}, read off its up-covers and their hats:
    the hats h whose up-cover g<<h>> is no longer than g (desc_letters(g)),
    and the cliques C whose cube bottomed at {g} has a top g<<C>> no
    longer than g."""
    up_hats = {w: ball.edge_hat(v, w) for w in ball.covers_up(v)}
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
    letters and the descending cofaces are read off the up-covers of {g}."""
    if v.clique:
        raise ValueError("vertex has a nonempty clique; use the down-link check")
    if v.rep.is_identity:
        raise ValueError("the base point has an empty descending link")
    if not ball.is_interior(v):
        raise NotInteriorError("vertex %r is not interior" % v)
    desc, descending = descending_cofaces(ball, v)
    if any(a != b and not ball.delta.adjacent(a, b) for a in desc for b in desc):
        return False
    return descending == {frozenset(c) for c in ball.cliques if c and c <= desc}


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
