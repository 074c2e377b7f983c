import pytest

from gpcubes.groups import GraphProduct, parse_graph
from gpcubes.cubes import build_ball
from gpcubes.special import (
    base_label,
    check_free_kernel_action,
    check_special,
    full_label,
    hyperplanes,
    torsion_projection,
    trailing_power,
)


@pytest.fixture(scope="module")
def balls(graphs):
    radii = {
        "single_inf": 3,
        "single_z2": 3,
        "single_z3": 3,
        "free2": 2,
        "z_squared": 2,
        "inf_dihedral": 3,
        "pentagon": 2,
        "mixed": 2,
    }
    return {name: build_ball(graphs[name], r) for name, r in radii.items()}


@pytest.fixture(scope="module")
def square_ball():
    # the full complex of the 4-element group a,b of order two, commuting
    return build_ball(parse_graph("a:2\nb:2\nedge a b\n"), 2)


class TestLabels:
    def test_real_line_midpoint(self, balls):
        # the two edges under {1, a} approach it from opposite sides
        b = balls["single_inf"]
        gp = b.gp
        mid = b.vertex({gp.identity, gp.generator("a")})
        got = {(str(e.bottom.rep), full_label(b, e)) for e in b.edges if e.top == mid}
        assert got == {("1", ("a+", 0)), ("a", ("a-", 1))}

    def test_torsion_cone(self, balls):
        # the three edges under {1, u, u^2} are told apart by the power
        b = balls["single_z3"]
        gp = b.gp
        top = b.vertex({gp.identity, gp.generator("a"), gp.generator("a", 2)})
        got = sorted(full_label(b, e) for e in b.edges if e.top == top)
        assert got == [("a", 0), ("a", 1), ("a", 2)]

    def test_trailing_power(self, products):
        gp = products["z_squared"]
        g = gp.normalize((("a", 2), ("b", -1)))
        assert trailing_power(gp, g, "a") == 2
        assert trailing_power(gp, g, "b") == -1
        assert trailing_power(gp, gp.identity, "a") == 0
        h = gp.normalize((("a", 1),))
        assert trailing_power(gp, h, "b") == 0

    def test_trailing_power_matches_end_letters(self, products):
        # the definition through end_letters, kept as the oracle: the last
        # letter of the base, when the base is an end letter.  The elements
        # of the radius-3 ball include every rep of every ball of r <= 3.
        def oracle(gp, g, base):
            if base not in gp.end_letters(g):
                return 0
            return next(e for s, e in reversed(g.letters) if s == base)

        for gp in products.values():
            for g in gp.enumerate_ball(3):
                for base in gp.graph.vertices:
                    assert trailing_power(gp, g, base) == oracle(gp, g, base)

    def test_granularities(self, balls):
        b = balls["free2"]
        e = b.edges[0]
        hat, k = full_label(b, e)
        assert base_label(b, e) == (hat.rstrip("+-"), k)
        assert b.edge_hat(e.bottom, e.top) == hat


class TestHyperplanes:
    def test_tree_edges_are_singletons(self, balls):
        for name in ("single_inf", "free2", "inf_dihedral"):
            b = balls[name]
            hps = hyperplanes(b)
            assert len(hps) == len(b.edges)
            assert all(len(h) == 1 for h in hps)

    def test_square_group_walls(self, square_ball):
        hps = hyperplanes(square_ball)
        assert len(hps) == 4
        assert all(len(h) == 3 and h.interior for h in hps)
        # each wall carries a single label
        for h in hps:
            assert len({full_label(square_ball, e) for e in h.edges}) == 1

    def test_flat_plane_walls_truncated(self, balls):
        # every wall of the plane leaves any finite ball
        hps = hyperplanes(balls["z_squared"])
        assert len(hps) == 16
        assert not any(h.interior for h in hps)

    def test_every_edge_in_exactly_one_class(self, balls):
        b = balls["mixed"]
        seen = [e for h in hyperplanes(b) for e in h.edges]
        assert len(seen) == len(b.edges)
        assert len({(e.bottom.elements, e.top.elements) for e in seen}) == len(seen)


class TestCheckSpecial:
    def test_all_fixtures(self, balls):
        for name, b in balls.items():
            report = check_special(b)
            assert report["ok"], (name, report["failures"])

    def test_square_group(self, square_ball):
        report = check_special(square_ball)
        assert report["ok"]
        assert report["interior_hyperplanes"] == 4
        assert report["truncation"] is None

    def test_truncation_note(self, balls):
        report = check_special(balls["z_squared"])
        assert report["truncation"] is not None

    def test_label_census(self, balls):
        report = check_special(balls["single_inf"])
        # 12 edges, all full labels distinct on the line, 2 hat letters
        assert report["label_census"]["hat"] == 2
        assert report["label_census"]["full"] == 12

    def test_negative_control(self, balls):
        # conflating the two signs of an infinite letter must surface as
        # label osculation at the base point of a free group
        report = check_special(balls["free2"], label_fn=base_label)
        assert not report["no_label_osculation"]
        assert not report["ok"]

    def test_negative_control_leaves_geometry_alone(self, balls):
        report = check_special(balls["free2"], label_fn=base_label)
        assert report["no_self_crossing"]
        assert report["square_hats_adjacent"]

    def test_missing_square_fails_crossings(self, square_ball, monkeypatch):
        # every vertex of the finite complex is interior, so the two edges at
        # each corner of the dropped square now span no square
        dropped = square_ball.squares[0]
        assert all(square_ball.is_interior(v) for v in square_ball.cube_vertices(dropped))
        monkeypatch.setattr(square_ball, "squares", square_ball.squares[1:])
        report = check_special(square_ball)
        assert not report["crossings_realized"]
        assert not report["ok"]

    def test_non_adjacent_hats_fail(self, square_ball, monkeypatch):
        monkeypatch.setattr(square_ball.delta, "adjacent", lambda a, b: False)
        report = check_special(square_ball)
        assert not report["square_hats_adjacent"]
        assert not report["ok"]


class TestTorsionProjection:
    def test_examples(self, products):
        gp = products["mixed"]  # a infinite, u of order three
        assert torsion_projection(gp, gp.identity) == (0,)
        assert torsion_projection(gp, gp.generator("a")) == (0,)
        assert torsion_projection(gp, gp.generator("u", 2)) == (2,)
        assert torsion_projection(gp, gp.normalize((("u", 2), ("a", 1), ("u", 2)))) == (1,)

    def test_homomorphism(self, products):
        for name in ("mixed", "inf_dihedral", "pentagon"):
            gp = products[name]
            orders = [gp.graph.order(s) for s in gp.graph.finite_vertices]
            ball = sorted(gp.enumerate_ball(2), key=gp.sort_key)
            for g in ball:
                for h in ball:
                    lhs = torsion_projection(gp, gp.multiply(g, h))
                    pg, ph = torsion_projection(gp, g), torsion_projection(gp, h)
                    assert lhs == tuple((x + y) % c for x, y, c in zip(pg, ph, orders))

    def test_kernel_acts_freely(self, balls):
        for name, b in balls.items():
            report = check_free_kernel_action(b)
            assert report["ok"], (name, report["failures"])
            assert report["checked"] >= len(b.vertices)

    def test_torsion_is_detected(self, balls):
        # the stabilizer of the cone point {1,u,u^2} is cyclic of order three
        # and injects under the projection
        ball = balls["mixed"]
        gp = ball.gp
        from gpcubes.cubes import stabilizer, std_subset

        v = ball.vertex(std_subset(gp, frozenset(["u"])))
        images = {torsion_projection(gp, h) for h in stabilizer(ball, v)}
        assert images == {(0,), (1,), (2,)}
