import itertools
import random
import textwrap

import pytest

from gpcubes.cubes import SoundnessError, build_ball, cliques, coset_elements
from gpcubes.dj import (
    DJPair,
    _images,
    _saturate,
    ambient_graph,
    build_y_ball,
    iso_check,
    order_preserved,
)
from gpcubes.groups import BudgetExceededError, GraphProduct, hat_base, parse_graph

from conftest import fresh_python


@pytest.fixture(scope="module")
def pairs(graphs):
    return {
        name: DJPair(graphs[name])
        for name in ("single_inf", "single_z3", "free2", "z_squared", "mixed", "inf_dihedral")
    }


def e_projection(pair, g):
    """Retraction of the ambient group onto (Z/2)^{infinite generators}:
    finite letters die, s+ and s0 both hit the s coordinate."""
    odd = set()
    for x, e in g.letters:
        if x in pair.graph.orders:
            continue
        s = x[:-1]
        if e % 2:
            odd.symmetric_difference_update({s})
    return frozenset(odd)


def conj_by_e(pair, e, g):
    """Conjugation action of E pulled back to the original group: letters
    of generators in e get inverted."""
    return pair.gp.normalize(tuple((s, -k if s in e else k) for s, k in g.letters))


def conj_by_e_doubled(pair, e, g):
    """The same action on the doubled-graph group: signs of hat letters of
    generators in e flip."""
    out = []
    for hat, k in g.letters:
        base, sign = hat_base(pair.graph, hat)
        if not pair.graph.is_finite(base) and base in e:
            out.append((base + ("-" if sign > 0 else "+"), k))
        else:
            out.append((hat, k))
    return pair.gp_doubled.normalize(tuple(out))


def unpruned_y_ball(pair, radius):
    """The common-complex scan over the whole ambient ball of radius
    2r + #inf, kept as the reference: every ball element with every clique,
    each member factorised afresh."""
    gp2 = pair.gp_ambient
    big = gp2.enumerate_ball(2 * radius + len(pair.graph.infinite_vertices))
    plus_cliques = [
        c for c in cliques(pair.doubled) if not any(hat.endswith("-") for hat in c)
    ]
    out = set()
    for g in sorted(big, key=gp2.sort_key):
        for c in plus_cliques:
            members = _saturate(pair, coset_elements(gp2, g, c))
            if members in out:
                continue
            if all(pair.factorize(x)[0].length <= radius for x in members):
                out.add(members)
    return out


def pairwise_order_preserved(vertices, image):
    """The order check as first written, kept as the reference: inclusion
    against image inclusion over every ordered pair of vertices."""
    for u, v in itertools.combinations(vertices, 2):
        for a, b in ((u, v), (v, u)):
            if (a.elements <= b.elements) != (image[a] <= image[b]):
                return False
    return True


def random_graph_texts(seed, count):
    """Graphs on at most three generators of orders 2, 3 and inf, each edge
    present with probability 1/2, drawn from a fixed seed."""
    rng = random.Random(seed)
    texts = []
    for _ in range(count):
        names = "abc"[: rng.randint(1, 3)]
        lines = ["%s:%s" % (s, rng.choice(("2", "3", "inf"))) for s in names]
        lines += [
            "edge %s %s" % (s, t)
            for s, t in itertools.combinations(names, 2)
            if rng.random() < 0.5
        ]
        texts.append("\n".join(lines) + "\n")
    return texts


RANDOM_GRAPH_TEXTS = random_graph_texts(0, 12)


def factorize_by_products(pair, g, doubled=False):
    """The factorisations as first written, kept as the reference: one
    product per letter of the original (or doubled) group part."""
    gp = pair.gp_doubled if doubled else pair.gp
    a = gp.identity
    e = frozenset()
    for x, k in g.letters:
        if x in pair.graph.orders:
            a = gp.multiply(a, gp.generator(x, k))
        elif x.endswith("+"):
            s = x[:-1]
            for _ in range(k % 2):
                if doubled:
                    a = gp.multiply(a, gp.generator(s + ("-" if s in e else "+")))
                else:
                    a = gp.multiply(a, gp.generator(s, -1 if s in e else 1))
                    e = e ^ {s}
        elif k % 2:
            e = e ^ {x[:-1]}
    return a, e


class TestAmbientGraph:
    def test_single_infinite(self, graphs):
        g = ambient_graph(graphs["single_inf"])
        assert set(g.vertices) == {"a+", "a0"}
        assert g.order("a+") == 2 and g.order("a0") == 2
        assert not g.adjacent("a+", "a0")  # infinite dihedral inside

    def test_mixed(self, graphs):
        g = ambient_graph(graphs["mixed"])
        assert set(g.vertices) == {"u", "a+", "a0"}
        assert g.order("u") == 3
        assert g.adjacent("a+", "u")  # a and u commuted in the original
        assert g.adjacent("a0", "u")  # a0 commutes with everything else
        assert not g.adjacent("a0", "a+")

    def test_commuting_pair(self, graphs):
        g = ambient_graph(graphs["z_squared"])
        assert g.adjacent("a+", "b+")
        assert g.adjacent("a0", "b0") and g.adjacent("a0", "b+")
        assert not g.adjacent("a0", "a+") and not g.adjacent("b0", "b+")

    def test_name_collision(self):
        with pytest.raises(ValueError):
            ambient_graph(parse_graph("s:inf\ns0:2\n"))


class TestEmbeddings:
    def test_beta_letters(self, pairs):
        p = pairs["mixed"]
        assert p.beta(p.gp.generator("u", 2)).letters == (("u", 2),)
        assert p.beta(p.gp.generator("a")).letters == (("a+", 1), ("a0", 1))
        assert p.beta(p.gp.generator("a", -1)).letters == (("a0", 1), ("a+", 1))

    def test_alpha_letters(self, pairs):
        p = pairs["single_inf"]
        gpd = p.gp_doubled
        assert p.alpha(gpd.generator("a+")).letters == (("a+", 1),)
        assert p.alpha(gpd.generator("a-")).letters == (("a0", 1), ("a+", 1), ("a0", 1))

    def test_beta_is_a_homomorphism(self, pairs):
        p = pairs["mixed"]
        ball = sorted(p.gp.enumerate_ball(2), key=p.gp.sort_key)
        for g, h in itertools.product(ball, repeat=2):
            assert p.beta(p.gp.multiply(g, h)) == p.gp_ambient.multiply(
                p.beta(g), p.beta(h)
            )

    def test_alpha_is_a_homomorphism(self, pairs):
        p = pairs["mixed"]
        gpd = p.gp_doubled
        ball = sorted(gpd.enumerate_ball(2), key=gpd.sort_key)
        for g, h in itertools.product(ball, repeat=2):
            assert p.alpha(gpd.multiply(g, h)) == p.gp_ambient.multiply(
                p.alpha(g), p.alpha(h)
            )

    def test_injective_on_ball(self, pairs):
        for name in ("single_inf", "free2", "mixed"):
            p = pairs[name]
            ball = p.gp.enumerate_ball(4, max_elements=5000)
            assert len({p.beta(g) for g in ball}) == len(ball)
            balld = p.gp_doubled.enumerate_ball(4, max_elements=5000)
            assert len({p.alpha(g) for g in balld}) == len(balld)


class TestESubgroup:
    def test_size_and_orders(self, pairs):
        p = pairs["z_squared"]
        es = p.e_elements
        assert len(es) == 4
        gp2 = p.gp_ambient
        for x in es.values():
            assert gp2.multiply(x, x).is_identity
        # elementwise commuting
        for x, y in itertools.product(es.values(), repeat=2):
            assert gp2.multiply(x, y) == gp2.multiply(y, x)

    def test_trivial_without_infinite_generators(self, pairs):
        assert set(pairs["inf_dihedral"].e_elements) == {frozenset()}

    def test_projection(self, pairs):
        p = pairs["z_squared"]
        gp2 = p.gp_ambient
        assert e_projection(p, gp2.generator("a0")) == {"a"}
        assert e_projection(p, gp2.generator("a+")) == {"a"}
        assert e_projection(p, gp2.multiply(gp2.generator("a+"), gp2.generator("a0"))) == frozenset()

    def test_projection_kills_the_embedded_group(self, pairs):
        p = pairs["mixed"]
        for g in p.gp.enumerate_ball(3):
            assert e_projection(p, p.beta(g)) == frozenset()

    def test_projection_reads_off_the_factor(self, pairs):
        p = pairs["mixed"]
        for g in p.gp_ambient.enumerate_ball(3):
            assert e_projection(p, g) == p.factorize(g)[1]


class TestFactorization:
    def test_every_ambient_element_factors(self, pairs):
        for name in ("single_inf", "z_squared", "mixed"):
            p = pairs[name]
            for g in p.gp_ambient.enumerate_ball(3):
                a, e = p.factorize(g)  # verifies beta(a) * e_hat(e) == g itself
                assert e <= set(p.graph.infinite_vertices)

    def test_roundtrip_unique(self, pairs):
        # (a, e) -> beta(a) e_hat(e) -> (a, e) over a ball times all of E
        p = pairs["mixed"]
        for a in p.gp.enumerate_ball(2):
            for e, ehat in p.e_elements.items():
                g = p.gp_ambient.multiply(p.beta(a), ehat)
                assert p.factorize(g) == (a, e)

    def test_roundtrip_doubled(self, pairs):
        p = pairs["z_squared"]
        gpd = p.gp_doubled
        for a in gpd.enumerate_ball(2):
            for e, ehat in p.e_elements.items():
                g = p.gp_ambient.multiply(p.alpha(a), ehat)
                assert p.factorize_doubled(g) == (a, e)

    def test_match_one_product_per_letter(self, pairs):
        for name in ("single_inf", "single_z3", "free2", "z_squared", "mixed"):
            p = pairs[name]
            for g in p.gp_ambient.enumerate_ball(3):
                assert p.factorize(g) == factorize_by_products(p, g)
                assert p.factorize_doubled(g) == factorize_by_products(p, g, doubled=True)

    def test_residual_checks_raise(self, pairs, monkeypatch):
        # an embedding that returns a wrong element must fail the check
        p = pairs["mixed"]
        g = p.beta(p.gp.generator("a"))
        monkeypatch.setattr(p, "beta", lambda a: p.gp_ambient.identity)
        monkeypatch.setattr(p, "alpha", lambda a: p.gp_ambient.identity)
        with pytest.raises(SoundnessError):
            p.factorize(g)
        with pytest.raises(SoundnessError):
            p.factorize_doubled(g)

    def test_residual_checks_raise_under_python_O(self):
        code = textwrap.dedent(
            """
            import sys
            from gpcubes.cubes import SoundnessError
            from gpcubes.dj import DJPair
            from gpcubes.groups import parse_graph
            if sys.flags.optimize != 1:
                sys.exit(3)
            p = DJPair(parse_graph("a:inf\\nu:3\\nedge a u\\n"))
            g = p.beta(p.gp.generator("a"))
            p.beta = p.alpha = lambda a: p.gp_ambient.identity
            for factorize in (p.factorize, p.factorize_doubled):
                try:
                    factorize(g)
                except SoundnessError:
                    continue
                sys.exit(1)
            """
        )
        proc = fresh_python(code, "-O")
        assert proc.returncode == 0, proc.stderr

    def test_factor_lengths_agree(self, pairs):
        # the two factorizations of one element have parts of equal length
        p = pairs["mixed"]
        for g in p.gp_ambient.enumerate_ball(3):
            a, _ = p.factorize(g)
            ad, _ = p.factorize_doubled(g)
            assert a.length == ad.length


class TestConjugation:
    def test_action_on_the_embedded_group(self, pairs):
        p = pairs["mixed"]
        gp2 = p.gp_ambient
        for g in p.gp.enumerate_ball(2):
            for e, ehat in p.e_elements.items():
                lhs = p.beta(conj_by_e(p, e, g))
                assert lhs == gp2.multiply(gp2.multiply(ehat, p.beta(g)), ehat)

    def test_action_on_the_doubled_group(self, pairs):
        p = pairs["z_squared"]
        gp2 = p.gp_ambient
        gpd = p.gp_doubled
        for g in gpd.enumerate_ball(2):
            for e, ehat in p.e_elements.items():
                lhs = p.alpha(conj_by_e_doubled(p, e, g))
                assert lhs == gp2.multiply(gp2.multiply(ehat, p.alpha(g)), ehat)

    def test_sign_flip(self, pairs):
        p = pairs["single_inf"]
        g = p.gp.generator("a", 2)
        assert conj_by_e(p, frozenset(["a"]), g) == p.gp.generator("a", -2)
        gd = p.gp_doubled.generator("a+")
        assert conj_by_e_doubled(p, frozenset(["a"]), gd) == p.gp_doubled.generator("a-")


class TestSaturatedSets:
    def test_signed_subsets_saturate_equally(self, pairs):
        # after multiplying by E the two embeddings agree on the standard
        # subsets, sign by sign
        p = pairs["single_inf"]
        gp = p.gp
        gpd = p.gp_doubled
        plus = _saturate(p, {p.beta(x) for x in (gp.identity, gp.generator("a"))})
        minus = _saturate(p, {p.beta(x) for x in (gp.identity, gp.generator("a", -1))})
        plus_d = _saturate(p, {p.alpha(x) for x in (gpd.identity, gpd.generator("a+"))})
        minus_d = _saturate(p, {p.alpha(x) for x in (gpd.identity, gpd.generator("a-"))})
        assert plus == plus_d and minus == minus_d
        assert plus != minus


class TestIsoCheck:
    def test_single_infinite(self, graphs):
        report = iso_check(graphs["single_inf"], 2)
        assert report["ok"], report
        assert report["vertices"] == report["vertices_common"] == 9

    def test_flat_plane(self, graphs):
        report = iso_check(graphs["z_squared"], 2)
        assert report["ok"], report
        assert report["vertices"] == report["vertices_common"] == 33
        assert report["edges"] == report["edges_doubled"] == 48

    def test_mixed(self, graphs):
        report = iso_check(graphs["mixed"], 2)
        assert report["ok"], report
        assert report["vertices_common"] == 24

    def test_trivial_e(self, graphs):
        # without infinite generators all three complexes are one and the same
        report = iso_check(graphs["inf_dihedral"], 3)
        assert report["ok"]
        assert report["vertices"] == report["vertices_common"] == 13

    @pytest.mark.parametrize("radius", [1, 2])
    def test_y_ball_matches_the_unpruned_scan(self, pairs, radius):
        for name, p in pairs.items():
            assert build_y_ball(p, radius) == unpruned_y_ball(p, radius), name

    @pytest.mark.parametrize("radius", [1, 2])
    @pytest.mark.parametrize(
        "text", RANDOM_GRAPH_TEXTS, ids=lambda t: t.strip().replace("\n", " | ")
    )
    def test_y_ball_matches_the_unpruned_scan_on_random_graphs(self, text, radius):
        p = DJPair(parse_graph(text))
        assert build_y_ball(p, radius) == unpruned_y_ball(p, radius)

    def test_y_ball_matches_vertex_count(self, graphs):
        p = DJPair(graphs["single_inf"])
        assert len(build_y_ball(p, 2)) == 9

    def test_images_match_one_saturation_per_vertex(self, pairs):
        for name in ("single_inf", "z_squared", "mixed"):
            p = pairs[name]
            ball = build_ball(p.graph, 2)
            expected = {
                v: _saturate(p, {p.beta(x) for x in v.elements}) for v in ball.vertices
            }
            assert _images(p, ball.vertices, p.beta) == expected, name
            ball = build_ball(p.doubled, 2)
            expected = {
                v: _saturate(p, {p.alpha(x) for x in v.elements}) for v in ball.vertices
            }
            assert _images(p, ball.vertices, p.alpha) == expected, name


class TestCommonComplexSearch:
    @pytest.mark.parametrize("radius", [1, 2])
    def test_reaches_every_short_element(self, pairs, radius):
        # the search's connectivity: the vertex sets cover exactly the
        # elements beta(a) * e with |a| <= radius
        for name, p in pairs.items():
            short = {
                p.gp_ambient.multiply(p.beta(a), ehat)
                for a in p.gp.enumerate_ball(radius)
                for ehat in p.e_elements.values()
            }
            assert set().union(*build_y_ball(p, radius)) == short, name

    def test_factorisation_follows_the_e_orbit(self, pairs):
        # x = beta(a) * e_x gives x * e = beta(a) * (e_x ^ e)
        for name, p in pairs.items():
            for x in set().union(*build_y_ball(p, 2)):
                a, ex = p.factorize(x)
                for e, ehat in p.e_elements.items():
                    assert p.factorize(p.gp_ambient.multiply(x, ehat)) == (a, ex ^ e), name

    def test_budget_bounds_the_reached_elements(self, pairs):
        p = pairs["mixed"]
        reached = len(set().union(*build_y_ball(p, 2)))
        assert build_y_ball(p, 2, max_elements=reached) == build_y_ball(p, 2)
        with pytest.raises(BudgetExceededError):
            build_y_ball(p, 2, max_elements=reached - 1)
        with pytest.raises(BudgetExceededError):
            build_y_ball(p, 2, max_elements=3)

    def test_no_ambient_ball_is_enumerated(self, pairs, monkeypatch):
        def refuse(self, radius, max_elements=None):
            raise AssertionError("enumerate_ball called")

        expected = build_y_ball(pairs["mixed"], 2)
        monkeypatch.setattr(GraphProduct, "enumerate_ball", refuse)
        assert build_y_ball(pairs["mixed"], 2) == expected

    def test_factorize_calls_do_not_follow_the_hash_seed(self, monkeypatch):
        code = textwrap.dedent(
            """
            from gpcubes.dj import DJPair, build_y_ball
            from gpcubes.groups import parse_graph
            calls = []
            factorize = DJPair.factorize
            DJPair.factorize = lambda self, g: calls.append(g) or factorize(self, g)
            pair = DJPair(parse_graph("a:inf\\nu:3\\nb:inf\\nedge a u\\n"))
            build_y_ball(pair, 2)
            print(len(calls))
            """
        )
        counts = []
        for seed in ("1", "7"):
            monkeypatch.setenv("PYTHONHASHSEED", seed)
            proc = fresh_python(code)
            assert proc.returncode == 0, proc.stderr
            counts.append(int(proc.stdout))
        assert counts[0] == counts[1] > 0


class TestOrderPreserved:
    @pytest.mark.parametrize("doubled", [False, True])
    def test_agrees_with_the_pairwise_scan(self, pairs, doubled):
        for name, p in pairs.items():
            ball = build_ball(p.doubled if doubled else p.graph, 2)
            image = _images(p, ball.vertices, p.alpha if doubled else p.beta)
            assert order_preserved(ball.vertices, image), name
            assert pairwise_order_preserved(ball.vertices, image), name

    def test_both_reject_swapped_images(self, pairs):
        p = pairs["mixed"]
        ball = build_ball(p.graph, 2)
        image = _images(p, ball.vertices, p.beta)
        swaps = 0
        for u, v in itertools.combinations(ball.vertices, 2):
            swapped = dict(image)
            swapped[u], swapped[v] = image[v], image[u]
            indexed = order_preserved(ball.vertices, swapped)
            assert indexed == pairwise_order_preserved(ball.vertices, swapped)
            swaps += not indexed
        # a swap keeps the order only between two vertices with the same
        # up-set and down-set, and no two vertices of this ball share both
        assert swaps == len(ball.vertices) * (len(ball.vertices) - 1) // 2
