import itertools
import random
import textwrap

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gpcubes.cubes import (
    CubeBall,
    SoundnessError,
    build_ball,
    cliques,
    coset_elements,
    maximal_cliques,
)
from gpcubes.dj import (
    DJPair,
    _images,
    _orbit_search,
    _saturate,
    ambient_graph,
    build_y_ball,
    dimensions,
    iso_check,
    order_preserved,
    plus_cliques,
)
from gpcubes.groups import BudgetExceededError, GraphProduct, LabeledGraph, parse_graph

from conftest import fresh_python, hat_base, labelled_graphs


@pytest.fixture(scope="module")
def pairs(graphs):
    return {
        name: DJPair(graphs[name])
        for name in ("single_inf", "single_z3", "free2", "z_squared", "mixed", "inf_dihedral")
    }


def e_elements(pair):
    """All of E, keyed by the set of infinite generators whose s0 it holds."""
    inf = pair.graph.infinite_vertices
    return {
        frozenset(sub): pair.times_e(pair.gp_ambient.identity, sub)
        for k in range(len(inf) + 1)
        for sub in itertools.combinations(inf, k)
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


def check_plus_cliques(pair):
    # the reference: every clique of the doubled graph whose letters all
    # have sign +, read off the hat names
    expected = [
        c for c in cliques(pair.doubled) if all(hat_base(pair.graph, hat)[1] > 0 for hat in c)
    ]
    found = plus_cliques(pair)
    assert len(found) == len(set(found))
    assert set(found) == set(expected)


def check_dimensions(graph):
    # the references: the largest clique of each complex's doubled graph;
    # the ambient graph has only finite generators, so it is its own
    most = max(map(len, cliques(GraphProduct(graph).doubled)))
    ambient = max(map(len, cliques(ambient_graph(graph))))
    assert dimensions(graph) == {"original": most, "doubled": most, "ambient": ambient}


def check_maximal_cliques(graph):
    # the references: every clique, and the largest ones read off it
    every = cliques(graph)
    found = maximal_cliques(graph)
    assert len(found) == len(set(found))
    assert set(found) == {c for c in every if not any(c < d for d in every)}
    most = max(map(len, every))
    finite = max(sum(map(graph.is_finite, c)) for c in every)
    assert dimensions(graph)["original"] == most
    assert dimensions(graph)["ambient"] == len(graph.infinite_vertices) + finite


GRAPHS_UP_TO_SIX = labelled_graphs(max_vertices=6, orders=(2, 3, 4, None))


class TestDimensions:
    def test_fixtures(self, graphs):
        for g in graphs.values():
            check_dimensions(g)

    @given(GRAPHS_UP_TO_SIX)
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_random_graphs(self, graph):
        check_dimensions(graph)

    def test_maximal_cliques_on_the_fixtures(self, graphs):
        for g in graphs.values():
            check_maximal_cliques(g)

    @given(GRAPHS_UP_TO_SIX)
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_maximal_cliques_on_random_graphs(self, graph):
        check_maximal_cliques(graph)

    def test_the_empty_graph(self):
        empty = LabeledGraph((), {}, ())
        assert maximal_cliques(empty) == [frozenset()]
        assert dimensions(empty) == {"original": 0, "doubled": 0, "ambient": 0}

    def test_a_complete_graph_is_one_clique(self):
        # Z^20 has 3^20 cliques in its doubled graph and 2^20 in itself,
        # but one maximal clique
        names = "abcdefghijklmnopqrst"
        z20 = LabeledGraph(names, dict.fromkeys(names), itertools.combinations(names, 2))
        assert maximal_cliques(z20) == [frozenset(names)]
        assert dimensions(z20) == {"original": 20, "doubled": 20, "ambient": 20}

    def test_mixed(self, graphs):
        # a0 commutes with u and b0 but not a+: u a0 b0 is a largest clique
        g = parse_graph("a:inf\nu:3\nb:inf\nedge a u\n")
        assert dimensions(g) == {"original": 2, "doubled": 2, "ambient": 3}


class TestPlusCliques:
    def test_fixtures(self, graphs):
        for g in graphs.values():
            check_plus_cliques(DJPair(g))

    @given(GRAPHS_UP_TO_SIX)
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_random_graphs(self, graph):
        check_plus_cliques(DJPair(graph))


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
        es = e_elements(p)
        assert len(es) == 4
        gp2 = p.gp_ambient
        for x in es.values():
            assert gp2.multiply(x, x).is_identity
        # elementwise commuting
        for x, y in itertools.product(es.values(), repeat=2):
            assert gp2.multiply(x, y) == gp2.multiply(y, x)

    def test_trivial_without_infinite_generators(self, pairs):
        assert set(e_elements(pairs["inf_dihedral"])) == {frozenset()}

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
                a, e = p.factorize(g)  # verifies times_e(beta(a), e) == g itself
                assert e <= set(p.graph.infinite_vertices)

    def test_roundtrip_unique(self, pairs):
        # (a, e) -> beta(a) * E[e] -> (a, e) over a ball times all of E
        p = pairs["mixed"]
        for a in p.gp.enumerate_ball(2):
            for e, ehat in e_elements(p).items():
                g = p.gp_ambient.multiply(p.beta(a), ehat)
                assert p.factorize(g) == (a, e)

    def test_roundtrip_doubled(self, pairs):
        p = pairs["z_squared"]
        gpd = p.gp_doubled
        for a in gpd.enumerate_ball(2):
            for e, ehat in e_elements(p).items():
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
            for e, ehat in e_elements(p).items():
                lhs = p.beta(conj_by_e(p, e, g))
                assert lhs == gp2.multiply(gp2.multiply(ehat, p.beta(g)), ehat)

    def test_action_on_the_doubled_group(self, pairs):
        p = pairs["z_squared"]
        gp2 = p.gp_ambient
        gpd = p.gp_doubled
        for g in gpd.enumerate_ball(2):
            for e, ehat in e_elements(p).items():
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
        cases = dict(pairs)
        if radius == 1:
            # three infinite generators; at r=2 the scan's ambient ball of
            # radius 7 is too costly
            cases["free3"] = DJPair(parse_graph("a:inf\nb:inf\nc:inf\n"))
        for name, p in cases.items():
            assert build_y_ball(p, radius) == unpruned_y_ball(p, radius), name

    @given(labelled_graphs(max_vertices=4, orders=(2, 3, None)), st.integers(0, 2))
    @settings(max_examples=15, deadline=None, derandomize=True)
    def test_y_ball_matches_the_unpruned_scan_on_hypothesis_graphs(self, graph, radius):
        # the scan saturates every coset of the ambient ball of radius
        # 2r + #inf: with three infinite generators it takes about 10 s at
        # r = 2, and with four about 9 s at r = 1
        assume(len(graph.infinite_vertices) <= 4 - radius)
        p = DJPair(graph)
        assert build_y_ball(p, radius) == unpruned_y_ball(p, radius)

    @pytest.mark.parametrize("radius", [1, 2])
    @pytest.mark.parametrize(
        "text", RANDOM_GRAPH_TEXTS, ids=lambda t: t.strip().replace("\n", " | ")
    )
    def test_y_ball_matches_the_unpruned_scan_on_random_graphs(self, text, radius):
        p = DJPair(parse_graph(text))
        assert build_y_ball(p, radius) == unpruned_y_ball(p, radius)

    def test_reads_no_interiority(self, graphs, monkeypatch):
        def fail(ball):
            raise AssertionError("iso_check read the interior vertices")

        monkeypatch.setattr(CubeBall, "_interior", property(fail))
        assert iso_check(graphs["mixed"], 2)["ok"]

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
                for ehat in e_elements(p).values()
            }
            assert set().union(*build_y_ball(p, radius)) == short, name

    @pytest.mark.parametrize("radius", [0, 1, 2])
    def test_every_move_is_the_product_it_names(self, pairs, radius):
        # each node's move by a plus letter h, read off its E-offset, names
        # the members g * h^k themselves, or is None iff one is not short
        for name, p in pairs.items():
            gp2 = p.gp_ambient
            members, step = _orbit_search(p, radius, 10_000)
            n = len(p.graph.infinite_vertices)
            low = (1 << n) - 1
            plus = [hats[0] for hats in p.gp.base_hats.values()]
            for i, orbit in enumerate(members):
                for f, g in enumerate(orbit):
                    for h in plus:
                        letter, = gp2.hat_generators[h].letters
                        powers = [g]
                        for _ in range(gp2.doubled.order(h) - 1):
                            powers.append(gp2.times(powers[-1], *letter))
                        found = step(i << n | f, h)
                        if found is None:
                            assert any(
                                p.factorize(x)[0].length > radius for x in powers
                            ), name
                        else:
                            named = [members[node >> n][node & low] for node in found]
                            assert named == powers[1:], name

    def test_factorisation_follows_the_e_orbit(self, pairs):
        # x = beta(a) * e_x gives x * e = beta(a) * (e_x ^ e)
        for name, p in pairs.items():
            for x in set().union(*build_y_ball(p, 2)):
                a, ex = p.factorize(x)
                for e, ehat in e_elements(p).items():
                    assert p.factorize(p.gp_ambient.multiply(x, ehat)) == (a, ex ^ e), name

    def test_budget_bounds_the_reached_elements(self, pairs):
        p = pairs["mixed"]
        reached = len(set().union(*build_y_ball(p, 2)))
        assert build_y_ball(p, 2, max_elements=reached) == build_y_ball(p, 2)
        with pytest.raises(BudgetExceededError):
            build_y_ball(p, 2, max_elements=reached - 1)
        with pytest.raises(BudgetExceededError):
            build_y_ball(p, 2, max_elements=3)

    def test_a_power_that_is_not_short_skips_the_others(self, monkeypatch):
        # at r = 0 the first power of a is not short from the identity, so
        # the other 998 are never formed: one orbit forms, {1, b0}, and a is
        # formed once in the ambient group and once, as the part, in the
        # original one, where every power would make 999 of each
        pair = DJPair(parse_graph("a:1000\nb:inf\n"))
        e = _saturate(pair, (pair.gp_ambient.identity,))
        powers = {pair.gp: [], pair.gp_ambient: []}
        orbits = []
        times, beta = GraphProduct.times, DJPair.beta

        def counting_times(self, x, s, k):
            if s == "a":
                powers[self].append(k)
            return times(self, x, s, k)

        def counting_beta(self, a):
            orbits.append(a)
            return beta(self, a)

        monkeypatch.setattr(GraphProduct, "times", counting_times)
        monkeypatch.setattr(DJPair, "beta", counting_beta)
        assert build_y_ball(pair, 0) == {e}
        assert orbits == [pair.gp.identity]
        assert powers == {pair.gp: [1], pair.gp_ambient: [1]}

    def test_no_ambient_ball_is_enumerated(self, pairs, monkeypatch):
        def refuse(self, radius, max_elements=None):
            raise AssertionError("enumerate_ball called")

        expected = build_y_ball(pairs["mixed"], 2)
        monkeypatch.setattr(GraphProduct, "enumerate_ball", refuse)
        assert build_y_ball(pairs["mixed"], 2) == expected

    def test_no_ambient_word_is_normalized(self, pairs, monkeypatch):
        # the search, its E-orbits, the parts it carries, the orbits'
        # checks and the images form one-letter products; nothing is
        # factorised and no word of any of the three groups is normalized
        p = pairs["mixed"]
        ball = build_ball(p.graph, 2)
        ball_doubled = build_ball(p.doubled, 2)
        calls = {p.gp: 0, p.gp_doubled: 0, p.gp_ambient: 0}
        products = {p.gp: 0, p.gp_doubled: 0, p.gp_ambient: 0}
        normalize, times = GraphProduct.normalize, GraphProduct.times

        def counting_normalize(self, word):
            calls[self] += 1
            return normalize(self, word)

        def counting_times(self, x, s, e):
            products[self] += 1
            return times(self, x, s, e)

        def refuse(self, g):
            raise AssertionError("factorize called")

        monkeypatch.setattr(GraphProduct, "normalize", counting_normalize)
        monkeypatch.setattr(GraphProduct, "times", counting_times)
        monkeypatch.setattr(DJPair, "factorize", refuse)
        monkeypatch.setattr(DJPair, "factorize_doubled", refuse)
        build_y_ball(p, 2)
        _images(p, ball.vertices, p.beta)
        _images(p, ball_doubled.vertices, p.alpha)
        assert calls == {p.gp: 0, p.gp_doubled: 0, p.gp_ambient: 0}
        assert products[p.gp] and products[p.gp_ambient]

    def test_factorize_calls_do_not_follow_the_hash_seed(self, monkeypatch):
        # the search calls no factorize, and its one-letter products in both
        # groups and its orbit checks are as many under every hash seed
        code = textwrap.dedent(
            """
            from gpcubes.dj import DJPair, build_y_ball
            from gpcubes.groups import GraphProduct, parse_graph
            calls = {"factorize": 0, "beta": 0, "times": 0}
            def count(cls, name):
                method = getattr(cls, name)
                def counting(*args):
                    calls[name] += 1
                    return method(*args)
                setattr(cls, name, counting)
            count(DJPair, "factorize")
            count(DJPair, "beta")
            count(GraphProduct, "times")
            pair = DJPair(parse_graph("a:inf\\nu:3\\nb:inf\\nedge a u\\n"))
            build_y_ball(pair, 2)
            print(calls["factorize"], calls["beta"], calls["times"])
            """
        )
        counts = []
        for seed in ("1", "7"):
            monkeypatch.setenv("PYTHONHASHSEED", seed)
            proc = fresh_python(code)
            assert proc.returncode == 0, proc.stderr
            counts.append(tuple(map(int, proc.stdout.split())))
        assert counts[0] == counts[1]
        factorized, orbits, products = counts[0]
        assert factorized == 0 and orbits > 0 and products > 0

    def test_budget_counts_every_formed_element(self, monkeypatch):
        # Z^16 at r = 0: the identity's orbit alone has 2^16 members, and the
        # search stops at the budget, not after forming the orbit
        names = "abcdefghijklmnop"
        z16 = LabeledGraph(names, dict.fromkeys(names), itertools.combinations(names, 2))
        pair = DJPair(z16)
        products = []
        times = GraphProduct.times
        monkeypatch.setattr(
            GraphProduct,
            "times",
            lambda self, x, s, e: products.append(s) or times(self, x, s, e),
        )
        with pytest.raises(BudgetExceededError):
            build_y_ball(pair, 0, max_elements=1000)
        assert 900 <= len(products) <= 1000


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
