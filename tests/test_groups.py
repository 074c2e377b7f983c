import itertools
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpcubes.groups import (
    DEFAULT_ELEMENT_BUDGET,
    BudgetExceededError,
    GraphParseError,
    GraphProduct,
    LabeledGraph,
    NormalForm,
    UnknownGeneratorError,
    PresentationMismatchError,
    hat_base,
    hat_names,
    parse_graph,
    parse_word,
)


def reduced_words(gp, word):
    """All reduced words of the element, via the rewriting closure only."""
    closure = gp.oracle_closure(word)
    shortest = min(len(w) for w in closure)
    return frozenset(w for w in closure if len(w) == shortest)


def oracle_min_length(gp, word):
    return min(gp.word_length(w) for w in reduced_words(gp, word))


def all_words(graph, max_letters, exponents):
    letters = [(s, e) for s in graph.vertices for e in exponents]
    for k in range(max_letters + 1):
        yield from itertools.product(letters, repeat=k)


# -- parsing ------------------------------------------------------------------


def greedy_shuffle(gp, letters):
    """The all-prefix greedy that the bitmask shuffle replaced, kept as the
    reference: pull the least letter whose whole prefix commutes with it."""
    adjacent = gp.graph.adjacent
    index = gp.graph.index
    pending = list(letters)
    out = []
    while pending:
        best = None
        for i, (s, e) in enumerate(pending):
            if all(adjacent(t, s) for t, _ in pending[:i]):
                key = (index[s], e)
                if best is None or key < (index[pending[best][0]], pending[best][1]):
                    best = i
        out.append(pending.pop(best))
    return tuple(out)


def bfs_ball(gp, radius, max_elements=DEFAULT_ELEMENT_BUDGET):
    """The breadth-first search that enumerate_ball replaced, kept as the
    reference: one product per element and generator move, with the same
    budget."""
    moves = [gp.generator(s, e) for s in gp.graph.vertices for e in (1, -1)]
    seen = {gp.identity}
    queue = deque(seen)
    while queue:
        g = queue.popleft()
        for m in moves:
            h = gp.multiply(g, m)
            if h.length <= radius and h not in seen:
                seen.add(h)
                if len(seen) > max_elements:
                    raise BudgetExceededError("ball exceeds %d elements" % max_elements)
                queue.append(h)
    return frozenset(seen)


@st.composite
def labelled_graphs(draw, max_vertices=5):
    """Random presentation graphs with orders in {2, 3, inf}."""
    names = ["v%d" % i for i in range(draw(st.integers(1, max_vertices)))]
    orders = {n: draw(st.sampled_from([2, 3, None])) for n in names}
    edges = [pair for pair in itertools.combinations(names, 2) if draw(st.booleans())]
    return LabeledGraph(names, orders, edges)


def words(graph, max_size):
    letters = [(s, e) for s in graph.vertices for e in (-2, -1, 1, 2)]
    return st.lists(st.sampled_from(letters), max_size=max_size).map(tuple)


class TestParseGraph:
    def test_single_infinite_vertex(self):
        g = parse_graph("a:inf")
        assert g.vertices == ("a",)
        assert g.infinite_vertices == ("a",)
        assert not g.edges

    def test_two_vertices_no_edge(self):
        g = parse_graph("a:2; b:2".replace(";", "\n"))
        assert g.finite_vertices == ("a", "b")
        assert not g.adjacent("a", "b")

    def test_mixed_graph_with_edge(self):
        g = parse_graph("a:inf\nb:3\nedge a b\n")
        assert g.order("b") == 3
        assert g.adjacent("a", "b")

    def test_comments_and_whitespace(self):
        g = parse_graph("# header\n  a : inf  \n\n b:2 # trailing\nedge a b\n")
        assert g.vertices == ("a", "b")
        assert g.adjacent("a", "b")

    @pytest.mark.parametrize(
        "text",
        [
            "a:inf\na:2\n",  # duplicate name
            "a:inf\nedge a b\n",  # unknown vertex in edge
            "a:inf\nedge a a\n",  # self-loop
            "a:1\n",  # order < 2
            "a:zero\n",  # malformed order
            "garbage line\n",  # malformed syntax
            "1:2\n",  # prints as the identity
            "a:inf\na+:2\n",  # hat letter of a
            "a:inf\na-:inf\n",  # hat letter of a
            "a:inf\na0:3\n",  # ambient letter of a
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(GraphParseError):
            parse_graph(text)

    def test_signed_names_free_next_to_a_finite_generator(self):
        g = parse_graph("a:2\na+:2\na-:3\na0:inf\n")
        assert g.vertices == ("a", "a+", "a-", "a0")

    def test_roundtrip(self, graphs):
        for g in graphs.values():
            assert parse_graph(g.to_text()) == g


class TestParseWord:
    def test_tokens(self, graphs):
        g = graphs["free2"]
        assert parse_word(g, "a^2, b^-1, a") == (("a", 2), ("b", -1), ("a", 1))
        assert parse_word(g, "") == ()

    def test_unknown_generator(self, graphs):
        with pytest.raises(UnknownGeneratorError):
            parse_word(graphs["free2"], "c")


# -- reduction and normal forms -----------------------------------------------


class TestReduce:
    def test_zero_exponent_dropped(self, products):
        gp = products["single_inf"]
        assert gp.reduce_word((("a", 0),)) == ()

    def test_merge_mod_order(self, products):
        gp = products["single_z3"]
        assert gp.reduce_word((("a", 2), ("a", 2))) == (("a", 1),)

    def test_swap_then_cancel(self, products):
        gp = products["z_squared"]
        assert gp.reduce_word((("a", 1), ("b", 1), ("a", -1))) == (("b", 1),)

    def test_unknown_generator(self, products):
        with pytest.raises(UnknownGeneratorError):
            products["single_inf"].reduce_word((("z", 1),))


class TestNormalize:
    def test_commuting_letters_sorted(self, products):
        gp = products["z_squared"]
        nf = gp.normalize((("b", 1), ("a", 1)))
        assert nf.letters == (("a", 1), ("b", 1))

    def test_identity(self, products):
        gp = products["free2"]
        assert gp.normalize(()).is_identity

    def test_nonadjacent_word_unchanged(self, products):
        gp = products["free2"]
        word = (("a", 1), ("b", 1), ("a", 1))
        assert gp.normalize(word).letters == word
        # no shorter or different-length equivalent word exists
        assert oracle_min_length(gp, word) == 3

    def test_idempotent(self, products):
        for gp in products.values():
            for word in all_words(gp.graph, 3, (-1, 1)):
                nf = gp.normalize(word)
                assert gp.normalize(nf) == nf

    def test_canonical_on_oracle_classes(self, products):
        # words with the same rewriting closure get the same normal form
        for name in ("free2", "z_squared", "mixed"):
            gp = products[name]
            by_class = {}
            for word in all_words(gp.graph, 3, (-1, 1)):
                key = reduced_words(gp, word)
                nf = gp.normalize(word)
                assert nf.letters in key
                by_class.setdefault(key, set()).add(nf)
            assert all(len(nfs) == 1 for nfs in by_class.values())


class TestNormalFormValue:
    def test_equality_reads_the_letters_only(self, products):
        gp = products["free2"]
        a = gp.generator("a")
        other = NormalForm(a.letters, 99, products["z_squared"].graph)
        assert a == other and hash(a) == hash(other)
        assert a != gp.generator("b")

    def test_other_types_compare_unequal(self, products):
        a = products["free2"].generator("a")
        assert (a == "a") is False and (a != "a") is True
        assert a.__eq__("a") is NotImplemented

    def test_repr(self, products):
        nf = products["free2"].normalize((("a", 1), ("b", -2)))
        assert repr(nf) == "NormalForm(letters=(('a', 1), ('b', -2)), length=3)"

    def test_no_instance_dict(self, products):
        assert not hasattr(products["free2"].identity, "__dict__")


class TestGroupOps:
    def test_inverse_cancels(self, products):
        gp = products["single_inf"]
        a = gp.generator("a")
        assert gp.multiply(a, gp.invert(a)).is_identity

    def test_involution(self, products):
        gp = products["single_z2"]
        a = gp.generator("a")
        assert gp.multiply(a, a).is_identity

    def test_commuting_product(self, products):
        gp = products["z_squared"]
        assert gp.multiply(gp.generator("b"), gp.generator("a")).letters == (
            ("a", 1),
            ("b", 1),
        )

    def test_presentation_mismatch(self, products):
        with pytest.raises(PresentationMismatchError):
            products["free2"].multiply(
                products["free2"].identity, products["single_z3"].generator("a")
            )

    def test_group_laws_on_ball(self, products):
        for name in ("z_squared", "inf_dihedral", "mixed"):
            gp = products[name]
            ball2 = sorted(gp.enumerate_ball(2), key=gp.sort_key)
            ball3 = gp.enumerate_ball(3)
            for g in ball3:
                assert gp.multiply(g, gp.invert(g)).is_identity
                assert gp.invert(gp.invert(g)) == g
                assert gp.multiply(g, gp.identity) == g
            for a, b, c in itertools.product(ball2, repeat=3):
                assert gp.multiply(gp.multiply(a, b), c) == gp.multiply(a, gp.multiply(b, c))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_multiply_matches_concatenation(self, products, data):
        gp = products["mixed"]
        letters = [(s, e) for s in gp.graph.vertices for e in (-2, -1, 1, 2)]
        w1 = tuple(data.draw(st.lists(st.sampled_from(letters), max_size=4)))
        w2 = tuple(data.draw(st.lists(st.sampled_from(letters), max_size=4)))
        assert gp.multiply(gp.normalize(w1), gp.normalize(w2)) == gp.normalize(w1 + w2)


class TestEqual:
    def test_conjugate_commuting(self, products):
        gp = products["z_squared"]
        assert gp.equal((("a", 1), ("b", 1), ("a", -1)), (("b", 1),))

    def test_free_noncommuting(self, products):
        gp = products["free2"]
        assert not gp.equal((("a", 1), ("b", 1)), (("b", 1), ("a", 1)))

    def test_exponent_mod_order(self, products):
        gp = products["single_z2"]
        assert gp.equal((("a", 3),), (("a", 1),))


class TestLength:
    def test_infinite_letter_counts_exponent(self, products):
        gp = products["single_inf"]
        assert gp.normalize((("a", -3),)).length == 3

    def test_finite_letter_counts_one(self):
        gp = GraphProduct(parse_graph("a:5"))
        assert gp.normalize((("a", 3),)).length == 1

    def test_identity_length_zero(self, products):
        assert products["free2"].identity.length == 0

    def test_length_is_minimal_over_closure(self, products):
        for name in ("free2", "z_squared", "mixed", "inf_dihedral"):
            gp = products[name]
            for word in all_words(gp.graph, 3, (-2, 1)):
                assert gp.normalize(word).length == oracle_min_length(gp, word)


class TestEndLetters:
    def test_blocked_letter(self, products):
        gp = products["free2"]
        g = gp.normalize((("a", 1), ("b", 1)))
        assert gp.end_letters(g) == {"b"}

    def test_commuting_letters_both_end(self, products):
        gp = products["z_squared"]
        g = gp.normalize((("a", 1), ("b", 1)))
        assert gp.end_letters(g) == {"a", "b"}

    def test_identity_has_none(self, products):
        assert products["free2"].end_letters(products["free2"].identity) == frozenset()

    def test_end_letters_form_a_clique(self, products):
        # end letters pairwise commute, on a radius-4 ball of every fixture
        for gp in products.values():
            for g in gp.enumerate_ball(4, max_elements=2000):
                ends = sorted(gp.end_letters(g))
                for s, t in itertools.combinations(ends, 2):
                    assert gp.graph.adjacent(s, t)


def check_hat_tables(gp):
    """base_of, base_hats, hat_subsets and hat_generators against the name
    parser hat_base and the alphabet hat_names."""
    graph = gp.graph
    names = hat_names(graph)
    assert tuple(gp.base_of) == tuple(gp.hat_subsets) == tuple(gp.hat_generators) == names
    for hat in names:
        base, sign = hat_base(graph, hat)
        assert gp.base_of[hat] == base
        if graph.is_finite(base):
            powers = [gp.generator(base, k) for k in range(1, graph.order(base))]
        else:
            powers = [gp.generator(base, sign)]
        assert gp.hat_subsets[hat] == (gp.identity, *powers)
        assert gp.hat_generators[hat] == powers[0]
    assert gp.base_hats == {
        s: tuple(hat for hat in names if hat_base(graph, hat)[0] == s) for s in graph.vertices
    }


class TestHatTables:
    def test_fixtures(self, products):
        for gp in products.values():
            check_hat_tables(gp)

    @given(labelled_graphs())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_random_graphs(self, graph):
        check_hat_tables(GraphProduct(graph))


class TestDescLetters:
    def test_infinite_generator_descends_by_inverse(self, products):
        gp = products["single_inf"]
        assert gp.desc_letters(gp.generator("a")) == {"a-"}

    def test_identity_has_none(self, products):
        assert products["z_squared"].desc_letters(products["z_squared"].identity) == frozenset()

    def test_finite_generator(self, products):
        gp = products["mixed"]
        assert "u" in gp.desc_letters(gp.generator("u"))

    def test_matches_coset_enumeration_oracle(self, products):
        # recompute max length over each hat coset with the rewriting oracle
        for name in ("single_inf", "mixed", "inf_dihedral"):
            gp = products[name]
            for g in gp.enumerate_ball(2):
                expected = set()
                for hat in hat_names(gp.graph):
                    lengths = [
                        oracle_min_length(gp, g.letters + h.letters)
                        for h in gp.hat_subsets[hat]
                    ]
                    if max(lengths) == oracle_min_length(gp, g.letters):
                        expected.add(hat)
                assert gp.desc_letters(g) == expected


class TestEnumerateBall:
    def oracle_ball_size(self, gp, radius):
        # BFS that only trusts the rewriting closure: elements are
        # represented by their full sets of reduced words.
        moves = [(s, e) for s in gp.graph.vertices for e in (1, -1)]
        identity = reduced_words(gp, ())
        seen = {identity: ()}
        frontier = [((), identity)]
        while frontier:
            new = []
            for word, _ in frontier:
                for move in moves:
                    cand = word + (move,)
                    if oracle_min_length(gp, cand) > radius:
                        continue
                    key = reduced_words(gp, cand)
                    if key not in seen:
                        seen[key] = cand
                        new.append((cand, key))
            frontier = new
        return len(seen)

    @pytest.mark.parametrize(
        "name,sizes",
        [
            ("free2", [1, 5, 17]),
            ("z_squared", [1, 5, 13]),
            ("inf_dihedral", [1, 3, 5]),
        ],
    )
    def test_growth(self, products, name, sizes):
        gp = products[name]
        for r, expected in enumerate(sizes):
            assert len(gp.enumerate_ball(r)) == expected
            assert self.oracle_ball_size(gp, r) == expected

    def test_ball_is_exactly_the_sublevel(self, products):
        gp = products["mixed"]
        ball = gp.enumerate_ball(2)
        assert all(g.length <= 2 for g in ball)
        assert gp.enumerate_ball(1) < ball

    def test_budget(self, products):
        with pytest.raises(BudgetExceededError):
            products["free2"].enumerate_ball(4, max_elements=10)


def check_ball(gp, radius, budget):
    """enumerate_ball against the BFS: the same set, or both over budget;
    each element its own normal form with its own length; a budget of
    the ball's size met, and one less overrun."""
    try:
        expected = bfs_ball(gp, radius, max_elements=budget)
    except BudgetExceededError:
        with pytest.raises(BudgetExceededError):
            gp.enumerate_ball(radius, max_elements=budget)
        return
    ball = gp.enumerate_ball(radius, max_elements=budget)
    assert ball == expected
    for g in ball:
        nf = gp.normalize(g.letters)
        assert (nf.letters, nf.length) == (g.letters, g.length)
    assert gp.enumerate_ball(radius, max_elements=len(ball)) == ball
    if len(ball) > 1:  # as in the BFS, the identity alone never overruns
        with pytest.raises(BudgetExceededError):
            gp.enumerate_ball(radius, max_elements=len(ball) - 1)


class TestEnumerateBallDifferential:
    @pytest.mark.parametrize("radius", [0, 1, 2, 3, 4])
    def test_fixtures_match_the_bfs(self, products, radius):
        for gp in products.values():
            check_ball(gp, radius, 2000)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_graphs_match_the_bfs(self, data):
        gp = GraphProduct(data.draw(labelled_graphs()))
        check_ball(gp, data.draw(st.integers(0, 4)), 600)

    def test_forms_no_products(self, products, monkeypatch):
        gp = products["mixed"]

        def forbidden(*args):
            pytest.fail("enumerate_ball formed a product")

        monkeypatch.setattr(gp, "multiply", forbidden)
        monkeypatch.setattr(gp, "normalize", forbidden)
        assert len(gp.enumerate_ball(3)) == 17  # Z x Z/3: 7 powers of a, times 3


class TestOracle:
    def test_conjugate(self, products):
        gp = products["z_squared"]
        assert gp.oracle_equal((("a", 1), ("b", 1), ("a", -1)), (("b", 1),))

    def test_identity_vs_generator(self, products):
        gp = products["single_inf"]
        assert not gp.oracle_equal((), (("a", 1),))

    def test_noncommuting_swap_rejected(self, products):
        gp = products["free2"]
        assert not gp.oracle_equal((("a", 1), ("b", 1)), (("b", 1), ("a", 1)))

    def test_agreement_with_equal(self, products):
        # small exhaustive confluence check; the acceptance suite does the
        # full fixture sweep
        for name in ("single_z3", "z_squared", "free2"):
            gp = products[name]
            words = list(all_words(gp.graph, 2, (-1, 1)))
            for w1, w2 in itertools.combinations(words, 2):
                assert gp.equal(w1, w2) == gp.oracle_equal(w1, w2)


class TestShuffleDifferential:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_shuffle_matches_the_greedy(self, data):
        # raw words too: there an earlier letter of the same generator must
        # block a letter just as a non-commuting one does
        gp = GraphProduct(data.draw(labelled_graphs()))
        word = data.draw(words(gp.graph, 10))
        assert gp._lex_least_shuffle(word) == greedy_shuffle(gp, word)
        reduced = gp.reduce_word(word)
        assert gp._lex_least_shuffle(reduced) == greedy_shuffle(gp, reduced)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_normalize_matches_the_oracle(self, data):
        gp = GraphProduct(data.draw(labelled_graphs()))
        w1 = data.draw(words(gp.graph, 4))
        w2 = data.draw(words(gp.graph, 4))
        assert gp.equal(w1, w2) == gp.oracle_equal(w1, w2)
        nf = gp.normalize(w1)
        for w in gp.oracle_closure(w1):
            assert gp.normalize(w) == nf
