"""Graph products of cyclic groups: presentation graphs, words, and the
word problem.

A presentation graph is a finite simplicial graph whose vertices carry an
order in {2, 3, ...} or infinity.  The associated group is generated by the
vertices, with each vertex s of finite order c satisfying s^c = 1 and two
generators commuting exactly when they are joined by an edge.

Elements are handled as words, i.e. sequences of letters (generator,
exponent).  Three rewriting moves never change the group element:

  (1) drop a letter with exponent 0,
  (2) merge two consecutive letters with the same generator,
  (3) swap two consecutive letters whose generators commute.

A word none of these can shorten is reduced.  We refine "reduced" to a
canonical normal form: exponents of finite-order generators are folded into
{1, ..., c-1} and, among all reduced words of the element, the
lexicographically least one (letters ordered by vertex position, then
exponent) is chosen.  One primitive, GraphProduct.times, decides where a
letter goes in a normal form; normalize, the group operations and
enumerate_ball are all built on it.  Equality of elements is then syntactic
equality of normal forms; a slow rewriting-closure oracle is provided to
keep the fast path honest.
"""

from __future__ import annotations

import functools
import re
from collections import deque

DEFAULT_WORD_BUDGET = 100_000
DEFAULT_ELEMENT_BUDGET = 100_000

_NAME_RE = re.compile(r"[^\s:#,^]+")


class GraphParseError(ValueError):
    """Malformed presentation graph file."""


class UnknownGeneratorError(ValueError):
    """A word uses a generator that is not a vertex of the graph."""


class PresentationMismatchError(ValueError):
    """Normal forms over different presentation graphs were combined."""


class BudgetExceededError(RuntimeError):
    """A configurable resource cap (element or word count) was hit."""


class OracleUndecidedError(BudgetExceededError):
    """The rewriting oracle ran out of budget before deciding."""


class LabeledGraph:
    """Finite simplicial graph with vertex orders in {2,3,...} or None (= infinity).

    The vertex list order is significant: it is the total order used for all
    lexicographic tie-breaking downstream.
    """

    def __init__(self, vertices, orders, edges):
        self.vertices = tuple(vertices)
        self.orders = dict(orders)
        self.edges = frozenset(frozenset(e) for e in edges)
        if len(set(self.vertices)) != len(self.vertices):
            raise GraphParseError("duplicate vertex name")
        if "1" in self.orders:
            raise GraphParseError("vertex name '1' is reserved: it prints as the identity")
        for v in self.vertices:
            c = self.orders[v]
            if c is not None and c < 2:
                raise GraphParseError("vertex order must be >= 2 or inf: %r" % v)
            if c is None:
                # the doubled and ambient graphs name their letters s+, s-, s0
                for tag in ("+", "-", "0"):
                    if v + tag in self.orders:
                        raise GraphParseError(
                            "vertex name %r is reserved for the infinite generator %r"
                            % (v + tag, v)
                        )
        for e in self.edges:
            if len(e) != 2:
                raise GraphParseError("self-loop or malformed edge: %r" % sorted(e))
            for v in e:
                if v not in self.orders:
                    raise GraphParseError("unknown vertex in edge: %r" % v)
        self.index = {v: i for i, v in enumerate(self.vertices)}
        self._adj = {v: set() for v in self.vertices}
        for e in self.edges:
            a, b = sorted(e, key=self.index.__getitem__)
            self._adj[a].add(b)
            self._adj[b].add(a)

    def adjacent(self, s, t):
        return t in self._adj[s]

    def neighbors(self, s):
        return frozenset(self._adj[s])

    def order(self, s):
        return self.orders[s]

    def is_finite(self, s):
        return self.orders[s] is not None

    @property
    def finite_vertices(self):
        return tuple(v for v in self.vertices if self.is_finite(v))

    @property
    def infinite_vertices(self):
        return tuple(v for v in self.vertices if not self.is_finite(v))

    def to_text(self):
        """Canonical serialization in the graph file format."""
        lines = []
        for v in self.vertices:
            c = self.orders[v]
            lines.append("%s:%s" % (v, "inf" if c is None else c))
        for e in sorted(
            (sorted(e, key=self.index.__getitem__) for e in self.edges),
            key=lambda p: (self.index[p[0]], self.index[p[1]]),
        ):
            lines.append("edge %s %s" % (e[0], e[1]))
        return "\n".join(lines) + "\n"

    def __eq__(self, other):
        return (
            isinstance(other, LabeledGraph)
            and self.vertices == other.vertices
            and self.orders == other.orders
            and self.edges == other.edges
        )

    def __repr__(self):
        return "LabeledGraph(%r)" % (self.vertices,)


def parse_graph(text):
    """Parse the graph file format.

    Lines are either "name:order" with order a decimal >= 2 or "inf",
    or "edge name name".  "#" starts a comment; blank lines are ignored.
    """
    vertices = []
    orders = {}
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("edge ") or line == "edge":
            parts = line.split()
            if len(parts) != 3:
                raise GraphParseError("line %d: malformed edge line: %r" % (lineno, raw))
            _, a, b = parts
            if a not in orders:
                raise GraphParseError("line %d: unknown vertex in edge: %r" % (lineno, a))
            if b not in orders:
                raise GraphParseError("line %d: unknown vertex in edge: %r" % (lineno, b))
            if a == b:
                raise GraphParseError("line %d: self-loop on %r" % (lineno, a))
            edges.append((a, b))
        elif ":" in line:
            name, _, order_text = line.partition(":")
            name = name.strip()
            order_text = order_text.strip()
            if not name or not _NAME_RE.fullmatch(name) or name == "edge":
                raise GraphParseError("line %d: bad vertex name: %r" % (lineno, name))
            if name in orders:
                raise GraphParseError("line %d: duplicate vertex name: %r" % (lineno, name))
            if order_text == "inf":
                order = None
            else:
                try:
                    order = int(order_text)
                except ValueError:
                    raise GraphParseError(
                        "line %d: bad order %r for vertex %r" % (lineno, order_text, name)
                    ) from None
                if order < 2:
                    raise GraphParseError(
                        "line %d: order must be >= 2 or inf, got %d" % (lineno, order)
                    )
            vertices.append(name)
            orders[name] = order
        else:
            raise GraphParseError("line %d: malformed line: %r" % (lineno, raw))
    return LabeledGraph(vertices, orders, edges)


def parse_word(graph, text):
    """Parse a comma-separated word like "s^2, t^-1, s" into letters."""
    text = text.strip()
    if not text:
        return ()
    letters = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise UnknownGeneratorError("empty word token")
        name, sep, exp_text = token.rpartition("^")
        if sep:
            try:
                exp = int(exp_text)
            except ValueError:
                raise UnknownGeneratorError("bad exponent in token %r" % token) from None
        else:
            name, exp = token, 1
        if name not in graph.orders:
            raise UnknownGeneratorError("unknown generator %r" % name)
        if exp == 0:
            raise UnknownGeneratorError("zero exponent in token %r" % token)
        letters.append((name, exp))
    return tuple(letters)


def format_word(letters):
    if not letters:
        return "1"
    return " ".join(s if e == 1 else "%s^%d" % (s, e) for s, e in letters)


class NormalForm:
    """Canonical reduced word for a group element, with its length cached.

    The length counts |exponent| for infinite-order letters and 1 for each
    finite-order letter.  Construct these through GraphProduct.normalize and
    friends; equality and hashing look at the letters only.  Instances are
    immutable by convention, as CosetVertex is: after __init__ only the hash
    slot is filled, on first use, since they are keys of every set and dict
    of the ball.
    """

    __slots__ = ("letters", "length", "graph", "_hash")

    def __init__(self, letters, length, graph):
        self.letters = letters
        self.length = length
        self.graph = graph
        self._hash = None

    def __eq__(self, other):
        if not isinstance(other, NormalForm):
            return NotImplemented
        return self.letters == other.letters

    def __hash__(self):
        # CPython hashes -1 like -2, so a^-1 and a^-2 would collide and
        # cancel in the hash of a coset holding both; doubled exponents differ
        if self._hash is None:
            self._hash = hash(tuple([(s, e + e) for s, e in self.letters]))
        return self._hash

    def __repr__(self):
        return "NormalForm(letters=%r, length=%r)" % (self.letters, self.length)

    def __str__(self):
        return format_word(self.letters)

    @property
    def is_identity(self):
        return not self.letters


class GraphProduct:
    """The graph product of cyclic groups presented by a LabeledGraph.

    All operations are pure; instances are safe to share between threads.
    """

    def __init__(self, graph):
        self.graph = graph
        self._identity = NormalForm((), 0, graph)
        # a letter of s cannot move past a letter of any generator in
        # _conflicts[s]: the non-neighbours of s and s itself
        self._conflicts = {
            s: frozenset(graph.vertices) - graph.neighbors(s) for s in graph.vertices
        }
        # the doubled alphabet: one hat letter s per finite generator s, two,
        # s+ and s-, per infinite one.  For every hat letter h: the generator
        # h itself and its base generator; the hat letters of each generator;
        # and the doubled graph on the hat letters, each of order |<<h>>|
        # (the order of a finite generator, 2 for s+ and s-), every edge of
        # the graph joining each hat letter of one end to each of the other
        # (s+ and s- are never joined)
        self.hat_generators = {}
        self.base_of = {}
        self.base_hats = {}
        for s in graph.vertices:
            if graph.orders[s] is None:
                hats = {s + "+": self.generator(s, 1), s + "-": self.generator(s, -1)}
            else:
                hats = {s: self.generator(s, 1)}
            self.base_hats[s] = tuple(hats)
            for hat, h in hats.items():
                self.base_of[hat] = s
                self.hat_generators[hat] = h
        self.doubled = LabeledGraph(
            self.hat_generators,
            {hat: graph.orders[s] or 2 for hat, s in self.base_of.items()},
            [
                (h, k)
                for a, b in map(tuple, graph.edges)
                for h in self.base_hats[a]
                for k in self.base_hats[b]
            ],
        )

    @functools.cached_property
    def hat_subsets(self):
        """Hat letter h -> the standard subset <<h>>, identity first: the
        whole cyclic group for a finite generator, {1, s^+-1} for s+ and
        s-.  Made on first use, as an order of c makes c - 1 powers, which
        no word problem and no ball past the element budget needs."""
        out = {}
        for hat, h in self.hat_generators.items():
            s = self.base_of[hat]
            c = self.graph.orders[s] or 2
            out[hat] = (self._identity, h) + tuple(self.generator(s, k) for k in range(2, c))
        return out

    # -- basic word handling ------------------------------------------------

    def _check_letters(self, letters):
        for s, _ in letters:
            if s not in self.graph.orders:
                raise UnknownGeneratorError("unknown generator %r" % s)

    def _fold(self, s, e):
        c = self.graph.orders[s]
        return e if c is None else e % c

    def _letter_key(self, letter):
        return (self.graph.index[letter[0]], letter[1])

    def sort_key(self, nf):
        """(length, lex) key; total order on normal forms."""
        return (nf.length, tuple(self._letter_key(l) for l in nf.letters))

    # -- normal forms --------------------------------------------------------

    def normalize(self, word):
        """Canonical normal form of a word (tuple of letters or NormalForm):
        its letters folded one at a time into the identity by times."""
        if isinstance(word, NormalForm):
            self._check_presentation(word)
            word = word.letters
        x = self._identity
        for s, e in word:
            x = self.times(x, s, e)
        return x

    @property
    def identity(self):
        return self._identity

    def generator(self, s, e=1):
        return self.times(self._identity, s, e)

    def _check_presentation(self, nf):
        if nf.graph is not self.graph and nf.graph != self.graph:
            raise PresentationMismatchError(
                "normal form over %r used with %r" % (nf.graph, self.graph)
            )

    def multiply(self, a, b):
        self._check_presentation(a)
        self._check_presentation(b)
        return self.normalize(a.letters + b.letters)

    def times(self, x, s, e):
        """The normal form of x * s^e, for a normal form x and one letter:
        the one place where a letter's position is decided.

        A reduced word is lex-least in its commutation class iff it has no
        factor b u a with a < b, where a commutes with b and with every
        letter of u (Anisimov-Knuth, "Inhomogeneous sorting", 1979).  One
        scan goes back from the end of x past the letters that commute
        with s.  If it meets a letter of s, the exponents add, and the
        letter goes when they cancel: no letter of s commutes with another,
        and the letters passed commute with s, so the result is reduced and
        still free of such factors.  Otherwise s^e goes into the commuting
        tail, before its first letter of larger graph index: no such factor
        then starts or ends at s.  The length is updated on the same pass.
        """
        self._check_presentation(x)
        try:
            c = self.graph.orders[s]
        except KeyError:
            raise UnknownGeneratorError("unknown generator %r" % s) from None
        if c is not None:
            e %= c
        if not e:
            return x
        letters = x.letters
        conflicts = self._conflicts[s]
        index = self.graph.index
        rank = index[s]
        place = len(letters)
        for i in range(len(letters) - 1, -1, -1):
            t, f = letters[i]
            if t == s:
                merged = f + e if c is None else (f + e) % c
                if merged:
                    out = letters[:i] + ((s, merged),) + letters[i + 1 :]
                    length = x.length + (abs(merged) - abs(f) if c is None else 0)
                else:
                    out = letters[:i] + letters[i + 1 :]
                    length = x.length - (abs(f) if c is None else 1)
                return NormalForm(out, length, self.graph)
            if t in conflicts:
                break
            if index[t] > rank:
                place = i
        out = letters[:place] + ((s, e),) + letters[place:]
        return NormalForm(out, x.length + (abs(e) if c is None else 1), self.graph)

    def invert(self, a):
        self._check_presentation(a)
        return self.normalize(tuple((s, -e) for s, e in reversed(a.letters)))

    def equal(self, w1, w2):
        """True iff the two words represent the same group element."""
        return self.normalize(w1) == self.normalize(w2)

    # -- end letters and the hat alphabet -----------------------------------

    def end_letters(self, g):
        """Generators some reduced word for g ends in a power of."""
        self._check_presentation(g)
        adjacent = self.graph.adjacent
        letters = g.letters
        ends = set()
        for i, (s, _) in enumerate(letters):
            if all(adjacent(t, s) for t, _ in letters[i + 1 :]):
                ends.add(s)
        return frozenset(ends)

    def desc_letters(self, g):
        """Hat vertices whose standard coset at g does not rise above g.

        A hat vertex h is descending for g iff max length over g<<h>> equals
        length(g); computed by enumerating the finite coset.
        """
        self._check_presentation(g)
        out = set()
        for hat, subset in self.hat_subsets.items():
            coset_max = max(self.multiply(g, h).length for h in subset)
            if coset_max == g.length:
                out.add(hat)
        return frozenset(out)

    # -- enumeration ---------------------------------------------------------

    def enumerate_ball(self, radius, max_elements=DEFAULT_ELEMENT_BUDGET):
        """All elements of length <= radius, as canonical normal forms.

        Each normal form is built from the one before its last letter: w s^e
        is a new normal form iff times(w, s, 1) puts s last, that is, s
        neither merges with a letter of w nor sorts before one (the test
        does not depend on e).  The exponent of s ranges over 1..c-1 for a
        finite order c, and over +-1..+-(radius - |w|) for an infinite one.
        w s is the tested product itself, w s^-1 is w s times s^-2, and
        each further power is the one before times s^+-1: one times each,
        merging into the last letter.  The powers are made one at a time so
        that the budget bounds the memory too.  Every prefix of a normal
        form is one, so each element is built exactly once.  Raises
        BudgetExceededError as soon as the count passes max_elements.
        """
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        times = self.times
        levels = [[self._identity]]  # by length; grows while it is read
        count = 1
        for n, level in enumerate(levels):
            room = radius - n
            if not room:
                break
            for w in level:
                for s, c in self.graph.orders.items():
                    x = times(w, s, 1)
                    if x.letters[-1:] != ((s, 1),):
                        continue
                    starts = (x,) if c is not None else (x, times(x, s, -2))
                    for x in starts:
                        sign = x.letters[-1][1]
                        for k in range(room if c is None else c - 1):
                            if k:
                                x = times(x, s, sign)
                            while len(levels) <= x.length:
                                levels.append([])
                            levels[x.length].append(x)
                            count += 1
                            if count > max_elements:
                                raise BudgetExceededError(
                                    "ball of radius %d exceeds %d elements"
                                    % (radius, max_elements)
                                )
        return frozenset(w for level in levels for w in level)

    # -- the ground-truth oracle ----------------------------------------------

    def oracle_closure(self, word, budget=DEFAULT_WORD_BUDGET):
        """Closure of a word under the rewriting moves (1)-(3).

        Letters of finite-order generators are identified with their vertex
        group element (exponents taken mod the order) up front.  The moves
        never lengthen a word, so the closure is finite; it contains every
        reduced word of the element.
        """
        if isinstance(word, NormalForm):
            word = word.letters
        self._check_letters(word)
        adjacent = self.graph.adjacent
        start = tuple((s, self._fold(s, e)) for s, e in word)
        seen = {start}
        queue = deque(seen)
        while queue:
            w = queue.popleft()
            candidates = []
            for i, (s, e) in enumerate(w):
                if e == 0:
                    candidates.append(w[:i] + w[i + 1 :])
            for i in range(len(w) - 1):
                (s, e1), (t, e2) = w[i], w[i + 1]
                if s == t:
                    candidates.append(w[:i] + ((s, self._fold(s, e1 + e2)),) + w[i + 2 :])
                elif adjacent(s, t):
                    candidates.append(w[:i] + ((t, e2), (s, e1)) + w[i + 2 :])
            for cand in candidates:
                if cand not in seen:
                    seen.add(cand)
                    if len(seen) > budget:
                        raise OracleUndecidedError(
                            "rewriting closure exceeds budget %d" % budget
                        )
                    queue.append(cand)
        return frozenset(seen)

    def oracle_equal(self, w1, w2, budget=DEFAULT_WORD_BUDGET):
        """Ground-truth equality: do the rewriting closures intersect?

        Independent of normalize(); used to validate it.  Raises
        OracleUndecidedError if the budget runs out first.
        """
        c1 = self.oracle_closure(w1, budget)
        c2 = self.oracle_closure(w2, budget)
        return not c1.isdisjoint(c2)
