"""End-to-end acceptance suite: one test (and one printed verdict line) per
criterion.  Every expected value here is either frozen from an independent
oracle (the rewriting-closure machinery, brute-force BFS) or a hand-checkable
small example."""

import itertools
import json

import pytest

from gpcubes.cli import main
from gpcubes.cubes import build_ball, check_link_models, is_flag, vertex_link
from gpcubes.dj import DJPair, iso_check, _saturate
from gpcubes.groups import hat_names
from gpcubes.morse import height, morse_report, sublevel_euler
from gpcubes.special import base_label, check_free_kernel_action, check_special

from conftest import GRAPH_TEXTS
from test_groups import all_words, reduced_words


def verdict(label, ok):
    print("ACCEPTANCE %-28s %s" % (label, "PASS" if ok else "FAIL"))
    assert ok, label


def test_confluence_sweep(products):
    # the canonical form induces exactly the same partition into equality
    # classes as the full rewriting closure, on every fixture, over all
    # words of up to three letters with exponents in [-2, 2]
    ok = True
    for name, gp in products.items():
        by_nf = {}
        by_oracle_key = {}
        for word in all_words(gp.graph, 3, (-2, -1, 1, 2)):
            nf = gp.normalize(word)
            key = reduced_words(gp, word)
            ok = ok and nf.letters in key
            prev = by_nf.setdefault(nf, key)
            ok = ok and prev == key
            prev_nf = by_oracle_key.setdefault(key, nf)
            ok = ok and prev_nf == nf
        if not ok:
            break
    # direct spot checks of the pairwise decision procedure
    gp = products["z_squared"]
    ok = ok and gp.oracle_equal((("a", 1), ("b", 1), ("a", -1)), (("b", 1),))
    gp = products["free2"]
    ok = ok and not gp.oracle_equal((("a", 1), ("b", 1)), (("b", 1), ("a", 1)))
    verdict("word-problem-confluence", ok)


def test_growth_numbers(products):
    expected = {
        "free2": [1, 5, 17],
        "z_squared": [1, 5, 13],
        "inf_dihedral": [1, 3, 5],
    }
    ok = True
    for name, sizes in expected.items():
        gp = products[name]
        for r, n in enumerate(sizes):
            ok = ok and len(gp.enumerate_ball(r)) == n
    verdict("ball-growth-numbers", ok)


def test_real_line_ball(graphs):
    ball = build_ball(graphs["single_inf"], 3)
    ok = len(ball.vertices) == 13 and len(ball.edges) == 12 and not ball.squares
    degree = {}
    for e in ball.edges:
        for v in (e.bottom, e.top):
            degree[v] = degree.get(v, 0) + 1
    ok = ok and all(degree[v] <= 2 for v in ball.vertices)
    ok = ok and all(degree[v] == 2 for v in ball.interior_vertices)
    verdict("real-line-is-a-path", ok)


def test_links_are_flag(graphs):
    ok = True
    for name, graph in graphs.items():
        ball = build_ball(graph, 2)
        for v in ball.interior_vertices:
            link = vertex_link(ball, v)
            ok = ok and is_flag(link.complex)
            ok = ok and check_link_models(ball, v, link)
    verdict("interior-links-flag", ok)


def test_morse_certificates(graphs):
    radii = {name: 2 if name == "pentagon" else 3 for name in GRAPH_TEXTS}
    ok = True
    for name, graph in graphs.items():
        ball = build_ball(graph, radii[name])
        report = morse_report(ball)
        ok = ok and report["ok"]
        ok = ok and all(
            sublevel_euler(ball, h) == 1 for h in {height(v) for v in ball.vertices}
        )
    verdict("morse-descent-certificates", ok)


def test_specialness(graphs):
    ok = True
    for name, graph in graphs.items():
        report = check_special(build_ball(graph, 2))
        ok = ok and report["ok"]
    # negative control: a labelling that conflates the two signs of an
    # infinite generator must be caught by the osculation condition
    control = check_special(build_ball(graphs["free2"], 2), label_fn=base_label)
    ok = ok and not control["no_label_osculation"] and not control["ok"]
    verdict("specialness-certificates", ok)


def test_kernel_acts_freely(graphs):
    ok = True
    for name, graph in graphs.items():
        report = check_free_kernel_action(build_ball(graph, 2))
        ok = ok and report["ok"]
    verdict("torsion-kernel-acts-freely", ok)


def test_commensurability_algebra(graphs):
    ok = True
    for name in ("single_inf", "z_squared", "mixed"):
        pair = DJPair(graphs[name])
        gp, gpd, gp2 = pair.gp, pair.gp_doubled, pair.gp_ambient
        ball = gp.enumerate_ball(4, max_elements=5000)
        ok = ok and len({pair.beta(g) for g in ball}) == len(ball)
        balld = gpd.enumerate_ball(4, max_elements=5000)
        ok = ok and len({pair.alpha(g) for g in balld}) == len(balld)
        # every ambient element factors, uniquely, with fibers of size |E|
        fibers = {}
        for g in gp2.enumerate_ball(3):
            a, e = pair.factorize(g)
            fibers.setdefault(a, set()).add(e)
        n_e = len(pair.e_elements)
        ok = ok and all(len(es) <= n_e for es in fibers.values())
        ok = ok and len(fibers[gp.identity]) == n_e
        # the two embeddings saturate the standard subsets identically
        for hat in hat_names(pair.graph):
            lhs = _saturate(pair, {pair.beta(x) for x in gp.hat_subsets[hat]})
            rhs = _saturate(pair, {pair.alpha(x) for x in gpd.hat_subsets[hat]})
            ok = ok and lhs == rhs
    verdict("commensurability-algebra", ok)


def test_commensurability_complexes(graphs):
    ok = True
    for name in ("single_inf", "z_squared"):
        report = iso_check(graphs[name], 2)
        ok = ok and report["ok"]
        ok = ok and report["vertices"] == report["vertices_common"]
    verdict("common-complex-isomorphism", ok)


def test_deterministic_certificates(tmp_path):
    graph_path = tmp_path / "fixture.graph"
    graph_path.write_text(GRAPH_TEXTS["mixed"])
    outputs = []
    for i in range(2):
        out = tmp_path / ("cert%d.json" % i)
        code = main(
            ["check", "--graph", str(graph_path), "--radius", "2", "--out", str(out)]
        )
        outputs.append((code, out.read_bytes()))
    ok = all(code == 0 for code, _ in outputs)
    ok = ok and outputs[0][1] == outputs[1][1]
    ok = ok and json.loads(outputs[0][1])["ok"]
    verdict("byte-identical-certificates", ok)
