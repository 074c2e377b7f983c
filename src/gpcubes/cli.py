"""Command line front end.

Subcommands:

* normalize  -- canonical form and length of a word
* equal      -- compare two words (exit 1 when they differ)
* build      -- materialize a ball of the cube complex (json or dot)
* check      -- run every certificate on a ball and emit a json report
* dj-graphs  -- the two auxiliary presentations and, with --radius, the
                ball isomorphism report

Exit codes: 0 success / checks passed, 1 a check failed, 2 bad usage or
unparsable input, 3 a resource budget ran out.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

from . import __version__
from .cubes import (
    build_ball,
    ball_to_dot,
    ball_to_json,
    check_link_models,
    cliques,
    fundamental_domain_check,
    hat_graph,
)
from .dj import ambient_graph, iso_check
from .groups import (
    BudgetExceededError,
    DEFAULT_ELEMENT_BUDGET,
    DEFAULT_WORD_BUDGET,
    GraphParseError,
    GraphProduct,
    UnknownGeneratorError,
    parse_graph,
    parse_word,
)
from .morse import morse_report
from .special import check_free_kernel_action, check_special


def _load_graph(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        reason = getattr(err, "strerror", None) or err
        raise GraphParseError("cannot read %s: %s" % (path, reason)) from err
    return parse_graph(text)


def _graph_digest(graph):
    return hashlib.sha256(graph.to_text().encode()).hexdigest()


def _certificate(graph, payload, radius=None):
    cert = {
        "tool": "gpcubes",
        "version": __version__,
        "graph": graph.to_text(),
        "graph_sha256": _graph_digest(graph),
    }
    if radius is not None:
        cert["radius"] = radius
    cert.update(payload)
    return cert


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(data, out):
    _emit(json.dumps(data, sort_keys=True, indent=2, default=str) + "\n", out)


def _nonnegative(what):
    """An argparse type: a nonnegative integer, named `what` in the error."""

    def parse(text):
        if not text.isdecimal():
            raise argparse.ArgumentTypeError("%s must be a nonnegative integer: %r" % (what, text))
        return int(text)

    return parse


_radius = _nonnegative("radius")
_budget = _nonnegative("budget")


def _add_common(sub):
    sub.add_argument("--graph", required=True, help="path to a graph file")
    sub.add_argument("--out", help="write output here instead of stdout")


def make_parser():
    parser = argparse.ArgumentParser(
        prog="gpcubes",
        description="cube complexes of graph products of cyclic groups",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("normalize", help="canonical form of a word")
    _add_common(p)
    p.add_argument("word", help="comma separated letters, e.g. 'a^2, b^-1'")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = subs.add_parser("equal", help="decide whether two words agree")
    _add_common(p)
    p.add_argument("word1")
    p.add_argument("word2")
    p.add_argument(
        "--oracle",
        action="store_true",
        help="decide via the rewriting closure instead of normal forms",
    )
    p.add_argument("--budget-words", type=_budget, default=DEFAULT_WORD_BUDGET)

    p = subs.add_parser("build", help="materialize a ball of the complex")
    _add_common(p)
    p.add_argument("--radius", type=_radius, required=True)
    p.add_argument("--budget-elements", type=_budget, default=DEFAULT_ELEMENT_BUDGET)
    p.add_argument("--format", choices=("json", "dot"), default="json")

    p = subs.add_parser("check", help="run every certificate on a ball")
    _add_common(p)
    p.add_argument("--radius", type=_radius, required=True)
    p.add_argument("--budget-elements", type=_budget, default=DEFAULT_ELEMENT_BUDGET)

    p = subs.add_parser(
        "dj-graphs", help="auxiliary presentations and the ball isomorphism"
    )
    _add_common(p)
    p.add_argument(
        "--radius",
        type=_radius,
        help="also certify the common-complex isomorphism on this ball",
    )
    p.add_argument("--budget-elements", type=_budget, default=DEFAULT_ELEMENT_BUDGET)

    return parser


def _cmd_normalize(args):
    graph = _load_graph(args.graph)
    gp = GraphProduct(graph)
    nf = gp.normalize(parse_word(graph, args.word))
    rendered = (
        ", ".join(s if e == 1 else "%s^%d" % (s, e) for s, e in nf.letters)
        if nf.letters
        else "1"
    )
    if args.format == "json":
        _emit_json(
            _certificate(
                graph,
                {"word": args.word, "normal_form": rendered, "length": nf.length},
            ),
            args.out,
        )
    else:
        _emit("%s\nlength %d\n" % (rendered, nf.length), args.out)
    return 0


def _cmd_equal(args):
    graph = _load_graph(args.graph)
    gp = GraphProduct(graph)
    w1 = parse_word(graph, args.word1)
    w2 = parse_word(graph, args.word2)
    if args.oracle:
        same = gp.oracle_equal(w1, w2, budget=args.budget_words)
    else:
        same = gp.equal(w1, w2)
    _emit("equal\n" if same else "different\n", args.out)
    return 0 if same else 1


def _cmd_build(args):
    graph = _load_graph(args.graph)
    ball = build_ball(graph, args.radius, max_elements=args.budget_elements)
    if args.format == "dot":
        _emit(ball_to_dot(ball), args.out)
    else:
        _emit_json(_certificate(graph, ball_to_json(ball), radius=args.radius), args.out)
    return 0


def _cmd_check(args):
    graph = _load_graph(args.graph)
    ball = build_ball(graph, args.radius, max_elements=args.budget_elements)
    links_ok = all(check_link_models(ball, v) for v in ball.interior_vertices)
    reports = {
        "links": {"ok": links_ok, "checked": len(ball.interior_vertices)},
        "morse": morse_report(ball),
        "special": check_special(ball),
        "kernel_action": check_free_kernel_action(ball),
        "fundamental_domain": fundamental_domain_check(ball),
    }
    ok = all(r["ok"] for r in reports.values())
    cert = _certificate(
        graph,
        {
            "vertices": len(ball.vertices),
            "edges": len(ball.edges),
            "squares": len(ball.squares),
            "interior_vertices": len(ball.interior_vertices),
            "truncation": "%d vertex/vertices on the ball boundary were excluded "
            "from link and descent checks" % (len(ball.vertices) - len(ball.interior_vertices)),
            "checks": reports,
            "ok": ok,
        },
        radius=args.radius,
    )
    _emit_json(cert, args.out)
    return 0 if ok else 1


def _cmd_dj_graphs(args):
    graph = _load_graph(args.graph)
    doubled = hat_graph(graph)
    ambient = ambient_graph(graph)
    # the original and the doubled complex are both built over the doubled
    # graph, so their cube dimensions agree; the ambient one usually differs
    dimension = max(map(len, cliques(doubled)))
    payload = {
        "doubled_graph": doubled.to_text(),
        "ambient_graph": ambient.to_text(),
        "dimensions": {
            "original": dimension,
            "doubled": dimension,
            "ambient": max(map(len, cliques(hat_graph(ambient)))),
        },
    }
    ok = True
    if args.radius is not None:
        report = iso_check(graph, args.radius, max_elements=args.budget_elements)
        payload["isomorphism"] = report
        ok = report["ok"]
    _emit_json(_certificate(graph, payload, radius=args.radius), args.out)
    return 0 if ok else 1


_COMMANDS = {
    "normalize": _cmd_normalize,
    "equal": _cmd_equal,
    "build": _cmd_build,
    "check": _cmd_check,
    "dj-graphs": _cmd_dj_graphs,
}


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (GraphParseError, UnknownGeneratorError, OSError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    except BudgetExceededError as err:
        print("error: %s" % err, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
