"""Benchmark workloads, their seeded inputs and the correctness gate.

A seed picks one of 24 isomorphic variants of a workload's defining graph:
the generators are listed in one of the 3! orders and named from one of
four name sets.  Variant 0 is the graph as written in WORKLOADS.  Every
variant presents the same group, so the seed-invariant counts below must
hold for all of them; each variant's certificate digest is recorded in
golden.json from the seed commit's code.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple  # subcommand and its arguments, without --graph and --out
    generators: tuple  # (name, order) with order None for infinity
    edges: tuple  # pairs of generator positions
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "check-raag",
            ("check", "--radius", "4"),
            (("a", None), ("b", None), ("c", None)),
            ((0, 1), (1, 2)),
            "check on path a-b-c at r=4: the ROADMAP target and the only "
            "workload that runs the morse and special certificate layers",
        ),
        Workload(
            "build-z2xz3",
            ("build", "--radius", "9"),
            (("a", None), ("b", None), ("u", 3)),
            ((0, 1), (0, 2), (1, 2)),
            "build JSON of Z^2 x Z/3 at r=9: cubes layer with 3-cubes and a "
            "finite generator, large output, the memory workload",
        ),
        Workload(
            "dj-mixed",
            ("dj-graphs", "--radius", "2"),
            (("a", None), ("u", 3), ("b", None)),
            ((0, 1),),
            "dj-graphs at r=2 on a:inf u:3 b:inf: the ambient ball of radius "
            "6 in the dj and groups layers",
        ),
    )
}

# Name sets for variants 6-23, in different alphabetical orders.  Single
# letters keep every variant's output the same size; none may end in "+",
# "-" or "0", which the doubled and ambient graphs append.
NAME_SETS = (None, ("x", "y", "z"), ("q", "p", "r"), ("w", "v", "t"))
ORDERS = tuple(itertools.permutations(range(3)))
VARIANTS = len(NAME_SETS) * len(ORDERS)


def variant_of(seed):
    return seed % VARIANTS


def graph_text(workload, seed):
    """The defining graph of the seed's variant, in the graph file format."""
    v = variant_of(seed)
    order = ORDERS[v % len(ORDERS)]
    names = NAME_SETS[v // len(ORDERS)] or [n for n, _ in workload.generators]
    lines = []
    for i in order:
        c = workload.generators[i][1]
        lines.append("%s:%s" % (names[i], "inf" if c is None else c))
    lines.extend("edge %s %s" % (names[i], names[j]) for i, j in workload.edges)
    return "\n".join(lines) + "\n"


def hash_seed(seed):
    """PYTHONHASHSEED for every child process of a run with this seed."""
    return str(seed % 4294967296)


def certificate_digest(cert):
    """SHA-256 of the certificate without its tool version."""
    body = {k: v for k, v in cert.items() if k != "version"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def invariant_counts(workload, cert):
    """Counts that every variant of the workload shares, and its verdict."""
    command = workload.argv[0]
    if command == "check":
        return {
            "ok": cert["ok"],
            "vertices": cert["vertices"],
            "edges": cert["edges"],
            "squares": cert["squares"],
            "hyperplanes": cert["checks"]["special"]["hyperplanes"],
        }
    if command == "build":
        counts = {"ok": True, "vertices": len(cert["vertices"])}
        for c in cert["cubes"]:
            key = "cubes_dim%d" % c["dim"]
            counts[key] = counts.get(key, 0) + 1
        return counts
    iso = cert["isomorphism"]
    return {
        "ok": iso["ok"],
        "vertices": iso["vertices"],
        "edges": iso["edges"],
        "common_vertices": iso["vertices_common"],
    }


def load_golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def verify(workload, seed, exit_code, cert_text, golden):
    """Problems with one operation's result; an empty list means correct."""
    if exit_code != 0:
        return ["exit code %r" % exit_code]
    try:
        cert = json.loads(cert_text)
        counts = invariant_counts(workload, cert)
    except (ValueError, KeyError, TypeError) as err:
        return ["unreadable certificate: %s" % err]
    problems = []
    if counts["ok"] is not True:
        problems.append("certificate is not ok")
    expected = golden[workload.name]
    if counts != expected["counts"]:
        problems.append("counts %r, expected %r" % (counts, expected["counts"]))
    digest = certificate_digest(cert)
    if digest != expected["digests"][variant_of(seed)]:
        problems.append("certificate digest %s differs from the recorded one" % digest)
    return problems
