"""Self-tests of the benchmark.

    python3 bench/selftest.py

They check the metric table against BENCHMARK.json, that the tracer misses
no call, and that the recorded certificate digests reproduce (this runs each
workload once at seed 0, about half a minute).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

from run import BUILD_DIR, END_TO_END, HERE, ROOT, Runner, child_env
from tracer import LAYER_METRICS
from workloads import WORKLOADS, load_golden

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
TINY_GRAPH = "a:inf\nb:inf\nc:2\nedge a b\nedge b c\n"

# Lists every layer function still bound somewhere without its wrapper.
UNWRAPPED = """
import inspect, json, sys
import gpcubes, gpcubes.cli
from tracer import LAYERS, METHODS, Tracer
Tracer().install()
mods = [gpcubes] + [sys.modules["gpcubes." + l] for l in LAYERS]
bare = [m.__name__ + "." + a for m in mods for a, f in vars(m).items()
        if inspect.isfunction(f) and f.__module__.startswith("gpcubes.")
        and not a.startswith("_") and not hasattr(f, "__wrapped__")]
for layer, (cls, methods) in METHODS.items():
    c = getattr(sys.modules["gpcubes." + layer], cls)
    bare += [cls + "." + m for m in methods if not hasattr(vars(c)[m], "__wrapped__")]
print(json.dumps(bare))
"""


def scratch_dir(name):
    path = os.path.join(BUILD_DIR, "selftest", name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


class MetricTable(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            self.spec = json.load(fh)

    def test_names_are_well_formed(self):
        names = [m["name"] for key in ("end_to_end", "per_layer") for m in self.spec[key]]
        names += [w["name"] for w in self.spec["workloads"]]
        for name in names:
            self.assertRegex(name, NAME_RE)
        self.assertEqual(len(names), len(set(names)))

    def test_spec_matches_code(self):
        self.assertEqual(
            [(m["name"], m["unit"]) for m in self.spec["end_to_end"]], list(END_TO_END)
        )
        self.assertEqual(
            [(m["name"], m["unit"]) for m in self.spec["per_layer"]],
            [(name, unit) for name, unit, _, _, _ in LAYER_METRICS],
        )
        self.assertEqual(
            {w["name"]: w["why"] for w in self.spec["workloads"]},
            {w.name: w.why for w in WORKLOADS.values()},
        )

    def test_layer_metrics_name_what_they_move(self):
        end_to_end = {name for name, _ in END_TO_END}
        for name, _, _, moves, workloads in LAYER_METRICS:
            self.assertIn(moves, end_to_end, name)
            self.assertTrue(workloads, name)
            self.assertTrue(set(workloads) <= set(WORKLOADS), name)


class Tracing(unittest.TestCase):
    def test_every_binding_is_wrapped(self):
        proc = subprocess.run(
            [sys.executable, "-c", UNWRAPPED],
            cwd=HERE,
            env=child_env(0),
            capture_output=True,
            text=True,
            check=True,
        )
        self.assertEqual(json.loads(proc.stdout), [])

    def test_tracer_misses_no_call(self):
        work = scratch_dir("tiny")
        graph = os.path.join(work, "tiny.graph")
        with open(graph, "w") as fh:
            fh.write(TINY_GRAPH)
        out = os.path.join(work, "out.json")
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), "trace", graph, out, "check",
             "--radius", "3"],
            env=child_env(0),
            capture_output=True,
            text=True,
            check=True,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        layers = result["layers"]
        with open(out) as fh:
            cert = json.load(fh)

        sys.path.insert(0, os.path.join(ROOT, "src"))
        from gpcubes import parse_graph
        from gpcubes.cubes import build_ball
        from gpcubes.morse import height

        ball = build_ball(parse_graph(TINY_GRAPH), 3)
        heights = len({height(v) for v in ball.vertices})
        self.assertEqual(layers["morse.heights"], heights)
        self.assertEqual(layers["cubes.cubes"], len(ball.cubes))
        self.assertEqual(layers["cubes.vertices"], cert["vertices"])
        self.assertEqual(layers["special.stabilizer_calls"], cert["vertices"])
        self.assertEqual(layers["morse.cube_max_vertex_calls"], len(ball.cubes) * (1 + heights))
        self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        self.assertAlmostEqual(self_total, result["verdict_s"], delta=0.01 * result["verdict_s"])


class Golden(unittest.TestCase):
    def test_default_seed_digests_reproduce(self):
        golden = load_golden()
        for workload in WORKLOADS.values():
            runner = Runner(workload, 0, scratch_dir(workload.name))
            result = runner.operation("run", golden)
            self.assertIsNotNone(result, runner.problems)

    def test_fails_without_sources(self):
        bare = scratch_dir("bare")
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "bench"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "dj-mixed", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=60,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
