import os
import subprocess
import sys

import pytest

import gpcubes
from gpcubes.groups import GraphProduct, parse_graph

# The standing fixture set: one graph per small phenomenon.
GRAPH_TEXTS = {
    "single_inf": "a:inf\n",
    "single_z2": "a:2\n",
    "single_z3": "a:3\n",
    "free2": "a:inf\nb:inf\n",
    "z_squared": "a:inf\nb:inf\nedge a b\n",
    "inf_dihedral": "a:2\nb:2\n",
    "pentagon": "\n".join(
        ["v0:2", "v1:2", "v2:2", "v3:2", "v4:2"]
        + ["edge v%d v%d" % (i, (i + 1) % 5) for i in range(5)]
    )
    + "\n",
    "mixed": "a:inf\nu:3\nedge a u\n",
}


def fresh_python(code, *flags):
    """Run code in a new interpreter that imports the gpcubes under test."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(gpcubes.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *flags, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.fixture(scope="session")
def graphs():
    return {name: parse_graph(text) for name, text in GRAPH_TEXTS.items()}


@pytest.fixture(scope="session")
def products(graphs):
    return {name: GraphProduct(g) for name, g in graphs.items()}
