"""Golden certificates: every `check` certificate on the fixtures at
r = 1, 2, 3 and on the path a-b-c at r = 3, 4, and every `dj-graphs --radius`
certificate on the fixtures with an infinite generator at r = 1, 2 and on
a:inf u:3 b:inf at r = 2, 3, must stay byte-identical.

The `check` digests were recorded from the per-height Morse sweep and the
per-call edge dictionaries that the single-sweep certificate layer replaced;
the path's r = 4 digest (the `check-raag` benchmark workload) from the
model-built cube vertices, the |S|^2 stabilizer and the per-hat-letter edge
read-off that the ball's inclusion index replaced.
The `dj-graphs` digests were recorded from the unpruned common-complex scan
(every ambient ball element E-saturated with every clique) and the
all-prefix greedy shuffle; the a:inf u:3 b:inf r = 3 digest from the scan
of the radius-(2r + #inf) ambient ball with the short-rep prefilter, before
the common complex was reached by a restricted search.  Each is the SHA-256
of the certificate without its `version` field, serialized as the command
prints it.
"""

import hashlib
import json

import pytest

from gpcubes.cli import main

from conftest import GRAPH_TEXTS

PATH_TEXT = "a:inf\nb:inf\nc:inf\nedge a b\nedge b c\n"
MIXED3_TEXT = "a:inf\nu:3\nb:inf\nedge a u\n"

GOLDEN = {
    ("single_inf", 1): "2c6e99e9e57288cd6ca1f8e2e9a754fb3ee99dd9ff76a329256fc12ce94097f9",
    ("single_inf", 2): "092e4b0ec8499d8662b2237dfe983eccbc2286f3a2ca18da1a3cc6c5c3db1f3e",
    ("single_inf", 3): "e748e124d525b8f1bfeb593bb493378ffb7d4cd38149b49851088ea5aa389fa3",
    ("single_z2", 1): "80b8de9c450b6e89fd9a1c912d327f5a7b16f5b4d00373634637344ac79f43ca",
    ("single_z2", 2): "268ce553f1ed4fb39123ffa4b1e7c5e0cfc227ac6965a2c4d9cb72aba34313ce",
    ("single_z2", 3): "a24a5f80d7ad47d85d0f3683c86b9832c78cfc4bd2457889beee3c16b54cdb93",
    ("single_z3", 1): "cc8a667917797119bee7f26fb8af3029d49d967d9430f4266070102c00c71553",
    ("single_z3", 2): "fb2916422e07cf4b9fa2659d969f06640d55efb69ef348c55dc852893d89d524",
    ("single_z3", 3): "a2e67c87eb9815d1615094a963256f49e05eba75003f2ed6c675bc0e1fd3ed02",
    ("free2", 1): "d3f29964c631e61c58c148c690f7b616e0e185305287ae48bdfcd9eb19399d7b",
    ("free2", 2): "6fd0bb91e5d0b4e32bb916a900f61bc732ef9b289833cb77f7d513d91c2a062a",
    ("free2", 3): "d337af0a1883fe71d7662411deada268828ed2a08c2e45ff9236c94b80970d36",
    ("z_squared", 1): "d68abb4dba4470c893eb67c51ab689c3f4032fc388706f5bef12b1650eec2354",
    ("z_squared", 2): "fe9eee50112590350aa0f7cd92d94af4998fbbccad3dd6ba3b7b8856ac925531",
    ("z_squared", 3): "00f97746473b24dd5973c591811f662edb21d8f82cff37c93312a33a774d4aa2",
    ("inf_dihedral", 1): "08d8595d510e4088bf061776f5b905658021b28adecec5b826e9032b1f7a3adc",
    ("inf_dihedral", 2): "db1180e53fa2e9ad09e94c03a24cbf4e54c4629f5faec14742e1e2cee2d74ec9",
    ("inf_dihedral", 3): "8d0450e0a5b743264b9812e4dbbbe2abf187c89c729cb9b6cc322c84cc39dbf8",
    ("pentagon", 1): "57bcb56a5005c8686690bf5ee775e3836ac9c91eb828aecd3f4cd54252565997",
    ("pentagon", 2): "4b83a3186032b1425225ab1f02de5f1c9b9d79d2710c9f4ee29568fcdcc0ac51",
    ("pentagon", 3): "808887bb24dc152e9cd2a6c057ddb2d7f5e8dc8c2084f625afa92bdc500e511b",
    ("mixed", 1): "ca3d8115b836edbcc6a3cdfec5e1c92d5513ed10f119a7070dbae76f7c064c15",
    ("mixed", 2): "39e6c4558940bd17e1344f272bad99a98e60cd686cb56f8c7e86c6de1b439360",
    ("mixed", 3): "bb993a6ab3395d6f237e39a7c8a370b0eb36ade47b060265637c7725bbf423ea",
    ("path", 3): "1cea5a195130b13b3b33dea98a0f990d670de9440f0b6f613474c1b720f22b75",
    ("path", 4): "c510e473c6f54aa6d31787372d80dbbd5d00fa60c9034b790375e0c862614ebf",
}


DJ_GOLDEN = {
    ("single_inf", 1): "65d0be858ea50ea2b0f6dfb19fe2b805861246db7fd235cabec89953c25b5534",
    ("single_inf", 2): "c438cd83bfdf886761ea8dbda1928c096f8434b2e3516ab6b8b674851cbb2d7f",
    ("free2", 1): "c47c0b14b6123cfeeae690e1fd1d9f180e01e9d0b3a8aa6e0db86d3dc373378e",
    ("free2", 2): "b794e7955870d7ffae76df2af559f3dc47541c3f1fe671d7b56e812cb4381281",
    ("z_squared", 1): "753a4019e50f1a3a6911f9f5dd44015973c0ecd0c46a2906d46eab9eb463ec61",
    ("z_squared", 2): "112de192dfd8ee949fbb8743338f6775f0da05a3468698548ef69fa71c556c96",
    ("mixed", 1): "bf05c3f959ed50618f24268caa05a989047fe51b9b4ea00383abac5cc5d277a4",
    ("mixed", 2): "a343d3c695a1e16d6e38e9c02edec1a598a1522035eff54ea21e4c03ccb7711a",
    ("mixed3", 2): "2ce329bff1c7f25340fe6f9f7a7ef55015575d235d2bbfaa5e1e8f4b84d2279a",
    ("mixed3", 3): "c444120c18a1de2d04ce86367da09a40a825cfd5f4c11c62e768bc5410d39a54",
}


def _digest(command, text, radius, tmp_path):
    graph = tmp_path / "input.graph"
    graph.write_text(text)
    out = tmp_path / "cert.json"
    argv = [command, "--graph", str(graph), "--radius", str(radius), "--out", str(out)]
    assert main(argv) == 0
    cert = json.loads(out.read_text())
    del cert["version"]
    text = json.dumps(cert, sort_keys=True, indent=2, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name, radius", sorted(GOLDEN))
def test_certificate_digest(name, radius, tmp_path):
    text = PATH_TEXT if name == "path" else GRAPH_TEXTS[name]
    assert _digest("check", text, radius, tmp_path) == GOLDEN[name, radius]


@pytest.mark.parametrize("name, radius", sorted(DJ_GOLDEN))
def test_dj_certificate_digest(name, radius, tmp_path):
    text = MIXED3_TEXT if name == "mixed3" else GRAPH_TEXTS[name]
    assert _digest("dj-graphs", text, radius, tmp_path) == DJ_GOLDEN[name, radius]
