import hashlib
import itertools
import json
import re
import tracemalloc

import pytest

from gpcubes import cli
from gpcubes.cli import main
from gpcubes.groups import GraphProduct, parse_graph

from conftest import GRAPH_TEXTS, fresh_python


@pytest.fixture()
def graph_file(tmp_path):
    def write(name):
        path = tmp_path / (name + ".graph")
        path.write_text(GRAPH_TEXTS[name])
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestNormalize:
    def test_text(self, graph_file, capsys):
        code, out = run(capsys, "normalize", "--graph", graph_file("z_squared"), "b, a^2")
        assert code == 0
        assert out == "a^2, b\nlength 3\n"

    def test_identity(self, graph_file, capsys):
        code, out = run(capsys, "normalize", "--graph", graph_file("free2"), "a, a^-1")
        assert code == 0
        assert out.startswith("1\n")

    def test_json(self, graph_file, capsys):
        code, out = run(
            capsys, "normalize", "--graph", graph_file("single_z3"), "a^5", "--format", "json"
        )
        data = json.loads(out)
        assert code == 0
        assert data["normal_form"] == "a^2"
        assert data["length"] == 1
        assert data["tool"] == "gpcubes" and "graph_sha256" in data


class TestEqual:
    def test_equal_words(self, graph_file, capsys):
        code, _ = run(capsys, "equal", "--graph", graph_file("z_squared"), "a, b, a^-1", "b")
        assert code == 0

    def test_different_words_exit_one(self, graph_file, capsys):
        code, _ = run(capsys, "equal", "--graph", graph_file("single_inf"), "a", "")
        assert code == 1

    def test_oracle_mode(self, graph_file, capsys):
        code, _ = run(
            capsys, "equal", "--graph", graph_file("free2"), "--oracle", "a, b, b^-1", "a"
        )
        assert code == 0


class TestErrors:
    def test_missing_file(self, capsys):
        assert main(["normalize", "--graph", "/nonexistent.graph", "a"]) == 2

    def test_bad_graph(self, tmp_path, capsys):
        path = tmp_path / "bad.graph"
        path.write_text("a:one\n")
        assert main(["normalize", "--graph", str(path), "a"]) == 2

    def test_unknown_generator(self, graph_file, capsys):
        assert main(["normalize", "--graph", graph_file("free2"), "zz"]) == 2

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "text, argv",
        [
            ("a:inf\na+:2\n", ["check", "--radius", "1"]),  # reserved hat name
            ("a:inf\na0:2\n", ["dj-graphs"]),  # reserved ambient name
            ("1:2\n", ["normalize", "1"]),  # prints as the identity
            ("a:inf\n", ["check", "--radius", "-1"]),
            (None, ["build", "--radius", "1"]),  # the graph path is a directory
            ("a:inf\n", ["build", "--radius", "2", "--budget-elements", "-1"]),
            ("a:inf\n", ["check", "--radius", "1", "--budget-elements", "-5"]),
            ("a:inf\n", ["dj-graphs", "--radius", "1", "--budget-elements", "-1"]),
            ("a:inf\n", ["equal", "--budget-words", "-1", "a", "a"]),
            ("a:inf\n", ["build", "--radius", "1", "--out", "{graph}/x.json"]),  # not a directory
            ("a:inf\n", ["check", "--radius", "1", "--out", "{denied}"]),  # no write permission
        ],
    )
    def test_bad_input_exits_two(self, tmp_path, capsys, monkeypatch, text, argv):
        path = tmp_path / "input.graph"
        if text is None:
            path.mkdir()
        else:
            path.write_text(text)
        denied = str(tmp_path / "denied.json")

        def guarded_open(file, *args, **kwargs):
            if file == denied:
                raise PermissionError(13, "Permission denied", file)
            return open(file, *args, **kwargs)

        monkeypatch.setattr(cli, "open", guarded_open, raising=False)
        argv = [arg.replace("{graph}", str(path)).replace("{denied}", denied) for arg in argv]
        try:
            code = main([argv[0], "--graph", str(path)] + argv[1:])
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_non_utf8_graph_file(self, tmp_path, capsys):
        path = tmp_path / "bytes.graph"
        path.write_bytes(b"\xff\xfea:inf\n")
        assert main(["normalize", "--graph", str(path), "a"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unreadable_graph_file(self, graph_file, capsys, monkeypatch):
        def denied(*args, **kwargs):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(cli, "open", denied, raising=False)
        assert main(["normalize", "--graph", graph_file("free2"), "a"]) == 2
        assert "Permission denied" in capsys.readouterr().err

    def test_budget_exhaustion(self, graph_file, capsys):
        code = main(
            ["build", "--graph", graph_file("free2"), "--radius", "6", "--budget-elements", "5"]
        )
        assert code == 3


class TestBuild:
    def test_json_payload(self, graph_file, capsys):
        code, out = run(
            capsys, "build", "--graph", graph_file("single_inf"), "--radius", "2"
        )
        data = json.loads(out)
        assert code == 0
        assert data["radius"] == 2
        assert len(data["vertices"]) == 9
        assert sum(1 for c in data["cubes"] if c["dim"] == 1) == 8

    def test_dot(self, graph_file, capsys):
        code, out = run(
            capsys,
            "build", "--graph", graph_file("single_z2"), "--radius", "1", "--format", "dot",
        )
        assert code == 0
        assert out.startswith("graph ball {") and out.count("--") == 2

    def test_dot_labels_are_quoted_strings(self, tmp_path, capsys):
        # the parser accepts " and \ in names, so labels must escape both
        path = tmp_path / "quotes.graph"
        path.write_text('a"b:inf\nc\\d:2\nedge a"b c\\d\n')
        code, out = run(capsys, "build", "--graph", str(path), "--radius", "1", "--format", "dot")
        assert code == 0
        lines = [line for line in out.splitlines() if "[label=" in line]
        assert len(lines) == 7
        labels = []
        for line in lines:
            match = re.fullmatch(r'  v\d+ \[label="((?:[^"\\]|\\.)*)"\];', line)
            assert match, line
            labels.append(re.sub(r"\\(.)", r"\1", match.group(1)))
        assert {'1|{a"b+}', "1|{c\\d}", 'a"b^-1|{}'} <= set(labels)

    def test_out_file(self, graph_file, tmp_path, capsys):
        target = tmp_path / "ball.json"
        code = main(
            ["build", "--graph", graph_file("single_z3"), "--radius", "1", "--out", str(target)]
        )
        assert code == 0
        assert json.loads(target.read_text())["radius"] == 1


class TestCheck:
    def test_passing_certificate(self, graph_file, capsys):
        code, out = run(capsys, "check", "--graph", graph_file("mixed"), "--radius", "2")
        data = json.loads(out)
        assert code == 0
        assert data["ok"]
        assert set(data["checks"]) == {
            "links",
            "morse",
            "special",
            "kernel_action",
            "fundamental_domain",
        }
        assert all(r["ok"] for r in data["checks"].values())

    def test_byte_identical_reruns(self, graph_file, tmp_path):
        paths = [str(tmp_path / ("c%d.json" % i)) for i in range(2)]
        for p in paths:
            assert (
                main(["check", "--graph", graph_file("z_squared"), "--radius", "2", "--out", p])
                == 0
            )
        with open(paths[0]) as a, open(paths[1]) as b:
            assert a.read() == b.read()


class TestDjGraphs:
    def test_graphs_only(self, graph_file, capsys):
        code, out = run(capsys, "dj-graphs", "--graph", graph_file("single_inf"))
        data = json.loads(out)
        assert code == 0
        assert data["doubled_graph"] == "a+:2\na-:2\n"
        assert data["ambient_graph"] == "a+:2\na0:2\n"
        assert data["dimensions"] == {"original": 1, "doubled": 1, "ambient": 1}
        assert "isomorphism" not in data

    def test_with_radius(self, graph_file, capsys):
        code, out = run(
            capsys, "dj-graphs", "--graph", graph_file("single_inf"), "--radius", "2"
        )
        data = json.loads(out)
        assert code == 0
        assert data["isomorphism"]["ok"]
        assert data["isomorphism"]["vertices_common"] == 9

    def test_dimensions_list_no_clique_of_a_derived_graph(self, tmp_path, capsys):
        # the ambient graph of the free group of rank 14 has 2^14 + 14 * 2^13
        # cliques; the dimensions read the graph's 15 instead
        names = "abcdefghijklmn"
        path = tmp_path / "free14.graph"
        path.write_text("".join("%s:inf\n" % s for s in names))
        tracemalloc.start()
        try:
            code = main(["dj-graphs", "--graph", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        assert data["dimensions"] == {"original": 1, "doubled": 1, "ambient": 14}
        assert peak < 5 * 2**20

    def test_common_complex_budget_exits_three(self, graph_file):
        # at r = 2 both balls of a:inf u:3 hold 11 elements, and the common
        # complex reaches 22 short ambient ones
        argv = ["dj-graphs", "--graph", graph_file("mixed"), "--radius", "2"]
        assert main(argv + ["--budget-elements", "21"]) == 3
        assert main(argv + ["--budget-elements", "22"]) == 0


def test_a_large_order_is_bounded_by_the_budget(tmp_path, capsys):
    # a:10^6 would make 10^6 - 1 powers of a: normalize needs none, and the
    # ball of radius 1 passes the element budget before it needs them
    path = tmp_path / "big.graph"
    path.write_text("a:1000000\nb:inf\n")
    tracemalloc.start()
    try:
        assert main(["normalize", "--graph", str(path), "b, a^-1"]) == 0
        assert capsys.readouterr().out == "b, a^999999\nlength 2\n"
        budget = ["--radius", "1", "--budget-elements", "1000"]
        assert main(["build", "--graph", str(path), *budget]) == 3
        assert main(["dj-graphs", "--graph", str(path), *budget]) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "exceeds 1000 elements" in capsys.readouterr().err
    assert peak < 5 * 2**20


def test_radius_zero_lists_no_power_of_a_large_order(tmp_path, monkeypatch):
    # at r = 0 the ball is the identity alone, and its interiority forms no
    # coset of a clique of more letters than the radius, so neither build
    # nor check lists the 10^6 - 1 powers of a
    path = tmp_path / "big.graph"
    path.write_text("a:1000000\nb:inf\n")

    def refuse(self):
        raise AssertionError("the powers of every hat letter were listed")

    monkeypatch.setattr(GraphProduct, "hat_subsets", property(refuse))
    for command in ("build", "check"):
        out = tmp_path / (command + ".json")
        assert main([command, "--graph", str(path), "--radius", "0", "--out", str(out)]) == 0


def test_dj_graphs_at_radius_zero_lists_no_power_of_a_large_order(tmp_path, monkeypatch):
    # the common complex's search keeps one move per hat, and a's first
    # power is not short from the identity at r = 0, so dj-graphs lists none
    # of the 10^6 - 1 powers of a either
    path = tmp_path / "big.graph"
    path.write_text("a:1000000\nb:inf\n")

    def refuse(self):
        raise AssertionError("the powers of every hat letter were listed")

    monkeypatch.setattr(GraphProduct, "hat_subsets", property(refuse))
    out = tmp_path / "dj.json"
    assert main(["dj-graphs", "--graph", str(path), "--radius", "0", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["isomorphism"]["ok"]


def test_import_leaves_out_networkx():
    proc = fresh_python(
        "import sys, gpcubes.cli; sys.exit('networkx' in sys.modules)"
    )
    assert proc.returncode == 0, proc.stderr


def test_import_closure_is_small():
    # -S keeps out whatever site's .pth files import, which could hide a
    # heavy module pulled in by the package itself
    code = """if 1:
        import sys
        import argparse, json
        stdlib = set(sys.modules)
        import gpcubes.cli
        heavy = ("dataclasses", "inspect", "ast", "dis", "hashlib", "_hashlib")
        print(" ".join(m for m in heavy if m in sys.modules))
        print(" ".join(sorted(
            m for m in set(sys.modules) - stdlib
            if m != "__future__" and m.split(".")[0] != "gpcubes"
        )))
    """
    proc = fresh_python(code, "-S")
    assert proc.returncode == 0, proc.stderr
    # no heavy module, OpenSSL's hashlib included, and nothing beyond what
    # the two imports need but the built-in SHA-256 module
    heavy, extra = proc.stdout.split("\n")[:2]
    assert heavy == ""
    assert extra in ("_sha256", "_sha2")


class TestGraphDigest:
    TEXTS = {
        **GRAPH_TEXTS,
        "greek": "α:inf\nβ:2\nedge α β\n",
        # Z^20: every pair of its 20 generators joined
        "z20": "".join(s + ":inf\n" for s in "abcdefghijklmnopqrst")
        + "".join("edge %s %s\n" % e for e in itertools.combinations("abcdefghijklmnopqrst", 2)),
    }

    @pytest.mark.parametrize("name", sorted(TEXTS))
    def test_matches_hashlib(self, name):
        text = parse_graph(self.TEXTS[name]).to_text()
        assert cli._graph_digest(parse_graph(text)) == hashlib.sha256(text.encode()).hexdigest()

    def test_falls_back_to_hashlib(self):
        # without the built-in module, the digest comes from hashlib and is
        # the same
        code = """if 1:
            import sys
            sys.modules["_sha256"] = sys.modules["_sha2"] = None
            import gpcubes.cli
            from gpcubes.groups import parse_graph
            print("hashlib" in sys.modules)
            print(gpcubes.cli._graph_digest(parse_graph(sys.argv[1])))
        """
        text = self.TEXTS["mixed"]
        proc = fresh_python(code, args=(text,))
        assert proc.returncode == 0, proc.stderr
        expected = hashlib.sha256(parse_graph(text).to_text().encode()).hexdigest()
        assert proc.stdout.splitlines() == ["True", expected]


class TestNonAsciiNames:
    GRAPH = "α:inf\nβ:2\nedge α β\n"
    # no UTF-8 from the locale: neither coerced (PEP 538) nor UTF-8 mode
    # (PEP 540), and no stream encoding set (Python ignores an empty one)
    ASCII_LOCALE = {
        "LC_ALL": "C",
        "PYTHONCOERCECLOCALE": "0",
        "PYTHONUTF8": "0",
        "PYTHONIOENCODING": "",
    }

    @pytest.fixture()
    def greek(self, tmp_path):
        path = tmp_path / "greek.graph"
        path.write_text(self.GRAPH, encoding="utf-8")
        return str(path)

    def run_cli(self, argv, env):
        code = "import sys; from gpcubes.cli import main; sys.exit(main(%a))" % (argv,)
        return fresh_python(code, env=env)

    def run_console(self, argv, env):
        """The CLI with argv as the interpreter decodes it from the command
        line, not as text handed to main."""
        code = "import sys; from gpcubes.cli import main; sys.exit(main())"
        return fresh_python(code, env=env, args=argv)

    def test_out_is_written_as_utf8_under_an_ascii_locale(self, greek, tmp_path):
        target = tmp_path / "ball.dot"
        argv = ["build", "--graph", greek, "--format", "dot", "--radius", "1", "--out", str(target)]
        proc = self.run_cli(argv, self.ASCII_LOCALE)
        assert proc.returncode == 0, proc.stderr
        assert 'label="1|{α+}"' in target.read_text(encoding="utf-8")

    def test_check_json_is_ascii_under_an_ascii_locale(self, greek):
        proc = self.run_cli(["check", "--graph", greek, "--radius", "2"], self.ASCII_LOCALE)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.isascii() and json.loads(proc.stdout)["graph"] == self.GRAPH

    def test_word_is_read_as_utf8_under_an_ascii_locale(self, greek, tmp_path):
        target = tmp_path / "word.txt"
        argv = ["normalize", "--graph", greek, "β, α", "--out", str(target)]
        proc = self.run_console(argv, self.ASCII_LOCALE)
        assert proc.returncode == 0, proc.stderr
        assert target.read_text(encoding="utf-8") == "α, β\nlength 2\n"
        argv = ["equal", "--graph", greek, "β, α", "α, β", "--out", str(target)]
        assert self.run_console(argv, self.ASCII_LOCALE).returncode == 0
        # text handed to main, which that locale cannot encode, is taken as is
        assert self.run_cli(argv, self.ASCII_LOCALE).returncode == 0

    @pytest.mark.parametrize("locale", ["ascii", "utf8"])
    def test_word_that_is_not_utf8_exits_two(self, greek, locale):
        env = self.ASCII_LOCALE if locale == "ascii" else {"PYTHONUTF8": "1"}
        proc = self.run_console(["normalize", "--graph", greek, b"\xce, \xb1"], env)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and "not UTF-8" in proc.stderr

    def test_stdout_that_cannot_encode_exits_two(self, greek):
        proc = self.run_cli(["normalize", "--graph", greek, "β, α"], {"PYTHONIOENCODING": "ascii"})
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
