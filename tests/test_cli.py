import json
import re

import pytest

from gpcubes import cli
from gpcubes.cli import main

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

    def test_common_complex_budget_exits_three(self, graph_file):
        # at r = 2 both balls of a:inf u:3 hold 11 elements, and the common
        # complex reaches 22 short ambient ones
        argv = ["dj-graphs", "--graph", graph_file("mixed"), "--radius", "2"]
        assert main(argv + ["--budget-elements", "21"]) == 3
        assert main(argv + ["--budget-elements", "22"]) == 0


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
        import argparse, json, hashlib
        stdlib = set(sys.modules)
        import gpcubes.cli
        heavy = ("dataclasses", "inspect", "ast", "dis")
        print(" ".join(m for m in heavy if m in sys.modules))
        print(" ".join(sorted(
            m for m in set(sys.modules) - stdlib
            if m != "__future__" and m.split(".")[0] != "gpcubes"
        )))
    """
    proc = fresh_python(code, "-S")
    assert proc.returncode == 0, proc.stderr
    # no heavy module, and nothing beyond what the three imports need
    assert proc.stdout.splitlines() == ["", ""]
