"""The README's library example runs and prints what its comments say."""

import contextlib
import io
import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def library_example():
    """The python block under the "Library example" heading."""
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_prints_its_comments():
    code = library_example()
    # the comment gives the printed normal form in quotes, then its length
    comment = re.search(r'print\(g, g\.length\)\s*# "([^"]*)" (\d+)', code)
    assert comment and comment.groups() == ("a^-1 u", "2")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, README, "exec"), {})
    first, sizes, verdicts = out.getvalue().splitlines()
    assert first == "%s %s" % comment.groups()
    assert all(n.isdecimal() for n in sizes.split()) and len(sizes.split()) == 3
    assert verdicts == "True True"
