import ast
import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_library_quick_start_shows_its_values():
    with open(README, encoding="utf-8") as handle:
        block = re.search(r"## Library quick start\n\n```python\n(.*?)```",
                          handle.read(), re.S).group(1)
    scope: dict = {}
    shown_lines = 0
    for line in block.splitlines():
        code, _, shown = line.partition("  # ")
        if not code.strip() or code.startswith("#"):
            continue
        if shown:
            assert eval(code, scope) == ast.literal_eval(shown), line
            shown_lines += 1
        else:
            exec(code, scope)
    assert shown_lines == 6
