"""tools/code_lines.py: the count of lines that hold code."""

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


def _code_lines(path) -> int:
    spec = importlib.util.spec_from_file_location("code_lines", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.code_lines(str(path))


def test_code_lines_skip_comments_docstrings_and_blank_lines(tmp_path):
    # Seven code lines: the import, the class and def lines, both lines of
    # the string that is not a docstring, and both lines of the return.
    path = tmp_path / "sample.py"
    path.write_text(
        '"""Module docstring,\n'
        'over two lines."""\n'
        "\n"
        "import os  # a comment\n"
        "\n"
        "# a comment line\n"
        "class A:\n"
        '    """Class docstring."""\n'
        "\n"
        "    def f(self):\n"
        '        """Function docstring."""\n'
        '        text = """a string\n'
        'that is code"""\n'
        "        return (1,\n"
        "                2)\n",
        encoding="utf-8",
    )
    assert _code_lines(path) == 7
