"""The code-line counter ``tools/src_lines.py``."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "src_lines", Path(__file__).resolve().parents[1] / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(src_lines)

MODULE = '''"""Module
docstring."""

# a comment
X = """a string
over two lines"""


class C:
    """Class docstring."""

    def f(self):  # code, then a comment
        """Function
        docstring."""
        return (1 +
                2)
'''


def test_code_lines_leave_out_blanks_comments_and_docstrings(tmp_path, capsys):
    (tmp_path / "m.py").write_text(MODULE)
    (tmp_path / "n.py").write_text("Y = 1\n")
    assert src_lines.code_lines(tmp_path / "m.py") == 6
    assert src_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["m", "6", "n", "1", "total", "7"]
    assert src_lines.main([str(tmp_path / "none")]) == 1
