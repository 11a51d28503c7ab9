"""tools/codelines.py counts the lines that hold code (no blank line, comment,
docstring statement or layout), the lines that hold only prose, and every line."""

import subprocess
import sys

from support import CODELINES


def test_codelines_counts_code_only(tmp_path):
    source = tmp_path / "m.py"
    source.write_text(
        '"""A module docstring\n'
        'over two lines."""\n'
        "\n"
        "# a comment\n"
        "def f(x):  # a trailing comment\n"
        '    """A docstring."""\n'
        "    return (x +\n"
        "            1)\n"
    )
    done = subprocess.run([sys.executable, str(CODELINES), str(tmp_path)],
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines() == [f"     3      4      8 {source}",
                                        "     3      4      8 total"]
