"""tools/codelines.py counts the lines that hold code: no blank line, comment,
docstring statement or layout."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "codelines.py"


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
    done = subprocess.run([sys.executable, str(TOOL), str(tmp_path)],
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines() == [f"     3 {source}", "     3 total"]
