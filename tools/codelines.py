"""Count the code-only, prose and physical lines of Python files.

Three columns per file and for the total:

- code-only: lines holding a token other than a comment, layout (newlines,
  indentation) or a docstring statement, a logical line made of string
  literals alone;
- prose: lines holding only comment or docstring tokens;
- physical: every line, as `wc -l` counts them.

Blank lines count as physical only.  Usage:

    python tools/codelines.py src/slotq            # per file and a total
    python tools/codelines.py src/slotq/model.py
"""

import io
import sys
import tokenize
from pathlib import Path

LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def line_counts(path: Path) -> tuple[int, int, int]:
    """(code-only, prose, physical) line counts of one Python file."""
    data = path.read_bytes()
    code: set[int] = set()
    prose: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for tok in tokenize.tokenize(io.BytesIO(data).readline):
        if tok.type == tokenize.COMMENT:
            prose.add(tok.start[0])
        elif tok.type not in LAYOUT:
            statement.append(tok)
        elif tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER) and statement:
            lines = code if any(s.type != tokenize.STRING for s in statement) else prose
            for s in statement:
                lines.update(range(s.start[0], s.end[0] + 1))
            statement = []
    return len(code), len(prose - code), data.count(b"\n")


def main(argv: list[str]) -> int:
    files = []
    for arg in argv or ["src"]:
        p = Path(arg)
        files += sorted(p.rglob("*.py")) if p.is_dir() else [p]
    total = [0, 0, 0]
    for f in files:
        counts = line_counts(f)
        total = [a + b for a, b in zip(total, counts)]
        print("".join(f"{n:6d} " for n in counts) + str(f))
    print("".join(f"{n:6d} " for n in total) + "total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
