"""Count code-only lines of Python files.

A line counts when it holds a token other than a comment, layout (newlines,
indentation) or a docstring statement: a logical line made of string
literals alone.  Usage:

    python tools/codelines.py src/slotq            # per file and a total
    python tools/codelines.py src/slotq/model.py
"""

import sys
import tokenize
from pathlib import Path

LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def code_lines(path: Path) -> int:
    """The number of code-only lines in one Python file."""
    counted: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in LAYOUT:
                statement.append(tok)
            elif tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER) and statement:
                if any(s.type != tokenize.STRING for s in statement):
                    for s in statement:
                        counted.update(range(s.start[0], s.end[0] + 1))
                statement = []
    return len(counted)


def main(argv: list[str]) -> int:
    files = []
    for arg in argv or ["src"]:
        p = Path(arg)
        files += sorted(p.rglob("*.py")) if p.is_dir() else [p]
    total = 0
    for f in files:
        n = code_lines(f)
        total += n
        print(f"{n:6d} {f}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
