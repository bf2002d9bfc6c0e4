"""Count the code lines of each module of src/cumskew, and their total.

A code line is a physical line that holds a token other than a comment, a
docstring or layout (newlines, indentation, the encoding and end markers).
A docstring is a string literal that forms a whole statement of its own,
as a module's, class's or function's first statement does.  A token that
spans lines, such as a triple-quoted string inside an expression, counts
every line it spans.

    python3 tools/code_lines.py          # this checkout's src/cumskew
    python3 tools/code_lines.py DIR      # the .py files under DIR, such as
                                         # another checkout's src/cumskew
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
           tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The number of code lines of the Python file at path."""
    with path.open("rb") as fh:
        tokens = [t for t in tokenize.tokenize(fh.readline)
                  if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for prev, tok, nxt in zip(tokens, tokens[1:], tokens[2:]):
        if tok.type in _LAYOUT:
            continue
        if (tok.type == tokenize.STRING and prev.type in _LAYOUT
                and nxt.type in (tokenize.NEWLINE, tokenize.ENDMARKER)):
            continue  # a docstring
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "cumskew"
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.relative_to(root.parent)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
