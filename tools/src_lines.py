"""Line counts of the biprox sources and tests.

    python3 tools/src_lines.py

For each module of ``src/biprox`` and each ``tests/*.py`` file, prints the
raw line count and the count of code lines: lines that hold a token other
than a comment, a docstring or a line break.  A docstring here is any
statement that is a string alone.  Each table ends with its totals.
"""

from __future__ import annotations

import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines that hold code, by the rule of the module docstring."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            statement.append(token)
        elif token.type == tokenize.NEWLINE:
            if not all(t.type == tokenize.STRING for t in statement):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return len(lines)


def report(title: str, paths: list[Path]) -> None:
    print(f"{title:<34} {'lines':>7} {'code':>7}")
    raw_total = code_total = 0
    for path in paths:
        source = path.read_text()
        raw, code = len(source.splitlines()), code_lines(source)
        raw_total += raw
        code_total += code
        print(f"{path.relative_to(ROOT).as_posix():<34} {raw:>7} {code:>7}")
    print(f"{'total':<34} {raw_total:>7} {code_total:>7}\n")


if __name__ == "__main__":
    report("src/biprox", sorted((ROOT / "src" / "biprox").glob("*.py")))
    report("tests", sorted((ROOT / "tests").glob("*.py")))
