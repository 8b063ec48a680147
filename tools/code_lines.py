"""Count the code lines of the idemnorm package: the lines that hold a
token other than a comment, so no blank line, no comment and no docstring
(a string that is a statement of its own) is counted.

    python3 tools/code_lines.py [DIR]

prints each file's count and the total for DIR, src/idemnorm by default.
"""

from __future__ import annotations

import io
import pathlib
import sys
import tokenize

# tokens that carry no code: layout, comments and the stream's ends
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of the source that hold code."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            # a statement that is one string alone is a docstring
            if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                for part in statement:
                    lines.update(range(part.start[0], part.end[0] + 1))
            statement = []
        elif token.type not in _NOT_CODE:
            statement.append(token)
    return len(lines)


def main(argv: list[str]) -> int:
    root = pathlib.Path(argv[0] if argv else pathlib.Path(__file__).parent.parent / "src" / "idemnorm")
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d} {path.relative_to(root)}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
