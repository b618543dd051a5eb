"""Source line count: total and code lines of each ``src/branchlab`` module.

    python3 tools/loc.py [--base <git rev>]

A code line is a line that holds any token other than a comment: blank
lines, comment-only lines and module, class or function docstrings are not
code lines, so removing comments or docstrings does not shrink the count.
A multi-line string that is not a docstring counts on every line it spans.

With ``--base`` each module's code lines are also compared with its text at
that revision (``git show <rev>:<path>``); a module missing at the revision
counts as 0 there, and a module deleted since is listed with 0 lines now.
Prints only; the exit code is 0 whenever the count ran.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SOURCE = "src/branchlab"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.add((first.lineno, first.col_offset))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def _git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=REPO, capture_output=True, text=True)


def _at_base(rev: str) -> dict[str, str]:
    """Every module's text at ``rev``."""
    listed = _git("ls-tree", "--name-only", f"{rev}:{SOURCE}")
    if listed.returncode:
        return {}
    names = [n for n in listed.stdout.split() if n.endswith(".py")]
    return {f"{SOURCE}/{n}": _git("show", f"{rev}:{SOURCE}/{n}").stdout for n in names}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", help="git revision to compare code lines against")
    args = ap.parse_args(argv)
    if args.base is not None and _git("rev-parse", "--verify", f"{args.base}^{{commit}}").returncode:
        ap.error(f"unknown revision {args.base!r}")
    now = {f"{SOURCE}/{p.name}": p.read_text() for p in sorted((REPO / SOURCE).glob("*.py"))}
    base = _at_base(args.base) if args.base is not None else {}
    header = f"{'module':<32} {'lines':>6} {'code':>6}"
    print(header + (f" {'code vs ' + args.base[:12]:>20}" if args.base is not None else ""))
    totals = [0, 0, 0] if args.base is not None else [0, 0]
    for path in sorted(now.keys() | base.keys()):
        text = now.get(path, "")
        row = [len(text.splitlines()), code_lines(text)]
        if args.base is not None:
            row.append(row[1] - code_lines(base.get(path, "")))
        totals = [t + v for t, v in zip(totals, row)]
        print(_format(path, row))
    print(_format("total", totals))
    return 0


def _format(name: str, row: list[int]) -> str:
    line = f"{name:<32} {row[0]:>6} {row[1]:>6}"
    return line + (f" {row[2]:>+20}" if len(row) > 2 else "")


if __name__ == "__main__":
    sys.exit(main())
