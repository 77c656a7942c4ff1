"""Line counts of the package source, per module and in total.

Two figures per module: all lines (as ``wc -l`` counts them) and code-only
lines, the lines left after the docstrings of the module, its classes and
its functions are taken out, then blank and comment-only lines.  Run it from
the repository root:

    python tests/code_lines.py
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hirzebruch"
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def counts(text):
    """(all lines, code-only lines) of one module's source."""
    lines = text.splitlines()
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    code = sum(1 for i, line in enumerate(lines, 1) if i not in docstrings
               and line.strip() and not line.strip().startswith("#"))
    return text.count("\n"), code


def main():
    rows = sorted(((*counts(path.read_text()), path.stem) for path in SRC.glob("*.py")),
                  reverse=True)
    print(f"{'module':<12} {'wc -l':>6} {'code':>6}")
    for n_all, n_code, name in rows + [(sum(r[0] for r in rows), sum(r[1] for r in rows), "total")]:
        print(f"{name:<12} {n_all:>6,} {n_code:>6,}")

if __name__ == "__main__":
    main()
