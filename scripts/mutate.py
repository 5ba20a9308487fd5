"""Statement and branch mutants of one drovar module, judged by a digest.

For the module given, in source order, every statement is replaced by `pass`
and the test of every `if` is forced to True and to False, one site per
mutant; docstrings are left alone.  Each mutant runs the digest command with
a temporary copy of src/ first on PYTHONPATH, and prints one line

    SAME|diff|timeout  kind  line  source

where SAME means the command's exit code and stdout match the unmutated run
byte for byte, kind is pass, if-True or if-False, and source is the site's
first line.  A SAME site is code the digest does not need: either an
equivalent mutant, or a gap in what the digest checks.  A mutant that runs
more than three times as long as the unmutated run is stopped and printed
as timeout, not as diff, since a slow mutant says nothing about the output.
Example, from the repository root:

    python scripts/mutate.py src/drovar/solver.py python scripts/solve_digest.py

The command runs in the current directory, with PYTHONDONTWRITEBYTECODE set;
the copy lives in a temporary directory, so nothing is written inside the
checkout.  The mutants run one at a time: over solver.py against
solve_digest.py, 286 mutants take about 22 minutes on a 2-core x86-64 host.
"""

import argparse
import ast
import os
import shutil
import subprocess
import tempfile
import time
from pathlib import Path


def sites(tree: ast.Module):
    """(line, col, kind) of every mutant, in source order."""
    found = []
    for node in ast.walk(tree):
        docstring = isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        if isinstance(node, ast.stmt) and not docstring:
            found.append((node.lineno, node.col_offset, 0, "pass"))
        if isinstance(node, ast.If):
            found.append((node.lineno, node.col_offset, 1, "if-True"))
            found.append((node.lineno, node.col_offset, 2, "if-False"))
    return [(line, col, kind) for line, col, _, kind in sorted(found)]


def mutant(source: str, line: int, col: int, kind: str) -> str:
    """The module's source with the one site at (line, col) mutated by kind."""
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if kind == "pass":
            for _, value in ast.iter_fields(node):
                if not isinstance(value, list):
                    continue
                for i, stmt in enumerate(value):
                    if isinstance(stmt, ast.stmt) and (stmt.lineno, stmt.col_offset) == (line, col):
                        value[i] = ast.copy_location(ast.Pass(), stmt)
                        return ast.unparse(tree)
        elif isinstance(node, ast.If) and (node.lineno, node.col_offset) == (line, col):
            node.test = ast.copy_location(ast.Constant(kind == "if-True"), node.test)
            return ast.unparse(tree)
    raise LookupError(f"no {kind} site at {line}:{col}")


def run(command, src: Path, timeout: float | None):
    """(exit code, stdout) of the command with src first on PYTHONPATH; None
    when it runs past the timeout."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    try:
        out = subprocess.run(command, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None
    return out.returncode, out.stdout


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("module", type=Path, help="a module under src/drovar/")
    ap.add_argument("command", nargs=argparse.REMAINDER, help="the digest command")
    args = ap.parse_args()
    module = args.module.resolve()
    src = next(p for p in module.parents if p.name == "src")
    relative = module.relative_to(src)
    original = module.read_text()
    lines = original.splitlines()
    # every run, the unmutated one too, loads the module as ast.unparse prints it
    source = ast.unparse(ast.parse(original))

    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__"))
        (copy / relative).write_text(source)
        start = time.perf_counter()
        expected = run(args.command, copy, None)
        timeout = 3.0 * (time.perf_counter() - start)
        for line, col, kind in sites(ast.parse(original)):
            (copy / relative).write_text(mutant(original, line, col, kind))
            got = run(args.command, copy, timeout)
            verdict = "timeout" if got is None else "SAME" if got == expected else "diff"
            print(f"{verdict}  {kind}  {line}  {lines[line - 1].strip()}", flush=True)


if __name__ == "__main__":
    main()
