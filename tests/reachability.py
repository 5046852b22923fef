"""Which functions of `src/strathom` no command reaches.

    PYTHONPATH=src python tests/reachability.py

runs every command of `tests/record_golden.py` at seed 1, then
`strathom gallery --list` and `strathom gallery --emit`, in process
through `strathom.cli.main`, under `sys.setprofile`, installed before
strathom is imported, so import-time calls count.  A function definition
of `src/strathom` (a `def`, nested or a method; not a lambda) is reached
when a frame of its code starts.

Every definition no run reaches must be listed in ALLOWED with its
reason.  The script prints the reached and unreached counts, and the
number of settable values in the package (parameters with a default,
plus dataclass fields with a default that ``__init__`` takes, counted
with ``ast``; printed only, no gate), and exits 1,
naming the function, when an unlisted function is unreached, a listed
one is reached, or a listed one no longer exists.  So code that only
tests reach shows up in review: give it a caller, move it into the
tests, or list it here with its reason.  pytest does not collect this
file.
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "strathom"

_PERFBENCH = "perfbench imports, passes or patches it"
_CHART_SURFACE = "ChartSurface, which perfbench patches"
_ACCEPTANCE = "a construction only the acceptance suite uses (criterion 5; ROADMAP item 6)"
_DSL_RULE = "a DSL rule for an operator no gallery scene uses"
_PRINTER = "the DSL printer, for error messages and print-reparse round trips"
_EMPTY = "an edge case no gallery run meets: an empty span, kernel or complement"

# qualified name (module.qualname) -> why no command reaches it
ALLOWED = {
    "cli._Parser.error": "the argparse hook, reached only by bad arguments",
    "constructions.PerturbedMap.on_batch": "the test reference a trial map on the grid must equal bit for bit",
    "constructions.SampledSheet.__post_init__": _ACCEPTANCE,
    "constructions.SampledSheet.n": _ACCEPTANCE,
    "constructions.SampledSheet.project": _ACCEPTANCE,
    "constructions.SampledSheet.tangent_at_center": _ACCEPTANCE,
    "constructions.tf_witness": _ACCEPTANCE,
    "dsl.ParseError.__init__": "raised by text that does not parse; no gallery scene has any",
    "dsl.SmoothMap.to_source": _PRINTER,
    "dsl._abs": _DSL_RULE,
    "dsl._check_nonzero": _DSL_RULE + " (division, negative integer powers)",
    "dsl._div": _DSL_RULE,
    "dsl._exp": _DSL_RULE,
    "dsl._log": _DSL_RULE,
    "dsl._min_max": _DSL_RULE,
    "dsl._print": _PRINTER,
    "dsl.to_source": _PRINTER,
    "experiments.calibrate_epsilon": _PERFBENCH,
    "gallery.GalleryEntry.scene": "the test fixtures load gallery scenes through it",
    "grassmann.Subspace.from_json": "read only by replay_witness",
    "grassmann.Subspace.full": _EMPTY,
    "grassmann.Subspace.zero": _EMPTY,
    "grassmann.grassmann_limit": _PERFBENCH,
    "grassmann.kernel": "the test reference of the leaf kernel",
    "grassmann.principal_angles": _PERFBENCH,
    "regularity.ChartSurface.__post_init__": _CHART_SURFACE,
    "regularity.ChartSurface._preimages": _CHART_SURFACE,
    "regularity.ChartSurface.n": _CHART_SURFACE,
    "regularity.ChartSurface.project": _CHART_SURFACE,
    "regularity.ChartSurface.tangent_at_center": _CHART_SURFACE,
    "report.replay_witness": _PERFBENCH,
}


def definitions() -> dict[tuple[str, int, str], str]:
    """(file, first line of the code object, name) -> module.qualname of
    every function definition in the package.  A decorated function's
    code starts at its first decorator."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        module = path.stem

        def visit(node, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{prefix}{child.name}"
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(str(path), first, child.name)] = f"{module}.{qualname}"
                    visit(child, f"{qualname}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text()), "")
    return found


def _field_is_settable(statement) -> bool:
    """Whether a statement of a dataclass body is a field with a default
    that ``__init__`` takes."""
    if not isinstance(statement, ast.AnnAssign) or statement.value is None:
        return False
    if "ClassVar" in ast.unparse(statement.annotation):
        return False
    value = statement.value
    if isinstance(value, ast.Call) and ast.unparse(value.func) == "field":
        options = {k.arg: ast.unparse(k.value) for k in value.keywords}
        return options.get("init") != "False" and ("default" in options or "default_factory" in options)
    return True


def settable_values() -> int:
    """Parameters with a default, plus dataclass fields with a default that
    ``__init__`` takes, over every module of the package."""
    count = 0
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                count += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and any(
                ast.unparse(d.func if isinstance(d, ast.Call) else d) == "dataclass" for d in node.decorator_list
            ):
                count += sum(_field_is_settable(statement) for statement in node.body)
    return count


def run_commands() -> set:
    """The code objects whose frames started while every command ran."""
    started = set()

    def profile(frame, event, arg):
        if event == "call":
            started.add(frame.f_code)

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.setprofile(profile)
    try:
        # imported under the profile, so the gallery's import-time builders count
        import record_golden
        import strathom.cli as cli

        with tempfile.TemporaryDirectory() as tmp:
            for command in record_golden.COMMANDS:
                workdir = Path(tmp) / command
                workdir.mkdir()
                record_golden.record(command, 1, workdir)
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(["gallery", "--list"])
                cli.main(["gallery", "--emit", "parabola-shelf"])
    finally:
        sys.setprofile(None)
    return started


def main() -> int:
    start = time.perf_counter()
    defs = definitions()
    started = {(c.co_filename, c.co_firstlineno, c.co_name) for c in run_commands()}
    unreached = {name for key, name in defs.items() if key not in started}
    problems = [f"{name}: no command reaches it, and ALLOWED does not list it"
                for name in sorted(unreached - set(ALLOWED))]
    problems += [f"{name}: listed in ALLOWED, but a command reaches it"
                 for name in sorted(set(ALLOWED) & (set(defs.values()) - unreached))]
    problems += [f"{name}: listed in ALLOWED, but no such function exists"
                 for name in sorted(set(ALLOWED) - set(defs.values()))]
    print(f"{len(defs) - len(unreached)} of {len(defs)} function definitions reached, "
          f"{len(unreached)} not, in {time.perf_counter() - start:.1f} s")
    print(f"{settable_values()} settable values (parameters with a default, "
          f"dataclass fields with a default that __init__ takes)")
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
