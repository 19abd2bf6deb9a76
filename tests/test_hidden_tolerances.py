"""No hidden tolerance: DEFAULT_TOL is read in the package only where a caller can override it,
every call of a package function that takes tol passes one, and no line of the package floors
tol, compares against a literal cutoff or leans on numpy's default tolerances."""

import ast
import re
from pathlib import Path

import pytest

import dephkit

PACKAGE = Path(dephkit.__file__).resolve().parent


def _reads_default_tol(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "DEFAULT_TOL") or (
        isinstance(node, ast.Attribute) and node.attr == "DEFAULT_TOL"
    )


def hidden_tolerances(source: str, filename: str) -> list[int]:
    """Lines where DEFAULT_TOL appears other than at an allowed site.

    Allowed: a function-argument default, a dataclass InitVar default, the
    definition in linalg.py and the default of the CLI's --tol option. Imports
    and re-exports hold no DEFAULT_TOL expression.
    """
    tree = ast.parse(source)
    allowed = set()

    def allow(node):
        allowed.update(id(n) for n in ast.walk(node))

    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for default in node.args.defaults + [d for d in node.args.kw_defaults if d is not None]:
                allow(default)
        elif isinstance(node, ast.AnnAssign) and node.value is not None and "InitVar" in ast.unparse(node.annotation):
            allow(node.value)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and filename == "linalg.py":
            allow(node)
        elif (
            isinstance(node, ast.Call)
            and filename == "cli.py"
            and getattr(node.func, "attr", None) == "add_argument"
            and [getattr(a, "value", None) for a in node.args[:1]] == ["--tol"]
        ):
            for kw in node.keywords:
                if kw.arg == "default":
                    allow(kw.value)
    return sorted(n.lineno for n in ast.walk(tree) if _reads_default_tol(n) and id(n) not in allowed)


def test_package_reads_default_tol_only_where_a_caller_can_override_it():
    found = {path.name: hidden_tolerances(path.read_text(), path.name) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


@pytest.mark.parametrize(
    "filename,source,lines",
    [
        ("m.py", "def f(x, tol=DEFAULT_TOL):\n    return x <= tol\n", []),
        ("m.py", "def f(x, *, tol=linalg.DEFAULT_TOL):\n    return x <= tol\n", []),
        ("m.py", "@dataclass\nclass C:\n    tol: InitVar[float] = DEFAULT_TOL\n", []),
        ("m.py", "def f(x):\n    return x <= DEFAULT_TOL\n", [2]),
        ("m.py", "def f(x, tol=None):\n    return x <= (tol or linalg.DEFAULT_TOL)\n", [2]),
        ("m.py", "LIMIT = 10 * DEFAULT_TOL\n", [1]),
        ("m.py", "class C:\n    tol: float = DEFAULT_TOL\n", [2]),
        ("m.py", "DEFAULT_TOL = 1e-9\n", [1]),
        ("linalg.py", "DEFAULT_TOL = 1e-9\n", []),
        ("cli.py", "p.add_argument('--tol', default=str(DEFAULT_TOL))\n", []),
        ("cli.py", "p.add_argument('--cut', default=str(DEFAULT_TOL))\n", [1]),
        ("superchannels.py", "def simulation_tensor(e):\n    return f(e, DEFAULT_TOL)\n", [2]),
        ("superchannels.py", "def other(e):\n    return f(e, DEFAULT_TOL)\n", [2]),
    ],
)
def test_gate_flags_every_other_read(filename, source, lines):
    assert hidden_tolerances(source, filename) == lines


def _takes_tol(node) -> tuple[int | None, bool] | None:
    """(index of tol among the positional parameters, or None if keyword-only; whether the
    function is a method) for a FunctionDef with a tol parameter, else None."""
    positional = [a.arg for a in node.args.posonlyargs + node.args.args]
    if "tol" in positional:
        return positional.index("tol"), positional[:1] == ["self"]
    if "tol" in [a.arg for a in node.args.kwonlyargs]:
        return None, False
    return None


def _passes_tol(call: ast.Call, index: int | None, method: bool) -> bool:
    """Whether a call passes tol: by keyword, by **kwargs, by a starred argument, or in position."""
    if any(kw.arg in ("tol", None) for kw in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    implicit_self = method and isinstance(call.func, ast.Attribute)
    return index is not None and len(call.args) > index - implicit_self


def calls_without_tol(sources: dict[str, str]) -> dict[str, list[int]]:
    """Per file, the lines where a function other than a random_* constructor calls a package
    function that takes tol without passing one. Callees are matched by name, a method's
    call through an attribute passing self implicitly."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    takes = {
        node.name: sig
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (sig := _takes_tol(node))
    }
    found = {}
    for name, tree in trees.items():
        lines = set()
        for caller in ast.walk(tree):
            if not isinstance(caller, (ast.FunctionDef, ast.AsyncFunctionDef)) or caller.name.startswith("random_"):
                continue
            for call in ast.walk(caller):
                if not isinstance(call, ast.Call):
                    continue
                callee = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
                if callee in takes and not _passes_tol(call, *takes[callee]):
                    lines.add(call.lineno)
        if lines:
            found[name] = sorted(lines)
    return found


def test_every_call_of_a_function_that_takes_tol_passes_one():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert calls_without_tol(sources) == {}


G = "def g(x, tol=1e-9):\n    return x\n"
M = "class A:\n    def m(self, tol=1e-9):\n        return tol\n"


@pytest.mark.parametrize(
    "source,lines",
    [
        (G + "def f(x, tol):\n    return g(x)\n", [4]),
        (G + "def f(x):\n    return g(x)\n", [4]),  # a caller that takes no tol hides the default
        (G + "def f(x, tol):\n    return g(x, tol)\n", []),
        (G + "def f(x, tol):\n    return g(x, tol=tol)\n", []),
        (G + "def f(x, kw):\n    return m.g(x, **kw)\n", []),
        (G + "def f(xs, tol):\n    return g(*xs, tol)\n", []),
        (G + "def f(xs):\n    return g(*xs)\n", []),
        (G + "def random_f(seed):\n    return g(seed)\n", []),
        (G + "def f(x, tol):\n    return mod.g(x)\n", [4]),
        (M + "def f(a, tol):\n    return a.m(tol)\n", []),
        (M + "def f(a, tol):\n    return a.m()\n", [5]),
        ("def h(x, *, tol):\n    return x\ndef f(x, tol):\n    return h(x)\n", [4]),
        ("def h(x, *, tol):\n    return x\ndef f(x, tol):\n    return h(x, tol=tol)\n", []),
        ("def f(x):\n    return print(x)\n", []),
    ],
)
def test_call_gate_flags_every_call_that_drops_tol(source, lines):
    assert calls_without_tol({"m.py": source}).get("m.py", []) == lines


# Line patterns that hide the caller's tol, each with the remedy its failure names.
HIDDEN_CUTOFFS = {
    re.escape("max(tol,"): "a tolerance floor hides the caller's tol; pass tol through instead",
    r"[<>]=?[^=<>#]*[0-9]e-[0-9]": "a comparison against a literal hides the caller's tol; "
    "pass tol through or use a named rank rule",
    r"\b[ar]tol=|\b(isclose|allclose)\b": "numpy's default or a literal atol/rtol hides the caller's tol; "
    "compare a measured deviation with tol instead",
}


def hidden_cutoffs(text: str) -> list[tuple[int, str]]:
    """(line number, remedy) of every line of text that one of HIDDEN_CUTOFFS matches."""
    return [
        (number, remedy)
        for number, line in enumerate(text.splitlines(), 1)
        for pattern, remedy in HIDDEN_CUTOFFS.items()
        if re.search(pattern, line)
    ]


def test_package_has_no_hidden_cutoff_on_any_line():
    # every file of the package, as a recursive grep of a fresh checkout reads it
    files = [p for p in sorted(PACKAGE.rglob("*")) if p.is_file() and "__pycache__" not in p.parts]
    assert any(p.suffix == ".json" for p in files)
    found = {str(p.relative_to(PACKAGE)): hidden_cutoffs(p.read_text(errors="replace")) for p in files}
    assert {name: hits for name, hits in found.items() if hits} == {}


@pytest.mark.parametrize(
    "line,pattern",
    [
        ("    return max(tol, 1e-7)", 0),
        ("    if residual <= 1e-12:", 1),
        ("    return np.allclose(a, b)", 2),
        ("    return np.isclose(a, b, atol=tol)", 2),
    ],
)
def test_cutoff_gate_flags_a_planted_line(line, pattern):
    clean = "def f(x, tol):\n    return x <= tol\n"
    assert hidden_cutoffs(clean) == []
    remedy = list(HIDDEN_CUTOFFS.values())[pattern]
    assert hidden_cutoffs(clean + line + "\n") == [(3, remedy)]
