"""No hidden tolerance: DEFAULT_TOL is read in the package only where a caller can override it."""

import ast
from pathlib import Path

import pytest

import dephkit

PACKAGE = Path(dephkit.__file__).resolve().parent

# Function bodies allowed to read DEFAULT_TOL. simulation_tensor takes no tol;
# it is retired once the benchmark stops timing it.
NAMED_SITES = {("superchannels.py", "simulation_tensor")}


def _reads_default_tol(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "DEFAULT_TOL") or (
        isinstance(node, ast.Attribute) and node.attr == "DEFAULT_TOL"
    )


def hidden_tolerances(source: str, filename: str) -> list[int]:
    """Lines where DEFAULT_TOL appears other than at an allowed site.

    Allowed: a function-argument default, a dataclass InitVar default, the
    definition in linalg.py, the default of the CLI's --tol option and the
    NAMED_SITES. Imports and re-exports hold no DEFAULT_TOL expression.
    """
    tree = ast.parse(source)
    allowed = set()

    def allow(node):
        allowed.update(id(n) for n in ast.walk(node))

    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for default in node.args.defaults + [d for d in node.args.kw_defaults if d is not None]:
                allow(default)
            if (filename, getattr(node, "name", None)) in NAMED_SITES:
                allow(node)
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
        ("superchannels.py", "def simulation_tensor(e):\n    return f(e, DEFAULT_TOL)\n", []),
        ("superchannels.py", "def other(e):\n    return f(e, DEFAULT_TOL)\n", [2]),
    ],
)
def test_gate_flags_every_other_read(filename, source, lines):
    assert hidden_tolerances(source, filename) == lines
