"""The settable values of ``roast``: every defaulted parameter in its source.

A default stays only where callers outside the tests set different values;
a value that only the tests vary is a module constant.
"""

import ast
import pathlib

import roast

SETTABLE = [
    ("basis", "build_roast", "method"),
    ("cli", "main", "argv"),
    ("diagnostics", "_checked_basis", "what"),
    ("recovery", "cgd_solve", "max_iter"),
    ("recovery", "cgd_solve", "tol"),
    ("recovery", "recovery_experiment", "r"),
    ("recovery", "recovery_experiment", "tol"),
    ("verify", "full_verification", "num_seeds"),
]


def _defaulted(path: pathlib.Path):
    """(module, function, parameter) of each parameter with a default."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            positional = args.posonlyargs + args.args
            named = positional[len(positional) - len(args.defaults):]
            named += [a for a, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None]
            for arg in named:
                yield path.stem, getattr(node, "name", "<lambda>"), arg.arg


def test_settable_values_are_the_listed_ones():
    source = pathlib.Path(roast.__file__).parent
    found = [v for path in sorted(source.glob("*.py")) for v in _defaulted(path)]
    assert sorted(found) == SETTABLE
