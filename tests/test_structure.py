"""Structural checks: how galwalk's modules depend on each other, what
importing the CLI loads, which coefficient ring the walk-sample path
computes in, and which functions the golden cases reach."""
import ast
import importlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import galwalk
from galwalk import exactmat, experiment, galois_id, modpoly, zfactor
from galwalk.cli import main
from galwalk.experiment import ExperimentConfig, batch_seed, identify_sample
from galwalk.scenarios import builtin_scenarios
from galwalk.walker import batch_sample
from test_golden import CASES

PACKAGE = Path(galwalk.__file__).parent


def test_no_module_imports_another_modules_private_name():
    private = []
    paths = sorted(PACKAGE.glob("*.py"))
    assert "zfactor.py" in {path.name for path in paths}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            internal = node.level > 0 or (node.module or "").split(".")[0] == "galwalk"
            if internal:
                private += [
                    f"{path.name}: {node.module}.{alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_") and alias.name != "__version__"
                ]
    assert private == []


# modules `import galwalk.cli` must not load: dataclasses, which loads the
# other three and compiles each decorated class's methods at import
SLOW_IMPORTS = {"dataclasses", "inspect", "ast", "dis"}


def test_cli_import_loads_no_slow_module():
    # a fresh interpreter's modules before and after the import
    code = (
        "import sys\nbare = set(sys.modules)\nimport galwalk.cli\n"
        "print(*sorted(set(sys.modules) - bare))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent), PYTHONDONTWRITEBYTECODE="1"),
    )
    added = set(proc.stdout.split())
    assert "galwalk.experiment" in added
    assert not added & SLOW_IMPORTS


def test_no_module_imports_dataclasses():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found += [(path.name, a.name) for a in node.names if a.name == "dataclasses"]
            elif isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
                found.append((path.name, node.module))
    assert found == []


# the prime scan's frequencies and distances are rational by nature
RATIONAL_BY_NATURE = {"collect_samples", "tv_distance"}


def test_characteristic_polynomial_path_builds_no_fraction(monkeypatch):
    # integral walk samples: sl4, sltau2 (e = 2 on its identity coset), and
    # sltau4, whose degree-8 swap coset goes on to the prime scan
    work = []
    for name in ("sl4", "sltau2", "sltau4"):
        scen = builtin_scenarios()[name]
        cfg = ExperimentConfig(scenario=name, k_values=(10,))
        for sample in batch_sample(scen.admissible(), 10, 12, batch_seed(1, 10)):
            assert sample.element.den == 1
            work.append((sample, scen.coset(sample.label), cfg))
    real = Fraction
    scanned = []

    class NoFraction:
        def __new__(cls, *args, **kwargs):
            frame = sys._getframe(1)
            while frame.f_code.co_name.startswith("<"):  # a comprehension
                frame = frame.f_back
            code = frame.f_code
            if code.co_filename == galois_id.__file__ and code.co_name in RATIONAL_BY_NATURE:
                scanned.append(code.co_name)
                return real(*args, **kwargs)
            raise AssertionError("a Fraction was built on the integer path")

    for module in (exactmat, modpoly, zfactor, galois_id, experiment):
        monkeypatch.setattr(module, "Fraction", NoFraction, raising=False)
    with pytest.raises(AssertionError):
        exactmat.det(exactmat.RationalMatrix.identity(2))  # the stub is in place
    decided = sum(identify_sample(*args) is not None for args in work)
    assert decided >= len(work) // 2 and "collect_samples" in scanned


# functions no golden case calls, kept on purpose
UNREACHED_ON_PURPOSE = {
    "modpoly.squarefree_over_q": "benchmark probe target",
}


def defined_functions() -> dict:
    """(file, first line of the def or its first decorator) -> dotted name,
    for every function defined in the package, nested ones included."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(str(path), first)] = prefix + child.name
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, f"{path.stem}.")
    return found


def test_golden_cases_reach_every_function(tmp_path):
    defined = defined_functions()
    assert set(UNREACHED_ON_PURPOSE) <= set(defined.values())
    for path in PACKAGE.glob("*.py"):  # an earlier test may have filled them
        for fn in vars(importlib.import_module(f"galwalk.{path.stem}")).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    saved = sys.getprofile()
    sys.setprofile(profile)
    try:
        for case, args in CASES.items():
            assert main([*args, "--out", str(tmp_path / case)]) == 0
    finally:
        sys.setprofile(saved)
    called = {(code.co_filename, code.co_firstlineno) for code in codes}
    unreached = sorted(
        name for key, name in defined.items()
        if key not in called and name not in UNREACHED_ON_PURPOSE
    )
    assert not unreached, f"no golden case calls {', '.join(unreached)}"
