"""The library's public surface holds only what something outside the tests uses."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "qubusim"


def _modules():
    return sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def public_definitions() -> Counter:
    """How often each public module-level function or class, and each public
    method, is defined in src/qubusim."""
    defs = Counter()
    kinds = (ast.FunctionDef, ast.ClassDef)
    for path in _modules():
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, kinds):
                continue
            defs[node.name] += 1
            if isinstance(node, ast.ClassDef):
                defs.update(m.name for m in node.body if isinstance(m, ast.FunctionDef))
    return Counter({name: k for name, k in defs.items() if not name.startswith("_")})


def test_every_public_name_is_used_outside_the_tests():
    # src/qubusim without the __init__ re-exports, the demos and the benchmark
    demos, bench = sorted((ROOT / "demos").glob("*.py")), sorted((ROOT / "bench").rglob("*.py"))
    files = _modules() + demos + bench
    text = "\n".join(p.read_text() for p in files)
    defs = public_definitions()
    assert len(defs) > 100
    unused = sorted(
        name for name, k in defs.items() if len(re.findall(rf"\b{name}\b", text)) <= k
    )
    assert unused == []
