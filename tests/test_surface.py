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


def _names_in(node: ast.AST) -> set:
    """Every name a node reads: its names, attributes and imported names."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def test_every_private_definition_is_used_in_the_library():
    # a private module-level function or class counts as used when some
    # other top-level statement of src/qubusim reads its name
    bodies = [ast.parse(p.read_text()).body for p in sorted(SRC.glob("*.py"))]
    statements = [node for body in bodies for node in body]
    private = [node for node in statements
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")]
    assert len(private) > 100
    reads = [(node, _names_in(node)) for node in statements]
    unused = sorted(
        d.name for d in private if not any(d.name in names for node, names in reads if node is not d)
    )
    assert unused == []


def test_only_elements_reads_its_slot_table_compiler():
    # other modules apply slot tables through the element functions alone
    private = {"_remap", "_compiled", "_route_table", "_pm_table"}
    readers = {path.name: sorted(private & _names_in(ast.parse(path.read_text())))
               for path in sorted(SRC.glob("*.py")) if path.name != "elements.py"}
    assert {name: names for name, names in readers.items() if names} == {}
