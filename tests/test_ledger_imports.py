"""The perf ledger (benchmarks/ledger/) may not be edited by a change it
measures, so every name it imports from ``repro`` is part of the
program's contract: moving or renaming one makes the benchmark's worker
exit non-zero at the gate.  This fails in tier-1 instead."""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

STACK = Path(__file__).resolve().parent.parent / "benchmarks" / "ledger" / "stack.py"


def _repro_imports(tree: ast.Module) -> list[tuple[str, str | None]]:
    """``(module, name)`` of every ``repro`` import; name None = the module."""
    found: list[tuple[str, str | None]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(a.name, None) for a in node.names if a.name.split(".")[0] == "repro"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
            found += [(node.module, a.name) for a in node.names]
    return found


def test_every_name_the_ledger_imports_from_repro_exists():
    imports = _repro_imports(ast.parse(STACK.read_text()))
    assert ("repro.consensus.replica", "PaxosConfig") in imports  # the parse found them
    missing = []
    for module, name in imports:
        try:
            imported = importlib.import_module(module)
        except ImportError as exc:
            missing.append(f"import {module}: {exc}")
            continue
        if name is not None and not hasattr(imported, name):
            missing.append(f"from {module} import {name}")
    assert not missing, missing


def test_the_ledgers_imports_leave_openssl_unloaded():
    """``hash_key`` uses CPython's built-in SHA-1: ``hashlib`` would map
    OpenSSL's libcrypto into every ledger worker, several MB of RSS."""
    modules = set()
    for node in ast.walk(ast.parse(STACK.read_text())):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module != "__future__":
            modules.add(node.module)
    assert {"repro.dht.ring", "repro.harness.builders", "ledger"} <= modules
    src = STACK.parent.parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(STACK.parent)]))
    code = (
        "import importlib, sys\n"
        f"for name in {sorted(modules)!r}:\n"
        "    importlib.import_module(name)\n"
        "print('_hashlib' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.strip() == "False"
