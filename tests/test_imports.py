"""What importing a module loads, checked in a fresh interpreter.

A client needs the wire protocol, not the engine; a server needs the
engine, not its test oracle or fault injector.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _loaded_after(statement: str) -> list[str]:
    """The ``repro`` modules a fresh interpreter holds after
    ``statement``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    code = (
        f"import json, sys\n{statement}\n"
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m.startswith('repro'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return json.loads(out)


def test_client_import_loads_no_engine_module():
    loaded = _loaded_after("import repro.client")
    assert "repro.client" in loaded
    assert [m for m in loaded if m.startswith("repro.engine")] == []


def test_server_import_loads_neither_oracle_nor_faults():
    loaded = _loaded_after("import repro.server.server")
    assert "repro.engine.database" in loaded
    assert "repro.engine.oracle" not in loaded
    assert "repro.engine.faults" not in loaded


def test_engine_package_resolves_its_public_names():
    loaded = _loaded_after(
        "import repro.engine\n"
        "from repro.engine import Database, OracleDatabase, FaultyStorage"
    )
    assert "repro.engine.oracle" in loaded
    assert "repro.engine.faults" in loaded
