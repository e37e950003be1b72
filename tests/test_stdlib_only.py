"""The runtime is pure standard library, and a light part of it: the CLI
loads no HTTP client, e-mail parser or TLS."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_every_import_is_standard_library_or_relative():
    for path in sorted((SRC / "lenserv").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)


def test_the_cli_loads_no_http_client_email_or_ssl():
    heavy = ("http.server", "http.client", "email", "ssl")
    code = f"import sys, lenserv.cli; print([m for m in {heavy!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
