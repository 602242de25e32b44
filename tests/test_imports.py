"""Every module uses each name it imports, and a spectrum imports no more than it needs."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import klift

MODULES = sorted(p for p in Path(klift.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports but never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_found():
    source = "import os\nimport numpy as np\nfrom .kinetic import restrict, equilibrium_field\n"
    assert unused_imports(source + "np.zeros(equilibrium_field)\n") == ["os", "restrict"]


HEAVY = ("_hashlib", "numpy.random")
FRESH_SPECTRUM = f"""
import json, sys
import numpy as np
numpy_alone = [m for m in {HEAVY!r} if m in sys.modules]
import klift, klift.cli, klift.diagnostics, klift.snapshots
from klift import BasisKind, CRConfig, D1Q3Stepper, build_moment_basis
from klift.diagnostics import cr_jacobian_spectrum
basis = build_moment_basis(BasisKind.D1Q3, None, 1)
f0 = 1.0 + np.linspace(0.0, 0.5, 24).reshape(8, 3)
report = cr_jacobian_spectrum(D1Q3Stepper(omega=1.3), basis, f0, CRConfig(order_m=0))
print(json.dumps([numpy_alone, report.eigenvalues.size,
                  [m for m in {HEAVY!r} if m in sys.modules]]))
"""


def test_a_spectrum_loads_neither_openssl_nor_numpys_generators():
    # OpenSSL's libcrypto (through hashlib, which only config_hash uses) and
    # numpy.random (which loads it again through secrets) cost about 6 MB
    # resident; a fresh interpreter that imports the package and takes one
    # spectrum needs neither
    path = [str(Path(klift.__file__).parent.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run([sys.executable, "-c", FRESH_SPECTRUM], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    numpy_alone, eigenvalues, loaded = json.loads(done.stdout.splitlines()[-1])
    if numpy_alone:
        pytest.skip(f"import numpy alone loads {numpy_alone}")
    assert eigenvalues == 16
    assert loaded == []
