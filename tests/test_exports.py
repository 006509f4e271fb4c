import os
import subprocess
import sys
import types
from pathlib import Path

import jchm


def test_all_names_every_public_binding_once():
    exported = jchm.__all__
    assert len(exported) == len(set(exported))
    for name in exported:
        assert hasattr(jchm, name), name
    bound = {name for name, value in vars(jchm).items()
             if not name.startswith("_")
             and not isinstance(value, types.ModuleType)}
    assert set(exported) == bound | {"__version__"}


def test_cli_imports_no_scipy_subpackage_but_linalg():
    # start-up time is part of every run: scipy.optimize alone adds about
    # 270 ms to `import jchm.cli`, so the only scipy subpackage the CLI and
    # validation may load is scipy.linalg
    src = str(Path(jchm.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    probe = ("import sys\n"
             "import jchm.cli, jchm.validation\n"
             "for name, module in sorted(sys.modules.items()):\n"
             "    parts = name.split('.')\n"
             "    if (len(parts) == 2 and parts[0] == 'scipy'\n"
             "            and not parts[1].startswith('_')\n"
             "            and hasattr(module, '__path__')):\n"
             "        print(name)\n")
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["scipy.linalg"]
