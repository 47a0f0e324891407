"""Each script in ``demos/`` run as a user would run it, with its stdout
pinned by SHA-256.  The demos print solved decisions, values and seeded
simulation results, so a refactor that changes what they print changes
what the library computes (or how it is shown) and must say why."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mdpstream

DEMOS = Path(__file__).resolve().parents[1] / "demos"

STDOUT_DIGESTS = {
    "channel_walk.py": "fa4e10789c0e5c4c4b1b1e9464434e70203a5c64f05c753ab051240ba21ca6c0",
    "differentiated_study.py": "a6a273a1c4db78619e1f106a75465c16a049ef390ae9cf9046e4039d8c5c15a4",
    "fair_study.py": "5480bbfbd825811d0055696e434d4d91a4d5b742b4d880b8f635434a8c394f11",
    "profit_surface.py": "2f5bde723d450ffe97175855219f064b407dd4869d39a82b3145723c64bd309c",
    "solve_and_inspect.py": "ebc2dfcb61b49c6a83113bd7202c20d71977b65afab55723a167b7d8815d0346",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(STDOUT_DIGESTS)


@pytest.mark.parametrize("name", sorted(STDOUT_DIGESTS))
def test_demo_stdout_is_unchanged(name):
    # run against the package these tests import, not an installed copy
    src = str(Path(mdpstream.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, str(DEMOS / name)], env=env, capture_output=True,
                          timeout=120, check=False)
    assert done.returncode == 0, done.stderr.decode(errors="replace")
    assert hashlib.sha256(done.stdout).hexdigest() == STDOUT_DIGESTS[name]
