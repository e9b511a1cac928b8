"""Byte identity against committed digests: the artifacts of a fixed set of calls keep their bytes.

``make_golden_digests.py`` builds the artifacts (``generate``, ``eval`` in
every mode, ``loss``) and wrote the digests; a change that moves bytes on
purpose reruns it.  On a mismatch the test names every file that differs,
and the platform the digests were made on, so a different numpy or BLAS
build reads as such.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import vesselxyz

from make_golden_digests import DIGESTS, build, digests, machine


def _assert_golden(got: dict) -> None:
    golden = json.loads(DIGESTS.read_text(encoding="utf-8"))
    want = golden["files"]
    differ = sorted(name for name in want.keys() & got.keys() if want[name] != got[name])
    missing, extra = sorted(want.keys() - got.keys()), sorted(got.keys() - want.keys())
    assert not (differ or missing or extra), (
        f"differ: {differ}; missing: {missing}; unexpected: {extra}; "
        f"digests made on {golden['machine']}, this is {machine()}"
    )


def test_artifacts_match_golden_digests(tmp_path):
    _assert_golden(digests(build(tmp_path)))


def test_artifacts_do_not_depend_on_the_blas_kernel(tmp_path):
    """The golden set rebuilt under OpenBLAS's oldest x86-64 kernel keeps its digests.

    ``OPENBLAS_CORETYPE=Prescott`` is set only in a child process's
    environment.  A numpy built without OpenBLAS ignores the variable, and
    then this test repeats :func:`test_artifacts_match_golden_digests`.
    """
    paths = [str(Path(__file__).parent), str(Path(vesselxyz.__file__).parents[1])]
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott",
               PYTHONPATH=os.pathsep.join(paths + [os.environ.get("PYTHONPATH", "")]))
    code = ("import json, sys, pathlib; from make_golden_digests import build, digests; "
            "print(json.dumps(digests(build(pathlib.Path(sys.argv[1])))))")
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env, check=True,
                         capture_output=True, text=True)
    _assert_golden(json.loads(out.stdout))
