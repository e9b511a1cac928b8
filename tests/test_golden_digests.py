"""Byte identity against committed digests: the artifacts of a fixed set of calls keep their bytes.

``make_golden_digests.py`` builds the artifacts (``generate``, ``eval`` in
every mode, ``loss``) and wrote the digests; a change that moves bytes on
purpose reruns it.  On a mismatch the test names every file that differs,
and the platform the digests were made on, so a different numpy or BLAS
build reads as such.
"""

import json

from make_golden_digests import DIGESTS, build, digests, machine


def test_artifacts_match_golden_digests(tmp_path):
    golden = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = digests(build(tmp_path))
    want = golden["files"]
    differ = sorted(name for name in want.keys() & got.keys() if want[name] != got[name])
    missing, extra = sorted(want.keys() - got.keys()), sorted(got.keys() - want.keys())
    assert not (differ or missing or extra), (
        f"differ: {differ}; missing: {missing}; unexpected: {extra}; "
        f"digests made on {golden['machine']}, this is {machine()}"
    )
