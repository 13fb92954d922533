"""Byte-identity of the CLI's outputs on a committed corpus.

Every command of ``rewrite_digests`` is run again, and its sha256 (exit
code, stdout, stderr and the SVG that ``render`` writes) must equal the
one stored in ``output_digests.json``.  A change that moves an output on
purpose rewrites the manifest with ``python tests/rewrite_digests.py``."""

import json

from rewrite_digests import MANIFEST, digests


def test_every_output_digest_is_unchanged():
    with open(MANIFEST, encoding="utf-8") as fh:
        stored = json.load(fh)
    now = digests()
    moved = sorted(name for name in stored.keys() & now.keys() if stored[name] != now[name])
    missing = sorted(stored.keys() - now.keys())
    new = sorted(now.keys() - stored.keys())
    assert not (moved or missing or new), {"moved": moved, "missing": missing, "new": new}
    assert len(now) > 2000
