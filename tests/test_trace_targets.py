"""The benchmark's per-layer traces wrap library functions by name
(``bench/tracing.py``); a renamed function would only drop its metrics
with a line on stderr.  Every wrapped name must resolve."""

import crystal_rigidity.cli  # noqa: F401  (loads every module the traces wrap)
from tracing import Tracer


def test_every_traced_name_resolves():
    tracer = Tracer("crystal_rigidity")
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()
