"""The per-edge Laman pass, kept as a test oracle for
``sparsity._laman_pass``.

It is the pass as first written: from a fresh union engine, each edge
in index order is placed by ``insert(e) or reach(e)``, the insertion and
then one doubling search for a parallel copy, until the first failure.
The set that failure reaches is the Laman circuit of the shortest
non-sparse prefix.  The library decides most passes by one closure of
the exchange graph instead; its decisions, circuits and kept sides must
equal these.  The engine's searches are its own ``_search``, so
``CheckedSearch`` checks them here too.
"""

from crystal_rigidity.sparsity import SparsityOracle, _edges_of, _UnionEngine


def laman_pass(g, edge_subset=None):
    """(mask of the circuit of the shortest non-sparse prefix or 0, the
    engine after the last step)."""
    oracle = SparsityOracle(g)
    engine = _UnionEngine(oracle)
    for e in _edges_of(oracle.mask_of(edge_subset)):
        reached = engine.insert(e) or engine.reach(e)
        if reached:
            return reached, engine
    return 0, engine


def find_laman_circuit(g, edge_subset=None):
    """The circuit as ``sparsity.find_laman_circuit`` returns it, or None."""
    reached = laman_pass(g, edge_subset)[0]
    return _edges_of(reached) if reached else None
