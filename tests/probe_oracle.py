"""The exchange-arc probe loop, kept as a test oracle for the union engine.

It answers the engine's two questions about a side S and an edge u with
full count scans only: S + u is independent when g(S + u) = |S| + 1, and
an element x of S is in the unique circuit of a dependent S + u exactly
when S + u - x is independent.  The mask of S + u is built once; each
probe clears x's bit, unless u is x itself, asked for a parallel copy
(then the bit stays set).
"""

from crystal_rigidity.sparsity import _SideState, _edges_of


def probe_independent(state: _SideState, u: int) -> bool:
    return state.mask.bit_count() + 1 == state.oracle.g_mask(state.mask | 1 << u)


def probe_circuit(state: _SideState, u: int) -> int:
    size = state.mask.bit_count()
    mask = state.mask | 1 << u
    out = 0
    for x in _edges_of(state.mask):
        if size == state.oracle.g_mask(mask if x == u else mask & ~(1 << x)):
            out |= 1 << x
    return out


class CheckedQueries:
    """Monkeypatches the side states so every independence and circuit
    query of the engine is compared with the probe loop, and counts the
    queries by kind."""

    def __init__(self, monkeypatch):
        self.calls = 0
        self.circuits = 0
        self.parallel = 0
        self.translation_rank_2 = 0
        independent = _SideState.independent
        circuit = _SideState.circuit

        def checked_independent(state, u):
            got = independent(state, u)
            assert got == probe_independent(state, u), (state.mask, u)
            self.calls += 1
            return got

        def checked_circuit(state, u):
            got = circuit(state, u)
            assert got == probe_circuit(state, u), (state.mask, u)
            self.calls += 1
            self.circuits += 1
            self.parallel += bool(state.mask >> u & 1)
            self.translation_rank_2 += state.oracle.k == 2 and state.counts.half_rep == 2
            return got

        monkeypatch.setattr(_SideState, "independent", checked_independent)
        monkeypatch.setattr(_SideState, "circuit", checked_circuit)
