"""The exchange-arc probe loop, kept as a test oracle for the union engine.

It answers the engine's two questions about side s and an edge u with
full count scans only: side + u is independent when
g(side + u) = |side| + 1, and an element x of the side is in the unique
circuit of a dependent side + u exactly when side + u - x is independent.
The mask of side + u is built once; each probe clears x's bit, unless u
is x itself, asked for a parallel copy (then the bit stays set).
"""

from crystal_rigidity.sparsity import _UnionEngine


def _side_mask(engine: _UnionEngine, s: int) -> int:
    mask = 0
    for x in engine.sides[s]:
        mask |= 1 << x
    return mask


def probe_independent(engine: _UnionEngine, s: int, u: int) -> bool:
    mask = _side_mask(engine, s) | 1 << u
    return len(engine.sides[s]) + 1 == engine.oracle.g_mask(mask)


def probe_circuit_rest(engine: _UnionEngine, s: int, u: int):
    side = engine.sides[s]
    mask = _side_mask(engine, s) | 1 << u
    out = []
    for x in side:
        if len(side) == engine.oracle.g_mask(mask if x == u else mask & ~(1 << x)):
            out.append(x)
    return out


class CheckedQueries:
    """Monkeypatches the engine so every independence and circuit query is
    compared with the probe loop, and counts the queries by kind."""

    def __init__(self, monkeypatch):
        self.calls = 0
        self.circuits = 0
        self.parallel = 0
        self.translation_rank_2 = 0
        independent = _UnionEngine._independent
        circuit_rest = _UnionEngine._circuit_rest

        def checked_independent(engine, s, u):
            got = independent(engine, s, u)
            assert got == probe_independent(engine, s, u), (s, u, engine.sides)
            self.calls += 1
            return got

        def checked_circuit_rest(engine, s, u):
            got = circuit_rest(engine, s, u)
            assert got == probe_circuit_rest(engine, s, u), (s, u, engine.sides)
            self.calls += 1
            self.circuits += 1
            state = engine.states[s]
            self.parallel += bool(state.mask >> u & 1)
            self.translation_rank_2 += engine.oracle.k == 2 and state.counts.half_rep == 2
            return got

        monkeypatch.setattr(_UnionEngine, "_independent", checked_independent)
        monkeypatch.setattr(_UnionEngine, "_circuit_rest", checked_circuit_rest)
