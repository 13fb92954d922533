"""The union engine's pop-time search, kept as a test oracle for
``_UnionEngine._search``.

It is the breadth-first search as first written: each queued edge is
tried for a free side only when it is popped, and the circuits of all
edges queued ahead of the path's end are built first.  ``CheckedSearch``
runs it beside the engine's search on every call and asserts that both
find the same end, the same predecessor chain from the end back to the
new copy, and, when no path exists, the same reached set.
"""

from crystal_rigidity.sparsity import _UnionEngine


def pop_time_search(engine: _UnionEngine, y: int):
    """(end, pred) as ``_UnionEngine._search`` returns them."""
    states, sides = engine.states, engine.sides
    pred = {}
    queue = [None]
    for u in queue:
        e = y if u is None else u
        targets = [s for s in (0, 1) if u is None or not states[s].mask >> u & 1]
        for s in targets:
            if states[s].independent(e):
                return (u, s), pred
        for s in targets:
            rest = states[s].circuit(e)
            for x in sides[s]:
                if rest >> x & 1 and x not in pred:
                    pred[x] = u
                    queue.append(x)
    return None, pred


def chain(end, pred):
    """The placed edges of the path ending at ``end``, from the end back
    to the copy."""
    out = []
    u = end[0]
    while u is not None:
        out.append(u)
        u = pred[u]
    return out


class CheckedSearch:
    """Monkeypatches the engine so every search is compared with the
    pop-time oracle, and counts the searches by outcome."""

    def __init__(self, monkeypatch):
        self.paths = 0
        self.exchanges = 0
        self.failures = 0
        search = _UnionEngine._search

        def checked(engine, y):
            end, pred = search(engine, y)
            want_end, want_pred = pop_time_search(engine, y)
            assert end == want_end, (y, engine.sides)
            if end is None:
                assert set(pred) == set(want_pred), (y, engine.sides)
                self.failures += 1
            else:
                assert chain(end, pred) == chain(want_end, want_pred), (y, engine.sides)
                self.paths += 1
                self.exchanges += end[0] is not None
            return end, pred

        monkeypatch.setattr(_UnionEngine, "_search", checked)
