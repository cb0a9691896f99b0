"""Graph operations the tests use as independent references."""

from rigidpack.graph import MultiGraph


def delete_vertex(g: MultiGraph, v: int) -> MultiGraph:
    """g minus vertex v, the remaining vertices relabelled downward."""
    if g.n == 1:
        raise ValueError("cannot delete the only vertex")
    mapping = [w if w < v else w - 1 for w in range(g.n)]
    return MultiGraph(g.n - 1, [(mapping[a], mapping[b]) for a, b in g.edges
                                if v not in (a, b)])


def counting(monkeypatch, owner, name) -> list:
    """Wrap `owner.name` for the test so that each call appends its
    positional arguments to the returned list."""
    calls = []
    wrapped = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return wrapped(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls
