"""Answer checks that share no code with raagkit.

Words are handled here as lists of ``(vertex index, sign)`` letters over a
graph given as a vertex list and an edge list, the same definitions the
benchmark writes into its graph files.  Together with the answers recorded
in ``expected.json`` these checks make the benchmark's correctness gate.
"""

from __future__ import annotations


class Graph:
    """Vertex names, their order, and commutation (adjacency) as sets."""

    def __init__(self, vertices, edges):
        self.vertices = list(vertices)
        self.index = {v: i for i, v in enumerate(self.vertices)}
        self.adj = {i: set() for i in range(len(self.vertices))}
        for a, b in edges:
            self.adj[self.index[a]].add(self.index[b])
            self.adj[self.index[b]].add(self.index[a])

    def commute(self, x, y) -> bool:
        """Whether two letters commute (distinct adjacent generators)."""
        return y[0] in self.adj[x[0]]

    def letters(self, word) -> list[tuple[int, int]]:
        """Letters of a raagkit ``Word`` via its public ``letters()``."""
        return [(self.index[name], sign) for name, sign in word.letters()]


def key(letter) -> tuple[int, int]:
    """Letter order: vertex order, each generator just before its inverse."""
    return (letter[0], 0 if letter[1] > 0 else 1)


def is_reduced(g: Graph, w) -> bool:
    """No letter meets its inverse across letters that all commute with it."""
    for i, x in enumerate(w):
        for y in w[i + 1:]:
            if y[0] == x[0]:
                if y[1] == -x[1]:
                    return False
                break
            if not g.commute(x, y):
                break
    return True


def is_lex_least(g: Graph, w) -> bool:
    """Each letter is the least one that can be shuffled to its position."""
    for i in range(len(w)):
        best = key(w[i])
        passed: set[int] = set()  # generators of the letters before y
        for y in w[i:]:
            if passed <= g.adj[y[0]] and key(y) < best:
                return False
            passed.add(y[0])
    return True


def reduce(g: Graph, w) -> list[tuple[int, int]]:
    """A reduced word for the same element.

    Each new letter cancels the nearest earlier letter of its generator if
    that letter is its inverse and every letter after it commutes with it.
    The output stays reduced, and a reduced word is the identity only when
    it is empty.
    """
    out: list[tuple[int, int]] = []
    for x in w:
        i = len(out) - 1
        while i >= 0 and out[i][0] != x[0] and g.commute(x, out[i]):
            i -= 1
        if i >= 0 and out[i] == (x[0], -x[1]):
            del out[i]
        else:
            out.append(x)
    return out


def equal(g: Graph, u, v) -> bool:
    """Whether two words are the same element: ``u v^-1`` reduces to nothing."""
    return not reduce(g, list(u) + inverse(v))


def is_cyclically_reduced(g: Graph, w) -> bool:
    """A word is cyclically reduced iff its square is reduced."""
    return is_reduced(g, w + w)


def inverse(w):
    return [(x, -s) for x, s in reversed(w)]


def proper_coloring(g: Graph, assignment: dict[str, int], colors: int) -> bool:
    if set(assignment) != set(g.vertices):
        return False
    if any(not 0 <= c < colors for c in assignment.values()):
        return False
    return all(assignment[g.vertices[a]] != assignment[g.vertices[b]]
               for a in g.adj for b in g.adj[a])


def occurs_cyclically(rep, u, pos) -> bool:
    """Whether ``u`` occurs in the cyclic word ``rep`` starting at ``pos``."""
    n = len(rep)
    return len(u) <= n and all(rep[(pos + i) % n] == u[i] for i in range(len(u)))


def max_inverse_overlap(w) -> int:
    """Longest ``u`` with ``u`` and ``u^-1`` at disjoint places of the cyclic word ``w``."""
    n = len(w)
    best = 0
    for length in range(1, n // 2 + 1):
        starts: dict[tuple, list[int]] = {}
        for i in range(n):
            starts.setdefault(tuple(w[(i + k) % n] for k in range(length)), []).append(i)
        if any((j - i) % n >= length and (i - j) % n >= length
               for u, at in starts.items()
               for j in starts.get(tuple(inverse(list(u))), ())
               for i in at):
            best = length
    return best
