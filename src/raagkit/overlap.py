"""Cyclic inverse-overlap verification.

The central quantity: given a cyclic word ``w``, the largest length of a
subword ``u`` such that both ``u`` and its formal inverse occur in some word
obtained from ``w`` by rotations and swaps of adjacent commuting letters
(in ``disjoint`` mode the two occurrences must occupy disjoint cyclic
position sets).  For a cyclically reduced core of an ``n``-th power the
verified claim is that this maximum never exceeds ``len(w) / (2 n)``.

In a free group the bound is never attained: an overlap ``u``, ``u^-1`` of
length ``|g| / 2`` in ``g^oo`` would make a rotation of ``g`` equal to
``u u^-1``, or force a letter equal to its own inverse or an adjacent
cancelling pair.  It is sharp in the limit: for ``a^k b A^k B`` the maximum is
``k`` against the bound ``k + 1``, so no constant below ``1 / (2 n)`` holds.

Three tools live here: a direct scanner for one representative, an
exhaustive breadth-first enumeration of the rotation/swap closure (one word
per rotation class, since the scanner is rotation invariant), and a cheap
projection certificate that often bounds the closure maximum without
enumerating it.  Moves only permute letters, so the enumeration recognises a
class by its rotations at one letter every class holds equally often, and
it skips the scanner altogether when no generator occurs with both signs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional

from .errors import TrivialElement
from .graphs import DefiningGraph, chromatic_number
from .words import (
    CyclicWord,
    Word,
    _inv_codes,
    _least_rotation,
    _rotations_at,
    cyclically_reduce,
    normal_form,
    power,
)

DEFAULT_REPS_CAP = 200_000

_MODES = ("disjoint", "any")


def _check_mode(mode: str) -> None:
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")


# ---------------------------------------------------------------------------
# scanning one representative
# ---------------------------------------------------------------------------


def _pair_at(codes: bytes, length: int, mode: str) -> Optional[tuple[int, int]]:
    """First (i, j) with ``u`` at i and ``u^-1`` at j of the given length.

    Positions are cyclic start indices in scan order (i ascending, then j).
    """
    n = len(codes)
    if length < 1 or length > n or (mode == "disjoint" and 2 * length > n):
        return None
    doubled = codes * 2
    # the inverse of doubled[i : i + length] is inv[2n - i - length : 2n - i]
    inv = _inv_codes(doubled)
    # the windows starting at j = 0 .. n - 1
    windows = doubled[: n + length - 1]
    for i in range(n):
        target = inv[2 * n - i - length : 2 * n - i]
        j = windows.find(target)
        while j >= 0:
            if i != j and (
                mode != "disjoint" or ((j - i) % n >= length and (i - j) % n >= length)
            ):
                return i, j
            j = windows.find(target, j + 1)
    return None


def _raw_max_overlap(
    codes: bytes, mode: str, best: int = 0
) -> tuple[int, Optional[tuple[int, int, int]]]:
    """Largest inverse-overlap length in one cyclic word, with first witness.

    Overlap lengths are downward closed (drop the last letter of ``u`` and
    shift the inverse occurrence by one), so the scan walks lengths upward
    from ``best + 1`` and stops at the first empty one; the witness is None
    when no length above ``best`` occurs.
    """
    witness: Optional[tuple[int, int, int]] = None
    while True:
        hit = _pair_at(codes, best + 1, mode)
        if hit is None:
            return best, witness
        best += 1
        witness = (best, hit[0], hit[1])


@dataclass(frozen=True)
class Witness:
    """A maximal overlapping pair inside one closure representative."""

    u: Word
    pos_u: int
    pos_u_inv: int
    representative: Word

    def to_json_dict(self) -> dict:
        return {
            "u": self.u.display(),
            "pos_u": self.pos_u,
            "pos_u_inv": self.pos_u_inv,
            "representative": self.representative.display(),
        }


def _witness_from(graph: DefiningGraph, rep: bytes, raw: tuple[int, int, int]) -> Witness:
    length, i, j = raw
    doubled = rep * 2
    return Witness(
        u=Word(graph, doubled[i : i + length]),
        pos_u=i,
        pos_u_inv=j,
        representative=Word(graph, rep),
    )


def max_inverse_overlap(w: CyclicWord, mode: str = "disjoint") -> tuple[int, Optional[Witness]]:
    """Largest inverse-overlap length in the given cyclic word alone.

    Only rotations of ``w`` are considered (the scanner is rotation
    invariant); commuting swaps are the closure enumeration's business.
    """
    _check_mode(mode)
    rep = w.canonical().codes
    best, raw = _raw_max_overlap(rep, mode)
    return best, None if raw is None else _witness_from(w.graph, rep, raw)


# ---------------------------------------------------------------------------
# the rotation/swap closure
# ---------------------------------------------------------------------------


def _closure_scan(
    graph: DefiningGraph, start: bytes, mode: str, cap: int
) -> tuple[int, Optional[Witness], int, bool]:
    """Breadth-first walk of the swap closure over rotation classes, scanning as it goes.

    Each queued node is a rotation class, stored as its least rotation
    (``start`` must be one).  Its neighbours are the commuting swaps of two
    cyclically adjacent letters, the wrap-around pair (last, first)
    included; rotation itself is not a move.  The scanner is rotation
    invariant, so one probe per class, one length above the current best,
    sees the whole closure (per-word lengths are downward closed, so
    nothing is missed).  ``cap`` bounds the number of classes.

    Classes are recognised without canonicalising every neighbour.  The key
    letter ``r`` is the letter rarest in ``start`` (the least code among
    the rarest).  Swaps and rotations only permute letters, so every class
    of the closure holds ``r`` equally often; ``seen`` holds, for each
    admitted class, all its rotations that begin with ``r``, so a neighbour
    can be looked up by any one of them; the walk takes the one at its
    first ``r``.  Only a new class pays for its ``r``-rotations and its
    least rotation; the least letter is the same in every class too, so
    when ``r`` is that letter the least rotation is the least of them.
    The queue order, and so the probes, the witness and the classes a cap
    lets in, are those of keying every class by its least rotation.

    A length-1 overlap is a generator occurring with both signs, which the
    closure cannot change; when ``start`` has none no class has one, and
    the walk only counts classes.  Returns (max, witness, classes, capped).
    """
    n = len(start)
    key = min(set(start), key=lambda c: (start.count(c), c))
    key_is_least = key == min(start)
    probe = _pair_at(start, 1, mode) is not None
    seen = set(_rotations_at(start, key))
    queue = [start]
    best = 0
    witness: Optional[Witness] = None
    capped = False
    head = 0
    nc = graph._nc_mask
    while head < len(queue):
        rep = queue[head]
        head += 1
        if probe:
            best, raw = _raw_max_overlap(rep, mode, best)
            if raw is not None:
                witness = _witness_from(graph, rep, raw)
        doubled = rep * 2
        for i in range(n):
            a, b = doubled[i], doubled[i + 1]
            if (nc[a] >> b) & 1:
                continue
            # the word with a and b swapped, read from the letter after them
            swapped = doubled[i + 2 : i + n] + bytes((b, a))
            k = swapped.find(key)
            nb = swapped[k:] + swapped[:k]
            if nb in seen:
                continue
            if len(queue) >= cap:
                capped = True
                continue
            rots = _rotations_at(nb, key)
            seen.update(rots)
            queue.append(min(rots) if key_is_least else _least_rotation(nb))
    return best, witness, len(queue), capped


@dataclass
class OverlapReport:
    """Result of bounding the overlap maximum for one power of one element.

    ``representatives_checked`` counts the rotation classes of the closure
    that were walked, and ``cap_exceeded`` says the class cap stopped the
    walk.  The witness names one class by its least rotation.
    """

    graph: DefiningGraph
    g: Word
    n: int
    representatives_checked: int
    max_overlap_length: int
    witness: Optional[Witness]
    bound: Fraction
    violated: bool
    cap_exceeded: bool = False
    mode: str = "disjoint"

    @property
    def ok(self) -> bool:
        return not self.violated and not self.cap_exceeded

    def to_json_dict(self) -> dict:
        return {
            "graph": self.graph.to_json_dict(),
            "g": self.g.display(),
            "n": self.n,
            "representatives_checked": self.representatives_checked,
            "max_overlap_length": self.max_overlap_length,
            "witness": None if self.witness is None else self.witness.to_json_dict(),
            "bound": f"{self.bound.numerator}/{self.bound.denominator}",
            "violated": self.violated,
            "cap_exceeded": self.cap_exceeded,
            "mode": self.mode,
        }


def core_of_power(g: Word, n: int) -> CyclicWord:
    """The cyclically reduced core of ``g**n`` as a cyclic word."""
    core = cyclically_reduce(g).core
    return CyclicWord(normal_form(power(core, n)))


def verify_key_lemma(
    g: Word,
    n_max: int = 4,
    reps_cap: int = DEFAULT_REPS_CAP,
    mode: str = "disjoint",
) -> list[OverlapReport]:
    """Check the overlap bound for cores of powers ``g**1 .. g**n_max``.

    For each power the rotation/swap closure of the core is enumerated, one
    least rotation per rotation class, up to ``reps_cap`` classes, and the
    maximum inverse-overlap length is compared against
    ``len(core(g**n)) / (2 n)``.  A capped enumeration is reported honestly
    via ``cap_exceeded`` rather than silently trusted.

    The bound is never reached in a free group; ``a^k b A^k B`` comes within
    one letter of it (maximum ``k``, bound ``k + 1``), so it is sharp only in
    the limit ``k -> oo``.
    """
    _check_mode(mode)
    core = cyclically_reduce(g).core
    if core.is_identity:
        raise TrivialElement("overlap bounds concern nontrivial elements only")
    graph = g.graph
    reports = []
    for n in range(1, n_max + 1):
        start = CyclicWord(normal_form(power(core, n))).canonical().codes
        best, witness, reps, capped = _closure_scan(graph, start, mode, reps_cap)
        bound = Fraction(len(start), 2 * n)
        reports.append(
            OverlapReport(
                graph=graph,
                g=g,
                n=n,
                representatives_checked=reps,
                max_overlap_length=best,
                witness=witness,
                bound=bound,
                violated=best > bound,
                cap_exceeded=capped,
                mode=mode,
            )
        )
    return reports


# ---------------------------------------------------------------------------
# projection certificates
# ---------------------------------------------------------------------------


def _support_classes(graph: DefiningGraph, support: tuple[str, ...]) -> list[tuple[tuple[str, ...], ...]]:
    """Candidate partitions of the support into mutually non-commuting classes.

    Within a class no two generators may be adjacent (otherwise a commuting
    swap could act inside the class and perturb the projection).  Such
    classes are exactly the color classes of proper colorings of the induced
    subgraph, so one candidate comes from a chromatic coloring; singletons
    always qualify; for tiny supports every valid set partition is tried.
    """
    singletons = tuple((v,) for v in support)
    candidates = [singletons]
    induced_edges = {
        frozenset((a, b)) for a, b in combinations(support, 2) if graph.adjacent(a, b)
    }
    if len(support) >= 2:
        sub = DefiningGraph(support, [tuple(sorted(e)) for e in induced_edges])
        mode = "exact" if len(support) <= 8 else "heuristic"
        _, coloring, _ = chromatic_number(sub, mode=mode)
        by_color: dict[int, list[str]] = {}
        for v in support:
            by_color.setdefault(coloring.assignment[v], []).append(v)
        chromatic = tuple(tuple(part) for part in by_color.values())
        if chromatic != singletons:
            candidates.append(chromatic)
    if 2 <= len(support) <= 5:
        candidates.extend(_all_valid_partitions(support, induced_edges))
    out = []
    seen = set()
    for cand in candidates:
        key = tuple(sorted(cand))
        if key not in seen:
            seen.add(key)
            out.append(cand)
    return out


def _all_valid_partitions(
    support: tuple[str, ...], induced_edges: set[frozenset[str]]
) -> list[tuple[tuple[str, ...], ...]]:
    results: list[tuple[tuple[str, ...], ...]] = []

    def extend(rest: list[str], parts: list[list[str]]) -> None:
        if not rest:
            results.append(tuple(tuple(p) for p in parts))
            return
        v, tail = rest[0], rest[1:]
        for p in parts:
            if all(frozenset((v, u)) not in induced_edges for u in p):
                p.append(v)
                extend(tail, parts)
                p.pop()
        parts.append([v])
        extend(tail, parts)
        parts.pop()

    extend(list(support), [])
    return results


def projection_overlap_bound(w: CyclicWord, mode: str = "disjoint") -> tuple[int, tuple[tuple[str, ...], ...]]:
    """An upper bound for the closure overlap maximum, with its certificate.

    For a partition of the support into pairwise non-commuting classes,
    deleting all letters outside one class is unaffected by commuting swaps
    and turns rotations into rotations; an overlapping pair therefore
    projects to an overlapping pair in every class, and the lengths add up.
    Summing per-class scanner maxima hence bounds the whole closure.  The
    smallest sum over candidate partitions is returned.
    """
    _check_mode(mode)
    graph = w.graph
    codes = w.canonical().codes
    gens = {c >> 1 for c in codes}
    support = tuple(v for i, v in enumerate(graph.vertices) if i in gens)
    best: Optional[int] = None
    best_partition: tuple[tuple[str, ...], ...] = ()
    for partition in _support_classes(graph, support):
        total = 0
        for part in partition:
            gens = {graph.index[v] for v in part}
            projected = bytes(c for c in codes if c >> 1 in gens)
            total += _raw_max_overlap(projected, mode)[0]
        if best is None or total < best:
            best, best_partition = total, partition
    return (0 if best is None else best), best_partition
