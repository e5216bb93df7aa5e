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
enumerating it.
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
    cyclically_reduce,
    normal_form,
    power,
    reduce,
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
    occ: dict[bytes, list[int]] = {}
    for j in range(n):
        occ.setdefault(doubled[j : j + length], []).append(j)
    for i in range(n):
        hits = occ.get(inv[2 * n - i - length : 2 * n - i])
        if not hits:
            continue
        for j in hits:
            if mode == "disjoint" and ((j - i) % n < length or (i - j) % n < length):
                continue
            if i == j:
                continue
            return i, j
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

    Each node is a rotation class, stored as its least rotation (``start``
    must be one).  Its neighbours are the commuting swaps of two cyclically
    adjacent letters, the wrap-around pair (last, first) included, each
    brought back to its least rotation; rotation itself is not a move.  The
    scanner is rotation invariant, so one probe per class, one length above
    the current best, sees the whole closure (per-word lengths are downward
    closed, so nothing is missed).  ``cap`` bounds the number of classes.
    Returns (max, witness, classes, capped).
    """
    seen = {start}
    queue = [start]
    best = 0
    witness: Optional[Witness] = None
    capped = False
    head = 0
    nc = graph._nc_mask
    while head < len(queue):
        rep = queue[head]
        head += 1
        best, raw = _raw_max_overlap(rep, mode, best)
        if raw is not None:
            witness = _witness_from(graph, rep, raw)
        n = len(rep)
        for i in range(n):
            j = (i + 1) % n
            if (nc[rep[i]] >> rep[j]) & 1:
                continue
            swapped = bytearray(rep)
            swapped[i], swapped[j] = rep[j], rep[i]
            nb = _least_rotation(bytes(swapped))
            if nb in seen:
                continue
            if len(seen) >= cap:
                capped = True
                continue
            seen.add(nb)
            queue.append(nb)
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
    if reduce(g).is_identity:
        raise TrivialElement("overlap bounds concern nontrivial elements only")
    graph = g.graph
    reports = []
    for n in range(1, n_max + 1):
        w = core_of_power(g, n)
        start = w.canonical().codes
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
    support = tuple(v for v in graph.vertices if any(c >> 1 == graph.index[v] for c in codes))
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
