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
class by its rotations at one letter every class holds equally often.  It
scans a class in full only where the swap that found it could lengthen an
overlap: every window that avoids the two swapped letters reads as in the
class it came from, whose maximum is already counted, and the pair
condition is symmetric, so a longer pair has its ``u`` on a swapped letter.
It skips the scanner altogether when no generator occurs with both signs;
such a walk reports only the class count and whether the cap stopped it,
which no queue order changes, so it keeps each class at the rotation it
was found at and canonicalises none.
The projection certificate tries singletons and then, on supports of up to
5 generators, every partition into independent sets, or beyond that a
chromatic coloring's classes, scanning each class once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .errors import TrivialElement, UnknownMode, _check_at_least
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
        raise UnknownMode(f"mode must be one of {_MODES}, got {mode!r}")


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


def _pair_near(codes: bytes, length: int, mode: str, t: int) -> bool:
    """Whether some ``u`` of the given length covering position t or t + 1 has a ``u^-1``.

    ``_pair_at`` restricted to the ``length + 1`` windows of ``u`` that
    cover the two cyclic positions; the ``u^-1`` window may lie anywhere.
    The loop is ``_pair_at``'s, kept apart so the full scan, which every
    projection class runs, pays no extra call.
    """
    n = len(codes)
    if length < 1 or length > n or (mode == "disjoint" and 2 * length > n):
        return False
    doubled = codes * 2
    inv = _inv_codes(doubled)
    windows = doubled[: n + length - 1]
    for k in range(min(length + 1, n)):
        i = (t - length + 1 + k) % n
        target = inv[2 * n - i - length : 2 * n - i]
        j = windows.find(target)
        while j >= 0:
            if i != j and (
                mode != "disjoint" or ((j - i) % n >= length and (i - j) % n >= length)
            ):
                return True
            j = windows.find(target, j + 1)
    return False


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

    Each queued node is a rotation class (``start`` must be its least
    rotation).  Its neighbours are the commuting swaps of two cyclically
    adjacent letters, the wrap-around pair (last, first) included; rotation
    itself is not a move.  The scanner is rotation invariant, and per-word
    lengths are downward closed, so a class holds an overlap longer than
    ``best`` exactly when it holds one of length ``best + 1``.  ``cap``
    bounds the number of classes.

    A class is scanned in full only where its swap could lengthen an
    overlap.  A class C is found from a class P, already dequeued, by one
    swap, and ``best`` is at least P's maximum.  A window that avoids both
    swapped positions reads the same letters in C as in P, and the pair
    condition and the disjointness test are symmetric in the two windows,
    so every pair of length ``best + 1`` in C, if any, can be read with its
    ``u`` window on a swapped position.  At discovery ``_pair_near`` tries
    just those ``best + 2`` windows; a class that fails has no overlap above
    ``best``, which only grows, and the full scan at dequeue runs only on
    the classes that pass and on the start.  Every other class would give
    the full scan nothing, so the maximum and the first witness, read in
    least-rotation coordinates, are those of scanning every class.

    Classes are recognised without canonicalising every neighbour.  The key
    letter ``r`` is the letter rarest in ``start`` (the least code among
    the rarest).  Swaps and rotations only permute letters, so every class
    of the closure holds ``r`` equally often; ``seen`` holds, for each
    admitted class, all its rotations that begin with ``r``, so a neighbour
    can be looked up by any one of them.

    Those rotations are kept as base-256 integers.  Every word of the walk
    has ``n`` letters, so the integer determines the word, even one that
    starts with code 0.  Each dequeued class is read once as ``R``, its
    rotation at its first ``r``; a commuting swap of letters a, b at
    offsets j, j + 1 of ``R`` adds ``(b - a) * 255`` times the place value
    of offset j + 1.  For 0 < j < n - 1 that sum is the neighbour's key,
    swapped at offsets j, j + 1.  At j = 0 the swap moves ``r`` on, and the
    sum is turned left by one letter, so the swapped offsets are n - 1, 0;
    the wrap pair j = n - 1 moves ``r`` back across the end, so ``R`` is
    turned right first and the pair swapped at offsets 0, 1.  Shifts are
    computed per swap, so no table of n integers of n bytes is built.  Only
    a new class is turned back into bytes, once, to find its ``r``s: its
    keys are turns of the neighbour's key.

    A length-1 overlap is a generator occurring with both signs, which the
    closure cannot change; when ``start`` has none no class has one, and
    the walk only counts classes.  Its report is then
    ``(0, None, min(C, cap), C > cap)`` for the C classes of the closure,
    whatever the queue order: the admitted classes stay connected, so a
    walk that stops below the cap has met every class, and one that reaches
    it meets a class it cannot admit.  Such a walk queues each class at the
    key rotation it already has.  A probing walk queues the least rotation
    and takes its neighbours in the order of its positions, tested against
    ``seen`` and then the cap, so the queue order, the witness and the
    classes a cap lets in are those of keying every class by its least
    rotation.  The least letter is the
    same in every class too, so when ``r`` is that letter the least
    rotation is the least key; otherwise it is ``_least_rotation``.  A
    walked class leaves the queue's slot empty, so the bytes kept are those
    of the frontier, beside the keys.  Returns (max, witness, classes,
    capped).
    """
    n = len(start)
    key = min(set(start), key=lambda c: (start.count(c), c))
    key_is_least = key == min(start)
    probe = _pair_at(start, 1, mode) is not None
    seen = {int.from_bytes(rot, "big") for rot in _rotations_at(start, key)}
    queue: list[Optional[bytes]] = [start]
    # the queue positions of the classes to scan in full
    flagged = {0} if probe else set()
    best = 0
    witness: Optional[Witness] = None
    capped = False
    head = 0
    nc = graph._nc_mask
    # the bit offsets of a key's second and first letters, and its n-byte mask
    second, first = 8 * (n - 2), 8 * (n - 1)
    mask = (1 << 8 * n) - 1
    while head < len(queue):
        rep = queue[head]
        # a walked class is known by its keys in seen alone; len(queue) counts it
        queue[head] = None
        if head in flagged:
            best, raw = _raw_max_overlap(rep, mode, best)
            if raw is not None:
                witness = _witness_from(graph, rep, raw)
        head += 1
        doubled = rep * 2
        p = rep.find(key)
        rotated = int.from_bytes(doubled[p : p + n], "big")
        for i in range(n):
            a, b = doubled[i], doubled[i + 1]
            if (nc[a] >> b) & 1:
                continue
            # the swap of a and b at offsets j, j + 1 of the rotation at key
            j = i - p if i >= p else i - p + n
            if j == 0:
                # key moves on: b key ..., turned left to start at key
                x = rotated + ((b - a) * 255 << second)
                x = (x << 8 | x >> first) & mask
            elif j == n - 1:
                # the wrap pair (a, key): turned right, a key ... becomes key a ...
                x = (rotated >> 8 | a << first) + ((b - a) * 255 << second)
            else:
                x = rotated + ((b - a) * 255 << 8 * (n - 2 - j))
            if x in seen:
                continue
            if len(queue) >= cap:
                capped = True
                continue
            nb = x.to_bytes(n, "big")
            keys = []
            k = nb.find(key)
            while k >= 0:
                keys.append((x << 8 * k | x >> 8 * (n - k)) & mask)
                k = nb.find(key, k + 1)
            seen.update(keys)
            if not probe:
                queue.append(nb)
                continue
            # the swapped offsets of nb are t and t + 1
            t = n - 1 if j == 0 else 0 if j == n - 1 else j
            if _pair_near(nb, best + 1, mode, t):
                flagged.add(len(queue))
            queue.append(min(keys).to_bytes(n, "big") if key_is_least else _least_rotation(nb))
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
    _check_at_least("n_max", n_max, 1)
    _check_at_least("reps_cap", reps_cap, 1)
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


def _candidate_partitions(graph: DefiningGraph, gens: list[int]) -> Iterator[tuple[int, ...]]:
    """Partitions of the support ``gens`` into independent sets, as class bitmasks.

    No two generators of a class may be adjacent (otherwise a commuting swap
    could act inside the class and perturb the projection).  Singletons come
    first.  Up to 5 generators every partition follows: each generator joins
    each earlier class it has no edge to in turn, and only then opens a
    class of its own.  Beyond that only the color classes of a chromatic
    coloring of the induced subgraph follow (exact up to 8 generators).
    """
    yield tuple(1 << v for v in gens)
    lk = graph._lk_mask
    if len(gens) > 5:
        names = [graph.vertices[v] for v in gens]
        edges = [
            (a, b) for i, a in zip(gens, names) for j, b in zip(gens, names) if i < j and lk[i] >> j & 1
        ]
        mode = "exact" if len(gens) <= 8 else "heuristic"
        _, coloring, _ = chromatic_number(DefiningGraph(names, edges), mode=mode)
        classes: dict[int, int] = {}
        for v, name in zip(gens, names):
            color = coloring.assignment[name]
            classes[color] = classes.get(color, 0) | 1 << v
        yield tuple(classes.values())
        return

    def extend(pos: int, classes: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if pos == len(gens):
            yield classes
            return
        v = gens[pos]
        for k, cls in enumerate(classes):
            if not lk[v] & cls:
                yield from extend(pos + 1, classes[:k] + (cls | 1 << v,) + classes[k + 1 :])
        yield from extend(pos + 1, classes + (1 << v,))

    yield from extend(0, ())


def projection_overlap_bound(w: CyclicWord, mode: str = "disjoint") -> tuple[int, tuple[tuple[str, ...], ...]]:
    """An upper bound for the closure overlap maximum, with its certificate.

    For a partition of the support into pairwise non-commuting classes,
    deleting all letters outside one class is unaffected by commuting swaps
    and turns rotations into rotations; an overlapping pair therefore
    projects to an overlapping pair in every class, and the lengths add up.
    Summing per-class scanner maxima hence bounds the whole closure.  The
    first of the candidate partitions with the smallest sum is returned,
    its classes ordered by their first member; each class is scanned once.
    """
    _check_mode(mode)
    graph = w.graph
    codes = w.canonical().codes
    gens = sorted({c >> 1 for c in codes})
    scores: dict[int, int] = {}

    def score(cls: int) -> int:
        if cls not in scores:
            scores[cls] = _raw_max_overlap(bytes(c for c in codes if cls >> (c >> 1) & 1), mode)[0]
        return scores[cls]

    best, partition = min(
        ((sum(map(score, p)), p) for p in _candidate_partitions(graph, gens)), key=lambda t: t[0]
    )
    return best, tuple(
        tuple(graph.vertices[v] for v in gens if cls >> v & 1)
        for cls in sorted(partition, key=lambda cls: cls & -cls)
    )
