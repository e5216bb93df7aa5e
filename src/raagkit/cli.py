"""Command-line front end.

Every subcommand reads one graph file in the line format of
:func:`raagkit.graphs.parse_graph` (``gauss-bonnet`` reads a complex JSON
file instead), then its words in argument order, single quoted arguments in
the word syntax parsed against that graph. Any input error exits 2 with that
subcommand's usage. Exit codes: 0 success, 1 a verified property actually
failed (a violated bound, axiom, or nonzero residual), 2 usage or input errors.

``verify-overlap`` walks the rotation/swap closure of each power's core one
rotation class at a time: its ``reps=`` counts and its ``--reps-cap`` count
rotation classes.

A subcommand calls the library through the package namespace
(``raagkit.normal_form``), whose first access to a name loads its module, so
``raagkit nf`` loads ``errors``, ``graphs`` and ``words`` and nothing else.
The parser needs no raagkit module: the ``--mode`` choices are written out
here (a test holds them equal to ``overlap``'s modes), and an omitted
``--reps-cap`` is ``overlap.DEFAULT_REPS_CAP``, read when ``verify-overlap``
runs.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, TextIO

import raagkit

from .errors import RaagError

DEFAULT_SEED = 0x5C1


def _at_least(least: int):
    """An argparse ``type`` for integer flags with a least accepted value."""

    def convert(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    convert.__name__ = "int"  # argparse names the type in "invalid int value"
    return convert


def _read_input(kind: str, path: str) -> str:
    """The text of a graph or complex file; a file that cannot be read is a RaagError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise RaagError(f"cannot read {kind} file {path}: {exc.strerror}") from None
    except ValueError as exc:  # not UTF-8, or a NUL in the path
        raise RaagError(f"cannot read {kind} file {path}: {exc}") from None


def _rat(q) -> str:
    if q is None:
        return "inf"
    return str(q)


class _ParserExit(Exception):
    """What the parser would have printed before exiting: help or a usage error."""

    def __init__(self, status: int, text: str):
        super().__init__(text)
        self.status = status
        self.text = text


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises :class:`_ParserExit` instead of printing and exiting.

    It holds no stream, so one parser serves every call of :func:`run`.
    argparse builds subparsers with ``type(self)``, so they behave the same.
    """

    def print_help(self, file: Optional[TextIO] = None) -> None:
        raise _ParserExit(0, self.format_help())

    def error(self, message: str):
        raise _ParserExit(2, f"{self.format_usage()}{self.prog}: error: {message}\n")


def _add_command(sub, name: str, func, help: str, *words: str, kind: str = "graph") -> _Parser:
    """Declare a subcommand: a ``kind`` file, then the named words, parsed by ``run``.

    ``run`` calls ``func(args, out, graph, *words)`` and, after an input error, prints its usage.
    """
    p = sub.add_parser(name, help=help)
    p.add_argument(kind, metavar="complex.json" if kind == "complex" else None)
    for word in words:
        p.add_argument(word)
    p.set_defaults(func=func, parser=p, kind=kind, words=words)
    return p


def _build_parser() -> _Parser:
    parser = _Parser(prog="raagkit")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_command(sub, "nf", _cmd_nf, "normal form of a word", "word")
    _add_command(sub, "cyc", _cmd_cyc, "cyclic reduction of a word", "word")
    _add_command(sub, "eq", _cmd_eq, "decide equality of two words", "word1", "word2")

    p = _add_command(sub, "chromatic", _cmd_chromatic, "chromatic number with a coloring")
    p.add_argument("--heuristic", action="store_true")

    p = _add_command(sub, "scl-bound", _cmd_scl_bound, "certified scl lower bound", "word")
    p.add_argument("--heuristic", action="store_true")
    p.add_argument("--json", action="store_true")

    p = _add_command(
        sub, "verify-overlap", _cmd_verify_overlap,
        "overlap bound over the rotation classes of each closure", "word",
    )
    p.add_argument("--n-max", type=_at_least(1), default=4)
    p.add_argument("--reps-cap", type=_at_least(1))
    p.add_argument("--mode", choices=("disjoint", "any"), default="disjoint")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("cube", help="half-space calculus helpers")
    cube_sub = p.add_subparsers(dest="cube_command", required=True)
    _add_command(
        cube_sub, "interval", _cmd_cube_interval, "half-spaces separating two vertices", "x", "y"
    )
    _add_command(cube_sub, "median", _cmd_cube_median, "median of three vertices", "x", "y", "z")
    for name, func, help, samples in (
        ("axioms", _cmd_cube_axioms, "randomized search for forbidden configurations", 1000),
        ("chains", _cmd_cube_chains, "longest-chain midpoint property over samples", 200),
    ):
        q = _add_command(cube_sub, name, func, help)
        q.add_argument("--radius", type=_at_least(0), default=3)
        q.add_argument("--samples", type=_at_least(0), default=samples)
        q.add_argument("--seed", type=int, default=DEFAULT_SEED)

    _add_command(
        sub, "gauss-bonnet", _cmd_gauss_bonnet, "curvature residual of an angled complex",
        kind="complex",
    )
    return parser


def _cmd_nf(args, out: TextIO, graph, word) -> int:
    print(raagkit.normal_form(word).display(), file=out)
    return 0


def _cmd_cyc(args, out: TextIO, graph, word) -> int:
    reduction = raagkit.cyclically_reduce(word)
    print(f"core: {reduction.core.display()}", file=out)
    print(f"conjugator: {reduction.conjugator.display()}", file=out)
    return 0


def _cmd_eq(args, out: TextIO, graph, word1, word2) -> int:
    print("equal" if raagkit.equal(word1, word2) else "not equal", file=out)
    return 0


def _cmd_chromatic(args, out: TextIO, graph) -> int:
    k, coloring, exact = raagkit.chromatic_number(
        graph, mode="heuristic" if args.heuristic else "exact"
    )
    print(f"chromatic number: {k} ({'exact' if exact else 'heuristic'})", file=out)
    assignment = " ".join(f"{v}={coloring.assignment[v]}" for v in graph.vertices)
    print(f"coloring: {assignment}", file=out)
    return 0


def _cmd_scl_bound(args, out: TextIO, graph, word) -> int:
    cert = raagkit.scl_lower_bound(graph, word, mode="heuristic" if args.heuristic else "exact")
    if args.json:
        import json

        print(json.dumps(cert.to_json_dict()), file=out)
        return 0
    print(f"bound: {_rat(cert.bound)}", file=out)
    print(f"route: {cert.route}", file=out)
    print(f"finite: {'true' if cert.finite else 'false'}", file=out)
    if cert.coloring is not None:
        kind = "exact" if cert.exactness else "heuristic"
        print(f"colors: {cert.coloring.num_colors} ({kind})", file=out)
    print(f"triangle-free: {'true' if cert.triangle_free_witness else 'false'}", file=out)
    refs = " ".join(f"{k}={v}" for k, v in sorted(raagkit.reference_bounds().items()))
    print(f"references: {refs}", file=out)
    return 0


def _cmd_verify_overlap(args, out: TextIO, graph, word) -> int:
    cap = raagkit.overlap.DEFAULT_REPS_CAP if args.reps_cap is None else args.reps_cap
    reports = raagkit.verify_key_lemma(word, n_max=args.n_max, reps_cap=cap, mode=args.mode)
    if args.json:
        import json

        print(json.dumps([r.to_json_dict() for r in reports]), file=out)
    else:
        for r in reports:
            line = (
                f"n={r.n} reps={r.representatives_checked} "
                f"max={r.max_overlap_length} bound={_rat(r.bound)} "
                f"violated={'true' if r.violated else 'false'}"
            )
            if r.cap_exceeded:
                line += " (cap exceeded)"
            print(line, file=out)
            if r.witness is not None:
                w = r.witness
                print(
                    f"  witness: u={w.u.display()} pos={w.pos_u} "
                    f"inv_pos={w.pos_u_inv} rep={w.representative.display()}",
                    file=out,
                )
    return 1 if any(r.violated for r in reports) else 0


def _cmd_cube_interval(args, out: TextIO, graph, x, y) -> int:
    ctx = raagkit.interval(x, y)
    print(f"distance: {len(ctx)}", file=out)
    for hs in ctx.halfspaces:
        print(hs.display(), file=out)
    return 0


def _cmd_cube_median(args, out: TextIO, graph, x, y, z) -> int:
    print(raagkit.median(x, y, z).display(), file=out)
    return 0


def _print_audit(out: TextIO, report, counts: str) -> int:
    """A sampled audit's settings, counts, violations and verdict; its exit code."""
    print(f"radius: {report.radius} samples: {report.samples} seed: {report.seed}", file=out)
    print(counts, file=out)
    for violation in report.violations:
        print(f"violation: {violation}", file=out)
    print("ok" if report.ok else "FAIL", file=out)
    return 0 if report.ok else 1


def _cmd_cube_axioms(args, out: TextIO, graph) -> int:
    report = raagkit.check_special_axioms(
        graph, samples=args.samples, radius=args.radius, seed=args.seed
    )
    counts = " ".join(f"{k}={v}" for k, v in sorted(report.checked.items()))
    return _print_audit(out, report, f"checked: {counts}")


def _cmd_cube_chains(args, out: TextIO, graph) -> int:
    report = raagkit.check_max_chains(
        graph, samples=args.samples, radius=args.radius, seed=args.seed
    )
    return _print_audit(
        out, report,
        f"intervals: {report.intervals_checked} nested pairs: {report.nested_pairs} "
        f"chains: {report.chains_enumerated} midpoint pairs: {report.midpoint_pairs}",
    )


def _cmd_gauss_bonnet(args, out: TextIO, complex_) -> int:
    chi = raagkit.euler_characteristic(complex_)
    residual = raagkit.gauss_bonnet_residual(complex_)
    curvature = residual + 2 * chi
    print(
        f"vertices: {len(complex_.vertices)} edges: {len(complex_.edges)} "
        f"faces: {len(complex_.faces)} euler characteristic: {chi}",
        file=out,
    )
    print(f"curvature sum: {_rat(curvature)} (in units of pi)", file=out)
    print(f"residual: {_rat(residual)}", file=out)
    print("ok" if residual == 0 else "FAIL", file=out)
    return 0 if residual == 0 else 1


# Built once: it holds no stream and parsing never changes it.
_PARSER = _build_parser()


def run(argv: list[str], out: Optional[TextIO] = None, err: Optional[TextIO] = None) -> int:
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    try:
        args = _PARSER.parse_args(argv)
    except _ParserExit as exc:
        (out if exc.status == 0 else err).write(exc.text)
        return exc.status
    try:
        parse = raagkit.parse_complex if args.kind == "complex" else raagkit.parse_graph
        value = parse(_read_input(args.kind, getattr(args, args.kind)))
        words = [raagkit.Word.parse(value, getattr(args, name)) for name in args.words]
        return args.func(args, out, value, *words)
    except RaagError as exc:
        print(f"error: {exc}", file=err)
        err.write(args.parser.format_usage())
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
