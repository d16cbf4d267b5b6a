"""Command-line front end: every subsystem behind one `brauer` entry point.

Exit codes: 0 all checks pass / output produced, 1 a check failed, 2 usage
error, 141 (128 + SIGPIPE, as a shell reports a pipe writer killed by that
signal) stdout closed before the output was written, as by `| head`; then
nothing is printed to stderr.  Each subcommand takes only the options it
reads.  `--seed` is taken by the three commands that draw random numbers,
`oracle`, `affine check` and `verify-all`, and fixes their randomized
suites, making runs reproducible from their flag set.  Without it the
BRAUER_SEED environment variable is used, and without either the library's
default seed; a non-integer BRAUER_SEED is a usage error of those three
commands.  `--format table` is taken, and is the default, where a table
layout exists (`shapes`, `paths`, `central` and `verify-all`); every other
command prints JSON only.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys
import time
from fractions import Fraction

from . import affine, repform, shapes, verify
from .coeffs import format_rational
from .diagrams import element_to_json, evaluate_side, verify_presentation
from .shapes import parse_partition


def _rational(text: str) -> Fraction:
    """argparse type for --N: a bad rational is a usage error (exit 2)."""
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"bad rational {text!r}: zero denominator")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad rational {text!r}: {exc}")


def _integer(text: str) -> int:
    """argparse type for --N where only a positive integer level makes sense."""
    value = _rational(text)
    if value.denominator != 1:
        raise argparse.ArgumentTypeError(f"N must be an integer here, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return int(value)


def _int_at_least(low: int):
    """argparse type for an integer option that must be at least `low`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _partition(text: str) -> shapes.Diagram:
    """argparse type for --lambda and --mu: comma-separated parts, weakly
    decreasing and positive; "" or "0" is the empty diagram."""
    try:
        return parse_partition(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _generator_word(text: str) -> list[affine.Atom]:
    """argparse type for `mult --word`: s<k> and sbar<k> tokens only."""
    try:
        atoms = affine.parse_word(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    bad = [a for a in atoms if a[0] not in ("s", "sbar")]
    if bad:
        raise argparse.ArgumentTypeError(f"mult takes diagram generators only, got {bad}")
    return atoms


def _emit(data, fmt: str, table_fn=None):
    """Print data as JSON, or through table_fn for `--format table`, which
    only the commands with a table layout take."""
    if fmt == "table":
        table_fn(data)
    else:
        # written chunk by chunk, so no copy of the whole text is held
        json.dump(data, sys.stdout, indent=2, default=str)
        sys.stdout.write("\n")


def cmd_mult(args) -> int:
    _emit(element_to_json(evaluate_side([(1, tuple(args.word))], args.n)), args.format)
    return 0


def cmd_relations(args) -> int:
    report = verify_presentation(args.n, max_cases=args.max_cases)
    _emit(report, args.format)
    return 0 if report["all_ok"] else 1


def cmd_shapes(args) -> int:
    N = args.N
    counts = shapes.path_counts(args.n, N)
    data = [{"diagram": list(lam), "paths": counts[lam]} for lam in sorted(counts)]

    def table(rows):
        print(f"O({args.n}, {N}):")
        for row in rows:
            print(f"  {str(row['diagram']):20s} paths: {row['paths']}")

    _emit(data, args.format, table)
    return 0


# `rep` prints 3n - 2 dense matrices of d^2 entries for its d paths (README).
# It multiplies out 10n - 15 of its 13n - 18 near relations, takes the other
# 3(n - 1) as their transposes, and checks the far ones in time linear in its
# entries (the `repform` docstring), so n is bounded only by the paths
# bound, `shapes.PATHS_MAX_PARTS`.
REP_MAX_ENTRIES = 10**7


def cmd_paths(args) -> int:
    def table(rows):
        for i, p in enumerate(rows):
            print(f"{i}: " + " -> ".join(str(step) for step in p))

    _emit(shapes.enumerate_paths(args.lam, args.n, args.N), args.format, table)
    return 0


def cmd_rep(args) -> int:
    n, N = args.n, args.N
    d = shapes.path_count(args.lam, n, repform.walk_level(args.lam, n, N))
    if (3 * n - 2) * d * d > REP_MAX_ENTRIES:
        raise ValueError(f"rep takes (3n-2) d^2 <= {REP_MAX_ENTRIES} for d paths, got d={d}, n={n}")
    rep = repform.build_representation(args.lam, n, N)
    _emit(repform.representation_to_json(rep), args.format)
    return 0


# The highest --order that `central` takes: its series products take time a
# little over quadratic in it, 2.4 s at order 500 and 11 s at order 1000 for
# mu = (3, 2, 1), N = 7 (README).
CENTRAL_MAX_ORDER = 500


def cmd_central(args) -> int:
    if args.order > CENTRAL_MAX_ORDER:
        raise ValueError(f"central takes --order <= {CENTRAL_MAX_ORDER}, got {args.order}")
    pair = repform.central_series(args.mu, args.N, args.order)
    data = {
        "mu": list(args.mu),
        "N": format_rational(pair.N),
        "order": args.order,
        "Q": [format_rational(c) for c in pair.Q],
        "Z": [format_rational(c) for c in pair.Z],
    }

    def table(d):
        print(f"Q({d['mu']}, u) coefficients: {d['Q']}")
        print(f"Z({d['mu']}, u) coefficients: {d['Z']}")

    _emit(data, args.format, table)
    return 0


ORACLE_SUITES = ("hom", "rank", "casimir", "spectrum")
# The largest N^n, the dimension of the tensor space, that `oracle` takes: the
# top of criterion 6's grid.  The casimir suite's arrays grow as n (N-1) N^n,
# 1.5 GB at n = 1, N = 4096.  README lists the measurements behind both bounds.
ORACLE_MAX_DIM = 4096
# The most strands `oracle` takes: `tensor` indexes the tensor space by numpy
# arrays with n + 1 axes, and numpy allows 64.  It bounds N = 1, where N^n does not.
ORACLE_MAX_N = 63
# The largest (2n-1)!! N^n that the rank suite takes: the ones of the matrix it
# eliminates, (2n-1)!! diagrams of N^n ones each.
ORACLE_MAX_RANK_ONES = 10**6


def _exceeds_bounds(n: int, N: int, rank: bool) -> str | None:
    """Why `oracle` refuses n and N, or None; no power or product is taken
    far past its bound."""
    # N >= 2 makes N^n >= 2^n, so a large n is refused before its power is taken
    if N > 1 and (n >= ORACLE_MAX_DIM.bit_length() or N**n > ORACLE_MAX_DIM):
        return f"oracle takes N^n <= {ORACLE_MAX_DIM}, got n={n}, N={N}"
    if n > ORACLE_MAX_N:
        return f"oracle takes n <= {ORACLE_MAX_N} (numpy arrays have at most 64 axes), got n={n}"
    if rank:
        ones = N**n
        for k in range(3, 2 * n, 2):
            ones *= k
            if ones > ORACLE_MAX_RANK_ONES:
                return f"the rank suite takes (2n-1)!! N^n <= {ORACLE_MAX_RANK_ONES}, got n={n}, N={N}"
    return None


def cmd_oracle(args) -> int:
    refusal = _exceeds_bounds(args.n, args.N, args.suite in ("all", "rank"))
    if refusal is not None:
        raise ValueError(refusal)
    from . import tensor  # numpy and scipy load only where the oracle runs

    rng = random.Random(args.seed)
    suites = ORACLE_SUITES if args.suite == "all" else (args.suite,)
    report = []
    ok = True
    for suite in suites:
        t0 = time.perf_counter()
        if suite == "hom":
            r = tensor.verify_homomorphism(args.n, args.N, args.trials, rng)
            entry = {"suite": "hom", "ok": r["ok"], "checked": r["checked"]}
        elif suite == "rank":
            r = tensor.rank_check(args.n, args.N)
            entry = {"suite": "rank", "ok": r["ok"], "rank": r["rank"], "expected": r["expected"]}
        elif suite == "casimir":
            r = tensor.casimir_check(args.n, args.N)
            entry = {"suite": "casimir", "ok": r["ok"], "checked": r["checked"]}
        else:  # spectrum: argparse's choices admit no other suite
            entry = {"suite": "spectrum", "ok": True}
            for k in range(1, args.n + 1):
                r = tensor.spectrum_annihilation_check(k, args.n, args.N)
                entry["ok"] = entry["ok"] and r["ok"]
        entry["seconds"] = round(time.perf_counter() - t0, 3)
        ok = ok and entry["ok"]
        report.append(entry)
    _emit(report, args.format)
    return 0 if ok else 1


def cmd_affine_nf(args) -> int:
    atoms = affine.parse_word(args.word)
    nf = affine.from_word(atoms, args.n)
    _emit(affine.element_to_json(nf), args.format)
    return 0


def cmd_affine_check(args) -> int:
    suites = tuple(verify.AFFINE_SUITES) if args.suite == "all" else (args.suite,)
    rep = verify.criterion_8_affine(seed=args.seed, suites=suites)
    _emit({"ok": rep["ok"], "seconds": rep["seconds"], **rep["details"]}, args.format)
    return 0 if rep["ok"] else 1


def cmd_verify_all(args) -> int:
    reports = verify.run_all(seed=args.seed, stats=args.stats)

    def table(rows):
        for r in rows:
            status = "PASS" if r["ok"] else "FAIL"
            rss = f"  peak RSS {r['peak_rss_mb']} MB" if "peak_rss_mb" in r else ""
            print(f"{status}  criterion {r['criterion']:20s} ({r['seconds']}s){rss}")
            for name, c in r.get("memos", {}).items():
                print(f"      {name:32s} hits {c['hits']:>8}  misses {c['misses']:>8}")

    _emit(reports, args.format, table)
    return 0 if all(r["ok"] for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brauer",
        description="Exact computations in the Brauer centralizer algebra and its affine extension.",
    )
    # each subcommand takes the parents of the options it reads
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=None, help="seed for randomized suites")
    tabular = argparse.ArgumentParser(add_help=False)
    tabular.add_argument("--format", choices=("json", "table"), default="table")
    json_only = argparse.ArgumentParser(add_help=False)
    json_only.add_argument("--format", choices=("json",), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mult", parents=[json_only], help="multiply diagram generators")
    p.add_argument("--n", type=_int_at_least(0), required=True)
    p.add_argument("--word", required=True, type=_generator_word, help='e.g. "s1 sbar2 s1"')
    p.set_defaults(fn=cmd_mult)

    p = sub.add_parser("relations", parents=[json_only], help="check the defining relations symbolically")
    p.add_argument("--n", type=_int_at_least(2), required=True)
    p.add_argument("--max-cases", type=_int_at_least(0), default=None)
    p.set_defaults(fn=cmd_relations)

    p = sub.add_parser("shapes", parents=[tabular], help="list O(n, N) with path counts")
    p.add_argument("--n", type=_int_at_least(0), required=True)
    p.add_argument("--N", required=True, type=_integer)
    p.set_defaults(fn=cmd_shapes)

    p = sub.add_parser("paths", parents=[tabular], help="list up-down paths to a diagram")
    p.add_argument("--lambda", dest="lam", required=True, type=_partition, help='comma list, "" for empty')
    p.add_argument("--n", type=_int_at_least(0), required=True)
    p.add_argument("--N", required=True, type=_integer)
    p.set_defaults(fn=cmd_paths)

    p = sub.add_parser("rep", parents=[json_only], help="build a representation in orthogonal form")
    p.add_argument("--lambda", dest="lam", required=True, type=_partition)
    p.add_argument("--n", type=_int_at_least(0), required=True)
    p.add_argument("--N", required=True, type=_rational, help="integer or p/q")
    p.set_defaults(fn=cmd_rep)

    p = sub.add_parser("central", parents=[tabular], help="central series Z and Q coefficients")
    p.add_argument("--mu", required=True, type=_partition)
    p.add_argument("--N", required=True, type=_rational)
    p.add_argument("--order", type=_int_at_least(0), default=8)
    p.set_defaults(fn=cmd_central)

    p = sub.add_parser("oracle", parents=[seeded, json_only], help="tensor-action oracle suite")
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--N", type=_int_at_least(1), required=True)
    p.add_argument("--suite", default="all", choices=("all", *ORACLE_SUITES))
    p.add_argument(
        "--trials",
        type=_int_at_least(0),
        default=100,
        help="random diagram pairs of the hom suite; casimir and spectrum are full matrix identities and draw nothing",
    )
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("affine", help="affine algebra operations")
    asub = p.add_subparsers(dest="affine_command", required=True)
    q = asub.add_parser("nf", parents=[json_only], help="normal form of a generator word")
    q.add_argument("--n", type=_int_at_least(0), required=True)
    q.add_argument("--word", required=True, help='e.g. "s1 y1 y1 sbar1"')
    q.set_defaults(fn=cmd_affine_nf)
    q = asub.add_parser("check", parents=[seeded, json_only], help="run the affine property suites")
    q.add_argument("--suite", default="all", choices=("all", *verify.AFFINE_SUITES))
    q.set_defaults(fn=cmd_affine_check)

    p = sub.add_parser("verify-all", parents=[seeded, tabular], help="run every acceptance criterion")
    p.add_argument(
        "--stats",
        action="store_true",
        help="also report each criterion's memo hits and misses, its near-relation and product counts, and the peak RSS after it",
    )
    p.set_defaults(fn=cmd_verify_all)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    # argparse reads a token such as -5/3 as an option, not as the value of
    # --N, so the two are joined into --N=-5/3
    joined: list[str] = []
    for token in sys.argv[1:] if argv is None else argv:
        if joined and joined[-1] == "--N" and re.fullmatch(r"-\d+/\d+", token):
            joined[-1] = f"--N={token}"
        else:
            joined.append(token)
    args = parser.parse_args(joined)
    try:
        if "seed" in args:
            args.seed = verify._seed(args.seed)
        code = args.fn(args)
        sys.stdout.flush()  # inside the try: a closed stdout raises here
        return code
    except ValueError as exc:  # RepresentationError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull, so that the
        # interpreter's final flush of what is still buffered stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
