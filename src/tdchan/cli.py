"""Command line front end.

Subcommands
-----------
apply        apply the channel to a density matrix read from JSON
spectrum     closed-form two-copy spectrum vs dense diagonalization
entropy      S1/S2 split of the two-copy output entropy
min-entropy  single-copy minimum output entropy vs its closed form
additivity   two-copy minimum entropy certificate over a t grid
schur-scan   Schur criterion scan for the secular symmetric polynomials
verify       inequality scans; --kind all runs every family

Exit codes: 0 success, 1 a checked quantity violated its tolerance,
2 usage or parse error, 3 input validation error, 4 internal failure
(any error outside the package's validation errors).

Output is deterministic for a fixed seed: scan sampling uses
counter-based streams, one per cell, the batches of cells do not depend
on --threads, and a batch gives each cell the bits it gets alone, so
neither --threads nor the batching changes the bytes printed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import serialize
from .channel import apply, new_channel, t_range
from .entropy import (
    OptimizerConfig,
    additivity_gap,
    entropy_split,
    min_entropy_closed_form,
    min_output_entropy,
)
from .errors import ConfigError, TdchanError
from .spectrum import SchmidtVector, full_spectrum, sigma12
from .verification import SCAN_KINDS, _check_t_points, run_scan

LN2 = float(np.log(2.0))


def _parse_int_range(text: str) -> list[int]:
    """'3' -> [3]; '3:6' -> [3, 4, 5, 6] (inclusive)."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return [int(parts[0])]
        if len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
            if hi < lo:
                raise ValueError
            return list(range(lo, hi + 1))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected D or LO:HI, got {text!r}")


def _parse_t_grid(text: str) -> tuple[float, float, int]:
    """'a:b:steps' -> (a, b, steps); a bare float t -> (t, t, 1).

    Nothing is built here: _t_values checks the size and builds the grid.
    """
    parts = text.split(":")
    try:
        if len(parts) == 1:
            t = float(text)
            return t, t, 1
        if len(parts) == 3:
            a, b, steps = float(parts[0]), float(parts[1]), int(parts[2])
            if steps < 2:
                raise ValueError
            return a, b, steps
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected T or A:B:STEPS, got {text!r}")


def _t_values(grid: tuple[float, float, int]) -> np.ndarray:
    """The values of a _parse_t_grid result: [t] for one value, else linspace(a, b, steps).

    _check_t_points rejects an oversized step count before anything is built.
    """
    a, b, steps = grid
    _check_t_points(steps)
    return np.array([a]) if steps == 1 else np.linspace(a, b, steps)


def _parse_lambda(text: str) -> np.ndarray:
    try:
        return np.array([float(x) for x in text.split(",")])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated reals, got {text!r}")


def _common_flags(
    p: argparse.ArgumentParser, *, seed=False, threads=False, log_base=False, tol=False
) -> None:
    """--format on every subcommand; each other flag only where it is read."""
    if seed:
        p.add_argument("--seed", type=int, default=0, help="base RNG seed, in [0, 2^64) (default 0)")
    if threads:
        p.add_argument(
            "--threads",
            type=int,
            default=None,
            metavar="N",
            help="at most N worker threads; default TDCHAN_THREADS or the CPUs this process may use",
        )
    if log_base:
        p.add_argument("--log-base", choices=("e", "2"), default="e", help="entropy unit")
    if tol:
        p.add_argument("--tol", type=float, default=None, help="override the check tolerance")
    p.add_argument("--format", choices=("json", "csv", "text"), default="json")


def _resolve_tol(value: float | None, default: float) -> float:
    """--tol if given, else the subcommand's default; NaN and +-inf exit 3.

    A comparison with NaN is always false, so a NaN tolerance would turn
    the check off.  Negative values keep their meaning: no result meets
    them.
    """
    if value is None:
        return default
    if not math.isfinite(value):
        raise ConfigError(f"--tol must be finite, got {value}")
    return value


def _resolve_threads(value: int | None) -> int:
    """--threads, else TDCHAN_THREADS, else the number of CPUs this process may run on.

    A --threads below 1, or a TDCHAN_THREADS that is not a positive
    integer, exits 3; an empty TDCHAN_THREADS counts as unset.
    """
    if value is not None:
        if value < 1:
            raise ConfigError(f"--threads must be >= 1, got {value}")
        return value
    env = os.environ.get("TDCHAN_THREADS")
    if not env:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    if not env.isdecimal() or int(env) < 1:
        raise ConfigError(f"TDCHAN_THREADS must be a positive integer, got {env!r}")
    return int(env)


def _scale(value: float | None, base: str) -> float | None:
    if value is None:
        return None
    return value / LN2 if base == "2" else value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tdchan", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("apply", help="apply the channel to a JSON density matrix")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--input", required=True, help="JSON file, or - for stdin")
    _common_flags(p)

    p = sub.add_parser("spectrum", help="two-copy spectrum for Schmidt coefficients")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=_parse_lambda, required=True)
    _common_flags(p, tol=True)

    p = sub.add_parser("entropy", help="S1/S2 entropy split of the two-copy output")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=_parse_lambda, required=True)
    _common_flags(p, log_base=True)

    p = sub.add_parser("min-entropy", help="minimum output entropy, sampled vs exact")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument(
        "--restarts",
        type=int,
        default=50,
        help="random unit vectors to try, >= 0; 0 still tries one"
        " (the name is kept for compatibility: nothing restarts)",
    )
    _common_flags(p, seed=True, log_base=True, tol=True)

    p = sub.add_parser("additivity", help="two-copy additivity certificate")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--t", type=_parse_t_grid, default=None, help="T or A:B:STEPS")
    p.add_argument(
        "--restarts",
        type=int,
        default=50,
        help="random simplex rows probed, >= 0, besides the vertices, the barycenter and the lattice"
        " (the name is kept for compatibility: nothing restarts)",
    )
    p.add_argument(
        "--n-random", type=int, default=200, help="Haar-random two-copy states, >= 0; 0 still draws one"
    )
    _common_flags(p, seed=True, log_base=True, tol=True)

    p = sub.add_parser("schur-scan", help="Schur criterion scan")
    p.add_argument("--d", type=_parse_int_range, required=True, help="D or LO:HI")
    p.add_argument("--t-grid", type=_parse_t_grid, default=None)
    p.add_argument("--samples", type=int, default=1000)
    _common_flags(p, seed=True, threads=True)
    p.set_defaults(kind="schur")

    p = sub.add_parser("verify", help="inequality scans")
    kinds = [k.replace("_", "-") for k in SCAN_KINDS] + ["all"]
    p.add_argument("--kind", choices=kinds, required=True)
    p.add_argument("--d", type=_parse_int_range, required=True, help="D or LO:HI")
    p.add_argument("--t-grid", type=_parse_t_grid, default=None)
    p.add_argument("--samples", type=int, default=1000)
    _common_flags(p, seed=True, threads=True)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), once per process: parsing leaves a parser unchanged.

    Defaults that depend on the environment, such as TDCHAN_THREADS, are
    read when a command runs, not here.
    """
    return build_parser()


def _emit(fmt: str, obj, header: list[str] | None = None, rows: list[list] | None = None) -> None:
    """Print obj as JSON, or header and rows as a CSV or text table.

    A list prints one item per JSON line.  Without header and rows, obj
    is a record (a dict) or a list of records, and their keys head the
    table.
    """
    if fmt == "json":
        if isinstance(obj, list):
            print("[\n" + ",\n".join("  " + serialize.to_json(item) for item in obj) + "\n]")
        else:
            print(serialize.to_json(obj))
        return
    if header is None:
        records = obj if isinstance(obj, list) else [obj]
        header, rows = list(records[0]), [list(r.values()) for r in records]
    table = serialize.rows_to_csv if fmt == "csv" else serialize.rows_to_table
    sys.stdout.write(table(header, rows))


def _cmd_apply(args) -> int:
    ch = new_channel(args.d, args.t)
    try:
        if args.input == "-":
            if sys.stdin is None:  # the process was started with stdin closed
                raise OSError("standard input is closed")
            text = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return 2
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        print(f"error: bad JSON input: {exc}", file=sys.stderr)
        return 2
    out = apply(ch, serialize.density_from_obj(obj))
    rows = [[i, j, x.real, x.imag] for i, row in enumerate(out.mat) for j, x in enumerate(row)]
    _emit(args.format, serialize.density_to_obj(out), ["row", "col", "re", "im"], rows)
    return 0


def _cmd_spectrum(args) -> int:
    tol = _resolve_tol(args.tol, 1e-9)
    ch = new_channel(args.d, args.t)
    lam = SchmidtVector(args.lam)
    spec = full_spectrum(ch, lam)
    dense = np.sort(sigma12(ch, lam).eigenvalues)[::-1]
    delta = float(np.max(np.abs(spec.all_eigenvalues() - dense)))
    result = {
        "offdiag": [float(x) for x in spec.offdiag],
        "secular": [float(x) for x in spec.secular],
        "dense_delta": delta,
    }
    rows = [["offdiag", i, x] for i, x in enumerate(result["offdiag"])]
    rows += [["secular", i, x] for i, x in enumerate(result["secular"])]
    _emit(args.format, result, ["family", "index", "value"], rows + [["dense_delta", "", delta]])
    return 1 if delta > tol else 0


def _cmd_entropy(args) -> int:
    ch = new_channel(args.d, args.t)
    rep = entropy_split(ch, SchmidtVector(args.lam))
    result = {
        "s_total": _scale(rep.s_total, args.log_base),
        "s1": _scale(rep.s1, args.log_base),
        "s2": _scale(rep.s2, args.log_base),
        "c": rep.c,
    }
    _emit(args.format, result)
    return 0


def _cmd_min_entropy(args) -> int:
    tol = _resolve_tol(args.tol, 1e-6)
    ch = new_channel(args.d, args.t)
    cfg = OptimizerConfig(restarts=args.restarts, seed=args.seed)
    h, argmin = min_output_entropy(ch, cfg)
    exact = min_entropy_closed_form(ch)
    result = {
        "h": _scale(h, args.log_base),
        "h_closed_form": _scale(exact, args.log_base),
        "argmin_re": [float(x) for x in np.real(argmin)],
        "argmin_im": [float(x) for x in np.imag(argmin)],
    }
    _emit(args.format, result)
    return 1 if abs(h - exact) > tol else 0


def _cmd_additivity(args) -> int:
    tol = _resolve_tol(args.tol, 1e-6)
    lo, hi = t_range(args.d)
    grid = _t_values(args.t) if args.t is not None else np.linspace(lo, hi, 9)
    # Every t is checked before the first cell runs.
    channels = [new_channel(args.d, t) for t in grid]
    cfg = OptimizerConfig(restarts=args.restarts, n_random=args.n_random, seed=args.seed)
    rows = []
    worst = np.inf
    for t, ch in zip(grid, channels):
        gap, min_simplex, min_random = additivity_gap(ch, cfg)
        worst = min(worst, gap)
        rows.append(
            {
                "t": float(t),
                "h": _scale(min_entropy_closed_form(ch), args.log_base),
                "min_simplex": _scale(min_simplex, args.log_base),
                "min_random": _scale(min_random, args.log_base),
                "gap": _scale(gap, args.log_base),
            }
        )
    _emit(args.format, rows)
    return 1 if worst < -tol else 0


def _cmd_verify(args) -> int:
    threads = _resolve_threads(args.threads)
    t_grid = None
    if args.t_grid is not None:
        t_grid = _t_values(args.t_grid)
    kinds = SCAN_KINDS if args.kind == "all" else [args.kind.replace("-", "_")]
    reports = []
    for kind in kinds:
        reports += run_scan(
            kind, args.d, t_grid=t_grid, samples=args.samples, seed=args.seed, threads=threads
        )
    header = ["kind", "d", "t", "k_values", "samples", "violations", "worst_margin", "seed"]
    rows = [
        [r.kind, r.d, r.t_values[0], r.k_values, r.samples, r.violations, r.worst_margin, r.seed]
        for r in reports
    ]
    _emit(args.format, [r.as_dict() for r in reports], header, rows)
    return 1 if any(r.violations for r in reports) else 0


def _one_line(exc: Exception) -> str:
    return " ".join(str(exc).split())


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handlers = {
        "apply": _cmd_apply,
        "spectrum": _cmd_spectrum,
        "entropy": _cmd_entropy,
        "min-entropy": _cmd_min_entropy,
        "additivity": _cmd_additivity,
        "schur-scan": _cmd_verify,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except TdchanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"error: internal failure: {type(exc).__name__}: {_one_line(exc)}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
