"""Command-line interface.

Each solver run becomes one record, the dict ``_record`` returns: ``solve``
and ``bench`` print it as JSON, and every table prints it as one ``_row``.

Exit codes: 0 success, 2 input error, 3 non-convergence, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

from . import catalog
from .embedding import embedded_to_json, sym_embed
from .entanglement import RENORM_TOLERANCE, PureState, gme_from_lambda
from .oracle import evaluate_oracles
from .solvers import ALGORITHMS, SolverConfig, SolverError, multi_start
from .tensor import ComplexTensor, norm, tensor_from_json, tensor_to_json

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_CONVERGENCE = 3
EXIT_NUMERICAL = 4

_ALGO_FLAGS = {a.replace("_", "-"): a for a in ALGORITHMS}
_DEFAULTS = SolverConfig()


class InputError(Exception):
    pass


def _add_input_args(parser: argparse.ArgumentParser):
    src = parser.add_mutually_exclusive_group(required=True)
    src.add_argument("--file", help="tensor JSON file")
    src.add_argument("--catalog", help="catalog id (see 'ueigen catalog list')")


def _add_solver_args(parser: argparse.ArgumentParser):
    default_algo = _DEFAULTS.algorithm.replace("_", "-")
    parser.add_argument("--algo", default=default_algo, choices=sorted(_ALGO_FLAGS))
    parser.add_argument(
        "--alpha", type=float, default=_DEFAULTS.alpha,
        help="positive initial shift scale c: the shift is c*m*|lambda|^2 "
        "for joint and embed (m the order), and a start doubles its c "
        "whenever |lambda| falls; Gauss-Seidel takes no shift",
    )
    parser.add_argument("--tol", type=float, default=_DEFAULTS.tol)
    parser.add_argument("--max-iter", type=int, default=_DEFAULTS.max_iter)
    parser.add_argument("--starts", type=int, default=_DEFAULTS.starts)
    parser.add_argument("--seed", type=int, default=_DEFAULTS.seed)


def _catalog_tensor(catalog_id: str) -> ComplexTensor:
    try:
        built = catalog.build(catalog_id)
    except KeyError as exc:
        raise InputError(str(exc)) from None
    return built.tensor if isinstance(built, PureState) else built


def _load_tensor(args) -> tuple[ComplexTensor, str]:
    if args.catalog:
        return _catalog_tensor(args.catalog), args.catalog
    path = args.file
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    try:
        return tensor_from_json(obj), path
    except (ValueError, KeyError, TypeError) as exc:
        raise InputError(f"{path}: invalid tensor JSON: {exc}") from None


def _config(args, name: str) -> SolverConfig:
    """``SolverConfig()`` for algorithm flag ``name``, with the solver flags
    that ``args`` defines applied."""
    fields = {f.name for f in dataclasses.fields(SolverConfig)}
    flags = {k: v for k, v in vars(args).items() if k in fields}
    return SolverConfig(**{**flags, "algorithm": _ALGO_FLAGS[name]})


def _comma_list(flag: str, text: str, noun: str, choices, convert) -> list:
    """The items of ``flag``'s comma-separated ``text``, each ``convert``ed,
    in ``choices`` and named once; anything else is an ``InputError``."""
    items = []
    for part in filter(None, (p.strip() for p in text.split(","))):
        try:
            item = convert(part)
        except ValueError:
            item = part
        if item not in choices:
            raise InputError(f"{flag} names unknown {noun} {part!r}; choose from {sorted(choices)}")
        if item in items:
            raise InputError(f"{flag} names {noun} {item!r} more than once")
        items.append(item)
    if not items:
        raise InputError(f"{flag} names no {noun}: {text!r}")
    return items


def _gme_if_state(tensor: ComplexTensor, eigenvalue: float) -> float | None:
    """GME when ``tensor`` is a unit-norm state, else None. An eigenvalue
    above 1 on a state is a solver fault and raises ``SolverError``."""
    if abs(norm(tensor) - 1.0) > RENORM_TOLERANCE:
        return None
    try:
        return gme_from_lambda(eigenvalue)
    except ValueError as exc:
        raise SolverError(str(exc)) from None


def _record(tensor: ComplexTensor, cfg: SolverConfig) -> dict:
    """The result record of ``multi_start``'s best start; only the solve is timed."""
    t0 = time.perf_counter()
    result = multi_start(tensor, cfg)
    seconds = time.perf_counter() - t0
    best = result.best
    return {
        "lambda": best.eigenvalue,
        "gme": _gme_if_state(tensor, best.eigenvalue),
        "factors": [
            [{"re": float(z.real), "im": float(z.imag)} for z in vec]
            for vec in best.factors.vectors
        ],
        "residual": best.residual,
        "iterations": best.iterations,
        "status": best.trace.status,
        "algorithm": cfg.algorithm,
        "seed": cfg.seed,
        "failed_starts": [r.index for r in result.failures],
        "timing": {"seconds": seconds},
    }


_HEADER = (
    f"{'Algorithm':<14}{'lambda':>10}{'GME':>10}{'residual':>11}"
    f"{'iters':>8}{'status':>18}{'time(s)':>10}"
)


def _row(name: str, record: dict) -> str:
    """One table line of ``record`` under ``_HEADER``."""
    gme = "-" if record["gme"] is None else f"{record['gme']:.4f}"
    return (
        f"{name:<14}{record['lambda']:>10.4f}{gme:>10}{record['residual']:>11.3e}"
        f"{record['iterations']:>8d}{record['status']:>18}"
        f"{record['timing']['seconds']:>10.2f}"
    )


def cmd_solve(args) -> int:
    tensor, _ = _load_tensor(args)
    record = _record(tensor, _config(args, args.algo))
    if args.format == "json":
        print(json.dumps(record, indent=2))
    else:
        print(_HEADER)
        print(_row(args.algo, record))
        for mode, vec in enumerate(record["factors"], start=1):
            coeffs = "  ".join(f"({z['re']:+.4f}{z['im']:+.4f}i)" for z in vec)
            print(f"x({mode})       = {coeffs}")
    return EXIT_OK if record["status"] == "converged" else EXIT_NO_CONVERGENCE


def cmd_bench(args) -> int:
    tensor, _ = _load_tensor(args)
    names = _comma_list("--algos", args.algos, "algorithm", _ALGO_FLAGS, str)
    rows = []
    for name in names:
        try:
            rows.append((name, _record(tensor, _config(args, name))))
        except SolverError as exc:
            raise SolverError(f"{name}: {exc}") from None
    values = [record["lambda"] for _, record in rows]
    agree = max(values) - min(values) <= 5e-4
    if args.format == "json":
        print(json.dumps({"agree": agree, "results": dict(rows)}, indent=2))
    else:
        print(_HEADER)
        for name, record in rows:
            print(_row(name, record))
    if not agree:
        print(
            f"algorithms disagree: lambdas {', '.join(f'{v:.6f}' for v in values)}",
            file=sys.stderr,
        )
        return EXIT_NUMERICAL
    if any(record["status"] != "converged" for _, record in rows):
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_embed(args) -> int:
    tensor, _ = _load_tensor(args)
    emb = sym_embed(tensor)
    text = json.dumps(embedded_to_json(emb), indent=2)
    if args.output and args.output != "-":
        try:
            with open(args.output, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise InputError(f"cannot write {args.output}: {exc}") from None
    else:
        print(text)
    return EXIT_OK


# The rows of each regenerated table: catalog id and algorithms.
_TABLE_ROWS: dict[int, list[tuple[str, list[str]]]] = {
    1: [("example_4_1", list(_ALGO_FLAGS))],
    2: [("example_4_2", list(_ALGO_FLAGS))],
    3: [("example_4_3", list(_ALGO_FLAGS))],
    4: [
        ("trig_2", ["joint", "gauss-seidel"]),
        ("trig_5", ["joint", "gauss-seidel"]),
        ("trig_10", ["joint", "gauss-seidel"]),
    ],
}


def cmd_tables(args) -> int:
    wanted = sorted(_comma_list("--tables", args.tables, "table", _TABLE_ROWS, int))
    # Every row's config is built, and so checked, before anything is printed.
    tables = [
        (t, [(catalog_id, [(name, _config(args, name)) for name in algos])
             for catalog_id, algos in _TABLE_ROWS[t]])
        for t in wanted
    ]
    status = EXIT_OK
    for t, fixtures in tables:
        print(f"Table {t}")
        print(f"{'Fixture':<14}{_HEADER}")
        for catalog_id, runs in fixtures:
            tensor = _catalog_tensor(catalog_id)
            for name, cfg in runs:
                try:
                    row = _row(name, _record(tensor, cfg))
                except SolverError as exc:
                    row = f"{name:<14}failed: {exc}"
                    status = EXIT_NUMERICAL
                print(f"{catalog_id:<14}{row}")
        print()
    return status


def cmd_catalog(args) -> int:
    if args.action == "list":
        for entry in catalog.CATALOG.values():
            dims = "x".join(str(d) for d in entry.dims)
            expected = (
                f"lambda={entry.expected_lambda}" if entry.expected_lambda else ""
            )
            print(f"{entry.id:<14}{dims:<16}{entry.kind:<8}{expected:<16}{entry.description}")
        return EXIT_OK
    print(json.dumps(tensor_to_json(_catalog_tensor(args.id)), indent=2))
    return EXIT_OK


def cmd_oracle(args) -> int:
    if args.samples < 1:
        raise InputError(f"--samples must be >= 1, got {args.samples}")
    tensor, label = _load_tensor(args)
    record = _record(tensor, _config(args, args.algo))
    solver_lambda, seconds = record["lambda"], record["timing"]["seconds"]
    print(f"{label}: solver ({args.algo}) lambda = {solver_lambda:#.6g}  [{seconds:.2f} s]")
    ok = True
    results = evaluate_oracles(tensor, samples=args.samples, seed=args.seed)
    sigma = results[-1].lambda_upper_bound  # the scale: lambda(sA) = |s| lambda(A)
    for res in results:
        lower, upper = res.lambda_lower_bound, res.lambda_upper_bound
        consistent = lower - 1e-6 * sigma <= solver_lambda <= upper + 1e-6 * sigma
        ok = ok and consistent
        certified = "certified  " if upper - lower <= 1e-12 * sigma else ""
        print(
            f"  {res.method:<10} [{lower:#.6g}, {upper:#.6g}]  "
            f"{certified}{'ok' if consistent else 'MISMATCH'}"
        )
    return EXIT_OK if ok else EXIT_NUMERICAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ueigen",
        description="Unitary eigenpairs of complex tensors and geometric "
        "entanglement of pure states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="compute the largest eigenvalue of a tensor")
    _add_input_args(p)
    _add_solver_args(p)
    p.add_argument("--format", default="table", choices=["table", "json"])
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench", help="compare algorithms on one tensor")
    _add_input_args(p)
    _add_solver_args(p)
    all_algos = ",".join(_ALGO_FLAGS)
    p.add_argument("--algos", default=all_algos, help="comma-separated algorithm list")
    p.add_argument("--format", default="table", choices=["table", "json"])
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("embed", help="print the symmetric embedding as JSON")
    _add_input_args(p)
    p.add_argument("--output", default="-", help="output file or '-' for stdout")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("tables", help="regenerate the benchmark tables")
    p.add_argument("--tables", default="1,2,3,4", help="comma-separated table numbers")
    p.add_argument("--tol", type=float, default=_DEFAULTS.tol)
    p.add_argument("--starts", type=int, default=_DEFAULTS.starts)
    p.add_argument("--seed", type=int, default=_DEFAULTS.seed)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("catalog", help="list or dump the fixture catalog")
    csub = p.add_subparsers(dest="action", required=True)
    pl = csub.add_parser("list")
    pl.set_defaults(func=cmd_catalog, action="list")
    pd = csub.add_parser("dump")
    pd.add_argument("id")
    pd.set_defaults(func=cmd_catalog, action="dump")

    p = sub.add_parser("oracle", help="cross-check solver output against oracles")
    _add_input_args(p)
    _add_solver_args(p)
    p.add_argument("--samples", type=int, default=10_000)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SolverError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
