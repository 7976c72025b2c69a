"""Command-line interface.

Exit codes: 0 success, 2 input error, 3 non-convergence, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import catalog
from .embedding import embedded_to_json, sym_embed
from .entanglement import RENORM_TOLERANCE, PureState, gme_from_lambda
from .oracle import evaluate_oracles
from .solvers import MultiStartResult, SolverConfig, SolverError, multi_start
from .tensor import ComplexTensor, norm, tensor_from_json, tensor_to_json

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_CONVERGENCE = 3
EXIT_NUMERICAL = 4

_ALGO_FLAGS = {"embed": "embed", "joint": "joint", "gauss-seidel": "gauss_seidel"}
_ALGO_NAMES = {v: k for k, v in _ALGO_FLAGS.items()}


class InputError(Exception):
    pass


def _add_input_args(parser: argparse.ArgumentParser):
    src = parser.add_mutually_exclusive_group(required=True)
    src.add_argument("--file", help="tensor JSON file")
    src.add_argument("--catalog", help="catalog id (see 'ueigen catalog list')")


def _add_solver_args(parser: argparse.ArgumentParser):
    parser.add_argument("--algo", default="gauss-seidel", choices=sorted(_ALGO_FLAGS))
    parser.add_argument("--alpha", type=float, default=1.0, help="positive shift")
    parser.add_argument("--tol", type=float, default=1e-9)
    parser.add_argument("--max-iter", type=int, default=5000)
    parser.add_argument("--starts", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)


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


def _config(args, algorithm: str) -> SolverConfig:
    return SolverConfig(
        algorithm=algorithm,
        alpha=args.alpha,
        tol=args.tol,
        max_iter=args.max_iter,
        starts=args.starts,
        seed=args.seed,
    )


def _result_json(
    result: MultiStartResult, cfg: SolverConfig, gme: float | None, seconds: float
) -> dict:
    best = result.best
    return {
        "lambda": best.eigenvalue,
        "gme": gme,
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


def _print_solution(result: MultiStartResult, gme: float | None, seconds: float):
    best = result.best
    print(f"lambda     = {best.eigenvalue:.4f}")
    if gme is not None:
        print(f"GME        = {gme:.4f}")
    print(f"residual   = {best.residual:.3e}")
    print(f"iterations = {best.iterations}")
    print(f"status     = {best.trace.status}")
    print(f"time       = {seconds:.2f} s")
    for mode, vec in enumerate(best.factors.vectors, start=1):
        coeffs = "  ".join(f"({z.real:+.4f}{z.imag:+.4f}i)" for z in vec)
        print(f"x({mode})       = {coeffs}")


def _run(tensor: ComplexTensor, cfg: SolverConfig) -> tuple[MultiStartResult, float]:
    """``multi_start`` and its wall time; a ``SolverError`` propagates."""
    t0 = time.perf_counter()
    result = multi_start(tensor, cfg)
    return result, time.perf_counter() - t0


def _gme_if_state(tensor: ComplexTensor, eigenvalue: float) -> float | None:
    """GME when ``tensor`` is a unit-norm state, else None. An eigenvalue
    above 1 on a state is a solver fault and raises ``SolverError``."""
    if abs(norm(tensor) - 1.0) > RENORM_TOLERANCE:
        return None
    try:
        return gme_from_lambda(eigenvalue)
    except ValueError as exc:
        raise SolverError(str(exc)) from None


def cmd_solve(args) -> int:
    tensor, _ = _load_tensor(args)
    cfg = _config(args, _ALGO_FLAGS[args.algo])
    result, seconds = _run(tensor, cfg)
    gme = _gme_if_state(tensor, result.best.eigenvalue)
    if args.format == "json":
        print(json.dumps(_result_json(result, cfg, gme, seconds), indent=2))
    else:
        _print_solution(result, gme, seconds)
    return EXIT_OK if result.best.converged else EXIT_NO_CONVERGENCE


def cmd_bench(args) -> int:
    tensor, _ = _load_tensor(args)
    names = [a.strip() for a in args.algos.split(",") if a.strip()]
    if not names:
        raise InputError(f"--algos names no algorithm: {args.algos!r}")
    for name in names:
        if name not in _ALGO_FLAGS:
            raise InputError(f"unknown algorithm {name!r}; choose from {sorted(_ALGO_FLAGS)}")
    rows = []
    for name in names:
        cfg = _config(args, _ALGO_FLAGS[name])
        try:
            result, seconds = _run(tensor, cfg)
            gme = _gme_if_state(tensor, result.best.eigenvalue)
        except SolverError as exc:
            raise SolverError(f"{name}: {exc}") from None
        rows.append((name, cfg, result, gme, seconds))
    values = [r.best.eigenvalue for _, _, r, _, _ in rows]
    agree = max(values) - min(values) <= 5e-4
    if args.format == "json":
        payload = {
            "agree": agree,
            "results": {
                name: _result_json(res, cfg, gme, secs)
                for name, cfg, res, gme, secs in rows
            },
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"{'Algorithm':<14}{'lambda':>10}{'GME':>10}{'iters':>8}{'time(s)':>10}")
        for name, _, res, gme, secs in rows:
            gme_text = f"{gme:.4f}" if gme is not None else "-"
            print(
                f"{name:<14}{res.best.eigenvalue:>10.4f}{gme_text:>10}"
                f"{res.best.iterations:>8d}{secs:>10.2f}"
            )
    if not agree:
        print(
            f"algorithms disagree: lambdas {', '.join(f'{v:.6f}' for v in values)}",
            file=sys.stderr,
        )
        return EXIT_NUMERICAL
    if any(not r.best.converged for _, _, r, _, _ in rows):
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_embed(args) -> int:
    tensor, _ = _load_tensor(args)
    emb = sym_embed(tensor)
    text = json.dumps(embedded_to_json(emb), indent=2)
    if args.output and args.output != "-":
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


# Per-row settings for the table regeneration: catalog id, algorithms, and
# overrides for the slow high-order fixtures (small shift for the jointly
# normalized update, whose effective step scales like lambda^2 m^(1-m)).
_TABLE_ROWS: dict[int, list[tuple[str, list[str], dict]]] = {
    1: [("example_4_1", ["embed", "joint", "gauss-seidel"], {})],
    2: [("example_4_2", ["embed", "joint", "gauss-seidel"], {})],
    3: [
        (
            "example_4_3",
            ["embed", "joint", "gauss-seidel"],
            {"alpha": 0.02, "max_iter": 100_000},
        )
    ],
    4: [
        ("trig_2", ["joint", "gauss-seidel"], {}),
        ("trig_5", ["joint", "gauss-seidel"], {}),
        ("trig_10", ["joint", "gauss-seidel"], {"max_iter": 20_000}),
    ],
}


def cmd_tables(args) -> int:
    try:
        wanted = sorted(int(t) for t in args.tables.split(",") if t.strip())
    except ValueError:
        raise InputError(
            f"--tables takes comma-separated table numbers, got {args.tables!r}; "
            f"available: {sorted(_TABLE_ROWS)}"
        ) from None
    if not wanted:
        raise InputError(f"--tables names no table: {args.tables!r}")
    for t in wanted:
        if t not in _TABLE_ROWS:
            raise InputError(f"no table {t}; available: {sorted(_TABLE_ROWS)}")
    status = EXIT_OK
    for t in wanted:
        print(f"Table {t}")
        print(f"{'Fixture':<14}{'Algorithm':<14}{'lambda':>10}{'GME':>10}{'time(s)':>10}")
        for catalog_id, algos, overrides in _TABLE_ROWS[t]:
            tensor = _catalog_tensor(catalog_id)
            for name in algos:
                cfg = SolverConfig(
                    algorithm=_ALGO_FLAGS[name],
                    alpha=overrides.get("alpha", 1.0),
                    tol=args.tol,
                    max_iter=overrides.get("max_iter", 5000),
                    starts=args.starts,
                    seed=args.seed,
                )
                try:
                    result, secs = _run(tensor, cfg)
                    lam = result.best.eigenvalue
                    gme = _gme_if_state(tensor, lam)
                except SolverError as exc:
                    print(f"{catalog_id:<14}{name:<14}failed: {exc}")
                    status = EXIT_NUMERICAL
                    continue
                gme_text = f"{gme:.4f}" if gme is not None else "-"
                print(f"{catalog_id:<14}{name:<14}{lam:>10.4f}{gme_text:>10}{secs:>10.2f}")
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
    cfg = _config(args, _ALGO_FLAGS[args.algo])
    result, seconds = _run(tensor, cfg)
    solver_lambda = result.best.eigenvalue
    print(f"{label}: solver ({args.algo}) lambda = {solver_lambda:.6f}  [{seconds:.2f} s]")
    ok = True
    for res in evaluate_oracles(tensor, samples=args.samples, seed=args.seed):
        lower, upper = res.lambda_lower_bound, res.lambda_upper_bound
        consistent = lower - 1e-6 <= solver_lambda <= upper + 1e-6
        ok = ok and consistent
        certified = "certified  " if upper - lower <= 1e-12 else ""
        print(
            f"  {res.method:<10} [{lower:.6f}, {upper:.6f}]  "
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
    p.add_argument(
        "--algos",
        default="embed,joint,gauss-seidel",
        help="comma-separated algorithm list",
    )
    p.add_argument("--format", default="table", choices=["table", "json"])
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("embed", help="print the symmetric embedding as JSON")
    _add_input_args(p)
    p.add_argument("--output", default="-", help="output file or '-' for stdout")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("tables", help="regenerate the benchmark tables")
    p.add_argument("--tables", default="1,2,3,4", help="comma-separated table numbers")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--starts", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
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
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SolverError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
