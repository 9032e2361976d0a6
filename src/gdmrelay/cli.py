"""Command line front end.

Subcommands:
  simulate    run a Monte Carlo SER sweep
  analyze     evaluate the closed-form SER approximation over an SNR grid
  optimize    closed-form reference/normal power split for a block length
  complexity  per-symbol operation counts of the destination detectors
  diversity   diversity orders, overall and conditioned on relay errors
  reproduce   rerun a canned figure experiment and write its data files

Exit codes: 0 on success, 2 on argument/config errors, 3 on runtime failure.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys

from gdmrelay import analysis, harness, power
from gdmrelay.channel import db_to_linear
from gdmrelay.detectors import EPSILON_FLOOR, OP_COUNTS, count_ops
from gdmrelay.harness import ExperimentConfig, run_ser_experiment
from gdmrelay.modulation import _finite_positive

SNR_GRID_MAX_POINTS = 10_000


def _parse_snr_grid(text: str):
    """'start:step:stop' (inclusive, at most ``SNR_GRID_MAX_POINTS`` values) or
    a comma list of dB values, each with a finite linear SNR above 0 (so no
    inf, nan or dB value that overflows)."""
    try:
        if ":" in text:
            start, step, stop = (float(v) for v in text.split(":"))
            _finite_positive(step=step)
            if not 0 <= (stop - start) / step < SNR_GRID_MAX_POINTS:  # before it is built
                raise ValueError
            grid = []
            v = start
            while v <= stop + 1e-9:
                if len(grid) == SNR_GRID_MAX_POINTS:  # a step too small to move v
                    raise ValueError
                grid.append(round(v, 10))
                v += step
        else:
            grid = [float(v) for v in text.split(",")]
        for v in grid:
            _finite_positive(snr=db_to_linear(v))
        return tuple(grid)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad SNR grid {text!r}; use start:step:stop (at most "
            f"{SNR_GRID_MAX_POINTS} points) or v1,v2,...")


def _analyze_block_length(text: str) -> int:
    if int(text) != 1:
        raise argparse.ArgumentTypeError("the averaged closed forms are derived for L=1 only")
    return 1


def _analyze_sr_offset(text: str) -> float:
    if float(text) != 0:
        raise argparse.ArgumentTypeError(
            "the averaged closed forms are derived for symmetric links")
    return 0.0


def _add_simulate_args(p: argparse.ArgumentParser):
    p.add_argument("--relays", type=int, default=1)
    p.add_argument("--mod", type=int, default=4, help="PSK order M")
    p.add_argument("--K", type=int, default=127, help="info symbols per frame")
    p.add_argument("--L", type=int, default=1, help="block length")
    p.add_argument("--detector", default="nmld", choices=harness.DETECTOR_KINDS)
    p.add_argument("--snr", type=_parse_snr_grid, default=(0, 5, 10, 15, 20, 25, 30),
                   help="dB grid, start:step:stop or comma list")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1,
                   help="batch threads; results do not depend on it; slower on small batches")
    p.add_argument("--errors-min", type=int, default=100)
    p.add_argument("--frames-max", type=int, default=100000)
    p.add_argument("--relay-mode", default="realistic", choices=harness.RELAY_MODES)
    p.add_argument("--genie-r", type=int, default=0)
    p.add_argument("--sr-offset-db", type=float, default=0.0)
    p.add_argument("--rd-offset-db", type=float, default=0.0)
    p.add_argument("--rho-n", type=float, default=None,
                   help="normal-symbol power; default is the closed-form optimum")
    p.add_argument("--power", type=float, default=1.0, help="average symbol power")
    p.add_argument("--out-dir", default=None)
    p.add_argument("--csv", action="store_true")
    p.add_argument("--json", action="store_true")
    p.add_argument("--config", default=None,
                   help="JSON file of simulate options; overrides flags")


def _config_value(action: argparse.Action, val):
    """Check a config-file value against its flag's type; JSON types are not coerced."""
    if val is None and action.default is None:
        return None
    if isinstance(val, list) and action.type is _parse_snr_grid:
        bad = [v for v in val if isinstance(v, bool) or not isinstance(v, (int, float))]
        if bad:
            raise ValueError(f"expected a list of numbers, got {bad[0]!r}")
        val = ",".join(map(str, val))
    allowed = {int: (int,), float: (int, float)}.get(
        action.type, (bool,) if action.nargs == 0 else (str,))
    if isinstance(val, bool) and allowed != (bool,) or not isinstance(val, allowed):
        raise ValueError(f"expected {' or '.join(t.__name__ for t in allowed)}, got {val!r}")
    val = action.type(val) if action.type else val
    if action.choices is not None and val not in action.choices:
        raise ValueError(f"expected one of {list(action.choices)}, got {val!r}")
    return val


def _load_config_file(path: str, args: argparse.Namespace, parser):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config file {path}: {exc}")
    if not isinstance(data, dict):
        parser.error(f"config file {path} must hold a JSON object")
    simulate = argparse.ArgumentParser(add_help=False)
    _add_simulate_args(simulate)
    actions = {a.dest: a for a in simulate._actions if a.dest != "config"}
    unknown = set(data) - set(actions)
    if unknown:
        parser.error(f"unknown config keys in {path}: {sorted(unknown)}")
    for key, val in data.items():
        try:
            setattr(args, key, _config_value(actions[key], val))
        except (ValueError, argparse.ArgumentTypeError) as exc:
            parser.error(f"config key {key!r} in {path}: {exc}")


def _cmd_simulate(args) -> int:
    cfg = ExperimentConfig(
        n_relays=args.relays, m=args.mod, k_frame=args.K, l_block=args.L,
        detector=args.detector, snr_grid_db=tuple(args.snr),
        relay_mode=args.relay_mode, genie_r=args.genie_r,
        sr_offset_db=args.sr_offset_db, rd_offset_db=args.rd_offset_db,
        rho_n=args.rho_n, p_s=args.power, min_errors=args.errors_min,
        max_frames=args.frames_max, master_seed=args.seed,
        workers=args.threads,
    )
    if args.out_dir:  # made before the run, so a bad path costs no batch
        out = pathlib.Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
    result = run_ser_experiment(cfg)
    print(f"# detector={cfg.detector} relays={cfg.n_relays} M={cfg.m} "
          f"K={cfg.k_frame} L={cfg.l_block} seed={cfg.master_seed}")
    print("snr_db symbols errors ser ci_lo ci_hi")
    for p in result.points:
        print(f"{p.snr_db:g} {p.symbols} {p.errors} "
              f"{p.ser:.6e} {p.ci_lo:.6e} {p.ci_hi:.6e}")
    if args.out_dir:
        stem = f"ser_{cfg.detector}_n{cfg.n_relays}_m{cfg.m}_l{cfg.l_block}"
        if args.csv or not args.json:
            harness.write_csv(result, out / f"{stem}.csv")
        if args.json:
            harness.write_json(result, out / f"{stem}.json")
        harness.write_gnuplot(result, out / f"{stem}.dat")
    return 0


def _cmd_analyze(args) -> int:
    pa = power.optimize_power(args.L, args.power).as_allocation()
    rows = ["snr_db epsilon ser_error_free ser_erroneous ser_total"]
    for snr_db in args.snr:  # every row is computed before anything is printed
        g = db_to_linear(snr_db)
        eps = analysis.relay_epsilon(pa, args.L, g, args.mod)
        try:  # eps >= 1/2 at low SNR
            eta = analysis.eta_threshold(max(eps, EPSILON_FLOOR), args.mod, pa.rho_r, pa.rho_r)
        except ValueError as exc:
            raise ValueError(f"at {snr_db:g} dB: {exc}") from None
        pc = analysis.ser_avg_error_free(args.relays, args.mod, eps, eta, pa.p_s * g)
        pe = analysis.ser_avg_erroneous(args.relays, args.mod, eps, eta, pa.p_s * g)
        total = min(pc + pe, 1.0)
        rows.append(f"{snr_db:g} {eps:.6e} {pc:.6e} {pe:.6e} {total:.6e}")
    print("\n".join(rows))
    return 0


def _cmd_optimize(args) -> int:
    sol = power.optimize_power(args.L, args.power)
    ratio = None  # checked before anything is printed
    if args.gamma_sr is not None:  # main() checks that both are given
        ratio = power.feasibility_diagnostic(sol, args.mod, args.gamma_sr, args.gamma_sd)
    print(f"L={sol.l_block} p_s={sol.p_s:g}")
    print(f"rho_r* = {sol.rho_r_star:.9f}")
    print(f"rho_n* = {sol.rho_n_star:.9f}")
    print(f"ratio rho_r*/rho_n* = {sol.ratio:.9f} (sqrt(L-1) = "
          f"{math.sqrt(max(sol.l_block - 1, 0)):.9f})")
    if sol.degenerate:
        print("note: L=1 has no normal symbols; allocation is degenerate")
    if ratio is not None:
        print(f"feasibility ratio = {ratio:.6g} "
              f"(warn below {power.FEASIBILITY_WARN_RATIO:g})")
    return 0


def _cmd_complexity(args) -> int:
    kinds = tuple(OP_COUNTS) if args.detector == "all" else (args.detector,)
    counts = {kind: count_ops(kind, args.mod, args.relays) for kind in kinds}  # all before printing
    print("detector additions multiplications max_min exp_log total")
    for kind, c in counts.items():
        print(f"{kind} {c.additions} {c.multiplications} "
              f"{c.max_min_ops} {c.exp_log_ops} {c.total}")
    if args.detector == "all":
        amld, nmld = counts["amld"].total, counts["nmld"].total
        print(f"nmld saving vs amld: {100.0 * (1 - nmld / amld):.2f}%")
    return 0


def _cmd_diversity(args) -> int:
    if args.errors is not None:
        d = analysis.diversity_with_errors(args.relays, n_err=args.errors)
        print(f"N={args.relays} wrong_relays={args.errors} diversity={d}")
    elif args.genie_r is not None:
        d = analysis.diversity_with_errors(args.relays, r_error_free=args.genie_r)
        print(f"N={args.relays} error_free_relays={args.genie_r} diversity={d}")
    else:
        d = analysis.diversity_order(args.relays)
        print(f"N={args.relays} diversity={d}")
    return 0


def _cmd_reproduce(args) -> int:
    results = harness.reproduce_figure(args.figure, scale=args.scale,
                                       out_dir=args.out_dir,
                                       master_seed=args.seed)
    for name, res in results.items():
        sers = " ".join(f"{p.ser:.3e}" for p in res.points)
        print(f"{args.figure}/{name}: {sers}")
    if not results:
        print(f"{args.figure}: analytic data " + (f"written to {args.out_dir}" if args.out_dir
                                                  else "not written: no --out-dir given"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gdmrelay",
        description="Non-coherent DF relay network simulation and analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="Monte Carlo SER sweep")
    _add_simulate_args(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("analyze", help="closed-form SER over an SNR grid")
    p.add_argument("--relays", type=int, default=2)
    p.add_argument("--mod", type=int, default=4)
    p.add_argument("--L", type=_analyze_block_length, default=1)
    p.add_argument("--power", type=float, default=1.0)
    p.add_argument("--sr-offset-db", type=_analyze_sr_offset, default=0.0)
    p.add_argument("--snr", type=_parse_snr_grid, default=(0, 5, 10, 15, 20, 25, 30))
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("optimize", help="closed-form power split")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--power", type=float, default=1.0)
    p.add_argument("--mod", type=int, default=4)
    p.add_argument("--gamma-sr", type=float, default=None,
                   help="linear S-R SNR for the feasibility diagnostic")
    p.add_argument("--gamma-sd", type=float, default=None,
                   help="linear S-D SNR for the feasibility diagnostic")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("complexity", help="per-symbol operation counts")
    p.add_argument("--mod", type=int, default=8)
    p.add_argument("--relays", type=int, default=12)
    p.add_argument("--detector", default="all",
                   choices=("all", *OP_COUNTS))
    p.set_defaults(func=_cmd_complexity)

    p = sub.add_parser("diversity", help="diversity orders")
    p.add_argument("--relays", type=int, required=True)
    condition = p.add_mutually_exclusive_group()
    condition.add_argument("--errors", type=int, default=None,
                           help="condition on this many wrong relays")
    condition.add_argument("--genie-r", type=int, default=None,
                           help="condition on this many guaranteed-correct relays")
    p.set_defaults(func=_cmd_diversity)

    p = sub.add_parser("reproduce", help="rerun a canned figure experiment")
    p.add_argument("--figure", required=True, choices=harness.FIGURE_IDS)
    p.add_argument("--scale", default="desk", choices=("desk", "full"))
    p.add_argument("--out-dir", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "optimize" and (args.gamma_sr is None) != (args.gamma_sd is None):
        parser.error("optimize: --gamma-sr and --gamma-sd must be given together")
    if getattr(args, "config", None):
        _load_config_file(args.config, args, parser)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
