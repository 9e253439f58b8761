"""Command-line orchestration.

Subcommands:

  sweep            solve the dual-parameter sweep and persist it
  safe-sets        build risk surfaces and safe-set masks from a sweep
  deploy           synthesize a pre-commitment policy and roll it out
  oracle           run the tiny-instance verification corpus
  compare-designs  safe-set cell counts across the four stormwater designs

Artifacts are byte-deterministic for a fixed config and seed (timing goes
to stderr only); every file embeds the resolved config hash.
"""

from __future__ import annotations

import argparse
import copy
import os
import sys
import time
from importlib import resources

import numpy as np

from . import artifacts, config as config_mod
from .config import ConfigError
from .dp import backend
from .models import DESIGNS
from .oracle import (IDENTITY_TOL, POLICY_BUDGET, OracleError, OracleSizeError,
                     exact_optimal_cvar, generate_corpus, load_corpus, save_corpus)
from .rollout import estimate_risk, rollout, synthesize_policy
from .solver import extract_safe_set, risk_value, sweep

_ORACLE_ALPHAS = (0.05, 0.25, 0.5, 0.99, 1.0)


def _load(args):
    cfg = config_mod.load_config(args.config)
    if getattr(args, "threads", None) is not None:
        cfg["threads"] = args.threads
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    if getattr(args, "alpha", None) is not None:
        cfg["alphas"] = _numbers(args.alpha, "alphas")
    if getattr(args, "r", None) is not None:
        cfg["rs"] = _numbers(args.r, "rs")
    if getattr(args, "x0", None) is not None:
        cfg["deploy"]["x0"] = _numbers(args.x0, "deploy.x0")
    if getattr(args, "deploy_alpha", None) is not None:
        cfg["deploy"]["alpha"] = args.deploy_alpha
    if getattr(args, "rollouts", None) is not None:
        cfg["deploy"]["rollouts"] = args.rollouts
    return config_mod.resolve_config(cfg)  # re-validated after the overrides


def _numbers(text, where):
    """Comma-separated floats; text that does not parse is a ConfigError."""
    try:
        return [float(item) for item in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _prepare(cfg):
    model = config_mod.build_model(cfg)
    grid = config_mod.build_grid(cfg, model)
    return model, grid, config_mod.config_hash(cfg)


def _sweep(cfg, model, grid, out=None, chash=None):
    """``solver.sweep`` printing a line per solved s, after writing its tables
    to ``out`` if that is given under ``flags.persist_tables``."""
    def on_solve(s, values, action_idx):
        if out and cfg["flags"]["persist_tables"]:
            artifacts.write_tables_csv(f"{out}/tables_s={artifacts.fmt(s)}.csv",
                                       s, values, action_idx, grid, chash)
        i = int(np.searchsorted(grid.s_axis, s)) + 1  # s's place on the axis
        print(f"  solved s={s:g} ({i}/{grid.s_axis.size})",
              file=sys.stderr, flush=True)

    return sweep(model, grid, threads=cfg["threads"], on_solve=on_solve)


def cmd_sweep(args) -> int:
    cfg = _load(args)
    model, grid, chash = _prepare(cfg)
    os.makedirs(args.out, exist_ok=True)
    print(f"sweep: {grid.s_axis.size} dual parameters, backend={backend()}",
          file=sys.stderr)
    v0 = _sweep(cfg, model, grid, args.out, chash)
    artifacts.write_sweep(args.out, v0, grid, chash,
                          config_mod.sweep_hash(cfg))
    return 0


def cmd_safe_sets(args) -> int:
    cfg = _load(args)
    model, grid, chash = _prepare(cfg)
    config_mod.rs_within_range(cfg, model)
    v0 = artifacts.read_sweep(args.sweep or args.out, grid,
                              config_mod.sweep_hash(cfg))
    os.makedirs(args.out, exist_ok=True)
    counts = {}
    for alpha in cfg["alphas"]:
        w_star, s_star = risk_value(grid.s_axis, v0, alpha)
        a_tag = artifacts.fmt(alpha)
        artifacts.write_surface_csv(
            f"{args.out}/surface_alpha={a_tag}.csv", w_star, s_star, grid, chash)
        for r in cfg["rs"]:
            mask = extract_safe_set(w_star, r)
            artifacts.write_mask_csv(
                f"{args.out}/mask_alpha={a_tag}_r={artifacts.fmt(r)}.csv",
                mask, grid, chash)
            counts[f"alpha={a_tag},r={artifacts.fmt(r)}"] = int(mask.sum())
    summary = {
        "schema_version": artifacts.SCHEMA_VERSION,
        "config_hash": chash,
        "design": cfg["model"]["design"],
        "grid": cfg["grid"],
        "alphas": [float(a) for a in cfg["alphas"]],
        "rs": [float(r) for r in cfg["rs"]],
        "cell_counts": counts,
        "total_cells": grid.n_xnodes,
    }
    artifacts.write_json(f"{args.out}/summary.json", summary)
    return 0


def cmd_deploy(args) -> int:
    cfg = _load(args)
    model, grid, chash = _prepare(cfg)
    config_mod.x0_within_bounds(cfg, model)
    os.makedirs(args.out, exist_ok=True)
    if args.sweep:
        v0 = artifacts.read_sweep(args.sweep, grid, config_mod.sweep_hash(cfg))
    else:
        v0 = sweep(model, grid, threads=cfg["threads"])
    x0 = np.asarray(cfg["deploy"]["x0"], dtype=np.float64)
    alpha = float(cfg["deploy"]["alpha"])
    policy = synthesize_policy(x0, alpha, v0, model, grid)
    num = int(cfg["deploy"]["rollouts"])
    summary = {
        "schema_version": artifacts.SCHEMA_VERSION,
        "config_hash": chash,
        "alpha": alpha,
        "x0": x0.tolist(),
        "s_star": policy.s_star,
        "dp_value": policy.dp_value,
        "num_rollouts": num,
        "seed": cfg["seed"],
    }
    if num > 0:
        batch = rollout(policy, num, cfg["seed"], model,
                        keep=cfg["deploy"]["csv_max"])
        stats = estimate_risk(batch, alpha, policy.s_star)
        summary.update(stats)
        summary["consistency_gap"] = abs(stats["excess_hat"] - policy.dp_value)
        artifacts.write_rollouts_csv(f"{args.out}/rollouts.csv", batch, chash)
    artifacts.write_json(f"{args.out}/deploy_summary.json", summary)
    return 0


def cmd_oracle(args) -> int:
    for flag, value, minimum in (("--count", args.count, 0),
                                 ("--seed", args.seed, 0),
                                 ("--budget", args.budget, 1)):
        if value is not None and value < minimum:
            raise ConfigError(f"{flag}: must be >= {minimum}, got {value}")
    if args.corpus and args.count is not None:
        raise ConfigError("--count: cannot be used with --corpus")
    if args.seed is not None and args.count is None:
        raise ConfigError("--seed: seeds a generated corpus, needs --count")
    if args.corpus:
        try:
            instances = load_corpus(args.corpus)
        except ValueError as exc:  # json.JSONDecodeError included
            raise ConfigError(f"{args.corpus}: corpus parse failed: {exc}") from exc
    elif args.count is not None:
        instances = generate_corpus(args.seed or 0, args.count)
    else:
        instances = _default_corpus()
    if not instances:
        print("warning: empty corpus, nothing verified", file=sys.stderr)
        return 0
    failures = []
    for i, inst in enumerate(instances):
        alpha = _ORACLE_ALPHAS[i % len(_ORACLE_ALPHAS)]
        try:
            result = exact_optimal_cvar(inst, alpha, budget=args.budget)
            gap = abs(_pipeline_value(inst, alpha) - result.value)
            error = f"pipeline gap {gap!r}" if gap > IDENTITY_TOL else None
        except (OracleError, OracleSizeError) as exc:
            error = str(exc)
        if error is not None:
            failures.append({"instance": i, "alpha": alpha, "error": error})
        print(f"  instance {i}: alpha={alpha} {'ok' if error is None else 'FAIL'}",
              file=sys.stderr)
    if args.write_corpus:
        save_corpus(args.write_corpus, instances)
        print(f"corpus written to {args.write_corpus}", file=sys.stderr)
    report = {
        "schema_version": artifacts.SCHEMA_VERSION,
        "checked": len(instances),
        "failures": failures,
    }
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        artifacts.write_json(f"{args.out}/oracle_report.json", report)
    status = "PASS" if not failures else f"FAIL ({len(failures)} mismatches)"
    print(f"oracle: {len(instances)} instances checked: {status}", file=sys.stderr)
    return 0 if not failures else 1


def _pipeline_value(inst, alpha) -> float:
    model, grid = inst.to_model_and_grid()
    w_star, _ = risk_value(grid.s_axis, sweep(model, grid), alpha)
    return float(w_star[inst.x0])


def _default_corpus():
    ref = resources.files("cvarsafe").joinpath("data/tiny_corpus.json")
    with resources.as_file(ref) as path:
        return load_corpus(path)


def cmd_compare_designs(args) -> int:
    cfg = _load(args)
    os.makedirs(args.out, exist_ok=True)
    chash = config_mod.config_hash(cfg)
    counts, rows = {}, []
    for design in DESIGNS:  # design a first: the ratios are against its counts
        dcfg = copy.deepcopy(cfg)
        dcfg["model"]["design"] = design
        if design != "b":  # a pump is configured for design b only
            dcfg["model"]["params"].pop("pump", None)
        model, grid, _ = _prepare(dcfg)
        config_mod.rs_within_range(dcfg, model)
        print(f"compare-designs: sweeping design {design}", file=sys.stderr)
        v0 = _sweep(cfg, model, grid)
        for alpha in cfg["alphas"]:
            w_star, _ = risk_value(grid.s_axis, v0, alpha)
            for r in cfg["rs"]:
                n = counts[(design, alpha, r)] = int(extract_safe_set(w_star, r).sum())
                base = counts[("a", alpha, r)]
                ratio = (n - base) / base if base else None
                rows.append((design, float(alpha), float(r), n, ratio))
    artifacts.write_csv(f"{args.out}/design_counts.csv", chash,
                        ["design", "alpha", "r", "cells", "ratio_vs_a"], rows)
    summary = {
        "schema_version": artifacts.SCHEMA_VERSION,
        "config_hash": chash,
        "alphas": [float(a) for a in cfg["alphas"]],
        "rs": [float(r) for r in cfg["rs"]],
        "cells": {f"{d},alpha={artifacts.fmt(a)},r={artifacts.fmt(r)}": n
                  for (d, a, r), n in counts.items()},
    }
    artifacts.write_json(f"{args.out}/compare_summary.json", summary)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvarsafe",
        description="Risk-sensitive safe sets via dual-parameter value iteration")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("sweep", help="solve the dual-parameter sweep")
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("safe-sets", help="risk surfaces and safe-set masks")
    common(p)
    p.add_argument("--sweep", default=None, help="directory holding sweep.csv")
    p.add_argument("--alpha", default=None, help="comma-separated risk levels")
    p.add_argument("--r", default=None, help="comma-separated thresholds")
    p.set_defaults(func=cmd_safe_sets)

    p = sub.add_parser("deploy", help="synthesize a policy and roll it out")
    common(p)
    p.add_argument("--sweep", default=None, help="directory holding sweep.csv")
    p.add_argument("--x0", default=None, help="initial state, e.g. 2.5,3.0")
    p.add_argument("--alpha", dest="deploy_alpha", type=float, default=None)
    p.add_argument("--rollouts", type=int, default=None)
    p.set_defaults(func=cmd_deploy)

    p = sub.add_parser("oracle", help="run the tiny-instance verification corpus")
    p.add_argument("--corpus", default=None, help="corpus JSON (default: shipped)")
    p.add_argument("--out", default=None)
    p.add_argument("--count", type=int, default=None,
                   help="generate this many instances instead of loading")
    p.add_argument("--seed", type=int, default=None,
                   help="seed of the generated corpus (with --count; default 0)")
    p.add_argument("--budget", type=int, default=POLICY_BUDGET,
                   help="cap on policy_count() per instance (default "
                        "%(default)s); an instance over it is reported as a "
                        "failure (exit 1)")
    p.add_argument("--write-corpus", default=None,
                   help="serialize the checked instances to this path")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("compare-designs",
                       help="safe-set cell counts across designs a-d")
    common(p)
    p.add_argument("--alpha", default=None)
    p.add_argument("--r", default=None)
    p.set_defaults(func=cmd_compare_designs)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        status = args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:  # a missing or unreadable file too
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{args.command} finished in {time.perf_counter() - t0:.2f}s"
          + (f" -> {args.out}" if args.out else ""), file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
