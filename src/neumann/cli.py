"""Command-line front end: config ingestion and bit-stable data emission.

Commands: simulate | reduce | separate | actions | equilibria | locus |
convexity.  A single JSON config file drives every command; floating-point
output uses 17 significant digits so CSV round-trips are exact.  Exit codes:
0 success or informative verdict, 2 config error, 3 numerical failure,
4 singular-stratum / precondition rejection.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, atlas, dynamics, reduction, separation, spectral
from .errors import (ConfigError, NeumannError, NumericalFailure,
                     OffManifoldError, SingularStratumError)
from .model import PhasePoint, SpectrumSpec, check_on_manifold

log = logging.getLogger("neumann")

CONFIG_VERSION = 1
#: provenance notes emitted into every output header
VARIANT_NOTES = (
    "curve-sign: R(b_sigma) = -w_sigma*A'(b_sigma)^2",
    "critical-value: h = sum j*(omega + b/omega) (twice the Hamiltonian value)",
)


def fmt(v) -> str:
    return f"{float(v):.17g}"


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]


# -- config loading -----------------------------------------------------------------

def _require(cfg: dict, key: str, errors: list, path: str = ""):
    if key not in cfg:
        errors.append(f"{path + key}: missing required field")
        return None
    return cfg[key]


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON in {path}: {exc}") from exc
    errors: list = []
    version = cfg.get("version", CONFIG_VERSION)
    if version != CONFIG_VERSION:
        errors.append(f"version: unsupported config version {version}")
    spectrum = _require(cfg, "spectrum", errors)
    if isinstance(spectrum, dict):
        try:
            SpectrumSpec.from_dict(spectrum)
        except ConfigError as exc:
            errors.append(f"spectrum: {exc}")
    elif spectrum is not None:
        errors.append("spectrum: must be an object with fields b, m")
    if errors:
        raise ConfigError("; ".join(errors))
    return cfg


def _spec(cfg) -> SpectrumSpec:
    return SpectrumSpec.from_dict(cfg["spectrum"])


def _full_initial(cfg, spec) -> PhasePoint:
    init = cfg.get("initial", {})
    if "x" not in init or "y" not in init:
        raise ConfigError("initial: needs fields x and y for a full-system command")
    p = PhasePoint(np.asarray(init["x"], float), np.asarray(init["y"], float))
    if p.dim != spec.n_coords:
        raise ConfigError(f"initial: expected {spec.n_coords} coordinates, got {p.dim}")
    check_on_manifold(p, cfg.get("integration", {}).get("tol", 1e-9))
    return p


def _reduced_initial(cfg, spec) -> tuple:
    init = cfg.get("initial", {})
    if not all(k in init for k in ("xi", "eta", "w")):
        raise ConfigError("initial: needs fields xi, eta, w for a reduced command")
    xi = np.asarray(init["xi"], float)
    eta = np.asarray(init["eta"], float)
    w = np.asarray(init["w"], float)
    if not (xi.size == eta.size == w.size == spec.ell + 1):
        raise ConfigError(f"initial: reduced fields need {spec.ell + 1} entries per block")
    return xi, eta, w


# -- output ------------------------------------------------------------------------------

def _header_lines(cfg, extra=()) -> list:
    lines = [f"# neumann {__version__}", f"# config {config_hash(cfg)}"]
    lines += [f"# {note}" for note in VARIANT_NOTES]
    lines += [f"# {note}" for note in extra]
    return lines


def write_csv(path: Path, cfg, columns, rows, extra_notes=()) -> None:
    with open(path, "w") as fh:
        for line in _header_lines(cfg, extra_notes):
            fh.write(line + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")
    log.info("wrote %s (%d rows)", path, len(rows))


def write_json(path: Path, cfg, payload, extra_notes=()) -> None:
    doc = {
        "version": __version__,
        "config_hash": config_hash(cfg),
        "notes": list(VARIANT_NOTES) + list(extra_notes),
        "data": payload,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")
    log.info("wrote %s", path)


def _emit(args, cfg, name, columns, rows, payload=None, extra_notes=()):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.format == "json":
        write_json(out / f"{name}.json", cfg,
                   payload if payload is not None
                   else [dict(zip(columns, map(float, r))) for r in rows],
                   extra_notes)
    else:
        write_csv(out / f"{name}.csv", cfg, columns, rows, extra_notes)


# -- commands ----------------------------------------------------------------------------

def cmd_simulate(args, cfg) -> int:
    spec = _spec(cfg)
    p0 = _full_initial(cfg, spec)
    integ = cfg.get("integration", {})
    t_end = float(integ.get("t_end", 10.0))
    dt = float(integ.get("dt", 1e-3))
    rtol = float(integ.get("rtol", 1e-10))
    traj = dynamics.integrate(spec, p0, t_end, dt=dt,
                              save_every=int(integ.get("save_every", 10)),
                              adaptive=bool(integ.get("adaptive", False)),
                              rtol=rtol)
    series = dynamics.conserved_series(spec, traj)
    names = list(series)
    columns = (["t"] + [f"x_{k}" for k in range(spec.n_coords)]
               + [f"y_{k}" for k in range(spec.n_coords)] + names)
    rows = [
        [traj.t[k], *traj.x[k], *traj.y[k], *[series[nm][k] for nm in names]]
        for k in range(traj.n_samples)
    ]
    _emit(args, cfg, "trajectory", columns, rows)
    report = dynamics.drift_report(spec, traj)
    _emit(args, cfg, "drift", ["quantity_index", "max_relative_drift"],
          [[i, report[nm]] for i, nm in enumerate(report)],
          payload={nm: report[nm] for nm in report},
          extra_notes=[f"quantity {i} = {nm}" for i, nm in enumerate(report)])
    worst = max(report.values())
    if worst > 100.0 * rtol:
        raise NumericalFailure(f"conservation drift {worst:.3e} exceeds 100*rtol")
    return 0


def cmd_reduce(args, cfg) -> int:
    spec = _spec(cfg)
    init = cfg.get("initial", {})
    integ = cfg.get("integration", {})
    t_end = float(integ.get("t_end", 10.0))
    dt = float(integ.get("dt", 1e-3))
    save_every = int(integ.get("save_every", 10))
    if "x" in init:
        p0 = _full_initial(cfg, spec)
        traj = dynamics.integrate(spec, p0, t_end, dt=dt, save_every=save_every)
        rows = []
        for k in range(traj.n_samples):
            state = reduction.hilbert_map(spec, traj.point(k))
            rows.append([traj.t[k], *state.v, *state.t, *state.s, *state.w])
    else:
        xi, eta, w = _reduced_initial(cfg, spec)
        rtraj = reduction.integrate_reduced(spec, w, xi, eta, t_end, dt=dt,
                                            save_every=save_every)
        rows = []
        for k in range(rtraj.t.size):
            state = reduction.rosochatius_invariants(spec, w, rtraj.xi[k], rtraj.eta[k])
            rows.append([rtraj.t[k], *state.v, *state.t, *state.s, *state.w])
    ell1 = spec.ell + 1
    columns = (["t"] + [f"V_{s}" for s in range(ell1)] + [f"T_{s}" for s in range(ell1)]
               + [f"S_{s}" for s in range(ell1)] + [f"W_{s}" for s in range(ell1)])
    _emit(args, cfg, "reduced", columns, rows)
    return 0


def cmd_separate(args, cfg) -> int:
    spec = _spec(cfg)
    xi, eta, w = _reduced_initial(cfg, spec)
    state = separation.to_separated(spec, w, xi, eta)
    rho = separation.separation_constants(spec, w, state.u, state.p)
    curve = separation.build_polynomials(spec, w, rho)
    roots = spectral.branch_points(curve)
    payload = {
        "u": list(map(float, state.u)),
        "p": list(map(float, state.p)),
        "rho": list(map(float, rho)),
        "curve": curve.to_dict(),
        "branch_points": list(map(float, roots)),
    }
    columns = (["kind"] + [f"c_{k}" for k in range(max(curve.r.size, 2 * spec.ell + 1))])
    rows = [
        [0, *curve.r, *([0.0] * (len(columns) - 1 - curve.r.size))],
        [1, *roots, *([0.0] * (len(columns) - 1 - roots.size))],
    ]
    _emit(args, cfg, "separated", columns, rows, payload=payload,
          extra_notes=["kind 0 = curve coefficients (highest degree first), kind 1 = branch points"])
    return 0


def cmd_actions(args, cfg) -> int:
    spec = _spec(cfg)
    exp = cfg.get("experiment", {})
    if "w" in exp:
        w = np.asarray(exp["w"], float)
        h = float(exp["h"])
        extra = tuple(exp.get("extra_rho", ()))
    else:
        xi, eta, w = _reduced_initial(cfg, spec)
        state = separation.to_separated(spec, w, xi, eta)
        rho = separation.separation_constants(spec, w, state.u, state.p)
        h = float(rho[0] + separation.energy_shift(spec))
        extra = tuple(rho[1:])
    lattice = spectral.period_lattice(spec, w, h, extra)
    curve = separation.curve_from_energy(spec, w, h, extra)
    actions, flags = spectral.action_integrals(curve)
    j = np.sqrt(np.maximum(w, 0.0))
    columns = (["h"] + [f"j_{s}" for s in range(spec.ell + 1)]
               + [f"I_{i + 1}" for i in range(spec.ell)]
               + [f"flag_{i + 1}" for i in range(spec.ell)]
               + [f"omega_{r}{c}" for r in range(lattice.omega.shape[0])
                  for c in range(lattice.omega.shape[1])])
    rows = [[h, *j, *actions, *flags, *lattice.omega.ravel()]]
    _emit(args, cfg, "actions", columns, rows)
    return 0


def cmd_equilibria(args, cfg) -> int:
    spec = _spec(cfg)
    exp = cfg.get("experiment", {})
    j_list = exp.get("j_grid") or [exp.get("j")]
    if j_list == [None]:
        raise ConfigError("experiment: equilibria needs j or j_grid")
    if len({np.size(j) for j in j_list}) != 1:
        raise ConfigError("need one momentum value per block")
    eq = dynamics.relative_equilibrium(spec, np.asarray(j_list, float))
    rows = np.column_stack([eq.j, eq.beta, eq.omega, eq.xi, eq.h, eq.energy])
    ell1 = spec.ell + 1
    columns = ([f"j_{s}" for s in range(ell1)] + ["beta"]
               + [f"omega_{s}" for s in range(ell1)] + [f"xi_{s}" for s in range(ell1)]
               + ["h", "energy"])
    _emit(args, cfg, "equilibria", columns, rows)
    return 0


def _locus_row(spec, w, s: float) -> list:
    rho1, rho2 = atlas.locus_l2(spec, w, s)
    curve = separation.build_polynomials(spec, w, (rho1, rho2))
    ok, gap, loc_err = atlas.double_root_check(curve, s)
    return [s, rho1, rho2, 1.0 if ok else 0.0, gap, loc_err]


def cmd_locus(args, cfg) -> int:
    spec = _spec(cfg)
    if spec.ell != 2:
        raise ConfigError("locus command requires a three-block spectrum (ell = 2)")
    exp = cfg.get("experiment", {})
    if "w" not in exp:
        raise ConfigError("experiment: locus needs the coupling list w")
    w = np.asarray(exp["w"], float)
    s_values = exp.get("s_values")
    if s_values is None:
        b = np.asarray(spec.b)
        s_values = list(np.linspace(b[0] + 0.05, b[1] - 0.05, 20)) + \
            list(np.linspace(b[1] + 0.05, b[2] - 0.05, 20))
    row = partial(_locus_row, spec, w)
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            rows = list(pool.map(row, map(float, s_values)))
    else:
        rows = [row(s) for s in map(float, s_values)]
    extra = ["locus-exponent: w^1 (double-root oracle)"]
    for line in atlas.locus_l2_zero_lines(spec, w):
        extra.append(f"zero-coupling line coefficients: {line}")
    _emit(args, cfg, "locus", ["s", "rho_1", "rho_2", "double_root_ok", "gap", "loc_err"],
          rows, extra_notes=extra)
    return 0


def cmd_convexity(args, cfg) -> int:
    spec = _spec(cfg)
    exp = cfg.get("experiment", {})
    if "h" not in exp:
        raise ConfigError("experiment: convexity needs the boundary energy h")
    report = atlas.convexity_check(spec, float(exp["h"]),
                                   n_samples=int(exp.get("n_samples", 64)),
                                   seed=int(cfg.get("seed", 0)),
                                   n_pairs=int(exp.get("n_pairs", 200)))
    notes = [f"h_star: {fmt(report.h_star)}"]
    if not report.threshold_met:
        notes.append(f"threshold not met: h - h_star = {fmt(report.margin)}")
        _emit(args, cfg, "convexity", ["h", "h_star", "threshold_met"],
              [[report.h, report.h_star, 0.0]], extra_notes=notes)
        return 0
    columns = (["h"] + [f"s_{k}" for k in range(spec.ell)]
               + [f"j_{s}" for s in range(spec.ell + 1)]
               + [f"omega_{s}" for s in range(spec.ell + 1)] + ["P", "O"])
    rows = [
        [report.h, *report.samples_s[k], *report.samples_j[k], *report.omegas[k],
         report.p_values[k], report.o_values[k]]
        for k in range(report.samples_s.shape[0])
    ]
    notes += [
        f"grad_max_err: {fmt(report.grad_max_err)}",
        f"hessian_second_eig_ratio: {fmt(report.hessian_second_eig_ratio)}",
        f"eigvec_max_err: {fmt(report.eigvec_max_err)}",
        f"midpoint_violations: {report.midpoint_violations}/{report.midpoint_pairs}",
        f"convex_verdict: {report.convex_verdict}",
    ]
    _emit(args, cfg, "convexity", columns, rows, extra_notes=notes)
    return 0


COMMANDS = {
    "simulate": cmd_simulate,
    "reduce": cmd_reduce,
    "separate": cmd_separate,
    "actions": cmd_actions,
    "equilibria": cmd_equilibria,
    "locus": cmd_locus,
    "convexity": cmd_convexity,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="neumann",
                                     description="degenerate Neumann system toolkit")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv=None) -> int:
    level = os.environ.get("NEUMANN_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(name)s %(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        return COMMANDS[args.command](args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OffManifoldError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SingularStratumError as exc:
        print(f"singular stratum: {exc}", file=sys.stderr)
        return 4
    except (NumericalFailure, NeumannError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
