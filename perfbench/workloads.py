"""The in-process workloads: job classes, their inputs and accuracy oracles.

Each job class makes one input from a random generator, runs it through the
public library calls a user would make (the timed part), and checks the
result against an oracle outside the timed part.  The ``*_metrics``
functions turn a traced pass into the per-layer metrics named in
``BENCHMARK.json``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from neumann import atlas, dynamics, reduction, separation, spectral
from neumann.errors import NumericalFailure
from neumann.model import random_phase_point, validate_spectrum
from neumann.reduction import regular_coordinates

import tracer as tr
from jobs import Check, JobClass

SPEC22 = validate_spectrum((0.0, 1.0), (2, 2))
SPEC212 = validate_spectrum((0.0, 1.0, 2.0), (2, 1, 2))
SPEC222 = validate_spectrum((0.0, 1.0, 2.0), (2, 2, 2))
SPEC2222 = validate_spectrum((0.0, 1.0, 2.0, 3.0), (2, 2, 2, 2))

DT = 1e-3
T_END = 1.0
#: the batch runs a quarter of T_END, so that its jobs stay below the single ones
BATCH, BATCH_T_END = 64, 0.25


def random_regular_reduced(spec, rng):
    """Random regular (xi, eta, w) with every coupling w >= 1e-3.

    Drawn as the test suite draws them: a uniform phase point, kept when its
    regular coordinates exist and are away from the chart boundary.
    """
    while True:
        p = random_phase_point(spec, rng)
        try:
            rc = regular_coordinates(spec, p)
        except Exception:
            continue
        if np.all(np.abs(rc.xi) > 1e-3) and np.all(rc.w >= 1e-3):
            return rc


def _max_drift(q: np.ndarray) -> float:
    """max_t |Q(t) - Q(0)| / max(1, |Q(0)|) over every column of q (time first)."""
    return float(np.max(np.abs(q - q[0]) / np.maximum(1.0, np.abs(q[0]))))


def _full_invariants(spec, x, y) -> np.ndarray:
    """H, C1, C2, F_sigma, W_sigma and intra-block L_ik, stacked on the last axis."""
    a = spec.a_vec
    cols = [0.5 * np.sum(y * y, -1) + 0.5 * np.sum(a * x * x, -1),
            np.sum(x * x, -1), np.sum(x * y, -1)]
    lmat = x[..., :, None] * y[..., None, :] - y[..., :, None] * x[..., None, :]
    for s in range(spec.ell + 1):
        sl = spec.block_slice(s)
        f = np.sum(x[..., sl] ** 2, -1)
        for t in range(spec.ell + 1):
            if t != s:
                f = f + (np.sum(lmat[..., sl, spec.block_slice(t)] ** 2, (-1, -2))
                         / (spec.b[s] - spec.b[t]))
        cols.append(f)
        if spec.m[s] >= 2:
            cols.append(0.5 * np.sum(lmat[..., sl, sl] ** 2, (-1, -2)))
            idx = spec.block_indices(s)
            cols += [lmat[..., i, k] for n, i in enumerate(idx) for k in idx[n + 1:]]
    return np.stack(cols, -1)


def _drift_check(drift: float, bound: float) -> Check:
    return Check(drift < bound, drift, {"drift": drift})


# -- trajectories ----------------------------------------------------------------------

def _single_make(rng):
    return random_phase_point(SPEC212, rng)


def _single_run(p0):
    traj = dynamics.integrate(SPEC212, p0, T_END, dt=DT, save_every=10)
    dynamics.drift_report(SPEC212, traj)
    return traj


def _single_check(p0, traj):
    if abs(traj.t[-1] - T_END) > 1e-12:
        return Check(False, None)
    return _drift_check(_max_drift(_full_invariants(SPEC212, traj.x, traj.y)), 1e-8)


def _batch_make(rng):
    pts = [random_phase_point(SPEC212, rng) for _ in range(BATCH)]
    return np.array([p.x for p in pts]), np.array([p.y for p in pts])


def _batch_run(xy):
    return dynamics.integrate_batch(SPEC212, xy[0], xy[1], BATCH_T_END, dt=DT, save_every=10)


def _batch_check(xy, traj):
    if traj.x.shape[1] != BATCH:
        return Check(False, None)
    return _drift_check(_max_drift(_full_invariants(SPEC212, traj.x, traj.y)), 1e-8)


def _reduced_make(rng):
    return random_regular_reduced(SPEC222, rng)


def _reduced_run(rc):
    return reduction.integrate_reduced(SPEC222, rc.w, rc.xi, rc.eta, T_END, dt=DT,
                                       save_every=10)


def _reduced_check(rc, rtraj):
    b = np.asarray(SPEC222.b)
    xi, eta = rtraj.xi, rtraj.eta
    h = 0.5 * np.sum(eta ** 2 + b * xi ** 2 + rc.w / xi ** 2, -1)
    q = np.stack([h, np.sum(xi * xi, -1), np.sum(xi * eta, -1)], -1)
    # States passing close to a barrier w/xi^2 lose digits at this fixed step:
    # of 1200 states, 1.5 % drifted past 1e-6 and the worst reached 1.9e-4.
    # Only a broken stepper should fail.
    return _drift_check(_max_drift(q), 1e-2)


def _period_make(rng):
    # theta stays above the relative-equilibrium angle (0.63 to 0.72 for these w),
    # so every state oscillates with an amplitude period_lattice accepts
    w = 0.25 * (1.0 + 0.2 * rng.uniform(-1.0, 1.0, 2))
    theta = math.pi / 4 + rng.uniform(0.0, 0.1)
    return w, np.array([math.cos(theta), math.sin(theta)]), np.zeros(2)


def _period_run(inp):
    w, xi0, eta0 = inp
    return dynamics.measure_period(SPEC22, w, xi0, eta0, dt=DT)


def _period_check(inp, period):
    w, xi0, eta0 = inp
    h = reduction.reduced_hamiltonian(SPEC22, w, xi0, eta0)
    predicted = 2.0 * math.pi * spectral.period_lattice(SPEC22, w, h).t[0, 0]
    err = abs(period - predicted) / predicted
    return Check(err < 1e-6, err, {"period": err})


# A round of 20 jobs in three latency bands: batch (25 %), single and reduced
# (60 %, holding p50), measure_period (15 %, holding p90).  Each percentile sits
# in the lower half of its band, so it stays there when contention on the host
# slows some of the band's jobs.
TRAJECTORIES = [
    JobClass("integrate", 6, _single_make, _single_run, _single_check),
    JobClass("integrate_reduced", 6, _reduced_make, _reduced_run, _reduced_check),
    JobClass("integrate_batch", 5, _batch_make, _batch_run, _batch_check),
    JobClass("measure_period", 3, _period_make, _period_run, _period_check),
]


# -- spectral --------------------------------------------------------------------------

@dataclass
class ActionsResult:
    state: Any
    rho: np.ndarray
    curve: Any
    roots: np.ndarray
    lattice: Any


def _actions_make(spec):
    def make(rng):
        rc = random_regular_reduced(spec, rng)
        n_params = spec.ell + spec.ell + 1   # h, rho_2..rho_ell, one J per block
        return spec, rc, int(rng.integers(n_params))
    return make


def _actions_run(inp):
    spec, rc, _ = inp
    state = separation.to_separated(spec, rc.w, rc.xi, rc.eta)
    rho = separation.separation_constants(spec, rc.w, state.u, state.p)
    curve = separation.build_polynomials(spec, rc.w, rho)
    roots = spectral.branch_points(curve)
    spectral.action_integrals(curve)
    h = float(rho[0] + separation.energy_shift(spec))
    lattice = spectral.period_lattice(spec, rc.w, h, tuple(rho[1:]))
    return ActionsResult(state, rho, curve, roots, lattice)


def _lattice_column(spec, w, rho, k: int) -> np.ndarray:
    """Column k of dI/d(h, rho_2.., J) by centred differences with one Richardson step.

    Step 2e-4 and quadrature tolerance 1e-14 both differ from the library's
    defaults; at steps 1e-4, 2e-4 and 4e-4 these columns agree to about 1e-9,
    below the library's own error of 1e-9 to 3e-8.  Near the discriminant the
    perturbed curve can lose its real branch points; the step then shrinks to
    2e-5.
    """
    ell = spec.ell
    theta = np.array([rho[0] + separation.energy_shift(spec), *rho[1:], *np.sqrt(w)])

    def actions(t):
        ww = t[ell:] ** 2
        curve = separation.curve_from_energy(spec, ww, t[0], tuple(t[1:ell]))
        return spectral.action_integrals(curve, tol=1e-14)[0]

    def central(delta):
        tp, tm = theta.copy(), theta.copy()
        tp[k] += delta
        tm[k] -= delta
        return (actions(tp) - actions(tm)) / (2.0 * delta)

    for rel_step in (2e-4, 2e-5):
        step = rel_step * max(1.0, abs(theta[k]))
        try:
            return (4.0 * central(0.5 * step) - central(step)) / 3.0
        except NumericalFailure:
            if rel_step == 2e-5:
                raise


def _actions_check(inp, res: ActionsResult):
    spec, rc, column = inp
    curve = res.curve
    scale = float(np.max(np.abs(curve.b)) + 1.0)
    if res.roots.size != 2 * spec.ell + 1:
        return Check(False, None)
    dr = separation.poly_der(curve.r)
    branch = max(abs(curve.evaluate_exact(float(z)))
                 / (abs(float(separation.poly_eval(dr, z))) * scale) for z in res.roots)
    residue = max(abs(spectral.trivial_action_residue(curve, s) - math.sqrt(rc.w[s]))
                  / math.sqrt(rc.w[s]) for s in range(spec.ell + 1))
    member = 0.0
    for u, p in zip(res.state.u, res.state.p):
        zeta2 = (2.0 * float(np.prod(u - curve.b)) * p) ** 2
        size = float(np.sum(np.abs(curve.r) * abs(u) ** np.arange(curve.r.size)[::-1]))
        member = max(member, abs(curve.evaluate(u) - zeta2) / size)
    top = res.lattice.t[:spec.ell, column]
    col = _lattice_column(spec, rc.w, res.rho, column)
    lattice = float(np.max(np.abs(top - col)) / max(float(np.max(np.abs(col))), 1e-300))
    ok = branch < 1e-10 and residue < 1e-10 and member < 1e-10 and lattice < 1e-6
    return Check(ok, max(branch, residue, member, lattice),
                 {"branch_residual": branch, "lattice_rel_err": lattice})


# Bands: genus 1 (25 %), genus 2 (55 %, holding p50), genus 3 (20 %, holding p90
# at its median, where the cost spread between states matters least).
SPECTRAL = [
    JobClass("actions_l2", 11, _actions_make(SPEC222), _actions_run, _actions_check),
    JobClass("actions_l1", 5, _actions_make(SPEC22), _actions_run, _actions_check),
    JobClass("actions_l3", 4, _actions_make(SPEC2222), _actions_run, _actions_check),
]


# -- atlas -----------------------------------------------------------------------------

STRATUM_SAMPLES = 8
LOCUS_POINTS = 6  # per spectral gap


def _chamber_point(rng, b, margin):
    return np.array([rng.uniform(b[k] + margin, b[k + 1] - margin) for k in range(b.size - 1)])


def _double_root_err(curve, s) -> tuple:
    ok, gap, loc = atlas.double_root_check(curve, float(s))
    scale = float(np.max(np.abs(curve.b)) + 1.0)
    return ok, max(gap, loc) / scale, gap / scale


def _stratum_make(rng):
    b = np.asarray(SPEC222.b)
    return [(_chamber_point(rng, b, 0.02), b[0] - rng.uniform(0.1, 3.0))
            for _ in range(STRATUM_SAMPLES)]


def _stratum_run(points):
    out = []
    for s, r in points:
        sample = atlas.equilibrium_stratum(SPEC222, s, r)
        out.append((sample, dynamics.relative_equilibrium(SPEC222, sample.j)))
    return out


def _stratum_check(points, out):
    ok, err, gap_max = True, 0.0, 0.0
    for (s, r), (sample, eq) in zip(points, out):
        curve = separation.build_polynomials(SPEC222, sample.w, sample.rho)
        for sk in s:
            good, e, gap = _double_root_err(curve, sk)
            ok, err, gap_max = ok and good, max(err, e), max(gap_max, gap)
        beta_err = abs(eq.beta - r) / max(1.0, abs(r))
        h_err = abs(eq.h - sample.h_ec) / max(1.0, abs(sample.h_ec))
        ok = ok and beta_err < 1e-10 and h_err < 1e-10
        err = max(err, beta_err, h_err)
    return Check(ok, err, {"double_root_gap": gap_max})


#: couplings of acceptance criterion 10.  For some other couplings the locus has
#: cusps inside the gaps, where np.roots cannot certify the double root
#: (gap ~ eps^(1/3)) and double_root_check fails; see ROADMAP open item 1.
LOCUS_W = np.array([0.04, 0.09, 0.0625])


def _locus_make(rng):
    b = np.asarray(SPEC222.b)
    return LOCUS_W, [rng.uniform(b[k] + 0.05, b[k + 1] - 0.05)
                     for k in range(2) for _ in range(LOCUS_POINTS)]


def _locus_run(inp):
    w, s_values = inp
    out = []
    for s in s_values:
        rho = atlas.locus_l2(SPEC222, w, s)
        curve = separation.build_polynomials(SPEC222, w, rho)
        out.append((rho, atlas.double_root_check(curve, s)))
    return out


def _locus_check(inp, out):
    w, s_values = inp
    ok, err, gap_max = True, 0.0, 0.0
    for s, (rho, _) in zip(s_values, out):
        good, e, gap = _double_root_err(separation.build_polynomials(SPEC222, w, rho), s)
        exact = np.array(atlas.locus_l2_exact(SPEC222, w, s))
        rho_err = float(np.max(np.abs(np.asarray(rho) - exact)) / max(1.0, np.max(np.abs(exact))))
        ok = ok and good and rho_err < 1e-10
        err, gap_max = max(err, e, rho_err), max(gap_max, gap)
    return Check(ok, err, {"double_root_gap": gap_max})


def _polyhedron_make(spec, n):
    def make(rng):
        h0 = 10.0 ** rng.uniform(2.0, 2.5)
        return spec, n, [h0, 100.0 * h0]
    return make


def _polyhedron_run(inp):
    spec, n, h_values = inp
    return atlas.polyhedron_limit(spec, h_values, n_samples=n)


def _polyhedron_check(inp, rep):
    spec, n, h_values = inp
    b = np.asarray(spec.b)
    a_prime = np.array([np.prod(b[k] - np.delete(b, k)) for k in range(b.size)])
    err = 0.0
    for idx, h in enumerate(h_values):
        r = -h - 2.0 * rep.samples_s.sum(axis=1)
        prod = np.prod(b[None, :, None] - rep.samples_s[:, None, :], axis=2)
        j = np.sqrt(b[None, :] - r[:, None]) * prod / a_prime / math.sqrt(h)
        err = max(err, float(np.max(np.abs(rep.rescaled_j[idx] - j) / np.abs(j))))
    factor = rep.deviations[0] / rep.deviations[1]
    ok = err < 1e-12 and 50.0 <= factor <= 200.0
    if spec.ell == 1:
        ok = ok and float(np.max(np.abs(rep.rescaled_j[-1].sum(axis=1) - 1.0))) < 5e-4
    else:
        ok = ok and rep.ruled_second_diff < 1e-9
        err = max(err, rep.ruled_second_diff)
    return Check(ok, err)


def _convexity_make(spec, dh):
    def make(rng):
        return spec, atlas.convexity_threshold(spec) + dh, int(rng.integers(2 ** 31))
    return make


def _convexity_run(inp):
    spec, h, seed = inp
    return atlas.convexity_check(spec, h, seed=seed)


def _convexity_check(inp, rep):
    ok = (rep.threshold_met and rep.convex_verdict and rep.grad_max_err < 1e-6
          and rep.hessian_second_eig_ratio < 1e-8 and rep.midpoint_violations == 0)
    err = max(rep.grad_max_err, rep.hessian_second_eig_ratio, rep.eigvec_max_err)
    return Check(ok, err, {"grad_err": rep.grad_max_err,
                           "midpoint_violations": rep.midpoint_violations})


# A round of 40 jobs.  Bands: stratum sweeps (30 %), locus sweeps (45 %, holding
# p50), then polyhedron and convexity at genus 1, then the genus-2 convexity
# checks and polyhedron limits (15 %, holding p90).
ATLAS = [
    JobClass("stratum_sweep", 12, _stratum_make, _stratum_run, _stratum_check),
    JobClass("locus_sweep", 18, _locus_make, _locus_run, _locus_check),
    JobClass("polyhedron_l1", 2, _polyhedron_make(SPEC22, 101), _polyhedron_run,
             _polyhedron_check),
    JobClass("convexity_l1_h1", 1, _convexity_make(SPEC22, 1.0), _convexity_run,
             _convexity_check),
    JobClass("convexity_l1_h10", 1, _convexity_make(SPEC22, 10.0), _convexity_run,
             _convexity_check),
    JobClass("convexity_l2_h1", 2, _convexity_make(SPEC222, 1.0), _convexity_run,
             _convexity_check),
    JobClass("convexity_l2_h10", 2, _convexity_make(SPEC222, 10.0), _convexity_run,
             _convexity_check),
    JobClass("polyhedron_l2", 2, _polyhedron_make(SPEC222, 21), _polyhedron_run,
             _polyhedron_check),
]


def qtilde_cache_info():
    return separation._qtilde_exact.cache_info()


# -- per-layer metrics from a traced pass ------------------------------------------------

class Pass:
    """What a traced pass left behind: aggregated spans, counters and job records."""

    def __init__(self, tracer, jobs, extra=None):
        self.spans = tracer.spans
        self.agg = tr.aggregate(self.spans)
        self.counts = tracer.counts
        self.values = tracer.values
        self.jobs = jobs
        self.extra = extra or {}

    def row(self, name):
        return self.agg.get(name, {"calls": 0, "ns": 0, "self_ns": 0})

    def mean_ms(self, name):
        row = self.row(name)
        return row["ns"] / row["calls"] / 1e6

    def mean_us(self, name):
        return 1e3 * self.mean_ms(name)

    def per_job(self, name):
        return self.row(name)["calls"] / len(self.jobs)

    def share(self, names, key="self_ns"):
        """Time in the named spans as a share of the jobs' wall time."""
        return sum(self.row(n)[key] for n in names) / self.row("job")["ns"]

    def _class_spans(self, name, job_class):
        return [s for s in self.spans if s[0] == name and s[4][0] == job_class]

    def class_ms(self, name, job_class):
        spans = self._class_spans(name, job_class)
        return sum(s[2] - s[1] for s in spans) / len(spans) / 1e6

    def class_calls(self, name, job_class):
        return len(self._class_spans(name, job_class))

    def info_max(self, key):
        return max(j.info[key] for j in self.jobs if key in j.info)

    def info_sum(self, key):
        return sum(j.info[key] for j in self.jobs if key in j.info)

    def count_under(self, name, enclosing=None):
        return sum(n for (fn, enc), n in self.counts.items()
                   if fn == name and (enclosing is None or enc == enclosing))


def trajectories_metrics(p: Pass) -> dict:
    steps = {n: p.values[f"steps:{n}"] for n in tr.STEPPERS}
    return {
        "dynamics.integrate.ms": (p.mean_ms("dynamics.integrate"), "ms"),
        "dynamics.us_per_step": (p.row("dynamics.integrate")["ns"] / 1e3
                                 / steps["dynamics.integrate"], "us"),
        "dynamics.integrate_batch.ms": (p.mean_ms("dynamics.integrate_batch"), "ms"),
        "dynamics.us_per_traj_step_batched": (p.row("dynamics.integrate_batch")["ns"] / 1e3
                                              / steps["dynamics.integrate_batch"], "us"),
        "dynamics.traj_steps": (sum(steps.values()) / len(p.jobs), "count"),
        "dynamics.conserved_series.ms": (p.mean_ms("dynamics.conserved_series"), "ms"),
        "dynamics.measure_period.ms": (p.mean_ms("dynamics.measure_period"), "ms"),
        "dynamics.measure_period.field_evals": (
            p.count_under("reduction.reduced_vector_field", "dynamics.measure_period")
            / p.row("dynamics.measure_period")["calls"], "count"),
        "reduction.integrate_reduced.ms": (p.mean_ms("reduction.integrate_reduced"), "ms"),
        "reduction.us_per_step": (p.row("reduction.integrate_reduced")["ns"] / 1e3
                                  / steps["reduction.integrate_reduced"], "us"),
        "model.project_to_manifold.calls": (
            p.count_under("model.project_to_manifold") / len(p.jobs), "count"),
        "dynamics.max_rel_drift": (p.info_max("drift"), "1"),
        "dynamics.period_rel_err": (p.info_max("period"), "1"),
        "trajectories.stepper_self_share": (p.share(
            ["dynamics.integrate", "dynamics.integrate_batch", "dynamics.measure_period",
             "reduction.integrate_reduced"]), "1"),
    }


def spectral_metrics(p: Pass) -> dict:
    lattices = p.row("spectral.period_lattice")["calls"]
    return {
        "separation.to_separated.us": (p.mean_us("separation.to_separated"), "us"),
        "separation.separation_constants.us": (p.mean_us("separation.separation_constants"),
                                               "us"),
        "separation.build_polynomials.calls": (p.per_job("separation.build_polynomials"),
                                               "count"),
        "separation.build_polynomials.us": (p.mean_us("separation.build_polynomials"), "us"),
        "spectral.branch_points.calls": (p.per_job("spectral.branch_points"), "count"),
        "spectral.branch_points.us": (p.mean_us("spectral.branch_points"), "us"),
        "spectral.branch_points.per_action_set.l2": (
            p.class_calls("spectral.branch_points", "actions_l2")
            / p.class_calls("spectral.action_integrals", "actions_l2"), "count"),
        "spectral.branch_points.per_action_set.l3": (
            p.class_calls("spectral.branch_points", "actions_l3")
            / p.class_calls("spectral.action_integrals", "actions_l3"), "count"),
        "spectral.action_integrals.calls": (
            tr.under(p.spans, "spectral.action_integrals", "spectral.period_lattice")
            / lattices, "count"),
        "spectral.period_lattice.ms": (p.mean_ms("spectral.period_lattice"), "ms"),
        "spectral.period_lattice.ms.l2": (p.class_ms("spectral.period_lattice", "actions_l2"),
                                          "ms"),
        "spectral.period_lattice.ms.l3": (p.class_ms("spectral.period_lattice", "actions_l3"),
                                          "ms"),
        "spectral.period_lattice.share": (p.share(["spectral.period_lattice"], "ns"), "1"),
        "spectral.quad_nodes": (p.values["quad_evaluated"]
                                / p.row("spectral.action_integral")["calls"], "count"),
        "spectral.quad_useful_ratio": (p.values["quad_accepted"] / p.values["quad_evaluated"],
                                       "1"),
        "spectral.lattice_rel_err": (p.info_max("lattice_rel_err"), "1"),
        "spectral.branch_residual": (p.info_max("branch_residual"), "1"),
        "spectral.near_critical_warnings": (
            sum(j.warnings.get("NearCriticalWarning", 0) for j in p.jobs), "count"),
        "separation.chart_warnings": (
            sum(j.warnings.get("NearSingularChartWarning", 0) for j in p.jobs), "count"),
    }


def atlas_metrics(p: Pass) -> dict:
    hits, misses = p.extra["qtilde_hits"], p.extra["qtilde_misses"]
    return {
        "dynamics.relative_equilibrium.calls": (p.per_job("dynamics.relative_equilibrium"),
                                                "count"),
        "dynamics.relative_equilibrium.us": (p.mean_us("dynamics.relative_equilibrium"), "us"),
        "separation.qtilde_coeffs.calls": (p.per_job("separation.qtilde_coeffs"), "count"),
        "separation.qtilde_coeffs.us": (p.mean_us("separation.qtilde_coeffs"), "us"),
        "separation.qtilde_cache_hit_ratio": (hits / max(1, hits + misses), "1"),
        "separation.build_polynomials.calls.atlas": (
            p.per_job("separation.build_polynomials"), "count"),
        "separation.build_polynomials.us.atlas": (p.mean_us("separation.build_polynomials"),
                                                  "us"),
        "atlas.convexity_check.ms": (p.mean_ms("atlas.convexity_check"), "ms"),
        "atlas.polyhedron_limit.ms": (p.mean_ms("atlas.polyhedron_limit"), "ms"),
        "atlas.equilibrium_stratum.us": (p.mean_us("atlas.equilibrium_stratum"), "us"),
        "atlas.double_root_check.us": (p.mean_us("atlas.double_root_check"), "us"),
        "atlas.resolve_locus_exponent.calls": (p.per_job("atlas.resolve_locus_exponent"),
                                               "count"),
        "atlas.double_root_gap": (p.info_max("double_root_gap"), "1"),
        "atlas.grad_err": (p.info_max("grad_err"), "1"),
        "atlas.midpoint_violations": (p.info_sum("midpoint_violations"), "count"),
        "atlas.releq_exact_self_share": (p.share(
            ["dynamics.relative_equilibrium", "separation.qtilde_coeffs",
             "separation.build_polynomials", "separation.poly_from_roots"]), "1"),
    }
