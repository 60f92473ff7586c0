"""Command-line front end.

Subcommands: ``gauduchon``, ``stability``, ``solve``, ``destabilize``,
``selftest``.  A config file (INI sections) fixes the run; ``solve`` chains
the Gauduchon factor, the background normalization, the continuity method,
and, on blow-up, the destabilizer.  Outputs are deterministic given the
seed: a CSV convergence log (columns step,epsilon,residual,m,det_defect),
columnar field dumps, and JSON reports whose numeric entries carry the
tolerance they were tested against.

Exit codes: 0 success, 1 validation error, 2 solver failure (including a
``converged`` solve whose K_defect is above its tolerance), 3 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import errors
from .bundle import canonical_metric, hermitize, random_hermitian_metric
from .config import RunConfig, load_config
from .fields_io import dump_field, load_field

K_DEFECT_TOL = 1e-6  # sup |K(h) - gamma I| a converged solve must reach


def _report(path: Path, payload: dict, quiet: bool):
    text = json.dumps(payload, indent=2, sort_keys=True, default=float)
    path.write_text(text + "\n")
    if not quiet:
        print(text)


def _write_log(path: Path, history):
    with open(path, "w") as fh:
        fh.write("step,epsilon,residual,m,det_defect\n")
        for i, (eps, res, m, det) in enumerate(history):
            fh.write(f"{i},{eps:.17g},{res:.17g},{m:.17g},{det:.17g}\n")


def _prepare(cfg: RunConfig):
    cfg.validate()
    torus = cfg.torus()
    metric = cfg.metric(torus)
    bundle = cfg.bundle()
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return torus, metric, bundle, out


def cmd_gauduchon(cfg: RunConfig) -> int:
    from .gauduchon import find_gauduchon_factor

    torus, metric, _, out = _prepare(cfg)
    res = find_gauduchon_factor(metric)
    dump_field(out / "gauduchon_factor.txt", torus,
               res.factor.astype(complex), "scalar")
    _report(out / "gauduchon_report.json", {
        "q_residual": {"value": res.q_residual, "tolerance": 1e-8},
        "gauduchon_residual": {"value": res.residual, "tolerance": 1e-8},
        "factor_min": res.factor.min(),
        "kernel_gap": res.kernel_gap,
        "already_gauduchon": res.already_gauduchon,
        "iterations": res.iterations,
        "kernel_solve_converged": res.converged,
        "q_applications": res.q_applications,
        "lanczos_steps": res.lanczos_steps,
        "lobpcg_iterations": res.lobpcg_iterations,
        "lobpcg_converged": res.lobpcg_converged,
    }, cfg.quiet)
    return 0


def cmd_stability(cfg: RunConfig) -> int:
    from .gauduchon import find_gauduchon_factor
    from .stability import INVARIANCE_TOL, stability_verdict

    torus, metric, bundle, out = _prepare(cfg)
    gG = find_gauduchon_factor(metric).metric
    rep = stability_verdict(bundle, torus, gG)
    payload = {
        "degree": {"value": rep.degree, "tolerance": rep.slope_tolerance},
        "slope": {"value": rep.slope, "tolerance": rep.slope_tolerance},
        "verdict": rep.verdict,
        "label": rep.label,
        "simplicity": rep.simplicity,
        "witnesses": [
            {"rank": F.rank,
             "basis": [[z.real, z.imag] for z in F.basis.ravel()],
             "slope": mu,
             "invariance_residual": {"value": F.invariance_residual,
                                     "tolerance": INVARIANCE_TOL}}
            for F, mu in rep.witnesses
        ],
        "splitting": None if rep.splitting is None else {
            "rank": rep.splitting[0].rank,
            "V_basis": [[z.real, z.imag]
                        for z in rep.splitting[0].basis.ravel()],
        },
    }
    _report(out / "stability_report.json", payload, cfg.quiet)
    return 0


def cmd_solve(cfg: RunConfig) -> int:
    from .continuation import WORK_COUNTERS, run_continuation
    from .gauduchon import find_gauduchon_factor

    torus, metric, bundle, out = _prepare(cfg)
    gres = find_gauduchon_factor(metric)
    gG = gres.metric
    h0p = canonical_metric(bundle, torus)
    if cfg.perturb_amplitude > 0:
        rng = np.random.default_rng(cfg.seed)
        h0p = h0p @ random_hermitian_metric(
            bundle, torus, rng, amplitude=cfg.perturb_amplitude,
            modes=cfg.perturb_modes)
        h0p = hermitize(h0p)
    result = run_continuation(
        bundle, torus, gG, h0p,
        factor=cfg.epsilon_factor, eps_min=cfg.epsilon_min,
        newton_tol=cfg.newton_tol, max_steps=cfg.max_steps, m_max=cfg.m_max,
    )
    _write_log(out / "convergence_log.csv", result.history)
    gauge = bundle.gauge(torus)
    payload = {
        "status": result.status,
        "gamma": result.gamma,
        "gauduchon_residual": {"value": gres.residual, "tolerance": 1e-8},
        "normalization": {
            "trK_defect": {"value": result.diagnostics.get("trK_defect"),
                           "tolerance": 10.0 / torus.resolution**2},
        },
        "steps": len(result.history),
        **{key: result.diagnostics[key] for key in WORK_COUNTERS},
    }
    if result.status == "converged":
        payload["K_defect"] = {"value": result.K_defect, "tolerance": K_DEFECT_TOL}
        dump_field(out / "final_metric.txt", torus,
                   gauge.herm_to_flat(result.final_metric), "hermitian")
    if result.status == "blowup":
        payload["m_at_blowup"] = result.diagnostics.get("m_at_blowup")
        payload["eps_at_blowup"] = result.diagnostics.get("eps_at_blowup")
        dump_field(out / "blowup_f.txt", torus,
                   gauge.end_to_flat(result.blowup_data), "endo")
        dump_field(out / "background_h0.txt", torus,
                   gauge.herm_to_flat(result.h0), "hermitian")
        _destabilize_state(cfg, torus, gG, bundle, result.blowup_data,
                           result.h0, out)
    failure = None
    if result.status == "max-iters":
        payload["message"] = result.diagnostics["message"]
        failure = ("continuity method stopped without convergence or blow-up: "
                   f"{payload['message']}")
    if result.status == "converged" and not result.K_defect <= K_DEFECT_TOL:
        failure = (f"converged run has K_defect {result.K_defect:.3e} above its "
                   f"tolerance {K_DEFECT_TOL:.1e}")
    _report(out / "solve_report.json", payload, cfg.quiet)
    if failure is not None:
        print(f"solver failure: {failure}", file=sys.stderr)
        return 2
    return 0


def _destabilize_state(cfg, torus, gG, bundle, f_gauge, h0_gauge, out):
    from .destabilizer import destabilize

    rep = destabilize(bundle, torus, h0_gauge, gG, f_gauge)
    _report(out / "destabilizer_report.json", rep.summary(), cfg.quiet)


def cmd_destabilize(cfg: RunConfig, state_dir: str) -> int:
    from .gauduchon import find_gauduchon_factor

    torus, metric, bundle, out = _prepare(cfg)
    gG = find_gauduchon_factor(metric).metric
    state = Path(state_dir if state_dir else cfg.out_dir)

    def load(name, kind):
        dim, N, tag, rank, values = load_field(state / name)
        if (tag, dim, N, rank) != (kind, torus.dim, torus.resolution, bundle.rank):
            raise errors.ValidationError(
                f"{name} holds a {tag} field of rank {rank} on T^{dim} N={N}; the "
                f"config needs a {kind} field of rank {bundle.rank} on "
                f"T^{torus.dim} N={torus.resolution}")
        return values

    gauge = bundle.gauge(torus)
    _destabilize_state(cfg, torus, gG, bundle,
                       gauge.end_to_gauge(load("blowup_f.txt", "endo")),
                       gauge.herm_to_gauge(load("background_h0.txt", "hermitian")),
                       out)
    return 0


def cmd_selftest(cfg: RunConfig) -> int:
    from .selftest import run_selftest

    failures = run_selftest(quiet=cfg.quiet, seed=cfg.seed)
    if failures:
        print(f"selftest: {failures} failed checks", file=sys.stderr)
        return 3
    if not cfg.quiet:
        print("selftest: all checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="affinehe",
        description="Gauduchon factors, stability verdicts and "
                    "Hermitian-Einstein metrics for flat bundles over "
                    "affine tori.",
    )
    p.add_argument("command",
                   choices=["gauduchon", "stability", "solve", "destabilize",
                            "selftest"])
    p.add_argument("--config", default=None, help="run configuration file")
    p.add_argument("--out", default=None, help="output directory override")
    p.add_argument("--seed", type=int, default=None, help="random seed override")
    p.add_argument("--grid", type=int, default=None,
                   help="grid resolution override")
    p.add_argument("--state", default=None,
                   help="directory holding a dumped blow-up state "
                        "(destabilize only)")
    p.add_argument("--quiet", action="store_true")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        if args.out is not None:
            cfg.out_dir = args.out
        if args.seed is not None:
            cfg.seed = args.seed
        if args.grid is not None:
            cfg.resolution = args.grid
        cfg.quiet = args.quiet
        if args.command == "destabilize":
            return cmd_destabilize(cfg, args.state)
        return {"selftest": cmd_selftest, "gauduchon": cmd_gauduchon,
                "stability": cmd_stability, "solve": cmd_solve}[args.command](cfg)
    except errors.ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except errors.SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    except errors.InvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
