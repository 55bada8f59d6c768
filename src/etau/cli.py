"""Command-line interface: sweeps and experiments with CSV reports.

Subcommands:

* ``catenoid-height``: asymptotic height of a catenoid, or the neck
  parameter attaining a requested height.
* ``lemmas``: one area-comparison sweep over a log grid of neck
  parameters, with both lemma bounds, the crossover flag, and the gap.
* ``isometry-bound``: sampled sup of the vertical shift of bounded
  lifts against the strict bound ``2 tau pi``.
* ``classify``: exact tall/short verdict for a curve file, and optionally
  a height profile on ``--grid`` angles (the verdict does not use it),
  read from the same sweep: ``height-profile`` CSV version 2, columns
  ``angle,height,crossings``.
* ``plateau``: connected-versus-disks race, or a single-disk solve.
* ``rectangle``: slab placement width and a rectangle boundary CSV.

All output is deterministic: identical invocations write byte-identical
files.  Each subcommand writes its files before it prints, so one that
fails (exit status 2) prints nothing to stdout.  A ``--config`` file
supplies ``key=value`` defaults for any long option of the chosen
subcommand.  ``--abs-tol`` and ``--rel-tol``
set the quadrature tolerances, and only the subcommands that integrate
(``catenoid-height``, ``lemmas`` and ``plateau --height``) take them.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Sequence

import numpy as np

from . import _csvio, barriers, catenoid, curves, isometries, plateau
from .errors import DomainError, QuadratureError, UsageError
from .models import AmbientSpace
from .numerics import ToleranceConfig

__all__ = ["main", "build_parser", "load_config"]


def load_config(path) -> dict[str, str]:
    """Read ``key=value`` lines; '#' comments and blank lines are ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(_csvio.read_ascii_lines(path), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def _ambient(args) -> AmbientSpace:
    """The ambient space of a subcommand with tolerance flags; an unset flag keeps its default."""
    given = {k: getattr(args, k) for k in ("abs_tol", "rel_tol") if getattr(args, k) is not None}
    return AmbientSpace(args.tau, ToleranceConfig(**given))


def _add_common(sp: argparse.ArgumentParser, *, tolerances: bool = False) -> None:
    sp.add_argument("--tau", type=float, default=0.0, help="bundle curvature, >= 0")
    if tolerances:
        sp.add_argument("--abs-tol", type=float)
        sp.add_argument("--rel-tol", type=float)
    sp.add_argument("--config", default=None, help="key=value defaults file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etau",
        description="Computable geometry of the homogeneous space E(-1, tau).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catenoid-height", help="asymptotic catenoid height")
    _add_common(p, tolerances=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--d", type=float, help="neck parameter")
    g.add_argument("--height", type=float, help="target height to invert")
    p.set_defaults(func=cmd_catenoid_height)

    p = sub.add_parser("lemmas", help="area lemma sweep over neck parameters")
    _add_common(p, tolerances=True)
    p.add_argument("--d-start", type=float, default=8.0)
    p.add_argument("--d-stop", type=float, default=1e5)
    p.add_argument("--d-count", type=int, default=25)
    p.add_argument("--output", default="lemmas.csv")
    p.set_defaults(func=cmd_lemmas)

    p = sub.add_parser("isometry-bound", help="vertical shift bound experiment")
    _add_common(p)
    p.add_argument(
        "--magnitudes",
        default="0.5,0.9,0.999",
        help="comma separated |f(0)| values in (0, 1)",
    )
    p.add_argument("--samples", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default="isometry_bound.csv")
    p.set_defaults(func=cmd_isometry_bound)

    p = sub.add_parser("classify", help="classify a curve file")
    _add_common(p)
    p.add_argument("--curve-file", required=True)
    p.add_argument("--grid", type=int, default=720, help="angles of the --output profile")
    p.add_argument("--output", default=None, help="height profile CSV path")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("plateau", help="discrete minimization experiments")
    _add_common(p, tolerances=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--height", type=float, help="connected-vs-disks at half-height h")
    g.add_argument(
        "--disk", type=float, help="single disk of hyperbolic radius R, as a vertical graph"
    )
    p.add_argument("--max-iterations", type=int, default=400)
    p.add_argument("--gradient-tol", type=float, default=1e-4)
    p.add_argument("--mesh-theta", type=int, default=160)
    p.add_argument("--mesh-rows", type=int, default=49)
    p.add_argument("--mesh-rings", type=int, default=48)
    p.add_argument("--off-prefix", default=None, help="export meshes as OFF files")
    p.add_argument("--output", default="plateau.csv")
    p.set_defaults(func=cmd_plateau)

    p = sub.add_parser("rectangle", help="slab width and rectangle boundary")
    _add_common(p)
    p.add_argument("--t1", type=float, required=True)
    p.add_argument("--t2", type=float, required=True)
    p.add_argument("--theta1", type=float, default=None)
    p.add_argument("--theta2", type=float, default=None)
    p.add_argument("--samples", type=int, default=721)
    p.add_argument("--output", default="rectangle.csv")
    p.set_defaults(func=cmd_rectangle)
    return parser


def cmd_catenoid_height(args) -> int:
    amb = _ambient(args)
    sup = catenoid.asymptotic_height_supremum(amb)
    if args.d is not None:
        profile = catenoid.CatenoidProfile(amb, args.d)
        h = catenoid.asymptotic_height(profile)
        print(f"tau = {amb.tau!r}")
        print(f"d = {args.d!r}")
        print(f"asymptotic_height = {h!r}")
        print(f"supremum = {sup!r}")
        print(f"gap = {sup - h!r}")
    else:
        d = catenoid.neck_parameter_for_height(amb, args.height)
        print(f"tau = {amb.tau!r}")
        print(f"height = {args.height!r}")
        print(f"d = {d!r}")
        print(f"admissible heights: (0, {sup!r})")
    return 0


_LEMMA_COLUMNS = (
    "d",
    "R",
    "feasible",
    "area_catenoid",
    "area_two_disks",
    "upper_bound",
    "lower_bound",
    "upper_holds",
    "lower_holds",
    "disks_win",
    "u_at_R",
    "height_gap",
)


def _lemma_row(amb: AmbientSpace, sup: float, comp: catenoid.AreaComparison):
    if comp.feasible:
        u = catenoid.profile_height(catenoid.CatenoidProfile(amb, comp.d), comp.R)
    else:
        u = math.nan
    return (
        comp.d,
        comp.R,
        comp.feasible,
        comp.area_catenoid,
        comp.area_two_disks,
        comp.upper_bound,
        comp.lower_bound,
        comp.upper_holds,
        comp.lower_holds,
        comp.disks_win,
        u,
        sup - u,
    )


def cmd_lemmas(args) -> int:
    amb = _ambient(args)
    if args.d_count < 2 or args.d_start <= 0 or args.d_stop <= args.d_start:
        raise UsageError("need d_stop > d_start > 0 and at least 2 grid points")
    grid = np.geomspace(args.d_start, args.d_stop, args.d_count)
    sweep = catenoid.find_crossover(amb, grid)
    sup = catenoid.asymptotic_height_supremum(amb)
    rows = [_lemma_row(amb, sup, comp) for comp in sweep.rows]
    _csvio.write_table(args.output, "lemmas", 1, _LEMMA_COLUMNS, rows)
    print(f"tau = {amb.tau!r}")
    print(f"rows = {len(rows)} -> {args.output}")
    if sweep.found:
        print(f"crossover_d = {sweep.crossover_d!r} (monotone = {sweep.monotone})")
    else:
        print("crossover_d = not found on this grid")
    return 0


def cmd_isometry_bound(args) -> int:
    amb = AmbientSpace(args.tau)
    try:
        mags = [float(s) for s in args.magnitudes.split(",") if s]
    except ValueError as exc:
        raise UsageError(f"bad --magnitudes list: {args.magnitudes!r}") from exc
    if not mags or any(not (0.0 < m < 1.0) for m in mags):
        raise UsageError("|f(0)| magnitudes must lie strictly in (0, 1)")
    bound = 2.0 * amb.tau * math.pi
    rows = []
    for m in mags:
        lift = isometries.hyperbolic_translation(amb, 2.0 * math.atanh(m))
        sup, _ = isometries.sampled_sup_shift(
            lift, n_random=args.samples, seed=args.seed
        )
        rows.append((m, sup, bound, sup / bound if bound > 0 else math.nan))
    _csvio.write_table(
        args.output,
        "isometry-bound",
        1,
        ("f0_magnitude", "sampled_sup_shift", "bound", "ratio"),
        rows,
    )
    print(f"tau = {amb.tau!r}, bound 2*tau*pi = {bound!r}")
    for m, sup, _, ratio in rows:
        print(f"|f(0)| = {m!r}: sup |t-shift| = {sup!r} (ratio {ratio!r})")
    print(f"rows = {len(rows)} -> {args.output}")
    return 0


def cmd_classify(args) -> int:
    amb = AmbientSpace(args.tau)
    comps = _csvio.read_curve_components(args.curve_file)
    curve = curves.AsymptoticCurve(
        barriers.BoundaryCurve(ths, ts, closed=True) for ths, ts in comps
    )
    result = curves.classify(amb, curve, n=args.grid)
    lines = [
        f"verdict = {result.verdict.value}",
        f"tall_threshold = {result.tall_threshold!r}",
        f"nonexistence_threshold = {result.nonexistence_threshold!r}",
        f"footprint_min_height = {result.footprint_min_height!r}",
        f"global_min_height = {result.global_min_height!r}",
    ]
    if result.witness is not None:
        lines.append(f"witness = {result.witness!r}")
    if args.output:
        profile = result.profile
        rows = [
            (float(a), float(h), int(c))
            for a, h, c in zip(profile.angles, profile.heights, profile.crossing_counts)
        ]
        _csvio.write_table(
            args.output, "height-profile", 2, ("angle", "height", "crossings"), rows
        )
        lines.append(f"rows = {len(rows)} -> {args.output}")
    print("\n".join(lines))
    return 0


def cmd_plateau(args) -> int:
    if args.disk is not None and (args.abs_tol is not None or args.rel_tol is not None):
        raise UsageError("plateau --disk integrates nothing: --abs-tol and --rel-tol do not apply")
    amb = _ambient(args)
    cfg = plateau.SolverConfig(
        max_iterations=args.max_iterations, gradient_tol=args.gradient_tol
    )
    if args.disk is not None:
        radius = math.tanh(0.5 * args.disk)
        mesh = plateau.mesh_disk(
            plateau.circle_loop(radius, 0.0, args.mesh_theta),
            args.mesh_rings,
            plateau.hyperbolic_ring_fractions(args.disk, args.mesh_rings),
        )
        opt, rep = plateau.minimize(amb, mesh, cfg, vertical=True)
        closed = catenoid.disk_area_closed_form(amb, args.disk)
        rel = abs(rep.final_area - closed) / closed
        if args.off_prefix:
            plateau.export_off(opt, f"{args.off_prefix}_disk.off")
        _csvio.write_table(
            args.output,
            "plateau-disk",
            2,
            (
                "R",
                "optimized_area",
                "closed_form",
                "rel_error",
                "iterations",
                "converged",
                "termination",
            ),
            [
                (
                    args.disk,
                    rep.final_area,
                    closed,
                    rel,
                    rep.iterations,
                    rep.converged,
                    rep.termination,
                )
            ],
        )
        print(f"disk R = {args.disk!r}: optimized = {rep.final_area!r}")
        print(f"closed form = {closed!r} (rel error {rel!r})")
        print(f"rows = 1 -> {args.output}")
        return 0
    comp = plateau.compare_connected_vs_disks(
        amb,
        args.height,
        cfg,
        n_theta=args.mesh_theta,
        n_rows=args.mesh_rows,
        n_r=args.mesh_rings,
    )
    if args.off_prefix:
        plateau.export_off(comp.annulus_mesh, f"{args.off_prefix}_annulus.off")
        plateau.export_off(comp.disks_mesh, f"{args.off_prefix}_disks.off")
    _csvio.write_table(
        args.output,
        "plateau-compare",
        2,
        (
            "h",
            "d",
            "R",
            "analytic_annulus",
            "analytic_disks",
            "optimized_annulus",
            "optimized_disks",
            "connected_wins",
            "annulus_iterations",
            "disks_iterations",
            "annulus_termination",
            "disks_termination",
        ),
        [
            (
                comp.h,
                comp.analytic.d,
                comp.analytic.R,
                comp.analytic.area_catenoid,
                comp.analytic.area_two_disks,
                comp.optimized_annulus_area,
                comp.optimized_disks_area,
                comp.connected_wins,
                comp.annulus_report.iterations,
                comp.disks_report.iterations,
                comp.annulus_report.termination,
                comp.disks_report.termination,
            )
        ],
    )
    print(f"h = {comp.h!r}: d = {comp.analytic.d!r}, R = {comp.analytic.R!r}")
    print(
        f"optimized annulus = {comp.optimized_annulus_area!r}, "
        f"optimized disks = {comp.optimized_disks_area!r}"
    )
    print(f"connected_wins = {str(comp.connected_wins).lower()}")
    print(f"rows = 1 -> {args.output}")
    return 0


def cmd_rectangle(args) -> int:
    amb = AmbientSpace(args.tau)
    if (args.theta1 is None) != (args.theta2 is None):
        raise UsageError("give both --theta1 and --theta2, or neither")
    delta = barriers.delta_for_slab(amb, args.t1, args.t2)
    lines = [f"tau = {amb.tau!r}", f"slab = ({args.t1!r}, {args.t2!r})", f"delta = {delta!r}"]
    if args.theta1 is not None:
        rect = barriers.place_rectangle(amb, args.theta1, args.theta2, args.t1, args.t2)
        loop = barriers.rectangle_boundary(rect, args.samples)
        _csvio.write_curve_components(args.output, [(loop.theta_array(), loop.t_array())])
        contained = barriers.containment_sweep(rect, args.theta1, args.theta2, args.t1, args.t2)
        lines += [
            f"h = {rect.h!r}, r = {rect.r!r}",
            f"rotation = {rect.rotation!r}, vertical_offset = {rect.vertical_offset!r}",
            f"containment = {str(contained).lower()}",
            f"samples = {len(loop.theta_array())} -> {args.output}",
        ]
    print("\n".join(lines))
    return 0


def _merge_config(base: list[str]) -> list[str]:
    # splice config-file options in right after the subcommand, before
    # parsing, so they can satisfy required options while explicit
    # command-line flags (parsed later) still win
    path = None
    for i, tok in enumerate(base):
        if tok == "--config" and i + 1 < len(base):
            path = base[i + 1]
            break
        if tok.startswith("--config="):
            path = tok.split("=", 1)[1]
            break
    if path is None or not base or base[0].startswith("-"):
        return base
    injected = []
    for key, value in load_config(path).items():
        injected.extend([f"--{key.replace('_', '-')}", value])
    return base[:1] + injected + base[1:]


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    base = list(argv) if argv is not None else sys.argv[1:]
    try:
        args = parser.parse_args(_merge_config(base))
        return args.func(args)
    except (DomainError, QuadratureError, UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
