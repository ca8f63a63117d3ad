"""Command line front end wiring the analysis/canonicalization/reconstruction pipeline.

Exit codes: 0 success, 2 umbilic points detected, 3 validation or input error,
4 incompatible invariant data, 64 usage error. Relative output paths can be
redirected with the CANONSURF_OUTDIR environment variable.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import warnings

import numpy as np

from . import canonical, compatibility, formats, invariants, reconstruction, special_surfaces
from .catalog import CATALOG_NAMES, make_entry, make_revolution_entry, sample_surface
from .errors import CanonsurfError, CompatibilityWarning, UmbilicError
from .grid import BaseIndex, Grid2
from .reports import interior

EXIT_OK = 0
EXIT_UMBILIC = 2
EXIT_VALIDATION = 3
EXIT_INCOMPATIBLE = 4
EXIT_USAGE = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # accept range values with a leading minus, e.g. --u -1:1:65
        self._negative_number_matcher = re.compile(r"^-[\d.][\d.:eE+-]*$")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_range(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"range must be min:max:count, got {text!r}")
    lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    if count < 3:
        raise ValueError("range needs at least 3 samples")
    if not hi > lo:
        raise ValueError("range needs max > min")
    return lo, (hi - lo) / (count - 1), count


def _parse_params(items):
    params = {}
    for item in items or []:
        if "=" not in item:
            raise UsageError(f"--param expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        params[key.strip()] = float(value)
    return params


def _entry_from_args(args):
    name = args.surface
    if name == "revolution":
        if not args.profile:
            raise ValueError("--surface revolution needs --profile FILE")
        return make_revolution_entry(*formats.read_profile(args.profile))
    if name not in CATALOG_NAMES:
        raise UsageError(f"unknown surface {name!r}; choose from "
                         f"{', '.join(CATALOG_NAMES)} or revolution")
    return make_entry(name, **_parse_params(args.param))


def _out_path(path: str | None):
    if path is None:
        return None
    outdir = os.environ.get("CANONSURF_OUTDIR")
    if outdir and not os.path.isabs(path):
        return os.path.join(outdir, path)
    return path


def _emit(report: dict, path: str | None) -> None:
    path = _out_path(path)
    if path:
        formats.write_json(report, path)
        print(f"report written to {path}")
    else:
        print(formats.dumps(report))


def _base_index(text: str | None, nu: int, nv: int) -> BaseIndex:
    if text:
        i0, j0 = (int(p) for p in text.split(","))
        return BaseIndex(i0, j0)
    return BaseIndex(nu // 2, nv // 2)


def _grid_block(g):
    return {"counts": [g.nu, g.nv], "origin": [g.u0, g.v0], "spacing": [g.du, g.dv]}


def _analysis(entry, jets, base):
    forms = invariants.fundamental_forms_grid(jets)
    principal = invariants.is_principal(forms.E.values, forms.F.values,
                                        forms.G.values, forms.M.values)
    curv = invariants.curvatures_grid(forms, principal_chart=principal)
    mask, umb = invariants.detect_umbilics(curv)
    ident_k = float(np.max(np.abs(curv.K.values - curv.nu1.values * curv.nu2.values)))
    ident_h = float(np.max(np.abs(2.0 * curv.H.values - curv.nu1.values - curv.nu2.values)))
    reports = [compatibility.gauss_residual_general(forms)]
    reports.extend(compatibility.codazzi_residual_general(forms))
    if principal and not umb.any:
        reports.append(compatibility.gauss_residual_principal(forms))
        reports.extend(compatibility.codazzi_residual_principal(
            curv.nu1, curv.nu2, forms.E, forms.G))
    report = {
        "format": "analysis-report/1",
        "surface": entry.name,
        "parameters": entry.parameters,
        "grid": _grid_block(jets.geometry),
        "base_index": [base.i0, base.j0],
        "principal": principal,
        "identity_max_K_minus_nu1nu2": ident_k,
        "identity_max_2H_minus_nu_sum": ident_h,
        "H_max_abs": float(np.max(np.abs(curv.H.values))),
        "K_range": [float(curv.K.values.min()), float(curv.K.values.max())],
        "umbilic": {
            "count": umb.count,
            "total": umb.total,
            "worst_index": list(umb.worst_index),
            "min_separation": umb.min_separation,
        },
        "residuals": [r.to_dict() for r in reports],
    }
    return report, forms, curv, umb


def cmd_analyze(args) -> int:
    entry = _entry_from_args(args)
    jets = sample_surface(entry, *_parse_range(args.u), *_parse_range(args.v))
    base = _base_index(args.base_index, jets.geometry.nu, jets.geometry.nv)
    report, forms, curv, umb = _analysis(entry, jets, base)
    if umb.any:
        report["umbilic"]["flagged"] = True
        _emit(report, args.output)
        print(f"umbilic points detected on {umb.count} of {umb.total} nodes", file=sys.stderr)
        return EXIT_UMBILIC
    if args.save_invariants:
        inv = _invariant_grid_from_chart(forms, curv, base, args.mode)
        formats.write_invariant_grid(inv, _out_path(args.save_invariants))
    _emit(report, args.output)
    return EXIT_OK


def _invariant_grid_from_chart(forms, curv, base, mode):
    """Invariant grid on the chart's own parameter grid (assumed canonical)."""
    a = float(forms.E.values[base.i0, base.j0])
    b = float(forms.G.values[base.i0, base.j0])
    inv = canonical.InvariantGrid("nu", curv.nu1, curv.nu2, a, b, base)
    if mode == "nu":
        return inv
    # the chart's own K and H: nu1 * nu2 and (nu1 + nu2) / 2 differ from them at
    # roundoff; H takes the sign of to_kh, which puts the larger curvature along u
    H = curv.H.like(inv.normal_sign() * curv.H.values)
    return canonical.InvariantGrid("kh", curv.K, H, *inv.kh_constants(), base)


def _canonicalize(entry, u_range, v_range, base_text: str | None, mode: str):
    """Sample a principal chart on the parsed (origin, spacing, count) ranges and
    bring it to canonical parameters; non-principal charts and umbilics raise."""
    jets = sample_surface(entry, *u_range, *v_range)
    forms = invariants.fundamental_forms_grid(jets)
    curv = invariants.curvatures_grid(forms, principal_chart=True)
    base = _base_index(base_text, jets.geometry.nu, jets.geometry.nv)
    maps = canonical.build_canonical_maps(forms.E, forms.G, curv.nu1, curv.nu2, base)
    inv = canonical.resample_to_canonical(maps, curv.nu1, curv.nu2)
    return jets, forms, curv, maps, inv.to_kh() if mode == "kh" else inv


def cmd_canonicalize(args) -> int:
    entry = _entry_from_args(args)
    jets, forms, curv, maps, inv = _canonicalize(
        entry, _parse_range(args.u), _parse_range(args.v), args.base_index, args.mode)
    formats.write_invariant_grid(inv, _out_path(args.output))
    info = {
        "format": "canonicalize-report/1",
        "surface": entry.name,
        "mode": inv.mode,
        "a": inv.a,
        "b": inv.b,
        "grid": _grid_block(inv.geometry),
        "base_index": [inv.base.i0, inv.base.j0],
        "ubar_integrand_variation": maps.ubar_integrand_variation,
        "vbar_integrand_variation": maps.vbar_integrand_variation,
    }
    print(formats.dumps(info))
    return EXIT_OK


def _check_report(inv):
    # the floor test's full-grid residual is the reported one, not evaluated again
    floor = compatibility.compatibility_floor(inv)
    rep = floor.fine if floor else compatibility.gauss_residual_canonical(inv)
    result = {
        "format": "check-report/1",
        "mode": inv.mode,
        "grid": _grid_block(inv.geometry),
        "residuals": [rep.to_dict()],
    }
    result["floor_check"] = None if floor is None else {
        "fine_max_abs": floor.fine.max_abs,
        "coarse_max_abs": floor.coarse_max_abs,
        "ratio": None if math.isinf(floor.ratio) else floor.ratio,
        "compatible": floor.compatible,
    }
    return result, floor is None or floor.compatible


def cmd_check(args) -> int:
    inv = formats.read_invariant_grid(args.input)
    result, compatible = _check_report(inv)
    _emit(result, args.output)
    return EXIT_OK if compatible else EXIT_INCOMPATIBLE


def cmd_reconstruct(args) -> int:
    inv = formats.read_invariant_grid(args.input)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("error" if args.strict else "always", CompatibilityWarning)
        mesh = reconstruction.reconstruct(inv)
    for w in caught:
        print(f"canonsurf: warning: {w.message}", file=sys.stderr)
    formats.write_obj(mesh, _out_path(args.output))
    print(f"mesh written to {_out_path(args.output)} "
          f"({inv.geometry.nu * inv.geometry.nv} vertices)")
    if args.report:
        diag = _reconstruction_diagnostics(mesh, inv)
        formats.write_json(diag, _out_path(args.report))
    return EXIT_OK


def _reconstruction_diagnostics(mesh, inv):
    E, G, L, N = reconstruction.coefficients_from_invariants(inv)
    jets = reconstruction.finite_difference_jets(mesh)
    forms = invariants.fundamental_forms_grid(jets)
    err = lambda got, want: float(np.max(np.abs(
        interior(got.values - want.values, 2))))
    i0, j0 = inv.base.i0, inv.base.j0
    return {
        "format": "reconstruction-report/1",
        "grid": _grid_block(inv.geometry),
        "max_abs_error_E": err(forms.E, E),
        "max_abs_error_G": err(forms.G, G),
        "max_abs_error_L": err(forms.L, L),
        "max_abs_error_N": err(forms.N, N),
        "base_E_minus_a": float(forms.E.values[i0, j0] - E.values[i0, j0]),
        "base_G_minus_b": float(forms.G.values[i0, j0] - G.values[i0, j0]),
    }


def _refine(axis_range, factor: int):
    """(origin, spacing, count) with factor times as many intervals over the same span."""
    lo, step, count = axis_range
    hi = lo + step * (count - 1)
    count = factor * (count - 1) + 1
    return lo, (hi - lo) / (count - 1), count


def cmd_roundtrip(args) -> int:
    entry = _entry_from_args(args)
    if args.refine < 0:
        raise ValueError("--refine must be >= 0")
    u_range, v_range = _parse_range(args.u), _parse_range(args.v)
    levels = []
    for level in range(args.refine + 1):
        jets, forms, curv, maps, inv = _canonicalize(
            entry, _refine(u_range, 2 ** level), _refine(v_range, 2 ** level),
            args.base_index, "nu")
        rep = compatibility.gauss_residual_canonical(inv)
        rep_e, rep_g = canonical.verify_canonical(
            inv,
            canonical.resample_grid(maps, forms.E, inv),
            canonical.resample_grid(maps, forms.G, inv))
        mesh = reconstruction.reconstruct(inv)
        truth = reconstruction.SurfaceMesh(canonical.resample_grid(maps, jets.x, inv))
        _, _, rms = reconstruction.align_rigid(mesh, truth)
        levels.append({
            "grid": [inv.geometry.nu, inv.geometry.nv],
            "gauss_canonical_max_abs": rep.max_abs,
            "canonical_identity_max_abs": max(rep_e.max_abs, rep_g.max_abs),
            "align_rms": rms,
        })
        print(f"level {level}: grid {inv.geometry.nu}x{inv.geometry.nv} "
              f"gauss_max {rep.max_abs:.6e} canon_max {max(rep_e.max_abs, rep_g.max_abs):.6e} "
              f"align_rms {rms:.6e}")
    orders = {}
    for key in ("gauss_canonical_max_abs", "align_rms"):
        seq = [lvl[key] for lvl in levels]
        ords = [math.log2(seq[k] / seq[k + 1]) for k in range(len(seq) - 1)
                if seq[k + 1] > 0]
        orders[key] = ords
        label = "gauss" if key.startswith("gauss") else "rms"
        for k, o in enumerate(ords):
            print(f"order({label}) level {k}->{k + 1} = {o:.3f}")
    report = {"format": "roundtrip-report/1", "surface": entry.name,
              "levels": levels, "orders": orders}
    if args.output:
        formats.write_json(report, _out_path(args.output))
    return EXIT_OK


def cmd_special(args) -> int:
    if args.case == "weingarten":
        with open(args.input, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict) or data.get("format") != "weingarten/1":
            raise ValueError("weingarten case needs a weingarten/1 file")
        field = formats.grid_field(data, "field", *formats.header_pair(data, "nu", int))
        wd = special_surfaces.WeingartenData(
            *(formats.number_list(data, key) for key in ("t", "f", "g")),
            Grid2(*formats.header_pair(data, "origin", float),
                  *formats.header_pair(data, "spacing", float), field),
            formats.header_number(data, "A"), formats.header_number(data, "B"),
            BaseIndex(*formats.header_pair(data, "base_index", int)))
        reports, skipped = [special_surfaces.weingarten_residual(wd)], []
    else:
        inv = formats.read_invariant_grid(args.input)
        K, H = (inv.geometry.like(f) for f in inv.kh_arrays())
        a, b = inv.kh_constants()
        h_const = args.mean_curvature
        if h_const is None:
            h_const = float(np.mean(H.values))
        classes = {
            "cmc": lambda: special_surfaces.cmc_residual(K, h_const, a, b),
            "minimal": lambda: special_surfaces.minimal_natural_residual(
                inv.geometry.like(inv.half_gap()), a, b),
            "flat": lambda: special_surfaces.flat_characterization(H).report,
        }
        # with "all", a class the data leaves undefined is listed, not fatal
        reports, skipped = [], []
        for name in (classes if args.case == "all" else [args.case]):
            try:
                reports.append(classes[name]())
            except CanonsurfError as exc:
                if args.case != "all":
                    raise
                skipped.append({"case": name, "error": str(exc)})
        if not reports:
            raise CanonsurfError("no special class can be evaluated: " + "; ".join(
                f"{s['case']}: {s['error']}" for s in skipped))
    result = {"format": "special-report/1", "case": args.case,
              "residuals": [r.to_dict() for r in reports]}
    if skipped:
        result["skipped"] = skipped
    _emit(result, args.output)
    return EXIT_OK


def _add_surface_flags(p):
    p.add_argument("--surface", required=True, help="catalog surface name")
    p.add_argument("--param", action="append", metavar="KEY=VALUE",
                   help="surface parameter, repeatable")
    p.add_argument("--profile", help="JSON profile file for --surface revolution")
    p.add_argument("--u", required=True, metavar="MIN:MAX:COUNT", help="u sample range")
    p.add_argument("--v", required=True, metavar="MIN:MAX:COUNT", help="v sample range")
    p.add_argument("--base-index", metavar="I,J", help="base node (default: grid center)")


def build_parser() -> _Parser:
    parser = _Parser(prog="canonsurf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("analyze", help="invariants and compatibility residuals of a chart")
    _add_surface_flags(p)
    p.add_argument("--output", help="report path (default: print to stdout)")
    p.add_argument("--save-invariants", help="also write an invariant-grid file")
    p.add_argument("--mode", choices=("nu", "kh"), default="nu")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("canonicalize", help="transform a chart to canonical parameters")
    _add_surface_flags(p)
    p.add_argument("--mode", choices=("nu", "kh"), default="nu")
    p.add_argument("--output", required=True, help="invariant-grid output path")
    p.set_defaults(func=cmd_canonicalize)

    p = sub.add_parser("check", help="canonical Gauss residual and compatibility floor")
    p.add_argument("--input", required=True, help="invariant-grid file")
    p.add_argument("--output", help="report path")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("reconstruct", help="reconstruct a mesh from invariants")
    p.add_argument("--input", required=True, help="invariant-grid file")
    p.add_argument("--output", required=True, help="OBJ output path")
    p.add_argument("--report", help="verification report path")
    p.add_argument("--strict", action="store_true",
                   help="fail (exit 4) instead of warning on incompatible data")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("roundtrip", help="analyze, canonicalize, reconstruct, align")
    _add_surface_flags(p)
    p.add_argument("--refine", type=int, default=1, help="number of grid refinements")
    p.add_argument("--output", help="report path")
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("special", help="special-class residuals (CMC, minimal, flat, Weingarten)")
    p.add_argument("--case", required=True, choices=("cmc", "minimal", "flat", "weingarten", "all"))
    p.add_argument("--input", required=True, help="invariant-grid or weingarten file")
    p.add_argument("--mean-curvature", type=float, help="H constant for the CMC case")
    p.add_argument("--output", help="report path")
    p.set_defaults(func=cmd_special)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # a non-finite result ends in a CanonsurfError or a writer's ValueError
    # below, so numpy's floating-point warnings would only repeat it
    try:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return args.func(args)
    except UsageError as exc:
        print(f"canonsurf: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UmbilicError as exc:
        print(f"canonsurf: umbilic: {exc}", file=sys.stderr)
        return EXIT_UMBILIC
    except CompatibilityWarning as exc:
        print(f"canonsurf: incompatible invariants: {exc}", file=sys.stderr)
        return EXIT_INCOMPATIBLE
    except (CanonsurfError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"canonsurf: error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
