"""Command-line front end: compute | sweep | dmax | nuscan | figure | verify.

Lengths are in sigma units, energies in 1/sigma, results per lambda^2.  A
line-oriented `key = value` config file (UTF-8, `#` comments) supplies
defaults; flags override it; unknown keys are rejected.  Exit codes: 0 on
success, 1 on computation/verification failure, 2 on usage errors.
"""

import json
import os
import sys
from pathlib import Path

import click
import numpy as np

from ._version import __version__
from .entanglement import concurrence, d_max, nu_extremum, opposite_sides_terminal_l, sweep
from .errors import DivergentOverlap, InvalidParameter, UnknownPreset
from .geometry import Alignment, ConeParameter, PairConfig, radial_pair
from .presets import FIGURES, _materialize_dmax, build_figure
from .quadrature import Bracket
from .serialize import sweep_to_csv, sweep_to_dict
from .verification import run_verification

THREADS_ENV = "CONICAL_HARVEST_THREADS"

ALIGNMENT_NAMES = [m.value for m in Alignment]


def _parse_config_file(path):
    values = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise click.UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        values[key.replace("-", "_")] = value
    return values


def _merge_config(flags, config_path, schema, required=()):
    """flags (non-None) > config file > schema defaults; unknown keys rejected."""
    merged = dict(flags)
    if config_path is not None:
        file_values = _parse_config_file(config_path)
        for key, raw in file_values.items():
            if key not in schema:
                raise click.UsageError(f"unknown config key '{key}' in {config_path}")
            caster = schema[key][0]
            try:
                value = caster(raw)
            except (TypeError, ValueError) as exc:
                raise click.UsageError(f"config key '{key}': {exc}") from exc
            if merged.get(key) is None:
                merged[key] = value
    for key, (_, default) in schema.items():
        if merged.get(key) is None:
            merged[key] = default
    for key in required:
        if merged.get(key) is None:
            raise click.UsageError(f"missing required option --{key.replace('_', '-')}")
    return merged


def _boolish(raw):
    if isinstance(raw, bool):
        return raw
    lowered = str(raw).strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _alignment(raw):
    try:
        return Alignment.from_string(str(raw)).value
    except InvalidParameter as exc:
        raise ValueError(str(exc)) from None


def _validated_pair(params):
    """Build (PairConfig, ConeParameter) from merged CLI params, as usage errors."""
    try:
        cone = ConeParameter(params["nu"])
        config = PairConfig(Alignment.from_string(params["alignment"]),
                            l=params["l"], d=params["d"], gap=params["gap"])
    except InvalidParameter as exc:
        raise click.UsageError(str(exc)) from exc
    return config, cone


def _threads(params):
    env = os.environ.get(THREADS_ENV)
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            raise click.UsageError(f"{THREADS_ENV} must be an integer, got {env!r}")
    return max(1, int(params.get("threads") or 1))


def _emit(text, out_path):
    if out_path is None:
        click.echo(text, nl=not text.endswith("\n"))
    else:
        Path(out_path).write_text(text, encoding="utf-8")


def _json_text(payload):
    return json.dumps(payload, indent=2) + "\n"


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
@click.version_option(version=__version__, prog_name="conical-harvest")
def main():
    """Entanglement-harvesting observables near a cosmic string."""


_COMMON_SCHEMA = {
    "alignment": (_alignment, None),
    "nu": (float, 1.0),
    "l": (float, 0.0),
    "d": (float, None),
    "gap": (float, None),
    "tol": (float, 1e-10),
    "out": (str, None),
    "format": (str, "json"),
}


@main.command()
@click.option("--config", type=click.Path(exists=True, dir_okay=False), default=None,
              help="key = value defaults file")
@click.option("--alignment", type=click.Choice(ALIGNMENT_NAMES), default=None)
@click.option("--nu", type=float, default=None, help="deficit-angle parameter (>= 1)")
@click.option("--l", type=float, default=None, help="detector-to-string distance (sigma units)")
@click.option("--d", type=float, default=None, help="interdetector separation (sigma units)")
@click.option("--gap", type=float, default=None, help="energy gap Omega*sigma")
@click.option("--tol", type=float, default=None, help="quadrature tolerance")
@click.option("--out", type=click.Path(writable=True), default=None)
def compute(config, **flags):
    """Single-point P_A, P_B, |X|, concurrence with full term-level breakdowns."""
    params = _merge_config(flags, config, _COMMON_SCHEMA, required=("alignment", "d", "gap"))
    pair, cone = _validated_pair(params)
    try:
        result = concurrence(pair, cone, tol=params["tol"])
    except DivergentOverlap as exc:
        _emit(_json_text({"error": {
            "kind": "divergent_overlap",
            "message": str(exc),
            "image_index": exc.image_index,
            "argument": exc.argument,
        }}), params["out"])
        sys.exit(1)

    terms = [{"m": m, "weight": weight, "f_argument": z,
              "x_term_re": x_term.real, "x_term_im": x_term.imag}
             for m, weight, z, x_term in result.correlation.image_terms]

    rho_a, rho_b = radial_pair(pair)
    payload = {
        "version": __version__,
        "config": {"alignment": pair.alignment.value, "nu": cone.nu, "l": pair.l,
                   "d": pair.d, "gap": pair.gap, "rho_A": rho_a, "rho_B": rho_b},
        "P_A_per_lambda2": result.response_a.total,
        "P_B_per_lambda2": result.response_b.total,
        "abs_X_per_lambda2": result.abs_x,
        "concurrence_per_lambda2": result.concurrence,
        "diverged": result.diverged,
        "breakdowns": {
            "P_A": {"flat": result.response_a.p_flat, "images": result.response_a.p_images,
                    "integral": result.response_a.p_integral, "total": result.response_a.total},
            "P_B": {"flat": result.response_b.p_flat, "images": result.response_b.p_images,
                    "integral": result.response_b.p_integral, "total": result.response_b.total},
            "X": {"flat_re": result.correlation.x_flat.real,
                  "flat_im": result.correlation.x_flat.imag,
                  "images_re": result.correlation.x_images.real,
                  "images_im": result.correlation.x_images.imag,
                  "integral_re": result.correlation.x_integral.real,
                  "integral_im": result.correlation.x_integral.imag,
                  "total_re": result.correlation.total.real,
                  "total_im": result.correlation.total.imag},
        },
        "image_terms": terms,
    }
    _emit(_json_text(payload), params["out"])


_SWEEP_SCHEMA = dict(_COMMON_SCHEMA)
_SWEEP_SCHEMA.update({
    "axis": (str, None),
    "lo": (float, None),
    "hi": (float, None),
    "n": (int, 101),
    "log": (_boolish, False),
    "d_over_l": (float, None),
    "threads": (int, 1),
    "format": (str, "csv"),
})


@main.command(name="sweep")
@click.option("--config", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--alignment", type=click.Choice(ALIGNMENT_NAMES), default=None)
@click.option("--nu", type=float, default=None)
@click.option("--l", type=float, default=None)
@click.option("--d", type=float, default=None)
@click.option("--gap", type=float, default=None)
@click.option("--axis", type=click.Choice(["d", "l", "nu", "gap"]), default=None)
@click.option("--lo", type=float, default=None, help="axis lower bound")
@click.option("--hi", type=float, default=None, help="axis upper bound")
@click.option("--n", type=int, default=None, help="axis point count (2..100000)")
@click.option("--log", is_flag=True, default=None, help="logarithmic axis spacing")
@click.option("--d-over-l", "d_over_l", type=float, default=None,
              help="couple d = ratio * l to an l axis")
@click.option("--tol", type=float, default=None)
@click.option("--threads", type=int, default=None)
@click.option("--format", "format", type=click.Choice(["csv", "json"]), default=None)
@click.option("--out", type=click.Path(writable=True), default=None)
def sweep_cmd(config, **flags):
    """Sweep one axis, emitting the standard concurrence table."""
    params = _merge_config(flags, config, _SWEEP_SCHEMA,
                           required=("alignment", "axis", "lo", "hi"))
    if params["axis"] != "gap" and params["gap"] is None:
        raise click.UsageError("missing required option --gap")
    if params["lo"] >= params["hi"]:
        raise click.UsageError("--lo must be below --hi")
    if not 2 <= params["n"] <= 100_000:
        raise click.UsageError("--n must be in [2, 100000]")
    if params["log"]:
        if params["lo"] <= 0:
            raise click.UsageError("--log requires positive bounds")
        values = np.geomspace(params["lo"], params["hi"], params["n"])
    else:
        values = np.linspace(params["lo"], params["hi"], params["n"])

    try:
        cone = ConeParameter(params["nu"])
        alignment = Alignment.from_string(params["alignment"])
        table = sweep(alignment, cone, params["axis"], values,
                      l=params["l"], d=params["d"], gap=params["gap"],
                      d_over_l=params["d_over_l"], tol=params["tol"],
                      threads=_threads(params))
    except InvalidParameter as exc:
        raise click.UsageError(str(exc)) from exc
    if params["format"] == "json":
        _emit(_json_text(sweep_to_dict(table)), params["out"])
    else:
        _emit(sweep_to_csv(table), params["out"])


_DMAX_SCHEMA = dict(_COMMON_SCHEMA)
_DMAX_SCHEMA.update({
    "d_hi": (float, 8.0),
    "grid_n": (int, 512),
    "scan_tol": (float, 1e-6),
    "l_lo": (float, None),
    "l_hi": (float, None),
    "l_n": (int, None),
    "terminal": (_boolish, False),
})


@main.command(name="dmax")
@click.option("--config", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--alignment", type=click.Choice(ALIGNMENT_NAMES), default=None)
@click.option("--nu", type=float, default=None)
@click.option("--l", type=float, default=None)
@click.option("--gap", type=float, default=None)
@click.option("--d-hi", "d_hi", type=float, default=None, help="scan ceiling")
@click.option("--grid-n", "grid_n", type=int, default=None, help="scan grid points")
@click.option("--scan-tol", "scan_tol", type=float, default=None, help="root location tolerance")
@click.option("--l-lo", "l_lo", type=float, default=None, help="curve mode: l lower bound")
@click.option("--l-hi", "l_hi", type=float, default=None, help="curve mode: l upper bound")
@click.option("--l-n", "l_n", type=int, default=None, help="curve mode: number of l points")
@click.option("--terminal", is_flag=True, default=None,
              help="opposite-sides: also report the terminal l where d_max meets 2l")
@click.option("--tol", type=float, default=None)
@click.option("--out", type=click.Path(writable=True), default=None)
def dmax_cmd(config, **flags):
    """Maximum harvesting-achievable separation (single l, or a curve over l)."""
    params = _merge_config(flags, config, _DMAX_SCHEMA, required=("alignment", "gap"))
    try:
        cone = ConeParameter(params["nu"])
        alignment = Alignment.from_string(params["alignment"])
    except InvalidParameter as exc:
        raise click.UsageError(str(exc)) from exc

    curve_mode = params["l_lo"] is not None or params["l_hi"] is not None
    if curve_mode:
        if params["l_lo"] is None or params["l_hi"] is None or (params["l_n"] or 0) < 1:
            raise click.UsageError("curve mode needs --l-lo, --l-hi and --l-n")
        curve = {"lo": params["l_lo"], "hi": params["l_hi"], "n": params["l_n"],
                 "alignment": alignment.value, "nu": cone.nu, "gap": params["gap"]}
        try:
            text = _materialize_dmax(curve, params["tol"], d_hi=params["d_hi"],
                                     grid_n=params["grid_n"], scan_tol=params["scan_tol"])
        except InvalidParameter as exc:
            raise click.UsageError(str(exc)) from exc
        _emit(text, params["out"])
        return

    payload = {"version": __version__, "alignment": alignment.value, "nu": cone.nu,
               "gap": params["gap"], "l": params["l"]}
    if params["terminal"] and alignment is not Alignment.ORTHOGONAL_OPPOSITE_SIDES:
        raise click.UsageError("--terminal applies to the opposite alignment only")
    try:
        result = d_max(alignment, cone, l=params["l"], gap=params["gap"],
                       d_hi=params["d_hi"], grid_n=params["grid_n"],
                       tol=params["scan_tol"], quad_tol=params["tol"])
        payload["d_max_per_sigma"] = result.value
        payload["skipped_points"] = list(result.skipped)
        if params["terminal"]:
            payload["terminal_l_per_sigma"] = opposite_sides_terminal_l(
                cone, params["gap"], grid_n=params["grid_n"], tol=params["scan_tol"],
                quad_tol=params["tol"])
    except InvalidParameter as exc:
        raise click.UsageError(str(exc)) from exc
    _emit(_json_text(payload), params["out"])


_NUSCAN_SCHEMA = dict(_COMMON_SCHEMA)
_NUSCAN_SCHEMA.update({
    "objective": (str, "response_correlation_gap"),
    "nu_lo": (float, None),
    "nu_hi": (float, None),
    "scan_tol": (float, 1e-4),
})


@main.command(name="nuscan")
@click.option("--config", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--objective", type=click.Choice(["response_correlation_gap", "concurrence"]),
              default=None)
@click.option("--alignment", type=click.Choice(ALIGNMENT_NAMES), default=None)
@click.option("--l", type=float, default=None)
@click.option("--d", type=float, default=None)
@click.option("--gap", type=float, default=None)
@click.option("--nu-lo", "nu_lo", type=float, default=None)
@click.option("--nu-hi", "nu_hi", type=float, default=None)
@click.option("--scan-tol", "scan_tol", type=float, default=None)
@click.option("--tol", type=float, default=None)
@click.option("--out", type=click.Path(writable=True), default=None)
def nuscan_cmd(config, **flags):
    """Extremal deficit-angle parameter for an objective over a nu bracket."""
    params = _merge_config(flags, config, _NUSCAN_SCHEMA,
                           required=("alignment", "d", "gap", "nu_lo", "nu_hi"))
    params["nu"] = params["nu_lo"]  # placeholder for pair validation
    pair, _ = _validated_pair(params)
    if not (1.0 <= params["nu_lo"] < params["nu_hi"] <= 64.0):
        raise click.UsageError("nu bracket must satisfy 1 <= lo < hi <= 64")
    nu_star = nu_extremum(params["objective"], pair,
                          Bracket(params["nu_lo"], params["nu_hi"]),
                          tol=params["scan_tol"], quad_tol=params["tol"])
    result = concurrence(pair, ConeParameter(nu_star), tol=params["tol"])
    _emit(_json_text({
        "version": __version__,
        "objective": params["objective"],
        "nu_star": nu_star,
        "P_geo_mean_per_lambda2": result.geo_mean_p,
        "abs_X_per_lambda2": result.abs_x,
        "concurrence_per_lambda2": result.concurrence,
    }), params["out"])


@main.command(name="figure")
@click.argument("name", required=False, default=None)
@click.option("--list", "list_presets", is_flag=True, help="list available presets")
@click.option("--tol", type=float, default=1e-10)
@click.option("--threads", type=int, default=1)
@click.option("--out", type=click.Path(file_okay=False), default=".")
def figure_cmd(name, list_presets, tol, threads, out):
    """Write the CSV dataset(s) behind a named figure preset (fig3a..fig11)."""
    if list_presets:
        for preset in sorted(FIGURES):
            click.echo(f"{preset}: {FIGURES[preset].description}")
        return
    if name is None:
        raise click.UsageError("missing preset NAME (or use --list)")
    try:
        files = build_figure(name, tol=tol, threads=_threads({"threads": threads}))
    except UnknownPreset as exc:
        raise click.UsageError(str(exc)) from exc
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for filename, text in files:
        (out_dir / filename).write_text(text, encoding="utf-8")
        click.echo(f"wrote {out_dir / filename}")


@main.command(name="verify")
@click.option("--profile", type=click.Choice(["default", "fast"]), default="default")
@click.option("--json", "as_json", is_flag=True, help="emit the report as JSON")
@click.option("--out", type=click.Path(writable=True), default=None)
def verify_cmd(profile, as_json, out):
    """Run the oracle grid and analytic-identity suite; exit 0 iff all pass."""
    reports, ok = run_verification(profile)
    if as_json:
        payload = {
            "version": __version__,
            "profile": profile,
            "all_passed": ok,
            "checks": [
                {
                    "quantity": r.quantity,
                    "production": _complex_to_json(r.production),
                    "oracle": _complex_to_json(r.oracle),
                    "abs_deviation": r.abs_deviation,
                    "rel_deviation": r.rel_deviation,
                    "tolerance": r.tolerance,
                    "passed": r.passed,
                }
                for r in reports
            ],
        }
        _emit(_json_text(payload), out)
    else:
        width = max(len(r.quantity) for r in reports)
        lines = [f"conical-harvest v{__version__} verification ({profile} profile)"]
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            lines.append(f"{status}  {r.quantity:<{width}}  rel_dev={r.rel_deviation:.3e}  "
                         f"tol={r.tolerance:.1e}")
        lines.append(f"{'all checks passed' if ok else 'FAILURES PRESENT'} "
                     f"({sum(r.passed for r in reports)}/{len(reports)})")
        _emit("\n".join(lines) + "\n", out)
    if not ok:
        sys.exit(1)


def _complex_to_json(value):
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    return value


if __name__ == "__main__":
    main()
