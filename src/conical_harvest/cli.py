"""Command-line front end: compute | sweep | dmax | nuscan | figure | verify.

Lengths are in sigma units, energies in 1/sigma, results per lambda^2.  Each
subcommand's click options are the only declaration of its keys, types,
defaults and required flags.  ``--config FILE`` reads line-oriented
``key = value`` defaults (UTF-8, ``#`` comments) whose keys are the command's
long option names; click checks file values exactly like flags, a flag
overrides the file, and any other key is rejected by name.  ``verify`` has no
config file and no grid selector: it runs all 42 checks of
verification.run_verification, as text or ``--json``.

Every subcommand runs through ``_Command.invoke``, the one place where library
failures become click errors: InvalidParameter and UnknownPreset are usage
errors (exit 2); a numerical failure, an overlap, a non-unimodal nu bracket or
an output file that cannot be written ends on one ``Error:`` line (exit 1).
"""

import errno
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import click
import numpy as np
from click.core import ParameterSource

from ._version import __version__
from .entanglement import (MAX_SWEEP_POINTS, NU_OBJECTIVES, SWEEP_AXES, concurrence, d_max,
                           nu_extremum, opposite_sides_terminal_l, sweep)
from .errors import (DivergentOverlap, InvalidParameter, NotUnimodal, QuadratureFailure,
                     UnknownPreset)
from .geometry import Alignment, ConeParameter, PairConfig, radial_pair
from .presets import FIGURES, _materialize_dmax, build_figure
from .quadrature import DEFAULT_TOL, Bracket
from .serialize import sweep_to_csv, sweep_to_dict
from .verification import run_verification

ALIGNMENT_NAMES = [m.value for m in Alignment]


class FiniteFloat(click.ParamType):
    """A finite float, and > 0 when ``positive``; click's FloatRange lets NaN and inf through."""

    name = "float"

    def __init__(self, positive=False):
        self.positive = positive

    def convert(self, value, param, ctx):
        number = click.FLOAT.convert(value, param, ctx)
        if not math.isfinite(number) or (self.positive and number <= 0):
            self.fail(f"{value!r} is not a finite{' positive' if self.positive else ''} number",
                      param, ctx)
        return number


TOLERANCE = FiniteFloat(positive=True)


def _parse_config_file(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise click.UsageError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})")
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise click.UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        values[key.replace("-", "_")] = value
    return values


def _load_config(ctx, param, path):
    """Eager --config callback: the file's keys become the command's option defaults."""
    if path is None:
        return
    values = _parse_config_file(path)
    options = {p.name for p in ctx.command.params if p is not param}
    for key in values:
        if key not in options:
            raise click.UsageError(f"unknown config key '{key}' in {path}")
    ctx.default_map = values


def _emit(text, out_path):
    if out_path is None:
        click.echo(text, nl=not text.endswith("\n"))
    else:
        Path(out_path).write_text(text, encoding="utf-8")


def _json_text(payload):
    return json.dumps(payload, indent=2) + "\n"


def _breakdown(parts, prefix, split=False):
    """flat, images, integral and total of a P or X breakdown; split: each as _re and _im."""
    values = {key: getattr(parts, prefix + key) for key in ("flat", "images", "integral")}
    values["total"] = parts.total
    if not split:
        return values
    return {f"{key}_{form}": getattr(value, attr) for key, value in values.items()
            for form, attr in (("re", "real"), ("im", "imag"))}


config_option = click.option(
    "--config", type=click.Path(exists=True, dir_okay=False), is_eager=True,
    expose_value=False, callback=_load_config, help="key = value defaults file")
alignment_option = click.option("--alignment", type=click.Choice(ALIGNMENT_NAMES), required=True)
nu_option = click.option("--nu", type=float, default=1.0, help="deficit-angle parameter (>= 1)")
l_option = click.option("--l", type=float, default=0.0,
                        help="detector-to-string distance (sigma units)")
tol_option = click.option("--tol", type=TOLERANCE, default=DEFAULT_TOL, help="quadrature tolerance")
out_option = click.option("--out", type=click.Path(writable=True), default=None)


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
@click.version_option(version=__version__, prog_name="conical-harvest")
def main():
    """Entanglement-harvesting observables near a cosmic string."""


class _Command(click.Command):
    """Runs every subcommand; the one place where library failures become click errors."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (InvalidParameter, UnknownPreset) as exc:
            raise click.UsageError(str(exc), ctx) from exc
        except QuadratureFailure as exc:
            raise click.ClickException(f"numerical failure: {exc}") from exc
        except (DivergentOverlap, NotUnimodal) as exc:
            raise click.ClickException(str(exc)) from exc
        except OSError as exc:
            if exc.errno == errno.EPIPE:
                raise  # a closed stdout, which click handles itself
            name = ctx.params["out"] if exc.filename is None else exc.filename
            raise click.FileError(name, hint=exc.strerror) from exc


main.command_class = _Command


@main.command()
@config_option
@alignment_option
@nu_option
@l_option
@click.option("--d", type=float, required=True, help="interdetector separation (sigma units)")
@click.option("--gap", type=float, required=True, help="energy gap Omega*sigma")
@tol_option
@out_option
def compute(alignment, nu, l, d, gap, tol, out):
    """Single-point P_A, P_B, |X|, concurrence with full term-level breakdowns."""
    cone = ConeParameter(nu)
    pair = PairConfig(Alignment.from_string(alignment), l=l, d=d, gap=gap)
    try:
        result = concurrence(pair, cone, tol=tol)
    except DivergentOverlap as exc:
        _emit(_json_text({"error": {
            "kind": "divergent_overlap",
            "message": str(exc),
            "image_index": exc.image_index,
            "argument": exc.argument,
        }}), out)
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
        "breakdowns": {"P_A": _breakdown(result.response_a, "p_"),
                       "P_B": _breakdown(result.response_b, "p_"),
                       "X": _breakdown(result.correlation, "x_", split=True)},
        "image_terms": terms,
    }
    _emit(_json_text(payload), out)


@main.command(name="sweep")
@config_option
@alignment_option
@nu_option
@l_option
@click.option("--d", type=float, default=None)
@click.option("--gap", type=float, default=None, help="required unless it is the axis")
@click.option("--axis", type=click.Choice(SWEEP_AXES), required=True)
@click.option("--lo", type=FiniteFloat(), required=True, help="axis lower bound")
@click.option("--hi", type=FiniteFloat(), required=True, help="axis upper bound")
@click.option("--n", type=click.IntRange(2, MAX_SWEEP_POINTS), default=101,
              help="axis point count")
@click.option("--log", is_flag=True, default=False, help="logarithmic axis spacing")
@click.option("--d-over-l", "d_over_l", type=float, default=None,
              help="couple d = ratio * l to an l axis")
@tol_option
@click.option("--format", "format", type=click.Choice(["csv", "json"]), default="csv")
@out_option
def sweep_cmd(alignment, nu, l, d, gap, axis, lo, hi, n, log, d_over_l, tol, format, out):
    """Sweep one axis, emitting the standard concurrence table."""
    if lo >= hi:
        raise click.UsageError("--lo must be below --hi")
    if log:
        if lo <= 0:
            raise click.UsageError("--log requires positive bounds")
        values = np.geomspace(lo, hi, n)
    else:
        values = np.linspace(lo, hi, n)

    table = sweep(Alignment.from_string(alignment), ConeParameter(nu), axis, values,
                  l=l, d=d, gap=gap, d_over_l=d_over_l, tol=tol)
    _emit(_json_text(sweep_to_dict(table)) if format == "json" else sweep_to_csv(table), out)


@main.command(name="dmax")
@config_option
@alignment_option
@nu_option
@l_option
@click.option("--gap", type=float, required=True)
@click.option("--d-hi", "d_hi", type=float, default=8.0, help="scan ceiling")
@click.option("--grid-n", "grid_n", type=click.IntRange(2, MAX_SWEEP_POINTS), default=512,
              help="scan grid points")
@click.option("--scan-tol", "scan_tol", type=TOLERANCE, default=1e-6,
              help="root location tolerance")
@click.option("--l-lo", "l_lo", type=float, default=None, help="curve mode: l lower bound")
@click.option("--l-hi", "l_hi", type=float, default=None, help="curve mode: l upper bound")
@click.option("--l-n", "l_n", type=click.IntRange(2, MAX_SWEEP_POINTS), default=None,
              help="curve mode: number of l points")
@click.option("--terminal", is_flag=True, default=False,
              help="opposite-sides: also report the terminal l where d_max meets 2l")
@tol_option
@out_option
def dmax_cmd(alignment, nu, l, gap, d_hi, grid_n, scan_tol, l_lo, l_hi, l_n, terminal, tol, out):
    """Maximum harvesting-achievable separation (single l, or a curve over l)."""
    cone = ConeParameter(nu)
    alignment = Alignment.from_string(alignment)

    curve_mode = l_lo is not None or l_hi is not None or l_n is not None
    if terminal and (curve_mode or alignment is not Alignment.ORTHOGONAL_OPPOSITE_SIDES):
        raise click.UsageError("--terminal applies to a single l of the opposite alignment only")
    if curve_mode:
        # a curve takes its l values from --l-lo/--l-hi/--l-n; an explicit --l
        # (flag or config file) would be dropped without a word
        if click.get_current_context().get_parameter_source("l") is not ParameterSource.DEFAULT:
            raise click.UsageError("--l gives a single l; curve mode takes --l-lo, --l-hi and --l-n")
        if l_lo is None or l_hi is None or l_n is None:
            raise click.UsageError("curve mode needs --l-lo, --l-hi and --l-n")
        if l_lo >= l_hi:
            raise click.UsageError("--l-lo must be below --l-hi")
        curve = {"lo": l_lo, "hi": l_hi, "n": l_n,
                 "alignment": alignment.value, "nu": cone.nu, "gap": gap}
        _emit(_materialize_dmax(curve, tol, d_hi=d_hi, grid_n=grid_n, tol=scan_tol), out)
        return

    result = d_max(alignment, cone, l=l, gap=gap, d_hi=d_hi, grid_n=grid_n,
                   tol=scan_tol, quad_tol=tol)
    payload = {"version": __version__, "alignment": alignment.value, "nu": cone.nu,
               "gap": gap, "l": l, "d_max_per_sigma": result.value,
               "skipped_points": list(result.skipped)}
    if terminal:
        payload["terminal_l_per_sigma"] = opposite_sides_terminal_l(
            cone, gap, grid_n=grid_n, tol=scan_tol, quad_tol=tol)
    _emit(_json_text(payload), out)


@main.command(name="nuscan")
@config_option
@click.option("--objective", type=click.Choice(list(NU_OBJECTIVES)),
              default="response_correlation_gap")
@alignment_option
@l_option
@click.option("--d", type=float, required=True)
@click.option("--gap", type=float, required=True)
@click.option("--nu-lo", "nu_lo", type=float, required=True)
@click.option("--nu-hi", "nu_hi", type=float, required=True)
@click.option("--scan-tol", "scan_tol", type=TOLERANCE, default=1e-4)
@tol_option
@out_option
def nuscan_cmd(objective, alignment, l, d, gap, nu_lo, nu_hi, scan_tol, tol, out):
    """Extremal deficit-angle parameter for an objective over a nu bracket."""
    pair = PairConfig(Alignment.from_string(alignment), l=l, d=d, gap=gap)
    nu_star = nu_extremum(objective, pair, Bracket(nu_lo, nu_hi), tol=scan_tol, quad_tol=tol)
    result = concurrence(pair, ConeParameter(nu_star), tol=tol)
    _emit(_json_text({
        "version": __version__,
        "objective": objective,
        "nu_star": nu_star,
        "P_geo_mean_per_lambda2": result.geo_mean_p,
        "abs_X_per_lambda2": result.abs_x,
        "concurrence_per_lambda2": result.concurrence,
    }), out)


@main.command(name="figure")
@click.argument("name", required=False, default=None)
@click.option("--list", "list_presets", is_flag=True, help="list available presets")
@tol_option
@click.option("--out", type=click.Path(file_okay=False), default=".")
def figure_cmd(name, list_presets, tol, out):
    """Write the CSV dataset(s) behind a named figure preset (fig3a..fig11)."""
    if list_presets:
        for preset in sorted(FIGURES):
            click.echo(f"{preset}: {FIGURES[preset].description}")
        return
    if name is None:
        raise click.UsageError("missing preset NAME (or use --list)")
    files = build_figure(name, tol=tol)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for filename, text in files:
        (out_dir / filename).write_text(text, encoding="utf-8")
        click.echo(f"wrote {out_dir / filename}")


@main.command(name="verify")
@click.option("--json", "as_json", is_flag=True, help="emit the report as JSON")
@out_option
def verify_cmd(as_json, out):
    """Run the oracle grid and analytic-identity suite; exit 0 iff all pass."""
    reports, ok = run_verification()
    if as_json:
        payload = {
            "version": __version__,
            "all_passed": ok,
            "checks": [{**asdict(r), "production": _complex_to_json(r.production),
                        "oracle": _complex_to_json(r.oracle)} for r in reports],
        }
        _emit(_json_text(payload), out)
    else:
        width = max(len(r.quantity) for r in reports)
        lines = [f"conical-harvest v{__version__} verification"]
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
