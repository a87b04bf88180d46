"""Versioned figure-dataset presets and their materialization into CSV curves.

Each preset is a fixed parameter bundle producing one CSV per curve, so
reproduction targets cannot drift silently: identical version and tolerances
give byte-identical files.  Curve kinds:

    sweep     standard concurrence table (param, P_A, P_B, |X|, C, diverged)
    response  transition probability along l or nu (param, P_per_lambda2)
    dmax      maximum harvesting-achievable separation along l (param, d_max_per_sigma)
    pd_absx   response vs correlation magnitude along nu (param, P_D, |X_P|): the
              P_A and |X| columns of a parallel nu sweep
"""

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .entanglement import d_max, sweep
from .errors import UnknownPreset
from .geometry import Alignment, ConeParameter
from .quadrature import DEFAULT_TOL
from .response import p_string
from .serialize import csv_text, sweep_to_csv


@dataclass(frozen=True)
class CurveSpec:
    label: str
    kind: str
    params: dict


@dataclass(frozen=True)
class FigurePreset:
    name: str
    description: str
    curves: Tuple[CurveSpec, ...]


def _axis(lo, hi, n):
    return {"lo": lo, "hi": hi, "n": n}


def _sweep_curves(axis, axis_spec, labelled_variants, **common):
    return tuple(
        CurveSpec(label=label, kind="sweep",
                  params={"axis": axis, **axis_spec, **common, **variant})
        for label, variant in labelled_variants
    )


def _build_figures() -> Dict[str, FigurePreset]:
    figures: Dict[str, FigurePreset] = {}

    def add(name, description, curves):
        figures[name] = FigurePreset(name=name, description=description, curves=tuple(curves))

    add("fig3a", "transition probability vs detector-to-string distance, gap 0.10",
        [CurveSpec(label, "response",
                   {"axis": "l", **_axis(0.0, 6.0, 121), "nu": nu, "gap": 0.1})
         for label, nu in (("nu2", 2.0), ("nu3", 3.0), ("nu11", 11.0), ("flat", 1.0))])

    add("fig3b", "transition probability vs deficit-angle parameter at l 0.10, gap 0.10",
        [CurveSpec("string", "response",
                   {"axis": "nu", **_axis(1.0, 11.0, 101), "l": 0.1, "gap": 0.1})])

    for name, nu in (("fig4a", 2.0), ("fig4b", 11.0)):
        add(name, f"concurrence vs separation, nu {nu:g}, l 0.10, gap 0.10",
            _sweep_curves("d", _axis(0.02, 2.0, 100),
                          (("parallel", {"alignment": "parallel", "nu": nu}),
                           ("orthogonal", {"alignment": "orthogonal", "nu": nu}),
                           ("flat", {"alignment": "flat", "nu": 1.0})),
                          l=0.1, gap=0.1))

    for name, nu in (("fig5a", 2.0), ("fig5b", 11.0)):
        add(name, f"concurrence vs detector-to-string distance, nu {nu:g}, d 0.50, gap 0.10",
            _sweep_curves("l", _axis(0.01, 6.0, 120),
                          (("parallel", {"alignment": "parallel", "nu": nu}),
                           ("orthogonal", {"alignment": "orthogonal", "nu": nu}),
                           ("boundary-parallel", {"alignment": "boundary-parallel", "nu": 1.0}),
                           ("boundary-orthogonal", {"alignment": "boundary-orthogonal", "nu": 1.0}),
                           ("flat", {"alignment": "flat", "nu": 1.0})),
                          d=0.5, gap=0.1))

    for name, l in (("fig6a", 0.1), ("fig6b", 3.0)):
        add(name, f"concurrence vs deficit-angle parameter, l {l:g}, d 0.10, gap 0.10",
            _sweep_curves("nu", _axis(1.0, 11.0, 101),
                          (("parallel", {"alignment": "parallel"}),
                           ("orthogonal", {"alignment": "orthogonal"})),
                          l=l, d=0.1, gap=0.1, nu=3.0))

    add("fig7", "P_D and |X_P| vs deficit-angle parameter, l 3.00, d 0.10, gap 0.10",
        [CurveSpec("parallel", "pd_absx",
                   {"axis": "nu", **_axis(6.0, 12.0, 121), "l": 3.0, "d": 0.1, "gap": 0.1})])

    for name, gap in (("fig8a", 0.1), ("fig8b", 1.5)):
        add(name, f"d_max vs detector-to-string distance, same side, nu 3, gap {gap:g}",
            [CurveSpec(label, "dmax",
                       {"axis": "l", **_axis(0.05, 4.0, 40), "alignment": alignment,
                        "nu": nu, "gap": gap})
             for label, alignment, nu in (("parallel", "parallel", 3.0),
                                          ("orthogonal", "orthogonal", 3.0),
                                          ("boundary-parallel", "boundary-parallel", 1.0),
                                          ("boundary-orthogonal", "boundary-orthogonal", 1.0),
                                          ("flat", "flat", 1.0))])

    add("fig9a", "concurrence vs l, opposite sides, symmetric d = 2l, gap 0.10",
        _sweep_curves("l", _axis(0.05, 3.0, 60),
                      (("nu3", {"alignment": "opposite", "nu": 3.0}),
                       ("nu2.5", {"alignment": "opposite", "nu": 2.5}),
                       ("flat", {"alignment": "flat", "nu": 1.0})),
                      d_over_l=2.0, gap=0.1))

    add("fig9b", "concurrence vs l, opposite sides, d = 2.5 l, gap 0.10",
        _sweep_curves("l", _axis(0.05, 3.0, 60),
                      (("nu2", {"alignment": "opposite", "nu": 2.0}),
                       ("nu4", {"alignment": "opposite", "nu": 4.0}),
                       ("flat", {"alignment": "flat", "nu": 1.0})),
                      d_over_l=2.5, gap=0.1))

    for name, ratio, l in (("fig10a", 2.0, 0.1), ("fig10b", 2.0, 2.0),
                           ("fig10c", 2.5, 0.1), ("fig10d", 2.5, 2.0)):
        add(name, f"concurrence vs nu, opposite sides, d/l {ratio:g}, l {l:g}, gap 0.10",
            _sweep_curves("nu", _axis(1.05, 6.0, 100),
                          (("opposite", {"alignment": "opposite"}),),
                          l=l, d=ratio * l, gap=0.1, nu=3.0))

    add("fig11", "d_max vs detector-to-string distance, opposite sides, nu 3, gap 0.10",
        [CurveSpec("opposite", "dmax",
                   {"axis": "l", **_axis(0.05, 2.4, 48), "alignment": "opposite",
                    "nu": 3.0, "gap": 0.1}),
         CurveSpec("flat", "dmax",
                   {"axis": "l", **_axis(0.05, 2.4, 48), "alignment": "flat",
                    "nu": 1.0, "gap": 0.1})])

    return figures


FIGURES = _build_figures()


def _materialize_sweep(params: dict, tol: float) -> str:
    values = np.linspace(params["lo"], params["hi"], params["n"])
    table = sweep(Alignment.from_string(params["alignment"]), ConeParameter(params["nu"]),
                  params["axis"], values, l=params.get("l"), d=params.get("d"),
                  gap=params.get("gap"), d_over_l=params.get("d_over_l"), tol=tol)
    return sweep_to_csv(table)


def _materialize_response(params: dict, tol: float) -> str:
    values = np.linspace(params["lo"], params["hi"], params["n"])
    rows = []
    for v in values:
        if params["axis"] == "l":
            total = p_string(float(v), ConeParameter(params["nu"]), params["gap"], tol=tol).total
        else:
            total = p_string(params["l"], ConeParameter(float(v)), params["gap"], tol=tol).total
        rows.append((float(v), total))
    return csv_text(("param", "P_per_lambda2"), rows)


def _materialize_dmax(params: dict, quad_tol: float, **scan) -> str:
    """d_max along l; ``scan`` holds the d_max scan settings (d_hi, grid_n, tol) the caller sets."""
    values = np.linspace(params["lo"], params["hi"], params["n"])
    alignment = Alignment.from_string(params["alignment"])
    cone = ConeParameter(params["nu"])
    rows = []
    for v in values:
        result = d_max(alignment, cone, l=float(v), gap=params["gap"], quad_tol=quad_tol, **scan)
        rows.append((float(v), result.value, len(result.skipped)))
    return csv_text(("param", "d_max_per_sigma", "skipped_points"), rows)


def _materialize_pd_absx(params: dict, tol: float) -> str:
    """P_D and |X_P| along nu: the P_A and |X| columns of a parallel nu sweep."""
    values = np.linspace(params["lo"], params["hi"], params["n"])
    table = sweep(Alignment.PARALLEL, ConeParameter(values[0]), "nu", values, l=params["l"],
                  d=params["d"], gap=params["gap"], tol=tol)
    rows = [(row.param, row.p_a, row.abs_x) for row in table.rows]
    return csv_text(("param", "P_D_per_lambda2", "abs_X_P_per_lambda2"), rows)


_MATERIALIZERS = {"sweep": _materialize_sweep, "response": _materialize_response,
                  "dmax": _materialize_dmax, "pd_absx": _materialize_pd_absx}


def build_figure(name: str, tol: float = DEFAULT_TOL) -> List[Tuple[str, str]]:
    """Materialize a preset into [(filename, csv text), ...].

    Raises UnknownPreset for names outside the manifest.
    """
    preset = FIGURES.get(name)
    if preset is None:
        raise UnknownPreset(f"unknown figure preset {name!r}; known: {', '.join(sorted(FIGURES))}")
    return [(f"{name}_{curve.label}.csv", _MATERIALIZERS[curve.kind](curve.params, tol))
            for curve in preset.curves]
