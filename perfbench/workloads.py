"""The benchmark's workloads: seeded inputs, the timed operation, and its output check.

Each workload builds a pool of operations from ``random.Random(seed)`` alone;
the library receives only the generated parameters.  The pool is stratified:
every round holds one operation per stratum (alignment, gap, axis or oracle
kind) in a fixed order, and the seed draws the continuous parameters, so the
cost mix of a run does not depend on the seed.  The pool is larger than a
20-second run consumes, so a run sees distinct inputs; the timed loop cycles
through it when it is exhausted.  The strata are weighted so the median
latency falls inside one cluster of similar operations, not in a gap between
two clusters, which would make it jump from seed to seed.

Checks run after the timed loop.  Every output gets the structural checks;
the operations of the first ``reference_rounds`` rounds are also compared
with references that do not reuse the timed code: the ``oracle`` module for
P0, P1, P2, X0 and X_P, ``concurrence_flat`` for flat d_max rows, and the
mpmath evaluation in ``reference`` for everything the oracle module does not
cover (orthogonal, opposite-sides and boundary correlations, boundary
responses, and every value in the workloads that time the oracles themselves
or near-integer nu).

Library calls go through module attributes (``entanglement.d_max``), so the
traced run sees them.
"""

import math
import random
from dataclasses import dataclass

import numpy as np

import conical_harvest
from conical_harvest import correlation, entanglement, oracle, response, serialize, verification
from conical_harvest.geometry import Alignment, ConeParameter, PairConfig

import reference

# Relative tolerance of the checks against the references.  The library's
# quadrature tolerance is 1e-10 absolute; 1e-6 leaves room for the oracles'
# own nested tolerances and still catches a 1% error in any part.
CHECK_TOL = 1e-6

STRING = ("parallel", "orthogonal", "opposite")
BOUNDARY = ("boundary-parallel", "boundary-orthogonal")


@dataclass(frozen=True)
class Op:
    kind: str
    params: dict
    reference: bool  # compare with the references, not only structurally


@dataclass(frozen=True)
class Check:
    ok: bool
    rel_dev: float
    reason: str = ""


def _rel(value, ref):
    scale = max(abs(value), abs(ref))
    return abs(value - ref) / scale if scale > 0 else 0.0


def _config(p):
    return PairConfig(Alignment.from_string(p["alignment"]), l=p["l"], d=p["d"], gap=p["gap"])


def reference_observables(alignment, l, d, nu, gap):
    """(|X|, P_A, P_B) from the oracle module where it covers the term, else from mpmath."""
    cone = ConeParameter(nu)
    if alignment == "flat":
        p = oracle.p0_oracle(gap)
        return abs(oracle.x0_oracle(d, gap)), p, p
    if alignment in BOUNDARY:
        p_a, p_b = reference.responses(alignment, l, d, nu, gap)
        return abs(reference.correlation(alignment, l, d, nu, gap)), p_a, p_b

    def p_oracle(rho):
        return (oracle.p0_oracle(gap) + oracle.p1_oracle(rho, cone, gap)
                + oracle.p2_oracle(rho, cone, gap))

    rho_b = {"parallel": l, "orthogonal": l + d, "opposite": d - l}[alignment]
    p_a = p_oracle(l)
    p_b = p_a if rho_b == l else p_oracle(rho_b)
    if alignment == "parallel":
        x = oracle.xp_oracle(PairConfig(Alignment.PARALLEL, l=l, d=d, gap=gap), cone)
    else:
        x = reference.correlation(alignment, l, d, nu, gap)
    return abs(x), p_a, p_b


def _pool(workload, seed, make):
    """rounds x strata operations; make(rng, stratum, round) returns (kind, params)."""
    rng = random.Random(seed)
    out = []
    for r in range(workload.rounds):
        for stratum in workload.strata:
            kind, params = make(rng, stratum, r)
            out.append(Op(kind, params, reference=r < workload.reference_rounds))
    return out


class DmaxInteger:
    """One d_max solve at the defaults (512-point scan, then Brent) at integer nu."""

    name = "dmax_integer"
    rounds = 40
    reference_rounds = 10
    strata = tuple((alignment, nu, gap)
                   for alignment, nu in (("parallel", 3.0), ("orthogonal", 3.0), ("opposite", 3.0),
                                         ("flat", 1.0), ("boundary-parallel", 1.0),
                                         ("boundary-orthogonal", 1.0))
                   for gap in (0.1, 1.5))
    # d_max is bracketed by the reference margin this far on either side.
    delta = 1e-4
    d_hi = 8.0
    grid_n = 512

    def ops(self, seed):
        def make(rng, stratum, _):
            alignment, nu, gap = stratum
            l_hi = 2.4 if alignment == "opposite" else 4.0   # fig11 / fig8 ranges
            return "dmax", {"alignment": alignment, "nu": nu, "gap": gap,
                            "l": rng.uniform(0.05, l_hi)}
        return _pool(self, seed, make)

    def run(self, op):
        p = op.params
        return entanglement.d_max(Alignment.from_string(p["alignment"]), ConeParameter(p["nu"]),
                                  l=p["l"], gap=p["gap"])

    def _margins(self, p, d):
        """(reference margin, relative deviation of production |X| and sqrt(P_A P_B))."""
        got = entanglement.concurrence(_config(dict(p, d=d)), ConeParameter(p["nu"]))
        abs_x, p_a, p_b = reference_observables(p["alignment"], p["l"], d, p["nu"], p["gap"])
        geo = math.sqrt(p_a * p_b)
        return abs_x - geo, max(_rel(got.abs_x, abs_x), _rel(got.geo_mean_p, geo))

    def check(self, op, result):
        p = op.params
        if result.skipped:
            return Check(False, 0.0, "scan points flagged as overlap without an overlap")
        d_lo = 2.0 * p["l"] if p["alignment"] == "opposite" else self.d_hi / self.grid_n
        v = result.value
        if v is not None and not d_lo <= v <= self.d_hi:
            return Check(False, 0.0, "d_max outside the scan")
        if p["alignment"] == "flat":
            root = (v is not None and v < self.d_hi
                    and entanglement.concurrence_flat(v - self.delta, p["gap"]) > 0.0
                    and entanglement.concurrence_flat(v + self.delta, p["gap"]) == 0.0)
            dev = self._margins(p, v)[1] if root and op.reference else 0.0
            return Check(root, dev, "flat d_max is not a root of the closed form")
        if not op.reference:
            return Check(True, 0.0)
        if v is None:
            probes = [(d, False) for d in np.linspace(d_lo, self.d_hi, 3)]
        elif v >= self.d_hi:
            probes = [(self.d_hi, True)]
        else:
            probes = [(v - self.delta, True), (v + self.delta, False)]
        worst = 0.0
        for d, positive in probes:
            if d < d_lo:
                continue
            margin, dev = self._margins(p, float(d))
            worst = max(worst, dev)
            if (margin > 0.0) != positive:
                return Check(False, worst, "reference margin has the wrong sign beside d_max")
        return Check(True, worst)


class ZetaSweeps:
    """One 60-row sweep along d or l at non-integer nu, rendered as the CLI's CSV."""

    name = "zeta_sweeps"
    rounds = 40
    reference_rounds = 2
    rows = 60
    strata = tuple((alignment, axis) for alignment in STRING for axis in ("d", "l"))
    header = "param,P_A_per_lambda2,P_B_per_lambda2,abs_X_per_lambda2,concurrence_per_lambda2,diverged"

    def ops(self, seed):
        def make(rng, stratum, r):
            alignment, axis = stratum
            # At least 0.02 from every multiple of 0.5.  Sweeps near an even
            # integer cost up to 1.5x more, so each stratum cycles through the
            # 18 half-integer bins of [1, 10) instead of drawing the bin.
            nu = 1.0 + 0.5 * ((r + 3 * self.strata.index(stratum)) % 18) + rng.uniform(0.02, 0.48)
            p = {"alignment": alignment, "nu": nu, "axis": axis,
                 "gap": rng.uniform(0.05, 1.0), "l": None, "d": None, "d_over_l": None}
            if axis == "d":
                p["l"] = rng.uniform(0.1, 1.5)
                lo = 2.0 * p["l"] if alignment == "opposite" else 0.05
                p["values"] = tuple(np.linspace(lo, lo + 3.0, self.rows))
            else:
                if alignment == "opposite":
                    p["d_over_l"] = rng.uniform(2.0, 3.0)
                else:
                    p["d"] = rng.uniform(0.2, 2.0)
                p["values"] = tuple(np.linspace(0.05, 3.0, self.rows))
            p["check_row"] = rng.randrange(self.rows)
            return "sweep", p
        return _pool(self, seed, make)

    def run(self, op):
        p = op.params
        table = entanglement.sweep(Alignment.from_string(p["alignment"]), ConeParameter(p["nu"]),
                                   p["axis"], p["values"], l=p["l"], d=p["d"], gap=p["gap"],
                                   d_over_l=p["d_over_l"], threads=1)
        return serialize.sweep_to_csv(table)

    def check(self, op, text):
        p = op.params
        lines = text.split("\n")
        if lines[0] != f"# conical-harvest v{conical_harvest.__version__}" or lines[1] != self.header:
            return Check(False, 0.0, "CSV preamble")
        rows = [line.split(",") for line in lines[2:] if line]
        if len(rows) != len(p["values"]) or lines[-1] != "":
            return Check(False, 0.0, "CSV row count")
        for value, row in zip(p["values"], rows):
            if row[5] != "false":
                return Check(False, 0.0, "row flagged diverged without an overlap")
            if abs(float(row[0]) - value) > 1e-11 * max(1.0, abs(value)):
                return Check(False, 0.0, "row parameter differs from the input")
            p_a, p_b, abs_x, conc = (float(c) for c in row[1:5])
            if not (p_a > 0.0 and p_b > 0.0 and abs_x > 0.0 and math.isfinite(conc)):
                return Check(False, 0.0, "row not positive and finite")
            expected = 2.0 * max(0.0, abs_x - math.sqrt(p_a * p_b))
            if abs(conc - expected) > 1e-10 * max(abs_x, 1e-12):
                return Check(False, 0.0, "row concurrence inconsistent with |X| and P")
        if not op.reference:
            return Check(True, 0.0)
        i = p["check_row"]
        value = p["values"][i]
        l, d = p["l"], p["d"]
        if p["axis"] == "l":
            l = value
            d = p["d_over_l"] * value if p["d_over_l"] is not None else d
        else:
            d = value
        ref = reference_observables(p["alignment"], l, d, p["nu"], p["gap"])
        got = (float(rows[i][3]), float(rows[i][1]), float(rows[i][2]))
        dev = max(_rel(g, r) for g, r in zip(got, ref))
        return Check(dev <= CHECK_TOL, dev, "spot-checked row deviates from the reference")


class VerifyOracles:
    """One check: run_verification("default") once per run, then production-vs-oracle pairs."""

    name = "verify_oracles"
    rounds = 100
    reference_rounds = 3
    # (kind, nu or None for a seeded non-integer nu, tolerance of the verification grid).
    # Four sub-millisecond slots (X0, P1), two ~3 ms integer-nu X_P slots and four
    # slots of nested integrals (P2, non-integer X_P) put the median in the middle
    # of the X_P(nu=4) cluster and the 90th percentile inside the nested cluster.
    strata = (("X0", None, 1e-8), ("P1", 2.0, 1e-6), ("XP", 4.0, 1e-6), ("P2", None, 1e-5),
              ("XP", None, 1e-5), ("X0", None, 1e-8), ("P1", 3.0, 1e-6), ("XP", 4.0, 1e-6),
              ("P2", None, 1e-5), ("XP", None, 1e-5))

    def ops(self, seed):
        def make(rng, stratum, _):
            kind, nu, tol = stratum
            p = {"tol": tol, "gap": rng.uniform(0.0, 1.5)}
            if kind == "P1":
                p.update(rho=rng.uniform(0.2, 3.0), nu=nu)
            elif kind == "P2":
                p.update(rho=rng.uniform(0.3, 2.0), nu=rng.randint(1, 3) + rng.uniform(0.15, 0.85),
                         gap=rng.uniform(0.05, 1.0))
            elif kind == "X0":
                p.update(d=rng.uniform(0.2, 5.0))
            else:
                p.update(l=rng.uniform(0.5, 1.5), d=rng.uniform(0.5, 1.5),
                         nu=nu if nu is not None else 2.0 + rng.uniform(0.15, 0.85),
                         gap=rng.uniform(0.05, 1.0))
            return kind, p
        return [Op("verify", {"profile": "default"}, reference=True)] + _pool(self, seed, make)

    def run(self, op):
        p = op.params
        if op.kind == "verify":
            return verification.run_verification(p["profile"])
        if op.kind == "P1":
            cone = ConeParameter(p["nu"])
            return (response.p_string(p["rho"], cone, p["gap"]).p_images,
                    oracle.p1_oracle(p["rho"], cone, p["gap"]))
        if op.kind == "P2":
            cone = ConeParameter(p["nu"])
            return (response.p_string(p["rho"], cone, p["gap"]).p_integral,
                    oracle.p2_oracle(p["rho"], cone, p["gap"]))
        if op.kind == "X0":
            return correlation.x_flat(p["d"], p["gap"]), oracle.x0_oracle(p["d"], p["gap"])
        config = PairConfig(Alignment.PARALLEL, l=p["l"], d=p["d"], gap=p["gap"])
        cone = ConeParameter(p["nu"])
        return correlation.x_string(config, cone).total, oracle.xp_oracle(config, cone)

    def check(self, op, result):
        p = op.params
        if op.kind == "verify":
            reports, passed = result
            dev = max(r.rel_deviation for r in reports)
            return Check(passed and all(r.passed for r in reports), dev, "verification failed")
        production, oracle_value = result
        pair = abs(production - oracle_value)
        if pair > p["tol"] * max(abs(production), abs(oracle_value)) and pair > 1e-12:
            return Check(False, _rel(production, oracle_value),
                         f"{op.kind} production and oracle disagree")
        if not op.reference:
            return Check(True, 0.0)
        if op.kind == "P1":
            ref = reference.p_string_parts(p["rho"], p["nu"], p["gap"])[1]
        elif op.kind == "P2":
            ref = reference.p_string_parts(p["rho"], p["nu"], p["gap"])[2]
        elif op.kind == "X0":
            ref = reference.correlation("flat", 0.0, p["d"], 1.0, p["gap"])
        else:
            ref = reference.correlation("parallel", p["l"], p["d"], p["nu"], p["gap"])
        dev = max(_rel(production, ref), _rel(oracle_value, ref))
        return Check(_rel(production, ref) <= p["tol"], dev,
                     f"{op.kind} deviates from the mpmath reference")


class NearInteger:
    """One concurrence point at nu = k +- 10^-j, j uniform in 3..12."""

    name = "near_integer"
    rounds = 2
    reference_rounds = 2
    strata = (tuple((alignment, k, sign) for alignment in ("parallel", "orthogonal")
                    for k in (2, 4) for sign in (1, -1))
              + (("opposite", 1, 1),)
              + tuple(("opposite", k, sign) for k in (2, 3) for sign in (1, -1)))

    def ops(self, seed):
        def make(rng, stratum, _):
            alignment, k, sign = stratum
            l = rng.uniform(0.3, 1.5)
            d = l * rng.uniform(2.2, 3.0) if alignment == "opposite" else rng.uniform(0.5, 2.0)
            return "point", {"alignment": alignment, "l": l, "d": d,
                             "gap": rng.uniform(0.05, 0.5),
                             "nu": k + sign * 10.0 ** -rng.randint(3, 12)}
        return _pool(self, seed, make)

    def run(self, op):
        result = entanglement.concurrence(_config(op.params), ConeParameter(op.params["nu"]))
        return result.abs_x, result.response_a.total, result.response_b.total

    def check(self, op, result):
        p = op.params
        p_a, p_b = reference.responses(p["alignment"], p["l"], p["d"], p["nu"], p["gap"])
        abs_x = abs(reference.correlation(p["alignment"], p["l"], p["d"], p["nu"], p["gap"]))
        dev = max(_rel(g, r) for g, r in zip(result, (abs_x, p_a, p_b)))
        return Check(dev <= CHECK_TOL, dev, "deviates from the mpmath reference")


WORKLOADS = {w.name: w for w in (DmaxInteger(), ZetaSweeps(), VerifyOracles(), NearInteger())}


def warm_up():
    """Touch every layer once so lazy imports and first-call costs stay out of the timing."""
    cone = ConeParameter(2.5)
    config = PairConfig(Alignment.PARALLEL, l=0.5, d=1.0, gap=0.1)
    entanglement.concurrence(config, cone)
    serialize.sweep_to_csv(entanglement.sweep(Alignment.PARALLEL, cone, "d", (0.5, 1.0),
                                              l=0.5, gap=0.1))
    oracle.x0_oracle(1.0, 0.1)
