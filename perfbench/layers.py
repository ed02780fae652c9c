"""Which powerstruct functions the traced run wraps, and the per-layer metrics.

Layers are the library's modules.  Hot arithmetic (`rings`, `series` and
`lambda_series`) is aggregated per job; everything else records one span
per call.  Counters are computed from the arguments and results of the
wrapped calls, so the library itself carries no instrumentation.
"""

from __future__ import annotations

import statistics
from bisect import bisect_right
from typing import Dict, List

from .tracing import NAME, Target, layer_of, self_by_name
from .workloads import raw_tuples


def _terms(c) -> int:
    terms = getattr(c, "terms", None)
    return len(terms) if terms is not None else int(c != 0)


def _post_poly_mul(tracer, args, result):
    left, right = args
    tracer.counters["rings.mul.term_pairs"] += len(left.terms) * len(right.terms)
    terms = result.terms
    maxima = tracer.maxima
    maxima["rings.max_terms"] = max(maxima["rings.max_terms"], len(terms))
    bits = max((abs(c).bit_length() for c in terms.values()), default=0)
    maxima["rings.max_coeff_bits"] = max(maxima["rings.max_coeff_bits"], bits)


def _nonzero_degrees(series, order):
    return [j for j, c in enumerate(series.coefficients[: order + 1]) if _terms(c)]


def _post_series_mul(tracer, args, result):
    a, b = args
    n = result.order
    right = _nonzero_degrees(b, n)
    tracer.counters["series.coeff_products"] += sum(
        bisect_right(right, n - i) for i in _nonzero_degrees(a, n)
    )


def _post_series_invert(tracer, args, result):
    (a,) = args
    n = a.order
    tracer.counters["series.coeff_products"] += sum(n - i + 1 for i in _nonzero_degrees(a, n) if i)


def _post_lambda_series(tracer, args, result):
    tracer.counters["lambdas.lambda_series.terms_built"] += sum(_terms(c) for c in result.coefficients)
    tracer.last_lambda_series = id(result)


def _post_rescale(tracer, args, result):
    series, k = args
    if id(series) == tracer.last_lambda_series:
        kept = series.coefficients[: series.order // k + 1]
        tracer.counters["lambdas.lambda_series.terms_kept"] += sum(_terms(c) for c in kept)


def _post_geometric(tracer, args, result):
    exponent, coeffs, k = args[:3]
    tracer.counters["finite_model.orbits"] += result
    sizes = [x.source_size for x in coeffs]
    tracer.counters["finite_model.raw_tuples"] += raw_tuples(exponent.source_size, sizes, k)


def targets() -> List[Target]:
    P = "powerstruct."
    poly = P + "rings:SparsePolynomial."
    series = P + "series:TruncatedSeries."
    lam = P + "lambdas:"
    mot = P + "motivic:"
    fm = P + "finite_model:"
    pa = P + "parsing:"
    return [
        Target(poly + "__mul__", "rings.mul", True, _post_poly_mul),
        Target(poly + "__add__", "rings.add", True),
        Target(poly + "__sub__", "rings.sub", True),
        Target(poly + "__neg__", "rings.neg", True),
        Target(poly + "__pow__", "rings.pow", True),
        Target(poly + "substitute", "rings.substitute", True),
        Target(series + "__mul__", "series.mul", True, _post_series_mul),
        Target(series + "invert", "series.invert", True, _post_series_invert),
        Target(series + "rescale", "series.rescale", True, _post_rescale),
        Target(series + "int_pow", "series.int_pow", True),
        Target(series + "__add__", "series.add", True),
        Target(series + "__sub__", "series.sub", True),
        Target(lam + "lambda_series", "lambdas.lambda_series", True, _post_lambda_series),
        Target(lam + "log_map", "lambdas.log"),
        Target(lam + "decompose_product", "lambdas.log"),
        Target(lam + "exp_map", "lambdas.exp"),
        Target(lam + "power", "lambdas.power"),
        Target(lam + "integer_power_formula", "lambdas.formula"),
        Target(mot + "hodge_zeta", "motivic.zeta"),
        Target(mot + "hilb_surface", "motivic.hilb"),
        Target(mot + "hilb_local_surface", "motivic.hilb_local"),
        Target(mot + "specialize_series", "motivic.specialize"),
        Target(P + "kernels:count_profile_orbits", "finite_model.kernel"),
        Target(fm + "particle_configuration_count", "finite_model.particle"),
        Target(fm + "symmetric_power_map", "finite_model.sym_power"),
        Target(fm + "config_space_map", "finite_model.config_space"),
        Target(fm + "geometric_power_coefficient", "finite_model.geometric", post=_post_geometric),
        Target(fm + "finite_series", "finite_model.finite_series"),
        Target(pa + "parse_polynomial", "parsing.parse"),
        Target(pa + "parse_series", "parsing.parse"),
        Target(pa + "parse_ring", "parsing.parse"),
        Target(P + "cli:main", "cli.main"),
    ]


# name -> (unit, better); the order is the order of the report
PER_LAYER = {
    "rings.mul.calls": ("count", "lower"),
    "rings.add.calls": ("count", "lower"),
    "rings.mul.term_pairs": ("count", "lower"),
    "rings.self_s": ("s", "lower"),
    "rings.ns_per_term_pair": ("ns", "lower"),
    "rings.max_terms": ("count", "lower"),
    "rings.max_coeff_bits": ("bits", "lower"),
    "series.mul.calls": ("count", "lower"),
    "series.invert.calls": ("count", "lower"),
    "series.rescale.calls": ("count", "lower"),
    "series.coeff_products": ("count", "lower"),
    "series.self_s": ("s", "lower"),
    "lambdas.lambda_series.calls": ("count", "lower"),
    "lambdas.lambda_series.terms_built": ("count", "lower"),
    "lambdas.lambda_series.useful_ratio": ("ratio", "higher"),
    "lambdas.log.self_s": ("s", "lower"),
    "lambdas.exp.self_s": ("s", "lower"),
    "lambdas.power.self_s": ("s", "lower"),
    "lambdas.formula.self_s": ("s", "lower"),
    "lambdas.self_s": ("s", "lower"),
    "motivic.zeta.self_s": ("s", "lower"),
    "motivic.hilb.self_s": ("s", "lower"),
    "motivic.hilb_local.self_s": ("s", "lower"),
    "motivic.specialize.self_s": ("s", "lower"),
    "motivic.self_s": ("s", "lower"),
    "finite_model.kernel.calls": ("count", "lower"),
    "finite_model.kernel.self_s": ("s", "lower"),
    "finite_model.orbits": ("count", "lower"),
    "finite_model.kernel.us_per_orbit": ("us", "lower"),
    "finite_model.raw_tuples": ("count", "lower"),
    "finite_model.particle.self_s": ("s", "lower"),
    "finite_model.sym_power.self_s": ("s", "lower"),
    "finite_model.self_s": ("s", "lower"),
    "parsing.calls": ("count", "lower"),
    "parsing.self_s": ("s", "lower"),
    "cli.startup_ms": ("ms", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "harness.self_s": ("s", "lower"),
    "trace.bookkeeping_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.accounted_ratio": ("ratio", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# metric-name prefix -> the traced names it needs; such metrics are reported
# absent when all of those names are missing
NEEDS = {
    "rings": ("rings.mul",),
    "series": ("series.mul",),
    "lambdas.lambda_series": ("lambdas.lambda_series",),
    "lambdas.log": ("lambdas.log",),
    "lambdas.exp": ("lambdas.exp",),
    "lambdas.power": ("lambdas.power",),
    "lambdas.formula": ("lambdas.formula",),
    "motivic.zeta": ("motivic.zeta",),
    "motivic.hilb.": ("motivic.hilb",),
    "motivic.hilb_local": ("motivic.hilb_local",),
    "motivic.specialize": ("motivic.specialize",),
    "finite_model.kernel": ("finite_model.kernel",),
    "finite_model.orbits": ("finite_model.geometric",),
    "finite_model.raw_tuples": ("finite_model.geometric",),
    "finite_model.particle": ("finite_model.particle",),
    "finite_model.sym_power": ("finite_model.sym_power",),
    "parsing": ("parsing.parse",),
    "cli": ("cli.main",),
}


def absent_metrics(missing_names) -> List[str]:
    """Per-layer metrics that cannot be measured because a traced name is gone."""
    out = []
    for metric in PER_LAYER:
        for prefix, names in NEEDS.items():
            if metric.startswith(prefix) and all(n in missing_names for n in names):
                out.append(metric)
                break
    return out


def per_layer(tracer, wall_s: float, overhead_ratio: float, startup_ms: List[float]) -> Dict[str, float]:
    """Per-layer metric values from one traced phase."""
    spans = tracer.spans
    own = self_by_name(spans, tracer.totals)
    span_calls: Dict[str, int] = {}
    for record in spans:
        span_calls[record[NAME]] = span_calls.get(record[NAME], 0) + 1

    def calls(name):
        return span_calls.get(name, 0) + tracer.totals.get(name, (0, 0.0))[0]

    def layer(prefix):
        return sum(s for name, s in own.items() if layer_of(name) == prefix)

    c = tracer.counters
    built = c["lambdas.lambda_series.terms_built"]
    pairs = c["rings.mul.term_pairs"]
    orbits = c["finite_model.orbits"]
    accounted = sum(own.values()) + tracer.bookkeeping_s
    m = {
        "rings.mul.calls": calls("rings.mul"),
        "rings.add.calls": calls("rings.add"),
        "rings.mul.term_pairs": pairs,
        "rings.self_s": layer("rings"),
        "rings.ns_per_term_pair": own.get("rings.mul", 0.0) / pairs * 1e9 if pairs else 0.0,
        "rings.max_terms": tracer.maxima["rings.max_terms"],
        "rings.max_coeff_bits": tracer.maxima["rings.max_coeff_bits"],
        "series.mul.calls": calls("series.mul"),
        "series.invert.calls": calls("series.invert"),
        "series.rescale.calls": calls("series.rescale"),
        "series.coeff_products": c["series.coeff_products"],
        "series.self_s": layer("series"),
        "lambdas.lambda_series.calls": calls("lambdas.lambda_series"),
        "lambdas.lambda_series.terms_built": built,
        "lambdas.lambda_series.useful_ratio": c["lambdas.lambda_series.terms_kept"] / built if built else 0.0,
        "lambdas.log.self_s": own.get("lambdas.log", 0.0),
        "lambdas.exp.self_s": own.get("lambdas.exp", 0.0),
        "lambdas.power.self_s": own.get("lambdas.power", 0.0),
        "lambdas.formula.self_s": own.get("lambdas.formula", 0.0),
        "lambdas.self_s": layer("lambdas"),
        "motivic.zeta.self_s": own.get("motivic.zeta", 0.0),
        "motivic.hilb.self_s": own.get("motivic.hilb", 0.0),
        "motivic.hilb_local.self_s": own.get("motivic.hilb_local", 0.0),
        "motivic.specialize.self_s": own.get("motivic.specialize", 0.0),
        "motivic.self_s": layer("motivic"),
        "finite_model.kernel.calls": calls("finite_model.kernel"),
        "finite_model.kernel.self_s": own.get("finite_model.kernel", 0.0),
        "finite_model.orbits": orbits,
        "finite_model.kernel.us_per_orbit": own.get("finite_model.kernel", 0.0) / orbits * 1e6 if orbits else 0.0,
        "finite_model.raw_tuples": c["finite_model.raw_tuples"],
        "finite_model.particle.self_s": own.get("finite_model.particle", 0.0),
        "finite_model.sym_power.self_s": own.get("finite_model.sym_power", 0.0),
        "finite_model.self_s": layer("finite_model"),
        "parsing.calls": calls("parsing.parse"),
        "parsing.self_s": layer("parsing"),
        "cli.startup_ms": statistics.median(startup_ms) if startup_ms else 0.0,
        "cli.main.self_s": own.get("cli.main", 0.0),
        "cli.self_s": layer("cli"),
        "harness.self_s": layer("harness"),
        "trace.bookkeeping_s": tracer.bookkeeping_s,
        "trace.wall_s": wall_s,
        "trace.accounted_ratio": accounted / wall_s if wall_s else 0.0,
        "trace.overhead_ratio": overhead_ratio,
    }
    return m
