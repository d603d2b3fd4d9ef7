"""Names and units of every metric the benchmark reports.

``END_TO_END`` is reported with ``--trace 0`` and ``PER_LAYER`` with
``--trace 1``; BENCHMARK.json lists the same names and units.
"""

from tracer import KERNEL, LAYERS

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "peak_rss_mb": "MB",
}


def _per_layer() -> dict[str, str]:
    out = {}
    for kernel in KERNEL:
        out[f"kernel.{kernel}.calls"] = "count"
        out[f"kernel.{kernel}.self_s"] = "s"
    out["kernel.eig_per_sd"] = "count/call"
    for layer in ("linalg", "divergences", "frechet", "frechet.oracle", "ensembles"):
        for fn in LAYERS[layer]:
            out[f"{layer}.{fn}.calls"] = "count"
            out[f"{layer}.{fn}.self_s"] = "s"
    for d in (2, 8, 32, 128):
        out[f"divergences.skew_divergence.p50_us.d{d}"] = "us"
    for d in (2, 8, 128):
        out[f"divergences.sd_over_eigh.d{d}"] = "ratio"
    out["frechet.oracle.solves_per_quadrature"] = "count/call"
    out["frechet.oracle.eigh_per_averaging"] = "count/call"
    for suite in ("core", "div", "frechet", "ensemble", "sim"):
        out[f"verify.suite.{suite}.s"] = "s"
    out["verify.check.fre.quadrature_match.s"] = "s"
    out["verify.check.fre.averaging_match.s"] = "s"
    out["verify.runner_overhead_s"] = "s"
    out["cli.import_s"] = "s"
    out["cli.main.self_s"] = "s"
    for fn in LAYERS["io"]:
        out[f"io.{fn}.self_s"] = "s"
    out["trace.overhead_s"] = "s"
    return out


PER_LAYER = _per_layer()
