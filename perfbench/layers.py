"""Where floqueng is traced, and how spans become per-layer metrics.

Layers are floqueng's modules.  Each site below is a public name at the place
its callers look it up; see README.md for which end-to-end metric each
per-layer metric should move, on which workload.
"""

from __future__ import annotations

import inspect
import math
from collections import defaultdict

from tracer import self_times

#: Per-layer metrics in output order, with units.
PER_LAYER = (
    ("synth.m1m2_ns_per_sample", "ns"),
    ("synth.drive_ns_per_sample", "ns"),
    ("synth.samples", "count"),
    ("gauge.mu_ns_per_sample", "ns"),
    ("algebra.assemble_ns_per_matrix", "ns"),
    ("propagate.expm_ns_per_matrix", "ns"),
    ("propagate.expm_matrices", "count"),
    ("propagate.integrate_self_ns_per_step_k", "ns"),
    ("propagate.steps_total", "count"),
    ("propagate.steps_accepted", "count"),
    ("propagate.rounds", "count"),
    ("propagate.accepted_frac", "ratio"),
    ("propagate.compare_s", "s"),
    ("propagate.strobe_error_max", "norm"),
    ("propagate.estimated_error", "norm"),
    ("cli.write_ns_per_row", "ns"),
    ("cli.rows", "count"),
    ("cli.bytes_written", "bytes"),
    ("spectra.self_s", "s"),
    ("lattice.self_s", "s"),
    ("su3.table_self_s", "s"),
    ("trace_overhead_frac", "ratio"),
)


def _leading(a) -> int:
    """Number of matrices in a (..., d, d) stack."""
    return math.prod(a.shape[:-2])


def register(tracer, fq) -> None:
    """Register every traced site of the floqueng package ``fq``."""
    synth, algebra, propagate, cli = fq.synth, fq.algebra, fq.propagate, fq.cli
    integrate_sig = inspect.signature(propagate.integrate_tdse)
    write_sig = inspect.signature(cli.write_csv)

    def samples(args, kwargs, result):
        return {"samples": int(result[1].size)}

    def matrices(args, kwargs, result):
        return {"matrices": _leading(result)}

    def expm(args, kwargs, result):
        lead = result.shape[0] if result.ndim > 2 else 1
        return {"matrices": _leading(result), "lead": lead}

    def integrate(args, kwargs, trace):
        # integrate_tdse doubles the step count from base_steps until two
        # successive rounds agree, so the rounds follow from the accepted
        # count; the smoke test checks this against the exponentials counted.
        bound = integrate_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        base = int(bound.arguments["base_steps"])
        rounds = int(round(math.log2(trace.step_count / base))) + 1
        return {"steps_accepted": int(trace.step_count), "rounds": rounds,
                "steps_total": base * (2**rounds - 1)}

    def verify(args, kwargs, report):
        return {"strobe_error_max": float(report.max_strobe_error),
                "estimated_error": float(report.estimated_error)}

    def write(args, kwargs, result):
        bound = write_sig.bind(*args, **kwargs)
        return {"rows": len(bound.arguments["rows"]),
                "bytes": bound.arguments["path"].stat().st_size}

    site = tracer.site
    site(synth.DrivingProtocol, "drive_components", "synth.drive", samples)
    site(synth, "transform_m1", "synth.m1m2")
    site(synth, "transform_m2", "synth.m1m2")
    site(synth, "mu_functions", "gauge.mu")
    site(algebra, "assemble_batch", "algebra.assemble", matrices)
    site(propagate, "expm_herm", "propagate.expm", expm)
    site(propagate, "integrate_tdse", "propagate.integrate", integrate)
    for owner in (propagate, fq.su3, cli):
        site(owner, "verify_protocol", "propagate.verify", verify)
    site(cli, "main", "cli.main")
    site(cli, "validate", "cli.config")
    site(cli, "build_protocol", "cli.config")
    site(cli, "write_csv", "cli.write", write)
    site(fq.spectra, "band_structure", "spectra")
    site(fq.spectra, "envelope_fourier", "spectra")
    site(fq.lattice, "expand_to_lattice", "lattice")
    site(fq.lattice, "lattice_vs_momentum_check", "lattice")
    site(fq.su3, "su3_drive_table", "su3.table")


def per_layer(spans) -> dict:
    """Per-layer metrics of one traced pass (``trace_overhead_frac`` aside)."""
    selfs = self_times(spans)
    dur = defaultdict(int)
    own = defaultdict(int)
    count = defaultdict(float)
    for span, self_ns in zip(spans, selfs):
        dur[span.name] += span.duration
        own[span.name] += self_ns
        for key, value in span.attrs.items():
            count[f"{span.name}.{key}"] += value
    step_k = 0       # exponentials taken inside the integrator
    compare_ns = 0   # verify time outside integration
    for span in spans:
        parent = spans[span.parent] if span.parent is not None else None
        if parent is None:
            continue
        if span.name == "propagate.expm" and parent.name == "propagate.integrate":
            step_k += span.attrs.get("matrices", 0)
        if span.name == "propagate.integrate" and parent.name == "propagate.verify":
            compare_ns -= span.duration
    compare_ns += dur["propagate.verify"]
    verify_spans = [s for s in spans if s.name == "propagate.verify" and s.attrs]

    def per(num, den):
        return num / den if den else 0.0

    samples = count["synth.drive.samples"]
    steps_total = count["propagate.integrate.steps_total"]
    return {
        "synth.m1m2_ns_per_sample": per(dur["synth.m1m2"], samples),
        "synth.drive_ns_per_sample": per(own["synth.drive"], samples),
        "synth.samples": samples,
        "gauge.mu_ns_per_sample": per(dur["gauge.mu"], samples),
        "algebra.assemble_ns_per_matrix": per(dur["algebra.assemble"],
                                              count["algebra.assemble.matrices"]),
        "propagate.expm_ns_per_matrix": per(dur["propagate.expm"],
                                            count["propagate.expm.matrices"]),
        "propagate.expm_matrices": count["propagate.expm.matrices"],
        "propagate.integrate_self_ns_per_step_k": per(own["propagate.integrate"], step_k),
        "propagate.steps_total": steps_total,
        "propagate.steps_accepted": count["propagate.integrate.steps_accepted"],
        "propagate.rounds": count["propagate.integrate.rounds"],
        "propagate.accepted_frac": per(count["propagate.integrate.steps_accepted"],
                                       steps_total),
        "propagate.compare_s": compare_ns * 1e-9,
        "propagate.strobe_error_max": max(
            (s.attrs["strobe_error_max"] for s in verify_spans), default=0.0),
        "propagate.estimated_error": max(
            (s.attrs["estimated_error"] for s in verify_spans), default=0.0),
        "cli.write_ns_per_row": per(own["cli.write"], count["cli.write.rows"]),
        "cli.rows": count["cli.write.rows"],
        "cli.bytes_written": count["cli.write.bytes"],
        "spectra.self_s": own["spectra"] * 1e-9,
        "lattice.self_s": own["lattice"] * 1e-9,
        "su3.table_self_s": own["su3.table"] * 1e-9,
    }
