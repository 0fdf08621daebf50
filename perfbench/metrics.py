"""Metric catalogue and the per-layer metrics derived from a traced run.

``END_TO_END`` and ``PER_LAYER`` name every metric the benchmark prints
in its result line, with its unit; ``BENCHMARK.json`` lists the same
names and the self-check holds the two together.
"""

from collections import defaultdict
from statistics import median

from lramimo import ALL_SPECS

import spans

SPEC_IDS = tuple(s.spec_id for s in ALL_SPECS)

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PROFILED = ("lattice.lll_reduce", "blast.vblast_sorted_factorization")
ESTIMATE = ("schur_gramian_identity", "correlated_ff_matrix", "correlated_fb_matrix", "sorting_metric")
CHECKS = ("check_dfe_equivalence", "check_schur_identity", "check_fast_vblast", "check_mmse_le_forms")


def _per_layer_units():
    units = {}
    for layer in PROFILED:
        units.update({
            f"{layer}.calls": "count",
            f"{layer}.busy_s": "s",
            f"{layer}.us_p50": "us",
            f"{layer}.us_tail": "us",
            f"{layer}.qr_calls": "count",
            f"{layer}.repeat_input_share": "ratio",
        })
    units.update({
        "lattice.z_max_abs": "1",
        "lattice.unimodular_inverse.calls": "count",
        "lattice.unimodular_inverse.busy_s": "s",
        "blast.classic_dfe_filters.self_s": "s",
        "blast.fast_vblast_correlated.calls": "count",
        "blast.fast_vblast_correlated.busy_s": "s",
        "blast.fast_vblast_correlated.us_p50": "us",
        "equalize.build_detector.calls": "count",
        "equalize.build_detector.self_s": "s",
        "equalize.build_detector.us_tail": "us",
    })
    units.update({f"equalize.build_detector.us_p50.{s}": "us" for s in SPEC_IDS})
    units.update({
        "equalize.detect_block.calls": "count",
        "equalize.detect_block.busy_s": "s",
    })
    units.update({f"equalize.detect_block.ns_per_frame.{s}": "ns" for s in SPEC_IDS})
    units.update({
        "model.channel_validate.calls": "count",
        "model.channel_validate.busy_s": "s",
        "sim.trial.ms_p50": "ms",
        "sim.trial.ms_tail": "ms",
        "sim.trial.self_s": "s",
        "sim.draws_per_trial": "1",
        "sim.oracle.busy_s": "s",
        "sim.oracle.ns_per_frame": "ns",
        "sim.oracle.flops_computed": "flop/frame",
        "sim.oracle.bytes_computed": "B/frame",
        "sim.nproc_speedup": "ratio",
        "sim.frames_per_s_nproc": "1/s",
    })
    for fname in ESTIMATE:
        units[f"estimate.{fname}.calls"] = "count"
        units[f"estimate.{fname}.busy_s"] = "s"
    units.update({f"checks.{fname}.busy_s": "s" for fname in CHECKS})
    units["trace.overhead_ratio"] = "ratio"
    return units


PER_LAYER = _per_layer_units()


def oracle_cost(h_shape, frames, order):
    """(flops, bytes) of one ``_ml_detect_block`` call, from array shapes.

    Counts the candidate grid (n arrays of K entries, stacked), the images
    K x m, their squared norms, the K x F correlation, the distance update
    and the argmin over K, with every float64 array touched once per pass.
    """
    m, n = h_shape
    k = order**n
    flops = 2 * k * n * m + 2 * k * m + 2 * k * m * frames + 3 * k * frames
    nbytes = 8 * (2 * k * n + 3 * k * m + m * frames + 4 * k * frames)
    return flops, nbytes


def layer_metrics(tracer, extra):
    """Every ``PER_LAYER`` metric from the tracer's spans.

    ``extra`` supplies the metrics measured around the traced run rather
    than inside it (tracing overhead, worker speedup).  Returns the metric
    values and, for each tail metric, its percentile label and sample count.
    """
    all_spans = tracer.spans
    selfs = tracer.self_times()
    in_probe = tracer.probe_members()
    by_name = defaultdict(list)
    for idx, span in enumerate(all_spans):
        # The probe only times the fast factorization; nothing else counts it.
        if not in_probe[idx] or span[0] == "blast.fast_vblast_correlated":
            by_name[span[0]].append(idx)

    def durs(name):
        return [all_spans[i][2] - all_spans[i][1] for i in by_name[name]]

    def self_sum(name):
        return sum(selfs[i] for i in by_name[name])

    def med(values):
        return median(values) if values else 0.0

    out = {}
    tails = {}

    def put_tail(name, values, scale):
        value, label, n = spans.tail(values)
        out[name] = value * scale
        tails[name] = {"percentile": label, "samples": n}

    for layer in PROFILED:
        idx = by_name[layer]
        d = durs(layer)
        out[f"{layer}.calls"] = len(idx)
        out[f"{layer}.busy_s"] = sum(d)
        out[f"{layer}.us_p50"] = med(d) * 1e6
        put_tail(f"{layer}.us_tail", d, 1e6)
        out[f"{layer}.qr_calls"] = sum(all_spans[i][5] for i in idx)
        repeats = sum(all_spans[i][6]["repeat"] for i in idx)
        out[f"{layer}.repeat_input_share"] = repeats / len(idx) if idx else 0.0
    out["lattice.z_max_abs"] = max(
        (all_spans[i][6]["z_max_abs"] for i in by_name["lattice.lll_reduce"]), default=0
    )
    for name in ("lattice.unimodular_inverse", "blast.fast_vblast_correlated",
                 "equalize.detect_block", "model.channel_validate"):
        out[f"{name}.calls"] = len(by_name[name])
        out[f"{name}.busy_s"] = sum(durs(name))
    out["blast.classic_dfe_filters.self_s"] = self_sum("blast.classic_dfe_filters")
    out["blast.fast_vblast_correlated.us_p50"] = med(durs("blast.fast_vblast_correlated")) * 1e6

    builds = by_name["equalize.build_detector"]
    out["equalize.build_detector.calls"] = len(builds)
    out["equalize.build_detector.self_s"] = self_sum("equalize.build_detector")
    put_tail("equalize.build_detector.us_tail", durs("equalize.build_detector"), 1e6)
    build_by_spec = defaultdict(list)
    for i in builds:
        build_by_spec[all_spans[i][6]["spec"]].append(all_spans[i][2] - all_spans[i][1])
    detect_time = defaultdict(float)
    detect_frames = defaultdict(int)
    for i in by_name["equalize.detect_block"]:
        spec = all_spans[i][6]["spec"]
        detect_time[spec] += all_spans[i][2] - all_spans[i][1]
        detect_frames[spec] += all_spans[i][6]["frames"]
    for spec in SPEC_IDS:
        out[f"equalize.build_detector.us_p50.{spec}"] = med(build_by_spec[spec]) * 1e6
        frames = detect_frames[spec]
        out[f"equalize.detect_block.ns_per_frame.{spec}"] = detect_time[spec] / frames * 1e9 if frames else 0.0

    trials = durs("sim.trial")
    out["sim.trial.ms_p50"] = med(trials) * 1e3
    put_tail("sim.trial.ms_tail", trials, 1e3)
    out["sim.trial.self_s"] = self_sum("sim.trial")
    out["sim.draws_per_trial"] = tracer.draws / len(trials) if trials else 0.0
    oracle = by_name["sim.oracle"]
    oracle_frames = sum(all_spans[i][6]["frames"] for i in oracle)
    flops = nbytes = 0
    for i in oracle:
        info = all_spans[i][6]
        f, b = oracle_cost(info["h"], info["frames"], info["order"])
        flops += f
        nbytes += b
    out["sim.oracle.busy_s"] = sum(durs("sim.oracle"))
    per_frame = 1.0 / oracle_frames if oracle_frames else 0.0
    out["sim.oracle.ns_per_frame"] = out["sim.oracle.busy_s"] * 1e9 * per_frame
    out["sim.oracle.flops_computed"] = flops * per_frame
    out["sim.oracle.bytes_computed"] = nbytes * per_frame

    for fname in ESTIMATE:
        out[f"estimate.{fname}.calls"] = len(by_name[f"estimate.{fname}"])
        out[f"estimate.{fname}.busy_s"] = sum(durs(f"estimate.{fname}"))
    for fname in CHECKS:
        out[f"checks.{fname}.busy_s"] = sum(durs(f"checks.{fname}"))
    out.update(extra)
    return out, tails


def busy_shares(tracer):
    """Busy and self time of each span name as a share of the root spans' time.

    Root spans are trials (sweeps) or checks (certify); the probe is left out.
    """
    selfs = tracer.self_times()
    in_probe = tracer.probe_members()
    busy = defaultdict(float)
    own = defaultdict(float)
    total = 0.0
    for idx, span in enumerate(tracer.spans):
        if in_probe[idx]:
            continue
        dur = span[2] - span[1]
        busy[span[0]] += dur
        own[span[0]] += selfs[idx]
        if span[3] < 0:
            total += dur
    if total <= 0.0:
        return {}
    return {
        name: {"busy": busy[name] / total, "self": own[name] / total}
        for name in sorted(busy, key=busy.get, reverse=True)
    }
