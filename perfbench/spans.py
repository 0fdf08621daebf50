"""In-memory span tracer installed around lramimo's module boundaries.

Wrappers are installed at the name each caller looks up: a from-import
binds its own name at import time, so ``equalize.lll_reduce`` and
``checks.lll_reduce`` are wrapped separately, as are the ``sim`` bindings
of ``build_detector``, ``detect_block``, ``_ml_detect_block`` and
``_run_trial``.  Nothing inside the package is edited; ``uninstall``
restores every original binding.
"""

import functools
from time import perf_counter

import numpy as np

# Tail ladder: the reported tail is the highest of these percentiles with at
# least TAIL_MIN_BEYOND samples above it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10

PROBE = "bench.probe"
# The fast-factorization probe replays the reductions of this spec.
PROBE_SPEC = "dfe-mmse-lra-aug"
PROBE_LIMIT = 64


class Tracer:
    """Spans of one traced run, kept in memory until the run ends.

    Each span is the list [name, start, end, parent, trial, qr_calls, info]:
    ``parent`` is the index of the enclosing span or -1, ``trial`` the id of
    the trial (or certification check) it belongs to, ``qr_calls`` the
    ``numpy.linalg.qr`` calls made while it was the innermost span, and
    ``info`` a dict of per-call facts (spec id, frame count, repeat flag).
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.trial = None
        self.draws = 0
        self.probe_inputs = []
        self._seen = {}
        self._saved = []

    # -- recording -------------------------------------------------------

    def open(self, name, info=None):
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, parent, self.trial, 0, info])
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def begin_scope(self, trial_id):
        """Start a trial: repeat detection compares inputs within one trial."""
        self.trial = trial_id
        self._seen = {}

    def repeated(self, layer, matrix):
        arr = np.ascontiguousarray(matrix)
        key = (arr.shape, arr.dtype.str, arr.tobytes())
        seen = self._seen.setdefault(layer, set())
        if key in seen:
            return True
        seen.add(key)
        return False

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _span(self, owner, attr, name, before=None, after=None):
        """Wrap ``owner.attr`` in a span; hooks add facts to the span's info."""
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            info = before(args) if before else None
            idx = tracer.open(name, info)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after:
                after(tracer.spans[idx], args, result)
            return result

        self._patch(owner, attr, traced)

    def _scope(self, owner, attr, name, trial_of):
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.begin_scope(trial_of(args))
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)
                tracer.trial = None

        self._patch(owner, attr, traced)

    def install(self):
        """Wrap every traced binding of the imported ``lramimo`` package."""
        from lramimo import blast, checks, equalize, estimate, model, sim

        tracer = self
        real_qr = np.linalg.qr

        def counting_qr(*args, **kwargs):
            if tracer.stack:
                tracer.spans[tracer.stack[-1]][5] += 1
            return real_qr(*args, **kwargs)

        self._patch(np.linalg, "qr", counting_qr)

        def repeat_of(layer):
            return lambda args: {"repeat": tracer.repeated(layer, args[0])}

        def z_max(span, args, result):
            span[6]["z_max_abs"] = max(abs(int(v)) for v in result.unimodular.flat)

        for owner in (equalize, checks):
            self._span(owner, "lll_reduce", "lattice.lll_reduce",
                       before=repeat_of("lll"), after=z_max)
        for owner in (blast, estimate, equalize):
            self._span(owner, "unimodular_inverse", "lattice.unimodular_inverse")

        self._span(blast, "vblast_sorted_factorization", "blast.vblast_sorted_factorization",
                   before=repeat_of("vblast"))
        self._span(blast, "classic_dfe_filters", "blast.classic_dfe_filters")
        self._span(blast, "fast_vblast_correlated", "blast.fast_vblast_correlated")

        self._span(model.MimoChannel, "__post_init__", "model.channel_validate")

        def keep_probe_input(span, args, detector):
            spec, channel = args
            if spec.spec_id == PROBE_SPEC and len(tracer.probe_inputs) < PROBE_LIMIT:
                tracer.probe_inputs.append(
                    (channel.matrix, detector.reduction.unimodular, channel.inv_snr)
                )

        self._span(sim, "build_detector", "equalize.build_detector",
                   before=lambda args: {"spec": args[0].spec_id}, after=keep_probe_input)
        self._span(sim, "detect_block", "equalize.detect_block",
                   before=lambda args: {"spec": args[0].spec.spec_id,
                                        "frames": np.shape(args[1])[1]})
        self._span(sim, "_ml_detect_block", "sim.oracle",
                   before=lambda args: {"h": np.shape(args[0]), "frames": np.shape(args[1])[1],
                                        "order": args[2].order})
        self._scope(sim, "_run_trial", "sim.trial", trial_of=lambda args: ("trial", args[1]))

        real_draw = sim.draw_channel

        @functools.wraps(real_draw)
        def counted_draw(*args, **kwargs):
            tracer.draws += 1
            return real_draw(*args, **kwargs)

        self._patch(sim, "draw_channel", counted_draw)

        for fname in ("schur_gramian_identity", "correlated_ff_matrix",
                      "correlated_fb_matrix", "sorting_metric"):
            self._span(estimate, fname, f"estimate.{fname}")
        for fname in ("check_dfe_equivalence", "check_schur_identity",
                      "check_fast_vblast", "check_mmse_le_forms"):
            self._scope(checks, fname, f"checks.{fname}",
                        trial_of=lambda args, f=fname: (f, len(self.spans)))

    def run_probe(self):
        """Time the fast correlated factorization on the kept reductions.

        Runs under its own root span, outside every trial, so it counts
        neither in trial spans nor in the tracing overhead.
        """
        from lramimo import blast

        self.trial = None
        root = self.open(PROBE)
        try:
            for h, z, zeta in self.probe_inputs:
                blast.fast_vblast_correlated(h, z, zeta)
        finally:
            self.close(root)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------

    def self_times(self):
        """Per-span duration minus the union of its children's intervals."""
        children = {}
        for idx, span in enumerate(self.spans):
            if span[3] >= 0:
                children.setdefault(span[3], []).append(idx)
        out = []
        for idx, span in enumerate(self.spans):
            covered = 0.0
            reach = span[1]
            for c in sorted(children.get(idx, ()), key=lambda i: self.spans[i][1]):
                start, end = max(self.spans[c][1], reach), self.spans[c][2]
                if end > start:
                    covered += end - start
                    reach = end
            out.append((span[2] - span[1]) - covered)
        return out

    def nesting_violations(self):
        """Spans that do not lie inside their parent's interval."""
        bad = []
        for idx, span in enumerate(self.spans):
            if span[3] >= 0:
                parent = self.spans[span[3]]
                if span[1] < parent[1] or span[2] > parent[2]:
                    bad.append(idx)
        return bad

    def probe_members(self):
        """Indices of spans under a probe root; layer shares exclude them."""
        member = [False] * len(self.spans)
        for idx, span in enumerate(self.spans):
            member[idx] = span[0] == PROBE or (span[3] >= 0 and member[span[3]])
        return member

    def dump(self):
        return {
            "fields": ["name", "start", "end", "parent", "trial", "qr_calls", "info"],
            "spans": [
                [s[0], s[1], s[2], s[3], None if s[4] is None else list(s[4]), s[5], s[6]]
                for s in self.spans
            ],
        }


def tail(samples):
    """(value, percentile label, sample count) of the reported tail."""
    n = len(samples)
    if n == 0:
        return 0.0, "none", 0
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND:
            return float(np.percentile(samples, p)), f"p{p:g}", n
    return float(np.max(samples)), "max", n
