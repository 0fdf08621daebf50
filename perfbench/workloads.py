"""The benchmark's workloads: inputs made from a seed, and output checks.

Every repetition of a workload gets its own configuration seed, derived
from the run's ``--seed``, the workload name and the repetition index, so
the same seed gives the same inputs and no repetition repeats another's
channels.  The program sees only the generated ``SimConfig`` or the
``equivalence_suite`` arguments.
"""

import dataclasses
import hashlib
import zlib

import numpy as np

from lramimo import ALL_SPECS, SimConfig, checks, sim

SPECS = {s.spec_id: s for s in ALL_SPECS}
A9_SNRS = (10.0, 12.0, 14.0, 16.0, 18.0, 20.0, 24.0, 28.0, 32.0, 36.0)
A9_SPECS = tuple(
    SPECS[k]
    for k in ("le-zf", "le-mmse", "dfe-zf-lra-orig", "dfe-mmse-lra-orig", "dfe-mmse-lra-aug")
)


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``shape`` holds the ``SimConfig`` fields other than the seed (sweeps)
    or the ``equivalence_suite`` instance count (certification); ``tiny``
    overrides them for the self-check.
    """

    name: str
    why: str
    shape: dict
    tiny: dict

    @property
    def is_sweep(self) -> bool:
        return "n_tx" in self.shape

    def config(self, seed: int, rep: int, tiny: bool = False):
        entropy = [seed, zlib.crc32(self.name.encode()), rep]
        sub_seed = int(np.random.SeedSequence(entropy).generate_state(1)[0])
        shape = {**self.shape, **(self.tiny if tiny else {})}
        if self.is_sweep:
            return SimConfig(seed=sub_seed, **shape)
        return {"n_instances": shape["n_instances"], "seed": sub_seed}

    def units(self, config) -> int:
        """Frames (sweeps) or equivalence instances (certify) in one config."""
        if self.is_sweep:
            return config.trials * config.frames_per_channel * len(config.snr_db)
        return config["n_instances"]

    def run(self, config, workers: int = 1):
        if self.is_sweep:
            return sim.run_monte_carlo(config, workers=workers)
        return checks.equivalence_suite(**config)

    def tally(self, config, outcome):
        """(attempted, failed) operations of one run.

        For sweeps an attempt is a channel draw and a failure a redraw; for
        certification an attempt is one residual check and a failure a
        check over its tolerance.
        """
        if self.is_sweep:
            redraws = outcome.meta["channel_redraws"]
            return config.trials + redraws, redraws
        verdicts = certify_verdicts(outcome)
        return len(verdicts), sum(not ok for ok in verdicts.values())

    def check(self, config, outcome):
        """Descriptions of every wrong output; empty when all are right."""
        if not self.is_sweep:
            return [f"certify: {k} over tolerance" for k, ok in certify_verdicts(outcome).items() if not ok]
        problems = sweep_invariants(config, outcome)
        if config.oracle:
            problems += oracle_dominance(outcome)
        return problems

    def digest(self, outcome, path) -> str:
        """sha256 of the emitted CSV (sweeps) or of the residual report (certify)."""
        if self.is_sweep:
            sim.emit_results(outcome, str(path))
            data = path.read_bytes()
        else:
            data = repr(dataclasses.astuple(outcome)).encode()
        return hashlib.sha256(data).hexdigest()


def counts(result):
    """Every count of a sweep result; identical across worker counts."""
    cells = [(p.spec_id, p.snr_db, p.symbols, p.errors, p.frames, p.vector_errors) for p in result.points]
    return cells, dict(result.clipped), result.meta["channel_redraws"]


def certify_verdicts(report):
    return {
        "feedforward": report.feedforward <= checks.FF_TOL,
        "feedback": report.feedback <= checks.FB_TOL,
        "order_mismatches": report.order_mismatches == 0,
        "schur": report.schur <= checks.SCHUR_TOL,
        "fast_filters": report.fast_filters <= checks.FAST_TOL,
        "fast_order_mismatches": report.fast_order_mismatches == 0,
        "mmse_le_forms": report.mmse_le_forms <= checks.MMSE_FORMS_TOL,
    }


def sweep_invariants(config, result):
    problems = []
    ids = [s.spec_id for s in config.specs] + ([sim.ML_ORACLE_ID] if config.oracle else [])
    cells = {(p.spec_id, p.snr_db) for p in result.points}
    if cells != {(i, s) for i in ids for s in config.snr_db} or len(result.points) != len(cells):
        problems.append("sweep: result cells do not match the config grid")
    frames = config.trials * config.frames_per_channel
    n_real = 2 * config.n_tx
    for p in result.points:
        if p.frames != frames or p.symbols != frames * n_real:
            problems.append(f"sweep: {p.spec_id}@{p.snr_db} counts {p.frames} frames, {p.symbols} symbols")
        if not (p.vector_errors <= p.errors <= n_real * p.vector_errors and p.vector_errors <= p.frames):
            problems.append(f"sweep: {p.spec_id}@{p.snr_db} has inconsistent error counts")
    return problems


def oracle_dominance(result):
    """ML must not lose to any detector by more than their summed ci95."""
    problems = []
    for p in result.points:
        if p.spec_id == sim.ML_ORACLE_ID:
            continue
        ml = result.point(sim.ML_ORACLE_ID, p.snr_db)
        if ml.ser > p.ser + p.ci95 + ml.ci95:
            problems.append(f"oracle: ML SER {ml.ser:.3e} > {p.spec_id} SER {p.ser:.3e} at {p.snr_db} dB")
    return problems


# Workload sizes: one repetition takes roughly a second on one core, so a
# run's median is taken over several repetitions.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="a9-build",
            why="A9-shaped 4x4 sweep over ten SNRs; detector construction (LLL, sorted factorization) dominates",
            shape=dict(n_tx=4, n_rx=4, order=2, snr_db=A9_SNRS, trials=16,
                       frames_per_channel=400, specs=A9_SPECS),
            tiny=dict(trials=2, frames_per_channel=20),
        ),
        Workload(
            name="detect-long",
            why="2x2 order-4 sweep of all ten specs at 40000 frames per channel; detection and noise dominate",
            shape=dict(n_tx=2, n_rx=2, order=4, snr_db=(18.0, 26.0), trials=8,
                       frames_per_channel=40000, specs=ALL_SPECS),
            tiny=dict(trials=1, frames_per_channel=200),
        ),
        Workload(
            name="wide-oracle",
            why="8x8 sweep with the ML oracle; exhaustive search and 16-dimensional LLL dominate, memory peaks",
            shape=dict(n_tx=8, n_rx=8, order=2, snr_db=(8.0, 12.0), trials=2,
                       frames_per_channel=200, specs=A9_SPECS, oracle=True),
            tiny=dict(n_tx=4, n_rx=4, trials=1, frames_per_channel=20),
        ),
        Workload(
            name="certify",
            why="equivalence suite; the only user of estimate and checks, and of the Fraction unimodular inverse",
            shape=dict(n_instances=40),
            tiny=dict(n_instances=4),
        ),
    )
}

# Workloads that run.py accepts but BENCHMARK.json does not list, with the
# reason.  certify stays runnable with its within() gate intact.
UNLISTED = {
    "certify": "equivalence_suite's Schur residual exceeds SCHUR_TOL on about 1 instance in "
    "10 000 (ill-conditioned Z Z^T), so a 25-second run fails its gate on many seeds",
}
