import concurrent.futures
import csv
import functools
import json
import math
import multiprocessing
import os
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lramimo import equalize, lattice, model, sim
from lramimo.blast import FactorizationError
from lramimo.equalize import (
    ALL_SPECS,
    Criterion,
    EqualizerSpec,
    ReductionTarget,
    build_detector,
    detect_block,
)
from lramimo.lattice import ReductionError
from lramimo.model import RankDeficientError, make_ask_constellation
from lramimo.sim import (
    ML_ORACLE_ID,
    RedrawLimitError,
    SimConfig,
    SimPoint,
    compare_reduction_targets,
    draw_channel,
    emit_results,
    run_monte_carlo,
    trial_rng,
)
from test_lattice import patch_lattice_inv


_NEEDS_FORK = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="forked workers are needed to carry the patched builder",
)


def _specs(*ids):
    table = {s.spec_id: s for s in ALL_SPECS}
    return tuple(table[i] for i in ids)


def _config(**overrides):
    base = dict(
        n_tx=2,
        n_rx=2,
        order=2,
        snr_db=(5.0, 15.0),
        trials=4,
        frames_per_channel=6,
        seed=1234,
        specs=_specs("le-zf", "le-mmse"),
    )
    base.update(overrides)
    return SimConfig(**base)


class TestSimConfig:
    def test_rejects_bad_settings(self):
        with pytest.raises(ValueError):
            _config(snr_db=(10.0, 5.0))
        with pytest.raises(ValueError):
            _config(snr_db=())
        with pytest.raises(ValueError):
            _config(specs=_specs("le-zf", "le-zf"))
        with pytest.raises(ValueError):
            _config(specs=())
        with pytest.raises(ValueError):
            _config(order=3)
        with pytest.raises(ValueError):
            _config(n_tx=3, n_rx=2)
        with pytest.raises(ValueError):
            _config(trials=0)

    @pytest.mark.parametrize(
        "overrides, field",
        [
            (dict(snr_db=(5.0, float("nan"))), "snr_db"),
            (dict(snr_db=(-np.inf, 5.0)), "snr_db"),
            (dict(seed=-1), "seed"),
            (dict(n_tx=4, n_rx=4, order=8, oracle=True), "oracle"),
        ],
        ids=["nan-snr", "minus-inf-snr", "negative-seed", "oracle-too-large"],
    )
    def test_rejects_values_that_would_fail_mid_run(self, overrides, field):
        with pytest.raises(ValueError, match=field):
            _config(**overrides)

    @pytest.mark.parametrize("snr", [4000.0, -4000.0, -3200.0], ids=["overflow", "zero", "inf-noise"])
    def test_rejects_snrs_without_a_finite_positive_noise_variance(self, snr):
        with pytest.raises(ValueError, match=f"snr_db {snr} gives no finite noise variance"):
            _config(snr_db=(snr,))

    def test_plus_inf_snr_runs_noiseless(self):
        # -300 and 300 dB are extreme but give a finite noise variance > 0, so they run too.
        result = run_monte_carlo(_config(snr_db=(-300.0, 15.0, 300.0, np.inf), trials=2))
        for spec_id in ("le-zf", "le-mmse"):
            assert result.point(spec_id, np.inf).errors == 0

    def test_from_dict_round_trip(self):
        data = {
            "n_tx": 2,
            "n_rx": 3,
            "order": 4,
            "snr_db": [0, 10, 20],
            "trials": 7,
            "frames_per_channel": 11,
            "seed": 99,
            "specs": [
                {"structure": "le", "criterion": "zf"},
                {"structure": "dfe", "criterion": "mmse", "lra": True},
            ],
            "oracle": True,
        }
        cfg = SimConfig.from_dict(data)
        assert cfg.snr_db == (0.0, 10.0, 20.0)
        assert [s.spec_id for s in cfg.specs] == ["le-zf", "dfe-mmse-lra-aug"]
        assert cfg.oracle

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            SimConfig.from_dict({"n_tx": 2, "snr": [10]})

    @staticmethod
    def _data(**overrides):
        data = {
            "n_tx": 2, "n_rx": 2, "order": 2, "snr_db": [10], "trials": 1,
            "frames_per_channel": 1, "seed": 5, "specs": [{"structure": "le", "criterion": "zf"}],
        }
        data.update(overrides)
        return data

    def test_from_dict_rejects_coerced_values(self):
        for key, value in (
            ("oracle", "false"), ("oracle", 0), ("oracle", None),
            ("n_tx", 1.9), ("n_tx", "2"), ("n_rx", True), ("seed", None), ("trials", float("inf")),
            ("snr_db", "15"), ("snr_db", ["10", 20]), ("snr_db", [True]),
        ):
            with pytest.raises(ValueError, match=key):
                SimConfig.from_dict(self._data(**{key: value}))

    def test_from_dict_accepts_integral_numbers_and_bools(self):
        cfg = SimConfig.from_dict(self._data(n_tx=2.0, n_rx=3, seed=np.int64(5), oracle=False))
        assert (cfg.n_tx, cfg.n_rx, cfg.seed, cfg.oracle) == (2, 3, 5, False)
        assert type(cfg.n_tx) is int and type(cfg.seed) is int

    @pytest.mark.parametrize(
        "key, value",
        [("frames_per_channel", 10.5), ("trials", 2.5), ("n_tx", 1.5), ("seed", 1.5),
         ("frames_per_channel", True), ("order", "4")],
    )
    def test_direct_construction_rejects_non_integral_counts(self, key, value):
        # The rule of from_dict, so the error comes before any trial runs.
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            _config(**{key: value})
        cfg = _config(**{key: 2.0})
        assert type(getattr(cfg, key)) is int and getattr(cfg, key) == 2

    @pytest.mark.parametrize(
        "key, value",
        [("snr_db", "15"), ("snr_db", [True, 5]), ("snr_db", ("10", 20)),
         ("oracle", "false"), ("oracle", 0.0), ("oracle", 1), ("oracle", None)],
    )
    def test_direct_construction_rejects_coerced_snrs_and_oracle(self, key, value):
        # "15" would run at (1.0, 5.0) dB and "false" would run the oracle.
        with pytest.raises(ValueError, match=key):
            _config(**{key: value})

    @pytest.mark.parametrize(
        "specs",
        [({"structure": "le", "criterion": "zf"},), ("le-zf",), (None,), "le-zf", None],
        ids=["dict-entry", "id-entry", "none-entry", "id-string", "none"],
    )
    def test_direct_construction_rejects_specs_that_are_not_equalizer_specs(self, specs):
        with pytest.raises(ValueError, match="specs"):
            _config(specs=specs)

    def test_from_dict_names_missing_keys(self):
        data = self._data()
        del data["specs"], data["seed"]
        with pytest.raises(ValueError, match=r"missing config keys: \['seed', 'specs'\]"):
            SimConfig.from_dict(data)


class TestRandomStreams:
    def test_trial_rng_reproducible_and_distinct(self):
        a = trial_rng(7, 3).normal(size=8)
        b = trial_rng(7, 3).normal(size=8)
        c = trial_rng(7, 4).normal(size=8)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_draw_channel_shape_and_embedding(self):
        ch = draw_channel(trial_rng(0, 0), n_rx=3, n_tx=2)
        assert ch.matrix.shape == (6, 4)
        top_left = ch.matrix[:3, :2]
        top_right = ch.matrix[:3, 2:]
        np.testing.assert_array_equal(ch.matrix[3:, 2:], top_left)
        np.testing.assert_array_equal(ch.matrix[3:, :2], -top_right)

    def test_draw_channel_deterministic(self):
        a = draw_channel(trial_rng(5, 1), 2, 2)
        b = draw_channel(trial_rng(5, 1), 2, 2)
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_entry_variance_is_half_per_real_part(self):
        rng = trial_rng(11, 0)
        sq = [draw_channel(rng, 4, 4).matrix ** 2 for _ in range(200)]
        mean_sq = np.mean(sq)
        n_entries = 200 * 64
        # var(x^2) = 1/2 for x ~ N(0, 1/2)
        se = np.sqrt(0.5 / n_entries)
        assert abs(mean_sq - 0.5) < 3 * se


class TestMlBruteForce:
    """The exhaustive search on one-frame blocks."""

    @staticmethod
    def _detect(h, y, constellation):
        return sim._ml_detect_block(h, np.asarray(y)[:, None], constellation)[:, 0]

    def test_noiseless_recovery(self):
        rng = np.random.default_rng(3)
        constellation = make_ask_constellation(2)
        h = rng.normal(size=(6, 6))
        a = rng.choice(constellation.points, size=6)
        got = self._detect(h, h @ a, constellation)
        np.testing.assert_array_equal(got, a)

    def test_hand_checked_2x2(self):
        # Shear channel, y = (1.2, 0.1): distances over the four candidates
        # are 0.2, 1.8, 1.6, 5.2, so (+, +) wins.
        h = np.array([[1.0, 1.0], [0.0, 1.0]])
        got = self._detect(h, [1.2, 0.1], make_ask_constellation(2))
        np.testing.assert_array_equal(got, [0.5, 0.5])

    def test_tie_breaks_lexicographically_smallest(self):
        got = self._detect(np.eye(2), np.zeros(2), make_ask_constellation(2))
        np.testing.assert_array_equal(got, [-0.5, -0.5])

    def test_search_limit(self):
        with pytest.raises(ValueError):
            self._detect(np.eye(10), np.zeros(10), make_ask_constellation(4))


class TestRunMonteCarlo:
    def test_noiseless_limit_has_zero_errors(self):
        cfg = _config(
            snr_db=(300.0,),
            trials=3,
            frames_per_channel=5,
            specs=_specs("le-zf", "dfe-mmse", "dfe-mmse-lra-aug"),
            oracle=True,
        )
        result = run_monte_carlo(cfg)
        assert all(p.errors == 0 and p.vector_errors == 0 for p in result.points)

    def test_seed_determinism(self):
        cfg = _config()
        r1 = run_monte_carlo(cfg)
        r2 = run_monte_carlo(cfg)
        assert [(p.spec_id, p.snr_db, p.errors, p.vector_errors) for p in r1.points] == [
            (p.spec_id, p.snr_db, p.errors, p.vector_errors) for p in r2.points
        ]
        assert r1.clipped == r2.clipped

    def test_worker_count_does_not_change_counts(self):
        cfg = _config(trials=6, specs=_specs("le-zf", "dfe-mmse-lra-aug"))
        serial = run_monte_carlo(cfg, workers=1)
        parallel = run_monte_carlo(cfg, workers=2)
        assert [(p.errors, p.vector_errors) for p in serial.points] == [
            (p.errors, p.vector_errors) for p in parallel.points
        ]
        assert serial.clipped == parallel.clipped
        assert parallel.meta["workers"] == 2

    @pytest.mark.parametrize("workers, recorded", [(2.5, None), ("2", None), (True, None), (2.0, 2)])
    def test_workers_must_be_an_integer(self, workers, recorded):
        cfg = _config(specs=_specs("le-zf"))
        if recorded is None:
            with pytest.raises(ValueError, match="workers must be an integer"):
                run_monte_carlo(cfg, workers=workers)
        else:
            got = run_monte_carlo(cfg, workers=workers).meta["workers"]
            assert type(got) is int and got == recorded

    @pytest.mark.parametrize("workers", [1, pytest.param(2, marks=_NEEDS_FORK)])
    def test_result_is_the_sum_of_the_trials(self, monkeypatch, workers):
        _fail_by_corner(monkeypatch)
        cfg = _config(order=4, snr_db=(0.0, 10.0), trials=6, oracle=True,
                      specs=_specs("le-zf", "dfe-mmse-lra-aug"))
        outcomes = [sim._run_chunk(cfg, range(trial, trial + 1)) for trial in range(cfg.trials)]
        for counts, _ in outcomes:
            assert counts.dtype == np.int64 and counts.shape == (3, 3, len(cfg.snr_db))
        counts = sum(trial_counts for trial_counts, _ in outcomes)
        causes = sum((trial_causes for _, trial_causes in outcomes), Counter())
        assert counts[2].any() and causes, "no clips or no redraws; their sums go unchecked"
        result = run_monte_carlo(cfg, workers=workers)
        ids = ["le-zf", "dfe-mmse-lra-aug", ML_ORACLE_ID]
        assert [(p.spec_id, p.snr_db, p.errors, p.vector_errors) for p in result.points] == [
            (spec_id, snr, counts[0, i, j], counts[1, i, j])
            for i, spec_id in enumerate(ids)
            for j, snr in enumerate(cfg.snr_db)
        ]
        assert result.clipped == {spec_id: counts[2, i].sum() for i, spec_id in enumerate(ids)}
        assert result.meta["redraw_causes"] == dict(sorted(causes.items()))
        assert result.meta["channel_redraws"] == causes.total()

    @pytest.mark.parametrize(
        "workers, trials, pools",
        [(10_000, 3, [3]), (4, 1, []), (2, 6, [2])],
        ids=["capped-at-trials", "one-trial-no-pool", "below-trials"],
    )
    def test_pool_has_at_most_one_process_per_trial(self, monkeypatch, workers, trials, pools):
        built, map_options = [], []

        class InlinePool:
            """Records the pool size it is asked for and maps in this process."""

            def __init__(self, max_workers):
                built.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, **options):
                map_options.append(options)
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        cfg = _config(trials=trials)
        result = run_monte_carlo(cfg, workers=workers)
        assert built == pools
        assert map_options == [{}] * len(pools)  # no chunksize: a task is one chunk of trials
        assert result.meta["workers"] == (pools[0] if pools else 1)
        assert result.points == run_monte_carlo(cfg).points

    @pytest.mark.parametrize(
        "trials, workers", [(1, 1), (20, 3), (7, 2), (64, 1), (65, 1), (200, 3), (129, 2), (5, 5)]
    )
    def test_chunks_are_balanced_capped_and_fewest(self, trials, workers):
        chunks = sim._chunks(_config(trials=trials), workers)
        assert [t for chunk in chunks for t in chunk] == list(range(trials))
        sizes = [len(chunk) for chunk in chunks]
        assert max(sizes) - min(sizes) <= 1 and max(sizes) <= sim._CHUNK_TRIALS
        per_worker = -(-trials // (workers * sim._CHUNK_TRIALS))
        assert len(chunks) == min(trials, workers * per_worker)

    def test_a_wide_receive_side_takes_smaller_chunks(self):
        # 10 SNR points at 2 x 16385 real receive rows: one trial's augmented
        # stack alone exceeds the entry cap.
        cfg = _config(n_tx=1, n_rx=16385, snr_db=tuple(range(10)), trials=3)
        assert [len(chunk) for chunk in sim._chunks(cfg, 1)] == [1, 1, 1]
        assert [len(chunk) for chunk in sim._chunks(_config(trials=3), 1)] == [3]

    @_NEEDS_FORK
    @pytest.mark.parametrize("failing", [False, True], ids=["stacked", "redrawn"])
    def test_small_chunks_give_the_sum_of_the_trials_at_any_worker_count(self, monkeypatch, failing):
        # At most two trials a chunk: 7 trials make chunks of 1, 2, 2 and 2
        # at one and two workers, and of 1, 1, 1, 1, 1 and 2 at three.  With
        # corner-failing draws, chunks whose stacked build fails go through
        # the per-trial redraw loop.
        monkeypatch.setattr(sim, "_CHUNK_TRIALS", 2)
        _fork_pool(monkeypatch)
        if failing:
            _fail_by_corner(monkeypatch)
        cfg = _config(order=4, snr_db=(0.0, 10.0), trials=7, oracle=True,
                      specs=_specs("le-zf", "le-mmse-lra-orig", "dfe-mmse-lra-aug"))
        sizes = {w: [len(chunk) for chunk in sim._chunks(cfg, w)] for w in (1, 2, 3)}
        assert sizes == {1: [1, 2, 2, 2], 2: [1, 2, 2, 2], 3: [1, 1, 1, 1, 1, 2]}
        stacks, trials_run = [], []  # stacks: each build call's draws, by their bytes
        real_build, real_trial = sim.build_detectors, sim._run_trial

        def build(*args):
            stacks.append([h.tobytes() for h in args[1]])
            return real_build(*args)

        def trial(*args):
            trials_run.append(args[1])
            return real_trial(*args)

        monkeypatch.setattr(sim, "build_detectors", build)
        outcomes, alone = [], []  # alone: each trial's draws in a chunk of its own
        for t in range(cfg.trials):
            stacks.clear()
            outcomes.append(sim._run_chunk(cfg, range(t, t + 1)))
            alone.append([h for (h,) in stacks])
        counts = sum(trial_counts for trial_counts, _ in outcomes)
        causes = sum((trial_causes for _, trial_causes in outcomes), Counter())
        assert counts[0].any() and counts[2].any() and bool(causes) == failing
        stacks.clear()
        monkeypatch.setattr(sim, "_run_trial", trial)
        results = {1: run_monte_carlo(cfg)}
        monkeypatch.setattr(sim, "build_detectors", real_build)
        monkeypatch.setattr(sim, "_run_trial", real_trial)
        results.update((workers, run_monte_carlo(cfg, workers=workers)) for workers in (2, 3))
        ids = ["le-zf", "le-mmse-lra-orig", "dfe-mmse-lra-aug", ML_ORACLE_ID]
        for workers, result in results.items():
            assert [(p.spec_id, p.snr_db, p.errors, p.vector_errors) for p in result.points] == [
                (spec_id, snr, counts[0, i, j], counts[1, i, j])
                for i, spec_id in enumerate(ids)
                for j, snr in enumerate(cfg.snr_db)
            ], workers
            assert result.clipped == {spec_id: counts[2, i].sum() for i, spec_id in enumerate(ids)}
            assert result.meta["redraw_causes"] == dict(sorted(causes.items()))
        # Each trial's detection runs through the module's _run_trial, once.
        assert sorted(trials_run) == list(range(cfg.trials))
        # One stacked build per chunk, of all its trials' first draws; when
        # it fails, each trial's draws follow one at a time, in trial order.
        redrawn = [chunk for chunk in sim._chunks(cfg, 1) if any(len(alone[t]) > 1 for t in chunk)]
        want = []
        for chunk in sim._chunks(cfg, 1):
            want.append([alone[t][0] for t in chunk])
            if chunk in redrawn:
                want += [[h] for t in chunk for h in alone[t]][len(chunk) == 1 :]
        assert stacks == want
        if failing:
            assert any(len(chunk) > 1 for chunk in redrawn), "no chunk of several trials was redrawn"
        else:
            assert not redrawn and [len(stack) for stack in stacks] == [1, 2, 2, 2]

    @_NEEDS_FORK
    def test_trials_spread_over_the_processes(self, monkeypatch, tmp_path):
        # Shaped like A11: 8 trials on 3 workers.
        log = tmp_path / "pids"
        real = sim.draw_channel

        def logged(*args):
            time.sleep(0.02)
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return real(*args)

        monkeypatch.setattr(sim, "draw_channel", logged)
        _fork_pool(monkeypatch)
        cfg = _config(n_rx=3, snr_db=(5.0, 15.0), trials=8, frames_per_channel=20,
                      specs=_specs("le-mmse", "dfe-mmse-lra-aug"), oracle=True)
        result = run_monte_carlo(cfg, workers=3)
        pids = log.read_text().split()
        assert len(pids) == cfg.trials and len(set(pids)) >= 2, pids
        assert os.getpid() not in map(int, pids)
        assert result.meta["workers"] == 3

    def test_statistical_orderings_hold_within_ci(self):
        cfg = _config(
            snr_db=(5.0, 15.0),
            trials=40,
            frames_per_channel=50,
            specs=_specs("le-zf", "le-mmse"),
            oracle=True,
        )
        result = run_monte_carlo(cfg)
        for spec_id in ("le-zf", "le-mmse", ML_ORACLE_ID):
            low = result.point(spec_id, 5.0)
            high = result.point(spec_id, 15.0)
            assert high.ser <= low.ser + low.ci95 + high.ci95
        for snr in cfg.snr_db:
            zf = result.point("le-zf", snr)
            mmse = result.point("le-mmse", snr)
            ml = result.point(ML_ORACLE_ID, snr)
            assert mmse.ser <= zf.ser + zf.ci95 + mmse.ci95
            assert ml.ser <= mmse.ser + mmse.ci95 + ml.ci95

    def test_counter_bookkeeping(self):
        cfg = _config(oracle=True)
        result = run_monte_carlo(cfg)
        assert set(result.clipped) == {"le-zf", "le-mmse", ML_ORACLE_ID}
        assert result.meta["redraw_causes"] == {}
        assert result.meta["channel_redraws"] == 0
        assert "snr_definition" in result.meta
        expected_symbols = cfg.trials * cfg.frames_per_channel * 2 * cfg.n_tx
        assert all(p.symbols == expected_symbols for p in result.points)
        with pytest.raises(KeyError):
            result.point("le-zf", 99.0)
        with pytest.raises(ValueError):
            run_monte_carlo(cfg, workers=0)

    def test_point_statistics(self):
        p = SimPoint("le-zf", 10.0, symbols=100, errors=3, frames=25, vector_errors=3)
        assert p.ser == 0.03
        np.testing.assert_allclose(p.ci95, 1.96 * np.sqrt(0.03 * 0.97 / 100))


class TestEmitResults:
    def test_csv_round_trip(self, tmp_path):
        result = run_monte_carlo(_config())
        path = tmp_path / "out.csv"
        emit_results(result, str(path))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["spec_id", "snr_db", "symbols", "errors", "ser", "ci95"]
        assert len(rows) == 1 + len(result.points)
        for row, p in zip(rows[1:], result.points):
            assert row[0] == p.spec_id
            assert float(row[1]) == p.snr_db
            assert int(row[2]) == p.symbols
            assert int(row[3]) == p.errors
            assert float(row[4]) == p.ser
            assert float(row[5]) == p.ci95


class TestCompareReductionTargets:
    def test_paired_deltas_consistent_and_deterministic(self):
        cfg = _config(specs=_specs("le-zf"))  # specs are replaced internally
        c1 = compare_reduction_targets(cfg)
        c2 = compare_reduction_targets(cfg)
        assert len(c1.deltas) == len(cfg.snr_db)
        for d1, d2 in zip(c1.deltas, c2.deltas):
            assert (d1.snr_db, d1.ser_original, d1.ser_augmented, d1.delta) == (
                d2.snr_db,
                d2.ser_original,
                d2.ser_augmented,
                d2.delta,
            )
            np.testing.assert_allclose(d1.delta, d1.ser_original - d1.ser_augmented)
            assert np.isfinite(d1.ci95)
        seen = {p.spec_id for p in c1.result.points}
        assert seen == {"dfe-mmse-lra-orig", "dfe-mmse-lra-aug"}

    def test_cells_equal_those_of_the_full_spec_set(self):
        # Common random numbers across spec sets: the pair and the ML oracle
        # see the channels and noise of the run with all ten specs, so their
        # cells equal that run's, count for count.
        with open(Path(__file__).parent / "data" / "golden_config.json") as fh:
            cfg = SimConfig.from_dict(json.load(fh))
        assert set(cfg.specs) == set(ALL_SPECS) and cfg.oracle
        ids = {"dfe-mmse-lra-orig", "dfe-mmse-lra-aug", ML_ORACLE_ID}
        pair = compare_reduction_targets(cfg).result.points
        full = run_monte_carlo(cfg).points
        assert len(pair) == 3 * len(cfg.snr_db) and {p.spec_id for p in pair} == ids
        assert pair == [p for p in full if p.spec_id in ids]


def _reference_counts(config):
    """Counts of ``config`` with every (spec, SNR) detector built from scratch.

    Shaped like a trial's counts: (symbol errors, vector errors, clips) by
    detector (the ML oracle last) by SNR, summed over the trials.

    Replays each trial's random stream in the order ``run_monte_carlo``
    consumes it: the channel, then one block of symbol indices and one
    standard-normal block N, which every SNR point scales by its own noise
    standard deviation.  Reduces and factorizes anew for every detector at
    every SNR, so no construction is shared between specs or SNRs, and
    detects each trial's frames in one pass, not in slices.  Assumes
    no trial redraws its channel.
    """
    constellation = make_ask_constellation(config.order)
    sv = constellation.variance
    n_ids = len(config.specs) + (1 if config.oracle else 0)
    counts = np.zeros((3, n_ids, len(config.snr_db)), dtype=np.int64)
    frames = config.frames_per_channel
    for trial in range(config.trials):
        rng = trial_rng(config.seed, trial)
        channel = replace(draw_channel(rng, config.n_rx, config.n_tx), symbol_var=sv)
        noise_vars = [sv * config.n_tx / 10.0 ** (snr / 10.0) for snr in config.snr_db]
        detectors = [
            [build_detector(spec, replace(channel, noise_var=nv)) for spec in config.specs]
            for nv in noise_vars
        ]
        sent = constellation.points[rng.integers(0, config.order, size=(2 * config.n_tx, frames))]
        unit_noise = rng.standard_normal(size=(2 * config.n_rx, frames))
        for j, noise_var in enumerate(noise_vars):
            received = channel.matrix @ sent + np.sqrt(noise_var) * unit_noise
            decisions = [detect_block(det, received, constellation) for det in detectors[j]]
            if config.oracle:
                a_ml = sim._ml_detect_block(channel.matrix, received, constellation)
                decisions.append((a_ml, None, [0]))
            for i, (a_hat, _, (nclip,)) in enumerate(decisions):
                wrong = a_hat != sent
                counts[:, i, j] += int(wrong.sum()), int(wrong.any(axis=0).sum()), nclip
    return counts


class TestFrameSlices:
    # A trial walks its frames in slices of L frames; its counts are those
    # of one pass over the whole block.  BPSK at 2x2 gives L = 8192; order 4
    # at 2x3 gives L = 5461, no power of two.
    @pytest.mark.parametrize(
        "shape, step", [(dict(order=2), 8192), (dict(n_rx=3, order=4), 5461)], ids=["2x2-bpsk", "2x3-order-4"]
    )
    def test_counts_equal_one_full_length_pass(self, shape, step):
        cfg = _config(specs=ALL_SPECS, oracle=True, trials=1, snr_db=(6.0, 14.0), seed=31, **shape)
        assert sim._passes(replace(cfg, frames_per_channel=1 << 30))[0] == step
        for frames in (step - 1, step, step + 1, 2 * step + 3):
            case = replace(cfg, frames_per_channel=frames)
            assert sim._passes(case)[0] == min(step, frames)
            want = _reference_counts(case)
            assert want[0].any() and want[2].any(), "no errors or no clips; they go unchecked"
            got = sum(sim._run_chunk(case, range(trial, trial + 1))[0] for trial in range(case.trials))
            np.testing.assert_array_equal(got, want, err_msg=f"{frames} frames")

    def test_trial_memory_does_not_grow_with_frames(self):
        # Only the symbol block and the unit-noise block are frame-length, so
        # going from 4L to 8L frames adds two (4, 4L) blocks of doubles.
        cfg = _config(order=4, specs=ALL_SPECS, trials=1, snr_db=(18.0,), frames_per_channel=1 << 30)
        step = sim._passes(cfg)[0]
        peaks = []
        for frames in (4 * step, 8 * step):
            case = replace(cfg, frames_per_channel=frames)
            tracemalloc.start()
            try:
                sim._run_chunk(case, range(1))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        block = 2 * cfg.n_rx * 4 * step * 8
        assert peaks[1] - peaks[0] <= 2.5 * block, f"grew by {(peaks[1] - peaks[0]) / block:.2f} blocks"

    def test_a_receive_side_wider_than_one_slice_takes_one_frame_at_a_time(self):
        # 2 n_rx > 2^15 real rows: the slice rule would round down to 0 frames.
        cfg = _config(n_tx=1, n_rx=16385, snr_db=(10.0,), trials=1, frames_per_channel=3,
                      specs=_specs("le-zf", "dfe-mmse-lra-aug"))
        assert sim._passes(replace(cfg, frames_per_channel=1 << 30))[0] == 1
        result = run_monte_carlo(cfg)
        assert [(p.spec_id, p.frames) for p in result.points] == [("le-zf", 3), ("dfe-mmse-lra-aug", 3)]


class TestSnrGroups:
    # A frame slice detects its SNR points in consecutive groups, one
    # detect_block pass per spec and group; the group size changes no count.
    def test_group_sizes_from_the_slice_budget(self):
        # 2 n_rx x slice x group stays within _SLICE_ENTRIES: the a9-build and
        # wide-oracle shapes take every point of their one slice in one pass,
        # detect-long's 8192-frame slices one point per pass, and the golden
        # shape at 3000 frames two points, then one.
        ten = tuple(range(10, 30, 2))
        a9 = _config(n_tx=4, n_rx=4, snr_db=ten, frames_per_channel=400)
        long = _config(order=4, snr_db=(18.0, 26.0), frames_per_channel=40000)
        wide = _config(n_tx=8, n_rx=8, snr_db=(8.0, 12.0), frames_per_channel=200)
        golden = _config(order=4, snr_db=(4.0, 12.0, 20.0), frames_per_channel=3000)
        assert [sim._passes(cfg) for cfg in (a9, long, wide, golden)] == [
            (400, [slice(0, 10)]),
            (8192, [slice(0, 1), slice(1, 2)]),
            (200, [slice(0, 2)]),
            (3000, [slice(0, 2), slice(2, 3)]),
        ]

    @pytest.mark.parametrize("oracle", [False, True], ids=["no-oracle", "oracle"])
    @pytest.mark.parametrize("frames", [1, 37, 100], ids=lambda f: f"{f}-frames")
    def test_counts_do_not_depend_on_the_group_size(self, monkeypatch, oracle, frames):
        # A 48-entry slice budget gives 12-frame slices at 2x2: 1, 4 and 9 slices.
        monkeypatch.setattr(sim, "_SLICE_ENTRIES", 48)
        cfg = _config(order=4, snr_db=(2.0, 6.0, 10.0, 14.0, 18.0), trials=3, frames_per_channel=frames,
                      specs=ALL_SPECS, oracle=oracle, seed=77)
        counts, real_passes = {}, sim._passes
        for size in range(1, len(cfg.snr_db) + 1):

            def passes(config, size=size):
                # The real slice width, with groups of ``size`` points.
                step, n_snrs = real_passes(config)[0], len(config.snr_db)
                return step, [slice(a, min(a + size, n_snrs)) for a in range(0, n_snrs, size)]

            monkeypatch.setattr(sim, "_passes", passes)
            assert [g.stop - g.start for g in sim._passes(cfg)[1]][0] == size
            counts[size] = sum(sim._run_chunk(cfg, range(t, t + 1))[0] for t in range(cfg.trials))
        assert counts[1][0].any() and counts[1][2].any(), "no errors or no clips; they go unchecked"
        for size, got in counts.items():
            np.testing.assert_array_equal(got, counts[1], err_msg=f"groups of {size}")


def _grid_config(snr_db):
    return _config(order=4, snr_db=snr_db, trials=6, frames_per_channel=100,
                   specs=ALL_SPECS, oracle=True)


class TestGridIndependence:
    # One symbol block and one unit-noise block serve every SNR point of a
    # trial, so a cell's counts are those of a grid holding that point alone.
    GRIDS = [(20.0,), (18.0, 20.0), (20.0, 24.0, 30.0)]

    def test_trial_counts_at_20_db_do_not_depend_on_the_grid(self):
        cells = []
        for grid in self.GRIDS:
            cfg = _grid_config(grid)
            counts = sum(sim._run_chunk(cfg, range(trial, trial + 1))[0] for trial in range(cfg.trials))
            cells.append(counts[:, :, grid.index(20.0)])
        assert cells[0][0].any() and cells[0][2].any(), "no errors or no clips; they go unchecked"
        for grid, got in zip(self.GRIDS[1:], cells[1:]):
            np.testing.assert_array_equal(got, cells[0], err_msg=str(grid))

    def test_cells_at_20_db_do_not_depend_on_the_grid_at_two_workers(self):
        alone = run_monte_carlo(_grid_config((20.0,)))
        for grid in self.GRIDS:
            result = run_monte_carlo(_grid_config(grid), workers=2)
            assert result.meta["workers"] == 2
            assert [p for p in result.points if p.snr_db == 20.0] == alone.points, grid


class TestSharedConstruction:
    @pytest.mark.parametrize("seed", [3, 41, 977])
    def test_counts_equal_per_snr_construction(self, seed):
        cfg = _config(
            specs=ALL_SPECS,
            snr_db=(0.0, 8.0, 16.0, 24.0),
            trials=5,
            frames_per_channel=40,
            oracle=True,
            seed=seed,
        )
        result = run_monte_carlo(cfg)
        want = _reference_counts(cfg)
        got = sum(sim._run_chunk(cfg, range(trial, trial + 1))[0] for trial in range(cfg.trials))
        assert got.dtype == np.int64 and got.shape == want.shape
        assert want[2].any(), "no detector clipped; the clip counts go unchecked"
        ids = [s.spec_id for s in ALL_SPECS] + [ML_ORACLE_ID]
        for i, spec_id in enumerate(ids):
            for j, snr in enumerate(cfg.snr_db):
                assert tuple(got[:, i, j]) == tuple(want[:, i, j]), (spec_id, snr)
                p = result.point(spec_id, snr)
                assert (p.errors, p.vector_errors) == tuple(want[:2, i, j]), (spec_id, snr)
            assert result.clipped[spec_id] == want[2, i].sum(), spec_id
        assert result.meta["channel_redraws"] == 0

    def test_zf_detectors_and_original_reduction_are_shared(self, monkeypatch):
        # Per draw, H is reduced once, and each [H; sqrt(zeta) I] is built
        # once and reduced once, however many specs use it.  An lll_reduce
        # call counts the bases it reduces, an augment call the matrices it
        # builds: the depth of the stack.
        counts, grids = Counter(), []
        for name in ("lll_reduce", "augment"):

            def counted(*args, _name=name, _real=getattr(equalize, name), **kwargs):
                out = _real(*args, **kwargs)
                counts[_name] += math.prod(np.shape(args[0] if _name == "lll_reduce" else out)[:-2])
                return out

            monkeypatch.setattr(equalize, name, counted)
        real_build = sim.build_detectors

        def build(*args):
            built = real_build(*args)
            grids.extend(built)
            return built

        monkeypatch.setattr(sim, "build_detectors", build)
        a9 = _specs("le-zf", "le-mmse", "dfe-zf-lra-orig", "dfe-mmse-lra-orig", "dfe-mmse-lra-aug")
        cases = [  # config, then reduced bases and augmented matrices per draw
            # Shaped like the detect-long and the a9-build benchmark workloads.
            (_config(specs=ALL_SPECS, order=4, snr_db=(18.0, 26.0)), 3, 2),
            (_config(specs=a9, n_tx=4, n_rx=4, snr_db=tuple(range(10, 30, 2))), 11, 10),
        ]
        for cfg, reduced_bases, augmented in cases:
            counts.clear()
            grids.clear()
            assert run_monte_carlo(cfg).meta["channel_redraws"] == 0
            assert len(grids) == cfg.trials
            want = {"lll_reduce": reduced_bases * cfg.trials, "augment": augmented * cfg.trials}
            assert counts == want
            for detectors in grids:
                assert [det.spec for det in detectors] == list(cfg.specs)
                for det in detectors:
                    assert len(det.feedforward) == len(cfg.snr_db)
                    if det.spec.criterion is Criterion.ZF:
                        # One filter set, repeated over the SNR points as a view.
                        fields = [det.feedforward, det.z_offset, det.feedback, det.perm]
                        assert all(a is None or a.strides[0] == 0 for a in fields), det.spec.spec_id
                # One Z^-1 per target, the -orig one of H repeated over the points.
                orig = [det.unimodular_inv for det in detectors
                        if det.spec.reduction_target is ReductionTarget.ORIGINAL]
                assert all(np.shares_memory(zinv, orig[0]) for zinv in orig)
                assert all(zinv.strides[0] == 0 for zinv in orig)
                aug = [det.unimodular_inv for det in detectors
                       if det.spec.reduction_target is ReductionTarget.AUGMENTED]
                assert all(np.shares_memory(zinv, aug[0]) for zinv in aug)

    def test_rank_is_checked_once_per_trial_and_twice_per_chunk(self, monkeypatch):
        # model checks each drawn H; lattice, through its own binding, checks
        # a chunk's H stack and its augmented stack (ROADMAP item 5).
        calls = []
        real = model._require_full_column_rank

        def counting(matrix, what):
            calls.append((what, np.shape(matrix)))
            real(matrix, what)

        monkeypatch.setattr(model, "_require_full_column_rank", counting)
        monkeypatch.setattr(lattice, "_require_full_column_rank", counting)
        monkeypatch.setattr(sim, "_CHUNK_TRIALS", 2)
        cfg = _config(specs=ALL_SPECS, snr_db=(5.0, 15.0, 25.0), trials=3)
        result = run_monte_carlo(cfg)
        assert result.meta["channel_redraws"] == 0
        m, n = 2 * cfg.n_rx, 2 * cfg.n_tx
        want = []
        for chunk in sim._chunks(cfg, 1):
            want += [("channel matrix", (m, n))] * len(chunk)
            want += [("basis", (len(chunk), 1, m, n)), ("basis", (len(chunk), 3, m + n, n))]
        assert len(sim._chunks(cfg, 1)) == 2
        assert sorted(calls) == sorted(want)

    def test_a_failed_float_inverse_in_the_reduction_is_not_a_redraw(self, monkeypatch):
        cfg = _config(specs=ALL_SPECS, snr_db=(5.0, 15.0, 25.0), trials=3)
        want = run_monte_carlo(cfg)
        calls = []

        def raises(a):
            calls.append(np.shape(a))
            raise np.linalg.LinAlgError("Singular matrix")

        patch_lattice_inv(monkeypatch, raises)
        got = run_monte_carlo(cfg)
        assert calls, "the reduction made no float inverse"
        assert got.meta["channel_redraws"] == 0
        assert got.points == want.points and got.clipped == want.clipped


def _scripted_failures(monkeypatch, script):
    """Fail the k-th distinct channel draw of a run as ``script(k)`` says.

    "rank" makes the drawn matrix rank deficient, "build" makes detector
    construction fail on it, and on any stack that holds it, None lets it
    through.  A chunk whose stacked build fails starts its trials' streams
    over, so a draw can be made twice; the second time it meets the same
    fate and is not listed again.  Returns the list of scripted outcomes,
    one per distinct draw, filled in as the run draws.
    """
    draws, fates = [], {}  # fates: each draw's outcome, by its matrix's bytes
    real_channel, real_build = sim.MimoChannel, sim.build_detectors

    def channel(**kwargs):
        key = kwargs["matrix"].tobytes()
        if key not in fates:
            fates[key] = script(len(draws))
            draws.append(fates[key])
        if fates[key] == "rank":
            raise RankDeficientError("channel matrix is rank deficient")
        return real_channel(**kwargs)

    def build(*args):
        if any(fates.get(h.tobytes()) == "build" for h in args[1]):
            raise FactorizationError("forced")
        return real_build(*args)

    monkeypatch.setattr(sim, "MimoChannel", channel)
    monkeypatch.setattr(sim, "build_detectors", build)
    return draws


def _fail_by_corner(monkeypatch):
    """Fail construction on draws whose corner entry is large, in any worker.

    The corner entry comes from the trial's own stream, so the same draws
    fail whichever worker runs the trial; workers are forked so that they
    carry the patched builder.  A stack fails as its first failing draw.
    """
    real = sim.build_detectors

    def flaky(specs, matrix, inv_snrs):
        for h in matrix:
            if h[0, 0] > 0.5:
                raise FactorizationError("forced")
            if h[0, 0] < -0.5:
                raise ReductionError("forced")
        return real(specs, matrix, inv_snrs)

    monkeypatch.setattr(sim, "build_detectors", flaky)
    _fork_pool(monkeypatch)


def _fork_pool(monkeypatch):
    """Make ``run_monte_carlo``'s pool fork its workers, so they carry the test's patches."""
    monkeypatch.setattr(
        concurrent.futures,
        "ProcessPoolExecutor",
        functools.partial(
            concurrent.futures.ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")
        ),
    )


class TestRedrawLimit:
    def test_construction_failing_on_every_draw_raises(self, monkeypatch):
        calls = {}  # the draws construction was tried on, by their bytes

        def always_fails(specs, matrix, inv_snrs):
            calls.update((h.tobytes(), h) for h in matrix)
            raise ReductionError("reduction did not converge within 4 sweeps")

        monkeypatch.setattr(sim, "build_detectors", always_fails)
        with pytest.raises(RedrawLimitError, match="did not converge"):
            run_monte_carlo(_config(trials=1))
        assert len(calls) == 100

    def test_bookkeeping_fault_propagates_on_the_first_draw(self, monkeypatch):
        draws = []
        real_draw = sim.draw_channel

        def counted(*args):
            draws.append(args)
            return real_draw(*args)

        monkeypatch.setattr(sim, "draw_channel", counted)
        monkeypatch.setattr(lattice, "_is_identity", lambda arr: False)
        with pytest.raises(RuntimeError, match="bookkeeping") as info:
            run_monte_carlo(_config(trials=1, specs=_specs("le-zf-lra-orig")))
        assert not isinstance(info.value, RedrawLimitError)
        assert len(draws) == 1

    @pytest.mark.parametrize("spec_id", ["le-zf", "dfe-zf"])
    def test_kernel_shape_error_propagates_on_the_first_draw(self, monkeypatch, spec_id):
        # A wide H reaches the ZF kernels, as a caller's shape bug would.
        draws = []
        real_draw = sim.draw_channel

        def wide(*args):
            draws.append(args)
            return SimpleNamespace(matrix=real_draw(*args).matrix.T)

        monkeypatch.setattr(sim, "draw_channel", wide)
        with pytest.raises(ValueError, match="m >= n") as info:
            run_monte_carlo(_config(n_rx=3, trials=1, specs=_specs(spec_id)))
        assert not isinstance(info.value, (FactorizationError, np.linalg.LinAlgError))
        assert len(draws) == 1

    def test_unclassified_error_is_not_a_redraw(self, monkeypatch):
        calls = []

        def broken(*args, **kwargs):
            calls.append(args)
            raise ValueError("not a channel failure")

        monkeypatch.setattr(sim, "build_detectors", broken)
        with pytest.raises(ValueError, match="not a channel failure"):
            run_monte_carlo(_config(trials=1))
        assert len(calls) == 1

    def test_draw_channel_rejects_bad_arguments_at_once(self, monkeypatch):
        calls = []
        real_channel = sim.MimoChannel

        def counted(**kwargs):
            calls.append(kwargs)
            return real_channel(**kwargs)

        monkeypatch.setattr(sim, "MimoChannel", counted)
        with pytest.raises(ValueError, match="receive") as info:
            draw_channel(trial_rng(1, 0), 1, 2)
        assert not isinstance(info.value, RedrawLimitError)
        assert len(calls) == 1

    def test_trial_gives_up_after_100_rank_deficient_draws(self, monkeypatch):
        draws = _scripted_failures(monkeypatch, lambda k: "rank")
        with pytest.raises(RankDeficientError):
            draw_channel(trial_rng(1, 0), 2, 2)
        assert len(draws) == 1  # draw_channel itself does not retry
        draws.clear()
        with pytest.raises(RedrawLimitError, match="rank deficient"):
            run_monte_carlo(_config(trials=1))
        assert len(draws) == 100

    def test_a_trial_inside_a_chunk_gives_up_after_100_draws(self, monkeypatch):
        # Trial 1 of a chunk of three fails construction on every draw: the
        # stacked build fails, and trial 1 alone reaches the cap.
        cfg = _config(trials=3)
        assert sim._chunks(cfg, 1) == [range(3)]
        rng = trial_rng(cfg.seed, 1)
        stream = [draw_channel(rng, cfg.n_rx, cfg.n_tx).matrix.tobytes() for _ in range(101)]
        tried = set()
        real = sim.build_detectors

        def fails_on_trial_1(specs, matrix, inv_snrs):
            ours = {h.tobytes() for h in matrix}.intersection(stream)
            tried.update(ours)
            if ours:
                raise FactorizationError("forced")
            return real(specs, matrix, inv_snrs)

        monkeypatch.setattr(sim, "build_detectors", fails_on_trial_1)
        with pytest.raises(RedrawLimitError, match=r"^trial 1: no usable channel in 100 draws"):
            run_monte_carlo(cfg)
        assert tried == set(stream[:100])

    def test_one_cap_covers_rank_and_construction_failures(self, monkeypatch):
        draws = _scripted_failures(monkeypatch, lambda k: ("rank", "build")[k % 2])
        with pytest.raises(RedrawLimitError, match="trial 0: no usable channel in 100 draws"):
            run_monte_carlo(_config(trials=1))
        assert draws == ["rank", "build"] * 50


class TestRedrawCauses:
    def test_rank_and_construction_failures_are_both_counted(self, monkeypatch):
        script = ["rank", "build", "rank", "build", "build"]
        draws = _scripted_failures(monkeypatch, lambda k: script[k] if k < len(script) else None)
        result = run_monte_carlo(_config(trials=2))
        assert draws == script + [None, None]
        assert result.meta["redraw_causes"] == {"FactorizationError": 3, "RankDeficientError": 2}
        assert result.meta["channel_redraws"] == 5

    def test_causes_are_counted_by_class(self, monkeypatch):
        real = sim.build_detectors
        forced = [FactorizationError("forced"), FactorizationError("forced"),
                  np.linalg.LinAlgError("forced")]
        fates = {}  # each draw's forced failure or None, handed out as draws are first seen

        def flaky(*args):
            for h in args[1]:
                key = h.tobytes()
                if key not in fates:
                    fates[key] = forced.pop(0) if forced else None
                if fates[key] is not None:
                    raise fates[key]
            return real(*args)

        monkeypatch.setattr(sim, "build_detectors", flaky)
        result = run_monte_carlo(_config(trials=3))
        assert result.meta["redraw_causes"] == {"FactorizationError": 2, "LinAlgError": 1}
        assert result.meta["channel_redraws"] == 3

    @_NEEDS_FORK
    def test_causes_identical_across_worker_counts(self, monkeypatch):
        _fail_by_corner(monkeypatch)
        cfg = _config(trials=6)
        serial = run_monte_carlo(cfg, workers=1)
        parallel = run_monte_carlo(cfg, workers=2)
        causes = serial.meta["redraw_causes"]
        assert set(causes) == {"FactorizationError", "ReductionError"}
        assert parallel.meta["redraw_causes"] == causes
        assert serial.meta["channel_redraws"] == parallel.meta["channel_redraws"] == sum(causes.values())


@settings(max_examples=30, deadline=None, derandomize=True)
@given(trials=st.integers(1, 9), workers=st.integers(1, 3), cap=st.integers(1, 4), failing=st.booleans(),
       oracle=st.booleans())
def test_any_chunking_gives_the_sum_of_one_trial_chunks(trials, workers, cap, failing, oracle):
    cfg = _config(trials=trials, specs=_specs("le-zf", "dfe-mmse-lra-aug"), oracle=oracle)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "_CHUNK_TRIALS", cap)
        if failing:
            _fail_by_corner(mp)
        chunks = sim._chunks(cfg, workers)
        assert max(len(chunk) for chunk in chunks) <= cap
        chunked = [sim._run_chunk(cfg, chunk) for chunk in chunks]
        alone = [sim._run_chunk(cfg, range(t, t + 1)) for t in range(trials)]
    np.testing.assert_array_equal(sum(c for c, _ in chunked), sum(c for c, _ in alone))
    assert sum((k for _, k in chunked), Counter()) == sum((k for _, k in alone), Counter())


class TestImportBoundary:
    def test_importing_the_simulator_loads_no_oracle_module(self):
        # The oracles in checks and estimate certify the program; running it
        # must not need them.  A fresh interpreter sees only this import.
        src = Path(__file__).resolve().parent.parent / "src"
        code = "import sys, lramimo.sim; print(' '.join(sorted(sys.modules)))"
        out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                             capture_output=True, text=True, check=True).stdout.split()
        assert "lramimo.sim" in out
        assert "lramimo.checks" not in out and "lramimo.estimate" not in out
