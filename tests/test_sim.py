import concurrent.futures
import csv
import functools
import multiprocessing
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

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

    def test_plus_inf_snr_runs_noiseless(self):
        result = run_monte_carlo(_config(snr_db=(15.0, np.inf), trials=2))
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

    @pytest.mark.parametrize("workers", [1, pytest.param(2, marks=_NEEDS_FORK)])
    def test_result_is_the_sum_of_the_trials(self, monkeypatch, workers):
        _fail_by_corner(monkeypatch)
        cfg = _config(order=4, snr_db=(0.0, 10.0), trials=6, oracle=True,
                      specs=_specs("le-zf", "dfe-mmse-lra-aug"))
        outcomes = [sim._run_trial(cfg, trial) for trial in range(cfg.trials)]
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


def _reference_counts(config):
    """Counts of ``config`` with every (spec, SNR) detector built from scratch.

    Shaped like a trial's counts: (symbol errors, vector errors, clips) by
    detector (the ML oracle last) by SNR, summed over the trials.

    Replays each trial's random stream exactly as ``run_monte_carlo`` does,
    but reduces and factorizes anew for every detector at every SNR, so no
    construction is shared between specs or SNRs.  Assumes no trial redraws
    its channel.
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
        for j, noise_var in enumerate(noise_vars):
            idx = rng.integers(0, config.order, size=(2 * config.n_tx, frames))
            sent = constellation.points[idx]
            noise = rng.normal(0.0, np.sqrt(noise_var), size=(2 * config.n_rx, frames))
            received = channel.matrix @ sent + noise
            decisions = [detect_block(det, received, constellation) for det in detectors[j]]
            if config.oracle:
                a_ml = sim._ml_detect_block(channel.matrix, received, constellation)
                decisions.append((a_ml, None, 0))
            for i, (a_hat, _, nclip) in enumerate(decisions):
                wrong = a_hat != sent
                counts[:, i, j] += int(wrong.sum()), int(wrong.any(axis=0).sum()), nclip
    return counts


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
        got = sum(sim._run_trial(cfg, trial)[0] for trial in range(cfg.trials))
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
        # once and reduced once, however many specs use it.
        counts, grids = Counter(), []
        for name in ("lll_reduce", "augment"):

            def counted(*args, _name=name, _real=getattr(equalize, name), **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(equalize, name, counted)
        real_build = sim.build_detectors

        def build(*args):
            grids.append(real_build(*args))
            return grids[-1]

        monkeypatch.setattr(sim, "build_detectors", build)
        a9 = _specs("le-zf", "le-mmse", "dfe-zf-lra-orig", "dfe-mmse-lra-orig", "dfe-mmse-lra-aug")
        cases = [  # config, then LLL and augment calls per draw
            # Shaped like the detect-long and the a9-build benchmark workloads.
            (_config(specs=ALL_SPECS, order=4, snr_db=(18.0, 26.0)), 3, 2),
            (_config(specs=a9, n_tx=4, n_rx=4, snr_db=tuple(range(10, 30, 2))), 11, 10),
        ]
        for cfg, lll_calls, augment_calls in cases:
            counts.clear()
            grids.clear()
            assert run_monte_carlo(cfg).meta["channel_redraws"] == 0
            assert len(grids) == cfg.trials
            want = {"lll_reduce": lll_calls * cfg.trials, "augment": augment_calls * cfg.trials}
            assert counts == want
            for grid in grids:
                for k, spec in enumerate(cfg.specs):
                    if spec.criterion is Criterion.ZF:
                        assert all(row[k] is grid[0][k] for row in grid), spec.spec_id
                orig = [det.reduction for row in grid for det in row
                        if det.spec.reduction_target is ReductionTarget.ORIGINAL]
                assert all(rb is orig[0] for rb in orig)
                for row in grid:
                    aug = [det.reduction for det in row
                           if det.spec.reduction_target is ReductionTarget.AUGMENTED]
                    assert all(rb is aug[0] for rb in aug)

    def test_channel_rank_is_checked_once_per_trial(self, monkeypatch):
        calls = []
        real = model._require_full_column_rank

        def counting(matrix, what):
            calls.append(what)
            real(matrix, what)

        monkeypatch.setattr(model, "_require_full_column_rank", counting)
        cfg = _config(specs=ALL_SPECS, snr_db=(5.0, 15.0, 25.0), trials=3)
        result = run_monte_carlo(cfg)
        assert result.meta["channel_redraws"] == 0
        assert calls == ["channel matrix"] * cfg.trials


def _scripted_failures(monkeypatch, script):
    """Fail the k-th channel draw of a run as ``script(k)`` says.

    "rank" makes the drawn matrix rank deficient, "build" makes detector
    construction fail on it, None lets it through.  Returns the list of
    scripted outcomes, one per draw, filled in as the run draws.
    """
    draws = []
    real_channel, real_build = sim.MimoChannel, sim.build_detectors

    def channel(**kwargs):
        draws.append(script(len(draws)))
        if draws[-1] == "rank":
            raise RankDeficientError("channel matrix is rank deficient")
        return real_channel(**kwargs)

    def build(*args):
        if draws[-1] == "build":
            raise FactorizationError("forced")
        return real_build(*args)

    monkeypatch.setattr(sim, "MimoChannel", channel)
    monkeypatch.setattr(sim, "build_detectors", build)
    return draws


def _fail_by_corner(monkeypatch):
    """Fail construction on draws whose corner entry is large, in any worker.

    The corner entry comes from the trial's own stream, so the same draws
    fail whichever worker runs the trial; workers are forked so that they
    carry the patched builder.
    """
    real = sim.build_detectors

    def flaky(specs, matrix, inv_snrs):
        corner = matrix[0, 0]
        if corner > 0.5:
            raise FactorizationError("forced")
        if corner < -0.5:
            raise ReductionError("forced")
        return real(specs, matrix, inv_snrs)

    monkeypatch.setattr(sim, "build_detectors", flaky)
    monkeypatch.setattr(
        concurrent.futures,
        "ProcessPoolExecutor",
        functools.partial(
            concurrent.futures.ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")
        ),
    )


class TestRedrawLimit:
    def test_construction_failing_on_every_draw_raises(self, monkeypatch):
        calls = []

        def always_fails(specs, matrix, inv_snrs):
            calls.append(matrix)
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

        def flaky(*args):
            if forced:
                raise forced.pop(0)
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
