import gc
import types
import weakref

import numpy as np
import pytest

from lramimo import blast, equalize
from lramimo.blast import le_zf_matrix
from lramimo.checks import FB_TOL, FF_TOL, lra_le_mmse_matrix
from lramimo.equalize import (
    ALL_SPECS,
    Criterion,
    EqualizerSpec,
    ReductionTarget,
    Structure,
    build_detector,
    build_detectors,
    detect_block,
)
from lramimo.lattice import ReducedBasis, lll_reduce, unimodular_inverse
from lramimo.model import MimoChannel, augment, complex_matrix_to_real, make_ask_constellation
from test_lattice import reduced_basis

LE_MMSE = EqualizerSpec(Structure.LINEAR, Criterion.MMSE)


def le_mmse_filter(h, zeta):
    """Feedforward filter of the built plain MMSE linear detector."""
    return build_detector(LE_MMSE, MimoChannel(h, noise_var=zeta, symbol_var=1.0)).feedforward[0]


def detect_one(detector, observation, constellation):
    """Decisions, transformed decisions and clip count for one observation."""
    a_hat, z_hat, clipped = detect_block(detector, np.asarray(observation)[:, None], constellation)
    return a_hat[:, 0], None if z_hat is None else z_hat[:, 0], clipped


class TestReceiveMatrices:
    def test_zf_inverts_square_channel(self):
        h = np.array([[1.0, 0.0], [1.0, 1.0]])
        np.testing.assert_allclose(le_zf_matrix(h), [[1.0, 0.0], [-1.0, 1.0]], atol=1e-12)

    def test_zf_tall_matches_normal_equations(self):
        rng = np.random.default_rng(2)
        h = rng.normal(size=(5, 3))
        got = le_zf_matrix(h)
        want = np.linalg.solve(h.T @ h, h.T)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_zf_rejects_rank_deficient_matrix(self):
        # Without the check the filters come out near 1.5e16.
        with pytest.raises(blast.FactorizationError):
            le_zf_matrix([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]])

    @pytest.mark.parametrize(
        "matrix", [np.ones((2, 3)), np.random.default_rng(5).normal(size=(2, 3)), np.ones(3)],
        ids=["wide-ones", "wide-random", "1-d"],
    )
    def test_zf_wrong_shape_is_a_value_error_not_a_redraw_cause(self, matrix):
        with pytest.raises(ValueError, match="m >= n") as info:
            le_zf_matrix(matrix)
        assert not isinstance(info.value, (blast.FactorizationError, np.linalg.LinAlgError))

    def test_zf_stack_with_one_rank_deficient_slice_fails(self):
        stack = np.random.default_rng(3).normal(size=(4, 5, 3))
        le_zf_matrix(stack)
        stack[2, :, 1] = 2.0 * stack[2, :, 0]
        with pytest.raises(blast.FactorizationError):
            le_zf_matrix(stack)

    def test_mmse_single_column_frozen(self):
        # Two unit taps, inv_snr 1/2: weights 1 / (2 + 0.5) each.
        got = le_mmse_filter(np.array([[1.0], [1.0]]), 0.5)
        np.testing.assert_allclose(got, [[0.4, 0.4]], atol=1e-14)

    def test_mmse_zero_ratio_equals_zf(self):
        h = np.random.default_rng(4).normal(size=(4, 3))
        np.testing.assert_allclose(le_mmse_filter(h, 0.0), le_zf_matrix(h), atol=1e-10)

    def test_mmse_augmented_route_equals_regularized_solve(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            h = rng.normal(size=(n + int(rng.integers(0, 3)), n))
            zeta = 10.0 ** (-rng.uniform(0, 30) / 10.0)
            direct = np.linalg.solve(h.T @ h + zeta * np.eye(n), h.T)
            np.testing.assert_allclose(le_mmse_filter(h, zeta), direct, atol=1e-12)

    def test_mmse_rejects_negative_ratio(self):
        with pytest.raises(ValueError):
            augment(np.eye(2), -0.1)
        with pytest.raises(ValueError):
            lra_le_mmse_matrix(np.eye(2), np.eye(2, dtype=int), -0.1)

    def test_lra_mmse_shear_frozen(self):
        # Unit channel, shear basis change, inv_snr 1: Z (2I)^-1 = Z/2.
        z = np.array([[1, 1], [0, 1]], dtype=object)
        got = lra_le_mmse_matrix(np.eye(2), z, 1.0)
        np.testing.assert_allclose(got, [[0.5, 0.5], [0.0, 0.5]], atol=1e-14)

    def test_lra_mmse_identity_transform_equals_plain_mmse(self):
        rng = np.random.default_rng(8)
        h = rng.normal(size=(4, 3))
        zeta = 0.2
        got = lra_le_mmse_matrix(h, np.eye(3, dtype=int), zeta)
        np.testing.assert_allclose(got, np.linalg.solve(h.T @ h + zeta * np.eye(3), h.T), atol=1e-12)

    def test_lra_zf_is_reduced_basis_pinv(self):
        rng = np.random.default_rng(10)
        h = rng.normal(size=(4, 3))
        c = reduced_basis(h, lll_reduce(h).unimodular)
        got = le_zf_matrix(c)
        np.testing.assert_allclose(got @ c, np.eye(3), atol=1e-10)


class TestEqualizerSpec:
    def test_all_spec_ids_frozen(self):
        assert {s.spec_id for s in ALL_SPECS} == {
            "le-zf",
            "le-mmse",
            "dfe-zf",
            "dfe-mmse",
            "le-zf-lra-orig",
            "dfe-zf-lra-orig",
            "le-mmse-lra-orig",
            "le-mmse-lra-aug",
            "dfe-mmse-lra-orig",
            "dfe-mmse-lra-aug",
        }
        assert len(ALL_SPECS) == 10

    def test_mmse_lra_defaults_to_augmented_target(self):
        spec = EqualizerSpec.from_dict({"structure": "le", "criterion": "mmse", "lra": True})
        assert spec.reduction_target is ReductionTarget.AUGMENTED
        assert spec.spec_id == "le-mmse-lra-aug"

    def test_zf_lra_pins_original_target(self):
        spec = EqualizerSpec.from_dict({"structure": "dfe", "criterion": "zf", "lra": True})
        assert spec.reduction_target is ReductionTarget.ORIGINAL
        assert spec == EqualizerSpec(Structure.DFE, Criterion.ZF, ReductionTarget.ORIGINAL)

    def test_non_lra_clears_target(self):
        for extra in ({}, {"lra": False}, {"lra": False, "reduction_target": None}):
            spec = EqualizerSpec.from_dict({"structure": "le", "criterion": "zf", **extra})
            assert spec.reduction_target is None
            assert spec == EqualizerSpec(Structure.LINEAR, Criterion.ZF)

    def test_augmented_target_requires_mmse(self):
        for structure in Structure:
            with pytest.raises(ValueError, match="MMSE"):
                EqualizerSpec(structure, Criterion.ZF, ReductionTarget.AUGMENTED)
        with pytest.raises(ValueError, match="MMSE"):
            EqualizerSpec.from_dict(
                {"structure": "le", "criterion": "zf", "lra": True, "reduction_target": "aug"}
            )

    def test_from_dict_rejects_target_without_lra(self):
        for criterion in Criterion:
            for target in ("orig", "aug"):
                for lra in ({}, {"lra": False}):
                    data = {"structure": "dfe", "criterion": criterion.value,
                            "reduction_target": target, **lra}
                    with pytest.raises(ValueError, match='needs "lra": true'):
                        EqualizerSpec.from_dict(data)

    def test_from_dict_aliases(self):
        spec = EqualizerSpec.from_dict(
            {"structure": "linear", "criterion": "MMSE", "lra": True, "reduction_target": "original"}
        )
        assert spec.spec_id == "le-mmse-lra-orig"

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            EqualizerSpec.from_dict({"structure": "le", "criterion": "zf", "sorted": True})
        with pytest.raises(ValueError):
            EqualizerSpec.from_dict({"structure": "le", "criterion": "map"})

    def test_from_dict_rejects_non_bool_lra(self):
        for value in ("false", "true", 0, 1, None):
            with pytest.raises(ValueError, match="lra"):
                EqualizerSpec.from_dict({"structure": "le", "criterion": "zf", "lra": value})

    def test_from_dict_names_missing_keys(self):
        with pytest.raises(ValueError, match=r"missing equalizer spec keys: \['criterion'\]"):
            EqualizerSpec.from_dict({"structure": "dfe", "lra": True})
        with pytest.raises(ValueError, match=r"\['criterion', 'structure'\]"):
            EqualizerSpec.from_dict({})

    def test_from_dict_round_trip(self):
        for spec in ALL_SPECS:
            again = EqualizerSpec.from_dict(
                {
                    "structure": spec.structure.value,
                    "criterion": spec.criterion.value,
                    "lra": spec.reduction_target is not None,
                    "reduction_target": None if spec.reduction_target is None else spec.reduction_target.value,
                }
            )
            assert again == spec


class TestWorkedTranslateExample:
    # Channel [[1,1],[0,1]] reduces to the identity with basis change
    # Z = [[1,1],[0,1]], Z^-1 = [[1,-1],[0,1]]; the symbol pair (0.5, -0.5)
    # maps to the transformed point (0, -0.5), whose entries sit on two
    # different integer translates.
    def test_lra_zf_le_chain(self):
        channel = MimoChannel(np.array([[1.0, 1.0], [0.0, 1.0]]), noise_var=0.0, symbol_var=0.25)
        constellation = make_ask_constellation(2)
        det = build_detector(EqualizerSpec(Structure.LINEAR, Criterion.ZF, ReductionTarget.ORIGINAL), channel)
        assert det.unimodular_inv.tolist() == [[[1, -1], [0, 1]]]
        assert det.unimodular_inv.dtype == np.int64
        np.testing.assert_allclose(channel.matrix @ det.unimodular_inv[0], np.eye(2), atol=1e-12)
        np.testing.assert_allclose(det.z_offset, [[1.0, 0.5]], atol=1e-12)

        a = np.array([0.5, -0.5])
        a_hat, z_hat, clipped = detect_one(det, channel.matrix @ a, constellation)
        np.testing.assert_allclose(z_hat, [0.0, -0.5], atol=1e-12)
        np.testing.assert_allclose(a_hat, a, atol=1e-12)
        assert clipped == [0]
        assert det.perm is None


class TestNoiselessRecovery:
    @pytest.mark.parametrize("order", [2, 4])
    def test_all_specs_recover_exactly(self, order):
        constellation = make_ask_constellation(order)
        rng = np.random.default_rng(100 + order)
        for _ in range(15):
            n = int(rng.integers(2, 5))
            h = rng.normal(size=(n + int(rng.integers(0, 2)), n))
            channel = MimoChannel(h, noise_var=0.0, symbol_var=constellation.variance)
            a = rng.choice(constellation.points, size=n)
            y = channel.matrix @ a
            for spec in ALL_SPECS:
                a_hat, _, clipped = detect_one(build_detector(spec, channel), y, constellation)
                np.testing.assert_array_equal(a_hat, a, err_msg=f"{spec.spec_id} failed on {h!r}")
                assert clipped == [0]


class TestDetectionBookkeeping:
    @staticmethod
    def _channel(n=3, seed=0, zeta=0.1):
        h = np.random.default_rng(seed).normal(size=(n, n))
        return MimoChannel(h, noise_var=zeta, symbol_var=1.0)

    def test_z_hat_only_for_lra(self):
        channel = self._channel()
        constellation = make_ask_constellation(2)
        y = np.zeros(3)
        for spec in ALL_SPECS:
            _, z_hat, _ = detect_one(build_detector(spec, channel), y, constellation)
            assert (z_hat is not None) == (spec.reduction_target is not None), spec.spec_id

    def test_order_only_for_dfe(self):
        channel = self._channel()
        for spec in ALL_SPECS:
            det = build_detector(spec, channel)
            if spec.structure is Structure.DFE:
                assert det.perm.shape == (1, 3) and sorted(det.perm[0]) == [0, 1, 2]
            else:
                assert det.perm is None

    def test_detect_matches_detect_block(self):
        channel = self._channel(seed=5)
        constellation = make_ask_constellation(4)
        rng = np.random.default_rng(6)
        ys = rng.normal(size=(3, 8))
        for spec in ALL_SPECS:
            det = build_detector(spec, channel)
            block, _, _ = detect_block(det, ys, constellation)
            for j in range(ys.shape[1]):
                single, _, _ = detect_one(det, ys[:, j], constellation)
                np.testing.assert_array_equal(single, block[:, j])

    def test_clip_count_on_wild_observation(self):
        channel = MimoChannel(np.eye(2), noise_var=0.0, symbol_var=0.25)
        constellation = make_ask_constellation(2)
        spec = EqualizerSpec(Structure.LINEAR, Criterion.ZF, ReductionTarget.ORIGINAL)
        a_hat, _, clipped = detect_one(build_detector(spec, channel), np.array([10.0, 0.0]), constellation)
        assert clipped == [1]
        np.testing.assert_allclose(a_hat, [0.5, 0.5])
        # plain slicing clips silently to the alphabet edge
        plain, _, plain_clipped = detect_one(
            build_detector(EqualizerSpec(Structure.LINEAR, Criterion.ZF), channel),
            np.array([10.0, 0.0]),
            constellation,
        )
        assert plain_clipped == [0]
        np.testing.assert_allclose(plain, [0.5, 0.5])

    def test_shape_validation(self):
        channel = self._channel()
        constellation = make_ask_constellation(2)
        det = build_detector(ALL_SPECS[0], channel)
        with pytest.raises(ValueError):
            detect_block(det, np.zeros(3), constellation)
        with pytest.raises(ValueError):
            detect_block(det, np.zeros((4, 2)), constellation)

    def test_mmse_dfe_feedforward_drops_regularizer_columns(self):
        channel = self._channel(n=4, seed=9, zeta=0.2)
        for target in ReductionTarget:
            spec = EqualizerSpec(Structure.DFE, Criterion.MMSE, target)
            det = build_detector(spec, channel)
            assert det.feedforward.shape == (1, 4, 4)
            assert det.feedback.shape == (1, 4, 4)

    def test_lra_mmse_le_feedforward_matches_closed_form(self):
        # The built filter, Z (H^T H + zeta I)^-1 H^T, whichever matrix was
        # reduced; Z = I for plain le-mmse.
        h = np.random.default_rng(13).normal(size=(6, 4))
        for zeta in (1e-3, 1.0, 1e3):
            channel = MimoChannel(h, noise_var=zeta, symbol_var=1.0)
            for spec in [LE_MMSE] + [
                EqualizerSpec(Structure.LINEAR, Criterion.MMSE, target) for target in ReductionTarget
            ]:
                det = build_detector(spec, channel)
                z = np.eye(4, dtype=int) if det.unimodular_inv is None else unimodular_inverse(det.unimodular_inv[0])
                want = lra_le_mmse_matrix(h, z, zeta)
                err = np.linalg.norm(det.feedforward[0] - want) / np.linalg.norm(want)
                assert err < 1e-12, (spec.spec_id, zeta, err)


class TestBuildDetectors:
    ZETAS = (1e3, 1.0, 1e-2, 1e-4)

    @staticmethod
    def _grid():
        # Real form of a complex channel, so the kernel meets twin-column ties.
        rng = np.random.default_rng(21)
        h = complex_matrix_to_real(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        return h, build_detectors(ALL_SPECS, h[None], TestBuildDetectors.ZETAS)[0]

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda spec: spec.spec_id)
    def test_equals_one_build_per_channel(self, spec):
        h, detectors = self._grid()
        assert [det.spec for det in detectors] == list(ALL_SPECS)
        det = detectors[ALL_SPECS.index(spec)]
        assert len(det.feedforward) == len(det.z_offset) == len(self.ZETAS)
        for j, zeta in enumerate(self.ZETAS):
            one = build_detector(spec, MimoChannel(h, noise_var=zeta, symbol_var=1.0))
            assert_same_detector(det[j : j + 1], one)

    def test_needs_at_least_one_snr(self):
        with pytest.raises(ValueError, match="inv_snrs"):
            build_detectors(ALL_SPECS, np.eye(2)[None], [])

    @pytest.mark.parametrize("shape", [(4, 4), (1, 1, 4, 4)], ids=["one-matrix", "4-d"])
    def test_needs_a_stack_of_draws(self, shape, monkeypatch):
        # One (m, n) matrix is not a stack, nor is a 4-D array; either is
        # rejected before any reduction is made.
        monkeypatch.setattr(equalize, "lll_reduce", None)
        with pytest.raises(ValueError, match=r"stack \(draws, m, n\)"):
            build_detectors(ALL_SPECS, np.eye(4).reshape(shape), [0.1])

    def test_two_reductions_and_no_reduced_basis_formed(self, monkeypatch):
        # One lll_reduce call on the stack (draws, 1, m, n) of the draws' H (one
        # draw here), one on the stack of every [H; sqrt(zeta) I].
        calls = {}

        def counted(basis, *args):
            calls[np.shape(basis)] = rb = lll_reduce(basis, *args)
            return rb

        monkeypatch.setattr(equalize, "lll_reduce", counted)
        h, detectors = self._grid()
        h_shape, b_shape = (1, 1, *h.shape), (1, len(self.ZETAS), 2 * h.shape[1], h.shape[1])
        assert sorted(calls) == sorted([h_shape, b_shape])
        reduced = [det for det in detectors if det.unimodular_inv is not None]
        assert len(reduced) == sum(s.reduction_target is not None for s in ALL_SPECS)
        for det in reduced:
            orig = det.spec.reduction_target is ReductionTarget.ORIGINAL
            rb = calls[h_shape if orig else b_shape]
            zinv = np.broadcast_to(rb.unimodular_inv[0], det.unimodular_inv.shape)
            np.testing.assert_array_equal(det.unimodular_inv, zinv)
            assert np.shares_memory(det.unimodular_inv, rb.unimodular_inv)
            for z, zeta in zip(np.broadcast_to(rb.unimodular[0], zinv.shape), self.ZETAS):
                basis = h if orig else augment(h, zeta)
                np.testing.assert_allclose(reduced_basis(basis, z) @ z, basis, rtol=0, atol=1e-12)

    def test_detectors_keep_no_reduction_alive(self, monkeypatch):
        # A detector holds the int64 Z^-1 it detects with, not the reduction
        # that supplied it: every reduction, with its Z, is freed once the
        # build returns.
        made = []

        def kept(basis, *args):
            rb = lll_reduce(basis, *args)
            made.append(weakref.ref(rb))
            return rb

        monkeypatch.setattr(equalize, "lll_reduce", kept)
        h, detectors = self._grid()
        constellation = make_ask_constellation(4)
        ys = np.random.default_rng(5).normal(size=(len(h), len(self.ZETAS) * 7))
        for det in detectors:
            detect_block(det, ys, constellation)
        gc.collect()
        assert len(made) == 2 and all(ref() is None for ref in made)
        # Nor does a detector hold a reduction made from those, such as a slice
        # of one: walk what the detectors refer to, short of classes and modules.
        seen, todo = set(), list(detectors)
        while todo:
            obj = todo.pop()
            if id(obj) not in seen and not isinstance(obj, (type, types.ModuleType)):
                seen.add(id(obj))
                assert not isinstance(obj, ReducedBasis), obj
                todo.extend(gc.get_referents(obj))


class TestIdentityEquality:
    def test_detectors_and_reductions_compare_by_identity(self):
        # Array fields make field-wise == ambiguous; identity answers.
        h = TestBuildDetectors._grid()[0]
        channel = MimoChannel(h, noise_var=0.1, symbol_var=1.0)
        spec = EqualizerSpec(Structure.DFE, Criterion.MMSE, ReductionTarget.AUGMENTED)
        a, b = build_detector(spec, channel), build_detector(spec, channel)
        assert a == a and not (a == b) and a != b
        assert a[:1] != a[:1]
        ra, rb = lll_reduce(np.stack([h, 2.0 * h])), lll_reduce(np.stack([h, 2.0 * h]))
        assert ra == ra and ra != rb
        assert len({a, b, ra, rb}) == 4  # hashable by identity


class TestClip:
    @pytest.mark.parametrize("limit", [0.5, 1.5, 3.5])
    def test_equals_np_clip_bit_for_bit(self, limit):
        rng = np.random.default_rng(17)
        edges = np.array([0.0, -0.0, limit, -limit, np.nextafter(limit, 0), np.nextafter(-limit, 0),
                          np.nextafter(limit, np.inf), np.nextafter(-limit, -np.inf), np.inf, -np.inf])
        values = np.concatenate([edges, rng.normal(scale=2 * limit, size=2000),
                                 np.rint(rng.normal(scale=2 * limit, size=500) - 0.5) + 0.5])
        for block in (values, values.reshape(5, -1), values[::-3]):
            want = np.clip(block, -limit, limit)
            got = block.copy()
            assert equalize._clip(got, limit) is got
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def assert_same_detector(got, want):
    """``got`` equals ``want`` bit for bit, field by field."""
    assert got.spec == want.spec
    for name in ("feedforward", "z_offset", "feedback", "perm", "unimodular_inv"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if b is not None:
            np.testing.assert_array_equal(a, b, err_msg=name)
            assert a.dtype == b.dtype, name


def separate_route_basis(spec, h, zeta):
    """The MMSE basis each reduction target was built from before both shared B Z^-1.

    AUGMENTED factorized the LLL-tracked columns of the reduced
    [H; sqrt(zeta) I]; ORIGINAL stacked the tracked columns C of the
    reduced H on sqrt(zeta) Z^-1.  Kept as the oracle of the one formula,
    with each C from the test LLL oracle.
    """
    if spec.reduction_target is ReductionTarget.AUGMENTED:
        b = augment(h, zeta)
        return reduced_basis(b, lll_reduce(b).unimodular)
    rb = lll_reduce(h)
    return np.vstack([reduced_basis(h, rb.unimodular), np.sqrt(zeta) * rb.unimodular_inv])


class TestUnifiedBasis:
    DRAWS = 10

    @pytest.mark.parametrize("n", [4, 8])
    @pytest.mark.parametrize("zeta", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize(
        "spec",
        [EqualizerSpec(s, Criterion.MMSE, t) for s in Structure for t in ReductionTarget],
        ids=lambda spec: spec.spec_id,
    )
    def test_matches_separate_route(self, spec, zeta, n):
        rng = np.random.default_rng(n)
        for _ in range(self.DRAWS):
            h = rng.normal(size=(n, n))
            det = build_detector(spec, MimoChannel(h, noise_var=zeta, symbol_var=1.0))
            basis = separate_route_basis(spec, h, zeta)
            if spec.structure is Structure.LINEAR:
                assert det.feedback is None and det.perm is None
                ff = le_zf_matrix(basis)
            else:
                fs = blast.vblast_sorted_factorization(basis)
                np.testing.assert_array_equal(det.perm[0], fs.perm)
                assert _rel(det.feedback[0], fs.feedback) <= FB_TOL
                ff = fs.feedforward
            assert _rel(det.feedforward[0], ff[:, :n]) <= FF_TOL


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)
