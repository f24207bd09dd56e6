"""Tests for :mod:`repro.kernels.cslc`."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.kernels.cslc import (
    CSLCWorkload,
    cancellation_db,
    cslc_oracle,
    cslc_reference,
    estimate_weights,
    extract_subbands,
    interference_rejection_db,
    overlap_add,
)
from repro.kernels.fft import FFTPlan, radix2_radices
from repro.kernels.signal import make_jammed_channels
from repro.kernels.workloads import canonical_cslc, small_cslc


class TestWorkload:
    def test_canonical_parameters(self):
        w = canonical_cslc()
        assert w.samples == 8192
        assert w.n_subbands == 73
        assert w.subband_len == 128
        assert w.hop == 112  # 16-sample overlap, exact tiling
        assert w.n_channels == 4
        assert w.transforms == 73 * 6

    def test_exact_tiling_enforced(self):
        with pytest.raises(ConfigError):
            CSLCWorkload(samples=8192, n_subbands=72, subband_len=128)

    def test_single_subband(self):
        w = CSLCWorkload(samples=128, n_subbands=1, subband_len=128)
        assert w.hop == 128

    def test_single_subband_size_mismatch(self):
        with pytest.raises(ConfigError):
            CSLCWorkload(samples=256, n_subbands=1, subband_len=128)

    def test_op_counts_scale_with_subbands(self):
        plan = FFTPlan(32)
        small = CSLCWorkload(samples=288, n_subbands=9, subband_len=32)
        smaller = CSLCWorkload(samples=96, n_subbands=3, subband_len=32)
        assert small.op_counts(plan).flops == pytest.approx(
            3 * smaller.op_counts(plan).flops
        )

    def test_op_counts_plan_size_mismatch(self):
        with pytest.raises(ConfigError):
            canonical_cslc().op_counts(FFTPlan(64))


class TestSubbands:
    def test_extract_shapes(self, small_cs):
        x = np.arange(small_cs.samples, dtype=complex)
        sub = extract_subbands(x, small_cs)
        assert sub.shape == (small_cs.n_subbands, small_cs.subband_len)
        assert np.array_equal(sub[0], x[: small_cs.subband_len])
        assert np.array_equal(
            sub[1], x[small_cs.hop : small_cs.hop + small_cs.subband_len]
        )

    def test_extract_wrong_length(self, small_cs):
        with pytest.raises(ConfigError):
            extract_subbands(np.zeros(7), small_cs)

    def test_overlap_add_inverts_extract(self, rng):
        w = canonical_cslc()
        x = rng.normal(size=w.samples) + 1j * rng.normal(size=w.samples)
        sub = extract_subbands(x, w)
        assert np.allclose(overlap_add(sub, w), x)

    def test_overlap_add_shape_check(self, small_cs):
        with pytest.raises(ConfigError):
            overlap_add(np.zeros((2, 2)), small_cs)


class TestWeights:
    def test_perfect_cancellation_for_flat_gains(self, rng):
        """With frequency-flat leakage, least-squares weights recover the
        gains exactly and the jammer cancels to numerical noise."""
        n_sub, bins = 16, 32
        jam = rng.normal(size=(n_sub, bins)) + 1j * rng.normal(
            size=(n_sub, bins)
        )
        aux_gain = np.array([1.1 + 0.2j, 0.9 - 0.1j])
        leak = np.array([0.05 + 0.02j, -0.03 + 0.01j])
        aux = aux_gain[:, None, None] * jam[None]
        mains = leak[:, None, None] * jam[None]
        w = estimate_weights(mains, aux, loading=0.0)
        cancelled = mains[0] - np.einsum("ak,ask->sk", w[0], aux)
        assert np.max(np.abs(cancelled)) < 1e-8

    def test_loading_shrinks_noise_bin_weights(self, rng):
        """Bins without jammer energy get near-zero weights under
        loading, instead of fitting noise."""
        n_sub, bins = 16, 8
        aux = 1e-4 * (
            rng.normal(size=(2, n_sub, bins))
            + 1j * rng.normal(size=(2, n_sub, bins))
        )
        aux[:, :, 0] += 100.0  # jammer occupies bin 0 only
        mains = 0.05 * aux[:1].copy()
        loaded = estimate_weights(mains, aux, loading=1e-4)
        unloaded = estimate_weights(mains, aux, loading=0.0)
        noise_bins = slice(1, None)
        assert np.max(np.abs(loaded[0, :, noise_bins])) < np.max(
            np.abs(unloaded[0, :, noise_bins])
        )
        # The jammer bin still cancels.
        assert np.allclose(loaded[0, :, 0].sum(), 0.05, atol=1e-3)

    def test_negative_loading_rejected(self):
        with pytest.raises(ConfigError):
            estimate_weights(
                np.zeros((1, 4, 8)), np.zeros((1, 4, 8)), loading=-1.0
            )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            estimate_weights(np.zeros((2, 4, 8)), np.zeros((2, 5, 8)))


def per_bin_weights(main_fft, aux_fft, loading=1e-4):
    """The reference for :func:`estimate_weights`: one Gram matrix and
    one solve per frequency bin and main channel."""
    n_mains, n_sub, bins = main_fft.shape
    n_aux = aux_fft.shape[0]
    lam = loading * float(np.mean(np.abs(aux_fft) ** 2)) * n_sub
    eye = np.eye(n_aux)
    weights = np.zeros((n_mains, n_aux, bins), dtype=np.complex128)
    for k in range(bins):
        a = aux_fft[:, :, k].T
        gram = a.conj().T @ a + lam * eye
        for m in range(n_mains):
            b = main_fft[m, :, k]
            if lam > 0:
                weights[m, :, k] = np.linalg.solve(gram, a.conj().T @ b)
            else:
                w, *_ = np.linalg.lstsq(a, b, rcond=None)
                weights[m, :, k] = w
    return weights


class TestWeightsMatchPerBinSolve:
    """The stacked solve equals the per-bin loop bit for bit."""

    @pytest.mark.parametrize("make_workload", [canonical_cslc, small_cslc])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_byte_identical(self, make_workload, seed):
        workload = make_workload()
        channels = make_jammed_channels(
            workload.samples, workload.n_mains, workload.n_aux, seed=seed
        )
        plan = FFTPlan(workload.subband_len)

        def spectra(data):
            return np.stack(
                [
                    plan.execute_batch(extract_subbands(c, workload))
                    for c in data
                ]
            )

        main_fft, aux_fft = spectra(channels.mains), spectra(channels.auxes)
        for loading in (1e-4, 0.0):
            got = estimate_weights(main_fft, aux_fft, loading=loading)
            expected = per_bin_weights(main_fft, aux_fft, loading=loading)
            assert got.tobytes() == expected.tobytes()


class TestPipeline:
    def test_small_cslc_cancels_jammer(self, small_cs):
        channels = make_jammed_channels(
            small_cs.samples, small_cs.n_mains, small_cs.n_aux, seed=3
        )
        result = cslc_reference(channels, small_cs)
        rejection = interference_rejection_db(channels, result.outputs)
        assert all(db > 15.0 for db in rejection)
        assert all(db > 5.0 for db in result.cancellation_db)
        assert result.outputs.shape == (small_cs.n_mains, small_cs.samples)

    def test_matches_numpy_oracle(self, small_cs):
        channels = make_jammed_channels(
            small_cs.samples, small_cs.n_mains, small_cs.n_aux, seed=3
        )
        result = cslc_reference(channels, small_cs)
        oracle = cslc_oracle(channels, small_cs, result.weights)
        assert np.allclose(result.outputs, oracle)

    def test_radix2_plan_equivalent(self, small_cs):
        channels = make_jammed_channels(
            small_cs.samples, small_cs.n_mains, small_cs.n_aux, seed=3
        )
        r4 = cslc_reference(channels, small_cs)
        r2 = cslc_reference(
            channels,
            small_cs,
            plan=FFTPlan(small_cs.subband_len, radix2_radices(small_cs.subband_len)),
            weights=r4.weights,
        )
        assert np.allclose(r4.outputs, r2.outputs)

    def test_zero_weights_pass_through(self, small_cs):
        """With zero weights the 'cancelled' output is the main channel."""
        channels = make_jammed_channels(
            small_cs.samples, small_cs.n_mains, small_cs.n_aux, seed=3
        )
        zero = np.zeros(
            (small_cs.n_mains, small_cs.n_aux, small_cs.subband_len),
            dtype=complex,
        )
        result = cslc_reference(channels, small_cs, weights=zero)
        assert np.allclose(result.outputs, channels.mains, atol=1e-8)

    def test_channel_count_mismatch(self, small_cs):
        channels = make_jammed_channels(small_cs.samples, 1, 1, seed=0)
        with pytest.raises(ConfigError):
            cslc_reference(channels, small_cs)

    def test_sample_count_mismatch(self, small_cs):
        channels = make_jammed_channels(64, small_cs.n_mains, small_cs.n_aux)
        with pytest.raises(ConfigError):
            cslc_reference(channels, small_cs)

    def test_bad_weight_shape(self, small_cs):
        channels = make_jammed_channels(
            small_cs.samples, small_cs.n_mains, small_cs.n_aux
        )
        with pytest.raises(ConfigError):
            cslc_reference(channels, small_cs, weights=np.zeros((1, 1, 1)))

    def test_bad_plan_size(self, small_cs):
        channels = make_jammed_channels(
            small_cs.samples, small_cs.n_mains, small_cs.n_aux
        )
        with pytest.raises(ConfigError):
            cslc_reference(channels, small_cs, plan=FFTPlan(64))


class TestMetrics:
    def test_cancellation_db_positive_when_reduced(self):
        before = np.ones(100)
        after = 0.1 * np.ones(100)
        assert cancellation_db(before, after) == pytest.approx(20.0)

    def test_cancellation_db_silence_capped(self):
        assert cancellation_db(np.ones(4), np.zeros(4)) == 300.0
