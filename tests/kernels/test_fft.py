"""Tests for :mod:`repro.kernels.fft` — the from-scratch FFT library.

The test oracle for functional results is ``numpy.fft``; op-count claims
are cross-checked between the analytic stage census and instrumented
execution.  The stage-wise execution is also held byte-for-byte to a
sub-transform-at-a-time recursion kept here as the reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import ConfigError
from repro.kernels.fft import (
    FFTPlan,
    default_radices,
    radix2_radices,
    stage_infos,
)
from repro.kernels.opcount import (
    COMPLEX_ADD_FLOPS,
    COMPLEX_MUL_ADDS,
    COMPLEX_MUL_MULS,
)

SIZES = [2, 4, 8, 16, 32, 64, 128, 256, 512]


def plans_for(n):
    yield FFTPlan(n)
    if n > 2:
        yield FFTPlan(n, radix2_radices(n))


class ReferenceFFT:
    """The mixed-radix DIT recursion one sub-transform at a time: each
    level recurses on the ``radix`` decimated inputs, then applies the
    same twiddle products and butterfly sums as :class:`FFTPlan`.
    Counts operations as it goes, like ``execute_instrumented``."""

    def __init__(self, radices):
        self.radices = tuple(radices)
        self.complex_adds = 0
        self.nontrivial_muls = 0

    def transform(self, x, inverse=False):
        data = np.asarray(x, dtype=np.complex128)
        if inverse:
            n = data.shape[-1]
            return np.conj(self._recurse(np.conj(data), self.radices)) / n
        return self._recurse(data, self.radices)

    def _recurse(self, x, radices):
        if not radices:
            return x.copy()
        r = radices[0]
        n = x.shape[-1]
        subs = [self._recurse(x[..., j::r], radices[1:]) for j in range(r)]
        return self._combine(subs, n, r, n // r)

    def _combine(self, subs, size, radix, span):
        k = np.arange(span)
        twiddled = [subs[0]]
        for j in range(1, radix):
            twiddled.append(np.exp(-2j * np.pi * j * k / size) * subs[j])
            t = (j * k) % size
            self.nontrivial_muls += int(np.count_nonzero((t * 4) % size))
        out = np.empty(subs[0].shape[:-1] + (size,), dtype=np.complex128)
        if radix == 2:
            t0, t1 = twiddled
            out[..., :span] = t0 + t1
            out[..., span:] = t0 - t1
            self.complex_adds += 2 * span
        else:
            t0, t1, t2, t3 = twiddled
            a = t0 + t2
            b = t0 - t2
            c = t1 + t3
            d = -1j * (t1 - t3)
            out[..., 0 * span : 1 * span] = a + c
            out[..., 1 * span : 2 * span] = b + d
            out[..., 2 * span : 3 * span] = a - c
            out[..., 3 * span : 4 * span] = b - d
            self.complex_adds += 8 * span
        return out


class TestRadices:
    def test_paper_factorization_for_128(self):
        """§3.2: 'three radix-4 stages and one radix-2 stage'."""
        assert default_radices(128) == (4, 4, 4, 2)

    def test_power_of_four(self):
        assert default_radices(64) == (4, 4, 4)

    def test_radix2(self):
        assert radix2_radices(128) == (2,) * 7

    @pytest.mark.parametrize("bad", [0, 3, 6, 12, 100])
    def test_non_power_of_two_rejected(self, bad):
        with pytest.raises(ConfigError):
            default_radices(bad)

    def test_wrong_product_rejected(self):
        with pytest.raises(ConfigError):
            FFTPlan(128, (4, 4, 4))

    def test_unsupported_radix_rejected(self):
        with pytest.raises(ConfigError):
            stage_infos(8, (8,))


class TestCorrectness:
    @pytest.mark.parametrize("n", SIZES)
    def test_matches_numpy(self, n, rng):
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        for plan in plans_for(n):
            assert np.allclose(plan.execute(x), np.fft.fft(x))

    @pytest.mark.parametrize("n", SIZES)
    def test_inverse_roundtrip(self, n, rng):
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        for plan in plans_for(n):
            y = plan.execute(x)
            assert np.allclose(plan.execute(y, inverse=True), x)

    def test_inverse_matches_numpy(self, rng):
        x = rng.normal(size=128) + 1j * rng.normal(size=128)
        plan = FFTPlan(128)
        assert np.allclose(plan.execute(x, inverse=True), np.fft.ifft(x))

    def test_impulse_is_flat(self):
        plan = FFTPlan(64)
        x = np.zeros(64, dtype=complex)
        x[0] = 1.0
        assert np.allclose(plan.execute(x), np.ones(64))

    def test_wrong_shape_rejected(self):
        with pytest.raises(ConfigError):
            FFTPlan(8).execute(np.zeros(16, dtype=complex))


class TestBatchExecution:
    def test_matches_per_row(self, rng):
        plan = FFTPlan(64)
        x = rng.normal(size=(9, 64)) + 1j * rng.normal(size=(9, 64))
        batched = plan.execute_batch(x)
        for row in range(9):
            assert np.allclose(batched[row], plan.execute(x[row]))

    def test_matches_numpy_axis(self, rng):
        plan = FFTPlan(128)
        x = rng.normal(size=(5, 128)) + 1j * rng.normal(size=(5, 128))
        assert np.allclose(plan.execute_batch(x), np.fft.fft(x, axis=-1))

    def test_inverse_batch(self, rng):
        plan = FFTPlan(32)
        x = rng.normal(size=(4, 32)) + 1j * rng.normal(size=(4, 32))
        assert np.allclose(
            plan.execute_batch(plan.execute_batch(x), inverse=True), x
        )

    def test_higher_rank_batches(self, rng):
        plan = FFTPlan(16)
        x = rng.normal(size=(3, 2, 16)) + 1j * rng.normal(size=(3, 2, 16))
        assert np.allclose(plan.execute_batch(x), np.fft.fft(x, axis=-1))

    def test_wrong_trailing_axis(self):
        with pytest.raises(ConfigError):
            FFTPlan(8).execute_batch(np.zeros((4, 16), dtype=complex))


class TestMatchesReferenceRecursion:
    """Every execution path equals the recursion bit for bit."""

    @pytest.mark.parametrize("factorize", [default_radices, radix2_radices])
    @pytest.mark.parametrize("n", [2**e for e in range(11)])
    def test_byte_identical(self, n, factorize, rng):
        plan = FFTPlan(n, factorize(n))
        census = ReferenceFFT(plan.radices)
        census.transform(np.zeros(n))
        adds = (
            census.complex_adds * COMPLEX_ADD_FLOPS
            + census.nontrivial_muls * COMPLEX_MUL_ADDS
        )
        muls = census.nontrivial_muls * COMPLEX_MUL_MULS
        for inverse in (False, True):
            for lead in [(), (5,), (3, 2)]:
                shape = lead + (n,)
                x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
                expected = ReferenceFFT(plan.radices).transform(x, inverse)
                got = plan.execute_batch(x, inverse=inverse)
                assert got.shape == expected.shape
                assert got.tobytes() == expected.tobytes()
                for row in np.ndindex(lead):
                    single = plan.execute(x[row], inverse=inverse)
                    assert single.tobytes() == expected[row].tobytes()
                    result, counts = plan.execute_instrumented(
                        x[row], inverse=inverse
                    )
                    assert result.tobytes() == expected[row].tobytes()
                    assert (counts.adds, counts.muls) == (adds, muls)


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        arrays(
            np.float64,
            (64, 2),
            elements=st.floats(-1e3, 1e3, allow_nan=False),
        )
    )
    def test_parseval(self, parts):
        x = parts[:, 0] + 1j * parts[:, 1]
        y = FFTPlan(64).execute(x)
        assert np.sum(np.abs(y) ** 2) == pytest.approx(
            64 * np.sum(np.abs(x) ** 2), rel=1e-9, abs=1e-6
        )

    @settings(max_examples=20, deadline=None)
    @given(
        arrays(np.float64, (32, 2), elements=st.floats(-100, 100)),
        arrays(np.float64, (32, 2), elements=st.floats(-100, 100)),
        st.floats(-10, 10),
    )
    def test_linearity(self, a_parts, b_parts, scale):
        plan = FFTPlan(32)
        a = a_parts[:, 0] + 1j * a_parts[:, 1]
        b = b_parts[:, 0] + 1j * b_parts[:, 1]
        lhs = plan.execute(a + scale * b)
        rhs = plan.execute(a) + scale * plan.execute(b)
        assert np.allclose(lhs, rhs, atol=1e-6)

    def test_time_shift_is_phase_ramp(self, rng):
        n = 128
        plan = FFTPlan(n)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        shifted = np.roll(x, 1)
        expected = plan.execute(x) * np.exp(-2j * np.pi * np.arange(n) / n)
        assert np.allclose(plan.execute(shifted), expected)


class TestOpCounts:
    @pytest.mark.parametrize("n", [4, 16, 128, 256])
    def test_instrumented_matches_analytic(self, n, rng):
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        for plan in plans_for(n):
            _, counts = plan.execute_instrumented(x)
            analytic = plan.op_counts()
            assert counts.adds == analytic.adds
            assert counts.muls == analytic.muls

    def test_radix2_128_flop_count(self):
        """Classic radix-2 N=128: 448 butterflies; with trivial twiddles
        free, flops land well below the 5*N*log2(N) textbook bound."""
        plan = FFTPlan(128, radix2_radices(128))
        assert sum(s.butterflies for s in plan.stages) == 448
        assert plan.flops() < 5 * 128 * 7
        assert plan.flops() > 2 * 128 * 7

    def test_radix4_cheaper_than_radix2(self):
        """§3.2's premise: the radix-4 FFT does fewer operations."""
        r4 = FFTPlan(128)
        r2 = FFTPlan(128, radix2_radices(128))
        assert r4.flops() < r2.flops()

    def test_radix2_total_ops_about_1_5x_radix4(self):
        """§4.3: 'The number of operations (including loads and stores)
        in the radix-2 FFT is about 1.5 the number in the radix-4 FFT.'"""
        r4 = FFTPlan(128).memory_census()
        r2 = FFTPlan(128, radix2_radices(128)).memory_census()
        ratio = r2.total / r4.total
        assert 1.2 < ratio < 1.8

    def test_stage_census_totals(self):
        plan = FFTPlan(128)
        stages = plan.stages
        assert [s.radix for s in stages] == [4, 4, 4, 2]
        assert [s.span for s in stages] == [32, 8, 2, 1]
        # Twiddle classes partition the full twiddle set.
        for s in stages:
            total = (
                s.unity_twiddles + s.trivial_twiddles + s.nontrivial_twiddles
            )
            assert total == s.butterflies * (s.radix - 1)

    def test_memory_census_includes_loads_and_stores(self):
        census = FFTPlan(128).memory_census()
        assert census.loads > 0
        assert census.stores > 0
        # Every butterfly stores its outputs: 2 words x radix x count.
        expected_stores = sum(
            s.butterflies * s.radix * 2 for s in FFTPlan(128).stages
        )
        assert census.stores == expected_stores

    def test_shuffle_census_positive(self):
        census = FFTPlan(128).shuffle_census()
        assert census.permutes > 0

    def test_twiddle_cache_reused(self, rng):
        plan = FFTPlan(128)
        x = rng.normal(size=128) + 1j * rng.normal(size=128)
        plan.execute(x)
        cached = len(plan._twiddle_cache)
        plan.execute(x)
        assert len(plan._twiddle_cache) == cached
