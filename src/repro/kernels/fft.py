"""Fast Fourier transforms built from scratch, with exact op censuses.

The CSLC kernel (§3.2) spends most of its time in 128-point FFTs, and the
paper is explicit about which algorithm runs where: "a parallelized
hand-optimized radix-4 FFT is used for VIRAM and Imagine ... since the size
of the FFT for the CSLC is 128, which is not [a] power of four, we used
three radix-4 stages and one radix-2 stage", while Raw uses "a C
implementation of the radix-2 FFT" whose operation count is "about 1.5
[times] the number in the radix-4 FFT".  This module implements the
mixed-radix decimation-in-time Cooley-Tukey algorithm for radix
factorizations over {2, 4}.  It runs stage by stage over whole arrays:
one gather into digit-reversed order, then one butterfly pass per stage
that combines every sub-transform of the stage.  It produces

* functional results (validated against ``numpy.fft`` in the tests), and
* exact per-stage structure (:class:`StageInfo`) from which arithmetic,
  memory, and shuffle censuses are derived — instrumented execution and
  analytic counts are cross-checked in the tests.

Twiddle-factor accounting follows the classic convention: multiplication
by W = 1 is free, by W in {-1, i, -i} is a sign/swap (0 flops), and any
other twiddle is a full complex multiply (4 real multiplies + 2 real
additions).  The radix-2 butterfly core is 2 complex additions (4 flops);
the radix-4 core is 8 complex additions (16 flops).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.kernels.opcount import (
    COMPLEX_ADD_FLOPS,
    COMPLEX_MUL_ADDS,
    COMPLEX_MUL_MULS,
    OpCounts,
)

#: Real additions in the radix-r butterfly core (after twiddle multiplies).
CORE_COMPLEX_ADDS = {2: 2, 4: 8}


def default_radices(n: int) -> Tuple[int, ...]:
    """The paper's factorization: radix-4 stages plus one radix-2 stage.

    For ``n`` a power of four this is all radix-4; for ``n`` twice a power
    of four (like 128) it is radix-4 stages followed by a final radix-2
    stage ("three radix-4 stages and one radix-2 stage" for N=128).
    """
    if n < 1 or n & (n - 1):
        raise ConfigError(f"FFT size must be a power of two, got {n}")
    radices: List[int] = []
    remaining = n
    while remaining % 4 == 0:
        radices.append(4)
        remaining //= 4
    if remaining == 2:
        radices.append(2)
        remaining //= 2
    if remaining != 1:
        raise ConfigError(f"cannot factor {n} over radices {{2, 4}}")
    return tuple(radices)


def radix2_radices(n: int) -> Tuple[int, ...]:
    """All-radix-2 factorization (Raw's C FFT, §3.2)."""
    if n < 1 or n & (n - 1):
        raise ConfigError(f"FFT size must be a power of two, got {n}")
    return tuple([2] * (n.bit_length() - 1))


@dataclass(frozen=True)
class StageInfo:
    """Structure of one combine stage of the mixed-radix DIT recursion.

    ``size`` is the sub-transform length being combined at this stage,
    ``span`` the distance between butterfly inputs (``size // radix``),
    ``copies`` how many independent sub-transforms run this stage, and
    ``butterflies`` the stage-wide butterfly count (``copies * span``).
    Twiddle tallies distinguish unity (free), trivial (±1, ±i: sign/swap),
    and non-trivial (full complex multiply) factors.
    """

    radix: int
    size: int
    span: int
    copies: int
    butterflies: int
    unity_twiddles: int
    trivial_twiddles: int
    nontrivial_twiddles: int

    @property
    def core_adds(self) -> int:
        """Complex additions in this stage's butterfly cores."""
        return self.butterflies * CORE_COMPLEX_ADDS[self.radix]

    @property
    def flops(self) -> float:
        """Real floating-point operations in this stage."""
        return (
            self.core_adds * COMPLEX_ADD_FLOPS
            + self.nontrivial_twiddles * (COMPLEX_MUL_MULS + COMPLEX_MUL_ADDS)
        )


def _twiddle_tallies(size: int, radix: int) -> Tuple[int, int, int]:
    """(unity, trivial, nontrivial) twiddle counts for one combine of
    ``radix`` sub-transforms of length ``size // radix``."""
    span = size // radix
    unity = trivial = nontrivial = 0
    for j in range(1, radix):
        for k in range(span):
            t = (j * k) % size
            if t == 0:
                unity += 1
            elif (t * 4) % size == 0:
                trivial += 1
            else:
                nontrivial += 1
    return unity, trivial, nontrivial


def stage_infos(n: int, radices: Sequence[int]) -> Tuple[StageInfo, ...]:
    """Per-stage structure for a DIT plan of ``n`` over ``radices``.

    Stages are listed outermost combine first (largest span first), the
    order a decimation-in-time implementation executes them *last*; the
    order does not affect censuses.
    """
    product = 1
    for r in radices:
        if r not in CORE_COMPLEX_ADDS:
            raise ConfigError(f"unsupported radix {r}; supported: 2, 4")
        product *= r
    if product != n:
        raise ConfigError(
            f"radices {tuple(radices)} multiply to {product}, expected {n}"
        )
    stages: List[StageInfo] = []
    size = n
    copies = 1
    for r in radices:
        span = size // r
        unity, trivial, nontrivial = _twiddle_tallies(size, r)
        stages.append(
            StageInfo(
                radix=r,
                size=size,
                span=span,
                copies=copies,
                butterflies=copies * span,
                unity_twiddles=copies * unity,
                trivial_twiddles=copies * trivial,
                nontrivial_twiddles=copies * nontrivial,
            )
        )
        copies *= r
        size = span
    return tuple(stages)


class _InstrumentCounter:
    """Mutable tallies filled in during an instrumented execution."""

    def __init__(self) -> None:
        self.complex_adds = 0
        self.nontrivial_muls = 0
        self.trivial_muls = 0


class FFTPlan:
    """A reusable mixed-radix FFT of fixed size and factorization.

    Parameters
    ----------
    n:
        Transform length (power of two).
    radices:
        Stage radices over {2, 4}, outermost first.  Defaults to the
        paper's radix-4-then-radix-2 factorization
        (:func:`default_radices`).

    Examples
    --------
    >>> plan = FFTPlan(128)
    >>> [s.radix for s in plan.stages]
    [4, 4, 4, 2]
    >>> plan128_radix2 = FFTPlan(128, radix2_radices(128))
    >>> plan128_radix2.flops() > plan.flops()  # the radix-4 advantage
    True
    >>> r2, r4 = plan128_radix2.memory_census(), plan.memory_census()
    >>> round(r2.total / r4.total, 2)  # the paper's ~1.5x incl. loads/stores
    1.36
    """

    def __init__(self, n: int, radices: Optional[Sequence[int]] = None) -> None:
        if radices is None:
            radices = default_radices(n)
        self.n = int(n)
        self.radices: Tuple[int, ...] = tuple(int(r) for r in radices)
        self.stages: Tuple[StageInfo, ...] = stage_infos(self.n, self.radices)
        self._twiddle_cache: dict = {}
        # Input position of each leaf, in mixed-radix digit-reversed order.
        self._leaf_order = (
            np.arange(self.n).reshape(self.radices[::-1]).T.reshape(-1)
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def execute(
        self,
        x: np.ndarray,
        inverse: bool = False,
        _counter: Optional[_InstrumentCounter] = None,
    ) -> np.ndarray:
        """Transform ``x`` (length ``n``); returns complex128.

        With ``inverse=True`` computes the unitary-pair inverse
        (``ifft(fft(x)) == x``), implemented by conjugation so the
        butterfly structure and op census are identical to the forward
        transform (plus the final 1/n scaling, which is not counted — the
        paper's CSLC folds it into the weight stage).
        """
        data = np.asarray(x, dtype=np.complex128)
        if data.shape != (self.n,):
            raise ConfigError(
                f"expected input of shape ({self.n},), got {data.shape}"
            )
        return self._transform(data, inverse, _counter)

    def execute_batch(
        self, x: np.ndarray, inverse: bool = False
    ) -> np.ndarray:
        """Transform every row of ``x`` (shape ``(..., n)``) at once.

        Identical mathematics to :meth:`execute` — each stage combines
        every sub-transform of every row in one array pass — so the op
        census per transform is unchanged; this is purely a host-side
        speedup for workloads with many transforms (the CSLC's 438 per
        interval).
        """
        data = np.asarray(x, dtype=np.complex128)
        if data.shape[-1] != self.n:
            raise ConfigError(
                f"expected trailing axis of {self.n}, got {data.shape}"
            )
        return self._transform(data, inverse, None)

    def _transform(
        self,
        data: np.ndarray,
        inverse: bool,
        counter: Optional[_InstrumentCounter],
    ) -> np.ndarray:
        """The DIT recursion, one stage at a time over the whole array.

        The leaves are gathered once in mixed-radix digit-reversed order
        (leaf ``(j0, j1, ...)`` is ``x[j0 + r0*j1 + r0*r1*j2 + ...]``).
        Then, innermost stage first, the data is viewed as ``(...,
        copies, radix, span)`` and all ``copies`` sub-transforms of the
        stage are combined by one :meth:`_combine`: every element sees
        the same twiddle products and butterfly sums as in a
        sub-transform-at-a-time recursion, in the same order.
        """
        if inverse:
            data = np.conj(data)
        lead = data.shape[:-1]
        out = data[..., self._leaf_order]
        for stage in reversed(self.stages):
            view = out.reshape(lead + (stage.copies, stage.radix, stage.span))
            subs = [view[..., j, :] for j in range(stage.radix)]
            out = self._combine(
                subs,
                stage.size,
                stage.radix,
                stage.span,
                stage.copies,
                counter,
            )
        out = out.reshape(lead + (self.n,))
        if inverse:
            return np.conj(out) / self.n
        return out

    def _combine(
        self,
        subs: List[np.ndarray],
        size: int,
        radix: int,
        span: int,
        copies: int,
        counter: Optional[_InstrumentCounter],
    ) -> np.ndarray:
        k = np.arange(span)
        twiddled: List[np.ndarray] = [subs[0]]
        for j in range(1, radix):
            key = (size, radix, j)
            w = self._twiddle_cache.get(key)
            if w is None:
                w = np.exp(-2j * np.pi * j * k / size)
                self._twiddle_cache[key] = w
            twiddled.append(w * subs[j])
            if counter is not None:
                t = (j * k) % size
                nontrivial = int(np.count_nonzero((t * 4) % size))
                trivial = int(np.count_nonzero(t)) - nontrivial
                counter.nontrivial_muls += copies * nontrivial
                counter.trivial_muls += copies * trivial

        out = np.empty(subs[0].shape[:-1] + (size,), dtype=np.complex128)
        if radix == 2:
            t0, t1 = twiddled
            out[..., :span] = t0 + t1
            out[..., span:] = t0 - t1
            if counter is not None:
                counter.complex_adds += copies * 2 * span
        else:  # radix == 4
            t0, t1, t2, t3 = twiddled
            a = t0 + t2
            b = t0 - t2
            c = t1 + t3
            d = -1j * (t1 - t3)  # multiply by -i: swap/negate, no flops
            out[..., 0 * span : 1 * span] = a + c
            out[..., 1 * span : 2 * span] = b + d
            out[..., 2 * span : 3 * span] = a - c
            out[..., 3 * span : 4 * span] = b - d
            if counter is not None:
                counter.complex_adds += copies * 8 * span
        return out

    def execute_instrumented(
        self, x: np.ndarray, inverse: bool = False
    ) -> Tuple[np.ndarray, OpCounts]:
        """Transform ``x`` while counting operations as they happen.

        Returns ``(result, counts)``; the tests require ``counts`` to equal
        :meth:`op_counts` exactly.
        """
        counter = _InstrumentCounter()
        result = self.execute(x, inverse=inverse, _counter=counter)
        counts = OpCounts(
            adds=counter.complex_adds * COMPLEX_ADD_FLOPS
            + counter.nontrivial_muls * COMPLEX_MUL_ADDS,
            muls=counter.nontrivial_muls * COMPLEX_MUL_MULS,
        )
        return result, counts

    # ------------------------------------------------------------------
    # Censuses
    # ------------------------------------------------------------------

    def op_counts(self) -> OpCounts:
        """Exact arithmetic census of one transform (forward or inverse)."""
        adds = 0.0
        muls = 0.0
        for stage in self.stages:
            adds += stage.core_adds * COMPLEX_ADD_FLOPS
            adds += stage.nontrivial_twiddles * COMPLEX_MUL_ADDS
            muls += stage.nontrivial_twiddles * COMPLEX_MUL_MULS
        return OpCounts(adds=adds, muls=muls)

    def flops(self) -> float:
        """Real arithmetic operations per transform."""
        return self.op_counts().flops

    def memory_census(self) -> OpCounts:
        """Word loads/stores of a memory-to-memory scalar implementation.

        Models the "C implementation" the paper ran on Raw: every butterfly
        loads its ``radix`` complex inputs, loads its non-trivial twiddles,
        and stores its ``radix`` complex outputs — no cross-butterfly
        register reuse.  Word counts (a complex value is two words).
        """
        loads = 0.0
        stores = 0.0
        for stage in self.stages:
            loads += stage.butterflies * stage.radix * 2
            loads += stage.nontrivial_twiddles * 2
            stores += stage.butterflies * stage.radix * 2
        counts = self.op_counts()
        return OpCounts(
            adds=counts.adds, muls=counts.muls, loads=loads, stores=stores
        )

    def shuffle_census(self) -> OpCounts:
        """Vector-shuffle element-operations of a vectorized implementation.

        A hand-vectorized FFT (VIRAM, §2.4/§4.3) interleaves arithmetic
        with data-rearrangement instructions; each butterfly needs its
        ``radix`` inputs aligned into vector lanes and its outputs restored,
        costing two shuffle element-ops per butterfly input.  These are the
        "overhead instructions ... to perform the FFT shuffles" that the
        paper says inflate VIRAM's CSLC cycles by 1.67x.
        """
        permutes = 0.0
        for stage in self.stages:
            permutes += stage.butterflies * stage.radix * 2
        counts = self.op_counts()
        return OpCounts(adds=counts.adds, muls=counts.muls, permutes=permutes)

    def __repr__(self) -> str:
        return f"FFTPlan(n={self.n}, radices={self.radices})"
