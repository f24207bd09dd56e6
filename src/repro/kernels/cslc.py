"""Coherent side-lobe canceller (CSLC), §3.2.

"CSLC is a radar signal processing kernel used to cancel jammer signals
caused by one or more jammers.  Our CSLC implementation consists of FFTs,
a weight application (multiplication) stage, and IFFTs. ... There are four
input channels: two main channels and two auxiliary channels.  Each channel
has 8K samples per processing interval. ... The data is partitioned into 73
overlapping sub-bands, each of which contains 128 samples, so 128-sample
FFTs are used."

Pipeline per sub-band ``s`` and main channel ``m``::

    M[s]  = FFT(main_m sub-band s)          # one per channel (mains + auxes)
    A[a,s]= FFT(aux_a  sub-band s)
    Out[m,s,k] = M[s,k] - sum_a w[m,a,k] * A[a,s,k]   # weight application
    out[m,s] = IFFT(Out[m,s])               # one per main channel

Weights are per-frequency-bin complex gains; :func:`estimate_weights`
computes the least-squares optimum from the sub-band snapshots (the
adaptive part real CSLCs run at a slower rate), and the tests verify tens
of dB of jammer cancellation on synthetic jammed channels — a functional
check the original paper could not publish but our substitution enables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.kernels.fft import FFTPlan
from repro.kernels.opcount import (
    COMPLEX_ADD_FLOPS,
    COMPLEX_MUL_FLOPS,
    OpCounts,
)
from repro.kernels.signal import ChannelSet


@dataclass(frozen=True)
class CSLCWorkload:
    """CSLC problem size (§3.2 defaults).

    The hop between consecutive sub-bands is derived so the ``n_subbands``
    windows of ``subband_len`` samples exactly tile the interval:
    ``hop * (n_subbands - 1) + subband_len == samples``.  For the paper's
    parameters the hop is 112 samples (16-sample overlap).
    """

    n_mains: int = 2
    n_aux: int = 2
    samples: int = 8192
    n_subbands: int = 73
    subband_len: int = 128

    def __post_init__(self) -> None:
        if min(self.n_mains, self.n_aux) < 1:
            raise ConfigError("need at least one main and one aux channel")
        if self.n_subbands < 1:
            raise ConfigError("need at least one sub-band")
        if self.subband_len < 2:
            raise ConfigError("sub-band length must be at least 2")
        if self.n_subbands == 1:
            if self.samples != self.subband_len:
                raise ConfigError(
                    "single sub-band requires samples == subband_len"
                )
            return
        span = self.samples - self.subband_len
        if span < 0 or span % (self.n_subbands - 1):
            raise ConfigError(
                f"{self.n_subbands} sub-bands of {self.subband_len} cannot "
                f"exactly tile {self.samples} samples"
            )

    @property
    def hop(self) -> int:
        """Samples between consecutive sub-band starts."""
        if self.n_subbands == 1:
            return self.samples
        return (self.samples - self.subband_len) // (self.n_subbands - 1)

    @property
    def n_channels(self) -> int:
        return self.n_mains + self.n_aux

    @property
    def transforms(self) -> int:
        """Total FFT + IFFT invocations per interval."""
        return self.n_subbands * (self.n_channels + self.n_mains)

    def op_counts(self, plan: FFTPlan) -> OpCounts:
        """Exact arithmetic census of one interval under ``plan``.

        Forward FFTs for every channel, weight application per main, and
        an IFFT per main channel; memory traffic is mapping-specific and
        not included here.
        """
        if plan.n != self.subband_len:
            raise ConfigError(
                f"plan size {plan.n} != sub-band length {self.subband_len}"
            )
        fft_ops = plan.op_counts().scaled(
            self.n_subbands * (self.n_channels + self.n_mains)
        )
        per_bin = self.n_aux * (COMPLEX_MUL_FLOPS + COMPLEX_ADD_FLOPS)
        weight_flops = self.n_mains * self.n_subbands * self.subband_len * per_bin
        # Complex multiply: 4 muls + 2 adds; complex subtract: 2 adds.
        weight_muls = self.n_mains * self.n_subbands * self.subband_len * self.n_aux * 4
        weight_adds = weight_flops - weight_muls
        return fft_ops + OpCounts(adds=weight_adds, muls=weight_muls)


def extract_subbands(x: np.ndarray, workload: CSLCWorkload) -> np.ndarray:
    """Slice one channel into its (n_subbands, subband_len) windows."""
    x = np.asarray(x)
    if x.shape != (workload.samples,):
        raise ConfigError(
            f"expected ({workload.samples},) samples, got {x.shape}"
        )
    hop = workload.hop
    out = np.empty((workload.n_subbands, workload.subband_len), dtype=x.dtype)
    for s in range(workload.n_subbands):
        start = s * hop
        out[s] = x[start : start + workload.subband_len]
    return out


def overlap_add(subbands: np.ndarray, workload: CSLCWorkload) -> np.ndarray:
    """Reassemble sub-band outputs into one interval.

    Overlapping regions are averaged by their coverage count so that
    reassembling unmodified sub-bands reproduces the input exactly.
    """
    if subbands.shape != (workload.n_subbands, workload.subband_len):
        raise ConfigError(
            f"expected ({workload.n_subbands}, {workload.subband_len}), "
            f"got {subbands.shape}"
        )
    hop = workload.hop
    acc = np.zeros(workload.samples, dtype=np.complex128)
    coverage = np.zeros(workload.samples, dtype=np.float64)
    for s in range(workload.n_subbands):
        start = s * hop
        acc[start : start + workload.subband_len] += subbands[s]
        coverage[start : start + workload.subband_len] += 1.0
    if np.any(coverage == 0):
        raise ConfigError("sub-bands do not cover the interval")
    return acc / coverage


def estimate_weights(
    main_fft: np.ndarray, aux_fft: np.ndarray, loading: float = 1e-4
) -> np.ndarray:
    """Regularised least-squares cancellation weights, per main and bin.

    Parameters
    ----------
    main_fft:
        (n_mains, n_subbands, bins) sub-band spectra of the main channels.
    aux_fft:
        (n_aux, n_subbands, bins) sub-band spectra of the aux channels.
    loading:
        Diagonal loading relative to the band-average auxiliary power.
        In bins the jammer does not occupy, the aux snapshots are noise;
        without loading the solve would fit that noise and *inject* it
        into the output.  The loading drives those bins' weights toward
        zero while leaving jammer-dominated bins (whose power is orders
        of magnitude above the average) essentially unregularised — the
        standard diagonal-loading practice in side-lobe cancellers.
        Pass 0.0 for the exact unregularised least squares.

    Returns
    -------
    (n_mains, n_aux, bins) complex weights minimising
    ``sum_s |M[m,s,k] - sum_a w[m,a,k] A[a,s,k]|^2 + lam |w|^2`` per bin.
    """
    n_mains, n_sub, bins = main_fft.shape
    n_aux = aux_fft.shape[0]
    if aux_fft.shape[1:] != (n_sub, bins):
        raise ConfigError(
            f"aux spectra shape {aux_fft.shape} inconsistent with mains "
            f"{main_fft.shape}"
        )
    if loading < 0:
        raise ConfigError(f"loading must be non-negative, got {loading}")
    lam = loading * float(np.mean(np.abs(aux_fft) ** 2)) * n_sub
    weights = np.zeros((n_mains, n_aux, bins), dtype=np.complex128)
    # Per-bin snapshot matrices over sub-bands, (bins, n_sub, n_aux),
    # and their conjugate transposes, stacked so one matmul and one
    # solve per main cover every bin.
    a = np.ascontiguousarray(aux_fft.transpose(2, 1, 0))
    a_h = np.ascontiguousarray(a.conj().transpose(0, 2, 1))
    if lam > 0:
        gram = a_h @ a + lam * np.eye(n_aux)
        for m in range(n_mains):
            b = main_fft[m].T
            weights[m] = np.linalg.solve(gram, a_h @ b[..., None])[..., 0].T
        return weights
    # lstsq has no stacked form: the unloaded solve goes bin by bin.
    for k in range(bins):
        for m in range(n_mains):
            w, *_ = np.linalg.lstsq(a[k], main_fft[m, :, k], rcond=None)
            weights[m, :, k] = w
    return weights


@dataclass(frozen=True)
class CSLCResult:
    """Output of a CSLC interval.

    ``outputs``: (n_mains, samples) time-domain cancelled channels.
    ``output_subbands``: (n_mains, n_subbands, subband_len) before
    reassembly — what the hardware kernels actually produce.
    ``weights``: the (n_mains, n_aux, bins) weights applied.
    ``cancellation_db``: per-main jammer-power reduction, main in vs out.
    """

    outputs: np.ndarray
    output_subbands: np.ndarray
    weights: np.ndarray
    cancellation_db: Tuple[float, ...]


def cancellation_db(before: np.ndarray, after: np.ndarray) -> float:
    """Power reduction from ``before`` to ``after`` in dB (positive =
    cancelled)."""
    p_before = float(np.mean(np.abs(before) ** 2))
    p_after = float(np.mean(np.abs(after) ** 2))
    if p_after <= 1e-30:
        return 300.0
    return 10.0 * np.log10(max(p_before, 1e-30) / p_after)


def interference_rejection_db(
    channels: ChannelSet, outputs: np.ndarray
) -> Tuple[float, ...]:
    """Per-main reduction of the non-signal (jammer + noise) residual.

    Uses the synthesis-time clean signal that a real system would not
    have: rejection = power(main - signal) / power(out - signal) in dB.
    Unlike :func:`cancellation_db`, this is not floored by the desired
    signal's own power, so it measures cancellation quality directly.
    """
    if outputs.shape != channels.mains.shape:
        raise ConfigError(
            f"outputs shape {outputs.shape} != mains {channels.mains.shape}"
        )
    rejections = []
    for m in range(channels.n_mains):
        before = channels.mains[m] - channels.signal
        after = outputs[m] - channels.signal
        rejections.append(cancellation_db(before, after))
    return tuple(rejections)


def cslc_oracle(
    channels: ChannelSet,
    workload: CSLCWorkload,
    weights: np.ndarray,
) -> np.ndarray:
    """Independent numpy-FFT implementation of the CSLC pipeline.

    Used as the functional cross-check for the machine mappings (which run
    the from-scratch :class:`~repro.kernels.fft.FFTPlan` transforms): same
    sub-banding, weight application, and overlap-add reassembly, but all
    transforms via ``numpy.fft``.  Returns (n_mains, samples) outputs.
    """
    hop = workload.hop
    n = workload.subband_len
    starts = np.arange(workload.n_subbands) * hop
    idx = starts[:, None] + np.arange(n)[None, :]
    main_fft = np.fft.fft(channels.mains[:, idx], axis=-1)
    aux_fft = np.fft.fft(channels.auxes[:, idx], axis=-1)
    cancelled = main_fft - np.einsum("mak,ask->msk", weights, aux_fft)
    out_sub = np.fft.ifft(cancelled, axis=-1)
    outputs = np.empty((workload.n_mains, workload.samples), dtype=np.complex128)
    for m in range(workload.n_mains):
        outputs[m] = overlap_add(out_sub[m], workload)
    return outputs


def cslc_reference(
    channels: ChannelSet,
    workload: CSLCWorkload,
    plan: Optional[FFTPlan] = None,
    weights: Optional[np.ndarray] = None,
) -> CSLCResult:
    """Run one CSLC interval functionally.

    Uses ``plan`` (default: the paper's radix-4/radix-2 factorization) for
    every transform, estimates weights from the data unless given, and
    returns time-domain outputs plus cancellation metrics.
    """
    if channels.n_mains != workload.n_mains or channels.n_aux != workload.n_aux:
        raise ConfigError(
            f"channel set ({channels.n_mains} mains, {channels.n_aux} aux) "
            f"does not match workload ({workload.n_mains}, {workload.n_aux})"
        )
    if channels.samples != workload.samples:
        raise ConfigError(
            f"channel samples {channels.samples} != workload "
            f"{workload.samples}"
        )
    if plan is None:
        plan = FFTPlan(workload.subband_len)
    if plan.n != workload.subband_len:
        raise ConfigError(
            f"plan size {plan.n} != sub-band length {workload.subband_len}"
        )

    def spectra(channel_data: np.ndarray) -> np.ndarray:
        out = np.empty(
            (channel_data.shape[0], workload.n_subbands, workload.subband_len),
            dtype=np.complex128,
        )
        for c in range(channel_data.shape[0]):
            sub = extract_subbands(channel_data[c], workload)
            out[c] = plan.execute_batch(sub)
        return out

    main_fft = spectra(channels.mains)
    aux_fft = spectra(channels.auxes)

    if weights is None:
        weights = estimate_weights(main_fft, aux_fft)
    elif weights.shape != (
        workload.n_mains,
        workload.n_aux,
        workload.subband_len,
    ):
        raise ConfigError(f"weights shape {weights.shape} is wrong")

    out_subbands = np.empty(
        (workload.n_mains, workload.n_subbands, workload.subband_len),
        dtype=np.complex128,
    )
    outputs = np.empty((workload.n_mains, workload.samples), dtype=np.complex128)
    cancel = []
    for m in range(workload.n_mains):
        cancelled = main_fft[m] - np.einsum(
            "ak,ask->sk", weights[m], aux_fft
        )
        out_subbands[m] = plan.execute_batch(cancelled, inverse=True)
        outputs[m] = overlap_add(out_subbands[m], workload)
        cancel.append(cancellation_db(channels.mains[m], outputs[m]))
    return CSLCResult(
        outputs=outputs,
        output_subbands=out_subbands,
        weights=weights,
        cancellation_db=tuple(cancel),
    )
