"""Quantum channels in Stinespring form: construction, application, surgery.

The canonical representation is the isometry V : A -> B (x) E with
Phi(rho) = Tr_E V rho V*.  Kraus operators, when needed, are the slices of
V along the environment index.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qstate import MAX_TOTAL_DIM, DensityMatrix, PureState, QStateError, SystemLayout, gram_density

ISOMETRY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class StinespringChannel:
    """Channel as an isometry of shape (d_b * d_e, d_a).

    Row index is b * d_e + e (output slowest, environment fastest).
    """

    isometry: np.ndarray
    d_a: int
    d_b: int
    d_e: int
    input_label: str = "A"
    output_label: str = "B"
    env_label: str = "E"

    def __post_init__(self):
        v = np.asarray(self.isometry, dtype=np.complex128)
        expected = (self.d_b * self.d_e, self.d_a)
        if v.shape != expected:
            raise QStateError(f"isometry has shape {v.shape}, expected {expected}")
        dev = np.max(np.abs(v.conj().T @ v - np.eye(self.d_a)))
        if dev > ISOMETRY_TOL:
            raise QStateError(f"V*V deviates from identity by {dev:.3e}")
        if len({self.input_label, self.output_label, self.env_label}) != 3:
            raise QStateError("input, output, and environment labels must be distinct")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "isometry", v)

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.d_a, self.d_b, self.d_e)

    def relabeled(self, input_label: str, output_label: str, env_label: str) -> "StinespringChannel":
        return StinespringChannel(
            self.isometry, self.d_a, self.d_b, self.d_e, input_label, output_label, env_label
        )

    def kraus_operators(self) -> list[np.ndarray]:
        v = self.isometry.reshape(self.d_b, self.d_e, self.d_a)
        return [v[:, e, :] for e in range(self.d_e)]


@functools.lru_cache(maxsize=1024)
def _apply_plan(layout: SystemLayout, input_label: str, output_label: str, env_label: str,
                d_a: int, d_b: int) -> tuple[SystemLayout, int, int]:
    """(output layout, pre, post) of a channel on the factor `input_label` of `layout`.

    pre and post are the dimensions of the passthrough factors before and
    after it.  Built once per layout and channel labels and dimensions; it
    holds structure only, and a raising call leaves nothing cached.
    """
    pos = layout.position(input_label)
    if layout.dims[pos] != d_a:
        raise QStateError(f"input factor has dim {layout.dims[pos]}, channel expects {d_a}")
    for lbl in (output_label, env_label):
        if layout.has(lbl) and lbl != input_label:
            raise QStateError(f"label {lbl!r} collides with a passthrough factor")
    out_layout = layout.replace(input_label, [(output_label, d_b)])
    return out_layout, math.prod(layout.dims[:pos]), math.prod(layout.dims[pos + 1 :])


def apply(channel: StinespringChannel, rho) -> DensityMatrix:
    """Apply the channel to the factor named by its input label.

    Extra factors of `rho` pass through untouched (Phi (x) Id); the output
    factor takes the input factor's position in the layout.  The environment
    is traced out inside the contraction that applies V and V-bar, so no
    B (x) E state is built: the output is the only state validated.  A
    PureState stays a vector: V maps its amplitudes to a matrix M of shape
    (pre * d_b * post, d_e), and the output is M M*, with no d x d input.
    """
    out_layout, pre, post = _apply_plan(rho.layout, channel.input_label, channel.output_label,
                                        channel.env_label, channel.d_a, channel.d_b)
    v = channel.isometry.reshape(channel.d_b, channel.d_e, channel.d_a)
    if isinstance(rho, PureState):
        # V on the input index: (b, e, pre, post) -> (pre, b, post, e)
        m = np.tensordot(v, rho.amplitudes.reshape(pre, channel.d_a, post), axes=([2], [1]))
        return gram_density(out_layout, m.transpose(2, 0, 3, 1).reshape(-1, channel.d_e))
    tensor = rho.entries.reshape(pre, channel.d_a, post, pre, channel.d_a, post)
    # V on the row input index: (b, e, pre, post, pre', a', post')
    t = np.tensordot(v, tensor, axes=([2], [1]))
    # V-bar on the column input index, tracing e: (b, pre, post, pre', post', b')
    t = np.tensordot(t, v.conj(), axes=([1, 5], [1, 2]))
    d = out_layout.total_dim
    return DensityMatrix(out_layout, t.transpose(1, 0, 2, 3, 5, 4).reshape(d, d))


def complementary(channel: StinespringChannel) -> StinespringChannel:
    """Same isometry with output and environment roles swapped."""
    v = channel.isometry.reshape(channel.d_b, channel.d_e, channel.d_a)
    swapped = np.transpose(v, (1, 0, 2)).reshape(channel.d_e * channel.d_b, channel.d_a)
    return StinespringChannel(
        swapped,
        channel.d_a,
        channel.d_e,
        channel.d_b,
        channel.input_label,
        channel.env_label,
        channel.output_label,
    )


@dataclass(frozen=True)
class ErasureSpec:
    """Erasure channel parameters: input dimension d >= 2, probability p."""

    d: int
    p: float

    def __post_init__(self):
        if self.d < 2:
            raise QStateError(f"erasure input dimension {self.d} < 2")
        if not 0.0 <= self.p <= 1.0:
            raise QStateError(f"erasure probability {self.p} outside [0, 1]")


def erasure_channel(
    spec: ErasureSpec,
    input_label: str = "A",
    output_label: str = "B",
    env_label: str = "E",
) -> StinespringChannel:
    """Erasure channel: transmit with probability 1-p, else emit the flag vector.

    Output and environment are both (d+1)-dimensional; the erasure flag is
    fixed as the last basis vector for reproducibility.
    """
    d, p = spec.d, spec.p
    dd = d + 1
    v = np.zeros((dd * dd, d), dtype=np.complex128)
    keep = np.sqrt(1.0 - p)
    lose = np.sqrt(p)
    for j in range(d):
        v[j * dd + d, j] = keep  # |j>_B (x) |flag>_E
        v[d * dd + j, j] = lose  # |flag>_B (x) |j>_E
    return StinespringChannel(v, d, dd, dd, input_label, output_label, env_label)


def identity_channel(
    d: int, input_label: str = "A", output_label: str = "B", env_label: str = "E"
) -> StinespringChannel:
    """Identity map with a trivial one-dimensional environment."""
    return StinespringChannel(np.eye(d), d, d, 1, input_label, output_label, env_label)


def complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard complex Gaussian array: real parts drawn first, then imaginary parts, written in place.

    The same bits as rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
    without its three complex temporaries.
    """
    out = np.empty(shape, dtype=np.complex128)
    out.real = rng.standard_normal(shape)
    out.imag = rng.standard_normal(shape)
    return out


def random_isometry(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-style isometry from QR of a complex Gaussian matrix."""
    if rows < cols:
        raise QStateError(f"no isometry exists from dimension {cols} into {rows}")
    m = complex_gaussian(rng, (rows, cols))
    q, r = np.linalg.qr(m)
    phases = np.diagonal(r).copy()
    phases = np.where(np.abs(phases) > 0, phases / np.abs(phases), 1.0)
    return q * phases.conj()


def random_channel(
    d_a: int,
    d_b: int,
    d_e: int,
    seed,
    input_label: str = "A",
    output_label: str = "B",
    env_label: str = "E",
) -> StinespringChannel:
    """Random channel via a Haar-style isometry; deterministic per seed."""
    if d_b * d_e < d_a:
        raise QStateError(f"d_b*d_e = {d_b * d_e} < d_a = {d_a}: no isometry exists")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    v = random_isometry(d_b * d_e, d_a, rng)
    return StinespringChannel(v, d_a, d_b, d_e, input_label, output_label, env_label)


def tensor_power_apply(
    channel: StinespringChannel,
    n: int,
    rho: DensityMatrix,
    input_labels: Sequence[str],
) -> DensityMatrix:
    """Apply Phi^(x n) (x) Id, factor by factor over the named input labels.

    After k steps the state has dimension rest * d_b^k * d_a^(n-k), so the
    largest state the sequential `apply` calls build is rest * max(d_a, d_b)^n;
    it is checked against the dense-simulation guard before any step runs.
    """
    if n < 1:
        raise QStateError(f"n = {n} must be >= 1")
    if len(input_labels) != n:
        raise QStateError(f"expected {n} input labels, got {len(input_labels)}")
    for lbl in input_labels:
        if rho.layout.dim(lbl) != channel.d_a:
            raise QStateError(f"factor {lbl!r} has wrong dimension for the channel")
    peak = (rho.layout.total_dim // channel.d_a**n) * max(channel.d_a, channel.d_b) ** n
    if peak > MAX_TOTAL_DIM:
        raise QStateError(
            f"intermediate dimension {peak} exceeds dense-simulation guard {MAX_TOTAL_DIM}"
        )
    out = rho
    for k, lbl in enumerate(input_labels, start=1):
        local = channel.relabeled(lbl, f"{channel.output_label}{k}", f"{channel.env_label}{k}")
        out = apply(local, out)
    return out


def common_stinespring(
    phi: StinespringChannel, psi: StinespringChannel
) -> tuple[StinespringChannel, StinespringChannel]:
    """Embed both channels into one output (x) environment space.

    Environments are stacked into E1 (+) E2 and the second isometry is
    rotated by the orthogonal-Procrustes environment unitary, which
    minimizes the Frobenius distance between the pair.  Any common
    representation upper-bounds the channel Bures distance, and the
    operator norm of the difference is dominated by the Frobenius norm.
    """
    if phi.d_a != psi.d_a or phi.d_b != psi.d_b:
        raise QStateError("common representation needs matching input/output dimensions")
    d_a, d_b = phi.d_a, phi.d_b
    d_e = phi.d_e + psi.d_e
    v1 = np.zeros((d_b * d_e, d_a), dtype=np.complex128)
    v2 = np.zeros((d_b * d_e, d_a), dtype=np.complex128)
    t1 = phi.isometry.reshape(d_b, phi.d_e, d_a)
    t2 = psi.isometry.reshape(d_b, psi.d_e, d_a)
    w1 = v1.reshape(d_b, d_e, d_a)
    w2 = v2.reshape(d_b, d_e, d_a)
    w1[:, : phi.d_e, :] = t1
    w2[:, phi.d_e :, :] = t2
    # environment rotation maximizing Re Tr[R Tr_B(V2 V1*)]
    y = np.einsum("bea,bfa->ef", w2, w1.conj())
    u, _, vh = np.linalg.svd(y)
    rot = (u @ vh).conj().T
    w2r = np.einsum("fe,bea->bfa", rot, w2)
    out_phi = StinespringChannel(
        w1.reshape(d_b * d_e, d_a), d_a, d_b, d_e,
        phi.input_label, phi.output_label, phi.env_label,
    )
    out_psi = StinespringChannel(
        w2r.reshape(d_b * d_e, d_a), d_a, d_b, d_e,
        psi.input_label, psi.output_label, psi.env_label,
    )
    return out_phi, out_psi


def channel_to_dict(channel: StinespringChannel) -> dict:
    """JSON-ready document: dims, labels, interleaved re/im entries (row-major)."""
    flat = channel.isometry.reshape(-1)
    entries: list[float] = []
    for z in flat:
        entries.append(float(z.real))
        entries.append(float(z.imag))
    return {
        "d_a": channel.d_a,
        "d_b": channel.d_b,
        "d_e": channel.d_e,
        "input_label": channel.input_label,
        "output_label": channel.output_label,
        "env_label": channel.env_label,
        "isometry": entries,
    }


def channel_from_dict(doc: dict) -> StinespringChannel:
    d_a, d_b, d_e = int(doc["d_a"]), int(doc["d_b"]), int(doc["d_e"])
    raw = np.asarray(doc["isometry"], dtype=float)
    if raw.size != 2 * d_b * d_e * d_a:
        raise QStateError("isometry entry count does not match dims")
    v = (raw[0::2] + 1j * raw[1::2]).reshape(d_b * d_e, d_a)
    return StinespringChannel(
        v, d_a, d_b, d_e,
        str(doc.get("input_label", "A")),
        str(doc.get("output_label", "B")),
        str(doc.get("env_label", "E")),
    )


def save_channel(channel: StinespringChannel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(channel_to_dict(channel), fh)


def load_channel(path) -> StinespringChannel:
    with open(path, encoding="utf-8") as fh:
        return channel_from_dict(json.load(fh))
