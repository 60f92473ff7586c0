"""Columnar text serialization for grid fields.

Format: one header line ``dim N type_tag rank`` followed by one line per
grid point in row-major order, each holding the field's complex entries as
``re im`` pairs (row-major within the matrix for matrix-valued fields),
written with ``%.17g`` so that loading restores every bit.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .torus import AffineTorus

TYPE_TAGS = ("scalar", "metric", "hermitian", "endo")


def dump_field(path, torus: AffineTorus, values: np.ndarray, tag: str) -> None:
    if tag not in TYPE_TAGS:
        raise ValidationError(f"unknown field tag {tag!r}")
    values = np.asarray(values, dtype=complex)
    n, N = torus.dim, torus.resolution
    rank = 1 if tag == "scalar" else values.shape[-1]
    flat = values.reshape(N**n, rank * rank)
    line = " ".join(["%.17g %.17g"] * (rank * rank)) + "\n"
    pairs = np.stack([flat.real, flat.imag], axis=-1).ravel().tolist()
    with open(path, "w") as fh:
        fh.write(f"{n} {N} {tag} {rank}\n")
        fh.write((line * N**n) % tuple(pairs))


def load_field(path):
    """Returns (dim, N, tag, rank, array)."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 4:
            raise ValidationError(f"malformed field header in {path}")
        n, N, tag, rank = int(header[0]), int(header[1]), header[2], int(header[3])
        if tag not in TYPE_TAGS:
            raise ValidationError(f"unknown field tag {tag!r} in {path}")
        nums = np.array(fh.read().split(), dtype=float)
    width = 2 * (1 if tag == "scalar" else rank * rank)
    if nums.size != N**n * width:
        raise ValidationError(
            f"{path}: expected {N**n} grid rows of {width} numbers, "
            f"found {nums.size} numbers"
        )
    data = nums[0::2] + 1j * nums[1::2]
    shape = (N,) * n
    if tag == "scalar":
        return n, N, tag, rank, data.reshape(shape)
    return n, N, tag, rank, data.reshape(shape + (rank, rank))
