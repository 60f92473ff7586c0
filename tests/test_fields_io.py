"""Field dumps: byte-for-byte the per-row format, and exact round trips."""

import numpy as np
import pytest

from affinehe.fields_io import dump_field, load_field
from affinehe.torus import AffineTorus


def dump_per_row(path, torus, values, tag):
    """Reference writer: one formatted grid point at a time."""
    values = np.asarray(values, dtype=complex)
    n, N = torus.dim, torus.resolution
    rank = 1 if tag == "scalar" else values.shape[-1]
    flat = values.reshape(N**n, rank * rank)
    with open(path, "w") as fh:
        fh.write(f"{n} {N} {tag} {rank}\n")
        for row in flat:
            fh.write(" ".join(f"{z.real:.17g} {z.imag:.17g}" for z in row))
            fh.write("\n")


def awkward_values(rng, shape):
    """Random entries plus values whose %.17g text is unusual."""
    v = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    v = v + 1j * rng.standard_normal(shape)
    special = np.array([0.0, -0.0, 1.0, 1e-320, 1.7976931348623157e308, 0.1, -2.5])
    flat = v.reshape(-1)
    flat[: special.size] = special + 1j * special[::-1]
    return v


@pytest.mark.parametrize("dim,N,tag,rank", [
    (1, 8, "scalar", 1), (2, 8, "endo", 2), (3, 8, "hermitian", 3)])
def test_dump_matches_per_row_format_and_round_trips(tmp_path, rng, dim, N, tag, rank):
    t = AffineTorus(dim, N)
    shape = t.grid_shape if tag == "scalar" else t.grid_shape + (rank, rank)
    values = awkward_values(rng, shape)
    dump_field(tmp_path / "fast.txt", t, values, tag)
    dump_per_row(tmp_path / "ref.txt", t, values, tag)
    assert (tmp_path / "fast.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes()
    n, N_back, tag_back, rank_back, back = load_field(tmp_path / "fast.txt")
    assert (n, N_back, tag_back, rank_back) == (dim, N, tag, rank)
    assert back.shape == shape
    assert np.array_equal(back, values)
    assert np.array_equal(np.signbit(back.real), np.signbit(values.real))
