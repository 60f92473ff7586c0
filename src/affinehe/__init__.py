"""Affine Gauduchon metrics, slope stability, and affine Hermitian-Einstein
metrics for flat vector bundles over special affine tori."""

from .torus import AffineTorus
from .forms import MetricField
from .bundle import FlatBundle, build_bundle

__all__ = [
    "AffineTorus",
    "MetricField",
    "FlatBundle",
    "build_bundle",
]

__version__ = "0.1.0"
