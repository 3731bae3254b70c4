"""Gaussian process substrate: the SE kernel and exact GP regression."""

from .gpr import GPR, TrainResult
from .kernels import RBF, Kernel, Product, Sum, nargp_kernel
from .linalg import chol_append, jitter_cholesky

__all__ = [
    "GPR",
    "TrainResult",
    "Kernel",
    "RBF",
    "Sum",
    "Product",
    "nargp_kernel",
    "jitter_cholesky",
    "chol_append",
]
