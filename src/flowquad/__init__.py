"""Sparse grid quadrature composed with learned transport flows on [0,1]^d."""

__all__ = [
    "analysis",
    "cli",
    "densities",
    "errors",
    "flow",
    "network",
    "quadrature",
    "training",
    "transport",
]

__version__ = "0.1.0"
