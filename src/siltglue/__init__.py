"""Exact computation in bounded homotopy categories of quiver projectives."""

__version__ = "0.1.0"

__all__ = ["__version__"]
