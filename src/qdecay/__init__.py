"""Numerical laboratory for information decay under quantum channels."""

__version__ = "0.1.0"
