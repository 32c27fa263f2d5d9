"""Deterministic simulator and estimator for a single-emitter scanning
optical indoor positioning system."""

__version__ = "0.6.0"
