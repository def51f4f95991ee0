"""Experiment drivers regenerating the paper's tables and figures.

The driver modules load on first attribute access (PEP 562), so a
process that needs only :mod:`repro.experiments.runner` - every pool
worker does - does not import the other drivers.
"""

import importlib

__all__ = ["ablations", "figure4", "figure5", "report", "sensitivity",
           "table1", "throughput"]


def __getattr__(name):
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
