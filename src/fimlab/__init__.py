"""fimlab: Fisher information estimation laboratory for small classifiers.

Submodules:
  simplex     closed-form output-distribution FIMs, spectra, envelopes
  autodiff    minimal reverse-mode tape over dense float64 tensors
  network     dense classifier models, flat parameters, batched forwards
  estimators  per-sample Jacobians and scores; exact / empirical / Monte Carlo /
              probe FIM estimators
  bounds      deterministic Loewner-order bounds and tightness certificates
  harness     synthetic tasks, trainer, RelMAE protocol, CV pathology demo
  cli         the `fimlab` command
"""

from . import autodiff, bounds, estimators, harness, network, simplex

__all__ = ["autodiff", "bounds", "estimators", "harness", "network", "simplex"]
__version__ = "0.1.0"
