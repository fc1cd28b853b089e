"""Off-resonant Raman photon-echo memory toolkit.

Layout:
    params      parameter records, line shapes, envelopes, config parsing
    specfun     complex-order Bessel / complex gamma (the switch-map oracle)
    switching   control switch-off / switch-on maps as 0F1 series
    mbsolver    full and reduced propagation solvers, storage/retrieval runs
    efficiency  absorption profiles and the factorised echo-efficiency model
    strcheck    time-rescaled retrieval transforms, residuals, fidelity
    cli         batch sweep / pipeline command line front end
"""

__version__ = "0.1.0"

from . import params, specfun, switching, mbsolver, efficiency, strcheck  # noqa: F401
