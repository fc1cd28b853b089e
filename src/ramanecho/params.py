"""Physical parameter records, line-shape descriptors, field envelopes and
flat configuration parsing.

Everything downstream (switch dynamics, propagation solvers, efficiency
model, CLI) consumes the types defined here.  Internal unit system: the
write-control Rabi frequency is the rate unit (omega1_rabi = 1 by default)
and the group velocity is 1, so times, rates and lengths are all quoted as
dimensionless ratios.

All records are frozen dataclasses: construct once, share freely across
workers, never mutate.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PhysicalParams",
    "BroadeningSpec",
    "BROADENING_KEYS",
    "FieldEnvelope",
    "DomainError",
    "ConfigError",
    "stark_shifted_detuning",
    "quadrature_nodes",
    "gaussian_shape",
    "lorentzian_shape",
    "gradient_shape",
    "is_off_resonant",
    "load_config",
    "params_from_config",
    "broadening_from_config",
]


class DomainError(ValueError):
    """A physics-domain precondition was violated."""


class ConfigError(ValueError):
    """A configuration file or key-value set could not be interpreted."""


# ===================== parameter record =====================

@dataclass(frozen=True)
class PhysicalParams:
    """Scalar physics constants for one memory configuration.

    omega1_rabi / omega2_rabi : control Rabi frequencies for the write and
        read stages.  The read stage conventionally uses sqrt(eta) times the
        write value; `make` fills that in when omega2_rabi is not given.
    delta01 / delta02 : optical detunings of the two control stages.  Must be
        nonzero (the whole treatment is off-resonant).
    gamma21, gamma31 : spin and optical coherence decay rates.
    beta : field-atom coupling constant of the propagation equations.  Treated
        as a single fitted number; normally derived from optical_depth, see
        efficiency.resolve_coupling.
    eta : time-scaling factor of the retrieval stage (>1 compresses).  The
        closed-form echo also needs the coupling ratio scaled to match,
        omega2_rabi/delta02 = sqrt(eta) omega1_rabi/delta01, which the
        `make` defaults satisfy.
    k_off / k_on : exponential switch-off and switch-on rates of the control.
    tau0 : time the write control starts switching off.
    tau_echo : echo emission time (unit-eta reference unless noted).
    tau_st : storage interval with both controls off.
    medium_length : propagation length L (group velocity = 1 units).
    optical_depth : two-photon line-center depth; echo energy carries the
        factor |1 - exp(-optical_depth)|^2.
    """

    omega1_rabi: float = 1.0
    omega2_rabi: float = 1.0
    delta01: float = 10.0
    delta02: float = 10.0
    gamma21: float = 0.0
    gamma31: float = 0.0
    beta: float = 0.0
    eta: float = 1.0
    k_off: float = 1.0
    k_on: float = 1.0
    tau0: float = 0.0
    tau_echo: float = 0.0
    tau_st: float = 0.0
    medium_length: float = 1.0
    optical_depth: float = 0.0

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise DomainError(f"{f.name} must be finite, got "
                                  f"{getattr(self, f.name)}")
        for name in ("gamma21", "gamma31", "beta", "tau_st",
                     "optical_depth"):
            if getattr(self, name) < 0:
                raise DomainError(f"{name} must be nonnegative, got "
                                  f"{getattr(self, name)}")
        if self.eta <= 0:
            raise DomainError(f"eta must be positive, got {self.eta}")
        if self.delta01 == 0:
            raise DomainError("delta01 must be nonzero (off-resonant scheme)")
        if self.delta02 == 0:
            raise DomainError("delta02 must be nonzero (off-resonant scheme)")
        if self.k_off <= 0:
            raise DomainError(f"k_off must be positive, got {self.k_off}")
        if self.k_on <= 0:
            raise DomainError(f"k_on must be positive, got {self.k_on}")
        if self.medium_length <= 0:
            raise DomainError("medium_length must be positive")

    @classmethod
    def make(cls, **kw) -> "PhysicalParams":
        """Construct with the conventional read-stage defaults filled in:
        omega2_rabi = sqrt(eta) * omega1_rabi and delta02 = delta01 unless
        given explicitly."""
        kw.setdefault("omega2_rabi", math.sqrt(kw.get("eta", 1.0))
                      * kw.get("omega1_rabi", 1.0))
        kw.setdefault("delta02", kw.get("delta01", 10.0))
        return cls(**kw)

    def replace(self, **kw) -> "PhysicalParams":
        return dataclasses.replace(self, **kw)

    def omega(self, stage: int) -> float:
        if stage == 1:
            return self.omega1_rabi
        if stage == 2:
            return self.omega2_rabi
        raise DomainError(f"stage must be 1 or 2, got {stage}")

    def delta0(self, stage: int) -> float:
        if stage == 1:
            return self.delta01
        if stage == 2:
            return self.delta02
        raise DomainError(f"stage must be 1 or 2, got {stage}")


# ===================== line shapes & quadrature =====================

GAUSSIAN = "gaussian"
LORENTZIAN = "lorentzian"
GRADIENT = "gradient"
NONE = "none"

_SPECTRAL_KINDS = (GAUSSIAN, LORENTZIAN)
# Heavy Lorentzian tails would otherwise eat the whole node budget; cut at
# 50 widths and renormalise.
LORENTZIAN_CUTOFF = 50.0
GAUSSIAN_CUTOFF = 4.0


@dataclass(frozen=True)
class BroadeningSpec:
    """Static frequency-distribution descriptors for both transitions.

    optical_kind/optical_width : distribution of the optical-transition
        detuning offsets (position independent).
    raman_kind/raman_width : distribution of the two-photon detuning.  For
        kind "gradient" the width field is the spatial slope chi, the line is
        a delta function pinned to chi * (z - L/2), and no spectral
        quadrature exists.
    rule : "gauss" (Gauss-Hermite / tan-mapped Gauss-Legendre) or "uniform"
        (equispaced nodes, density weights).  The uniform rule trades moment
        exactness for a controlled aliasing period, which the long pipeline
        runs need.
    n_default : node count used when callers do not override.
    cutoff : truncation radius in line widths for rules that need one.
    """

    raman_kind: str = GAUSSIAN
    raman_width: float = 1.0
    optical_kind: str = NONE
    optical_width: float = 0.0
    rule: str = "gauss"
    n_default: int = 64
    cutoff: float = 0.0   # 0 -> shape default

    def __post_init__(self) -> None:
        if self.raman_kind not in (_SPECTRAL_KINDS + (GRADIENT,)):
            raise ConfigError(f"unknown raman_kind {self.raman_kind!r}")
        if self.optical_kind not in (_SPECTRAL_KINDS + (NONE,)):
            raise ConfigError(f"unknown optical_kind {self.optical_kind!r}")
        if self.rule not in ("gauss", "uniform"):
            raise ConfigError(f"unknown quadrature rule {self.rule!r}")
        for name in ("raman_width", "optical_width", "cutoff"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got "
                                  f"{getattr(self, name)}")
        if self.raman_kind != GRADIENT and self.raman_width < 0:
            raise ConfigError("raman_width must be nonnegative")
        if self.optical_width < 0:
            raise ConfigError("optical_width must be nonnegative")
        if not isinstance(self.n_default, (int, np.integer)):
            raise ConfigError(f"n_default must be an integer, got "
                              f"{self.n_default!r}")
        if self.n_default < 1:
            raise ConfigError("n_default must be >= 1")

    @property
    def is_gradient(self) -> bool:
        return self.raman_kind == GRADIENT

    @property
    def chi(self) -> float:
        if not self.is_gradient:
            raise DomainError("chi only defined for the gradient variant")
        return self.raman_width

    def replace(self, **kw) -> "BroadeningSpec":
        return dataclasses.replace(self, **kw)


def gaussian_shape(width: float, **kw) -> BroadeningSpec:
    return BroadeningSpec(raman_kind=GAUSSIAN, raman_width=width, **kw)


def lorentzian_shape(width: float, **kw) -> BroadeningSpec:
    return BroadeningSpec(raman_kind=LORENTZIAN, raman_width=width, **kw)


def gradient_shape(chi: float, **kw) -> BroadeningSpec:
    return BroadeningSpec(raman_kind=GRADIENT, raman_width=chi, **kw)


def _trapezoid_weights(x: np.ndarray) -> np.ndarray:
    w = np.zeros_like(x)
    dx = np.diff(x)
    w[:-1] += 0.5 * dx
    w[1:] += 0.5 * dx
    return w


def quadrature_nodes(spec: BroadeningSpec, n: int | None = None,
                     line: str = "raman"):
    """Node/weight rule for one of the two broadening distributions.

    Returns (nodes, weights) with weights > 0 summing to 1.  Symmetric
    shapes get symmetric nodes.  The gradient variant has no spectral
    measure to discretise.
    """
    if n is None:
        n = spec.n_default
    if n < 1:
        raise DomainError(f"node count must be >= 1, got {n}")
    if line == "raman":
        kind, width = spec.raman_kind, spec.raman_width
        if spec.is_gradient:
            raise DomainError("no spectral quadrature for delta distribution")
    elif line == "optical":
        kind, width = spec.optical_kind, spec.optical_width
    else:
        raise DomainError(f"line must be 'raman' or 'optical', got {line!r}")
    if kind == NONE or width == 0.0 or n == 1:
        return np.array([0.0]), np.array([1.0])
    gaussian = kind == GAUSSIAN
    if spec.rule == "uniform":
        cutoff = spec.cutoff or (GAUSSIAN_CUTOFF if gaussian
                                 else LORENTZIAN_CUTOFF)
        nodes = np.linspace(-cutoff * width, cutoff * width, n)
        x = nodes / width
        dens = np.exp(-0.5 * x ** 2) if gaussian else 1.0 / (1.0 + x ** 2)
        weights = dens * _trapezoid_weights(nodes)
    elif gaussian:
        # Hermite rule: integrates exp(-t^2); our density has sigma = width
        t, w = np.polynomial.hermite.hermgauss(n)
        nodes = t * math.sqrt(2.0) * width
        weights = w / math.sqrt(math.pi)
    else:
        # substitute x = width*tan(theta): the Lorentzian density becomes the
        # flat density 1/pi on theta, so Gauss-Legendre in theta is exact for
        # smooth integrands of theta
        theta_max = math.atan(spec.cutoff or LORENTZIAN_CUTOFF)
        t, w = np.polynomial.legendre.leggauss(n)
        nodes = width * np.tan(t * theta_max)
        weights = w * theta_max / math.pi
    return nodes, weights / weights.sum()


# ===================== detuning bookkeeping =====================

def stark_shifted_detuning(params: PhysicalParams, delta_raw: float,
                           stage: int = 1, inverse: bool = False) -> float:
    """Map between a bare two-photon detuning and its light-shifted value.

    Forward: returns delta_raw - omega^2/delta0 for the requested stage.
    inverse=True applies the opposite shift, making the pair an exact
    bijection.
    """
    d0 = params.delta0(stage)
    if d0 == 0:
        raise DomainError("zero optical detuning has no light-shift map")
    shift = params.omega(stage) ** 2 / d0
    return delta_raw + shift if inverse else delta_raw - shift


def is_off_resonant(params: PhysicalParams, broadening: BroadeningSpec,
                    stage: int = 1) -> bool:
    """Whether the single-stage reduced (adiabatic) description applies:
    the optical detuning must exceed both the Rabi frequency and every
    broadening width."""
    widths = [broadening.optical_width]
    if broadening.is_gradient:
        widths.append(abs(broadening.chi) * params.medium_length / 2)
    else:
        widths.append(broadening.raman_width)
    return abs(params.delta0(stage)) > max(params.omega(stage), *widths)


# ===================== field envelopes =====================

@dataclass(frozen=True)
class FieldEnvelope:
    """Complex slowly-varying amplitude sampled along one axis at one z."""

    samples: np.ndarray
    axis: np.ndarray
    z: float = 0.0
    direction: str = "forward"
    kind: str = "time"            # "time" | "freq"

    def __post_init__(self) -> None:
        if self.direction not in ("forward", "backward"):
            raise DomainError(f"direction must be forward/backward, got "
                              f"{self.direction!r}")
        if self.kind not in ("time", "freq"):
            raise DomainError(f"kind must be time/freq, got {self.kind!r}")
        if not np.all(np.isfinite(self.samples)):
            raise DomainError("field samples must be finite")

    def energy(self) -> float:
        return float(np.trapezoid(np.abs(self.samples) ** 2, self.axis))

    def at(self, points) -> np.ndarray:
        """Samples interpolated linearly at points, zero outside the axis."""
        return (np.interp(points, self.axis, self.samples.real, left=0.0,
                          right=0.0)
                + 1j * np.interp(points, self.axis, self.samples.imag,
                                 left=0.0, right=0.0))


# ===================== flat key=value configuration =====================

_PARAM_FIELDS = {f.name for f in dataclasses.fields(PhysicalParams)}
# BroadeningSpec's configuration keys and the types their values take
BROADENING_KEYS = {
    "raman_kind": str, "raman_width": float,
    "optical_kind": str, "optical_width": float,
    "rule": str, "n_default": int, "cutoff": float,
}


def load_config(path) -> dict:
    """Parse a flat `key = value` file; '#' starts a comment."""
    values: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{ln}: expected 'key = value', "
                                  f"got {raw.strip()!r}")
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    return values


def _coerce(key: str, raw: str, typ):
    try:
        if typ is float:
            return float(raw)
        if typ is int:
            return int(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: cannot parse {raw!r}") from exc


def params_from_config(cfg: dict, **overrides) -> PhysicalParams:
    kw = {}
    for key, raw in cfg.items():
        if key in _PARAM_FIELDS:
            kw[key] = _coerce(key, raw, float) if isinstance(raw, str) else raw
        elif key not in BROADENING_KEYS:
            raise ConfigError(f"unknown configuration key {key!r}")
    kw.update(overrides)
    return PhysicalParams.make(**kw)


def broadening_from_config(cfg: dict, **overrides) -> BroadeningSpec:
    kw = {}
    for key, raw in cfg.items():
        if key in BROADENING_KEYS:
            typ = BROADENING_KEYS[key]
            kw[key] = _coerce(key, raw, typ) if isinstance(raw, str) else raw
        elif key not in _PARAM_FIELDS:
            raise ConfigError(f"unknown configuration key {key!r}")
    kw.update(overrides)
    return BroadeningSpec(**kw)
