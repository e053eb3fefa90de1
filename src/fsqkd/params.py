"""Protocol and physical-link parameters.

Defaults reproduce the daylight 1.6-km link conditions the simulator is
calibrated against: 1-MHz pulse clock, mean system efficiency 0.13 with
turbulence spread 0.04, a 5-ns coincidence gate with 6.7e-4 background
firing probability across both detectors, 1400-cps dark counts per
detector, and 1.9% polarization misalignment.

The mean photon number lies in [0, 10]: above 1 no key survives privacy
amplification, and the channel's per-gate click draws grow with it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass

# Above nbar 1 the privacy-amplification fraction (1 - nbar) leaves no key;
# the ceiling leaves room for bright-pulse channel studies while bounding
# the per-gate click tables and flip draws, which grow linearly in nbar.
MAX_MEAN_PHOTON_NUMBER = 10.0


@dataclass(frozen=True)
class ProtocolParams:
    """All physical and protocol constants of one key-generation session."""

    clock_rate_hz: float = 1_000_000.0
    mean_photon_number: float = 0.35
    eta_q: float = 0.25
    eta_system_mean: float = 0.13
    eta_system_sigma: float = 0.04
    gate_width_s: float = 5e-9
    background_prob_per_gate: float = 6.7e-4
    dark_count_rate_hz: float = 1400.0
    optical_error_prob: float = 0.019
    rng_seed: int = 19990813

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if self.clock_rate_hz <= 0:
            raise ValueError("clock_rate_hz must be positive")
        # mean photon number 0 is allowed so background-only runs can be
        # configured; the dim-pulse source itself always runs with nbar > 0.
        if self.mean_photon_number < 0:
            raise ValueError("mean_photon_number must be non-negative")
        if self.mean_photon_number > MAX_MEAN_PHOTON_NUMBER:
            raise ValueError(f"mean_photon_number must be at most {MAX_MEAN_PHOTON_NUMBER:g}")
        if not 0.0 <= self.eta_q <= 1.0:
            raise ValueError("eta_q must lie in [0, 1]")
        if not 0.0 < self.eta_system_mean <= 1.0:
            raise ValueError("eta_system_mean must lie in (0, 1]")
        if self.eta_system_sigma < 0:
            raise ValueError("eta_system_sigma must be non-negative")
        if self.gate_width_s < 0:
            raise ValueError("gate_width_s must be non-negative")
        if not 0.0 <= self.background_prob_per_gate <= 1.0:
            raise ValueError("background_prob_per_gate must lie in [0, 1]")
        if self.dark_count_rate_hz < 0:
            raise ValueError("dark_count_rate_hz must be non-negative")
        if self.background_prob_per_gate / 2.0 + self.dark_prob_per_gate > 1.0:
            raise ValueError("per-detector noise probability "
                             "(background_prob_per_gate / 2 + dark) exceeds 1")
        if not 0.0 <= self.optical_error_prob <= 1.0:
            raise ValueError("optical_error_prob must lie in [0, 1]")
        # the seed crosses the wire as an unsigned 64-bit field
        if not 0 <= self.rng_seed < 2**64:
            raise ValueError("rng_seed must lie in [0, 2**64)")

    @property
    def dark_prob_per_gate(self) -> float:
        """Per-detector dark-count probability inside one coincidence gate."""
        return self.dark_count_rate_hz * self.gate_width_s

    def replace(self, **changes) -> "ProtocolParams":
        return dataclasses.replace(self, **changes)

    def as_dict(self) -> dict:
        # every field is a number: ``dataclasses.asdict`` would deep-copy each
        return dict(vars(self))

    def digest(self) -> bytes:
        """16-byte fingerprint used to cross-check peer configuration."""
        fields = self.as_dict()
        canon = ";".join(
            f"{name}={fields[name]!r}" for name in sorted(fields) if name != "rng_seed"
        )
        return hashlib.blake2s(canon.encode("utf-8"), digest_size=16).digest()
