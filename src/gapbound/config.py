"""Centralized tolerance configuration.

Every numeric tolerance used by the toolkit lives here so reports can echo
the exact record they were produced under.
"""

import sys
from dataclasses import asdict, dataclass, replace


@dataclass(frozen=True)
class ToleranceConfig:
    # spectrum certificates
    spectrum_residual: float = 1e-10     # * max(1, |lambda_max|)
    orthonormality: float = 1e-10
    recurrence: float = 1e-9             # componentwise eigen-recurrence
    rayleigh: float = 1e-9               # Rayleigh quotient vs lambda_1
    # moduli
    tie_factor: float = 1e-9             # * max(1, eta(D)) for achiever ties
    denominator_zero: float = 1e-12      # skip threshold in the ratio constant
    concavity_slack: float = 1e-10       # log-concavity predicate slack
    # bound verification
    verify_factor: float = 1e-9          # * max(1, gap) for slack checks
    # heat equation
    decay_margin: float = 1e-6           # fitted rate >= mu - margin
    ratio_identity: float = 1e-8         # stationary ratio-evolution identity

    def with_overrides(self, **kwargs) -> "ToleranceConfig":
        unknown = set(kwargs) - set(asdict(self))
        if unknown:
            raise ValueError(f"unknown tolerance fields: {sorted(unknown)}")
        for key, value in kwargs.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"tolerance {key} must be a number, "
                                 f"got {value!r}")
            # json reads NaN, Infinity and integers beyond the float range,
            # which would switch a check off
            if not abs(value) <= sys.float_info.max:
                raise ValueError(f"tolerance {key} must be finite, "
                                 f"got {value!r}")
        return replace(self, **kwargs)

    def as_dict(self) -> dict:
        return asdict(self)


DEFAULT_TOL = ToleranceConfig()
