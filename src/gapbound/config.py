"""Centralized tolerance configuration.

Every numeric tolerance used by the toolkit lives here so reports can echo
the exact record they were produced under.
"""

import math
import sys
from dataclasses import asdict, dataclass, field, fields, replace


_JSON_TYPES = {"object": dict, "list": list, "string": str, "integer": int,
               "number": (int, float)}


def _problem(value, kind):
    """None if ``value`` is a JSON ``kind``, else what it must be: the one
    rule for spec fields and tolerances. `json` also reads NaN, Infinity
    and integers beyond the float range as numbers, which would switch a
    check off; a number must be finite."""
    if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[kind]):
        return f"a JSON {kind}"
    if kind == "number" and not abs(value) <= sys.float_info.max:
        return "finite"
    return None


def _bar(default, lower=0.0):
    """A tolerance field: its default and the least value it may take."""
    return field(default=default, metadata={"lower": lower})


@dataclass(frozen=True)
class ToleranceConfig:
    """Every field is a finite number >= 0, but the decay margin may take any
    sign: a negative bar would fail exact input or switch its check off."""

    # spectrum certificates
    spectrum_residual: float = _bar(1e-10)   # * max(1, |lambda_max|)
    orthonormality: float = _bar(1e-10)
    recurrence: float = _bar(1e-9)           # componentwise eigen-recurrence
    rayleigh: float = _bar(1e-9)             # Rayleigh quotient vs lambda_1
    # moduli
    tie_factor: float = _bar(1e-9)           # * max(1, eta(D)) for achiever ties
    denominator_zero: float = _bar(1e-12)    # skip threshold in the ratio constant
    concavity_slack: float = _bar(1e-10)     # log-concavity predicate slack
    # bound verification
    verify_factor: float = _bar(1e-9)        # * max(1, gap) for slack checks
    # heat equation: fitted rate >= mu - margin (< 0: a rate above mu)
    decay_margin: float = _bar(1e-6, lower=-math.inf)
    ratio_identity: float = _bar(1e-8)       # stationary ratio-evolution identity

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            problem = _problem(value, "number")
            if problem:
                raise ValueError(f"tolerance {f.name} must be {problem}, "
                                 f"got {value!r}")
            if value < f.metadata["lower"]:
                raise ValueError(f"tolerance {f.name} must be >= "
                                 f"{f.metadata['lower']:g}, got {value!r}")

    def with_overrides(self, **kwargs) -> "ToleranceConfig":
        unknown = set(kwargs) - set(asdict(self))
        if unknown:
            raise ValueError(f"unknown tolerance fields: {sorted(unknown)}")
        return replace(self, **kwargs)

    def as_dict(self) -> dict:
        return asdict(self)


DEFAULT_TOL = ToleranceConfig()
