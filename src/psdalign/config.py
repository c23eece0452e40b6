"""YAML experiment-configuration files.

The file is a nested key-value document; sections group the physical setup,
the pilot scheme, the contamination model, and the run controls. Every field
has a default matching the shipped scenario, so `{}` is a valid config.
"""

import math
import numbers
from dataclasses import asdict, dataclass

import yaml


class ConfigError(ValueError):
    """Malformed configuration, with a field-path diagnostic."""


# fields given as lists in YAML and JSON, held as tuples so configs hash and compare
_TUPLE_FIELDS = ("shifts", "sweep_lengths", "contamination_band")
# integer fields and their least values
_INT_MINIMA = {
    "sampling_divisor": 1,
    "users": 1,
    "observation_length": 2,
    "antennas": 1,
    "trials": 1,
    "dl_lag": 0,
    "seed": 0,
    "jobs": 1,
}


def _is_int(value):
    # YAML reads `true` as a bool, which Python counts as an int
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_finite(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


@dataclass(frozen=True)
class ExperimentConfig:
    """Sounding-experiment description; defaults follow the shipped scenario.

    Frequencies: the channel is sampled once every `sampling_divisor` symbols,
    so f_s = 1/(sampling_divisor * T_s); with T_s = 66.67 us that is 5 kHz and
    the normalized Doppler is F = doppler_hz / f_s.
    """

    symbol_duration_s: float = 66.67e-6
    sampling_divisor: int = 3
    doppler_hz: float = 10.0
    users: int = 8
    user_power_db: float = 0.0
    pilot_snr_db: float = 0.0
    scheme: str = "psd_align"  # "psd_align" | "hadamard"
    shifts: object = "preset"  # "preset" | "auto" | sequence of cycles (tau/P)
    contamination_band: tuple | None = (-0.375, 0.375)
    contamination_inr_db: float | None = 0.0
    observation_length: int = 4096
    sweep_lengths: tuple = (512, 1024, 2048, 4096)
    antennas: int = 16
    trials: int = 200
    dl_lag: int = 1
    dl_snr_db: float | None = None
    perfect_csi: bool = False
    channel_model: str = "circulant"  # "circulant" | "exact"
    seed: int = 20260810
    jobs: int = 1
    tolerance_scale: float = 1.0

    def __post_init__(self):
        for name, least in _INT_MINIMA.items():
            value = getattr(self, name)
            if not (_is_int(value) and value >= least):
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        if not all(_is_int(P) and P >= 2 for P in self.sweep_lengths):
            raise ValueError(f"sweep_lengths must be integers >= 2, got {self.sweep_lengths!r}")
        for name in ("symbol_duration_s", "doppler_hz", "tolerance_scale"):
            value = getattr(self, name)
            if not (_is_finite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        for name in ("user_power_db", "pilot_snr_db", "contamination_inr_db", "dl_snr_db"):
            value = getattr(self, name)
            nullable = name in ("contamination_inr_db", "dl_snr_db")
            if not (_is_finite(value) or (nullable and value is None)):
                raise ValueError(f"{name} must be a finite number{' or null' if nullable else ''}, got {value!r}")
        if not isinstance(self.perfect_csi, bool):
            raise ValueError(f"perfect_csi must be true or false, got {self.perfect_csi!r}")
        if self.scheme not in ("psd_align", "hadamard"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        # one Hadamard user would sound a one-slot window, shorter than build_covariance takes
        if self.scheme == "hadamard" and (self.users < 2 or self.users & (self.users - 1)):
            raise ValueError(f"Hadamard pilots need a power-of-2 user count of 2 or more, got {self.users}")
        if self.channel_model not in ("circulant", "exact"):
            raise ValueError(f"unknown channel model {self.channel_model!r}")
        if self.max_doppler > 0.5:
            raise ValueError(f"normalized Doppler {self.max_doppler:.4f} exceeds 1/2; raise the sampling frequency")
        if isinstance(self.shifts, str):
            if self.shifts not in ("preset", "auto"):
                raise ValueError("shifts must be 'preset', 'auto', or a sequence of cycles")
        elif len(self.shifts) != self.users:
            raise ValueError("per-user shift list length must equal the user count")
        elif not all(_is_finite(c) for c in self.shifts):
            raise ValueError(f"per-user shifts must be finite numbers of cycles, got {self.shifts!r}")
        if self.contamination_band is not None:
            lo, hi = self.contamination_band
            if not (-0.5 <= lo < hi <= 0.5):
                raise ValueError("contamination band must lie in (-1/2, 1/2]")

    @property
    def sampling_frequency_hz(self):
        return 1.0 / (self.sampling_divisor * self.symbol_duration_s)

    @property
    def max_doppler(self):
        return self.doppler_hz / self.sampling_frequency_hz

    @property
    def user_power(self):
        return 10.0 ** (self.user_power_db / 10.0)

    @property
    def noise_var(self):
        return self.user_power / 10.0 ** (self.pilot_snr_db / 10.0)

    @property
    def contamination_power(self):
        if self.contamination_band is None or self.contamination_inr_db is None:
            return 0.0
        return self.user_power * 10.0 ** (self.contamination_inr_db / 10.0)

    def to_dict(self):
        d = asdict(self)
        for key in _TUPLE_FIELDS:
            if isinstance(d[key], tuple):
                d[key] = list(d[key])
        return d

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        for key in _TUPLE_FIELDS:
            if isinstance(d.get(key), list):
                d[key] = tuple(d[key])
        return cls(**d)


_SECTIONS = {
    "system": {
        "symbol_duration_s": "symbol_duration_s",
        "sampling_divisor": "sampling_divisor",
    },
    "users": {
        "count": "users",
        "doppler_hz": "doppler_hz",
        "power_db": "user_power_db",
    },
    "pilots": {
        "scheme": "scheme",
        "shifts": "shifts",
    },
    "contamination": {
        "band": "contamination_band",
        "inr_db": "contamination_inr_db",
    },
    "noise": {
        "pilot_snr_db": "pilot_snr_db",
    },
    "run": {
        "observation_length": "observation_length",
        "sweep_lengths": "sweep_lengths",
        "antennas": "antennas",
        "trials": "trials",
        "dl_lag": "dl_lag",
        "dl_snr_db": "dl_snr_db",
        "perfect_csi": "perfect_csi",
        "channel_model": "channel_model",
        "seed": "seed",
        "jobs": "jobs",
        "tolerance_scale": "tolerance_scale",
    },
}


def config_from_mapping(doc):
    """Build an ExperimentConfig from a nested mapping; {} gives the defaults."""
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigError(f"config root must be a mapping, got {type(doc).__name__}")
    kwargs = {}
    known = set(_SECTIONS)
    for section, body in doc.items():
        if section not in known:
            raise ConfigError(f"unknown section {section!r} (expected one of {sorted(known)})")
        if body is None:
            continue
        if not isinstance(body, dict):
            raise ConfigError(f"section {section!r} must be a mapping")
        fields = _SECTIONS[section]
        for key, value in body.items():
            if key not in fields:
                raise ConfigError(
                    f"unknown key {section}.{key} (expected one of {sorted(fields)})"
                )
            kwargs[fields[key]] = value
    try:
        return ExperimentConfig.from_dict(kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc


def config_to_mapping(config):
    """Nested mapping mirror of a config (round-trips through config_from_mapping)."""
    flat = config.to_dict()
    doc = {}
    for section, fields in _SECTIONS.items():
        body = {key: flat[name] for key, name in fields.items()}
        doc[section] = body
    return doc


def load_config(path):
    """Parse a YAML config file; raises ConfigError with diagnostics."""
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}")
    return config_from_mapping(doc)


def dump_config(config):
    """YAML text for a config."""
    return yaml.safe_dump(config_to_mapping(config), sort_keys=False)
