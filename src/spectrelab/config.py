"""Victim configuration files: flat ``key = value`` text with sections,
parsed with the stdlib configparser.  Every key maps 1:1 onto a
VictimConfig field; unknown keys are configuration errors so typos fail
loudly at startup, and so is every value that does not parse (named by
its section and key), a negative ``public_zero_bytes``, an empty secret,
and a ``base_ns`` or ``sigma_ns`` that is negative or not finite.

In [latency], a named ``preset`` (local, cloud, arm, noiseless) fixes
sigma, and ``sigma_ns`` is read only when there is no preset.

Example::

    [victim]
    secret = d
    public_zero_bytes = 16
    clock_mode = virtual

    [latency]
    preset = local

    [mitigation]
    barrier = false
    noise_sigma_ns = 0
"""

from __future__ import annotations

import configparser
import math
from typing import Optional

from .uarch import SecretStore
from .victim import ConfigError, VictimConfig
from .wire import LatencyModel, PRESETS


# section -> key -> (VictimConfig field, parser), in the order dump_config
# writes them; the keys in _BUILT_KEYS have builders of their own
_KEYS = {
    "victim": {key: (key, parse) for key, parse in (
        ("valid_aslr_offset", int), ("aslr_space_bits", int),
        ("value_secret", int), ("value_bits", int), ("clock_mode", str))},
    "timing": {key: (key, parse) for key, parse in (
        ("cycle_time_ns", float), ("hit_cycles", int), ("miss_cycles", int),
        ("warm_cycles", int), ("max_penalty_cycles", int),
        ("decay_start_ns", float), ("decay_end_ns", float),
        ("thrash_lambda", float), ("handler_cycles", int),
        ("per_request_ns", float))},
    "mitigation": {"barrier": ("mitigation_barrier", lambda raw: configparser
                               .ConfigParser.BOOLEAN_STATES[raw.lower()]),
                   "noise_sigma_ns": ("mitigation_noise_sigma_ns", float)},
    "latency": {},
}
_BUILT_KEYS = {"victim": ("secret", "secret_hex", "public_zero_bytes"),
               "latency": ("preset", "base_ns", "sigma_ns", "distribution")}


def _finite(raw: str) -> float:
    value = float(raw)
    if not 0 <= value < math.inf:
        raise ValueError("must be finite and >= 0")
    return value


def _get(section, key: str, parse, fallback=None):
    """``parse(section[key])``, or ``fallback`` if the key is absent."""
    if key not in section:
        return fallback
    try:
        return parse(section[key])
    except (KeyError, ValueError) as err:     # every unparsable value
        raise ConfigError(
            f"bad value for [{section.name}] {key}: {err}") from None


def _build_secrets(section) -> SecretStore:
    public_zeros = _get(section, "public_zero_bytes", int, 16)
    if public_zeros < 0:
        raise ConfigError(f"public_zero_bytes is negative: {public_zeros}")
    secret = _get(section, "secret_hex", bytes.fromhex,
                  section.get("secret", fallback="d").encode())
    if not secret:
        raise ConfigError("the secret is empty")
    return SecretStore.with_secret(b"\x00" * public_zeros, secret)


def _build_latency(section) -> LatencyModel:
    base_ns = _get(section, "base_ns", _finite, 10_000.0)
    distribution = _get(section, "distribution", lambda raw: LatencyModel(
        distribution=raw).distribution, "gaussian")
    if "preset" not in section:
        sigma = _get(section, "sigma_ns", _finite, 15_600.0)
        return LatencyModel(base_ns, sigma, "custom", distribution)
    return _get(section, "preset", lambda name: LatencyModel.preset(
        name, base_ns, distribution))


def load_config(path: str,
                latency: Optional[LatencyModel] = None) -> VictimConfig:
    """Read a config file; ``latency`` fills in a missing [latency] section."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    cfg = VictimConfig()

    extra = set(parser.sections()) - set(_KEYS)
    if extra:
        raise ConfigError(f"unknown config sections: {sorted(extra)}")

    for name, keys in _KEYS.items():
        section = parser[name] if parser.has_section(name) else {}
        for key in section:
            if key in keys:
                field, parse = keys[key]
                setattr(cfg, field, _get(section, key, parse))
            elif key not in _BUILT_KEYS.get(name, ()):
                raise ConfigError(f"unknown key [{name}] {key}")
    if parser.has_section("victim"):
        cfg.secrets = _build_secrets(parser["victim"])

    if parser.has_section("latency"):
        cfg.latency = _build_latency(parser["latency"])
    elif latency is not None:
        cfg.latency = latency

    cfg.validate()
    return cfg


def dump_config(cfg: VictimConfig) -> str:
    """Render the effective configuration in the same text format."""
    zeros = cfg.secrets.bitstream_length // 8
    lat = cfg.latency       # named only if loading the name gives it back
    named = lat.name in PRESETS and lat == (
        LatencyModel.preset(lat.name, lat.base_ns, lat.distribution))
    sections = {name: [(key, getattr(cfg, field))
                       for key, (field, _) in keys.items()]
                for name, keys in _KEYS.items()}
    sections["victim"][:0] = [("public_zero_bytes", zeros),
                              ("secret_hex", cfg.secrets.bitstream[zeros:].hex())]
    sections["latency"] = [("preset", lat.name)] * named + [
        ("base_ns", lat.base_ns), ("sigma_ns", lat.sigma_ns),
        ("distribution", lat.distribution)]
    return "\n".join(f"[{name}]\n" + "".join(
        f"{key} = {str(value).lower() if type(value) is bool else value}\n"
        for key, value in pairs) for name, pairs in sections.items())
