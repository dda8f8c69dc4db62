"""Victim configuration files: flat ``key = value`` text with sections,
parsed with the stdlib configparser.  Every key maps 1:1 onto a
VictimConfig field; unknown keys are configuration errors so typos fail
loudly at startup.

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
from typing import Optional

from . import uarch
from .uarch import SecretStore
from .victim import ConfigError, VictimConfig
from .wire import LatencyModel, PRESET_SIGMAS_NS

_VICTIM_KEYS = {
    "valid_aslr_offset": int,
    "aslr_space_bits": int,
    "value_secret": int,
    "value_bits": int,
    "clock_mode": str,
}
_TIMING_KEYS = {
    "cycle_time_ns": float,
    "hit_cycles": int,
    "miss_cycles": int,
    "warm_cycles": int,
    "max_penalty_cycles": int,
    "decay_start_ns": float,
    "decay_end_ns": float,
    "thrash_lambda": float,
    "handler_cycles": int,
    "per_request_ns": float,
}


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {raw!r}")


def _build_secrets(section) -> SecretStore:
    public_zeros = section.getint("public_zero_bytes", fallback=16)
    if "secret_hex" in section:
        secret = bytes.fromhex(section["secret_hex"])
    else:
        secret = section.get("secret", fallback="d").encode()
    return SecretStore.with_secret(b"\x00" * public_zeros, secret)


def _build_latency(section) -> LatencyModel:
    preset = section.get("preset", fallback=None)
    distribution = section.get("distribution", fallback="gaussian")
    base_ns = section.getfloat("base_ns", fallback=10_000.0)
    if preset is not None and preset != "noiseless":
        if preset not in PRESET_SIGMAS_NS:
            raise ConfigError(f"unknown latency preset {preset!r}")
        return LatencyModel.preset(preset, base_ns=base_ns,
                                   distribution=distribution)
    sigma = section.getfloat("sigma_ns",
                             fallback=0.0 if preset == "noiseless" else 15_600.0)
    name = preset or "custom"
    return LatencyModel(base_ns=base_ns, sigma_ns=sigma, name=name,
                        distribution=distribution)


def load_config(path: str,
                latency: Optional[LatencyModel] = None) -> VictimConfig:
    """Read a config file; ``latency`` fills in a missing [latency] section."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    cfg = VictimConfig()

    known_sections = {"victim", "timing", "latency", "mitigation"}
    extra = set(parser.sections()) - known_sections
    if extra:
        raise ConfigError(f"unknown config sections: {sorted(extra)}")

    if parser.has_section("victim"):
        section = parser["victim"]
        for key in section:
            if key in ("secret", "secret_hex", "public_zero_bytes"):
                continue
            if key not in _VICTIM_KEYS:
                raise ConfigError(f"unknown key [victim] {key}")
            setattr(cfg, key, _VICTIM_KEYS[key](section[key]))
        cfg.secrets = _build_secrets(section)

    if parser.has_section("timing"):
        section = parser["timing"]
        for key in section:
            if key not in _TIMING_KEYS:
                raise ConfigError(f"unknown key [timing] {key}")
            setattr(cfg, key, _TIMING_KEYS[key](section[key]))

    if parser.has_section("mitigation"):
        section = parser["mitigation"]
        for key in section:
            if key == "barrier":
                cfg.mitigation_barrier = _parse_bool(section[key])
            elif key == "noise_sigma_ns":
                cfg.mitigation_noise_sigma_ns = float(section[key])
            else:
                raise ConfigError(f"unknown key [mitigation] {key}")

    if parser.has_section("latency"):
        cfg.latency = _build_latency(parser["latency"])
    elif latency is not None:
        cfg.latency = latency

    cfg.validate()
    return cfg


def dump_config(cfg: VictimConfig) -> str:
    """Render the effective configuration in the same text format."""
    secret_bytes = cfg.secrets.bitstream[cfg.secrets.bitstream_length // 8:]
    lines = [
        "[victim]",
        f"public_zero_bytes = {cfg.secrets.bitstream_length // 8}",
        f"secret_hex = {secret_bytes.hex()}",
        f"valid_aslr_offset = {cfg.valid_aslr_offset}",
        f"aslr_space_bits = {cfg.aslr_space_bits}",
        f"value_secret = {cfg.value_secret}",
        f"value_bits = {cfg.value_bits}",
        f"clock_mode = {cfg.clock_mode}",
        "",
        "[timing]",
    ]
    for key in _TIMING_KEYS:
        lines.append(f"{key} = {getattr(cfg, key)}")
    lat = cfg.latency       # named only if loading the name gives it back
    named = lat.name in (*PRESET_SIGMAS_NS, "noiseless") and lat == (
        LatencyModel.preset(lat.name, lat.base_ns, lat.distribution))
    lines += [
        "",
        "[mitigation]",
        f"barrier = {str(cfg.mitigation_barrier).lower()}",
        f"noise_sigma_ns = {cfg.mitigation_noise_sigma_ns}",
        "",
        "[latency]",
        *([f"preset = {lat.name}"] if named else []),
        f"base_ns = {lat.base_ns}",
        f"sigma_ns = {lat.sigma_ns}",
        f"distribution = {lat.distribution}",
        "",
    ]
    return "\n".join(lines)
