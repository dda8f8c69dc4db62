"""Operator surface: run a victim service, run extractions against it,
and regenerate the standard experiment datasets.

Exit codes are a stable scripting contract:
    0  success
    2  configuration error (bad flags, bad config file, a port outside
       [0, 65535], a local file that cannot be opened or written)
    3  target unreachable, or it sent a reply the protocol does not allow
    4  extraction finished with low confidence or failed calibration

Seeds come from --seed or the NETSPECTRE_LAB_SEED environment variable;
with a fixed seed, a virtual-clock loopback run writes byte-identical
outputs every time.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

import numpy as np

from . import attacker, config as config_mod, figures, stats, wire
from .attacker import CalibrationError, ExtractionError, ExtractionPlan, Session
from .victim import Victim, VictimConfig
from .wire import LatencyModel, UDPTransport, WireError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_UNREACHABLE = 3
EXIT_LOW_CONFIDENCE = 4

_SAMPLE_DUMP_CAP = 10_000   # per-bit sample CSVs stay a sane size


def _resolve_seed(value) -> int:
    if value is not None:
        return int(value)
    env = os.environ.get("NETSPECTRE_LAB_SEED")
    return int(env) if env else 0


def _make_victim_config(args) -> VictimConfig:
    """The --config file's settings, or the defaults, with the latency of
    --preset, else of the file's [latency] section, else of the local
    preset."""
    latency = LatencyModel.preset(args.preset or "local")
    cfg = (config_mod.load_config(args.config, latency=latency) if args.config
           else VictimConfig(latency=latency))
    if args.preset:
        cfg.latency = latency
    return cfg


def _port(text: str) -> int:
    """A UDP port number, refused outside [0, 65535]."""
    port = int(text)
    if not 0 <= port <= 0xFFFF:
        raise argparse.ArgumentTypeError(f"port {port} outside [0, 65535]")
    return port


def _target(text: str):
    """'loopback', or the (host, port) of host[:port]."""
    if text == "loopback":
        return text
    host, _, port = text.partition(":")
    return host, _port(port) if port else wire.DEFAULT_PORT


@contextlib.contextmanager
def _open_target(args, cfg: VictimConfig, seed: int):
    """Yield (session, victim-or-None).  'loopback' builds an in-process
    victim; anything else is a (host, port) over UDP, whose socket is
    closed on the way out, on success or error."""
    if args.target == "loopback":
        session = attacker.loopback_session(cfg, seed)
        yield session, session.transport.victim
        return
    with contextlib.closing(UDPTransport(*args.target)) as transport:
        session = Session(transport)
        # fail fast if nobody is listening
        session.request(wire.OP_RESET)
        yield session, None


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_victim(args) -> int:
    cfg = config_mod.load_config(args.config) if args.config else VictimConfig()
    if args.clock:
        cfg.clock_mode = args.clock
    cfg.validate()
    seed = _resolve_seed(args.seed)
    victim = Victim(cfg, seed=seed, log_path=args.log)

    def listening(address) -> None:
        print(f"listening on udp port {address[1]} (clock={cfg.clock_mode})")
        print(config_mod.dump_config(cfg), flush=True)

    victim.serve_udp(port=args.port, on_bound=listening)
    return EXIT_OK


def cmd_leak(args) -> int:
    cfg = _make_victim_config(args)
    # every flag is checked before a UDP target is contacted
    if args.start_bit is not None:
        start = args.start_bit
    elif args.target == "loopback":
        start = cfg.secrets.bitstream_length
    else:
        print("error: --start-bit is required for UDP targets",
              file=sys.stderr)
        return EXIT_CONFIG
    if not (0 <= start and start + args.bits <= 1 << 64):  # a 64-bit arg
        raise ValueError("--start-bit must be at least 0, its range below 2^64")
    if args.bits < 1:
        raise ValueError("--bits must be at least 1")
    plan = ExtractionPlan(channel=args.channel,
                          measurements_per_bit=args.n,
                          target_bit_range=(start, start + args.bits))
    plan.validate()
    seed = _resolve_seed(args.seed)
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)

    def sink(pos: int, rtts: np.ndarray) -> None:
        hist = stats.histogram(rtts, plan.histogram)
        stats.write_histogram_csv(
            os.path.join(out_dir, f"bit_{pos:02d}_hist.csv"), hist)
        stats.write_samples_csv(
            os.path.join(out_dir, f"bit_{pos:02d}_samples.csv"),
            rtts[:_SAMPLE_DUMP_CAP], phase="leak")

    with _open_target(args, cfg, seed) as (session, victim):
        calib = attacker.calibrate(session, plan)
        result = attacker.leak_range(session, plan, calib, sample_sink=sink)

    bitstring = "".join(str(b) for b in result.bits)
    lines = [
        f"channel: {args.channel}",
        f"preset: {cfg.latency.name}",
        f"measurements_per_bit: {args.n}",
        f"bits: {bitstring}",
        f"data_hex: {result.data.hex()}",
        f"requests_total: {result.requests_total}",
        f"requests_per_bit: {result.requests_per_bit:.1f}",
        f"projected_seconds_per_bit: {result.projected_seconds_per_bit:.3f}",
        f"projected_bits_per_hour: {result.projected_bits_per_hour:.1f}",
        f"projected_seconds_per_byte: "
        f"{8 * result.projected_seconds_per_bit:.3f}",
        f"low_confidence_bits: {result.low_confidence_bits}",
        f"wall_seconds: {result.wall_seconds:.1f}",
    ]
    if victim is not None:
        secrets = victim.config.secrets
        truth = [secrets.bit(start + i) for i in range(args.bits)]
        ber = stats.error_rate(result.bits, truth)
        lines.append(f"bit_error_rate: {ber:.6f}")
    summary = "\n".join(lines) + "\n"
    with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
        fh.write(summary)
    print(summary, end="")
    return EXIT_LOW_CONFIDENCE if result.low_confidence_bits else EXIT_OK


def cmd_aslr(args) -> int:
    cfg = _make_victim_config(args)
    if args.space_bits is not None:
        cfg.aslr_space_bits = args.space_bits
    if args.offset is not None:
        cfg.valid_aslr_offset = args.offset
    cfg.validate()   # before a UDP target is contacted
    seed = _resolve_seed(args.seed)
    os.makedirs(args.out, exist_ok=True)
    with _open_target(args, cfg, seed) as (session, _):
        result = attacker.break_aslr(session, cfg.aslr_space_bits, args.n)
    with open(os.path.join(args.out, "rounds.csv"), "w") as fh:
        fh.write("round,lo,hi,mid,mean_left_ns,mean_right_ns,went_left,attempts\n")
        for i, r in enumerate(result.rounds):
            fh.write(f"{i},{r.lo},{r.hi},{r.mid},{r.mean_left_ns:.3f},"
                     f"{r.mean_right_ns:.3f},{int(r.went_left)},{r.attempts}\n")
    summary = (f"offset: {result.offset}\n"
               f"rounds: {len(result.rounds)}\n"
               f"requests_total: {result.requests_total}\n")
    with open(os.path.join(args.out, "summary.txt"), "w") as fh:
        fh.write(summary)
    print(summary, end="")
    return EXIT_OK


def cmd_figures(args) -> int:
    seed = _resolve_seed(args.seed)
    figures.generate(args.figure_id, args.out, seed)
    print(f"wrote {args.figure_id} datasets to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectrelab",
        description="remote timing covert-channel laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("victim", help="run the victim service over UDP")
    p.add_argument("config", nargs="?", help="config file (key = value)")
    p.add_argument("--port", type=_port, default=wire.DEFAULT_PORT)
    p.add_argument("--clock", choices=("virtual", "wall"))
    p.add_argument("--log", help="append-only request trace file")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_victim)

    def attack_parser(name: str, summary: str) -> argparse.ArgumentParser:
        """A subcommand with the flags every attack takes."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("target", type=_target,
                       help="'loopback' or host[:port]")
        p.add_argument("--preset", choices=wire.PRESETS,
                       help="latency preset (default: the --config file's "
                            "[latency] section, else local)")
        p.add_argument("--config", help="victim config file (loopback only)")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int)
        return p

    p = attack_parser("leak", "calibrate and extract secret bits")
    p.add_argument("--channel", choices=("cache", "avx"), default="cache")
    p.add_argument("--bits", type=int, default=8)
    p.add_argument("--n", type=int, default=1_000_000,
                   help="measurements per bit")
    p.add_argument("--start-bit", type=int,
                   help="first bit index to leak (defaults to the loopback "
                        "victim's first out-of-bounds bit)")
    p.set_defaults(func=cmd_leak)

    p = attack_parser("aslr", "derandomize the layout offset")
    p.add_argument("--space-bits", type=int,
                   help="layout bits (default: the --config file's, else 20)")
    p.add_argument("--offset", type=int, help="planted offset, loopback only "
                   "(default: the --config file's, else 0)")
    p.add_argument("--n", type=int, default=1_000_000,
                   help="probes per half-range check")
    p.set_defaults(func=cmd_aslr)

    p = sub.add_parser("figures", help="regenerate experiment CSV datasets")
    p.add_argument("figure_id", choices=figures.FIGURE_IDS)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_figures)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize the rest
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    # a ConfigError is a ValueError; an OSError is a local file's or port's,
    # since the UDP transport raises its socket's errors as WireError
    except (ValueError, OSError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except WireError as err:
        print(f"target unreachable: {err}", file=sys.stderr)
        return EXIT_UNREACHABLE
    except (CalibrationError, ExtractionError) as err:
        print(f"extraction failed: {err}", file=sys.stderr)
        return EXIT_LOW_CONFIDENCE


if __name__ == "__main__":
    sys.exit(main())
