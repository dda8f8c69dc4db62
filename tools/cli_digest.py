"""Print one digest line per output of a fixed list of CLI runs and config
round trips.  Two checkouts that print the same lines write the same files
and exit codes, byte for byte, apart from ``wall_seconds``:

    PYTHONPATH=old/src python3 tools/cli_digest.py > old.txt
    PYTHONPATH=new/src python3 tools/cli_digest.py > new.txt
    diff old.txt new.txt

Each CLI run executes ``python -m spectrelab.cli`` into its own directory
under one temporary directory.  Its lines are the command, its exit code,
and, for its stdout, its stderr and every file it wrote, the file's name
and the sha256 of its text with every ``wall_seconds:`` line and the
temporary directory's path removed.

The runs: ``leak`` on the cache and AVX channels at ``--preset local`` and
``noiseless``, a cache ``leak`` whose calibration fails (exit 4), a
``leak --config`` whose [latency] section is a lognormal local preset at a
100 us base, ``aslr`` at ``local`` and ``noiseless`` (20-bit space, offset
777), and ``figures`` fig3, fig5, fig7, fig8 and fig10.

Then one ``config`` line per config text hashes
``dump_config(load_config(text))`` and the dump of that dump reloaded, or
names the exception the load raised; a ``victim default`` line hashes the
configuration ``spectrelab victim`` prints with no config file.  The whole
list takes about 10 s on a 2-core host.
"""

from __future__ import annotations

import hashlib
import os
import re
import subprocess
import sys
import tempfile

from spectrelab.config import dump_config, load_config
from spectrelab.victim import VictimConfig

LOGNORMAL_CONFIG = ("[latency]\npreset = local\ndistribution = lognormal\n"
                    "base_ns = 100000\n")

RUNS = [
    ("leak", "loopback", "--channel", "cache", "--preset", "local",
     "--n", "4000000", "--bits", "16", "--seed", "7"),
    ("leak", "loopback", "--channel", "avx", "--preset", "local",
     "--n", "1000000", "--bits", "16", "--seed", "7"),
    ("leak", "loopback", "--channel", "cache", "--preset", "noiseless",
     "--n", "1000", "--bits", "64", "--seed", "7"),
    ("leak", "loopback", "--channel", "avx", "--preset", "noiseless",
     "--n", "1000", "--bits", "64", "--seed", "7"),
    ("leak", "loopback", "--channel", "cache", "--preset", "local",
     "--n", "1000", "--bits", "8", "--seed", "7"),
    ("leak", "loopback", "--config", "{config}", "--n", "1000000",
     "--bits", "8", "--seed", "5"),
    ("aslr", "loopback", "--space-bits", "20", "--offset", "777",
     "--n", "1000000", "--preset", "local", "--seed", "3"),
    ("aslr", "loopback", "--space-bits", "20", "--offset", "777",
     "--n", "1000000", "--preset", "noiseless", "--seed", "3"),
    *(("figures", fig, "--seed", "1")
      for fig in ("fig3", "fig5", "fig7", "fig8", "fig10")),
]

CONFIGS = {
    "empty": "",
    **{f"{preset}-{distribution}":
       f"[latency]\npreset = {preset}\ndistribution = {distribution}\n"
       for preset in ("local", "cloud", "arm", "noiseless")
       for distribution in ("gaussian", "lognormal")},
    "local-sigma": "[latency]\npreset = local\nsigma_ns = 500\n",
    "noiseless-sigma": "[latency]\npreset = noiseless\nsigma_ns = 500\n",
    "custom-sigma": "[latency]\nsigma_ns = 1234.5\n",
    "custom-lognormal": "[latency]\nsigma_ns = 1234.5\n"
                        "distribution = lognormal\n",
    "custom-base": "[latency]\nbase_ns = 100000\n",
    "timing": "[timing]\nhit_cycles = 30\nmiss_cycles = 250\n"
              "cycle_time_ns = 0.25\nper_request_ns = 2000\n",
    "mitigation": "[mitigation]\nbarrier = yes\nnoise_sigma_ns = 300\n",
    "victim": "[victim]\nsecret = hi\npublic_zero_bytes = 4\n"
              "valid_aslr_offset = 99\naslr_space_bits = 12\n"
              "value_secret = 1234\nvalue_bits = 12\nclock_mode = wall\n",
    "secret-hex": "[victim]\nsecret_hex = deadbeef\n",
    "lognormal-cli": LOGNORMAL_CONFIG,
    "unknown-key": "[timing]\nhit = 3\n",
    "unknown-preset": "[latency]\npreset = warp\n",
}


def _digest(text: str, tmp: str) -> str:
    text = re.sub(r"^wall_seconds:.*\n", "", text.replace(tmp, ""),
                  flags=re.MULTILINE)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_cli(argv: tuple, tmp: str, index: int) -> None:
    out = os.path.join(tmp, str(index))
    config = os.path.join(tmp, "lognormal.cfg")
    args = [arg.format(config=config) for arg in argv] + ["--out", out]
    proc = subprocess.run([sys.executable, "-m", "spectrelab.cli", *args],
                          capture_output=True, text=True)
    command = " ".join(argv)
    for stream, text in (("<stdout>", proc.stdout), ("<stderr>", proc.stderr)):
        print(f"cli {command} exit={proc.returncode} {stream} "
              f"{_digest(text, tmp)}", flush=True)
    for root, _, files in sorted(os.walk(out)):
        for name in sorted(files):
            path = os.path.join(root, name)
            with open(path) as fh:
                rel = os.path.relpath(path, out)
                print(f"cli {command} exit={proc.returncode} {rel} "
                      f"{_digest(fh.read(), tmp)}", flush=True)


def run_config(text: str, tmp: str) -> str:
    path = os.path.join(tmp, "round_trip.cfg")
    try:
        with open(path, "w") as fh:
            fh.write(text)
        dump = dump_config(load_config(path))
        with open(path, "w") as fh:
            fh.write(dump)
        again = dump_config(load_config(path))
    except ValueError as err:   # ConfigError too; its type is the digest
        return f"error {type(err).__name__}"
    return f"{_digest(dump, tmp)} reloaded {_digest(again, tmp)}"


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "lognormal.cfg"), "w") as fh:
            fh.write(LOGNORMAL_CONFIG)
        for index, argv in enumerate(RUNS):
            run_cli(argv, tmp, index)
        for name, text in CONFIGS.items():
            print(f"config {name} {run_config(text, tmp)}", flush=True)
        print(f"victim default {_digest(dump_config(VictimConfig()), tmp)}",
              flush=True)


if __name__ == "__main__":
    main()
