"""CLI contract tests: subcommands, exit codes, seeded reproducibility,
and figure dataset generation."""

import argparse
import csv
import filecmp
import os
import socket
import threading

import numpy as np
import pytest

from spectrelab import cli, figures, wire
from spectrelab.config import load_config
from spectrelab.victim import Victim, VictimConfig


def run_cli(*argv):
    return cli.main(list(argv))


class TestLeakCommand:
    def test_noiseless_byte_d(self, tmp_path, capsys):
        out = tmp_path / "leak"
        code = run_cli("leak", "loopback", "--preset", "noiseless",
                       "--n", "50", "--seed", "1", "--out", str(out))
        assert code == cli.EXIT_OK
        summary = (out / "summary.txt").read_text()
        assert "bits: 01100100" in summary
        assert "data_hex: 64" in summary
        assert (out / "bit_00_hist.csv").exists()
        assert (out / "bit_07_samples.csv").exists()

    def test_avx_channel(self, tmp_path):
        out = tmp_path / "leak"
        code = run_cli("leak", "loopback", "--channel", "avx", "--preset",
                       "noiseless", "--n", "40", "--seed", "1",
                       "--out", str(out))
        assert code == cli.EXIT_OK
        assert "bits: 01100100" in (out / "summary.txt").read_text()

    def test_seeded_runs_are_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            code = run_cli("leak", "loopback", "--preset", "local",
                           "--n", "2000", "--bits", "4", "--seed", "7",
                           "--out", str(out))
            assert code in (cli.EXIT_OK, cli.EXIT_LOW_CONFIDENCE)
        files = sorted(os.listdir(out_a))
        assert files == sorted(os.listdir(out_b))
        for name in files:
            if name == "summary.txt":
                # wall_seconds differs between runs; compare the rest
                a = [l for l in (out_a / name).read_text().splitlines()
                     if not l.startswith("wall_seconds")]
                b = [l for l in (out_b / name).read_text().splitlines()
                     if not l.startswith("wall_seconds")]
                assert a == b
            else:
                assert filecmp.cmp(out_a / name, out_b / name, shallow=False)

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NETSPECTRE_LAB_SEED", "7")
        out_env = tmp_path / "env"
        run_cli("leak", "loopback", "--preset", "noiseless", "--n", "20",
                "--bits", "2", "--out", str(out_env))
        monkeypatch.delenv("NETSPECTRE_LAB_SEED")
        out_flag = tmp_path / "flag"
        run_cli("leak", "loopback", "--preset", "noiseless", "--n", "20",
                "--bits", "2", "--seed", "7", "--out", str(out_flag))
        assert filecmp.cmp(out_env / "summary.txt", out_flag / "summary.txt",
                           shallow=False)

    def test_udp_target_requires_start_bit(self, tmp_path):
        # the flags are checked before the target is contacted
        code = run_cli("leak", "127.0.0.1:1", "--n", "10",
                       "--out", str(tmp_path / "x"))
        assert code == cli.EXIT_CONFIG

    def test_missing_start_bit_sends_nothing(self, tmp_path):
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            sock.bind(("127.0.0.1", 0))
            sock.setblocking(False)
            port = sock.getsockname()[1]
            code = run_cli("leak", f"127.0.0.1:{port}", "--n", "10",
                           "--out", str(tmp_path / "x"))
            assert code == cli.EXIT_CONFIG
            with pytest.raises(BlockingIOError):
                sock.recv(wire.PACKET_LEN)
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("target", ["loopback", "127.0.0.1:1"])
    def test_zero_bits_is_config_error_before_output(self, tmp_path, target):
        out = tmp_path / "x"
        code = run_cli("leak", target, "--bits", "0", "--start-bit", "128",
                       "--n", "10", "--out", str(out))
        assert code == cli.EXIT_CONFIG
        assert not out.exists()

    def test_bad_status_target_is_unreachable(self, tmp_path):
        # a target that answers every request with STATUS_BAD_OPCODE: the
        # AVX calibration's clock advance fails with a WireError
        stop = threading.Event()
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            sock.bind(("127.0.0.1", 0))
            sock.settimeout(0.1)

            def answer():
                while not stop.is_set():
                    try:
                        data, addr = sock.recvfrom(2048)
                    except socket.timeout:
                        continue
                    nonce = wire.decode_request(data).nonce
                    sock.sendto(wire.ResponsePacket(wire.STATUS_BAD_OPCODE,
                                                    nonce).encode(), addr)

            thread = threading.Thread(target=answer, daemon=True)
            thread.start()
            try:
                code = run_cli("leak", f"127.0.0.1:{sock.getsockname()[1]}",
                               "--channel", "avx", "--start-bit", "128",
                               "--n", "10", "--bits", "1",
                               "--out", str(tmp_path / "x"))
            finally:
                stop.set()
                thread.join(5.0)
        assert code == cli.EXIT_UNREACHABLE

    def test_config_latency_reaches_loopback_victim(self, tmp_path):
        cfg = tmp_path / "far.cfg"
        cfg.write_text("[latency]\npreset = noiseless\nbase_ns = 100000\n")
        base = ("leak", "loopback", "--n", "1000", "--bits", "8",
                "--seed", "1")
        runs = {"preset": ("--preset", "noiseless"),
                "config": ("--config", str(cfg)),
                "both": ("--preset", "noiseless", "--config", str(cfg))}
        summaries = {}
        for name, flags in runs.items():
            out = tmp_path / name
            run_cli(*base, *flags, "--out", str(out))
            summaries[name] = (out / "summary.txt").read_text()
        assert "projected_seconds_per_bit: 0.267" in summaries["preset"]
        # 13 requests per measurement at 2 * 100 us + 0.5 us each
        assert "projected_seconds_per_bit: 2.607" in summaries["config"]
        assert "preset: noiseless" in summaries["config"]
        # an explicit --preset wins over the file's [latency] section
        assert "projected_seconds_per_bit: 0.267" in summaries["both"]

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[victim]\nclock_mode = sundial\n")
        code = run_cli("leak", "loopback", "--config", str(bad),
                       "--n", "10", "--out", str(tmp_path / "x"))
        assert code == cli.EXIT_CONFIG

    @pytest.mark.parametrize("step", ["-5", "nan", "0.5"])
    def test_bad_per_request_time_exit_code(self, tmp_path, step):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"[timing]\nper_request_ns = {step}\n")
        code = run_cli("leak", "loopback", "--config", str(bad),
                       "--n", "10", "--out", str(tmp_path / "x"))
        assert code == cli.EXIT_CONFIG

    @pytest.mark.parametrize("section,key,value", [
        ("mitigation", "noise_sigma_ns", "nan"),
        ("mitigation", "noise_sigma_ns", "inf"),
        ("timing", "decay_start_ns", "nan"), ("timing", "decay_end_ns", "nan"),
        ("timing", "decay_end_ns", "inf"), ("timing", "cycle_time_ns", "nan"),
        ("timing", "cycle_time_ns", "inf"), ("timing", "thrash_lambda", "nan"),
        ("timing", "thrash_lambda", "inf")])
    def test_non_finite_timing_exit_code(self, tmp_path, section, key, value):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"[{section}]\n{key} = {value}\n")
        code = run_cli("leak", "loopback", "--config", str(bad), "--preset",
                       "noiseless", "--n", "200", "--bits", "2",
                       "--out", str(tmp_path / "x"))
        assert code == cli.EXIT_CONFIG

    @pytest.mark.parametrize("key,value", [
        ("miss_cycles", "9" * 20), ("miss_cycles", "1" + "0" * 400),
        ("warm_cycles", "1" + "0" * 400), ("handler_cycles", "1" + "0" * 400)],
        ids=["miss-1e20", "miss-1e400", "warm-1e400", "handler-1e400"])
    def test_cycle_count_past_a_float64_exit_code(self, tmp_path, key, value):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"[timing]\n{key} = {value}\n")
        code = run_cli("leak", "loopback", "--config", str(bad), "--preset",
                       "noiseless", "--n", "200", "--bits", "2",
                       "--out", str(tmp_path / "x"))
        assert code == cli.EXIT_CONFIG

    def test_unbinnable_samples_exit_code(self, tmp_path):
        # a valid config whose hit and miss round trips lie 9e18 ns apart:
        # a bit's histogram would need 9e15 bins of 1000 ns, and is refused
        bad = tmp_path / "far.cfg"
        bad.write_text("[timing]\ncycle_time_ns = 1000\n"
                       f"miss_cycles = {2**53}\n")
        code = run_cli("leak", "loopback", "--config", str(bad), "--preset",
                       "noiseless", "--n", "200", "--bits", "2",
                       "--out", str(tmp_path / "x"))
        assert code == cli.EXIT_CONFIG

    def test_negative_start_bit_exit_code(self, tmp_path):
        # refused before any target is contacted: a loopback read at -1
        # would run in bounds and read nothing, a UDP one sends nothing
        code = run_cli("leak", "loopback", "--start-bit", "-1", "--preset",
                       "noiseless", "--n", "200", "--bits", "2",
                       "--out", str(tmp_path / "loop"))
        assert code == cli.EXIT_CONFIG
        assert not (tmp_path / "loop").exists()
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            sock.bind(("127.0.0.1", 0))
            sock.setblocking(False)
            port = sock.getsockname()[1]
            code = run_cli("leak", f"127.0.0.1:{port}", "--start-bit", "-1",
                           "--n", "10", "--out", str(tmp_path / "udp"))
            assert code == cli.EXIT_CONFIG
            with pytest.raises(BlockingIOError):
                sock.recv(wire.PACKET_LEN)
        assert not (tmp_path / "udp").exists()


    @pytest.mark.parametrize("start, bits", [(1 << 65, 2),
                                             ((1 << 64) - 1, 2),
                                             (1 << 64, 1)])
    def test_leak_range_past_64_bits_exit_code(self, tmp_path, start, bits):
        # a bit index is a request frame's 64-bit arg: a range reaching past
        # 2^64 is refused before any target is contacted, where a loopback
        # victim would wrap the index and a UDP read fail partway
        argv = ("--start-bit", str(start), "--bits", str(bits))
        code = run_cli("leak", "loopback", *argv, "--preset", "noiseless",
                       "--n", "50", "--out", str(tmp_path / "loop"))
        assert code == cli.EXIT_CONFIG
        assert not (tmp_path / "loop").exists()
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            sock.bind(("127.0.0.1", 0))
            sock.setblocking(False)
            port = sock.getsockname()[1]
            code = run_cli("leak", f"127.0.0.1:{port}", *argv, "--n", "10",
                           "--out", str(tmp_path / "udp"))
            assert code == cli.EXIT_CONFIG
            with pytest.raises(BlockingIOError):
                sock.recv(wire.PACKET_LEN)
        assert not (tmp_path / "udp").exists()

    def test_leak_range_ending_at_2_to_the_64_runs(self, tmp_path):
        code = run_cli("leak", "loopback", "--start-bit", str((1 << 64) - 2),
                       "--bits", "2", "--preset", "noiseless", "--n", "50",
                       "--out", str(tmp_path / "loop"))
        assert code == cli.EXIT_OK


class TestAslrCommand:
    def test_recovers_offset(self, tmp_path):
        out = tmp_path / "aslr"
        code = run_cli("aslr", "loopback", "--preset", "noiseless",
                       "--space-bits", "12", "--offset", "555",
                       "--n", "20", "--seed", "3", "--out", str(out))
        assert code == cli.EXIT_OK
        summary = (out / "summary.txt").read_text()
        assert "offset: 555" in summary
        assert "rounds: 12" in summary
        with open(out / "rounds.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 12

    def test_default_n_calibrates_at_the_local_preset(self, tmp_path):
        out = tmp_path / "aslr"
        code = run_cli("aslr", "loopback", "--space-bits", "4",
                       "--offset", "11", "--preset", "local", "--seed", "3",
                       "--out", str(out))
        assert code == cli.EXIT_OK
        assert "offset: 11" in (out / "summary.txt").read_text()

    def test_bad_offset_is_config_error(self, tmp_path):
        code = run_cli("aslr", "loopback", "--space-bits", "4",
                       "--offset", "100", "--out", str(tmp_path / "x"))
        assert code == cli.EXIT_CONFIG

    @pytest.mark.parametrize("target", ["loopback", "127.0.0.1:1"])
    def test_space_past_the_wire_is_config_error(self, tmp_path, target):
        # refused before any request, so an unreachable target is not tried
        code = run_cli("aslr", target, "--space-bits", "32",
                       "--offset", "5", "--preset", "noiseless", "--n", "10",
                       "--out", str(tmp_path / "x"))
        assert code == cli.EXIT_CONFIG

    def test_layout_flags_override_the_config_file(self, tmp_path):
        config = tmp_path / "layout.cfg"
        config.write_text("[victim]\nvalid_aslr_offset = 99\n"
                          "aslr_space_bits = 8\n")
        for flags, offset in (((), 99), (("--offset", "200"), 200)):
            out = tmp_path / f"aslr{offset}"
            code = run_cli("aslr", "loopback", "--config", str(config),
                           "--preset", "noiseless", "--n", "1000",
                           "--seed", "3", "--out", str(out), *flags)
            assert code == cli.EXIT_OK
            summary = (out / "summary.txt").read_text()
            assert f"offset: {offset}\nrounds: 8\n" in summary


class TestFiguresCommand:
    @pytest.mark.parametrize("fig", ["fig4", "fig6"])
    def test_cheap_figures(self, tmp_path, fig):
        out = tmp_path / fig
        assert run_cli("figures", fig, "--seed", "1", "--out", str(out)) == 0
        assert os.listdir(out)

    def test_fig6_knees(self, tmp_path):
        out = tmp_path / "fig6"
        run_cli("figures", "fig6", "--seed", "1", "--out", str(out))
        with open(out / "fig6.csv") as fh:
            rows = {float(r["idle_us"]): int(r["penalty_cycles"])
                    for r in csv.DictReader(fh)}
        assert rows[0.0] == 0
        assert rows[490.0] == 0
        assert rows[1000.0] == 366
        assert rows[1500.0] == 366
        assert 0 < rows[750.0] < 366

    def test_fig4_monotone_through_calibration_point(self, tmp_path):
        out = tmp_path / "fig4"
        run_cli("figures", "fig4", "--seed", "1", "--out", str(out))
        with open(out / "fig4.csv") as fh:
            rows = list(csv.DictReader(fh))
        model = [float(r["model_probability"]) for r in rows]
        empirical = [float(r["empirical_probability"]) for r in rows]
        assert model == sorted(model)
        point = {int(r["bytes"]): float(r["model_probability"])
                 for r in rows}[590_000]
        assert point >= 0.99
        for m, e in zip(model, empirical):
            assert abs(m - e) < 0.02

    def test_fig5_gap(self, tmp_path):
        from spectrelab.stats import read_histogram_csv
        out = tmp_path / "fig5"
        run_cli("figures", "fig5", "--seed", "1", "--out", str(out))
        means = {}
        for label in ("hit", "miss"):
            starts, counts, _ = read_histogram_csv(out / f"fig5_{label}.csv")
            centers = starts + 5.0
            means[label] = np.average(centers, weights=counts)
        assert abs((means["miss"] - means["hit"]) - 366 * 0.5) < 2.0

    def test_fig8_calibrates_and_writes_its_rows(self, tmp_path):
        out = tmp_path / "fig8"
        assert run_cli("figures", "fig8", "--seed", "1", "--out", str(out)) == 0
        with open(out / "fig8.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["measurements_per_bit"]) for r in rows] == [
            1000, 4000, 16000, 64000]

    def test_unknown_figure_rejected(self, tmp_path):
        code = run_cli("figures", "fig99", "--out", str(tmp_path / "x"))
        assert code == cli.EXIT_CONFIG


class TestVictimCommandPlumbing:
    def test_parser_accepts_victim_flags(self):
        parser = cli.build_parser()
        args = parser.parse_args(["victim", "--port", "43999",
                                  "--clock", "wall"])
        assert args.port == 43999 and args.clock == "wall"

    def test_victim_over_udp_end_to_end(self, tmp_path):
        # serve with the library entry the command wraps, then leak remotely
        cfg = VictimConfig(clock_mode="virtual")
        victim = Victim(cfg, seed=0)
        shutdown, ready = threading.Event(), threading.Event()
        port = 43218
        thread = threading.Thread(
            target=victim.serve_udp,
            kwargs=dict(port=port, host="127.0.0.1", shutdown_event=shutdown,
                        ready_event=ready), daemon=True)
        thread.start()
        assert ready.wait(5.0)
        try:
            out = tmp_path / "udp"
            code = run_cli("leak", f"127.0.0.1:{port}", "--n", "5",
                           "--bits", "2", "--start-bit", "128",
                           "--seed", "1", "--out", str(out))
            # real wall-clock jitter usually trips the calibration gate;
            # both a clean run and an honest low-confidence exit are fine
            assert code in (cli.EXIT_OK, cli.EXIT_LOW_CONFIDENCE)
            if code == cli.EXIT_OK:
                assert (out / "summary.txt").exists()
            assert victim.total_requests() > 0
        finally:
            shutdown.set()
            thread.join(5.0)


class TestAttackFlags:
    def test_preset_choices_are_the_wire_presets(self, tmp_path):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        for command in ("leak", "aslr"):
            preset = next(a for a in sub.choices[command]._actions
                          if a.dest == "preset")
            assert tuple(preset.choices) == wire.PRESETS
        for name in wire.PRESETS:
            path = tmp_path / f"{name}.cfg"
            path.write_text(f"[latency]\npreset = {name}\n")
            latency = load_config(str(path)).latency
            assert latency == wire.LatencyModel.preset(name)

    @pytest.mark.parametrize("text", [
        "[victim]\npublic_zero_bytes = -3\n",
        "[victim]\nsecret =\n",
        "[latency]\nbase_ns = -5\n",
    ], ids=["negative-public-zeros", "empty-secret", "negative-base"])
    def test_bad_config_input_exits_2(self, tmp_path, text):
        path = tmp_path / "victim.cfg"
        path.write_text(text)
        code = run_cli("leak", "loopback", "--config", str(path), "--n", "1000",
                       "--bits", "1", "--out", str(tmp_path / "o"))
        assert code == cli.EXIT_CONFIG
        assert not (tmp_path / "o").exists()
