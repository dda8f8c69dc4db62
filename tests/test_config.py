"""Config file parsing tests."""

import pytest

from spectrelab.config import dump_config, load_config
from spectrelab.victim import ConfigError, VictimConfig
from spectrelab.wire import LatencyModel


def write(tmp_path, text):
    path = tmp_path / "victim.cfg"
    path.write_text(text)
    return str(path)


class TestLoadConfig:
    def test_full_round_trip(self, tmp_path):
        cfg = VictimConfig(valid_aslr_offset=99, value_secret=1234,
                           mitigation_barrier=True,
                           mitigation_noise_sigma_ns=50.0)
        path = write(tmp_path, dump_config(cfg))
        back = load_config(path)
        assert back.valid_aslr_offset == 99
        assert back.value_secret == 1234
        assert back.mitigation_barrier is True
        assert back.mitigation_noise_sigma_ns == 50.0
        assert back.secrets.bitstream == cfg.secrets.bitstream
        assert back.secrets.bitstream_length == cfg.secrets.bitstream_length

    @pytest.mark.parametrize("latency", [
        LatencyModel.preset("local"),
        LatencyModel.preset("cloud", base_ns=50_000.0, distribution="lognormal"),
        LatencyModel.noiseless(100_000.0),
        LatencyModel(sigma_ns=1234.5, name="custom"),
    ], ids=["local", "cloud-lognormal", "noiseless", "custom"])
    def test_latency_round_trip_keeps_the_name(self, tmp_path, latency):
        path = write(tmp_path, dump_config(VictimConfig(latency=latency)))
        assert load_config(path).latency == latency

    def test_text_secret(self, tmp_path):
        path = write(tmp_path, "[victim]\nsecret = hi\npublic_zero_bytes = 4\n")
        cfg = load_config(path)
        assert cfg.secrets.bitstream == b"\x00" * 4 + b"hi"
        assert cfg.secrets.bitstream_length == 32

    def test_latency_preset(self, tmp_path):
        path = write(tmp_path, "[latency]\npreset = cloud\n")
        assert load_config(path).latency.sigma_ns == 52_300.0

    def test_latency_noiseless(self, tmp_path):
        path = write(tmp_path, "[latency]\npreset = noiseless\n")
        assert load_config(path).latency.sigma_ns == 0.0

    def test_timing_overrides(self, tmp_path):
        path = write(tmp_path,
                     "[timing]\nhit_cycles = 30\nmiss_cycles = 250\n")
        cfg = load_config(path)
        assert (cfg.hit_cycles, cfg.miss_cycles) == (30, 250)

    def test_unknown_key_rejected(self, tmp_path):
        path = write(tmp_path, "[victim]\nfrobnicate = 1\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = write(tmp_path, "[fleet]\nsize = 9\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_invalid_values_rejected(self, tmp_path):
        path = write(tmp_path, "[victim]\nclock_mode = sundial\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/victim.cfg")

    def test_bad_latency_preset(self, tmp_path):
        path = write(tmp_path, "[latency]\npreset = warp\n")
        with pytest.raises(ConfigError):
            load_config(path)


class TestOneOwnerPerInput:
    @pytest.mark.parametrize("text", [
        "[victim]\npublic_zero_bytes = -3\n",
        "[victim]\nsecret =\n",
        "[victim]\nsecret_hex =\n",
        "[latency]\nbase_ns = -5\n",
    ], ids=["negative-public-zeros", "empty-secret", "empty-secret-hex",
            "negative-base"])
    def test_bad_input_rejected(self, tmp_path, text):
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, text))

    def test_noiseless_lognormal_round_trip_keeps_the_name(self, tmp_path):
        latency = load_config(write(
            tmp_path, "[latency]\npreset = noiseless\n"
                      "distribution = lognormal\nbase_ns = 100000\n")).latency
        path = write(tmp_path, dump_config(VictimConfig(latency=latency)))
        back = load_config(path).latency
        assert back == latency
        assert (back.name, back.distribution) == ("noiseless", "lognormal")

    def test_named_preset_fixes_sigma(self, tmp_path):
        path = write(tmp_path, "[latency]\npreset = noiseless\nsigma_ns = 500\n")
        assert load_config(path).latency == LatencyModel.noiseless()


class TestLatencyInput:
    """[latency] takes only the keys ``dump_config`` writes, and only
    finite numbers."""

    @pytest.mark.parametrize("text", [
        "[latency]\npreset = local\nsigam_ns = 5\n",
        "[latency]\nbase = 100000\n",
    ], ids=["typo-next-to-preset", "typo-alone"])
    def test_unknown_key_rejected(self, tmp_path, text):
        with pytest.raises(ConfigError, match="sigam_ns|base"):
            load_config(write(tmp_path, text))

    @pytest.mark.parametrize("text", [
        "[latency]\nbase_ns = nan\n",
        "[latency]\nbase_ns = inf\n",
        "[latency]\npreset = local\nbase_ns = nan\n",
        "[latency]\nsigma_ns = nan\n",
        "[latency]\nsigma_ns = inf\n",
    ], ids=["nan-base", "inf-base", "nan-base-with-preset", "nan-sigma",
            "inf-sigma"])
    def test_non_finite_rejected(self, tmp_path, text):
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, text))

    @pytest.mark.parametrize("text", [
        "[latency]\npreset = local\nsigam_ns = 5\n",
        "[latency]\nbase_ns = nan\n",
    ], ids=["unknown-key", "nan-base"])
    def test_cli_exits_2(self, tmp_path, text):
        from spectrelab import cli
        out = tmp_path / "o"
        code = cli.main(["leak", "loopback", "--config", write(tmp_path, text),
                         "--n", "1000", "--bits", "1", "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert not out.exists()

    def test_every_dumped_key_loads(self, tmp_path):
        for latency in (LatencyModel.preset("cloud", 50_000.0, "lognormal"),
                        LatencyModel(base_ns=0.0, sigma_ns=7.5, name="custom")):
            path = write(tmp_path, dump_config(VictimConfig(latency=latency)))
            assert load_config(path).latency == latency


class TestMalformedValues:
    @pytest.mark.parametrize("text, where", [
        ("[latency]\nsigma_ns = -5\n", "[latency] sigma_ns"),
        ("[latency]\ndistribution = weird\n", "[latency] distribution"),
        ("[latency]\nbase_ns = abc\n", "[latency] base_ns"),
        ("[timing]\nhit_cycles = abc\n", "[timing] hit_cycles"),
        ("[victim]\nsecret_hex = zz\n", "[victim] secret_hex"),
        ("[mitigation]\nnoise_sigma_ns = x\n", "[mitigation] noise_sigma_ns"),
    ], ids=["negative-sigma", "unknown-distribution", "text-base",
            "text-hit-cycles", "bad-hex", "text-noise-sigma"])
    def test_is_a_config_error_naming_section_and_key(self, tmp_path, text,
                                                      where):
        from spectrelab import cli
        path = write(tmp_path, text)
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert where in str(err.value)
        code = cli.main(["leak", "loopback", "--config", path, "--n", "1000",
                         "--bits", "1", "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG
