import json

import numpy as np
import pytest
import yaml

from helpers import parse_csv

from fapsim import cli, runner


def write_config(tmp_path, tree, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(tree))
    return str(path)


TINY = {
    "channel": {"tx_antennas": 16, "rx_antennas": 4, "clusters": 2, "rays_per_cluster": 3},
    "streams": 2,
    "trials": 3,
    "symbols_per_trial": 100,
    "seed": 7,
    "snr_db": [0.0],
    "schemes": [{"type": "optimal"}, {"type": "proposed", "k": 3, "angle_codebook_size": 32}],
}


class TestConfigLoading:
    def test_defaults_reproduce_reference_setup(self):
        cfg = cli.build_experiment_config(cli.load_config(None))
        assert cfg.channel.tx.num_elements == 128
        assert cfg.channel.rx.num_elements == 16
        assert cfg.streams == 4
        assert cfg.channel.num_clusters == 12
        assert cfg.channel.rays_per_cluster == 20
        assert cfg.channel.tx.spacing_over_wavelength == 0.5
        assert cfg.channel.tx_sector == pytest.approx((-np.pi / 4, np.pi / 4))
        assert cfg.channel.rx_sector == pytest.approx((-np.pi, np.pi))
        assert cfg.allocation == "unitary"
        assert cfg.snr_db_grid[0] == -20.0 and cfg.snr_db_grid[-1] == 10.0
        assert len(cfg.snr_db_grid) == 13
        ks = sorted(s.k for s in cfg.schemes if isinstance(s, runner.ProposedScheme))
        assert ks == [6, 8, 16]
        assert all(s.angle_codebook_size == 256 for s in cfg.schemes
                   if isinstance(s, runner.ProposedScheme))

    def test_partial_override_merges(self, tmp_path):
        path = write_config(tmp_path, {"channel": {"tx_antennas": 64}, "trials": 5})
        cfg = cli.build_experiment_config(cli.load_config(path))
        assert cfg.channel.tx.num_elements == 64
        assert cfg.channel.rx.num_elements == 16       # default retained
        assert cfg.trials == 5

    def test_snr_list_form(self, tmp_path):
        path = write_config(tmp_path, dict(TINY, snr_db=[-5.0, 0.0, 5.0]))
        cfg = cli.build_experiment_config(cli.load_config(path))
        assert cfg.snr_db_grid == (-5.0, 0.0, 5.0)

    def test_quantized_coeff_codebook(self, tmp_path):
        tree = dict(TINY)
        tree["schemes"] = [{"type": "proposed", "k": 3, "angle_codebook_size": 32,
                            "coeff_codebook": {"magnitude_levels": 8, "phase_levels": 8}}]
        cfg = cli.build_experiment_config(cli.load_config(write_config(tmp_path, tree)))
        assert cfg.schemes[0].coeff_codebook.bits_per_value == 6


class TestMainExitCodes:
    def test_success_writes_csv(self, tmp_path):
        out = tmp_path / "rate.csv"
        code = cli.main(["rate", "--config", write_config(tmp_path, TINY), "--out", str(out)])
        assert code == 0
        table = parse_csv(out.read_text())
        assert set(table["scheme"]) == {"optimal", "proposed_k3_g1_cb32"}

    def test_ideal_and_quantized_variants_in_one_sweep(self, tmp_path):
        quantized = {"magnitude_levels": 16, "phase_levels": 16}
        tree = dict(TINY, schemes=[
            {"type": "proposed", "k": 3, "angle_codebook_size": 32},
            {"type": "proposed", "k": 3, "angle_codebook_size": 32, "coeff_codebook": quantized},
            {"type": "multilevel", "k": 4, "angle_codebook_size": 32},
            {"type": "multilevel", "k": 4, "angle_codebook_size": 32, "coeff_codebook": quantized},
        ])
        out = tmp_path / "rate.csv"
        code = cli.main(["rate", "--config", write_config(tmp_path, tree), "--out", str(out)])
        assert code == 0
        table = parse_csv(out.read_text())
        assert table["scheme"] == ["proposed_k3_g1_cb32", "proposed_k3_g1_cb32_m16p16",
                                   "multilevel_k4_cb32", "multilevel_k4_cb32_m16p16"]
        assert table["feedback_amplitude_bits"] == ["0", "48", "0", "32"]

    def test_flag_overrides(self, tmp_path, capsys):
        code = cli.main(["overhead", "--config", write_config(tmp_path, TINY), "--seed", "99"])
        assert code == 0
        text = capsys.readouterr().out
        assert "# seed: 99" in text

    def test_config_error_names_field(self, tmp_path, capsys):
        bad = dict(TINY, trials=0)
        code = cli.main(["rate", "--config", write_config(tmp_path, bad)])
        assert code == 1
        err = capsys.readouterr().err
        assert "config error" in err and "trials" in err

    def test_unknown_scheme_type(self, tmp_path, capsys):
        bad = dict(TINY, schemes=[{"type": "altmin"}])
        code = cli.main(["rate", "--config", write_config(tmp_path, bad)])
        assert code == 1
        assert "schemes[0]" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        assert cli.main(["rate", "--config", "/nonexistent/cfg.yaml"]) == 1

    def test_numeric_error_exit_code(self, tmp_path, monkeypatch, capsys):
        from fapsim.errors import DomainError

        def boom(cfg, workers=1):
            raise DomainError("synthetic failure")

        monkeypatch.setattr(cli, "run_rate_sweep", boom)
        code = cli.main(["rate", "--config", write_config(tmp_path, TINY)])
        assert code == 2
        assert "numeric error" in capsys.readouterr().err

    def test_ber_and_beam_pattern_commands(self, tmp_path):
        cfg_path = write_config(tmp_path, dict(TINY, beam_pattern={
            "sector_deg": [-30.0, 30.0], "codebook_size": 8, "center_index": 4,
            "grid_size": 128, "gammas": [1, 2]}))
        out_ber = tmp_path / "ber.csv"
        assert cli.main(["ber", "--config", cfg_path, "--out", str(out_ber)]) == 0
        assert "bit_errors" in out_ber.read_text()
        out_bp = tmp_path / "bp.csv"
        assert cli.main(["beam-pattern", "--config", cfg_path, "--out", str(out_bp),
                         "--gammas", "1,2"]) == 0
        table = parse_csv(out_bp.read_text())
        assert len(table["angle_rad"]) == 128

    def test_gammas_flag_is_part_of_the_embedded_config(self, capsys):
        assert cli.main(["beam-pattern", "--gammas", "1,3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        config = json.loads(next(ln for ln in lines if ln.startswith("# config: "))[10:])
        assert config["beam_pattern"]["gammas"] == [1, 3]
        assert parse_csv("\n".join(lines)).keys() == {"angle_rad", "g_gamma1", "g_gamma3"}


def _with_scheme(index, **fields):
    schemes = [dict(s) for s in TINY["schemes"]]
    schemes[index].update(fields)
    return dict(TINY, schemes=schemes)


HOSTILE = [
    # (command, config tree, extra flags, field the error must name)
    ("overhead", _with_scheme(1, k=8.7), [], "schemes[1].k"),
    ("overhead", _with_scheme(1, k=True), [], "schemes[1].k"),
    ("overhead", _with_scheme(1, k="8"), [], "schemes[1].k"),
    ("overhead", _with_scheme(1, coeff_codebook={"magnitude_levels": 16.5, "phase_levels": 16}),
     [], "schemes[1].coeff_codebook.magnitude_levels"),
    ("overhead", _with_scheme(1, coeff_codebook={"magnitude_levels": 3, "phase_levels": 16}),
     [], "schemes[1].coeff_codebook"),
    ("beam-pattern", dict(TINY, beam_pattern={"gammas": [1.5]}), [], "beam_pattern.gammas"),
    ("overhead", _with_scheme(0, gama=2), [], "schemes[0].gama"),
    ("overhead", _with_scheme(1, gama=2), [], "schemes[1].gama"),
    ("overhead", _with_scheme(1, gamma=0), [], "schemes[1].gamma"),
    ("overhead", _with_scheme(1, angle_codebook_size=100), [], "schemes[1].angle_codebook_size"),
    ("rate", dict(TINY, snr_db=["a", 1]), [], "snr_db"),
    ("ber", dict(TINY, snr_db=[float("nan"), 0.0]), [], "snr_db"),
    ("rate", dict(TINY, snr_db=[1e300]), [], "snr_db"),
    ("rate", dict(TINY, snr_db=[float("inf")]), [], "snr_db"),
    ("overhead", dict(TINY, snr_db={"start": 0.0, "stop": 1e308, "step": 1e-300}), [], "snr_db"),
    ("overhead", dict(TINY, snr_db={"start": 0.0, "stop": float("nan"), "step": 1.0}), [], "snr_db"),
    ("overhead", dict(TINY, seed=-1), [], "seed"),
    ("overhead", TINY, ["--seed", "-1"], "seed"),
    ("beam-pattern", TINY, ["--gammas", "1,x"], "--gammas"),
    ("beam-pattern", TINY, ["--gammas", "1,0"], "--gammas"),
    # Keys the defaults lack, in every section.
    ("rate", dict(TINY, trails=3), [], "trails"),
    ("overhead", dict(TINY, channel=dict(TINY["channel"], cluster=3)), [], "channel.cluster"),
    ("beam-pattern", dict(TINY, beam_pattern={"gamas": [1]}), [], "beam_pattern.gamas"),
    ("overhead", dict(TINY, snr_db={"start": 0.0, "stop": 1.0, "stpe": 1.0}), [], "snr_db.stpe"),
    ("beam-pattern", dict(TINY, beam_pattern=None), [], "beam_pattern"),
    ("beam-pattern", dict(TINY, beam_pattern=None), ["--gammas", "1,3"], "beam_pattern"),
    ("overhead", dict(TINY, channel=None), [], "channel"),
    # Library constructor checks, named by their config key for every command.
    ("overhead", dict(TINY, channel=dict(TINY["channel"], clusters=0)), [], "channel.clusters"),
    ("overhead", dict(TINY, channel=dict(TINY["channel"], rx_antennas=0)), [],
     "channel.rx_antennas"),
    ("overhead", dict(TINY, channel=dict(TINY["channel"], spacing_over_wavelength=float("nan"))),
     [], "channel.spacing_over_wavelength"),
    ("overhead", dict(TINY, channel=dict(TINY["channel"], tx_sector_deg=[10.0, -10.0])), [],
     "channel.tx_sector_deg"),
    ("overhead", dict(TINY, beam_pattern={"codebook_size": 12}), [], "beam_pattern.codebook_size"),
    ("overhead", dict(TINY, beam_pattern={"center_index": 99}), [], "beam_pattern.center_index"),
    ("overhead", dict(TINY, beam_pattern={"grid_size": 8}), [], "beam_pattern.grid_size"),
    ("beam-pattern", dict(TINY, beam_pattern={"grid_size": 8}), [], "beam_pattern.grid_size"),
]


@pytest.mark.parametrize("command, tree, flags, field", HOSTILE,
                         ids=[f"{c}-{f}-{i}" for i, (c, _, _, f) in enumerate(HOSTILE)])
def test_hostile_input_is_a_config_error(tmp_path, capsys, command, tree, flags, field):
    code = cli.main([command, "--config", write_config(tmp_path, tree)] + flags)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.startswith("config error: ")
    assert field in captured.err
