import copy
import functools
import json
import math
import operator
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from helpers import parse_csv

from fapsim import cli, runner
from fapsim.benchmarks import multilevel_csi_feedback
from fapsim.channel import sample_channel, substream
from fapsim.feedback import ComplexCodebook


REFERENCE_YAML = Path(__file__).resolve().parents[1] / "configs" / "reference.yaml"
SRC = Path(__file__).resolve().parents[1] / "src"


def run_fapsim(args, env=None, preexec_fn=None):
    """`fapsim <args>` in a fresh interpreter with `src` on its path and `env` added."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "fapsim.cli", *args], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=path, **(env or {})),
                          preexec_fn=preexec_fn, timeout=300)


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

    def test_reference_yaml_matches_the_defaults(self):
        from_file = cli.build_experiment_config(cli.load_config(str(REFERENCE_YAML)))
        assert from_file == cli.build_experiment_config(cli.load_config(None))

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

    def test_linalg_error_is_a_numeric_error(self, tmp_path, monkeypatch, capsys):
        def boom(cfg, workers=1):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(cli, "run_rate_sweep", boom)
        assert cli.main(["rate", "--config", write_config(tmp_path, TINY)]) == 2
        assert capsys.readouterr().err == "numeric error: SVD did not converge\n"

    def test_unwritable_out_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "x.csv"
        assert cli.main(["overhead", "--config", write_config(tmp_path, TINY), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: --out: ") and "Traceback" not in captured.err
        assert captured.out == "" and not out.parent.exists()

    def test_non_utf8_config_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "cfg.yaml"
        path.write_bytes(b"\xff\xfe")
        assert cli.main(["overhead", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("config error: --config: ")

    @pytest.mark.parametrize("flag, value", [("--trials", "x"), ("--workers", "2.5")])
    def test_malformed_flag_is_a_config_error(self, capsys, flag, value):
        assert cli.main(["overhead", flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"config error: argument {flag}: invalid int value: '{value}'\n"
        assert captured.out == ""

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["rate", "--help"])
        assert exc.value.code == 0
        assert "--workers" in capsys.readouterr().out

    def test_water_filling_at_very_low_snr(self, tmp_path):
        # The water-filling powers keep their unit budget where 1 + 1/snr rounds.
        out = tmp_path / "rate.csv"
        tree = dict(TINY, allocation="water_filling", snr_db=[-200.0])
        assert cli.main(["rate", "--config", write_config(tmp_path, tree), "--out", str(out)]) == 0
        assert all(0.0 <= float(r) < 1e-12 for r in parse_csv(out.read_text())["mean_rate"])

    def test_water_filling_on_a_rank_deficient_estimate(self, tmp_path):
        # At the reference seed, trial 0's 4-path multilevel estimate has rank < 4 = streams;
        # its missing streams get no power instead of ending the sweep.
        tree = {"allocation": "water_filling", "trials": 2, "snr_db": [-20.0, 10.0],
                "schemes": [{"type": "optimal"}, {"type": "multilevel", "k": 4}]}
        cfg = cli.build_experiment_config(cli._merge(cli.DEFAULT_CONFIG, tree, ""))
        ch = sample_channel(cfg.channel, substream(cfg.seed, 0))
        sigma = np.linalg.svd(multilevel_csi_feedback(ch, cfg.channel, 4, 256,
                                                      ComplexCodebook.ideal()), compute_uv=False)
        assert sigma[3] <= 1e-12 * sigma[0]
        out = tmp_path / "rate.csv"
        assert cli.main(["rate", "--config", write_config(tmp_path, tree), "--out", str(out)]) == 0
        table = parse_csv(out.read_text())
        rates = dict(zip(zip(table["scheme"], table["snr_db"]), map(float, table["mean_rate"])))
        for snr_db in ("-20.0", "10.0"):
            assert 0.0 < rates["multilevel_k4_cb256", snr_db] < rates["optimal", snr_db]

    def test_ber_at_the_top_of_the_snr_range(self, tmp_path):
        # 2 receive antennas, 1 stream: from about 150 dB on, P H F F^H H^H + I is singular in
        # floating point (at trials 6 and 7 here), so the detector must not invert it.
        tree = {"channel": {"tx_antennas": 8, "rx_antennas": 2, "clusters": 2,
                            "rays_per_cluster": 2},
                "streams": 1, "snr_db": [150.0, 200.0, 300.0], "trials": 8,
                "symbols_per_trial": 100, "schemes": [{"type": "optimal"}]}
        out = tmp_path / "ber.csv"
        assert cli.main(["ber", "--config", write_config(tmp_path, tree), "--out", str(out)]) == 0
        assert set(parse_csv(out.read_text())["bit_errors"]) == {"0"}

    def test_snr_range_at_the_point_bound(self):
        tree = dict(TINY, snr_db={"start": -40.0, "stop": -40.0 + (cli.MAX_SNR_POINTS - 1) / 128,
                                  "step": 1 / 128})
        cfg = cli.build_experiment_config(cli._merge(cli.DEFAULT_CONFIG, tree, ""))
        assert len(cfg.snr_db_grid) == cli.MAX_SNR_POINTS

    def test_allocation_failure_is_a_numeric_error(self, tmp_path):
        # An in-range config whose BER noise block (512 x 100 000 complex, 0.8 GB) does not fit
        # under a 512 MB address-space limit set in the child process only.
        resource = pytest.importorskip("resource")
        tree = dict(TINY, channel=dict(TINY["channel"], rx_antennas=512), symbols_per_trial=100_000,
                    trials=1, schemes=[{"type": "optimal"}])

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (512 * 2 ** 20, 512 * 2 ** 20))

        done = run_fapsim(["ber", "--config", write_config(tmp_path, tree)],
                          env={"OPENBLAS_NUM_THREADS": "1"}, preexec_fn=limit)
        err = done.stderr.decode()
        assert done.returncode == 2 and done.stdout == b""
        assert err.startswith("numeric error: ") and "Traceback" not in err

    def test_beam_pattern_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # An odd grid at M = 1024: a BLAS product here gave thread-count-dependent gains.
        cfg = write_config(tmp_path, {"channel": {"tx_antennas": 1024},
                                      "beam_pattern": {"grid_size": 777, "gammas": [1, 2]}})
        outs = [run_fapsim(["beam-pattern", "--config", cfg], env={"OPENBLAS_NUM_THREADS": n})
                for n in ("1", "2")]
        assert [done.returncode for done in outs] == [0, 0]
        assert outs[0].stdout == outs[1].stdout

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
    # One point more than a {start, stop, step} range may expand to (exact binary steps).
    ("overhead", dict(TINY, snr_db={"start": -40.0, "stop": -40.0 + cli.MAX_SNR_POINTS / 128,
                                    "step": 1 / 128}), [], "snr_db"),
    # Values past an upper bound that, unbounded, reach numpy as an allocation, an `arange` or
    # a loop of that size, or as a non-finite steering phase.
    ("rate", dict(TINY, channel=dict(TINY["channel"], tx_antennas=2 ** 70)), [],
     "channel.tx_antennas"),
    ("rate", TINY, ["--trials", str(2 ** 70), "--workers", "2"], "trials"),
    ("overhead", dict(TINY, channel=dict(TINY["channel"], spacing_over_wavelength=1e308)), [],
     "channel.spacing_over_wavelength"),
    ("rate", dict(TINY, channel=dict(TINY["channel"], rays_per_cluster=2 ** 70)), [],
     "channel.rays_per_cluster"),
    ("rate", dict(TINY, channel=dict(TINY["channel"], clusters=2 ** 40)), [], "channel.clusters"),
    ("ber", dict(TINY, symbols_per_trial=2 ** 70), [], "symbols_per_trial"),
    ("rate", _with_scheme(1, angle_codebook_size=2 ** 40), [], "schemes[1].angle_codebook_size"),
    ("rate", _with_scheme(1, gamma=2 ** 20), [], "schemes[1].gamma"),
    ("rate", _with_scheme(1, coeff_codebook={"magnitude_levels": 2 ** 70, "phase_levels": 16}),
     [], "schemes[1].coeff_codebook.magnitude_levels"),
    ("beam-pattern", dict(TINY, beam_pattern={"grid_size": 2 ** 70}), [], "beam_pattern.grid_size"),
    ("beam-pattern", dict(TINY, beam_pattern={"codebook_size": 2 ** 40}), [],
     "beam_pattern.codebook_size"),
    # An SNR list has the range form's length bound, and its errors name `snr_db`.
    ("rate", dict(TINY, snr_db=[0.0] * (cli.MAX_SNR_POINTS + 1)), [], "snr_db: "),
    ("overhead", dict(TINY, snr_db=[]), [], "snr_db: "),
    # A pool size below one, for every command; a gamma listed twice, as a flag or in the file.
    ("rate", TINY, ["--workers", "0"], "--workers: must be >= 1, got 0"),
    ("overhead", TINY, ["--workers", "-3"], "--workers: must be >= 1, got -3"),
    ("beam-pattern", TINY, ["--gammas", "2,2"], "beam_pattern.gammas: entries must be unique"),
    ("beam-pattern", dict(TINY, beam_pattern={"gammas": [1, 1]}), [],
     "beam_pattern.gammas: entries must be unique"),
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


def _leaves(node, path=()):
    """Paths of every scalar in a config tree (list entries included)."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path]
    return [leaf for key, child in items for leaf in _leaves(child, path + (key,))]


FAST_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)       # libyaml when built with it
FUZZ_VALUES = [None, 0, -1, 0.5, 1e308, math.nan, math.inf, "x", [], {}, True, 2 ** 70]
FUZZ_COMMANDS = [["overhead"], ["rate", "--trials", "1"], ["ber", "--trials", "1"], ["beam-pattern"]]


def test_fuzzed_reference_config_never_escapes_main(tmp_path, capsys):
    # Every leaf of the reference YAML, replaced by each hostile value in turn, through every
    # command: the trial-running ones reach the channel draw, OMP, the detector and the grid.
    reference = yaml.safe_load(REFERENCE_YAML.read_text(encoding="utf-8"))
    path = tmp_path / "fuzz.yaml"
    failures = []
    for leaf in _leaves(reference):
        for value in FUZZ_VALUES:
            tree = copy.deepcopy(reference)
            node = tree
            for key in leaf[:-1]:
                node = node[key]
            node[leaf[-1]] = value
            path.write_text(yaml.dump(tree, Dumper=FAST_DUMPER), encoding="utf-8")
            for command in FUZZ_COMMANDS:
                try:
                    code = cli.main(command + ["--config", str(path)])
                except BaseException as exc:              # anything escaping main fails
                    failures.append((command[0], leaf, value, repr(exc)))
                    continue
                err = capsys.readouterr().err
                if (code not in (0, 1) or "Traceback" in err
                        or (code == 1) != err.startswith("config error: ")):
                    failures.append((command[0], leaf, value, code, err))
    assert not failures


def _range_key(path):
    """The RANGES key of a config path: its last name, `name[]` for a list entry."""
    return f"{path[-2]}[]" if isinstance(path[-1], int) else path[-1]


# The reference config with every cross-field relation slack at the lowest bounds (one stream,
# K = Q = 1, center index 0) and a quantized codebook, so each RANGES key has a leaf to set.
BOUNDS_BASE = copy.deepcopy(cli.DEFAULT_CONFIG)
BOUNDS_BASE.update(streams=1, schemes=[
    {"type": "proposed", "k": 1, "gamma": 1, "angle_codebook_size": 256,
     "coeff_codebook": {"magnitude_levels": 16, "phase_levels": 16}},
    {"type": "sparse", "q": 1, "angle_codebook_size": 256},
    {"type": "multilevel", "k": 1, "angle_codebook_size": 256},
])
BOUNDS_BASE["beam_pattern"]["center_index"] = 0


def _with_leaf(key, bound, step):
    """BOUNDS_BASE with the first leaf or list of RANGES `key` at `bound`, moved `step` ulps or
    units outward (a list gets that many entries); an `snr_db` list when the key needs one.
    Returns (tree, the field as errors name it)."""
    for tree in (copy.deepcopy(BOUNDS_BASE), dict(copy.deepcopy(BOUNDS_BASE), snr_db=[0.0])):
        lists = [leaf[:-1] for leaf in _leaves(tree) if isinstance(leaf[-1], int)]
        paths = [path for path in _leaves(tree) + lists if _range_key(path) == key]
        if paths:
            break
    else:
        raise AssertionError(f"no config leaf for RANGES key {key!r}")
    *parents, last = paths[0]
    parent = functools.reduce(operator.getitem, parents, tree)
    node = parent[last]
    if isinstance(node, list):
        # Integer entries count up from the first, since `gammas` entries must be unique.
        size = bound + step
        grown = range(node[0], node[0] + size) if isinstance(node[0], int) else node * size
        parent[last] = list(grown)[:size]
    elif isinstance(bound, float):
        parent[last] = math.nextafter(bound, math.copysign(math.inf, step)) if step else bound
    else:
        parent[last] = bound + step
    return tree, "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in paths[0]).lstrip(".")


@pytest.mark.parametrize("key, side", [(key, side) for key in cli.RANGES for side in (0, 1)],
                         ids=[f"{key}-{side}" for key in cli.RANGES for side in ("lo", "hi")])
def test_every_range_bound_is_inclusive(tmp_path, capsys, key, side):
    outward = -1 if side == 0 else 1
    path = tmp_path / "cfg.yaml"
    tree, field = _with_leaf(key, cli.RANGES[key][side], 0)
    path.write_text(yaml.dump(tree, Dumper=FAST_DUMPER), encoding="utf-8")
    code = cli.main(["overhead", "--config", str(path)])
    err = capsys.readouterr().err
    # At the bound the range accepts the value; only a cross-field relation may still refuse it.
    assert code == 0 or not (err.startswith(f"config error: {field}: ") and "is outside" in err), err
    tree, field = _with_leaf(key, cli.RANGES[key][side], outward)
    path.write_text(yaml.dump(tree, Dumper=FAST_DUMPER), encoding="utf-8")
    assert cli.main(["overhead", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}: ") and "is outside" in err, err
