"""CLI subcommands and the key-value config format."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import aedl
from aedl.cli import _apply_thread_override, main
from aedl.config import experiment_config_from_file, synthetic_spec_from_file
from aedl.data import SyntheticSpec, load_dataset
from aedl.experiment import ConfigError, ExperimentConfig

SYNTH_SPEC = """\
# three well separated classes
class_count = 3
patch_size = 5
channels = 2
instances_per_class = 40
covariance_scale = 1.0
speckle_intensity = 0.2
class_separation = 2.5
seed = 9
"""

RUN_CONFIG = """\
network = wcrn
strategy = {strategy}
synthetic.class_count = 3
synthetic.patch_size = 5
synthetic.channels = 2
synthetic.instances_per_class = 60
synthetic.class_separation = 2.5
synthetic.seed = 3
per_class_seed = 3
batch_per_round = 4
round_count = 2
candidate_size = 60
test_size = 60
initial_epochs = 3
finetune_epochs = 2
snapshot_interval_epochs = 1
committee_size = 2
monte_carlo_runs = 2
seed = 11
"""


def write_run_config(tmp_path, strategy="bt", name="run.cfg", extra=""):
    path = tmp_path / name
    path.write_text(RUN_CONFIG.format(strategy=strategy) + extra)
    return path


class TestDatasetSynth:
    def test_writes_loadable_dataset(self, tmp_path, capsys):
        spec = tmp_path / "spec.cfg"
        spec.write_text(SYNTH_SPEC)
        out = tmp_path / "data.psar"
        assert main(["dataset", "synth", "--spec", str(spec), "--out", str(out)]) == 0
        ds = load_dataset(out)
        assert len(ds) == 120 and ds.class_count == 3
        assert "120 patches" in capsys.readouterr().out

    def test_bad_spec_key_fails_with_diagnostic(self, tmp_path, capsys):
        spec = tmp_path / "spec.cfg"
        spec.write_text("class_count = 3\nwidth = 5\n")
        code = main(["dataset", "synth", "--spec", str(spec), "--out", str(tmp_path / "x")])
        assert code == 2
        assert "width" in capsys.readouterr().err


class TestRun:
    def test_run_exports_and_prints_summary(self, tmp_path, capsys):
        config = write_run_config(tmp_path)
        out = tmp_path / "results"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "aggregate.csv").exists()
        assert (out / "manifest.json").exists()
        assert (out / "run_seed11.csv").exists()
        assert "terminal OA" in capsys.readouterr().out

    def test_repeat_runs_byte_identical_aggregate(self, tmp_path):
        config = write_run_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(config), "--out", str(out_a)]) == 0
        assert main(["run", "--config", str(config), "--out", str(out_b)]) == 0
        assert (out_a / "aggregate.csv").read_bytes() == (out_b / "aggregate.csv").read_bytes()

    def test_invalid_config_is_rejected_nonzero(self, tmp_path, capsys):
        config = write_run_config(tmp_path, extra="committee_size = 99\n")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "duplicate" in err

    def test_missing_output_dir_fails(self, tmp_path):
        config = write_run_config(tmp_path)
        with pytest.raises(SystemExit, match="output"):
            main(["run", "--config", str(config)])


class TestSweep:
    def test_sweep_writes_one_directory_per_size(self, tmp_path, capsys):
        config = write_run_config(tmp_path, strategy="aedl-bt")
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", str(config), "--committee-sizes", "1,2",
                     "--out", str(out)])
        assert code == 0
        assert (out / "n1" / "aggregate.csv").exists()
        assert (out / "n2" / "aggregate.csv").exists()
        assert "committee size 2" in capsys.readouterr().out

    def test_oversized_committee_rejected(self, tmp_path, capsys):
        config = write_run_config(tmp_path, strategy="aedl-bt")
        code = main(["sweep", "--config", str(config), "--committee-sizes", "1,9",
                     "--out", str(tmp_path / "s")])
        assert code == 2
        assert "committee size 9" in capsys.readouterr().err


class TestReport:
    def test_report_prints_ratios_and_agreement(self, tmp_path, capsys):
        root = tmp_path / "exports"
        for strategy in ("rs", "aedl-bt"):
            config = write_run_config(tmp_path, strategy=strategy, name=f"{strategy}.cfg")
            assert main(["run", "--config", str(config), "--out", str(root / strategy)]) == 0
        capsys.readouterr()
        assert main(["report", "--in", str(root), "--target-oa", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "samples to reach OA" in out
        assert "agreement histogram" in out
        assert "aedl-bt" in out

    def test_ratios_pair_curves_of_one_network_only(self, tmp_path, capsys):
        def export(strategy, network, oas):
            out = tmp_path / f"{strategy}-{network}"
            out.mkdir()
            rows = [f"{strategy},{network},0,{r},{10 * (r + 1)},{oa}" for r, oa in enumerate(oas)]
            header = "strategy,network,seed,round,labeled_count,oa"
            (out / "aggregate.csv").write_text("\n".join([header, *rows]) + "\n")

        export("aedl-bt", "wcrn", [0.5, 0.7, 0.9])
        export("rs", "hresnet", [0.4, 0.6, 0.8])
        assert main(["report", "--in", str(tmp_path), "--target-oa", "0.6"]) == 0
        assert "ratio" not in capsys.readouterr().out
        export("bt", "wcrn", [0.4, 0.6, 0.8])
        assert main(["report", "--in", str(tmp_path), "--target-oa", "0.6"]) == 0
        out = capsys.readouterr().out
        assert "aedl-bt/bt on wcrn: 0.750" in out
        assert "/rs" not in out

    def test_group_with_mismatched_grids_is_named(self, tmp_path, capsys):
        header = "strategy,network,seed,round,labeled_count,oa"
        rows = ["bt,wcrn,0,0,10,0.5", "bt,wcrn,0,1,20,0.7", "bt,wcrn,1,0,10,0.5", "bt,wcrn,1,1,30,0.8"]
        (tmp_path / "aggregate.csv").write_text("\n".join([header, *rows]) + "\n")
        assert main(["report", "--in", str(tmp_path)]) == 0
        assert "skipped bt on wcrn" in capsys.readouterr().out

    def test_repeated_run_in_two_exports_fails_naming_both(self, tmp_path):
        # A sweep writes one export per committee size with the same seeds;
        # merging them would overwrite curves and pool the histograms.
        for size in (1, 3):
            out = tmp_path / f"n{size}"
            out.mkdir()
            (out / "aggregate.csv").write_text(
                "strategy,network,seed,round,labeled_count,oa\n"
                "aedl-bt,wcrn,0,0,10,0.5\naedl-bt,wcrn,0,1,20,0.7\n"
            )
            (out / "agreement.csv").write_text(
                "strategy,network,seed,round,majority_size,count\n"
                f"aedl-bt,wcrn,0,1,{size},30\n"
            )
        with pytest.raises(SystemExit, match=r"n1.aggregate\.csv.*n3.aggregate\.csv"):
            main(["report", "--in", str(tmp_path)])

    def test_report_on_empty_directory_fails(self, tmp_path):
        with pytest.raises(SystemExit, match="no aggregate"):
            main(["report", "--in", str(tmp_path)])


EVERY_EXPERIMENT_FIELD = """\
network = hresnet
strategy = rs
dataset = data/scene.npz
per_class_seed = 4
batch_per_round = 3
round_count = 2
candidate_size = 500
test_size = 400
initial_epochs = 7
finetune_epochs = 12
snapshot_interval_epochs = 3
committee_size = 4
monte_carlo_runs = 2
seed = 11
seeds = 5, 6, 7
learning_rate = 0.005
train_batch_size = 16
output_dir = out/here
"""

EVERY_SYNTHETIC_FIELD = """\
class_count = 2
patch_size = 7
channels = 3
instances_per_class = 50
covariance_scale = 0.5
speckle_intensity = 0.25
class_separation = 1.5
seed = 4
class_means = 0, 1, 2; 1.5, 0.5, -1
"""

EVERY_SYNTHETIC_SPEC = SyntheticSpec(
    class_count=2, patch_size=7, channels=3, instances_per_class=50,
    covariance_scale=0.5, speckle_intensity=0.25, class_separation=1.5, seed=4,
    class_means=((0.0, 1.0, 2.0), (1.5, 0.5, -1.0)),
)


class TestConfigFiles:
    def test_every_field_reads_back(self, tmp_path):
        experiment = tmp_path / "experiment.cfg"
        experiment.write_text(EVERY_EXPERIMENT_FIELD)
        assert experiment_config_from_file(experiment) == ExperimentConfig(
            network="hresnet", strategy="rs", dataset_path="data/scene.npz",
            per_class_seed=4, batch_per_round=3, round_count=2, candidate_size=500,
            test_size=400, initial_epochs=7, finetune_epochs=12,
            snapshot_interval_epochs=3, committee_size=4, monte_carlo_runs=2, seed=11,
            seeds=(5, 6, 7), learning_rate=0.005, train_batch_size=16,
            output_dir="out/here",
        )
        prefixed = tmp_path / "synthetic.cfg"
        prefixed.write_text("".join(
            f"synthetic.{line}\n" for line in EVERY_SYNTHETIC_FIELD.splitlines()
        ))
        assert experiment_config_from_file(prefixed) == ExperimentConfig(
            synthetic=EVERY_SYNTHETIC_SPEC
        )
        spec = tmp_path / "spec.cfg"
        spec.write_text(EVERY_SYNTHETIC_FIELD)
        assert synthetic_spec_from_file(spec) == EVERY_SYNTHETIC_SPEC

    def test_full_round_trip(self, tmp_path):
        config = experiment_config_from_file(write_run_config(tmp_path, strategy="aedl-me"))
        assert config.strategy == "aedl-me"
        assert config.synthetic.class_count == 3
        assert config.committee_size == 2
        assert config.seed == 11
        assert config.dataset_path is None

    def test_explicit_seed_list(self, tmp_path):
        config = experiment_config_from_file(
            write_run_config(tmp_path, extra="seeds = 5, 6, 7\n")
        )
        assert config.seeds == (5, 6, 7)
        assert config.run_seeds() == (5, 6, 7)

    def test_unknown_key_names_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("network = wcrn\nbogus = 1\n")
        with pytest.raises(ConfigError, match=r"bad.cfg:2.*bogus"):
            experiment_config_from_file(path)

    @pytest.mark.parametrize("line", ["report_single_oa = true", "beta1 = 0.5"])
    def test_removed_keys_are_unknown(self, tmp_path, line):
        path = write_run_config(tmp_path, extra=line + "\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            experiment_config_from_file(path)

    def test_type_error_names_key(self, tmp_path):
        cases = [
            ("seed = 11", "seed = eleven", r"run\.cfg:19: seed must be an integer"),
            ("synthetic.seed = 3", "synthetic.seed = 3.5", r"run\.cfg:8: synthetic\.seed must"),
        ]
        for line, bad, match in cases:
            path = write_run_config(tmp_path)
            path.write_text(path.read_text().replace(line, bad))
            with pytest.raises(ConfigError, match=match):
                experiment_config_from_file(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-1e-3"])
    def test_bad_learning_rate_rejected(self, tmp_path, value):
        path = write_run_config(tmp_path, extra=f"learning_rate = {value}\n")
        with pytest.raises(ConfigError, match="learning_rate"):
            experiment_config_from_file(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just some words\n")
        with pytest.raises(ConfigError, match="key = value"):
            experiment_config_from_file(path)

    def test_missing_class_count_is_named(self, tmp_path):
        spec = tmp_path / "spec.cfg"
        spec.write_text("channels = 2\n")
        with pytest.raises(ConfigError, match="class_count"):
            synthetic_spec_from_file(spec)
        run = tmp_path / "run.cfg"
        run.write_text("synthetic.channels = 2\n")
        with pytest.raises(ConfigError, match="class_count"):
            experiment_config_from_file(run)

    def test_class_means_parsing(self, tmp_path):
        path = tmp_path / "spec.cfg"
        path.write_text(
            "class_count = 2\nchannels = 2\nclass_means = 0.0, 1.0; 1.0, 0.0\n"
        )
        spec = synthetic_spec_from_file(path)
        assert spec.class_means == ((0.0, 1.0), (1.0, 0.0))


def _stripped_env():
    """A bare child environment: no inherited BLAS thread settings can mask the
    override, and PYTHONPATH points at the directory holding the aedl package
    this session imported (a source checkout's src/ or site-packages)."""
    return {
        "PATH": "/usr/bin:/bin",
        "AEDL_THREADS": "1",
        "PYTHONPATH": str(Path(aedl.__file__).resolve().parents[1]),
    }


def test_module_entry_point_with_thread_override(tmp_path):
    spec = tmp_path / "spec.cfg"
    spec.write_text(SYNTH_SPEC)
    out = tmp_path / "data.psar"
    proc = subprocess.run(
        [sys.executable, "-m", "aedl.cli", "dataset", "synth",
         "--spec", str(spec), "--out", str(out)],
        capture_output=True, text=True,
        env=_stripped_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


def test_cli_import_leaves_numpy_unloaded():
    # The override must run before numpy first loads, so importing the CLI
    # module (and the lazy package above it) may not pull numpy in.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, aedl.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True,
        env=_stripped_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


TINY_SYNTHETIC_RUN = """
import sys
import aedl.config
from aedl.data import SyntheticSpec
from aedl.experiment import ExperimentConfig, run_single
spec = SyntheticSpec(class_count=2, patch_size=5, channels=2, instances_per_class=20)
run_single(ExperimentConfig(
    synthetic=spec, strategy="aedl-bt", per_class_seed=2, batch_per_round=2, round_count=1,
    candidate_size=10, test_size=10, initial_epochs=1, finetune_epochs=2, committee_size=1,
), seed=0)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_synthetic_run_leaves_scipy_unloaded():
    # scipy is a test-only dependency: generating data and running the
    # pipeline may not load it (it would add ~27 MB to every worker).
    proc = subprocess.run(
        [sys.executable, "-c", TINY_SYNTHETIC_RUN],
        capture_output=True, text=True,
        env=_stripped_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_config_import_leaves_pool_modules_unloaded():
    # Only a parallel Monte Carlo run needs them; every `import aedl.config`
    # would pay for loading them.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, aedl.config; "
         "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])"],
        capture_output=True, text=True,
        env=_stripped_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_thread_override_sets_blas_vars_and_keeps_preset(monkeypatch):
    blas_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    for var in blas_vars:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("AEDL_THREADS", "1")
    _apply_thread_override()
    assert all(os.environ[var] == "1" for var in blas_vars)

    for var in blas_vars:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    _apply_thread_override()
    assert os.environ["OMP_NUM_THREADS"] == "3"
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"


def test_lazy_package_exports():
    import aedl

    assert callable(aedl.build_wcrn)
    assert "run_monte_carlo" in dir(aedl)
    with pytest.raises(AttributeError):
        aedl.not_a_thing
