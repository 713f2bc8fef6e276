import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fedrf import cli, config as cfg_mod, datafile, federation, modality

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def write_cfg(tmp_path, overrides=None, name="cfg.json"):
    raw = overrides or {}
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


# ---------------------------------------------------------------------------
# config parsing

def test_defaults_from_empty_config(tmp_path):
    cfg = cfg_mod.parse_config(write_cfg(tmp_path, {}))
    assert cfg.dataset.num_transmitters == 16
    assert cfg.partition.mode == "noniid"
    assert cfg.training.modalities == ("iq", "dft", "amp_phase")
    assert cfg.training.seeds == (1, 2, 3, 4, 5)


def test_m3_selection(tmp_path):
    cfg = cfg_mod.parse_config(
        write_cfg(tmp_path, {"training": {"modalities": ["iq", "dft", "amp_phase"]}})
    )
    assert len(cfg.training.modalities) == 3


def test_negative_eta_names_key(tmp_path):
    with pytest.raises(cfg_mod.ConfigError, match="training.eta"):
        cfg_mod.parse_config(write_cfg(tmp_path, {"training": {"eta": -0.5}}))


def test_unknown_keys_rejected(tmp_path):
    with pytest.raises(cfg_mod.ConfigError, match="unknown key: frobnicate"):
        cfg_mod.parse_config(write_cfg(tmp_path, {"frobnicate": {}}))
    with pytest.raises(cfg_mod.ConfigError, match="unknown key: training.foo"):
        cfg_mod.parse_config(write_cfg(tmp_path, {"training": {"foo": 1}}))
    # the shared-label count is derived from the data, not set
    with pytest.raises(cfg_mod.ConfigError, match="unknown key: partition.overlap_pairs"):
        cfg_mod.parse_config(write_cfg(tmp_path, {"partition": {"overlap_pairs": 4}}))


def test_malformed_and_missing(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(cfg_mod.ConfigError, match="malformed"):
        cfg_mod.parse_config(bad)
    with pytest.raises(FileNotFoundError):
        cfg_mod.parse_config(tmp_path / "absent.json")


def test_invalid_values_named(tmp_path):
    cases = [
        ({"dataset": {"per_tx_count": 0}}, "dataset.per_tx_count"),
        ({"dataset": {"test_fraction": 1.5}}, "dataset.test_fraction"),
        ({"partition": {"mode": "bogus"}}, "partition.mode"),
        ({"training": {"modalities": ["nope"]}}, "training.modalities"),
        ({"training": {"batch_size": 0}}, "training.batch_size"),
        ({"model": {"l2_coeff": -1.0}}, "model.l2_coeff"),
        ({"analysis": {"modality_count": 0}}, "analysis.modality_count"),
    ]
    for raw, key in cases:
        with pytest.raises(cfg_mod.ConfigError, match=key.replace(".", r"\.")):
            cfg_mod.parse_config(write_cfg(tmp_path, raw))


SNR_ERROR = "dataset.snr_db must be Infinity or give a positive finite 10**(snr_db/10), got "

# key, JSON value, parsed value (when accepted), error message (when rejected)
COERCION_CASES = [
    ("dataset.seed", 3, 3, None),
    ("dataset.seed", True, None, "dataset.seed must be an integer, got True"),
    ("dataset.seed", 1.5, None, "dataset.seed must be an integer, got 1.5"),
    ("dataset.snr_db", 5, 5.0, None),
    ("dataset.snr_db", "x", None, "dataset.snr_db must be a number, got 'x'"),
    ("dataset.snr_db", False, None, "dataset.snr_db must be a number, got False"),
    ("personalization.enabled", False, False, None),
    ("personalization.enabled", 1, None, "personalization.enabled must be true or false, got 1"),
    ("partition.mode", "iid", "iid", None),
    ("partition.mode", 1, None, "partition.mode must be a string, got 1"),
    ("dataset.path", None, None, None),
    ("dataset.path", [], None, "dataset.path must be a string, got []"),
    ("personalization.fine_tune_steps", None, None, None),
    ("personalization.fine_tune_steps", "x", None,
     "personalization.fine_tune_steps must be an integer, got 'x'"),
    ("model.block_channels", [4, 6], (4, 6), None),
    ("model.block_channels", [8], None, "model.block_channels must be a list of two integers"),
    ("model.block_channels", [8, "x"], None, "model.block_channels must be an integer, got 'x'"),
    ("training.modalities", ["dft"], ("dft",), None),
    ("training.modalities", [], None, "training.modalities must be a non-empty list"),
    ("training.modalities", ["iq", 1], None, "training.modalities must be a string, got 1"),
    ("training.seeds", [3], (3,), None),
    ("training.seeds", 3, None, "training.seeds must be a non-empty list"),
    ("training.seeds", [1, True], None, "training.seeds must be an integer, got True"),
    ("training", [], None, "training must be a JSON object"),
    ("output_dir", "out", "out", None),
    ("output_dir", None, None, "output_dir must be a string, got None"),
    ("output_dir", 3, None, "output_dir must be a string, got 3"),
    ("dataset.snr_db", math.inf, math.inf, None),
    ("dataset.snr_db", -300, -300.0, None),
    ("dataset.snr_db", math.nan, None, SNR_ERROR + "nan"),
    ("dataset.snr_db", -math.inf, None, SNR_ERROR + "-inf"),
    ("dataset.snr_db", 4000, None, SNR_ERROR + "4000.0"),
    ("dataset.snr_db", -4000, None, SNR_ERROR + "-4000.0"),
    ("analysis.enabled", True, None, "unknown key: analysis.enabled"),
]


@pytest.mark.parametrize("key, value, parsed, error", COERCION_CASES)
def test_values_coerced_by_declared_type(key, value, parsed, error):
    section, _, name = key.rpartition(".")
    raw = {section: {name: value}} if section else {name: value}
    if error is not None:
        with pytest.raises(cfg_mod.ConfigError) as exc:
            cfg_mod.from_dict(raw)
        assert str(exc.value) == error
        return
    cfg = cfg_mod.from_dict(raw)
    got = getattr(getattr(cfg, section) if section else cfg, name)
    assert got == parsed and type(got) is type(parsed)


TINY = 5e-324  # the smallest positive float

# one row per declared bound: key, its first invalid value, the exact error
BOUND_CASES = [
    ("dataset.num_transmitters", 1, "dataset.num_transmitters must be >= 2"),
    ("dataset.per_tx_count", 0, "dataset.per_tx_count must be >= 1"),
    ("dataset.window_len", 1, "dataset.window_len must be >= 2"),
    ("dataset.seed", -1, "dataset.seed must be >= 0"),
    ("partition.num_aps", 0, "partition.num_aps must be >= 1"),
    ("partition.labels_per_ap", 0, "partition.labels_per_ap must be >= 1"),
    ("model.block_channels", [0, 16], "model.block_channels must be >= 1"),
    ("model.block_channels", [8, 0], "model.block_channels must be >= 1"),
    ("model.kernel_len", 0, "model.kernel_len must be >= 1"),
    ("model.hidden", 0, "model.hidden must be >= 1"),
    ("model.l2_coeff", -TINY, "model.l2_coeff must be >= 0"),
    ("training.rounds", -1, "training.rounds must be >= 0"),
    ("training.local_steps", 0, "training.local_steps must be >= 1"),
    ("training.batch_size", 0, "training.batch_size must be >= 1"),
    ("training.eta", 0.0, "training.eta must be > 0"),
    ("training.eval_stride", 0, "training.eval_stride must be >= 1"),
    ("training.seeds", [1, -1], "training.seeds must be >= 0"),
    ("training.seeds", [2**64], "training.seeds must be < 2**64"),
    ("analysis.dim", 0, "analysis.dim must be >= 1"),
    ("analysis.num_aps", 0, "analysis.num_aps must be >= 1"),
    ("analysis.noise_scale", -TINY, "analysis.noise_scale must be >= 0"),
    ("analysis.drift_scale", -TINY, "analysis.drift_scale must be >= 0"),
    ("analysis.mu_target", 0.0, "analysis.mu_target must be > 0"),
    ("analysis.smoothness_target", 0.0, "analysis.smoothness_target must be > 0"),
    ("analysis.rounds", 0, "analysis.rounds must be >= 1"),
    ("analysis.local_steps", 0, "analysis.local_steps must be >= 1"),
    ("analysis.batch_size", 0, "analysis.batch_size must be >= 1"),
    ("analysis.eta", 0.0, "analysis.eta must be > 0"),
    ("analysis.modality_count", 0, "analysis.modality_count must be >= 1"),
    ("analysis.mc_seeds", 0, "analysis.mc_seeds must be >= 1"),
    ("analysis.seed", -1, "analysis.seed must be >= 0"),
    ("personalization.fine_tune_steps", -1, "personalization.fine_tune_steps must be >= 0"),
    *((key, value, f"{key} must be finite, got {value!r}")
      for key in ("model.l2_coeff", "training.eta", "analysis.noise_scale",
                  "analysis.drift_scale", "analysis.mu_target",
                  "analysis.smoothness_target", "analysis.init_radius", "analysis.eta")
      for value in (math.nan, math.inf, -math.inf)),
]


def _one_key(key, value):
    section, name = key.split(".")
    return {section: {name: value}}


@pytest.mark.parametrize("key, value, error", BOUND_CASES)
def test_declared_bound_rejects_first_invalid_value(key, value, error):
    with pytest.raises(cfg_mod.ConfigError) as exc:
        cfg_mod.from_dict(_one_key(key, value))
    assert str(exc.value) == error


def test_every_declared_bound_has_a_row():
    cfg = cfg_mod.ExperimentConfig()
    declared = {
        f"{section.name}.{name}"
        for section in dataclasses.fields(cfg)
        if dataclasses.is_dataclass(getattr(cfg, section.name))
        for name, *_ in cfg_mod._bounds(type(getattr(cfg, section.name)))
    }
    assert declared == {key for key, _, _ in BOUND_CASES}


@pytest.mark.parametrize("key, value", [
    ("dataset.seed", 0), ("model.l2_coeff", 0.0), ("training.eta", TINY),
    ("training.seeds", [0, 2**64 - 1]), ("analysis.init_radius", -1.0),
    ("analysis.seed", 0), ("personalization.fine_tune_steps", 0),
])
def test_declared_bound_accepts_its_edge(key, value):
    cfg_mod.from_dict(_one_key(key, value))


def test_labels_per_ap_bound_holds_in_iid_mode():
    with pytest.raises(cfg_mod.ConfigError, match="partition.labels_per_ap must be >= 1"):
        cfg_mod.from_dict({"partition": {"mode": "iid", "labels_per_ap": 0}})


def test_rules_that_are_not_one_keys_bound():
    cases = [
        ({"model": {"kernel_len": 4}}, "model.kernel_len must be odd"),
        ({"analysis": {"mu_target": 2.0, "smoothness_target": 1.5}},
         "analysis.mu_target must be <= analysis.smoothness_target"),
        ({"dataset": {"test_fraction": math.nan}}, "dataset.test_fraction must be in (0, 1)"),
    ]
    for raw, error in cases:
        with pytest.raises(cfg_mod.ConfigError) as exc:
            cfg_mod.from_dict(raw)
        assert str(exc.value) == error


def test_dataset_path_replaces_generation_keys():
    # the file's label count and window length apply, not the generation keys
    cfg_mod.from_dict({"dataset": {"path": "data.rfds", "window_len": 30},
                       "model": {"kind": "mini_resnet"}})
    cfg_mod.from_dict({"dataset": {"path": "data.rfds", "num_transmitters": 40}})
    with pytest.raises(cfg_mod.ConfigError, match="dataset.window_len"):
        cfg_mod.from_dict({"dataset": {"window_len": 30}, "model": {"kind": "mini_resnet"}})
    with pytest.raises(cfg_mod.ConfigError, match="too small to cover every transmitter"):
        cfg_mod.from_dict({"dataset": {"num_transmitters": 40}})


def test_dataset_path_skips_generation_range_checks(tmp_path, monkeypatch, capsys):
    raw = {"dataset": {"path": "x.rfds", "num_transmitters": 1}}
    cfg_mod.from_dict(raw)
    cfg_mod.from_dict({"dataset": {"path": "x.rfds", "per_tx_count": 0, "window_len": 1,
                                   "seed": -1}})
    with pytest.raises(cfg_mod.ConfigError, match="dataset.num_transmitters must be >= 2"):
        cfg_mod.from_dict({"dataset": {"num_transmitters": 1}})
    monkeypatch.chdir(tmp_path)
    assert cli.main(["run", "--config", str(write_cfg(tmp_path, raw)), "--out", "r"]) == 1
    assert capsys.readouterr().err == (
        "error: [Errno 2] No such file or directory: 'x.rfds'\n"
    )


def test_shipped_configs_parse():
    for name in (
        "desk_noniid.json",
        "desk_iid.json",
        "quad_bound.json",
        "quad_noiseless.json",
        "desk_determinism.json",
    ):
        cfg_mod.parse_config(CONFIG_DIR / name)


# ---------------------------------------------------------------------------
# CLI: gen-data

def run_fedrf(*args):
    """Run the CLI as a user runs it, so warnings and tracebacks reach stderr."""
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, "-m", "fedrf.cli", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def small_desk(tmp_path, **extra):
    raw = {
        "dataset": {"num_transmitters": 4, "per_tx_count": 24, "window_len": 16,
                     "snr_db": 10.0, "seed": 3, "test_fraction": 0.25},
        "partition": {"mode": "iid", "num_aps": 2},
        "model": {"kind": "softmax_linear", "l2_coeff": 1e-3},
        "training": {"rounds": 2, "local_steps": 3, "batch_size": 8, "eta": 0.05,
                      "modalities": ["iq"], "eval_stride": 1, "seeds": [1, 2]},
        "personalization": {"enabled": True, "fine_tune_steps": 4},
    }
    for section, vals in extra.items():
        raw.setdefault(section, {}).update(vals)
    return write_cfg(tmp_path, raw)


def test_gen_data_round_trip_and_determinism(tmp_path):
    cfg_path = small_desk(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert cli.main(["gen-data", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert cli.main(["gen-data", "--config", str(cfg_path), "--out", str(out2)]) == 0
    ds = datafile.read_dataset(out1 / cli.DATASET_FILENAME)
    assert len(ds) == 96
    a = (out1 / cli.DATASET_FILENAME).read_bytes()
    b = (out2 / cli.DATASET_FILENAME).read_bytes()
    assert a == b


def test_gen_data_invalid_config(tmp_path):
    cfg_path = small_desk(tmp_path, dataset={"per_tx_count": 0})
    rc = cli.main(["gen-data", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert rc == 1


@pytest.mark.parametrize("snr_db, shown", [(math.nan, "nan"), (-math.inf, "-inf"),
                                            (4000.0, "4000.0")])
def test_gen_data_rejects_unusable_snr(tmp_path, capsys, snr_db, shown):
    cfg_path = small_desk(tmp_path, dataset={"snr_db": snr_db})
    out = tmp_path / "o"
    assert cli.main(["gen-data", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {SNR_ERROR}{shown}\n"
    assert not (out / cli.DATASET_FILENAME).exists()


def test_gen_data_rejects_snr_beyond_float32_range(tmp_path, capsys):
    # 10**(-100) is a usable ratio, but the noise it asks for overflows float32
    out = tmp_path / "o"
    cfg_path = small_desk(tmp_path, dataset={"snr_db": -1000.0})
    assert cli.main(["gen-data", "--config", str(cfg_path), "--out", str(out)]) == 1
    error = "snr_db -1000.0 puts samples beyond the float32 range"
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not (out / cli.DATASET_FILENAME).exists()
    manifest = json.loads((out / cli.MANIFEST_FILENAME).read_text())
    assert manifest["status"] == "failed" and manifest["error"] == error


@pytest.mark.parametrize("command", ["gen-data", "run"])
@pytest.mark.parametrize("section, key, value", [
    ("training", "eta", math.nan),
    ("training", "eta", math.inf),
    ("model", "l2_coeff", math.nan),
    ("model", "l2_coeff", math.inf),
])
def test_non_finite_eta_and_l2_rejected_in_one_line(tmp_path, capsys, command, section, key, value):
    cfg_path = small_desk(tmp_path, **{section: {key: value}})
    out = tmp_path / "o"
    assert cli.main([command, "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {section}.{key} must be finite, got {value!r}\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# CLI: run

def test_run_rejects_negative_infinite_snr(tmp_path, capsys):
    cfg_path = small_desk(tmp_path, dataset={"snr_db": -math.inf})
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "r")]) == 1
    assert capsys.readouterr().err == f"error: {SNR_ERROR}-inf\n"


def test_run_outputs_and_determinism(tmp_path):
    cfg_path = small_desk(tmp_path)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out2),
                     "--threads", "4"]) == 0
    m1 = (out1 / cli.METRICS_FILENAME).read_text()
    m2 = (out2 / cli.METRICS_FILENAME).read_text()
    assert m1 == m2
    header = m1.splitlines()[0]
    assert header == "run_id,round,global_loss,global_acc,ap0_loss,ap1_loss,bound"
    assert len(m1.splitlines()) == 1 + 2 * 2  # 2 seeds x 2 evaluated rounds
    manifest = json.loads((out1 / cli.MANIFEST_FILENAME).read_text())
    assert manifest["status"] == "complete"
    assert manifest["seeds"] == [1, 2]
    assert (out1 / cli.PERSONALIZE_FILENAME).exists()
    p1 = (out1 / cli.PERSONALIZE_FILENAME).read_text()
    assert p1 == (out2 / cli.PERSONALIZE_FILENAME).read_text()
    assert p1.splitlines()[0] == "run_id,ap,before_acc,after_acc"


def test_run_single_round_single_row(tmp_path):
    cfg_path = small_desk(tmp_path, training={"rounds": 1, "seeds": [5]})
    out = tmp_path / "r"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    lines = (out / cli.METRICS_FILENAME).read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("seed5,1,")


def test_run_model_loadable_and_seed_override(tmp_path):
    cfg_path = small_desk(tmp_path)
    out = tmp_path / "r"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out),
                     "--seed-override", "9"]) == 0
    params, spec, seed, modalities = cli.load_model(out / "model_seed9.npz")
    assert seed == 9
    assert modalities == ("iq",)
    assert spec.kind == "softmax_linear"
    assert params.shape[0] == 16 * 2 * 1 * 4 + 4


def test_seed_override_validated_like_training_seeds(tmp_path, capsys):
    out = tmp_path / "r"
    for seed, rule in ((-1, ">= 0"), (2**64, "< 2**64")):
        assert cli.main(["run", "--config", str(small_desk(tmp_path)), "--out", str(out),
                         "--seed-override", str(seed)]) == 1
        assert capsys.readouterr().err == f"error: training.seeds must be {rule}\n"
        assert not out.exists()


def test_largest_seed_round_trips(tmp_path):
    # np.savez stores 2**64 - 1 as uint64, and load_model reads it back exactly
    cfg_path = small_desk(tmp_path)
    out = tmp_path / "r"
    top = 2**64 - 1
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out),
                     "--seed-override", str(top)]) == 0
    model = out / f"model_seed{top}.npz"
    assert cli.load_model(model)[2] == top
    assert cli.main(["personalize", "--config", str(cfg_path), "--out", str(tmp_path / "p"),
                     "--model", str(model)]) == 0


MINI_RESNET_FILES = (cli.METRICS_FILENAME, "model_seed1.npz", cli.PERSONALIZE_FILENAME,
                     cli.MANIFEST_FILENAME)


def mini_resnet_outputs(tmp_path, name, threads="1", preexec_fn=None):
    """The output files of ``fedrf run`` on a small mini_resnet config, run
    as a user runs it at the given BLAS thread count."""
    # window 64 and batch 32: the larger convolution GEMMs are big enough for
    # OpenBLAS to split them over two threads
    cfg_path = small_desk(tmp_path, dataset={"per_tx_count": 40, "window_len": 64},
                          model={"kind": "mini_resnet"},
                          training={"batch_size": 32, "seeds": [1]})
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "fedrf.cli", "run", "--config", str(cfg_path),
         "--out", str(tmp_path / name)],
        capture_output=True, text=True, env=env, timeout=120, preexec_fn=preexec_fn,
    )
    assert proc.returncode == 0, proc.stderr
    return [(tmp_path / name / f).read_bytes() for f in MINI_RESNET_FILES]


def test_mini_resnet_run_is_byte_identical_at_1_and_2_blas_threads(tmp_path):
    one, two = (mini_resnet_outputs(tmp_path, threads, threads) for threads in ("1", "2"))
    for name, a, b in zip(MINI_RESNET_FILES, one, two):
        assert a == b, f"{name} differs between 1 and 2 BLAS threads"


def test_mini_resnet_run_is_byte_identical_with_and_without_the_helper(tmp_path):
    # pinned to one CPU, fedrf run forks no training helper
    cpu = min(os.sched_getaffinity(0))
    pinned = mini_resnet_outputs(tmp_path, "pinned",
                                 preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    for name, a, b in zip(MINI_RESNET_FILES, pinned, mini_resnet_outputs(tmp_path, "free")):
        assert a == b, f"{name} differs between one CPU and all of them"


def test_manifest_records_the_seeds_each_command_used(tmp_path):
    def seeds(out, status="complete"):
        manifest = json.loads((out / cli.MANIFEST_FILENAME).read_text())
        assert manifest["status"] == status
        return manifest["seeds"]

    cfg_path = small_desk(tmp_path, training={"rounds": 1})
    gen = tmp_path / "g"
    assert cli.main(["gen-data", "--config", str(cfg_path), "--out", str(gen)]) == 0
    assert seeds(gen) == [3]  # dataset.seed
    # copying a dataset file draws no random numbers
    copy = write_cfg(tmp_path, {"dataset": {"path": str(gen / cli.DATASET_FILENAME),
                                            "seed": 5}}, name="copy.json")
    assert cli.main(["gen-data", "--config", str(copy), "--out", str(tmp_path / "c")]) == 0
    assert seeds(tmp_path / "c") == []
    run = tmp_path / "r"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(run),
                     "--seed-override", "7"]) == 0
    assert seeds(run) == [7]
    args = ["personalize", "--config", str(cfg_path), "--out", str(tmp_path / "p"), "--model"]
    assert cli.main([*args, str(run / "model_seed7.npz")]) == 0
    assert seeds(tmp_path / "p") == [7]  # the model file's, not training.seeds
    # a personalize that fails before it has read its model knows no seed
    assert cli.main([*args, str(run / "absent.npz")]) == 1
    assert seeds(tmp_path / "p", "failed") == []
    bound = tmp_path / "b"
    quad = CONFIG_DIR / "quad_noiseless.json"
    assert cli.main(["verify-bound", "--config", str(quad), "--out", str(bound)]) == 0
    assert seeds(bound) == [6]  # analysis.seed
    raw = json.loads((CONFIG_DIR / "quad_bound.json").read_text())
    raw["analysis"]["eta"] = 0.5  # inapplicable: fails after reading analysis.seed
    assert cli.main(["verify-bound", "--config", str(write_cfg(tmp_path, raw)),
                     "--out", str(tmp_path / "b2")]) == 1
    assert seeds(tmp_path / "b2", "failed") == [11]


def test_out_dir_belongs_to_one_command(tmp_path, capsys):
    cfg_path = small_desk(tmp_path, training={"seeds": [1]})
    out = tmp_path / "r"
    argv = ["run", "--config", str(cfg_path), "--out", str(out)]
    for _ in range(2):  # a command may rerun into its own out dir
        assert cli.main(argv) == 0
    manifest = json.loads((out / cli.MANIFEST_FILENAME).read_text())
    assert manifest["command"] == "run"
    # a manifest that names no command belongs to none of them
    del manifest["command"]
    (out / cli.MANIFEST_FILENAME).write_text(json.dumps(manifest))
    capsys.readouterr()
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: out dir {out} holds a manifest.json that names no command; "
        "pass another --out\n"
    )


# ---------------------------------------------------------------------------
# CLI: personalize

def test_personalize_cmd(tmp_path):
    cfg_path = small_desk(tmp_path)
    out = tmp_path / "r"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    pout = tmp_path / "p"
    rc = cli.main(["personalize", "--config", str(cfg_path), "--out", str(pout),
                   "--model", str(out / "model_seed1.npz")])
    assert rc == 0
    lines = (pout / cli.PERSONALIZE_FILENAME).read_text().splitlines()
    assert lines[0] == "ap,before_acc,after_acc"
    manifest = json.loads((pout / cli.MANIFEST_FILENAME).read_text())
    assert manifest["status"] == "complete"
    assert manifest["outputs"] == [cli.PERSONALIZE_FILENAME]
    assert len(lines) == 3  # one row per AP
    # i.i.d.: identical before accuracy at every AP
    befores = {line.split(",")[1] for line in lines[1:]}
    assert len(befores) == 1


def test_personalize_zero_steps_noop(tmp_path):
    cfg_path = small_desk(tmp_path, personalization={"fine_tune_steps": 0})
    out = tmp_path / "r"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    pout = tmp_path / "p"
    assert cli.main(["personalize", "--config", str(cfg_path), "--out", str(pout),
                     "--model", str(out / "model_seed2.npz")]) == 0
    for line in (pout / cli.PERSONALIZE_FILENAME).read_text().splitlines()[1:]:
        _, before, after = line.split(",")
        assert before == after


@pytest.mark.parametrize("field, overrides", [
    ("num_modalities", {"training": {"modalities": ["iq", "dft", "amp_phase"]}}),
    ("window_len", {"dataset": {"window_len": 32}}),
    ("num_classes", {"dataset": {"num_transmitters": 6},
                     "partition": {"mode": "iid", "num_aps": 2}}),
    ("kind", {"model": {"kind": "mini_resnet"}}),
    ("l2_coeff", {"model": {"l2_coeff": 0.5}}),
], ids=["num_modalities", "window_len", "num_classes", "kind", "l2_coeff"])
def test_personalize_rejects_model_config_mismatch(tmp_path, capsys, field, overrides):
    out = tmp_path / "r"
    assert cli.main(["run", "--config", str(small_desk(tmp_path, training={"seeds": [1]})),
                     "--out", str(out)]) == 0
    (tmp_path / "other").mkdir()
    other = small_desk(tmp_path / "other", **overrides)
    capsys.readouterr()
    model = out / "model_seed1.npz"
    rc = cli.main(["personalize", "--config", str(other), "--out", str(tmp_path / "p"),
                   "--model", str(model)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: model {model}: {field} is ")


def test_personalize_pipeline_error_prints_one_line(tmp_path):
    out = tmp_path / "r"
    assert cli.main(["run", "--config", str(small_desk(tmp_path, training={"seeds": [1]})),
                     "--out", str(out)]) == 0
    (tmp_path / "other").mkdir()
    other = small_desk(tmp_path / "other", dataset={"per_tx_count": 1})
    proc = run_fedrf("personalize", "--config", str(other), "--out", str(tmp_path / "p"),
                     "--model", str(out / "model_seed1.npz"))
    assert proc.returncode == 1
    assert proc.stderr == "error: label 0 has fewer than 2 examples to split\n"


def test_personalize_repeats_the_runs_rows(tmp_path):
    # run and personalize build a seed's split, partition and model spec the same way
    cfg_path = small_desk(tmp_path)
    out = tmp_path / "r"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    run_rows = (out / cli.PERSONALIZE_FILENAME).read_text().splitlines()[1:]
    for seed in (1, 2):
        pout = tmp_path / f"p{seed}"
        assert cli.main(["personalize", "--config", str(cfg_path), "--out", str(pout),
                         "--model", str(out / f"model_seed{seed}.npz")]) == 0
        rows = (pout / cli.PERSONALIZE_FILENAME).read_text().splitlines()[1:]
        lead = f"seed{seed},"
        assert rows == [r[len(lead):] for r in run_rows if r.startswith(lead)]
        assert len(rows) == 2


def test_personalize_missing_model(tmp_path, capsys):
    cfg_path = small_desk(tmp_path)
    rc = cli.main(["personalize", "--config", str(cfg_path),
                   "--out", str(tmp_path / "p"), "--model", str(tmp_path / "no.npz")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: model file not found: {tmp_path / 'no.npz'}\n"


def _without(entries, key):
    return {k: v for k, v in entries.items() if k != key}


# each case rewrites the entries of a valid model file (None: 300 random bytes)
BAD_MODELS = {
    "not_npz": (None, "not an .npz archive"),
    "pickled": (lambda e: {**e, "spec": np.array([{"kind": "softmax_linear"}], dtype=object)},
                "Object arrays cannot be loaded when allow_pickle=False"),
    "no_spec": (lambda e: _without(e, "spec"), "no 'spec' entry"),
    "no_modalities": (lambda e: _without(e, "modalities"), "no 'modalities' entry"),
    "spec_rejected": (lambda e: {**e, "spec": str(e["spec"]).replace("softmax_linear", "bogus")},
                      "unknown model kind 'bogus'"),
    "params_length": (lambda e: {**e, "params": e["params"][:-1]},
                      "params has shape (131,), but the spec needs (132,)"),
    "params_complex": (lambda e: {**e, "params": e["params"].astype(np.complex128)},
                       "params has dtype complex128, not float64"),
    "params_nan": (lambda e: {**e, "params": np.where(np.arange(132) == 7, np.nan, e["params"])},
                   "params are not all finite"),
    # json writes NaN, and reads it back
    "l2_nan": (lambda e: {**e, "spec": str(e["spec"]).replace('"l2_coeff": 0.001', '"l2_coeff": NaN')},
               "l2_coeff must be finite and >= 0, got nan"),
    "seed_negative": (lambda e: {**e, "seed": np.int64(-1)}, "seed is -1, not >= 0"),
    "seed_float": (lambda e: {**e, "seed": np.float64(1.5)},
                   "seed has dtype float64 and shape (), not one integer"),
    "seed_vector": (lambda e: {**e, "seed": np.array([1, 2])},
                    "seed has dtype int64 and shape (2,), not one integer"),
}


@pytest.mark.parametrize("case", list(BAD_MODELS))
def test_personalize_rejects_malformed_model(tmp_path, capsys, case):
    cfg_path = small_desk(tmp_path, training={"seeds": [1]})
    out = tmp_path / "r"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    rewrite, reason = BAD_MODELS[case]
    bad = tmp_path / "bad.npz"
    if rewrite is None:
        bad.write_bytes(np.random.default_rng(0).bytes(300))
    else:
        with np.load(out / "model_seed1.npz") as data:
            entries = {key: data[key] for key in data.files}
        np.savez(bad, **rewrite(entries))
    capsys.readouterr()
    rc = cli.main(["personalize", "--config", str(cfg_path), "--out", str(tmp_path / "p"),
                   "--model", str(bad)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: model {bad}: {reason}\n"


def test_personalize_rejects_reordered_modalities(tmp_path, capsys):
    trained = small_desk(tmp_path, training={"seeds": [1], "modalities": ["iq", "dft"]})
    out = tmp_path / "r"
    assert cli.main(["run", "--config", str(trained), "--out", str(out)]) == 0
    (tmp_path / "other").mkdir()
    other = small_desk(tmp_path / "other", training={"modalities": ["dft", "iq"]})
    capsys.readouterr()
    model = out / "model_seed1.npz"
    rc = cli.main(["personalize", "--config", str(other), "--out", str(tmp_path / "p"),
                   "--model", str(model)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: model {model}: modalities is ('iq', 'dft'), "
        "but the config gives ('dft', 'iq')\n"
    )


# ---------------------------------------------------------------------------
# CLI: verify-bound

def test_verify_bound_cmd(tmp_path):
    raw = json.loads((CONFIG_DIR / "quad_bound.json").read_text())
    raw["analysis"]["mc_seeds"] = 50
    raw["analysis"]["rounds"] = 20
    cfg_path = write_cfg(tmp_path, raw)
    out = tmp_path / "b"
    assert cli.main(["verify-bound", "--config", str(cfg_path), "--out", str(out)]) == 0
    summary = json.loads((out / cli.BOUND_SUMMARY_FILENAME).read_text())
    assert summary["violation_count"] == 0
    manifest = json.loads((out / cli.MANIFEST_FILENAME).read_text())
    assert manifest["status"] == "complete"
    assert manifest["outputs"] == [cli.BOUND_SUMMARY_FILENAME, cli.BOUND_TRACE_FILENAME]
    lines = (out / cli.BOUND_TRACE_FILENAME).read_text().splitlines()
    assert lines[0] == "round,empirical_gap,stderr,bound"
    assert len(lines) == 22  # header + rounds 0..20


def test_verify_bound_inapplicable(tmp_path):
    raw = json.loads((CONFIG_DIR / "quad_bound.json").read_text())
    raw["analysis"]["eta"] = 0.5  # eta*J*mu/M = 2.5 >= 1
    cfg_path = write_cfg(tmp_path, raw)
    rc = cli.main(["verify-bound", "--config", str(cfg_path),
                   "--out", str(tmp_path / "b")])
    assert rc == 1


def test_verify_bound_divergence_prints_one_line(tmp_path):
    # eta*J*mu/M = 0.19, so the bound applies, but eta exceeds 2/L: the runs blow up
    raw = json.loads((CONFIG_DIR / "quad_bound.json").read_text())
    raw["analysis"].update(eta=1.9, local_steps=1, mu_target=0.1, smoothness_target=1e6)
    proc = run_fedrf("verify-bound", "--config", str(write_cfg(tmp_path, raw)),
                     "--out", str(tmp_path / "b"))
    assert proc.returncode == 1
    assert proc.stderr == (
        "error: bound check diverged at round 25: empirical gap is not finite\n"
    )


@pytest.mark.parametrize("key, value", [
    ("noise_scale", math.nan),
    ("drift_scale", math.inf),
    ("smoothness_target", math.inf),
    ("mu_target", math.nan),
    ("init_radius", -math.inf),
    ("eta", math.nan),
])
def test_verify_bound_non_finite_analysis_value_prints_one_line(tmp_path, key, value):
    # json.dumps writes NaN and Infinity, which Python's parser reads back
    raw = json.loads((CONFIG_DIR / "quad_bound.json").read_text())
    raw["analysis"][key] = value
    proc = run_fedrf("verify-bound", "--config", str(write_cfg(tmp_path, raw)),
                     "--out", str(tmp_path / "b"))
    assert proc.returncode == 1
    assert proc.stderr == f"error: analysis.{key} must be finite, got {value!r}\n"


def test_noniid_run_on_dataset_file_uses_its_label_count(tmp_path):
    # an 8-transmitter file; the config keeps the 16-transmitter generation default
    gen = small_desk(tmp_path, dataset={"num_transmitters": 8})
    assert cli.main(["gen-data", "--config", str(gen), "--out", str(tmp_path / "d")]) == 0
    raw = json.loads(gen.read_text())
    raw["dataset"] = {"path": str(tmp_path / "d" / cli.DATASET_FILENAME),
                      "test_fraction": 0.25}
    raw["partition"] = {"mode": "noniid", "num_aps": 4, "labels_per_ap": 3}
    out = tmp_path / "r"
    assert cli.main(["run", "--config", str(write_cfg(tmp_path, raw)), "--out", str(out)]) == 0
    assert json.loads((out / cli.MANIFEST_FILENAME).read_text())["status"] == "complete"
    # 4 APs x 5 labels needs 12 shared labels, more than the file's 8
    raw["partition"]["labels_per_ap"] = 5
    out = tmp_path / "r5"
    assert cli.main(["run", "--config", str(write_cfg(tmp_path, raw)), "--out", str(out)]) == 1
    manifest = json.loads((out / cli.MANIFEST_FILENAME).read_text())
    assert manifest["error"] == "more overlap slots than labels (a label would need >2 APs)"


def test_run_failure_writes_manifest(tmp_path):
    # dataset path that does not exist -> run fails, manifest records it
    cfg_path = small_desk(tmp_path, dataset={"path": str(tmp_path / "missing.rfds")})
    out = tmp_path / "r"
    rc = cli.main(["run", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 1
    manifest = json.loads((out / cli.MANIFEST_FILENAME).read_text())
    assert manifest["status"] == "failed"
    assert manifest["error"]


def test_run_divergence_fails_with_round(tmp_path, capsys):
    # the l2 term multiplies the parameters by (1 - eta * l2) per step, so they
    # overflow to inf within a few rounds and then turn into nan
    cfg_path = small_desk(tmp_path, training={"eta": 1e30, "rounds": 6})
    out = tmp_path / "r"
    with np.errstate(all="ignore"):
        rc = cli.main(["run", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 1
    error = "training diverged at round 4: parameters are not finite"
    manifest = json.loads((out / cli.MANIFEST_FILENAME).read_text())
    assert manifest["status"] == "failed"
    assert manifest["error"] == error
    assert error in capsys.readouterr().err


def test_run_fine_tuning_divergence_fails(tmp_path, capsys):
    # one training step stays finite; 20 fine-tuning steps at this eta overflow
    cfg_path = small_desk(tmp_path, training={"eta": 1e30, "rounds": 1, "local_steps": 1,
                                              "seeds": [1]},
                          personalization={"fine_tune_steps": 20})
    out = tmp_path / "r"
    rc = cli.main(["run", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 1
    manifest = json.loads((out / cli.MANIFEST_FILENAME).read_text())
    assert manifest["status"] == "failed"
    error = "fine-tuning diverged at AP 0: parameters are not finite"
    assert manifest["error"] == error
    assert capsys.readouterr().err == f"error: {error}\n"
    rc = cli.main(["personalize", "--config", str(cfg_path), "--out", str(tmp_path / "p"),
                   "--model", str(out / "model_seed1.npz")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {error}\n"


def test_run_divergence_prints_one_line(tmp_path):
    # fedrf run as a user runs it: NumPy overflow warnings would reach stderr
    raw = json.loads((CONFIG_DIR / "desk_determinism.json").read_text())
    raw["training"]["eta"] = 1e6
    raw["training"]["seeds"] = [1]
    cfg_path = write_cfg(tmp_path, raw)
    out = tmp_path / "r"
    proc = run_fedrf("run", "--config", str(cfg_path), "--out", str(out))
    error = "training diverged at round 8: parameters are not finite"
    assert proc.returncode == 1
    assert proc.stderr == f"error: {error}\n"
    manifest = json.loads((out / cli.MANIFEST_FILENAME).read_text())
    assert manifest["status"] == "failed"
    assert manifest["error"] == error


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["one_process", "helper"])
def test_mini_resnet_divergence_fails_with_round(tmp_path, capfd, monkeypatch, cpus):
    # two CPUs fork the training helper, which has finished round 1 when the
    # aggregate of round 2 overflows
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    cfg_path = small_desk(tmp_path, model={"kind": "mini_resnet"},
                          training={"eta": 1e3, "rounds": 6, "seeds": [1]})
    out = tmp_path / "r"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
    error = "training diverged at round 2: parameters are not finite"
    assert capfd.readouterr().err == f"error: {error}\n"
    manifest = json.loads((out / cli.MANIFEST_FILENAME).read_text())
    assert (manifest["status"], manifest["error"]) == ("failed", error)
    _no_child_left()


@pytest.mark.parametrize("fault, error", [
    # the helper's message keeps to one line
    ("raise", "training helper failed in round 2: ValueError: no shard"),
    ("exit", "training helper process ended during round 2"),
])
def test_failed_training_helper_fails_the_run_with_one_line(tmp_path, capfd, monkeypatch,
                                                            fault, error):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    parent, calls = os.getpid(), []
    local_train = federation.local_train

    def faulty(*args, **kwargs):
        calls.append(1)
        # the helper's second call is in round 2
        if os.getpid() != parent and len(calls) == 2:
            if fault == "exit":
                os._exit(3)
            raise ValueError("no\nshard")
        return local_train(*args, **kwargs)

    monkeypatch.setattr(federation, "local_train", faulty)
    cfg_path = small_desk(tmp_path, model={"kind": "mini_resnet"}, training={"seeds": [1]})
    out = tmp_path / "r"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capfd.readouterr().err == f"error: {error}\n"
    manifest = json.loads((out / cli.MANIFEST_FILENAME).read_text())
    assert (manifest["status"], manifest["error"]) == ("failed", error)
    _no_child_left()


def test_run_fits_normalization_once_per_shard(tmp_path, monkeypatch):
    selections = []
    fit = modality.fit_normalization

    def counting_fit(iq, selection):
        selections.append(tuple(selection))
        return fit(iq, selection)

    monkeypatch.setattr(modality, "fit_normalization", counting_fit)
    cfg_path = small_desk(tmp_path, training={"seeds": [1]})
    cfg = cfg_mod.parse_config(cfg_path)
    assert cfg.personalization.enabled and cfg.training.modalities == ("iq",)
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "r")]) == 0
    # two AP shards; the training pool's stats are added up from theirs
    assert selections == [("iq",)] * 2  # only the selected modality is fit


# ---------------------------------------------------------------------------
# CLI: usage

@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["run"], "the following arguments are required: --config"),
    (["run", "--config", "c.json", "--seed-override", "abc"],
     "argument --seed-override: invalid int value: 'abc'"),
    (["gen-data", "--config", "c.json", "--seed-override", "1"],
     "unrecognized arguments: --seed-override 1"),
    (["verify-bound", "--config", "c.json", "--seed-override", "1"],
     "unrecognized arguments: --seed-override 1"),
    (["personalize", "--config", "c.json", "--model", "m.npz", "--seed-override", "1"],
     "unrecognized arguments: --seed-override 1"),
], ids=["no_command", "no_config", "seed_not_int", "gen_data_seed", "verify_bound_seed",
        "personalize_seed"])
def test_usage_error_is_one_error_line(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, shown", [(["--version"], cli.__version__),
                                         (["run", "--help"], "usage: fedrf run")])
def test_help_and_version_exit_0(capsys, argv, shown):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith(shown) and err == ""


# ---------------------------------------------------------------------------
# CLI: every failure is one error line, exit 1 and, once the out dir exists,
# a "failed" manifest

NO_OUT_DIR = ("out_is_file", "config_is_directory", "config_not_utf8", "seed_2_64",
              "analysis_seed_negative", "no_config", "seed_override")
FAILURE_CASES = [
    *(("run", what) for what in NO_OUT_DIR[:4]),
    ("verify-bound", "analysis_seed_negative"),
    ("run", "no_config"),
    ("verify-bound", "seed_override"),
    *((command, f"dataset_{state}") for command in ("gen-data", "run")
      for state in ("missing", "directory", "bad_magic")),
    ("verify-bound", "inapplicable"),
    ("personalize", "missing_model"),
    ("personalize", "run_out_dir"),
]


def failure_case(tmp_path, command, what):
    """``(argv, error message)`` of one failing call."""
    out, data = tmp_path / "o", tmp_path / "data.rfds"
    cfg_path = small_desk(tmp_path, dataset={"path": str(data)})
    extra = []
    if what == "out_is_file":
        out.write_text("")
        message = f"[Errno 17] File exists: '{out}'"
    elif what == "config_is_directory":
        cfg_path = tmp_path / "cfg_dir"
        cfg_path.mkdir()
        message = f"cannot read config {cfg_path}: [Errno 21] Is a directory: '{cfg_path}'"
    elif what == "config_not_utf8":
        cfg_path.write_bytes(b'{"output_dir": "\xff"}')
        message = (f"cannot read config {cfg_path}: 'utf-8' codec can't decode byte 0xff "
                   "in position 16: invalid start byte")
    elif what == "dataset_missing":
        message = f"[Errno 2] No such file or directory: '{data}'"
    elif what == "dataset_directory":
        data.mkdir()
        message = f"[Errno 21] Is a directory: '{data}'"
    elif what == "dataset_bad_magic":
        data.write_bytes(b"NOPE" + bytes(20))
        message = "bad magic b'NOPE'"
    elif what == "inapplicable":
        raw = json.loads((CONFIG_DIR / "quad_bound.json").read_text())
        raw["analysis"]["eta"] = 0.5  # eta*J*mu/M = 2.5 >= 1
        cfg_path = write_cfg(tmp_path, raw)
        message = "eta*J*mu/M = 2.5 >= 1: bound inapplicable"
    elif what == "analysis_seed_negative":
        raw = json.loads((CONFIG_DIR / "quad_bound.json").read_text())
        raw["analysis"]["seed"] = -1
        cfg_path = write_cfg(tmp_path, raw)
        message = "analysis.seed must be >= 0"
    elif what == "no_config":
        return [command, "--out", str(out)], "the following arguments are required: --config"
    elif what == "seed_override":
        extra = ["--seed-override", "1"]
        message = "unrecognized arguments: --seed-override 1"
    elif what == "seed_2_64":
        extra = ["--seed-override", str(2**64)]
        message = "training.seeds must be < 2**64"
    elif what == "run_out_dir":
        cfg_path = small_desk(tmp_path, training={"seeds": [1]})
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        extra = ["--model", str(out / "model_seed1.npz")]
        message = f"out dir {out} holds fedrf run output; pass another --out"
    else:
        model = tmp_path / "no.npz"
        cfg_path = small_desk(tmp_path)
        extra = ["--model", str(model)]
        message = f"model file not found: {model}"
    return [command, "--config", str(cfg_path), "--out", str(out), *extra], message


@pytest.mark.parametrize("command, what", FAILURE_CASES)
def test_failure_is_one_error_line(tmp_path, command, what):
    argv, message = failure_case(tmp_path, command, what)
    out = tmp_path / "o"
    before = {f.name: f.read_bytes() for f in out.iterdir()} if out.is_dir() else None
    proc = run_fedrf(*argv)
    assert proc.returncode == 1
    assert proc.stderr == f"error: {message}\n"
    manifest_path = out / cli.MANIFEST_FILENAME
    if what in NO_OUT_DIR:
        assert not out.is_dir()
        return
    if before is not None:
        # another command's out dir: its manifest and files stay as they were
        assert json.loads(before[cli.MANIFEST_FILENAME])["command"] == "run"
        assert cli.PERSONALIZE_FILENAME in before
        assert {f.name: f.read_bytes() for f in out.iterdir()} == before
        return
    manifest = json.loads(manifest_path.read_text())
    assert manifest["status"] == "failed"
    assert manifest["error"] == message
    assert manifest["outputs"] == []
