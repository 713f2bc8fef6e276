import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fedrf import cli, config as cfg_mod, datafile, modality

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
    ("analysis.enabled", True, True, None),
    ("analysis.enabled", 1, None, "analysis.enabled must be true or false, got 1"),
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
        "run failed: [Errno 2] No such file or directory: 'x.rfds'\n"
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
    assert capsys.readouterr().err == f"run failed: {error}\n"
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
    assert proc.stderr == f"run failed: {error}\n"
    manifest = json.loads((out / cli.MANIFEST_FILENAME).read_text())
    assert manifest["status"] == "failed"
    assert manifest["error"] == error


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
