"""Acceptance suite: one test per release criterion.

Each test prints a single pass/fail line (visible with ``pytest -s``) and
enforces the criterion's tolerance and runtime budget. The desk-scale
experiment criteria load the shipped configs from ``configs/``.
"""

import dataclasses
import json
import math
import os
import subprocess
import sys
import time
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from fedrf import (
    analysis,
    cli,
    config as cfg_mod,
    datafile,
    experiment,
    federation,
    models,
    modality,
)
from fedrf.config import DatasetConfig
from conftest import ap_batches

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def _report(num, desc, budget_s, fn):
    start = time.perf_counter()
    try:
        fn()
    except Exception:
        print(f"criterion {num:2d}: FAIL - {desc}")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {num:2d}: PASS - {desc} ({elapsed:.1f}s)")
    assert elapsed < budget_s, f"criterion {num} exceeded {budget_s}s budget"


def _load_cfg(name, **training_overrides):
    raw = json.loads((CONFIG_DIR / name).read_text())
    raw.setdefault("training", {}).update(training_overrides)
    return cfg_mod.from_dict(raw)


@lru_cache(maxsize=None)
def _desk_dataset():
    cfg = _load_cfg("desk_noniid.json")
    return experiment.load_dataset(cfg)


@lru_cache(maxsize=None)
def _desk_runs(mode, modalities):
    name = "desk_iid.json" if mode == "iid" else "desk_noniid.json"
    cfg = _load_cfg(name, modalities=list(modalities))
    ds = _desk_dataset()
    return cfg, [experiment.run_single(cfg, s, ds=ds) for s in cfg.training.seeds]


# ---------------------------------------------------------------------------

def test_criterion_1_dft_oracle():
    def body():
        rng = np.random.default_rng(2024)
        for ell in (4, 16, 256):
            p = np.arange(ell)
            w = np.exp(-2j * np.pi * np.outer(p, p) / ell)  # brute-force matrix
            for _ in range(100):
                r = rng.standard_normal(ell) + 1j * rng.standard_normal(ell)
                got = modality.transform(r, "dft")
                got_c = got[:, 0] + 1j * got[:, 1]
                ref = w @ r
                rel = np.max(np.abs(got_c - ref)) / np.max(np.abs(ref))
                assert rel <= 1e-9
                parseval = abs(
                    np.sum(np.abs(got_c) ** 2) - ell * np.sum(np.abs(r) ** 2)
                ) / (ell * np.sum(np.abs(r) ** 2))
                assert parseval <= 1e-9

    _report(1, "DFT matches brute-force sum and Parseval identity", 5, body)


def test_criterion_2_modality_round_trip():
    def body():
        rng = np.random.default_rng(7)
        for _ in range(50):
            r = rng.standard_normal(256) + 1j * rng.standard_normal(256)
            ap = modality.transform(r, "amp_phase")
            back = ap[:, 0] * np.exp(1j * ap[:, 1])
            assert np.max(np.abs(back - r)) <= 1e-12
            assert np.all(ap[:, 1] > -np.pi) and np.all(ap[:, 1] <= np.pi)
            iq = modality.transform(r, "iq")
            assert np.array_equal(iq[:, 0] + 1j * iq[:, 1], r)

    _report(2, "amplitude/phase reconstruction and IQ bijection", 1, body)


def test_criterion_3_gradient_correctness():
    def body():
        # softmax regression
        spec = models.ModelSpec("softmax_linear", 8, 2, 5, l2_coeff=0.01)
        rng = np.random.default_rng(3)
        batch = models.Batch(
            rng.standard_normal((12, 8, 2, 2)), rng.integers(0, 5, 12)
        )
        err, _ = models.finite_diff_check(
            spec, models.init_params(spec, 1), batch, step=1e-5
        )
        assert err <= 1e-6, f"softmax fd error {err}"

        # mini_resnet, >= 200 sampled coordinates with kink rejection
        rspec = models.ModelSpec(
            "mini_resnet", 16, 2, 5, l2_coeff=1e-3, block_channels=(4, 6), hidden=8
        )
        rbatch = models.Batch(
            rng.standard_normal((4, 16, 2, 2)), rng.integers(0, 5, 4)
        )
        rerr, checked = models.finite_diff_check(
            rspec, models.init_params(rspec, 2), rbatch, step=1e-5,
            num_coords=220, seed=5,
        )
        assert checked >= 200
        assert rerr <= 1e-3, f"mini_resnet fd error {rerr}"

        # quadratic surrogate
        prob = analysis.make_quadratic_problem(
            cfg_mod.AnalysisConfig(seed=9, dim=8, num_aps=1, noise_scale=0.0))
        a, b = prob.a_matrix, prob.b_vectors[0]
        loss_fn = lambda w: 0.5 * w @ a @ w - b @ w
        w0 = np.random.default_rng(11).standard_normal(8)
        qerr, _ = models.central_diff_max_error(
            lambda w: (loss_fn(w), None), w0, a @ w0 - b, range(8), step=1e-3
        )
        assert qerr <= 1e-9, f"quadratic fd error {qerr}"

    _report(3, "finite-difference gradient checks (softmax/resnet/quadratic)", 30, body)


def test_criterion_4_gradient_decomposition():
    def body():
        rng = np.random.default_rng(13)
        for _ in range(1000):
            g_step = rng.standard_normal(32)
            g_start = rng.standard_normal(32)
            g_glob = rng.standard_normal(32)
            corrected, literal = analysis.grad_decomposition_residuals(
                g_step, g_start, g_glob
            )
            assert corrected <= 1e-12
            assert abs(literal - np.linalg.norm(g_step - g_start)) <= 1e-12

    _report(4, "gradient decomposition: corrected exact, printed form collapses", 1, body)


def test_criterion_5_bound_on_quadratics():
    def body():
        a = cfg_mod.parse_config(CONFIG_DIR / "quad_bound.json").analysis
        assert a.dim == 8 and a.num_aps == 4 and a.local_steps == 5
        prob = analysis.make_quadratic_problem(a)
        contraction = a.eta * a.local_steps * prob.mu
        assert contraction <= 0.2 + 1e-12
        traces = {}
        for m in (1, 3):
            cfg = dataclasses.replace(a, modality_count=m)
            trace = analysis.verify_bound(prob, cfg, seeds=200)
            frac = len(trace.violations) / (a.rounds + 1)
            assert frac <= 0.01, f"M={m}: {frac:.3f} violating rounds"
            traces[m] = trace
        assert traces[3].bound[0] == traces[1].bound[0]
        assert np.all(traces[3].bound[1:] < traces[1].bound[1:])

    _report(5, "round-gap bound holds over 200 seeds; M=3 trace below M=1", 120, body)


def test_criterion_6_noiseless_sanity():
    def body():
        cfg = cfg_mod.parse_config(CONFIG_DIR / "quad_noiseless.json").analysis
        assert cfg.noise_scale == 0.0 and cfg.num_aps == 1
        assert cfg.local_steps == 1
        prob = analysis.make_quadratic_problem(cfg)
        trace = analysis.verify_bound(prob, cfg, seeds=1)
        a = prob.a_matrix
        eigs, q = np.linalg.eigh(a)
        e0 = q.T @ (prob.w_init - prob.w_star)
        for t in range(cfg.rounds + 1):
            coords = ((1.0 - cfg.eta * eigs) ** t) * e0
            gap = 0.5 * float(np.sum(eigs * coords**2))
            assert abs(trace.empirical[t] - gap) <= 1e-9
        assert len(trace.violations) == 0

    _report(6, "noiseless gap equals closed-form gradient-descent contraction", 5, body)


def test_criterion_7_fedavg_algebra():
    def body():
        w = np.array([0.5, -1.5, 2.0])
        assert np.array_equal(federation.aggregate([w, w, w, w]), w)
        assert np.array_equal(
            federation.aggregate([np.array([0.0, 2.0]), np.array([2.0, 4.0])]),
            np.array([1.0, 3.0]),
        )
        rng = np.random.default_rng(17)
        vs = [rng.standard_normal(100) for _ in range(4)]
        base = federation.aggregate(vs)
        for perm in ([3, 1, 0, 2], [1, 0, 3, 2], [2, 3, 1, 0]):
            assert np.array_equal(base, federation.aggregate([vs[i] for i in perm]))

        # N=1 full batch == centralized gradient descent, 50 steps, bit-exact
        ds = datafile.generate_dataset(DatasetConfig(3, 12, 16, 10.0, 21))
        split = experiment.split_train_test(ds, 0.25, 0)
        part = federation.partition_iid(split, 1, 0, ("iq",))
        spec = models.ModelSpec("softmax_linear", 16, 1, 3, l2_coeff=1e-3)
        cfg = federation.TrainingConfig(
            spec=spec, rounds=5, local_steps=10,
            batch_size=len(split.train_labels), eta=0.05, modalities=("iq",), seed=4,
        )
        _, w_fed = federation.run_training(split, part, cfg)
        batch = ap_batches(split, part, cfg.modalities)[0]
        init_seed = int(np.random.SeedSequence(
            (federation._DOMAIN_INIT, cfg.seed)).generate_state(1)[0])
        w_c = models.init_params(spec, init_seed).astype(spec.dtype)
        for _ in range(50):
            _, g = models.loss_and_grad(spec, w_c, batch)
            w_c = models.sgd_step(w_c, g, cfg.eta)
        assert np.array_equal(w_fed, w_c)

    _report(7, "aggregation algebra and centralized equivalence (bit-exact)", 10, body)


def test_criterion_8_partition_contracts():
    def body():
        # i.i.d.: every AP sees the full label set
        ds = datafile.generate_dataset(DatasetConfig(163, 8, 8, 10.0, 31))
        split = experiment.split_train_test(ds, 0.25, 1)
        part = federation.partition_iid(split, 4, 1, ("iq",))
        for n in range(4):
            assert part.label_sets[n].tolist() == list(range(163))
        allidx = np.concatenate(part.indices)
        assert len(np.unique(allidx)) == len(allidx) == len(split.train_labels)

        # non-i.i.d.: 163 labels over 4 APs, 41 each, one doubly-assigned
        part2 = federation.partition_noniid(split, 4, 41, 1, ("iq",))
        counts = np.zeros(163, dtype=int)
        for s in part2.label_sets:
            assert len(s) == 41
            counts[s] += 1
        assert np.all(counts >= 1)
        assert np.max(counts) <= 2
        assert int(np.sum(counts == 2)) == 1
        allidx2 = np.concatenate(part2.indices)
        assert len(np.unique(allidx2)) == len(allidx2) == len(split.train_labels)

    _report(8, "partition contracts (full label sets, 163/4/41 overlap)", 5, body)


def test_criterion_9_multimodal_advantage():
    def body():
        def median_final(modalities):
            _, runs = _desk_runs("noniid", modalities)
            return float(np.median([r.metrics[-1].global_acc for r in runs]))

        med3 = median_final(("iq", "dft", "amp_phase"))
        singles = {m: median_final((m,)) for m in modality.ALL_MODALITIES}
        assert med3 >= singles["iq"]
        for name, med in singles.items():
            assert med3 > med, f"M=3 ({med3:.4f}) does not beat {name} ({med:.4f})"
        print(
            "    M=3 %.4f vs iq %.4f / dft %.4f / amp_phase %.4f"
            % (med3, singles["iq"], singles["dft"], singles["amp_phase"])
        )

    _report(9, "multi-modal advantage on the shipped desk profile", 300, body)


def test_criterion_10_personalization():
    def body():
        for mode in ("iid", "noniid"):
            cfg, runs = _desk_runs(mode, ("iq", "dft", "amp_phase"))
            gains = {n: [] for n in range(cfg.partition.num_aps)}
            for run in runs:
                pers = experiment.personalize_run(cfg, run)
                befores = [p.before_acc for p in pers]
                if mode == "iid":
                    assert len(set(befores)) == 1, "iid before accuracies differ"
                for p in pers:
                    gains[p.ap].append(p.after_acc - p.before_acc)
            medians = {ap: float(np.median(diffs)) for ap, diffs in gains.items()}
            print("    %s median gains: %s" % (
                mode, " / ".join("ap%d %+.5f" % item for item in medians.items())))
            for ap, med in medians.items():
                assert med >= 0.0, f"{mode} ap{ap} regressed"

    _report(10, "personalized fine-tuning improves every AP (both profiles)", 120, body)


def test_criterion_11_determinism(tmp_path):
    def body():
        cfg_path = CONFIG_DIR / "desk_determinism.json"
        files = (cli.METRICS_FILENAME, "model_seed1.npz", "model_seed2.npz",
                 cli.MANIFEST_FILENAME)
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "a")]) == 0
        # reruns in fresh processes whose BLAS runs each GEMM on 1 and on 2 threads
        src = Path(cli.__file__).resolve().parents[1]
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(src))
            proc = subprocess.run(
                [sys.executable, "-m", "fedrf.cli", "run", "--config", str(cfg_path),
                 "--out", str(tmp_path / threads)],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
        outs = [[(tmp_path / name / f).read_bytes() for f in files] for name in "a12"]
        assert outs[0] == outs[1], "rerun at 1 BLAS thread differs"
        assert outs[0] == outs[2], "rerun at 2 BLAS threads differs"

        ds = _desk_dataset()
        path = tmp_path / "ds.rfds"
        datafile.write_dataset(ds, path)
        back = datafile.read_dataset(path)
        assert back.iq.tobytes() == ds.iq.tobytes()
        assert np.array_equal(back.labels, ds.labels)
        path2 = tmp_path / "ds2.rfds"
        datafile.write_dataset(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    _report(11, "byte-identical reruns (1 and 2 BLAS threads) and file round-trip", 120, body)
