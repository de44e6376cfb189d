import hashlib
import multiprocessing
import os
import signal
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from csafm import (
    AdamState,
    ConfigError,
    CsafmError,
    DataError,
    DimensionError,
    FpvCsafmModel,
    FusionVariant,
    NumericalError,
    ParameterError,
    Rng,
    RunConfig,
    SynthSpec,
    Tensor,
    UnimodalClassifier,
    adam_step,
    batch_tensors,
    cir,
    class_major,
    history_csv,
    make_split,
    predict,
    train_loop,
)
import csafm.train
from csafm.backbone import feature_shape
from csafm.cli import train_and_write


def one_param(value=1.0, dims=(1, 1, 1, 1), dtype=np.float32):
    t = Tensor.full(dims, value, dtype=dtype)
    t.requires_grad = True
    return t


class TestAdam:
    def test_missing_grad_is_a_no_op(self):
        p = one_param(2.5)
        st = AdamState(lr=0.1)
        adam_step([("p", p)], st)
        assert p.data.item() == 2.5
        assert st.step == 1

    def test_multi_step_matches_reference(self):
        """Ten noisy f64 steps against the textbook update formulas."""
        rng = np.random.default_rng(8)
        p = one_param(0.0, dims=(1, 1, 2, 3), dtype=np.float64)
        p.data[...] = rng.normal(size=(1, 1, 2, 3))
        ref = p.data.copy()
        m = np.zeros_like(ref)
        v = np.zeros_like(ref)
        lr, b1, b2, eps = 2e-3, 0.9, 0.999, 1e-8
        st = AdamState(lr=lr)
        for t in range(1, 11):
            g = rng.normal(size=ref.shape)
            p.grad = g.copy()
            adam_step([("p", p)], st)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            ref = ref - lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        assert np.allclose(p.data, ref, rtol=1e-12, atol=1e-15)

    def test_determinism(self):
        def run():
            p = one_param(1.0, dims=(1, 2, 1, 1))
            st = AdamState(lr=5e-3)
            r = Rng(3)
            for _ in range(20):
                p.grad = r.normal(2).reshape(1, 2, 1, 1).astype(np.float32)
                adam_step([("p", p)], st)
            return p.data.copy()

        assert np.array_equal(run(), run())

    def test_grad_shape_mismatch_rejected(self):
        p = one_param(1.0, dims=(1, 2, 1, 1))
        p.grad = np.zeros((1, 3, 1, 1), dtype=np.float32)
        with pytest.raises(DimensionError):
            adam_step([("p", p)], AdamState())

    def test_bad_hyperparameters_rejected(self):
        with pytest.raises(ParameterError):
            AdamState(lr=-1e-4)


class TestCir:
    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            cir(np.array([]), np.array([]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            cir(np.array([1, 2]), np.array([1, 2, 3]))

    def test_random_guessing_rate(self):
        # over k classes the hit rate concentrates near 100/k
        r = np.random.default_rng(13)
        preds = r.integers(0, 4, 20000)
        labels = r.integers(0, 4, 20000)
        assert abs(cir(preds, labels) - 25.0) < 1.5


class TestMakeSplit:
    def test_counts_and_partition(self):
        plan = make_split(10, 3, seed=1)
        assert len(plan.train) == 9 and len(plan.val) == 12 and len(plan.test) == 9
        allidx = sorted(plan.train + plan.val + plan.test)
        assert allidx == list(range(30))

    def test_indices_stay_inside_class_blocks(self):
        plan = make_split(10, 4, seed=2)
        for part in (plan.train, plan.val, plan.test):
            per_class = [0] * 4
            for i in part:
                per_class[i // 10] += 1
            assert len(set(per_class)) == 1  # equally many from each class

    def test_same_seed_reproduces(self):
        a = make_split(10, 2, seed=7)
        b = make_split(10, 2, seed=7)
        assert (a.train, a.val, a.test) == (b.train, b.val, b.test)
        c = make_split(10, 2, seed=8)
        assert (a.train, a.val, a.test) != (c.train, c.val, c.test)

    def test_non_integral_fraction_rejected(self):
        with pytest.raises(ParameterError):
            make_split(7, 2, seed=0)

    def test_fraction_of_no_samples_rejected(self):
        """1e-12 of 10 samples is integral to within rounding, and once gave
        an empty train split."""
        with pytest.raises(ParameterError, match="fraction 1e-12 of 10 samples per class"):
            make_split(10, 2, seed=0, fractions=(1e-12, 0.5, 0.499999999999))

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ParameterError):
            make_split(10, 2, seed=0, fractions=(0.5, 0.4, 0.3))

    def test_custom_fractions(self):
        plan = make_split(10, 2, seed=0, fractions=(0.5, 0.2, 0.3))
        assert len(plan.train) == 10 and len(plan.val) == 4 and len(plan.test) == 6


class TestBatching:
    def test_batch_tensors_stacks(self, tiny_dataset):
        fp, fv, y = batch_tensors(tiny_dataset, [0, 1, 2])
        assert fp.dims == (3, 1, 24, 24)
        assert fv.dims == (3, 1, 20, 20)
        assert y.tolist() == [tiny_dataset[i].label for i in range(3)]

    def test_mixed_sizes_rejected(self, tiny_dataset):
        from csafm import PairedSample
        odd = PairedSample(
            fp=Tensor.zeros((1, 1, 9, 9)), fv=Tensor.zeros((1, 1, 20, 20)),
            label=0)
        with pytest.raises(DataError):
            batch_tensors(list(tiny_dataset) + [odd], [0, len(tiny_dataset)])

    def test_class_major_is_stable_sort(self, tiny_dataset):
        shuffled = list(reversed(tiny_dataset))
        ordered = class_major(shuffled)
        assert [s.label for s in ordered] == sorted(s.label for s in shuffled)
        first_of_zero = next(s for s in shuffled if s.label == 0)
        assert ordered[0] is first_of_zero


def tiny_cfg(**kw):
    base = dict(
        seed=5,
        synth=SynthSpec(grid=(2, 2), fp_size=(24, 24), fv_size=(20, 20),
                        noise_sigma=0.1, samples_per_class=10),
        modality="fused", r1=4, r2=4, lr=3e-3, batch=8, epochs=2,
        width_multiplier=0.125)
    base.update(kw)
    return RunConfig(**base)


def tiny_model(cfg, seed=30, variant=FusionVariant.SERIAL_SUM):
    return FpvCsafmModel.build(
        classes=4, fp_size=(24, 24), fv_size=(20, 20), variant=variant,
        rng=Rng(seed), r1=cfg.r1, r2=cfg.r2,
        width_multiplier=cfg.width_multiplier)


class TestTrainLoop:
    def test_history_shape_and_monotone_epochs(self, tiny_dataset):
        cfg = tiny_cfg(epochs=3)
        result = train_loop(tiny_model(cfg), tiny_dataset, cfg)
        assert [e for e, _, _ in result.history] == [1, 2, 3]
        assert result.best_val_cir == max(c for _, _, c in result.history)
        assert result.history[result.best_epoch - 1][2] == result.best_val_cir

    def test_unbalanced_dataset_rejected(self, tiny_dataset):
        cfg = tiny_cfg()
        with pytest.raises(DataError):
            train_loop(tiny_model(cfg), tiny_dataset[:-1], cfg)

    def test_one_sample_final_batch_rejected_before_training(self, tiny_dataset):
        # 12 training pairs at batch 11: the second batch would hold one sample
        cfg = tiny_cfg(batch=11)
        model = tiny_model(cfg)
        before = [arr.copy() for _, arr, _ in model.state_entries()]
        seen = []
        with pytest.raises(ConfigError, match=r"12 samples at batch 11"):
            train_loop(model, tiny_dataset, cfg, progress=lambda *a: seen.append(a))
        assert seen == []
        for b, (_, a, _) in zip(before, model.state_entries()):
            assert np.array_equal(b, a)

    def test_one_sample_final_batch_allowed_without_learning(self, tiny_dataset):
        cfg = tiny_cfg(batch=11, lr=0.0, epochs=1)
        assert len(train_loop(tiny_model(cfg), tiny_dataset, cfg).history) == 1

    def test_zero_lr_freezes_everything(self, tiny_dataset):
        cfg = tiny_cfg(lr=0.0, epochs=3)
        model = tiny_model(cfg)
        before = [arr.copy() for _, arr, _ in model.state_entries()]
        result = train_loop(model, tiny_dataset, cfg)
        after = [arr for _, arr, _ in model.state_entries()]
        for b, a in zip(before, after):
            assert np.array_equal(b, a)
        vals = [c for _, _, c in result.history]
        assert len(set(vals)) == 1  # identical val CIR every epoch

    def test_same_config_bit_identical(self, tiny_dataset):
        cfg = tiny_cfg(epochs=2)
        r1 = train_loop(tiny_model(cfg, seed=31), tiny_dataset, cfg)
        r2 = train_loop(tiny_model(cfg, seed=31), tiny_dataset, cfg)
        assert r1.history == r2.history
        assert r1.test_cir == r2.test_cir

    def test_interleaved_input_gives_same_history(self, tiny_dataset):
        # class_major canonicalizes any ordering that keeps the relative
        # order inside each class, so a round-robin interleave is a no-op
        cfg = tiny_cfg(epochs=2)
        by_class: dict = {}
        for s in tiny_dataset:
            by_class.setdefault(s.label, []).append(s)
        interleaved = [by_class[c][i] for i in range(10) for c in sorted(by_class)]
        r1 = train_loop(tiny_model(cfg, seed=32), tiny_dataset, cfg)
        r2 = train_loop(tiny_model(cfg, seed=32), interleaved, cfg)
        assert r1.history == r2.history

    def test_learns_the_tiny_task(self, tiny_dataset):
        cfg = tiny_cfg(epochs=15)
        result = train_loop(tiny_model(cfg, seed=33), tiny_dataset, cfg)
        assert result.test_cir >= 75.0
        assert result.best_val_cir >= 75.0

    def test_non_finite_loss_is_diagnosed(self, tiny_dataset):
        cfg = tiny_cfg()
        model = tiny_model(cfg)
        model.head_w.data[...] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError):
            train_loop(model, tiny_dataset, cfg)

    def test_progress_callback_sees_every_epoch(self, tiny_dataset):
        cfg = tiny_cfg(epochs=2)
        seen = []
        train_loop(tiny_model(cfg), tiny_dataset, cfg,
                   progress=lambda e, l, c: seen.append(e))
        assert seen == [1, 2]

    def test_predict_matches_manual_argmax(self, tiny_dataset):
        cfg = tiny_cfg()
        model = tiny_model(cfg)
        samples = class_major(tiny_dataset)
        idxs = [0, 5, 13, 27]
        got = predict(model, samples, idxs, batch=2)
        fp, fv, _ = batch_tensors(samples, idxs)
        want = model.forward_batch(fp, fv, "eval").data.reshape(4, -1).argmax(axis=1)
        assert np.array_equal(got, want)


def state_sha(model) -> str:
    h = hashlib.sha256()
    for name, arr, _ in model.state_entries():
        h.update(name.encode() + b"\0" + arr.tobytes())
    return h.hexdigest()


def on_path(monkeypatch, path):
    """Make train_loop validate in a worker or in process, through the CPU
    count its rule reads."""
    monkeypatch.setattr(csafm.train, "usable_cpus", lambda: 2 if path == "worker" else 1)


@contextmanager
def deadline(seconds):
    """Fail, not hang, when the block runs past `seconds`."""
    def expire(*_):
        raise TimeoutError(f"still running after {seconds} s")
    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


PATHS = ["worker", "in_process"]


class TestValidationBesideTraining:
    """Epoch e's val pass runs in a forked worker while epoch e+1 trains,
    or in process where only one CPU is usable; the bits are the same."""

    @pytest.mark.parametrize("kind", ["CSAFM", "fv", "lr0"])
    def test_both_paths_give_the_same_bits(self, tiny_dataset, monkeypatch, kind):
        cfg = tiny_cfg(epochs=4, lr=0.0 if kind == "lr0" else 3e-3)
        got = {}
        for path in PATHS:
            on_path(monkeypatch, path)
            if kind == "fv":
                model = UnimodalClassifier.build(classes=4, image_size=(20, 20), modality="fv",
                                                 rng=Rng(34), width_multiplier=0.125)
            else:
                model = tiny_model(cfg, seed=34, variant=FusionVariant.CSAFM)
            workers = []
            res = train_loop(model, tiny_dataset, cfg, progress=lambda *_: workers.append(
                [p.name for p in multiprocessing.active_children()]))
            assert workers == ([["csafm-val"]] * 4 if path == "worker" else [[]] * 4)
            assert multiprocessing.active_children() == []
            got[path] = (res.history, state_sha(model), res.best_epoch, res.best_val_cir,
                         res.test_cir)
        assert got["worker"] == got["in_process"]

    @pytest.mark.parametrize("path", PATHS)
    def test_progress_sees_epochs_in_order(self, tiny_dataset, monkeypatch, path):
        on_path(monkeypatch, path)
        cfg = tiny_cfg(epochs=5)
        seen = []
        res = train_loop(tiny_model(cfg), tiny_dataset, cfg, progress=lambda *a: seen.append(a))
        assert [e for e, _, _ in seen] == [1, 2, 3, 4, 5]
        assert seen == res.history
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("path", PATHS)
    def test_validation_error_keeps_its_class(self, tiny_dataset, monkeypatch, path):
        on_path(monkeypatch, path)

        def failing_predict(*_):
            raise DataError(f"val failed in process {os.getpid()}")

        monkeypatch.setattr(csafm.train, "predict", failing_predict)
        cfg = tiny_cfg(epochs=3)
        with deadline(60), pytest.raises(DataError, match="val failed") as info:
            train_loop(tiny_model(cfg), tiny_dataset, cfg)
        raised_here = str(info.value).endswith(f" {os.getpid()}")
        assert raised_here == (path == "in_process")
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("path", PATHS)
    def test_training_error_ends_the_worker(self, tiny_dataset, monkeypatch, path):
        on_path(monkeypatch, path)
        cfg = tiny_cfg(epochs=3)
        model = tiny_model(cfg)

        def poison(epoch, *_):
            model.head_w.data[...] = np.inf

        with np.errstate(invalid="ignore"), pytest.raises(NumericalError):
            train_loop(model, tiny_dataset, cfg, progress=poison)
        assert multiprocessing.active_children() == []

    def test_killed_worker_is_an_error_naming_its_exit_code(self, tiny_dataset, monkeypatch):
        on_path(monkeypatch, "worker")
        cfg = tiny_cfg(epochs=4)

        def kill_worker(epoch, *_):
            if epoch == 1:
                for p in multiprocessing.active_children():
                    os.kill(p.pid, signal.SIGKILL)

        t0 = time.monotonic()
        with deadline(60), pytest.raises(CsafmError, match="exited with code -9"):
            train_loop(tiny_model(cfg), tiny_dataset, cfg, progress=kill_worker)
        assert time.monotonic() - t0 < 20
        assert multiprocessing.active_children() == []

    def test_daemonic_process_validates_in_process(self, tiny_dataset, monkeypatch):
        # a daemonic multiprocessing worker may start no child process
        on_path(monkeypatch, "worker")
        cfg = tiny_cfg(epochs=2)
        want = train_loop(tiny_model(cfg), tiny_dataset, cfg).history
        with deadline(120), multiprocessing.get_context("fork").Pool(1) as pool:
            got = pool.apply(_train_history, (tiny_dataset, cfg))
        assert got == want

    def test_threaded_process_validates_in_process(self, tiny_dataset, monkeypatch):
        # a fork copies only the calling thread
        on_path(monkeypatch, "worker")
        cfg = tiny_cfg(epochs=2)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            workers = []
            train_loop(tiny_model(cfg), tiny_dataset, cfg,
                       progress=lambda *_: workers.append(multiprocessing.active_children()))
        finally:
            release.set()
            other.join()
        assert workers == [[], []]

    def test_cpu_rule_reads_the_affinity_mask(self):
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("no sched_getaffinity on this platform")
        assert csafm.train.usable_cpus() == len(os.sched_getaffinity(0))


def _train_history(dataset, cfg):
    return train_loop(tiny_model(cfg), dataset, cfg).history


class TestHistoryCsv:
    def test_format(self):
        text = history_csv([(1, 0.5, 25.0), (2, 0.25, 50.0)])
        lines = text.splitlines()
        assert lines[0] == "epoch,train_loss,val_cir"
        assert lines[1] == "1,0.500000,25.000000"
        assert lines[2] == "2,0.250000,50.000000"
        assert text.endswith("\n")


# sha256 of weights.csafm and history.csv after `csafm train` for 3 epochs
# on conftest's 2x2-grid config (24x24 fp, 20x20 fv, width 0.125, seed 5):
# the seven fusion variants and both unimodal baselines. A speed-up that
# keeps the arithmetic keeps these digests, at one BLAS thread or two.
TRAINED_SHA256 = {
    "CSAFM": ("e9599b9ae2a50a4b86033b711db8ca65ddef002ccf95ea92e31c2df8b0013126",
             "fa9d0f5b38feed5b0048314e54189b3941c790aeebd8b821eddf32cdb13b6cb4"),
    "CHANNEL_ONLY": ("29513540f5692a7b6d84c85a02623ffbfa5329500dda4edeb23a3b6d0a30b6a3",
                    "1e6dfd6b87f34e1529bfb34621195163291cb2cb1017e65a540133b180722218"),
    "SPATIAL_ONLY": ("1db70d55df558170eaf68fa3754c52a9f50250ba5dc826a535c03f317eb297b5",
                    "100237a2dddf927a6a19dd32d2f6c72aeb274a88ab8b8b939e1794ce79cf9522"),
    "PARALLEL_CS": ("ac6bc168465a111425f259c7e981528e3af5ad9c33b6a732b262f8d01af36468",
                   "7710734132ca0ceb68a822fdc097511b0d7a3a6e70ee85eed6c1c4564fdac855"),
    "SEQ_SC": ("d545a0443bb26bc73e768cbde6c026dc84b8227fdef144c59ed69c8b6bcf22ee",
              "82744e0c36f4e4002b53a5d5da147e6d38be0b1602d88976267c5b37de4df1ea"),
    "SERIAL_SUM": ("01e37d11502008d929332b2773c98beb6ea30b9be4ad55afba383a08d644328b",
                  "ec3e2c50a63efcf51defd2619f1aaeb5402282bfbb17ecef77f3110eb333fdd9"),
    "PARALLEL_CONCAT": ("6f46724d360d9f14ad850d788ac691175250583ce3a1a0d9f5a401306d1b9cb4",
                       "e8fd088996268a466855ef72c6319de862fd1b7bc95c487febded3c27d02460e"),
    "fp": ("a76b52aee22932f6297ed6db3ad7a6ac079dcae945cf0b6cd95f36769685a33a",
          "45238a5e559760e9faac6506a14464c96244bd7bcf46c0e3091dbafda72eec3d"),
    "fv": ("9246041cd61738eedd575ffd015667451889631091966108b85d63c12de655d8",
          "731189a1df70f8672c18c43fc0474dbff35e635a7268f615fcc6dafdbb44f580"),
}


# The same, for CSAFM on 24x72 fp and 20x72 fv images: their fused map is
# 1x2, so the 7x7 spatial-attention convs have three live taps each, where
# the 24x24/20x20 maps above fuse to 1x1 and leave one.
TRAINED_SHA256_1X2_MAP = (
    "d9526fc142ba95065f31ab7c814dcfe31765c45f6d5729d1b0b3ed50a195d70c",
    "2373931868a0b048a380bf5ee56e2923e89310d1b1a16fa783eb6adb70ab9e96")


class TestTrainedBits:
    @pytest.mark.parametrize("name", list(TRAINED_SHA256))
    def test_three_epochs_train_pinned_bytes(self, config_file, name):
        """weights.csafm and history.csv of a 3-epoch run, byte for byte.
        A change that moves trained bits, even in the last place, updates
        these pins and says so in CHANGES.md."""
        kind = ({"modality": name} if name in ("fp", "fv")
                else {"variant": name})
        _, cfg = config_file(epochs=3, **kind)
        train_and_write(RunConfig.from_dict(cfg), quiet=True)
        out = Path(cfg["out_dir"])
        got = tuple(hashlib.sha256((out / f).read_bytes()).hexdigest()
                    for f in ("weights.csafm", "history.csv"))
        assert got == TRAINED_SHA256[name]

    def test_three_epochs_on_a_1x2_map_pinned_bytes(self, config_file):
        _, cfg = config_file(epochs=3)
        cfg["dataset"]["synth"].update(fp_size=[24, 72], fv_size=[20, 72])
        assert feature_shape(24, 72, 0.125)[1:] == feature_shape(20, 72, 0.125)[1:] == (1, 2)
        train_and_write(RunConfig.from_dict(cfg), quiet=True)
        out = Path(cfg["out_dir"])
        got = tuple(hashlib.sha256((out / f).read_bytes()).hexdigest()
                    for f in ("weights.csafm", "history.csv"))
        assert got == TRAINED_SHA256_1X2_MAP
