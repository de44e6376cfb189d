"""End-to-end command behavior through main(), in process."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from csafm import (
    DataError, FpvCsafmModel, FusionVariant, Rng, RunConfig, UnimodalClassifier, save,
)
from csafm import cli
from csafm.cli import (
    _ABLATION_ORDER, _BLAS_VARS, _blas_pinned_pool, _worker_cap, build_parser, cmd_ablate, main,
    train_and_write,
)
from csafm import verify


def run_cli(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


class TestSynth:
    def test_default_spec_file_count(self, tmp_path, capsys):
        out = tmp_path / "ds"
        rc, _, err = run_cli(capsys, "synth", "--out", str(out))
        assert rc == 0
        assert "320 PGM files across 16 classes" in err
        files = sorted(out.rglob("*.pgm"))
        assert len(files) == 320

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "grid": [2, 2], "fp_size": [8, 8], "fv_size": [8, 8],
            "samples_per_class": 2,
        }))
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            rc, _, _ = run_cli(capsys, "synth", "--spec", str(spec),
                               "--out", str(out), "--seed", "3")
            assert rc == 0
        for pa in sorted(a.rglob("*.pgm")):
            pb = b / pa.relative_to(a)
            assert pa.read_bytes() == pb.read_bytes()

    def test_bad_spec_key(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"sigma": 0.2}))
        rc, _, err = run_cli(capsys, "synth", "--spec", str(spec),
                             "--out", str(tmp_path / "x"))
        assert rc == 2
        assert "error:" in err and "unknown synth spec" in err


class TestTrain:
    # the run's progress lines come from its worker, on the fd 2 it inherited
    def test_outputs_and_summary_schema(self, config_file, capfd):
        path, cfg = config_file()
        rc, out, err = run_cli(capfd, "train", "--config", str(path))
        assert rc == 0
        assert out == ""  # results go to files, progress to stderr
        assert "epoch 1/2" in err
        run_dir = path.parent / "run"
        history = (run_dir / "history.csv").read_text().splitlines()
        assert history[0] == "epoch,train_loss,val_cir"
        assert len(history) == 1 + cfg["epochs"]
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["variant"] == "CSAFM"
        assert summary["modality"] == "fused"
        assert summary["seed"] == 5
        assert summary["epochs_run"] == cfg["epochs"]
        assert 0.0 <= summary["test_cir"] <= 100.0
        assert (run_dir / "weights.csafm").stat().st_size > 0

    def test_two_runs_bit_identical(self, tmp_path, config_file, capsys):
        path, _ = config_file()
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        for d in (d1, d2):
            rc, _, _ = run_cli(capsys, "train", "--config", str(path),
                               "--out", str(d))
            assert rc == 0
        assert (d1 / "history.csv").read_bytes() == (d2 / "history.csv").read_bytes()
        assert (d1 / "weights.csafm").read_bytes() == (d2 / "weights.csafm").read_bytes()
        s1 = json.loads((d1 / "summary.json").read_text())
        s2 = json.loads((d2 / "summary.json").read_text())
        s1.pop("wall_seconds"), s2.pop("wall_seconds")
        assert s1 == s2

    def test_seed_override_changes_run(self, tmp_path, config_file, capsys):
        path, _ = config_file()
        d1, d2 = tmp_path / "s5", tmp_path / "s6"
        run_cli(capsys, "train", "--config", str(path), "--out", str(d1))
        run_cli(capsys, "train", "--config", str(path), "--out", str(d2),
                "--seed", "6")
        assert json.loads((d2 / "summary.json").read_text())["seed"] == 6
        assert (d1 / "weights.csafm").read_bytes() != (d2 / "weights.csafm").read_bytes()

    def test_unimodal_modality(self, tmp_path, config_file, capsys):
        path, _ = config_file(modality="fp", epochs=1)
        rc, _, _ = run_cli(capsys, "train", "--config", str(path),
                           "--out", str(tmp_path / "uni"))
        assert rc == 0
        summary = json.loads((tmp_path / "uni" / "summary.json").read_text())
        assert summary["modality"] == "fp"

    def test_trains_in_one_pinned_worker(self, config_file, capsys, monkeypatch):
        # a patch does not reach the spawn child, so the spy stays in this process
        workers = []

        def spy(n):
            workers.append(n)
            return _blas_pinned_pool(n)

        monkeypatch.setattr(cli, "_blas_pinned_pool", spy)
        path, _ = config_file(epochs=1)
        rc, _, _ = run_cli(capsys, "train", "--config", str(path))
        assert rc == 0 and workers == [1]
        assert (path.parent / "run" / "weights.csafm").is_file()

    def test_module_entry_point_matches_in_process_run(self, tmp_path, config_file):
        """`python -m csafm.cli train`, as perfbench's recognize workload runs
        it, hands a function of `__main__` to its spawn worker. Its weights are
        those train_and_write makes in this process."""
        path, cfg = config_file()
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run(
            [sys.executable, "-m", "csafm.cli", "train", "--config", str(path),
             "--out", str(tmp_path / "cli")],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "epoch 1/" in proc.stderr
        train_and_write(RunConfig.from_dict({**cfg, "out_dir": str(tmp_path / "here")}),
                        quiet=True)
        assert ((tmp_path / "cli" / "weights.csafm").read_bytes()
                == (tmp_path / "here" / "weights.csafm").read_bytes())

    def test_bad_config_reports_error(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"epochs": 0}))
        rc, _, err = run_cli(capsys, "train", "--config", str(p))
        assert rc == 2
        assert err.startswith("error:")

    def test_overflowing_width_multiplier_exits_2(self, config_file, capsys):
        # 512 * 1e308 is infinite, so round() of the channel count would overflow
        path, _ = config_file(width_multiplier=1e308)
        rc, _, err = run_cli(capsys, "train", "--config", str(path))
        assert rc == 2
        assert "overflows" in err


class TestEval:
    def test_matches_training_summary(self, config_file, capsys):
        path, _ = config_file()
        run_cli(capsys, "train", "--config", str(path))
        run_dir = path.parent / "run"
        summary = json.loads((run_dir / "summary.json").read_text())
        rc, out, _ = run_cli(capsys, "eval",
                             "--weights", str(run_dir / "weights.csafm"),
                             "--config", str(path))
        assert rc == 0
        report = json.loads(out)
        assert report["test_cir"] == summary["test_cir"]
        assert report["n_test"] == 12  # 0.3 of 10 per class, 4 classes

    def test_class_count_mismatch(self, tmp_path, config_file, capsys):
        path, _ = config_file()
        run_cli(capsys, "train", "--config", str(path))
        weights = path.parent / "run" / "weights.csafm"
        other = tmp_path / "six.json"
        other.write_text(json.dumps({
            "dataset": {"synth": {"grid": [2, 3], "fp_size": [24, 24],
                                  "fv_size": [20, 20], "samples_per_class": 10}},
            "seed": 5,
        }))
        rc, _, err = run_cli(capsys, "eval", "--weights", str(weights),
                             "--config", str(other))
        assert rc == 2
        assert "4 classes" in err and "6" in err

    def test_unbalanced_dataset_exits_2(self, tmp_path, pgm_tree, capsys):
        root = pgm_tree({0: 10, 1: 20, 2: 20, 3: 20})
        weights = tmp_path / "w.csafm"
        save(FpvCsafmModel.build(classes=4, fp_size=(12, 16), fv_size=(10, 14),
                                 variant=FusionVariant.CSAFM, rng=Rng(3), r1=4, r2=4,
                                 width_multiplier=0.125), weights)
        cfg = tmp_path / "eval.json"
        cfg.write_text(json.dumps({"dataset": str(root), "seed": 5}))
        rc, out, err = run_cli(capsys, "eval", "--weights", str(weights),
                               "--config", str(cfg))
        assert rc == 2 and out == ""
        assert "per-class counts differ: [10, 20, 20, 20]" in err

    @pytest.mark.parametrize("modality, sizes, msg", [
        ("fused", {"fp_size": [32, 32]}, "fp images of 24x24, dataset has 32x32"),
        ("fv", {"fv_size": [28, 28]}, "fv images of 20x20, dataset has 28x28"),
    ])
    def test_image_size_mismatch_exits_2(self, tmp_path, config_file, capsys,
                                         modality, sizes, msg):
        """32x32 and 28x28 shrink to the same 1x1 feature map as 24x24 and
        20x20, so nothing downstream of the header would notice them."""
        path, cfg = config_file()
        if modality == "fused":
            model = FpvCsafmModel.build(classes=4, fp_size=(24, 24), fv_size=(20, 20),
                                        variant=FusionVariant.CSAFM, rng=Rng(3),
                                        r1=4, r2=4, width_multiplier=0.125)
        else:
            model = UnimodalClassifier.build(classes=4, image_size=(20, 20), modality="fv",
                                             rng=Rng(3), width_multiplier=0.125)
        weights = tmp_path / "w.csafm"
        save(model, weights)
        cfg["dataset"]["synth"].update(sizes)
        path.write_text(json.dumps(cfg))
        rc, out, err = run_cli(capsys, "eval", "--weights", str(weights),
                               "--config", str(path))
        assert rc == 2 and out == ""
        assert msg in err

    def test_malformed_weight_meta_exits_2(self, tmp_path, config_file, rewrite_header,
                                           capsys):
        path, _ = config_file()
        weights = tmp_path / "w.csafm"
        save(FpvCsafmModel.build(classes=4, fp_size=(24, 24), fv_size=(20, 20),
                                 variant=FusionVariant.CSAFM, rng=Rng(3), r1=4, r2=4,
                                 width_multiplier=0.125), weights)
        rewrite_header(weights, lambda h: h["meta"].pop("classes"))
        rc, _, err = run_cli(capsys, "eval", "--weights", str(weights),
                             "--config", str(path))
        assert rc == 2
        assert "lacks 'classes'" in err

    @pytest.mark.parametrize("weights", ["missing.csafm", "."], ids=["missing", "directory"])
    def test_unreadable_weights_exit_2(self, tmp_path, config_file, capsys, weights):
        path, _ = config_file()
        rc, out, err = run_cli(capsys, "eval", "--weights", str(tmp_path / weights),
                               "--config", str(path))
        assert rc == 2 and out == ""
        assert "cannot read" in err


class TestOutputPaths:
    # the config's out_dir is empty; --out, where given, overrides it
    @pytest.mark.parametrize("argv", [
        ["synth", "--out", ""], ["synth", "--out", "afile"], ["synth", "--out", "afile/sub"],
        ["train", "--out", ""], ["train", "--out", "afile"], ["train", "--out", "afile/sub"],
        ["train"],
        ["ablate", "--out", ""], ["ablate", "--out", "afile"], ["ablate", "--out", "afile/sub"],
        ["ablate"],
    ], ids=lambda argv: "_".join(a or "empty" for a in argv))
    def test_bad_output_path_exits_2_and_writes_nothing(self, tmp_path, config_file, capsys,
                                                        monkeypatch, argv):
        """An empty path once wrote into the working directory or was ignored,
        a path to a file ended in a FileExistsError traceback, and a path
        through a file started the workers and failed in each as
        `variant CSAFM failed: ... Not a directory`."""
        entered = []
        monkeypatch.setattr(cli, "_blas_pinned_pool", lambda n: entered.append(n))
        path, cfg = config_file(epochs=1)
        path.write_text(json.dumps({**cfg, "out_dir": ""}))
        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").write_text("not a directory")
        before = sorted(tmp_path.rglob("*"))
        config = [] if argv[0] == "synth" else ["--config", str(path)]
        rc, _, err = run_cli(capsys, *argv, *config)
        assert rc == 2
        out = argv[-1] if len(argv) > 1 else ""
        assert (f"output directory {out}: afile is not a directory" if out
                else "output directory path is empty") in err
        assert "variant" not in err and entered == []
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("command", ["train", "ablate"])
    @pytest.mark.parametrize("fault, msg", [
        ({"dataset": "nope"}, "is not a directory"),
        ({"width_multiplier": 1e308}, "overflows"),
        ({"literal_double_mul": False}, "unknown config keys: ['literal_double_mul']"),
    ], ids=["missing_dataset", "overflowing_width", "literal_double_mul_key"])
    def test_refused_run_makes_no_directory(self, tmp_path, config_file, capsys, monkeypatch,
                                            command, fault, msg):
        """A run refused for its dataset or its model once left an empty
        output directory, and ablate one empty directory per variant. A
        config naming `literal_double_mul`, no longer a key, is refused too."""
        path, _ = config_file(epochs=1, **fault)
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        rc, _, err = run_cli(capsys, command, "--config", str(path), "--out", "o")
        assert rc == 2 and msg in err
        assert sorted(tmp_path.rglob("*")) == before


class TestAblate:
    def test_seven_row_table(self, tmp_path, config_file, capsys):
        path, _ = config_file(epochs=1)
        rc, _, err = run_cli(capsys, "ablate", "--config", str(path),
                             "--out", str(tmp_path / "ab"))
        assert rc == 0
        lines = (tmp_path / "ab" / "ablation.csv").read_text().splitlines()
        assert lines[0] == "variant,best_val_cir,test_cir"
        assert [ln.split(",")[0] for ln in lines[1:]] == _ABLATION_ORDER
        assert len(lines) == 8
        for ln in lines[1:]:
            _, bv, tc = ln.split(",")
            assert 0.0 <= float(bv) <= 100.0 and 0.0 <= float(tc) <= 100.0

    def test_parallel_matches_sequential(self, tmp_path, config_file, capsys,
                                         monkeypatch):
        """One worker and four write the same table, and `csafm train` on the
        config makes the ablation's CSAFM run."""
        path, _ = config_file(epochs=1)
        for threads in ("1", "4"):
            monkeypatch.setenv("CSAFM_THREADS", threads)
            rc, _, _ = run_cli(capsys, "ablate", "--config", str(path),
                               "--out", str(tmp_path / f"w{threads}"))
            assert rc == 0
        table = (tmp_path / "w1" / "ablation.csv").read_bytes()
        assert table == (tmp_path / "w4" / "ablation.csv").read_bytes()
        rc, _, _ = run_cli(capsys, "train", "--config", str(path),
                           "--out", str(tmp_path / "train"))
        assert rc == 0
        summary = json.loads((tmp_path / "train" / "summary.json").read_text())
        assert table.decode().splitlines()[1] == (
            f"CSAFM,{summary['best_val_cir']:.6f},{summary['test_cir']:.6f}")
        # worker runs leave their artifacts behind for inspection
        worker = tmp_path / "w1" / "variants" / "CSAFM" / "weights.csafm"
        assert worker.read_bytes() == (tmp_path / "train" / "weights.csafm").read_bytes()

    def test_workers_run_blas_at_one_thread(self, monkeypatch):
        for var in _BLAS_VARS:
            monkeypatch.delenv(var, raising=False)
        with _blas_pinned_pool(1) as pool:
            assert list(pool.map(os.getenv, _BLAS_VARS)) == ["1", "1", "1"]
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        with _blas_pinned_pool(1) as pool:
            assert list(pool.map(os.getenv, _BLAS_VARS)) == ["2", "1", "1"]

    def test_environment_restored(self, tmp_path, config_file, pgm_tree, capsys,
                                  monkeypatch):
        monkeypatch.setenv("CSAFM_THREADS", "2")
        for var in _BLAS_VARS:
            monkeypatch.delenv(var, raising=False)
        before = dict(os.environ)
        path, _ = config_file(epochs=1)
        rc, _, _ = run_cli(capsys, "ablate", "--config", str(path),
                           "--out", str(tmp_path / "ok"))
        assert rc == 0 and dict(os.environ) == before
        path, _ = config_file(dataset=str(pgm_tree({0: 10, 1: 20, 2: 20, 3: 20})))
        rc, _, err = run_cli(capsys, "ablate", "--config", str(path),
                             "--out", str(tmp_path / "bad"))
        assert rc == 2
        assert "variant CSAFM failed" in err and "per-class counts differ" in err
        assert dict(os.environ) == before

    def test_worker_error_keeps_its_class(self, tmp_path, config_file, pgm_tree,
                                          monkeypatch):
        """A worker's DataError reaches the caller as a DataError, not as a
        config error."""
        monkeypatch.setenv("CSAFM_THREADS", "2")
        path, _ = config_file(dataset=str(pgm_tree({0: 10, 1: 20, 2: 20, 3: 20})))
        args = build_parser().parse_args(
            ["ablate", "--config", str(path), "--out", str(tmp_path / "bad")])
        with pytest.raises(DataError, match="variant CSAFM failed") as info:
            cmd_ablate(args)
        assert "per-class counts differ" in str(info.value)

    def test_worker_cap_counts_usable_cpus(self, monkeypatch):
        monkeypatch.delenv("CSAFM_THREADS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert _worker_cap() == 1

    def test_thread_cap_validation(self, tmp_path, config_file, capsys,
                                   monkeypatch):
        path, _ = config_file(epochs=1)
        for bad in ("zero", "0"):
            monkeypatch.setenv("CSAFM_THREADS", bad)
            rc, _, err = run_cli(capsys, "ablate", "--config", str(path),
                                 "--out", str(tmp_path / "x"))
            assert rc == 2
            assert "CSAFM_THREADS" in err


class TestVerify:
    def test_all_checks_pass(self, capsys):
        rc, out, _ = run_cli(capsys, "verify")
        assert rc == 0
        lines = [ln for ln in out.splitlines() if ln]
        assert len(lines) == len(verify.CHECKS)
        assert all(ln.startswith("PASS ") for ln in lines)

    def test_failing_checks_reported_and_later_checks_run(self, capsys, monkeypatch):
        ran = []

        def passing(name):
            return name, lambda: ran.append(name)

        def broken_gate():
            raise AssertionError("gate moved")

        def broken_kernel():
            raise ValueError("kernel blew up")

        monkeypatch.setattr(verify, "CHECKS", [
            passing("first"), ("gate", broken_gate), passing("middle"),
            ("kernel", broken_kernel), passing("last"),
        ])
        rc, out, _ = run_cli(capsys, "verify")
        assert rc == 1
        assert out.splitlines() == [
            "PASS first", "FAIL gate: gate moved", "PASS middle",
            "FAIL kernel: kernel blew up", "PASS last",
        ]
        assert ran == ["first", "middle", "last"]

    def test_false_criterion_fails_under_python_O(self):
        """python -O strips assert statements; a check must still fail there."""
        script = (
            "import sys\n"
            "from csafm import ops, verify\n"
            "from csafm.cli import main\n"
            "assert sys.flags.optimize and False\n"  # stripped under -O
            "conv2d = ops.conv2d\n"
            "def shifted(x, p):\n"
            "    y = conv2d(x, p)\n"
            "    y.data[...] += 1\n"
            "    return y\n"
            "ops.conv2d = shifted\n"
            "verify.CHECKS[:] = [c for c in verify.CHECKS if c[0] == 'conv_forward_oracle']\n"
            "sys.exit(main(['verify']))\n"
        )
        src = os.path.dirname(os.path.dirname(verify.__file__))
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout.startswith("FAIL conv_forward_oracle: conv deviates from loop oracle by")


class TestParser:
    def test_missing_subcommand_exits(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand_exits(self, capsys):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
