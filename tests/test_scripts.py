"""The tooling under scripts/, loaded from its file."""

import importlib.util
import multiprocessing
import time
from pathlib import Path
from types import SimpleNamespace

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_record_bench_export_names_have_one_length():
    """The length of the directory a run starts in moves fusion_paper's
    peak_rss_mb, so base and change must start from paths of one length."""
    prefixes = load_script("record_bench").EXPORT_PREFIXES
    assert set(prefixes) == {"base", "change"}
    assert len({len(p) for p in prefixes.values()}) == 1


def test_ab_rounds_fails_a_run_that_leaves_a_process_behind(capsys):
    """A child left alive would run beside the next timed run."""
    run_passed = load_script("ab_rounds").run_passed
    clean = SimpleNamespace(failures=[], failed=0)
    assert run_passed(clean, "base, seed 1")
    left = multiprocessing.get_context("fork").Process(target=time.sleep, args=(60,),
                                                       name="sleeper")
    left.start()
    assert not run_passed(clean, "change, seed 2")
    assert "1 child processes left running (sleeper) on change, seed 2" in capsys.readouterr().err
    assert multiprocessing.active_children() == []
    assert not run_passed(SimpleNamespace(failures=["x", "x"], failed=3), "base, seed 3")
    err = capsys.readouterr().err
    assert "check failed: x on base, seed 3" in err and "3 operations failed" in err
