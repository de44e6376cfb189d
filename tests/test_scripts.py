"""The tooling under scripts/, loaded from its file."""

import importlib.util
from pathlib import Path

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
