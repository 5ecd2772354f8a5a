"""Every example script must run cleanly — they are executable docs."""

import os
import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[2] / "examples"
EXAMPLE_SCRIPTS = sorted(EXAMPLES_DIR.glob("*.py"))


def test_examples_exist():
    assert len(EXAMPLE_SCRIPTS) >= 6


@pytest.mark.parametrize(
    "script", EXAMPLE_SCRIPTS, ids=[s.stem for s in EXAMPLE_SCRIPTS]
)
def test_example_runs_cleanly(script, tmp_path):
    # Examples write into tempfile.mkdtemp() directories they leave for
    # the reader (traced_sweep.py prints its trace to open): point them
    # at this test's directory, which pytest's retention bounds.
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=300,
        env=dict(os.environ, TMPDIR=str(tmp_path)),
    )
    assert result.returncode == 0, (
        f"{script.name} failed:\n{result.stderr[-2000:]}"
    )
    assert result.stdout.strip(), f"{script.name} produced no output"


EXAMPLE_SPECS = sorted(EXAMPLES_DIR.glob("*.yaml"))


def test_spec_examples_exist():
    names = {path.name for path in EXAMPLE_SPECS}
    assert "sweep_spec.yaml" in names
    assert "full_library_sweep.yaml" in names


@pytest.mark.parametrize(
    "spec_path", EXAMPLE_SPECS, ids=[s.stem for s in EXAMPLE_SPECS]
)
def test_spec_example_loads_and_resolves(spec_path):
    yaml = pytest.importorskip("yaml")
    from repro.engine import get_pipeline, load_sweeps

    data = yaml.safe_load(spec_path.read_text())
    if "nodes" in data:
        # A quantified-case file: it must load/validate, and it must be
        # runnable through the case_confidence pipeline.
        from repro.arguments import QuantifiedCase

        case = QuantifiedCase.from_file(spec_path)
        assert case.parameter_defaults()
        get_pipeline("case_confidence").resolve(
            {"case_file": str(spec_path)}
        )
        return
    sweeps = load_sweeps(spec_path)
    assert sweeps
    for sweep in sweeps:
        pipeline = get_pipeline(sweep.pipeline)
        for scenario in sweep.expand():
            pipeline.resolve(scenario.params)


def test_full_library_sweep_drives_at_least_six_pipelines():
    pytest.importorskip("yaml")
    from repro.engine import load_sweeps

    sweeps = load_sweeps(EXAMPLES_DIR / "full_library_sweep.yaml")
    assert len({sweep.pipeline for sweep in sweeps}) >= 6
