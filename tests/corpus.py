"""Every MATLAB program the repo ships, for whole-corpus front-end and
inference tests: the paper workloads of ``repro.bench.workloads`` (both
scales), the frozen benchmark inputs under ``benchmarks/e2e/programs/``
and the scripts embedded in ``examples/``."""

import importlib.util
from pathlib import Path

from repro.bench.workloads import all_workloads, image_filter

ROOT = Path(__file__).resolve().parent.parent


def _example(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)     # every example guards main()
    return module


def shipped_programs():
    """``{label: (script source, {M-file name: source})}``."""
    programs = {}
    for scale in ("small", "paper"):
        for workload in all_workloads(scale):
            programs[f"bench/{workload.key}@{scale}"] = (workload.source, {})
    programs["bench/image_filter"] = (image_filter().source, {})
    e2e = ROOT / "benchmarks" / "e2e" / "programs"
    mfiles = {path.stem: path.read_text(encoding="utf-8")
              for path in sorted((e2e / "mfiles").glob("*.m"))}
    for path in sorted(e2e.glob("*.m")):
        programs[f"e2e/{path.stem}"] = (path.read_text(encoding="utf-8"),
                                        mfiles)
    for path in sorted((ROOT / "examples").glob("*.py")):
        module = _example(path)
        if hasattr(module, "SCRIPT"):
            programs[f"examples/{path.stem}"] = (
                module.SCRIPT, dict(getattr(module, "MFILES", {})))
    return programs


def all_sources():
    """``{label: source}`` of every script and M-file above."""
    sources = {}
    for label, (script, mfiles) in shipped_programs().items():
        sources[label] = script
        for name, text in mfiles.items():
            sources[f"{label.split('/')[0]}/mfiles/{name}"] = text
    return sources
