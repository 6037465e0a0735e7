"""The benchmark's traced layers and workloads must match the library.

``bench/layers.py`` patches library functions by module and attribute
name; a refactor that drops or renames one of them would only surface
when a traced benchmark run crashes. An import kept only for those
patches carries ``# noqa: F401``, and such a marker must not outlive its
reason. ``bench/workloads.py`` reads ``ExperimentConfig`` fields and builds
problems and kernel specs itself, so each workload's set-up must still
run, and one run of each must pass the bench's own output checks. These
tests read ``bench/`` and change nothing there.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
SRC = ROOT / "src" / "mfgspectral"


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers

    return layers


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    return workloads


@pytest.mark.parametrize("name", ["cli-1d-a", "cli-2d-a", "lib-2d-dense"])
def test_workload_setup_runs(workloads, name):
    # the bench's own constructors, at seed 0: config, kernel and problem
    workload = workloads.WORKLOADS[name](0)
    assert workload.setup() > 0.0
    assert workload.dimension in (1, 2) and workload.bins >= 2


def test_traced_names_resolve(layers):
    for name, owner, attr, _ in layers.COARSE + layers.LAYERS:
        assert callable(getattr(owner, attr, None)), (
            f"{name}: {owner.__name__}.{attr} is not a callable"
        )


def test_unused_imports_are_exactly_the_traced_ones(layers):
    # every `# noqa: F401` import names an attribute the bench patches in
    # that module, and nothing else in the module reads it
    traced = layers.COARSE + layers.LAYERS
    patched = {(owner.__name__, attr) for _, owner, attr, _ in traced}
    marked = 0
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        module = "mfgspectral" + ("" if path.stem == "__init__" else f".{path.stem}")
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for alias in node.names:
                if "noqa: F401" not in lines[alias.lineno - 1]:
                    continue
                marked += 1
                name = alias.asname or alias.name
                assert (module, name) in patched, (
                    f"{path.name}:{alias.lineno}: bench/layers.py does not patch {name}"
                )
                assert name not in read, (
                    f"{path.name}:{alias.lineno}: {name} is used, so needs no noqa"
                )
    assert marked  # the check saw the imports it is about



@pytest.mark.parametrize(
    "name, traced",
    [("cli-1d-a", False), ("cli-2d-a", False), ("lib-2d-dense", False),
     ("cli-2d-a", True)],
    ids=["cli-1d-a", "cli-2d-a", "lib-2d-dense", "cli-2d-a-traced"],
)
def test_workload_rep_passes_its_checks(workloads, layers, tmp_path, name, traced):
    # one run as bench/run.py makes it (seed 0, the workload's own bounds, the
    # phase boundaries and, when traced, every layer patched in): a library
    # check that rejects the bench's own inputs fails here, not first as a
    # failed benchmark run
    from tracer import Tracer

    tracer = Tracer()
    layers.install(tracer, traced)
    try:
        rep = workloads.WORKLOADS[name](0).rep(tracer, str(tmp_path))
    finally:
        tracer.restore()
    assert rep.ok, rep.failures
    assert rep.iterations > 0
