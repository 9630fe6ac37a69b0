"""Documentation guards: the code blocks in the docs must actually run.

Docs rot silently; these tests execute the README quickstart and the
protocol-authoring guide's worked example verbatim, and check metadata
consistency (version strings, experiment index coverage).
"""

from __future__ import annotations

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _python_blocks(path: pathlib.Path):
    text = path.read_text()
    return re.findall(r"```python\n(.*?)```", text, re.S)


class TestReadme:
    def test_quickstart_block_runs(self):
        blocks = _python_blocks(ROOT / "README.md")
        assert blocks, "README lost its quickstart block"
        # The quickstart uses doctest-style bare expressions; exec line by
        # line, evaluating expression lines.
        namespace: dict = {}
        for line in blocks[0].splitlines():
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            try:
                exec(line, namespace)
            except SyntaxError:
                eval(compile(line, "<readme>", "eval"), namespace)

    def test_mentions_all_example_scripts(self):
        readme = (ROOT / "README.md").read_text()
        for script in (ROOT / "examples").glob("*.py"):
            assert script.name in readme, f"README does not mention {script.name}"


class TestProtocolGuide:
    def test_worked_example_runs(self):
        blocks = _python_blocks(ROOT / "docs" / "writing_protocols.md")
        assert blocks
        exec(blocks[0], {})


class TestMetadata:
    def test_version_consistent(self):
        import repro

        pyproject = (ROOT / "pyproject.toml").read_text()
        assert f'version = "{repro.__version__}"' in pyproject

    def test_design_covers_every_benchmark(self):
        design = (ROOT / "DESIGN.md").read_text()
        for bench in (ROOT / "benchmarks").glob("bench_e*.py"):
            assert bench.name in design, (
                f"DESIGN.md experiment index does not mention {bench.name}"
            )

    def test_paper_map_mentions_every_package(self):
        paper_map = (ROOT / "docs" / "paper_map.md").read_text()
        for pkg in (ROOT / "src" / "repro").iterdir():
            if pkg.is_dir() and not pkg.name.startswith("__"):
                assert f"repro.{pkg.name}" in paper_map, (
                    f"docs/paper_map.md does not mention repro.{pkg.name}"
                )


def _traced_plane_spans():
    """Span names of one small traced run of every plane, audit on."""
    import numpy as np

    from repro import telemetry
    from repro.congest import CongestUniformityTester, HardenedCongestTester
    from repro.core.collision import CollisionGapTester
    from repro.distributions import uniform
    from repro.experiments import make_topology, robustness_sweep
    from repro.localmodel import LocalUniformityTester
    from repro.simulator import Topology
    from repro.simulator.faults import FaultPlan
    from repro.smp import (
        BCGMapping,
        EqualityProtocol,
        TesterBasedEqualityProtocol,
    )

    with telemetry.tracing(telemetry.Tracer()) as tracer:
        star = make_topology("star", 60)
        for cls, extra in ((CongestUniformityTester, {}),
                           (HardenedCongestTester,
                            {"faults": FaultPlan(seed=7, drop_prob=0.02)})):
            cls.solve(200, 60, 0.9, 1 / 3, 64).estimate_error(
                star, uniform(200), True, 4, rng=1, fast_path=True,
                engine_check=0.5, **extra,
            )
        robustness_sweep(200, 60, 0.9, samples_per_node=64, trials=2,
                         drop_probs=(0.0, 0.05), fast_path=True,
                         engine_check=0.5)
        local = LocalUniformityTester(n=2000, eps=1.5, p=0.45)
        ring = Topology.ring(512)
        radius = local.choose_radius(ring, rng=1, fast_path=True)
        local.estimate_error(ring, uniform(2000), True, radius, 8, rng=1,
                             fast_path=True, engine_check=0.25)
        torus = EqualityProtocol.build(16, delta=0.05, tau=2.0)
        mapping = BCGMapping(code=torus.code)
        bcg = TesterBasedEqualityProtocol(
            mapping=mapping,
            tester=CollisionGapTester.from_delta(mapping.domain_size, 0.05),
        )
        x = np.zeros(16, dtype=int)
        for protocol in (torus, bcg):
            protocol.estimate_error(x, x, 8, rng=1, engine_check=0.5)
    return {e["name"] for e in tracer.events if e["event"] == "span"}


class TestObservabilityDoc:
    """docs/observability.md must name the routes and spans the code has."""

    DOC = ROOT / "docs" / "observability.md"

    def test_routes_match_telemetry(self):
        from repro import telemetry

        bullet = re.search(
            r"^- `route` — one of (.*?)\n- ", self.DOC.read_text(), re.S | re.M
        )
        assert bullet, "observability.md lost its route bullet"
        assert tuple(re.findall(r"`([a-z-]+)`", bullet.group(1))) == (
            telemetry.ROUTES
        )

    def test_every_traced_span_documented(self):
        documented = set()
        for line in self.DOC.read_text().splitlines():
            if line.startswith("| `"):
                documented.update(re.findall(r"`([^`]+)`", line.split("|")[1]))
        names = {
            "engine.phase.<name>" if name.startswith("engine.phase.") else name
            for name in _traced_plane_spans()
        }
        assert {
            "trial_plane.engine_check", "fault_plane.replay",
            "robustness.engine_check", "local_plane.engine_check",
            "smp_plane.engine_check",
        } <= names
        assert names - documented == set()
