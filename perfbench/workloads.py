"""Job lists of the three workloads, built from the workload seed.

The builders take the imported ``ueigen`` module as ``ue``, so the set-up
timing can include a fresh import of the package. Every input is built with
``ue.catalog`` or ``ue.from_array``. The workload seed draws the random
inputs and derives every ``SolverConfig.seed``: repetition r of a job gets
``1000 * seed + r``, so seed 0 runs each fixture's baseline configuration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from perfbench.spans import Spans

WORKLOADS = ("small_states", "dense_cubes", "high_order")
TOL = 1e-9

SMALL_FIXTURES = ("example_4_1", "example_4_2", "trig_2", "trig_5")
# Each fixture runs with this many solver seeds. A random state's cost varies
# tenfold with the state, a fixture's by a few percent with the seed, so the
# repeats keep the seed-to-seed spread of a pass small.
SMALL_FIXTURE_REPEATS = 50
# One Haar-random state per dims: twelve already moved a pass by 6 %.
SMALL_DIMS = ((2, 2, 2), (2, 3, 3), (3, 3, 3), (2, 2, 2, 2), (4, 4, 4), (2, 2, 2, 2, 2))
# dense_cubes: sums of product states with these weights, plus Haar noise.
# Most are 24^3, so the median job is one of a group of like jobs.
MIX_WEIGHTS = (1.0, 0.8, 0.6, 0.4)
MIX_NOISE = 0.05
MIX_SIZES = (20, 24, 24, 24, 20, 24, 24, 24)
MIX_STARTS = 5


@dataclass(frozen=True)
class Job:
    name: str
    tensor: object  # ue.ComplexTensor
    config: object  # ue.SolverConfig
    catalog_id: str | None
    is_state: bool


@dataclass(frozen=True)
class Workload:
    jobs: tuple[Job, ...]
    probe_id: str  # catalog id of the per-layer probe input
    cli_job: str  # the job replayed through the CLI
    # Known defects that the gate must keep counting as failed jobs.
    expected_failures: frozenset[str]
    catalog_build_s: float


class _Builder:
    def __init__(self, ue, seed: int, spans: Spans):
        self.ue = ue
        self.seed = seed
        self.spans = spans
        self.rng = np.random.default_rng(seed)
        self.jobs: list[Job] = []
        self.catalog_s = 0.0
        self._built: dict[str, tuple[object, bool]] = {}

    def _add(self, label, tensor, is_state, catalog_id, algorithm="gauss_seidel",
             alpha=1.0, starts=10, max_iter=5000, repeat=0):
        name = f"{label}/{algorithm}"
        if alpha != 1.0:
            name += f"/a={alpha:g}"
        if starts != 10:
            name += f"/k={starts}"
        if repeat:
            name += f"/r={repeat}"
        config = self.ue.SolverConfig(
            algorithm=algorithm, alpha=alpha, tol=TOL, max_iter=max_iter,
            starts=starts, seed=1000 * self.seed + repeat,
        )
        self.jobs.append(Job(name, tensor, config, catalog_id, is_state))

    def catalog(self, catalog_id: str, **solver):
        if catalog_id not in self._built:
            t0 = time.perf_counter()
            with self.spans.span("catalog.build", "setup"):
                built = self.ue.catalog.build(catalog_id)
            self.catalog_s += time.perf_counter() - t0
            is_state = isinstance(built, self.ue.PureState)
            self._built[catalog_id] = (built.tensor if is_state else built, is_state)
        tensor, is_state = self._built[catalog_id]
        self._add(catalog_id, tensor, is_state, catalog_id, **solver)

    def haar(self, dims, **solver):
        state_seed = int(self.rng.integers(2**32))
        with self.spans.span("catalog.random_state", "setup"):
            state = self.ue.catalog.random_state(dims, state_seed)
        self._add(f"haar{'x'.join(map(str, dims))}#{state_seed}", state.tensor,
                  True, None, **solver)

    def mix(self, n: int, **solver):
        rng = self.rng

        def unit():
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            return z / np.linalg.norm(z)

        data = sum(w * np.einsum("i,j,k->ijk", unit(), unit(), unit()) for w in MIX_WEIGHTS)
        noise = rng.standard_normal((n,) * 3) + 1j * rng.standard_normal((n,) * 3)
        data = data / np.linalg.norm(data) + MIX_NOISE * noise / np.linalg.norm(noise)
        with self.spans.span("tensor.from_array", "setup"):
            tensor = self.ue.from_array(data / np.linalg.norm(data))
        self._add(f"mix{n}#{len(self.jobs)}", tensor, True, None, **solver)


def build(ue, workload: str, seed: int, spans: Spans | None = None) -> Workload:
    """Every input and solver setting of ``workload`` for ``seed``."""
    b = _Builder(ue, seed, spans or Spans())
    if workload == "small_states":
        for repeat in range(SMALL_FIXTURE_REPEATS):
            for catalog_id in SMALL_FIXTURES:
                b.catalog(catalog_id, repeat=repeat)
        for dims in SMALL_DIMS:
            b.haar(dims)
        return Workload(tuple(b.jobs), "trig_5", "trig_2/gauss_seidel",
                        frozenset(), b.catalog_s)
    if workload == "dense_cubes":
        b.catalog("trig_15")
        b.catalog("trig_20")
        for n in MIX_SIZES:
            b.mix(n, starts=MIX_STARTS)
        # Both starts hit max_iter: a fixed block of kernel work.
        b.haar((20, 20, 20), starts=2)
        return Workload(tuple(b.jobs), "trig_20", "trig_15/gauss_seidel",
                        frozenset(), b.catalog_s)
    if workload == "high_order":
        b.catalog("example_4_3", algorithm="embed", alpha=0.02, starts=1,
                  max_iter=100_000)
        b.catalog("example_4_3", algorithm="joint", alpha=0.02, starts=2,
                  max_iter=100_000)
        b.catalog("example_4_6", algorithm="joint", alpha=0.002, max_iter=50_000)
        b.catalog("example_4_6")
        # One state: a Haar state's iteration count swings by 3x with the seed.
        b.haar((2,) * 5, algorithm="joint", alpha=0.02, max_iter=100_000)
        # Joint at the default shift stalls at lambda ~0.014 against 0.5774.
        b.catalog("example_4_7", algorithm="joint", starts=1)
        return Workload(tuple(b.jobs), "example_4_3", "example_4_7/joint/k=1",
                        frozenset({"example_4_7/joint/k=1"}), b.catalog_s)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
