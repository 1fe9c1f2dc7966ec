"""Shared domain types: processes, paths, speed sequences, deterministic RNG.

Samplers are pure functions of (seed, n): replica r of experiment e draws from
an independent counter-derived stream, so parallel replicas never share state
and reruns are byte-identical.

Replica chunks run concurrently through `map_chunks`: the Monte Carlo loops of
`inequalities.sample_maxima`, the naive branch of
`mdp.empirical_mdp_point` and `mdp.tilted_is_estimator`, and the row blocks
of `variance.sigma2_covariance_series`. It uses one
process-wide thread pool of min(4, CPUs this process may run on) threads,
and never more threads than chunks. The bytes do not depend on that count:
chunk ci draws only from its own generator `stream.child(ci)`, and every
caller reduces the chunk results in ascending ci. Everything else, including
`ProcessModel.sample_batch`, stays serial.
"""

from __future__ import annotations

import csv
import hashlib
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

import numpy as np

__all__ = [
    "RngStream",
    "Path",
    "SpeedSequence",
    "ProcessModel",
    "stream_index_for",
    "partial_sums",
    "normalized_process",
    "max_abs_partial_sum",
    "csv_cell",
    "write_csv",
    "chunk_workers",
    "map_chunks",
]


def stream_index_for(experiment: str, replica: int) -> int:
    """Stable 63-bit stream index for (experiment, replica)."""
    h = hashlib.blake2b(f"{experiment}:{replica}".encode(), digest_size=8)
    return int.from_bytes(h.digest(), "big") >> 1


@dataclass(frozen=True)
class RngStream:
    """A named substream of a master seed.

    Derivation is a pure function of (master_seed, stream_index); distinct
    indices give statistically independent generators.
    """

    master_seed: int
    stream_index: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_index,))
        return np.random.Generator(np.random.Philox(ss))

    def child(self, index: int) -> "RngStream":
        # children are substreams of this stream, not of the master directly
        return RngStream(self.master_seed, stream_index_for(str(self.stream_index), index))

    def named(self, experiment: str, replica: int = 0) -> "RngStream":
        return RngStream(self.master_seed, stream_index_for(experiment, replica))


@dataclass(frozen=True)
class Path:
    """A finite trajectory x_1..x_n; immutable after construction."""

    values: np.ndarray
    origin_seed: int
    states: Optional[np.ndarray] = None  # underlying Markov states, if the model has them

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 1:
            raise ValueError("path must be a nonempty 1-d array")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        if self.states is not None:
            s = np.asarray(self.states)
            s.setflags(write=False)
            object.__setattr__(self, "states", s)

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class SpeedSequence:
    """Speed a_n with a_n -> 0 and n*a_n -> infinity.

    Either a power rule a_n = n**(-gamma) with 0 < gamma < 1, or an explicit
    list (caller's responsibility that it is admissible).
    """

    gamma: Optional[float] = None
    explicit: Optional[Sequence[float]] = None

    def __post_init__(self):
        if (self.gamma is None) == (self.explicit is None):
            raise ValueError("exactly one of gamma / explicit must be given")
        if self.gamma is not None and not (0.0 < self.gamma < 1.0):
            raise ValueError("power rule requires 0 < gamma < 1")

    def a(self, n: int) -> float:
        if self.gamma is not None:
            return float(n) ** (-self.gamma)
        return float(self.explicit[n - 1])


@dataclass
class ProcessModel:
    """A sampler of a stationary bounded mean-zero sequence.

    Sampler contract: `sampler(n, rng, reps=None)` draws from the generator
    `rng` and returns either values or a pair (values, states) when the model
    tracks an underlying Markov state. With reps=None the values are one path
    of shape (n,); with an integer reps they are a block of shape (reps, n),
    one independent stationary path per row, drawn in one pass from the same
    generator. States follow the values' leading shape. `sample` and
    `sample_block` are the checked entry points: they enforce the shape and
    the bound |x| <= bound on every value.
    `kernel` (optional) carries exact conditional-expectation machinery;
    see mdplab.transfer for the kernel interface.
    """

    name: str
    bound: float
    sampler: Callable[..., Any]
    kernel: Optional[Any] = None
    meta: dict = field(default_factory=dict)

    def _checked(self, out, shape: tuple):
        values, states = out if isinstance(out, tuple) else (out, None)
        values = np.asarray(values, dtype=float)
        if values.shape != shape:
            raise RuntimeError(f"sampler returned shape {values.shape}, expected {shape}")
        amax = float(np.maximum(np.max(values), -np.min(values)))  # no |values| copy
        if amax > self.bound * (1 + 1e-12):
            raise RuntimeError(
                f"model {self.name}: sampled value {amax} exceeds bound {self.bound}"
            )
        return values, states

    def sample(self, n: int, stream: RngStream) -> Path:
        if n < 1:
            raise ValueError("n must be >= 1")
        values, states = self._checked(self.sampler(n, stream.generator()), (n,))
        return Path(values=values, origin_seed=stream.master_seed, states=states)

    def sample_block(self, n: int, reps: int, rng: np.random.Generator) -> np.ndarray:
        """(reps, n) array of values: reps independent paths from one generator."""
        if n < 1 or reps < 1:
            raise ValueError("n and reps must be >= 1")
        return self._checked(self.sampler(n, rng, reps), (reps, n))[0]

    def sample_batch(self, n: int, replicas: int, stream: RngStream) -> np.ndarray:
        """(replicas, n) array of values; replica r uses substream r."""
        rows = np.empty((replicas, n))
        for r in range(replicas):
            rows[r] = self.sample(n, stream.child(r)).values
        return rows


MAX_CHUNK_WORKERS = 4

_pool: Optional[ThreadPoolExecutor] = None
_pool_lock = threading.Lock()
_worker = threading.local()  # .active is True on the pool's own threads


def chunk_workers() -> int:
    """Threads `map_chunks` may use: the CPUs this process may run on, at most 4."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(MAX_CHUNK_WORKERS, cpus)


def _mark_worker():
    _worker.active = True


def _executor() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=chunk_workers(),
                                       thread_name_prefix="mdplab-chunk",
                                       initializer=_mark_worker)
        return _pool


def _forget_pool():
    # a forked child inherits the pool object but none of its threads
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def map_chunks(fn: Callable[[int], Any], count: int) -> list:
    """[fn(0), .., fn(count - 1)], run concurrently on the shared pool.

    The result list is in chunk order whatever order the chunks finish in.
    The first failing chunk, in chunk order, re-raises its exception here.
    A call from a pool thread, or with one worker or one chunk, runs inline,
    so nested calls cannot deadlock.
    """
    if count <= 1 or chunk_workers() <= 1 or getattr(_worker, "active", False):
        return [fn(ci) for ci in range(count)]
    futures = [_executor().submit(fn, ci) for ci in range(count)]
    try:
        return [f.result() for f in futures]
    finally:
        for f in futures:
            f.cancel()  # after a failure, drop the chunks not yet started


def partial_sums(path: Path) -> np.ndarray:
    """S_1..S_n."""
    return np.cumsum(path.values)


def normalized_process(path: Path, t: float) -> float:
    """W_n(t) = n^{-1/2} * S_[nt], with W_n(0) = 0."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    n = len(path)
    k = int(np.floor(n * t))
    if k == 0:
        return 0.0
    return float(np.sum(path.values[:k])) / np.sqrt(n)


def max_abs_partial_sum(path: Path) -> float:
    """max_{1<=k<=n} |S_k|."""
    return float(np.max(np.abs(partial_sums(path))))


def csv_cell(v) -> str:
    """One CSV field; floats, numpy ones included, as repr(float) so they round-trip."""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_csv(path: str, header, rows):
    """The one writer of data CSVs: a header line, then one line per row."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([csv_cell(v) for v in row])
