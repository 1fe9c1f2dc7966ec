"""Shared domain types: processes, paths, speed sequences, deterministic RNG.

Samplers are pure functions of (seed, n): every draw comes from a
counter-derived stream (`RngStream`), so parallel replicas never share state
and reruns are byte-identical.

Every Monte Carlo loop over replicas goes through one seam, `map_replicas`:
`ProcessModel.sample_batch`, `inequalities.sample_maxima`, the naive branch
of `mdp.empirical_mdp_point`, `mdp.tilted_is_estimator` and the CLI's demo
suite. Replica chunk ci draws one block from its own generator
`stream.child(ci)`. The chunks, and the row blocks of
`variance.sigma2_covariance_series`, run concurrently through `map_chunks` on
one process-wide thread pool of min(4, CPUs this process may run on) threads,
never more threads than chunks. The bytes do not depend on that count: every
caller reduces the chunk results in ascending ci.
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
    "write_csv",
    "chunk_workers",
    "map_chunks",
    "map_replicas",
]


def _derive(parent: int, tag: str, key: str) -> int:
    """63-bit index of the substream `key` in domain `tag` of stream `parent`."""
    h = hashlib.blake2b(f"{parent}:{tag}:{key}".encode(), digest_size=8)
    return int.from_bytes(h.digest(), "big") >> 1


# numpy's SeedSequence hash: a pool of four 32-bit words and these constants
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = 0xCA01F9DD, 0x4973F715
_M32 = 0xFFFFFFFF


def _philox_keys(master_seed: int, indices: np.ndarray) -> np.ndarray:
    """(len(indices), 2) uint64 array whose row i is the Philox key of
    RngStream(master_seed, indices[i]).generator(), for uint64 indices.

    This is the hash of SeedSequence(master_seed, spawn_key=(i,)) followed by
    generate_state(2, uint64), run over all indices at once. Its entropy
    words are the seed's 32-bit words, zero-padded to the pool size 4, then
    i's one word (i < 2^32) or two. The hash constant advances the same way
    for every index, so only the data are arrays.
    """
    if master_seed < 0:
        raise ValueError("the master seed must be nonnegative")
    seed_words = []
    while master_seed or len(seed_words) < 4:
        seed_words.append(master_seed & _M32)
        master_seed >>= 32
    high = (indices >> np.uint64(32)).astype(np.uint32)
    words = [np.full(indices.shape, w, dtype=np.uint32) for w in seed_words]
    words += [(indices & np.uint64(_M32)).astype(np.uint32), high]
    const = _SS_INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _SS_MULT_A & _M32
        value = value * np.uint32(const)
        return value ^ value >> np.uint32(16)

    def mix(x, y):
        r = np.uint32(_SS_MIX_L) * x - np.uint32(_SS_MIX_R) * y
        return r ^ r >> np.uint32(16)

    pool = [hashmix(w) for w in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        mixed = [mix(p, hashmix(w)) for p in pool]
        # an index below 2^32 has no high word to mix in
        pool = [np.where(high > 0, m, p) for m, p in zip(mixed, pool)] if w is high else mixed
    out = []
    const = _SS_INIT_B
    for p in pool:
        p = p ^ np.uint32(const)
        const = const * _SS_MULT_B & _M32
        p = p * np.uint32(const)
        out.append((p ^ p >> np.uint32(16)).astype(np.uint64))
    return np.stack([out[0] | out[1] << np.uint64(32), out[2] | out[3] << np.uint64(32)], axis=1)


@dataclass(frozen=True)
class RngStream:
    """A substream of a master seed.

    The generator is a pure function of (master_seed, stream_index); distinct
    indices give statistically independent generators. Substreams follow one
    rule: the new index is the blake2b hash of (this stream's index, a domain
    tag, a key), so a substream depends on its whole ancestry.
    `named(name, r)` uses the tag "named" and the key "name:r", `child(i)`
    the tag "child" and the key "i", so children and named streams are
    derived in separate domains.
    """

    master_seed: int
    stream_index: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_index,))
        return np.random.Generator(np.random.Philox(ss))

    def child(self, index: int) -> "RngStream":
        return RngStream(self.master_seed, _derive(self.stream_index, "child", str(index)))

    def named(self, name: str, replica: int = 0) -> "RngStream":
        return RngStream(self.master_seed,
                         _derive(self.stream_index, "named", f"{name}:{replica}"))


@dataclass(frozen=True)
class Path:
    """A finite trajectory x_1..x_n; immutable after construction."""

    values: np.ndarray
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
    """Speed a_n = n**(-gamma) with 0 < gamma < 1, so a_n -> 0 and n*a_n -> infinity."""

    gamma: float

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("power rule requires 0 < gamma < 1")

    def a(self, n: int) -> float:
        return float(n) ** (-self.gamma)


BATCH_CHUNK_VALUES = 2**16  # values per `sample_batch` chunk
REPLICA_CHUNK = 1024  # replicas per chunk of maxima and naive hit counts


@dataclass
class ProcessModel:
    """A sampler of a stationary bounded mean-zero sequence.

    Sampler contract: `sampler(n, rng, reps)` draws a block of shape
    (reps, n) from the generator `rng`, one independent stationary path per
    row, in one pass. It returns the values, or a pair (values, states) when
    the model tracks an underlying Markov state. A chain with memory records
    n + 1 states, pre-path state first: states[:, k] is the state after k
    steps and X_k is read off it. iid models record their n values, and
    expanding maps their forward orbit x_1..x_n. A block of more than one
    row may omit its states, since no caller reads them. `sample` is row 0 of the one-row
    block, states included. `sample`, `sample_block` and `sample_rows` are
    the checked entry points: they enforce the shape and the bound
    |x| <= bound on every value, which no nan or inf meets.
    `kernel` (optional) carries exact conditional-expectation machinery;
    see mdplab.transfer for the kernel interface.
    """

    name: str
    bound: float
    sampler: Callable[..., Any]
    kernel: Optional[Any] = None
    meta: dict = field(default_factory=dict)

    @staticmethod
    def _shaped(out, shape: tuple):
        values, states = out if isinstance(out, tuple) else (out, None)
        values = np.asarray(values, dtype=float)
        if values.shape != shape:
            raise RuntimeError(f"sampler returned shape {values.shape}, expected {shape}")
        return values, states

    def _checked(self, out, shape: tuple):
        values, states = self._shaped(out, shape)
        amax = float(np.maximum(np.max(values), -np.min(values)))  # no |values| copy
        if not amax <= self.bound * (1 + 1e-12):  # a nan anywhere makes amax nan
            raise RuntimeError(
                f"model {self.name}: sampled value {amax} exceeds bound {self.bound}"
            )
        return values, states

    def sample(self, n: int, stream: RngStream) -> Path:
        if n < 1:
            raise ValueError("n must be >= 1")
        values, states = self._checked(self.sampler(n, stream.generator(), 1), (1, n))
        return Path(values=values[0], states=None if states is None else states[0])

    def sample_block(self, n: int, reps: int, rng: np.random.Generator) -> np.ndarray:
        """(reps, n) array of values: reps independent paths from one generator."""
        if n < 1 or reps < 1:
            raise ValueError("n and reps must be >= 1")
        return self._checked(self.sampler(n, rng, reps), (reps, n))[0]

    def sample_rows(self, n: int, streams: Sequence[RngStream]) -> np.ndarray:
        """(len(streams), n) array whose row i is the one-row block drawn from
        streams[i].generator(), which equals `sample(n, streams[i]).values`.

        The streams share one master seed. Their keys come from one
        `_philox_keys` pass, and one Philox generator, reset to each key in
        turn, stands in for the streams' own: the same draws without building
        a generator per row. Each row's shape is checked as it is drawn, the
        bound once over the whole block.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        seeds = {stream.master_seed for stream in streams}
        if len(seeds) > 1:
            raise ValueError("sample_rows needs streams of one master seed")
        block = np.empty((len(streams), n))
        if not streams:
            return block
        keys = _philox_keys(seeds.pop(), np.array([s.stream_index for s in streams],
                                                   dtype=np.uint64))
        bitgen = np.random.Philox(0)
        rng = np.random.Generator(bitgen)
        fresh = bitgen.state  # counter 0, nothing buffered
        for row, key in zip(block, keys):
            fresh["state"]["key"] = key
            bitgen.state = fresh
            values, _ = self._shaped(self.sampler(n, rng, 1), (1, n))
            row[:] = values[0]
        return self._checked(block, block.shape)[0]

    def sample_batch(self, n: int, replicas: int, stream: RngStream) -> np.ndarray:
        """(replicas, n) array of values, drawn through `map_replicas` in
        chunks of about 2^16 values, each written in place."""
        if n < 1:
            raise ValueError("n must be >= 1")
        out = np.empty((replicas, n))

        def fill(rows, rng):
            out[rows.start:rows.stop] = self.sample_block(n, len(rows), rng)

        map_replicas(replicas, max(1, BATCH_CHUNK_VALUES // n), stream, fill)
        return out

    def centered_observable(self) -> np.ndarray:
        """meta["observable"] at the kernel's nodes (the nodes themselves if
        the model publishes none) minus its mean under the kernel's measure."""
        if self.kernel is None:
            raise ValueError(f"model {self.name} has no exact kernel")
        nodes = self.kernel.nodes
        obs = self.meta.get("observable")
        f = np.asarray(nodes if obs is None else obs(nodes), dtype=float)
        return f - self.kernel.mu(f)


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


def map_replicas(replicas: int, chunk: int, stream: RngStream,
                 fn: Callable[[range, np.random.Generator], Any]) -> list:
    """[fn(rows, rng)] per chunk of `chunk` replicas, in chunk order.

    Chunk ci covers the replicas rows = range(ci * chunk, min((ci + 1) *
    chunk, replicas)) and draws only from rng = stream.child(ci).generator(),
    so its draws depend on (stream, chunk, ci) alone. The chunks run through
    `map_chunks`.
    """
    if chunk < 1:
        raise ValueError("chunk must be >= 1")

    def run(ci):
        start = ci * chunk
        return fn(range(start, min(start + chunk, replicas)), stream.child(ci).generator())

    return map_chunks(run, -(-replicas // chunk))


def _csv_cell(v) -> str:
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
            w.writerow([_csv_cell(v) for v in row])
