"""The three serving workloads: their stores and their seeded op inputs.

Everything here goes through the program's public surface: stores are
built with ``IdentificationEngine.add_many`` and ``save``, probes and
write submissions come from ``BiometricDevice``.  The same seed always
gives the same store and the same op list.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator

import numpy as np

from repro import HelperData, IdentificationEngine, NumberLine, SystemParams
from repro.biometrics.synthetic import BoundedUniformNoise, UserPopulation
from repro.crypto.signatures import get_scheme
from repro.protocols.database import UserRecord
from repro.protocols.device import BiometricDevice
from repro.protocols.messages import RotateRequest

#: Sketch dimension of every workload (the paper's n=128 geometry).
DIMENSION = 128
#: ``repro serve``'s default signature scheme; the server is launched
#: with its defaults, so the device must sign with the same scheme.
SCHEME = "dsa-1024"
#: Share of identification probes that come from strangers.
STRANGER_SHARE = 0.10
#: Distinct read ops generated per run; the leg cycles through them.
READ_POOL = 4096
#: Write submissions generated per measured second (never reused).
WRITES_PER_SECOND = 500


@dataclass(frozen=True)
class Workload:
    """One named traffic mix over one store shape."""

    name: str
    records: int        # rows in the store at launch
    genuine: int        # identities enrolled with real keys
    write_share: float  # share of ops that are writes (rest are reads)
    read_kind: str      # "identify" or "verify"
    journal: bool       # serve with --journal on a fresh store copy
    concurrency: int    # ops in flight on the one connection

    def scaled(self, records: int, genuine: int) -> "Workload":
        """A smaller copy of this workload (the self-checks use it)."""
        return replace(self, records=records, genuine=genuine)


WORKLOADS = {
    "identify-100k": Workload("identify-100k", records=100_000, genuine=64,
                              write_share=0.0, read_kind="identify",
                              journal=False, concurrency=4),
    "verify-4k": Workload("verify-4k", records=4096, genuine=4096,
                          write_share=0.0, read_kind="verify",
                          journal=False, concurrency=8),
    "write-mix-10k": Workload("write-mix-10k", records=10_000, genuine=64,
                              write_share=0.5, read_kind="identify",
                              journal=True, concurrency=8),
}


@dataclass
class Op:
    """One closed-loop operation and what a correct answer looks like.

    ``kind`` is ``identify``, ``verify``, ``enroll``, ``rotate`` or
    ``revoke``.  ``user_id`` is the identity the answer must name
    (``None`` for a stranger's probe, which must come back unidentified).
    ``message`` is the op's first request, made in advance; a revoke's
    target is chosen live from identities this launch has enrolled.
    """

    kind: str
    user_id: str | None
    reading: np.ndarray | None = None
    message: object = None

    @property
    def family(self) -> str:
        """Latency family: ``identify``, ``verify`` or ``write``."""
        return self.kind if self.kind in ("identify", "verify") else "write"


class Inputs:
    """Seeded population, device and op lists for one workload run."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.params = SystemParams.paper_defaults(n=DIMENSION)
        self.scheme = get_scheme(SCHEME)
        self.population = UserPopulation(
            self.params, size=workload.genuine,
            noise=BoundedUniformNoise(self.params.t), seed=seed)
        self.user_ids = self.population.user_ids()
        self.device = BiometricDevice(
            self.params, self.scheme, seed=b"perfbench-%d" % seed)
        #: Seconds per ``probe_sketch`` call made while generating inputs.
        self.probe_s: list[float] = []

    # -- store --------------------------------------------------------------

    def build_store(self, path: Path) -> float:
        """Enroll the genuine users plus uniform filler and save the store.

        Returns the build time in seconds.
        """
        start = time.perf_counter()
        records = []
        for i, user_id in enumerate(self.user_ids):
            submission = self.device.enroll(user_id,
                                            self.population.template(i))
            records.append(UserRecord(user_id=submission.user_id,
                                      verify_key=submission.verify_key,
                                      helper_data=submission.helper_data))
        records.extend(self._filler(self.workload.records
                                    - self.workload.genuine))
        engine = IdentificationEngine(self.params)
        try:
            engine.add_many(records)
            engine.save(path)
        finally:
            engine.close()
        return time.perf_counter() - start

    def _filler(self, count: int) -> list[UserRecord]:
        """Uniform sketches that no probe matches (never challenged)."""
        rng = np.random.default_rng([self.seed, 1])
        half = self.params.interval_width // 2
        movements = rng.integers(-half, half + 1, size=(count, self.params.n),
                                 dtype=np.int64)
        return [UserRecord(user_id=f"filler-{i}", verify_key=b"",
                           helper_data=HelperData(
                               movements=row, tag=b"", seed=b"").to_bytes())
                for i, row in enumerate(movements)]

    # -- ops ------------------------------------------------------------------

    def read_ops(self, count: int, stream: int) -> list[Op]:
        """``count`` read ops of the workload's read kind."""
        rng = np.random.default_rng([self.seed, 2, stream])
        ops = []
        for _ in range(count):
            if self.workload.read_kind == "verify":
                user = int(rng.integers(self.workload.genuine))
                ops.append(Op("verify", self.user_ids[user],
                              self.population.genuine_reading(user, rng)))
                continue
            if rng.random() < STRANGER_SHARE:
                user_id = None
                reading = self.population.impostor_reading(rng)
            else:
                user = int(rng.integers(self.workload.genuine))
                user_id = self.user_ids[user]
                reading = self.population.genuine_reading(user, rng)
            start = time.perf_counter()
            probe = self.device.probe_sketch(reading)
            self.probe_s.append(time.perf_counter() - start)
            ops.append(Op("identify", user_id, reading, probe))
        return ops

    def write_ops(self, count: int, stream: int, tag: str) -> list[Op]:
        """``count`` writes cycling enroll, rotate, enroll, revoke.

        Enrolled identities are named ``<tag>-<i>`` so warm-up and
        measured writes never collide inside one launch.
        """
        rng = np.random.default_rng([self.seed, 3, stream])
        half = NumberLine(self.params).half_range
        ops = []
        for i in range(count):
            step = i % 4
            if step in (0, 2):
                user_id = f"{tag}-{i}"
                template = rng.integers(-half, half, size=self.params.n,
                                        dtype=np.int64)
                ops.append(Op("enroll", user_id, message=self.device.enroll(
                    user_id, template)))
            elif step == 1:
                user = int(rng.integers(self.workload.genuine))
                user_id = self.user_ids[user]
                fresh = self.device.enroll(user_id,
                                           self.population.template(user))
                ops.append(Op("rotate", user_id, message=RotateRequest(
                    user_id=user_id, verify_key=fresh.verify_key,
                    helper_data=fresh.helper_data, supersede=True)))
            else:
                ops.append(Op("revoke", None))
        return ops

    def stream(self, reads: list[Op], writes: list[Op],
               stream: int) -> Iterator[Op]:
        """Reads (cycled) interleaved with writes at the write share.

        Ends when the writes run out; a read-only stream never ends.
        """
        rng = np.random.default_rng([self.seed, 4, stream])
        r = w = 0
        while True:
            if writes and rng.random() < self.workload.write_share:
                if w == len(writes):
                    return
                yield writes[w]
                w += 1
            else:
                yield reads[r % len(reads)]
                r += 1


def store_bytes(path: Path) -> int:
    """Total size of the regular files under ``path``."""
    return sum(entry.stat().st_size for entry in path.rglob("*")
               if entry.is_file())


def src_digest(src: Path) -> str:
    """SHA-256 over every source file's relative path and bytes."""
    digest = hashlib.sha256()
    for file in sorted(src.rglob("*.py")):
        digest.update(str(file.relative_to(src)).encode())
        digest.update(file.read_bytes())
    return digest.hexdigest()[:16]


def cpu_model() -> str:
    """The CPU model string from ``/proc/cpuinfo`` (empty if unknown)."""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return ""


def nproc() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))
