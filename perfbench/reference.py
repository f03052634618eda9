"""The reference kernel: host speed, measured next to every timed request.

The host's speed drifts by a third over seconds to minutes, and the program's
timings move in lockstep with it. So every timing the benchmark reports is
normalised: ``raw * R0_S / R_local``, where ``R_local`` is the median of the
kernel's samples taken within about a second of the timed work and ``R0_S``
is a constant recorded once (see ``design.json``). The units stay seconds.

The kernel never imports ``repro``: a change to the program cannot change
it. It mixes the program's kind of work (seeded ``numpy`` generators with
small draws, ``json.dumps`` plus ``sha256``, dict/list/sort churn), so it
slows down with the host the way the program does; a plain arithmetic
loop tracked the program about four times worse.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import statistics
import time

# Bound by name: the traced run wraps numpy.random.default_rng to count the
# program's generators, and the kernel must not pass through that wrapper.
from numpy.random import default_rng

#: Median seconds of one :func:`kernel` call, recorded once on the reference
#: machine (2-vCPU x86-64 Linux VM, Python 3.11.7, numpy 2.4.6, pinned).
R0_S = 0.010
#: Iterations of the kernel's loop.
KERNEL_ROUNDS = 150
#: What :func:`kernel` returns; a different digest means the kernel changed.
KERNEL_DIGEST = "c423cad661a9029e3d3f81f0c6bd2ac731d44af73507bb4ed8484f696767ddfe"
#: Take a sample when this long has passed since the last one.
INTERVAL_S = 0.2
#: Samples within this many seconds of the timed work's midpoint are local.
WINDOW_S = 1.0
#: Fewer local samples than this: use this many nearest samples instead.
MIN_LOCAL = 3


def kernel() -> str:
    """A fixed mix of RNG construction, JSON hashing and dict/list/sort churn."""
    digest = hashlib.sha256()
    table: dict[str, list[float]] = {}
    for i in range(KERNEL_ROUNDS):
        rng = default_rng([7, i])
        draws = [round(x, 6) for x in rng.random(6).tolist()]
        picks = sorted(rng.choice(24, size=3, replace=False).tolist())
        record = {
            "id": f"t{i}", "question": "Is this item in stock?",
            "options": ["yes", "no"], "draws": draws, "picks": picks,
        }
        digest.update(json.dumps(record, sort_keys=True).encode())
        table.setdefault(f"k{i % 17}", []).extend(draws)
    ranked = sorted(table.items(), key=lambda kv: sorted(kv[1])[len(kv[1]) // 2])
    digest.update(",".join(key for key, _ in ranked).encode())
    return digest.hexdigest()


class Reference:
    """Kernel samples of one process, and the normalisation they give."""

    def __init__(self) -> None:
        self.times: list[float] = []  # midpoints, perf_counter seconds, ascending
        self.seconds: list[float] = []  # one kernel call each
        self.wrong = 0  # calls whose digest differed from KERNEL_DIGEST

    def sample(self) -> None:
        """Time one kernel call now."""
        start = time.perf_counter()
        digest = kernel()
        end = time.perf_counter()
        if digest != KERNEL_DIGEST:
            self.wrong += 1
        self.times.append((start + end) / 2)
        self.seconds.append(end - start)

    def due(self) -> None:
        """Sample if INTERVAL_S has passed since the last sample."""
        if not self.times or time.perf_counter() - self.times[-1] >= INTERVAL_S:
            self.sample()

    def local(self, at: float) -> float:
        """R_local: the median kernel seconds around perf_counter time *at*."""
        if not self.times:
            raise ValueError("no reference samples")
        lo = bisect.bisect_left(self.times, at - WINDOW_S)
        hi = bisect.bisect_right(self.times, at + WINDOW_S)
        if hi - lo < MIN_LOCAL:
            nearest = sorted(range(len(self.times)), key=lambda i: abs(self.times[i] - at))
            return statistics.median(self.seconds[i] for i in nearest[:MIN_LOCAL])
        return statistics.median(self.seconds[lo:hi])

    def normalise(self, raw: float, start: float, end: float) -> float:
        """*raw* seconds of work done between *start* and *end*, in reference seconds."""
        return raw * R0_S / self.local((start + end) / 2)

    def median_ms(self) -> float:
        """bench.ref_ms: the median of every sample, raw."""
        return statistics.median(self.seconds) * 1e3
