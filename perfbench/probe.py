"""Host-speed probe: a fixed CPU workload timed between measured segments.

The probe shares no code with the program under test but mimics its mix,
in up to four parts of similar length: a walk over a dict of 64k integer
keys (interpreter plus cache misses, like the memo tables), a scalar
integer fixed-point loop in Python (the python RTA tier's arithmetic),
``zlib`` compression (compiled integer code, like the compiled kernel tier)
and gathers from a 4 MiB float array (the NumPy side).  A host slowed by
frequency scaling, a busy hyperthread sibling or cache pressure slows the
probe about as much as the program, so measured times are divided by the
probe's slowdown against the reference host, turning raw wall times into
reference-host seconds.
"""

from __future__ import annotations

import statistics
import time
import zlib
from typing import List, Sequence

import numpy as np

#: Typical time of one part of one repetition on the reference host (a
#: 2-vCPU container, Python 3.11, NumPy 2.4).  Rescaled times are
#: expressed against it; the value only sets the unit.
REFERENCE_SECONDS_PER_PART = 0.00875

PARTS = ("dict", "fixed_point", "zlib", "numpy")

_KEYS = 1 << 16
_STREAM = 20_000
_ARRAY = 1 << 19  # float64 elements = 4 MiB
_GATHERS = 4
_BLOB = 1 << 16
_COMPRESSIONS = 3
_WINDOWS = 750
_TERMS = ((7, 2), (11, 3), (13, 1), (29, 5))


class HostProbe:
    """Owns the probe's working set; :meth:`point` times the fixed work."""

    def __init__(self, parts: Sequence[str] = PARTS) -> None:
        rng = np.random.default_rng(12345)
        keys = rng.permutation(_KEYS * 4)[:_KEYS]
        self._table = {int(key): int(key) * 7 + 3 for key in keys}
        self._stream = [int(keys[i]) for i in rng.integers(0, _KEYS, _STREAM)]
        self._array = rng.random(_ARRAY)
        self._index = rng.integers(0, _ARRAY, _ARRAY // 4)
        self._blob = rng.integers(0, 64, _BLOB, dtype=np.uint8).tobytes()
        self._parts = [getattr(self, f"_{part}") for part in parts]
        self._reference = REFERENCE_SECONDS_PER_PART * len(parts)
        self.samples: List[float] = []

    def _dict(self) -> int:
        table = self._table
        acc = 0
        for key in self._stream:
            value = table[key]
            acc = (acc + value * 3 - (value >> 2)) % 1_000_003
        return acc

    def _fixed_point(self) -> int:
        acc = 0
        for window in range(1, _WINDOWS):
            response = window
            for _ in range(8):
                bigger = window + sum(-(-response // period) * cost for period, cost in _TERMS)
                if bigger == response:
                    break
                response = bigger
            acc += response
        return acc

    def _zlib(self) -> int:
        return sum(len(zlib.compress(self._blob, 6)) for _ in range(_COMPRESSIONS))

    def _numpy(self) -> int:
        return sum(int(np.cumsum(self._array.take(self._index))[-1]) for _ in range(_GATHERS))

    def _once(self) -> float:
        start = time.perf_counter()
        acc = sum(part() for part in self._parts)
        elapsed = time.perf_counter() - start
        if acc < 0:  # keeps every part's result live
            raise AssertionError("unreachable")
        return elapsed

    def point(self, repeats: int) -> int:
        """Probe once (mean of *repeats* repetitions); returns its index."""
        self.samples.append(statistics.fmean(self._once() for _ in range(repeats)))
        return len(self.samples) - 1

    def factor(self, first: int, last: int) -> float:
        """Factor turning a raw time measured between probe points *first*
        and *last* into reference-host seconds: the reference over the mean
        of every probe point in between."""
        return self._reference / statistics.fmean(self.samples[first : last + 1])

    def iqr_ratio(self) -> float:
        """Inter-quartile range of every probe so far, as a share of the median."""
        if len(self.samples) < 2:
            return 0.0
        q1, q2, q3 = statistics.quantiles(self.samples, n=4)
        return (q3 - q1) / q2
