"""Host-speed calibration: a fixed piece of work timed next to every
timed operation, so that end-to-end times can be scaled to one reference
host speed.

On a shared host the same code runs at a speed that drifts by 20-50%
over seconds to minutes.  The drift moves the program and this fixed
work alike, so the program's time divided by the calibration time
measured around it cancels most of the drift; multiplied by
``REFERENCE_S`` it reads again in seconds.  The work mixes what the
program spends its time on: interpreter-bound loops over dicts and
floats, a text table written and parsed back record by record (policy
tables, CSVs), numpy calls on small arrays and passes over arrays larger
than a core's L2 cache.  The arrays are small next to the program's own memory, so
they add a constant few MB to ``peak_rss_mb``.  It never calls the
program, so no change to the program changes it.
"""

from __future__ import annotations

import time

import numpy as np

# The median calibration time on the host the bounds were set on (2 vCPU,
# Python 3.11.7, numpy 2.4.6).  Any constant works: a PR and its parent
# are compared with the same one.
REFERENCE_S = 0.15


class Calibration:
    """The fixed work and the arrays it runs on."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.small = rng.random(400)
        self.large = rng.random(1 << 18)  # with out: 4 MB, twice a core's L2
        self.out = np.empty_like(self.large)
        self.digits = rng.integers(0, 6, size=(400, 3))
        self.parsed = np.zeros(400)
        self._work()  # fault the pages in and warm the code paths

    def _work(self) -> float:
        acc, counts = 0.0, {}
        for i in range(90000):
            x = (i * 0.6180339887) % 1.0
            counts[i & 255] = counts.get(i & 255, 0.0) + x * x
            acc += x if x > 0.5 else -x
        # A text table written and parsed back, record by record, as
        # policy tables and CSVs are.
        small, digits = self.small, self.digits
        lines = []
        for i in range(12000):
            s = i % 400
            lines.append(f"{i} {s} {' '.join(str(int(d)) for d in digits[s])} "
                         f"{float(small[s])!r}")
        parsed = self.parsed
        for line in "\n".join(lines).split("\n"):
            parts = line.split()
            s = int(parts[1])
            parsed[s] = float(parts[-1]) + sum(int(d) for d in parts[2:-1])
        for _ in range(9000):
            acc += float(np.maximum(small, 0.5).dot(small))
        for _ in range(90):
            np.multiply(self.large, 1.0001, out=self.out)
            np.add(self.out, self.large, out=self.out)
        return acc + float(self.out[-1]) + float(parsed.sum()) + sum(counts.values())

    def measure(self) -> float:
        """Seconds the fixed work takes now."""
        t0 = time.monotonic()
        self._work()
        return time.monotonic() - t0


def scaled(seconds: float, calibration_s: float) -> float:
    """``seconds`` at the reference host speed."""
    return seconds * REFERENCE_S / calibration_s
