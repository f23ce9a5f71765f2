"""Machine-speed probe, so that times taken minutes apart can be compared.

The machines this benchmark runs on share their cores with other machines,
whose load moves this one's speed by 20-30% within tens of seconds; wall and
CPU seconds move together, and the same answer's time spreads by a third
between runs.  The probe is a separate process that, for the whole run,
times a fixed ~1 ms pure-Python chunk every 20 ms (about 5% of one core) and
records when each chunk started and how long it took.  `run.py` divides each
time it measures by the probe's speed factor over the same interval: the
median chunk duration in the interval over REFERENCE_CHUNK_S.

Started by `run.py` as `python3 benchmarks/speed.py`; it stops when its
stdin closes and prints its samples as one JSON list of [start, seconds].
"""

from __future__ import annotations

import json
import select
import statistics
import subprocess
import sys
import time

INTERVAL_S = 0.02
# Typical duration of chunk() on the machine the committed baseline was
# measured on (2 vCPUs, Intel Xeon at 2.1 GHz).
REFERENCE_CHUNK_S = 0.00110
MIN_SAMPLES = 5


class ProbeError(RuntimeError):
    pass


def chunk() -> int:
    s = 0
    for i in range(12000):
        s += (i * 7) % 13
    return s


def probe_loop() -> list:
    samples = []
    while True:
        t = time.monotonic()
        chunk()
        samples.append((t, time.monotonic() - t))
        if select.select([sys.stdin], [], [], INTERVAL_S)[0]:
            return samples


class Probe:
    """The probe process for the span of a `with` block."""

    def __enter__(self) -> "Probe":
        self.samples: list = []
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc) -> None:
        try:
            out, _ = self._proc.communicate(input="", timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
            raise ProbeError("the speed probe did not stop")
        if self._proc.returncode == 0 and out.strip():
            self.samples = json.loads(out)


def speed_factor(samples, start: float, end: float) -> float:
    """Speed factor over [start, end]: above 1 when the machine ran slow.

    Uses the chunks started inside the interval, or the MIN_SAMPLES chunks
    started nearest its middle when the interval holds fewer.
    """
    inside = [d for t, d in samples if start <= t <= end]
    if len(inside) < MIN_SAMPLES:
        mid = (start + end) / 2
        near = sorted(samples, key=lambda s: abs(s[0] - mid))
        inside = [d for _, d in near[:MIN_SAMPLES]]
    if len(inside) < 2:
        raise ProbeError("the speed probe recorded too few samples")
    return statistics.median(inside) / REFERENCE_CHUNK_S


if __name__ == "__main__":
    print(json.dumps(probe_loop()))
