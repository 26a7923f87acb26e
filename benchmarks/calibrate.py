"""Host-speed calibration: a fixed pure-Python loop timed next to the work.

The benchmark runs on a shared host whose speed drifts by up to 30% over
minutes, so a raw wall time measures the neighbours as much as raagscan.
``ScaledClock`` times each segment of work (one round, one graph, one
chunk) and runs the calibration loop after it.  The segment's wall time is
scaled by ``REFERENCE_S`` over the mean of the calibration times on either
side of it: the result is the time the segment would have taken at the
speed the reference machine had when ``REFERENCE_S`` was measured.  The
loop uses only the benchmark's own checkers, never raagscan, so a change to
the program cannot move it, and its inputs do not depend on the seed.
"""

from __future__ import annotations

import contextlib
import statistics
import time

import checkers as ck

# Median time of one ``calibrate()`` on the reference machine (2-core
# x86-64, Python 3.11.7); regenerate with `python3 benchmarks/calibrate.py`.
REFERENCE_S = 0.2

# Graphs, passes and the relabeling are fixed: every call does the same work.
_GRAPHS = [ck.sample_edges(9, 0.4, 2021, index) for index in range(16)]
_PERM = [3, 7, 0, 8, 1, 5, 2, 6, 4]
_PASSES = 80


def calibrate() -> float:
    """Wall time of one pass of the fixed loop, in seconds."""
    started = time.perf_counter()
    for _ in range(_PASSES):
        for edges in _GRAPHS:
            n, decoded = ck.decode_graph6(ck._encode_graph6(9, edges))
            moved = ck.relabel(decoded, _PERM)
            ck.clique_counts(n, moved)
            ck.maximal_clique_sizes(n, moved)
            ck.has_domination(n, moved)
            ck.component_count(n, moved)
    return time.perf_counter() - started


class Segment:
    wall_s = 0.0    # as measured
    scaled_s = 0.0  # at the reference speed


class ScaledClock:
    """Times segments of work, each scaled by the calibration around it."""

    def __init__(self):
        calibrate()  # the first pass warms up; it is not used
        self._before = calibrate()
        self.calibrations = [self._before]

    @contextlib.contextmanager
    def segment(self):
        """Times the body; the body may raise, the segment is still timed."""
        segment = Segment()
        started = time.perf_counter()
        try:
            yield segment
        finally:
            segment.wall_s = time.perf_counter() - started
            after = calibrate()
            self.calibrations.append(after)
            segment.scaled_s = segment.wall_s * 2 * REFERENCE_S / (self._before + after)
            self._before = after


if __name__ == "__main__":
    times = [calibrate() for _ in range(50)]
    print(f"median {statistics.median(times):.6f} s over {len(times)} passes; "
          f"quartiles {statistics.quantiles(times, n=4)}")
