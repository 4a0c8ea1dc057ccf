"""Host-speed sampling, to take the host's speed out of the timings.

A shared host runs the same code anywhere from 1x to 1.6x slower from
one second to the next, and its slow states can last minutes. Timing a
reference loop between iterations does not follow such changes, so the
samplers here run a short fixed probe *while* an iteration runs, on the
cores that do its work. The probe is a small event loop over dicts,
sets, heaps and slotted objects, the kind of code the simulator spends
its time in, so it slows down with the host in about the same
proportion. Its duration is read as CPU time of the probing thread, so
a probe that waits for a core reads the core's speed, not the wait.

A probe that took `p` seconds says the core ran at speed
`NOMINAL_PROBE_S / p`. Work that took `t` seconds at speed `v` takes
`t * v` seconds at nominal speed. `NOMINAL_PROBE_S` is fixed: it is
about what the probe takes on the development host (Intel Xeon, 2
virtual cores, Python 3.11) in its common, slower state, so nominal
seconds read close to wall seconds there.

- `Sampler` probes every `PERIOD_S` of wall time from a SIGALRM handler,
  which Python runs between bytecodes of the main thread. It suits work
  done in the benchmark's own process; the reported times leave out the
  probes' own time.
- `PoolSampler` probes after every simulation the `evo` layer's pool
  workers run, by wrapping `olsrtune.evo.run_simulation` (the workers
  are forked, so they inherit the wrapper and the file it writes). Each
  simulation's CPU time is scaled by the speed the probe after it read.
  The reported CPU time leaves out the probes; the wall time includes
  them (about 3%).
"""

from __future__ import annotations

import heapq
import os
import random
import signal
import statistics
import time
from pathlib import Path

from olsrtune import evo

PERIOD_S = 0.15
NOMINAL_PROBE_S = 0.004


class _Node:
    __slots__ = ("links", "seen", "last")

    def __init__(self):
        self.links = {}
        self.seen = set()
        self.last = 0.0


def _probe_work():
    rng = random.Random(1)
    nodes = [_Node() for _ in range(24)]
    queue = [(rng.random() * 50.0, i % 24, i) for i in range(1200)]
    heapq.heapify(queue)
    total = 0.0
    while queue:
        t, n, i = heapq.heappop(queue)
        node = nodes[n]
        for m in range(0, 24, 3):
            node.links[m] = t + 6.0
        node.seen.add(i % 97)
        for k in [k for k, until in node.links.items() if until < t]:
            del node.links[k]
        node.last = max(node.last, t)
        total += len(node.links) * 0.5
    return total


def probe() -> tuple:
    """Run the probe once; returns its (wall, cpu) seconds."""
    w0, c0 = time.perf_counter(), time.thread_time()
    _probe_work()
    return time.perf_counter() - w0, time.thread_time() - c0


def _timings(wall: float, cpu: float, speed: float, probes: int) -> dict:
    return {
        "wall_raw": wall,
        "cpu_raw": cpu,
        "speed": speed,
        "wall": wall * speed,
        "cpu": cpu * speed,
        "probes": probes,
    }


class Sampler:
    """Probes the host's speed in this process while `measure` runs."""

    def __init__(self):
        self.probes = []
        self.probe_wall_s = 0.0
        self.probe_cpu_s = 0.0

    def _on_alarm(self, _signum, _frame):
        wall, cpu = probe()
        self.probes.append(cpu)
        self.probe_wall_s += wall
        self.probe_cpu_s += cpu

    def measure(self, fn, cpu_clock):
        """Call `fn()` with the host's speed sampled. Returns its result and
        its wall and `cpu_clock` seconds less the probes' own time, both
        raw and at nominal speed. One probe runs just before `fn` and one
        just after, so even a call shorter than the period has two."""
        self.__init__()
        self._on_alarm(None, None)
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        within_wall, within_cpu = -self.probe_wall_s, -self.probe_cpu_s
        w0, c0 = time.perf_counter(), cpu_clock()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        within_wall += self.probe_wall_s
        within_cpu += self.probe_cpu_s
        wall = time.perf_counter() - w0 - within_wall
        cpu = cpu_clock() - c0 - within_cpu
        self._on_alarm(None, None)
        speed = statistics.fmean(NOMINAL_PROBE_S / p for p in self.probes)
        return result, _timings(wall, cpu, speed, len(self.probes))


class PoolSampler:
    """Probes the speed of the cores that run the `evo` layer's
    simulations, in whichever process runs them, while `measure` runs.
    Each simulation appends one line to `log_path`."""

    def __init__(self, log_path):
        self.log_path = Path(log_path)

    @staticmethod
    def _probed(simulate, fd):
        def probed(*args, **kwargs):
            c0 = time.thread_time()
            result = simulate(*args, **kwargs)
            cpu = time.thread_time() - c0
            _, p = probe()
            # one short write to an O_APPEND file: lines written by
            # different processes do not interleave
            os.write(fd, f"{cpu!r} {p!r}\n".encode("ascii"))
            return result

        return probed

    def measure(self, fn, cpu_clock):
        """As `Sampler.measure`, for an `fn` that simulates through
        `olsrtune.evo`."""
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_APPEND
        fd = os.open(self.log_path, flags, 0o644)
        original = evo.run_simulation
        evo.run_simulation = self._probed(original, fd)
        try:
            w0, c0 = time.perf_counter(), cpu_clock()
            result = fn()
            wall = time.perf_counter() - w0
            cpu = cpu_clock() - c0
        finally:
            evo.run_simulation = original
            os.close(fd)
        rows = [tuple(map(float, line.split())) for line in self.log_path.read_text("ascii").splitlines()]
        sim_cpu = sum(c for c, _ in rows)
        nominal = sum(c * NOMINAL_PROBE_S / p for c, p in rows)
        probe_cpu = sum(p for _, p in rows)
        return result, _timings(wall, cpu - probe_cpu, nominal / sim_cpu, len(rows))
