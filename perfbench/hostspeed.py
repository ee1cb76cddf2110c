"""Host-speed sampler: scales measured intervals to a fixed reference speed.

On a shared host the same code runs up to 1.8x slower while other tenants
are busy, in stretches of seconds to minutes, so a wall time says as much
about the neighbours as about the program. While the sampler runs, a SIGALRM
handler runs a fixed probe every PERIOD_S: a Python loop and a few beam
steps of a small float32 GRU decoder with attention, the program's own mix,
but code of its own, so a faster program does not make the probe faster.
`seconds(start, end)` takes the interval's wall time without the probes
inside it and scales it by how fast the probes within WINDOW_S of it ran, to
the speed at which one probe takes REFERENCE_PROBE_S:

    seconds = (end - start - probe time) * REFERENCE_PROBE_S * mean(1 / probe time)

A faster program gives proportionally smaller values; a slower host does not.
The probe runs on the measured thread, so it sees the contention the program
sees. One probe is a noisy reading of the host's speed, so an interval
shorter than a probe period is scaled by its neighbours too, not by the one
probe it may hold. Without a running sampler, `seconds` is plain wall time.
"""

import signal
from array import array
from bisect import bisect_left
from contextlib import contextmanager
from time import perf_counter

import numpy as np

PERIOD_S = 0.15
WINDOW_S = 0.5
WARMUP_STEPS = 4  # untimed steps that bring the probe's data back into cache
REFERENCE_PROBE_S = 4.0e-3  # between the timed probe's p10 and median on a 2-vCPU Xeon VM

_rng = np.random.default_rng(0)


def _weights(*shape):
    return (0.1 * _rng.standard_normal(shape)).astype(np.float32)


# The shapes of the desk-config decoder: embeddings 266 x 96, GRU input
# 96 + 128, hidden 128, attention 64 over 30 source states, output 256 -> 266.
_EMB, _DW, _DU = _weights(266, 96), _weights(224, 384), _weights(128, 384)
_W2, _W3, _V, _OUT = _weights(128, 64), _weights(128, 64), _weights(64), _weights(256, 266)
_ENC, _D0 = _weights(30, 128), _weights(5, 128)
_SRC = _rng.integers(0, 266, 30)
_ROWS, _COLS = np.repeat(np.arange(5), 30), np.tile(_SRC, 5)


def probe(steps=16, loop=6000):
    """A Python loop and `steps` beam-5 steps of a small GRU decoder with
    attention and copy scores: the program's mix, in code of its own. Long
    enough to run warm, as the program does between probes."""
    acc = 0
    for i in range(loop):
        acc += i & 7
    d, beta, ids = _D0, np.zeros_like(_D0), np.arange(5)
    for _ in range(steps):
        gx = np.concatenate([_EMB[ids], beta], axis=1) @ _DW
        gh = d @ _DU
        z = 1.0 / (1.0 + np.exp(-(gx[:, :128] + gh[:, :128])))
        r = 1.0 / (1.0 + np.exp(-(gx[:, 128:256] + gh[:, 128:256])))
        d = (1.0 - z) * np.tanh(gx[:, 256:] + r * gh[:, 256:]) + z * d
        e = np.tanh((_ENC @ _W2)[None] + (d @ _W3)[:, None, :]) @ _V
        a = np.exp(e - e.max(axis=1, keepdims=True))
        beta = (a / a.sum(axis=1, keepdims=True)) @ _ENC
        logits = np.concatenate([d, beta], axis=1) @ _OUT
        scores = np.exp(logits - logits.max(axis=1, keepdims=True))
        np.add.at(scores, (_ROWS, _COLS), np.exp(e).reshape(-1))
        flat = np.log(scores / scores.sum(axis=1, keepdims=True)).reshape(-1)
        ids = np.argsort(-flat)[:5] % 266
    return acc


class HostClock:
    def __init__(self):
        self.at = array("d")  # probe start times, ascending
        self.took = array("d")  # probe durations, warm-up included
        self.timed = array("d")  # probe durations after the warm-up

    def _tick(self, _signum, _frame):
        started = perf_counter()
        probe(WARMUP_STEPS, 0)
        warm = perf_counter()
        probe()
        ended = perf_counter()
        self.at.append(started)
        self.took.append(ended - started)
        self.timed.append(ended - warm)

    @contextmanager
    def sampling(self):
        """Run the probe every PERIOD_S for the duration of the block."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def seconds(self, start, end):
        """Reference-speed seconds of the work done between start and end."""
        if not self.took:
            return end - start
        lo, hi = bisect_left(self.at, start), bisect_left(self.at, end)
        near = self.timed[bisect_left(self.at, start - WINDOW_S) : bisect_left(self.at, end + WINDOW_S)]
        if not near:  # far from every probe: the nearest ones
            near = self.timed[max(0, lo - 1) : lo + 1]
        work = end - start - sum(self.took[lo:hi])
        return work * REFERENCE_PROBE_S * sum(1.0 / t for t in near) / len(near)

    def summary(self):
        took = np.asarray(self.timed)
        return {"probes": len(took), "probe_us_p10_p50_p90":
                [round(1e6 * float(x), 1) for x in np.percentile(took, [10, 50, 90])] if len(took) else []}
