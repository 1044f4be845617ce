"""Fixed work that measures how fast this machine runs right now.

    python3 bench/calibrate.py

The work is of the program's own kind but uses nothing from entroflux:
a Python loop over small batched complex matrices (a drift step, a
trace normalisation, an eigendecomposition with a floor and an entropy
every tenth step).  It is the same on every commit, so its wall time
changes only with the machine's speed.  ``run.py`` runs it as a child
between the timed CLI invocations and scales the run's times by the
mean of its walls.  It prints the entropy sum it ends with,
which is the same on every run.
"""

import numpy as np

STEPS = 3000
BATCH = 256


def main() -> None:
    rng = np.random.default_rng(12345)
    a = rng.standard_normal((BATCH, 2, 2)) + 1j * rng.standard_normal((BATCH, 2, 2))
    h = 0.05 * (a + a.conj().transpose(0, 2, 1))
    x = np.broadcast_to(np.eye(2, dtype=complex) / 2, (BATCH, 2, 2)).copy()
    s = np.zeros(BATCH)
    for i in range(STEPS):
        y = np.einsum("bij,bjk->bik", h, x)
        x = x + 0.01 * (y + y.conj().transpose(0, 2, 1))
        x = x / np.einsum("bii->b", x).real[:, None, None]
        w, v = np.linalg.eigh(x)
        w = np.clip(w, 1e-12, None)
        x = np.einsum("bij,bj,bkj->bik", v, w, v.conj())
        if i % 10 == 0:
            s = -(w * np.log(w)).sum(axis=1)
    print(f"{s.sum():.6f}")


if __name__ == "__main__":
    main()
