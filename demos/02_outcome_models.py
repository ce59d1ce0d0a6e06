"""Correlation curves and CHSH values of the pluggable outcome models.

The quantum model reaches E(delta) = cos 2*delta and S = 2*sqrt(2); the
local deterministic sign model produces the sawtooth E(delta) = 1 -
4*delta/pi and tops out exactly at the classical bound S = 2.
"""

import numpy as np

from bellrm import (
    CHSH_MENU,
    ModelKind,
    OutcomeModel,
    PairSampler,
    qm_correlation,
    sawtooth_correlation,
)
from bellrm.streams import substream

N = 200_000


def sampled_correlation(model, delta, rng):
    sampler = PairSampler(model, 1, [(delta, 0.0)])
    bits_a, bits_b = sampler.sample(
        np.zeros(N, dtype=np.intp), np.arange(N) * 1000,
        np.zeros(N, dtype=np.int64), 50, rng,
    )
    return float(np.mean(np.where(bits_a == bits_b, 1.0, -1.0)))


def sampled_chsh(model, rng):
    sampler = PairSampler(model, 2, CHSH_MENU)
    s = 0.0
    for k, sign in enumerate((1, -1, 1, 1)):
        bits_a, bits_b = sampler.sample(
            np.full(N, k), np.arange(N) * 1000, np.zeros(N, dtype=np.int64), 50, rng,
        )
        s += sign * float(np.mean(np.where(bits_a == bits_b, 1.0, -1.0)))
    return abs(s)


rng = substream(3, "demo-models")
qm = OutcomeModel(ModelKind.QM_NONLOCAL)
local = OutcomeModel(ModelKind.LOCAL_ERGODIC)

print("delta (deg) |  E quantum (cos 2d) |  E local (sawtooth)")
for delta in np.linspace(0, np.pi / 2, 7):
    e_qm = sampled_correlation(qm, delta, rng)
    e_local = sampled_correlation(local, delta, rng)
    print(
        "   %6.1f   |  %+.3f  (%+.3f)    |  %+.3f  (%+.3f)"
        % (np.degrees(delta), e_qm, qm_correlation(delta, 0), e_local, sawtooth_correlation(delta))
    )

print()
print("CHSH S at the standard angles (a=0, a'=pi/4, b=pi/8, b'=3pi/8):")
print("  quantum        S = %.3f   (2*sqrt2 = %.3f)" % (sampled_chsh(qm, rng), 2 * np.sqrt(2)))
print("  local ergodic  S = %.3f   (classical bound 2)" % sampled_chsh(local, rng))
print("  drifting angle S = %.3f" % sampled_chsh(OutcomeModel(ModelKind.NONERGODIC), rng))
