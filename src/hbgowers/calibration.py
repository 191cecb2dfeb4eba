"""Frozen calibration constants for the inequality and regression bands.

``INEQ_CONSTANTS`` other than ``u2``, and ``WW_SIGNS_BAND``, were measured
by scripts/calibrate_ineq.py (structured families plus 1000 seeded random
instances per inequality at N <= 64, the large-N transfer family for
``u3mod``, 50 random-sign orbits for the band), then frozen at twice the
observed maximum, rounded up at the second decimal.  ``u2`` is pinned at 1:
with exact interval normalizers the proof chain closes below sqrt(2/3)/2,
so the clean constant is provable, not calibrated.  ``CYCLIC_INTERVAL_TOL``
is a contractual tolerance set far above the measured difference.  The
script also prints the moment family maximum; no constant is frozen from
it.

Measured maxima (2026-08 sweep, seeds fixed in the script):

    u2      0.3359375      (structured; bound is the provable 1.0)
    u3mod   0.2052001953125
    u4conv  0.2052001953125
    rtt     0.027468881518871065
    double  0.05076169209412211
    transfer family (same constant as u3mod): 0.01003990848247513
    moment  0.20602307489399665
    signs   1.156901834429755   (sup / sqrt(log N / N), 50 seeds, N = 2^14)
    cyclic/interval rel. difference 3.47e-06

Rerun the script and refresh this module if any kernel changes; regressions
must stay below these values.

``U3_SECONDS_PER_WORK`` prices every U^3 job the cli gates, so one argv gets
one estimate on every run and --budget-seconds is in seconds on this
reference box: 2 cores of an Intel Xeon, Python 3.11.7, numpy 2.4.6.  The
script times interleaved real-input gowers_u3_fast runs at L = 1024, 2048,
4096 and 8192 (one warm-up each, then 5 rounds) and divides the total
seconds by the total gowers._plan_work.  Eight such runs (2026-10) gave
6.8e-10 to 8.6e-10 s per unit as the host load moved; the value is the top
of that range rounded up at the first digit.  The estimate is in one-thread
seconds: it priced the mixed-length perfbench u3_interval traffic at 1.00 to
1.15 times its traced time while those jobs ran one thread, and now that
they run on every usable core the traced ratio reads 1.62 to 1.73 (ROADMAP
item 4).
"""

# worst observed lhs/rhs ratio x 2, rounded up; u2 is the proven constant
INEQ_CONSTANTS: dict[str, float] = {
    "u2": 1.0,
    "u3mod": 0.42,
    "u4conv": 0.42,
    "rtt": 0.06,
    "double": 0.11,
}

# sup-grid modulus of a random-sign orbit with unit weight at N = 2^14:
# sup <= WW_SIGNS_BAND * sqrt(log N / N)
WW_SIGNS_BAND: float = 2.32

# |interval - cyclic| / cyclic for block weights sampled over full periods
CYCLIC_INTERVAL_TOL: float = 0.10

# seconds per unit of gowers._plan_work of a real-input gowers_u3_fast run on
# the reference box; the cli prices every U^3 job by it
U3_SECONDS_PER_WORK: float = 9e-10
