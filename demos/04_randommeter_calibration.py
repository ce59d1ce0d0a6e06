"""Calibrate the randomness meter on a vetted full-entropy generator.

Each battery test should reject about 1% of truly random sequences; the
compound any-test rate sits a little below the independence estimate
1 - 0.99^5 because the walk-based tests are positively correlated.  The
compression ratio of incompressible input lands slightly above 1 (the
dictionary coder pays its finite-length overhead), far from the ratios
of constant or short-period input.
"""

import numpy as np

from bellrm import BatteryConfig, compression_ratio, run_battery
from bellrm.models import scenario_pattern
from bellrm.randommeter import curve_from_reports

cfg = BatteryConfig()
gen = np.random.Generator(np.random.PCG64(20260808))

n_seq, length = 300, 10_000
sequences = [gen.integers(0, 2, length).astype(np.uint8) for _ in range(n_seq)]

reports = [run_battery(bits, cfg) for bits in sequences]
per_test = {name: 0 for name in BatteryConfig.TEST_NAMES}
for report in reports:
    for res in report.results:
        per_test[res.test_name] += bool(res.applicable and res.rejected)

print("rejections over %d full-entropy sequences of %d bits:" % (n_seq, length))
for name, k in per_test.items():
    print("  %-16s %3d  (%.3f, target %.2f)" % (name, k, k / n_seq, cfg.alpha_sig))

# the curve wants two slices; the second is left empty
reading = curve_from_reports({0: reports, 1: []}, cfg).readings[0]
print(
    "compound rate %.3f  [%.3f, %.3f];  independence approximation %.3f"
    % (reading.rejection_rate, reading.ci_low, reading.ci_high, cfg.false_alarm_rate)
)

print()
print("compression ratios (compressed bits / original bits):")
print("  full entropy : %.3f" % compression_ratio(sequences[0]))
print("  all zeros    : %.3f" % compression_ratio(np.zeros(length, dtype=np.uint8)))
periodic = np.tile(scenario_pattern(64, seed=4), 157)[:length]
print("  64-periodic  : %.3f" % compression_ratio(periodic))
