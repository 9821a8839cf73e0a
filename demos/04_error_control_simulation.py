"""Empirical check of the false-discovery guarantee.

On data where labels carry no signal, every reported pattern is a false
discovery, so the fraction of simulation runs with non-empty output
estimates the family-wise error rate.  The guarantee promises at most
delta = 0.05; in practice the thresholds are conservative and the empirical
rate sits near zero.  The planted-signal harness then shows the other side:
a genuinely associated selector is recovered essentially always.

Also included: the two-distribution tail check behind the conditional
analysis - large supremum deviations under exactly-k-ones permutations are
at most twice as likely as under independent Bernoulli labels.  It
enumerates all 2^20 labelings, so both probabilities are exact.
"""

from sigmine.suites import suite_coupling, suite_fwer, suite_power

TRIALS = 100  # keep the demo quick; the acceptance suite runs 200

print(f"null-data calibration, {TRIALS} trials per mode (delta = 0.05)")
fwer = suite_fwer(trials=TRIALS, seed=7)
for line in fwer.lines:
    print("  " + line)

print(f"\nplanted-signal recovery, {TRIALS} trials per mode")
power = suite_power(trials=TRIALS, seed=7)
for line in power.lines:
    print("  " + line)

print("\npermutation-vs-resample tail coupling (m=20, k=10, 3 covers)")
coupling = suite_coupling()
for line in coupling.lines:
    print("  " + line)

print("\nall bands hold" if fwer.ok and power.ok and coupling.ok else "\nBAND VIOLATION")
