"""Pulse-train geometry at the standard operating point.

Stations 20 m apart, 1 MHz repetition rate.  The pulse should last about
twice the one-way light time so that its first half is space-like
separated (loophole-free) and its second half is not.
"""

from bellrm import RunConfig, pulse_geometry

cfg = RunConfig(seed=0, run_duration_s=0.0)
geo = pulse_geometry(cfg)

print("station separation : %.1f m" % cfg.station_separation_m)
print("one-way light time : %.2f ns" % (geo.light_time_s * 1e9))
print("pulse duration     : %.2f ns  (default 2L/c)" % (geo.pulse_duration_s * 1e9))
print("whole-ns pulse D   : %d ns" % geo.pulse_duration_ns)
print("second half from   : %d ns  (first whole ns at or after L/c)" % geo.second_half_ns)
print("repetition period  : %.0f ns" % (geo.rep_period_s * 1e9))
print("duty cycle         : %.4f" % geo.duty_cycle)
print()
print("first pulse half   : detections space-like separated (t < L/c)")
print("second pulse half  : stations can communicate        (t > L/c)")
print("first-half slices  : %d of 2, %d of 4" % (geo.first_half_slices(2), geo.first_half_slices(4)))
print()

rounded = pulse_geometry(RunConfig(seed=0, run_duration_s=0.0, pulse_duration_s=120e-9))
print(
    "with the rounded 120 ns pulse the duty cycle is %.2f, and its second half"
    " still starts at %d ns, not at its middle" % (rounded.duty_cycle, rounded.second_half_ns)
)
