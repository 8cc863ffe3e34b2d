#!/usr/bin/env python3
"""Walk through the Fourier divergence construction at a covered point.

A covering test pins the point 0 inside ever-smaller stages.  Each stage n
contributes a scaled sum of translated Fejer kernels whose spectrum stops
at (n+1)^6, held in closed form (centres, order, amplitude).  Two things
happen at once, and this script prints both:

  * the stage norms are summable (so the stage sums settle down in L2), but
  * at the covered point every stage keeps adding at least 4C/pi^2, so the
    partial sums of the limit never settle down there.
"""

import math

from limitlab import (build_fourier_divergent, convergence_trace,
                      covering_test, integral_test_partial)

BETA = 4 / math.pi ** 2


def main():
    point = 0
    test = covering_test(point, depth=4)
    print(f"covering test at {point}: stage measures",
          [str(test.stage(k).measure()) for k in range(5)])

    fc = build_fourier_divergent(test, p=2.0, c_mult=1, n_max=3, point=point)
    print(f"\nmeasured norm-ratio constant A = {fc.ratio_constant:.6f}")
    print(f"divergence floor beta = 4C/pi^2 = {BETA:.6f}\n")

    print(f"{'n':>2} {'cutoff':>6} {'terms':>6} {'g_n(0)':>9} "
          f"{'||g_n||_2':>10} {'majorant':>9}")
    for st in fc.stages:
        print(f"{st.n:>2} {st.cutoff:>6} {len(st.centers):>6} "
              f"{st.g.eval(0.0):>9.4f} {st.g_norm:>10.4f} "
              f"{st.norm_majorant:>9.4f}")

    norms, majors = fc.summability()
    print(f"\nnorm partial sums:     {[round(v, 4) for v in norms]}")
    print(f"majorant partial sums: {[round(v, 4) for v in majors]}")
    print("summable: the construction converges in L2 norm.")

    print("\npartial sums of the final stage sum at the covered point:")
    trace = convergence_trace(fc.final.partial_sum, float(point), [0] + fc.cutoffs())
    for e in trace.entries:
        jump = "" if e.jump is None else f"  jump {e.jump:.4f}"
        print(f"  S_{e.cutoff:<5d} = {e.value:+.5f}{jump}")
    low = [e.cutoff for e in trace.entries if e.jump is not None and e.jump < BETA]
    if low:
        print(f"at cutoffs {low} the jump falls under beta = {BETA:.4f}.")
    else:
        print(f"at these {len(trace.entries) - 1} cutoffs every jump stays above "
              f"beta = {BETA:.4f}.")
    print("This is measured for the parameters above only: later stages carry low")
    print("frequencies too, so elsewhere a truncated trace can jump by less.")

    taus = fc.stage_polys()
    partials = [integral_test_partial(taus, 0.0, n) for n in range(1, len(taus))]
    print(f"\ndifference partial sums T_N(0) = {[round(v, 4) for v in partials]}")
    print("unbounded growth here is the finite-stage signature of divergence.")


if __name__ == "__main__":
    main()
