"""Time the pure-Python kernels against the compiled extension.

Runs each hot kernel on both backends and prints a comparison table.  The
spread walk has no compiled twin, so its row times the pure backend only.
Fraction-coefficient workloads are included deliberately: there the cost
is Fraction arithmetic itself, so the extension cannot win much and the
table should show that honestly.  The int rows are the paths the series
layer takes for integer series (every generating function here): plain
int multiply-add, and a unit inverse with constant term 1 and no division.

Usage: python3 benchmarks/bench_kernels.py [--heavy]
"""

import argparse
import time
from fractions import Fraction

from overq import _qkern_py as pure

try:
    from overq import _qkern as compiled
except ImportError:
    compiled = None


def best_of(fn, args, reps=3):
    best = None
    for _ in range(reps):
        t0 = time.perf_counter()
        fn(*args)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def workloads(heavy):
    n_frac = 400 if heavy else 250
    n_int = 900 if heavy else 600
    prec = 3000 if heavy else 1500
    box = 13 if heavy else 12
    win_n, win_t = (120, 6) if heavy else (110, 5)
    total_n = 62 if heavy else 55

    frac_a = [Fraction(i % 7 - 3, i % 3 + 1) for i in range(n_frac)]
    frac_b = [Fraction((i * 5) % 11 - 5, i % 4 + 1) for i in range(n_frac)]
    unit = [Fraction(1)] + frac_a[1:]
    int_unit = [1] + [(i * 3) % 7 - 3 for i in range(1, n_frac)]
    int_a = [(i * 7) % 23 - 11 for i in range(n_int)]
    int_b = [(i * 5) % 19 - 9 for i in range(n_int)]

    def binom_pipeline(mod):
        c = list(range(1, prec))
        for k in range(1, 41):
            c = mod.div_one_minus(c, 1, k)
            c = mod.mul_one_minus(c, -1, k)
        return c

    return [
        (f"convolve Fraction {n_frac}x{n_frac}",
         lambda mod: mod.convolve(frac_a, frac_b, n_frac), 3, True),
        (f"convolve int {n_int}x{n_int}",
         lambda mod: mod.convolve(int_a, int_b, n_int), 3, True),
        (f"invert_unit Fraction {n_frac}",
         lambda mod: mod.invert_unit(unit, n_frac), 3, True),
        (f"invert_unit int {n_frac}",
         lambda mod: mod.invert_unit(int_unit, n_frac), 3, True),
        (f"binomial pipeline 80 factors @{prec}",
         binom_pipeline, 3, True),
        (f"box walk {box}x{box}",
         lambda mod: mod.box_weighted_counts(box, box), 1, True),
        (f"window walk n={win_n} t={win_t}",
         lambda mod: mod.window_diff_counts(win_n, win_t), 1, False),
        (f"total walk n={total_n}",
         lambda mod: mod.all_partition_weighted_counts(total_n), 1, True),
    ]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--heavy", action="store_true",
                        help="larger workloads (a few seconds per row)")
    args = parser.parse_args()

    if compiled is None:
        print("compiled extension not available; timing pure backend only")

    rows = []
    for label, fn, reps, has_twin in workloads(args.heavy):
        t_pure = best_of(fn, (pure,), reps)
        if compiled is not None and has_twin:
            t_comp = best_of(fn, (compiled,), reps)
            rows.append((label, t_pure, t_comp, t_pure / t_comp))
        else:
            rows.append((label, t_pure, None, None))

    width = max(len(r[0]) for r in rows)
    header = f"{'kernel':<{width}}  {'pure':>9}  {'compiled':>9}  {'speedup':>7}"
    print(header)
    print("-" * len(header))
    for label, t_pure, t_comp, ratio in rows:
        if t_comp is None:
            print(f"{label:<{width}}  {t_pure:>8.4f}s  {'-':>9}  {'-':>7}")
        else:
            print(f"{label:<{width}}  {t_pure:>8.4f}s  {t_comp:>8.4f}s  "
                  f"{ratio:>6.1f}x")


if __name__ == "__main__":
    main()
