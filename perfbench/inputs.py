"""Seeded inputs: one family of mirror-symmetric strips, drawn from --seed.

Curvature-mode strips have k(s) = k0 + k1 cos(2 pi s / L) and width
delta0 (1 + amp cos(2 pi s / L)) with L in [2.5, 4].  Each seed draws the
same six recipes, so every workload sees the same mix whatever the seed:

    a        k >= 0 everywhere (curvature case a), variable width
    b_const  constant k < 0 and constant width (an annular sector); the only
             recipe on which the closed-form lower bounds apply, because
             they need concave curvature and constant or concave width
    c        k changes sign (case c), variable width
    b        k < 0 everywhere (case b), variable width
    parabola y = c t^2 on [-T, T], sign of c drawn, variable width
    sweep    constant k < 0 and width of mean 1, like configs/wavy_sweep.json
             and the acceptance sweep: the epsilon sweep scales the width
             down to 5 %, and on the 0.15-0.35 widths of the recipes above
             its thinnest entries stall in inverse iteration (SolveFailure
             at the 1e-12 tolerance, in 4 of 32 draws with one BLAS thread),
             a program defect this benchmark does not measure

The ranges keep every draw a valid strip: 1 + delta k >= 0.35, total
turning below pi, and |delta'| < 0.8, so validation succeeds.  The four
curvature recipes a, b_const, c, b split each of the ranges of L, delta0,
amp and the curvature strengths into four strata, and a fixed Latin
square gives every recipe its own stratum of each range (recipe i takes
stratum (i + j) mod 4 of parameter j); the seed draws the point within
the stratum.  So every seed covers short and long, narrow and wide,
weakly and strongly curved strips, and each recipe stays in the same
quarter of every range, which keeps the mix of strips the same from seed
to seed.  (The descent's step counts are chaotic in the domain all the
same; cases.py says how strip_descent copes with that.)  The parabola and the
sweep strip, one of a kind each, are drawn from narrow bands around the
middle of the ranges: the parabola's width and length set the CLI's
peak memory (the domain validation's pair search grows as the strip
narrows; over delta0 in [0.15, 0.35] the peak varied from 98 to 119 MiB
with the seed), and the sweep is thin_limit's slowest case.
Values are rounded to four decimals and written with fixed decimals, so
the same seed gives byte-identical config files.

Mesh sizes are fixed ladders, never drawn: ns is even and nt >= 16,
because odd ns and nt < 16 crash the program (a known robustness defect
that this benchmark does not measure).

Only the standard library is used, so drawing inputs imports nothing from
the program under test.
"""

from __future__ import annotations

import json
import random

DEFAULT_SEED = 0
CURVED = ("a", "b_const", "c", "b")
RECIPES = CURVED + ("parabola", "sweep")
N_SAMPLES = 1025


def _r(x):
    return round(x, 4)


def _strata(rng, n, shift):
    """n draws on [0, 1): draw i is uniform in stratum (i + shift) mod n of n equal ones."""
    return [((i + shift) % n + rng.random()) / n for i in range(n)]


def draw_family(seed, copy=0):
    """The six domain specs of one seed, as plain dicts, in RECIPES order.

    copy > 0 draws a further, independent family from the same seed; the
    names of its specs carry the suffix ".<copy>".
    """
    rng = random.Random(int(seed) if copy == 0 else f"{int(seed)}.{copy}")
    suffix = f".{copy}" if copy else ""
    n = len(CURVED)
    u_len, u_width, u_k0, u_k1 = (_strata(rng, n, shift) for shift in range(4))
    u_amp = iter(_strata(rng, n - 1, 0))
    specs = []
    for i, recipe in enumerate(CURVED):
        L = _r(2.5 + 1.5 * u_len[i])
        if recipe == "a":
            k1 = _r(0.05 + 0.25 * u_k1[i])
            k0 = _r(k1 + 0.02 + (0.48 - k1) * u_k0[i])
        elif recipe == "b_const":
            k1 = 0.0
            k0 = -_r(0.1 + 0.5 * u_k0[i])
        elif recipe == "c":
            k1 = _r(0.2 + 0.3 * u_k1[i])
            k0 = _r((u_k0[i] - 0.5) * k1)
        else:
            k1 = _r(0.05 + 0.2 * u_k1[i])
            k0 = -_r(k1 + 0.05 + (0.55 - k1) * u_k0[i])
        amp = 0.0 if recipe == "b_const" else _r(0.1 + 0.2 * next(u_amp))
        specs.append({"name": recipe + suffix, "mode": "curvature", "L": L, "k0": k0, "k1": k1,
                      "delta0": _r(0.15 + 0.2 * u_width[i]), "amp": amp})
    specs.append({
        "name": "parabola" + suffix, "mode": "parametric",
        "c": _r(rng.uniform(0.15, 0.2)) * rng.choice((1, -1)), "T": _r(rng.uniform(1.4, 1.6)),
        "delta0": _r(rng.uniform(0.24, 0.28)), "amp": _r(rng.uniform(0.15, 0.25)),
    })
    specs.append({
        "name": "sweep" + suffix, "mode": "curvature", "L": _r(rng.uniform(3.0, 3.5)),
        "k0": -_r(rng.uniform(0.25, 0.35)), "k1": 0.0, "delta0": 1.0, "amp": _r(rng.uniform(0.15, 0.25)),
    })
    return specs


def width_text(spec):
    if spec["amp"] == 0.0:
        return f"{spec['delta0']:.4f}"
    return f"{spec['delta0']:.4f}*(1 + {spec['amp']:.4f}*cos(2*pi*s/L))"


def config_text(spec, mesh=(256, 16), p=2.0):
    """The CLI config document for one spec, as the bytes written to disk."""
    if spec["mode"] == "curvature":
        k = f"{spec['k0']:.4f}"
        if spec["k1"] != 0.0:
            k += f" + {spec['k1']:.4f}*cos(2*pi*s/L)"
        curve = {"mode": "curvature", "L": spec["L"], "k": k}
    else:
        curve = {
            "mode": "parametric",
            "x": "t",
            "y": f"{spec['c']:.4f}*t^2",
            "t_range": [-spec["T"], spec["T"]],
        }
    doc = {
        "curve": curve,
        "width": width_text(spec),
        "p": p,
        "mesh": {"ns": mesh[0], "nt": mesh[1]},
        "n_samples": N_SAMPLES,
        "output": {"dir": "out"},
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


FIGURE2_CONFIG = json.dumps({"figure2_n": 500, "output": {"dir": "out"}}, sort_keys=True) + "\n"


def build_domain(fs, spec):
    """Build one curvature-mode spec through the library, as a library user would.

    fs is the imported fermi_spectra package; functions are looked up on
    it at call time so a traced run sees the calls.
    """
    import numpy as np

    L, k0, k1 = spec["L"], spec["k0"], spec["k1"]
    d0, amp = spec["delta0"], spec["amp"]
    omega = 2.0 * np.pi / L
    k = k0 if k1 == 0.0 else (lambda s: k0 + k1 * np.cos(omega * s))
    w = d0 if amp == 0.0 else (lambda s: d0 * (1.0 + amp * np.cos(omega * s)))
    curve = fs.geometry.reconstruct_from_curvature(L, k, n_samples=N_SAMPLES)
    width = fs.geometry.width_profile(w, L, N_SAMPLES)
    return fs.geometry.make_domain(curve, width)
