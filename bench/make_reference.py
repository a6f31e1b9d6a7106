"""Regenerate ``reference_fig1.json``: window-boundary states of the
fig1-compare job for every initial-state variant, both solution modes.

    PYTHONPATH=src python3 bench/make_reference.py

The states come from the generic RK4 path (``use_fast=False``); each run is
checked for divergence and for V strictly decreasing at window boundaries.
"""

from __future__ import annotations

import json
import os

import numpy as np

from oscstab import brockett, integrator
from workloads import (EPS, FIG1_T, FIG1_VARIANTS, GAMMA, HERE, P, SUBSTEPS,
                       fig1_x0)


def main() -> None:
    sys_ = brockett.brockett_system()
    lyap = brockett.brockett_lyapunov(P)
    law = brockett.brockett_law(P, GAMMA, EPS)
    variants = {}
    for k in range(FIG1_VARIANTS):
        x0 = fig1_x0(k)
        entry = {"x0": x0.tolist()}
        for mode, integrate in (("classical", integrator.integrate_classical),
                                ("sampled", integrator.integrate_sampled)):
            traj = integrate(sys_, law, x0, FIG1_T, SUBSTEPS, lyap,
                             use_fast=False)
            vb = traj.v[::SUBSTEPS]
            if traj.diverged or not np.all(np.diff(vb) < 0.0):
                raise SystemExit(f"variant {k} {mode}: diverged or V not "
                                 f"strictly decreasing")
            entry[mode] = traj.states[::SUBSTEPS].tolist()
        variants[str(k)] = entry
    with open(os.path.join(HERE, "reference_fig1.json"), "w") as fh:
        json.dump({"T": FIG1_T, "substeps": SUBSTEPS, "p": P, "gamma": GAMMA,
                   "eps": EPS, "variants": variants}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
