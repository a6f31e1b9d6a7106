"""Which definition sites of the benchmark's tracer resolve to nothing.

``bench/tracing.py`` binds each traced layer to functions named by module
and attribute, and a layer whose functions are all gone reads zero without
failing the run.  The unbound sites are pinned here, so that deleting or
renaming a traced function shows up as a change to this list.
"""

import importlib
import importlib.util
import os
import pkgutil

import oscstab

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench", "tracing.py")

UNBOUND = [
    "controller.FeedbackLaw.vtilde_values_and_grads",
    "controller._dual_synthesis",
    "integrator.iterated_integral_coefficient",
    "integrator.oscillator_coupling",
    "linsolve.condition_1norm",
    "linsolve.solve",
    "vecfield.lie_bracket",
]


def test_unbound_tracer_sites_are_the_pinned_ones():
    for mod in pkgutil.iter_modules(oscstab.__path__):
        if mod.name != "__main__":
            importlib.import_module(f"oscstab.{mod.name}")
    spec = importlib.util.spec_from_file_location("tracing_sites", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    unbound = sorted(
        f"{module[len('oscstab.'):]}.{attr}"
        for sites in tracing.LAYERS.values() for module, attr in sites
        if tracing._resolve(module, attr)[1] is None)
    assert unbound == UNBOUND
