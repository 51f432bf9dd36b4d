"""The benchmark's span recorder still finds and restores every name it rebinds.

``perfbench/tracing.py`` rebinds layer functions by the names the gpops
modules import, and replaces ``KernelBifunction.__call__`` on the class it
reaches as ``gpops.operators.KernelBifunction``.  A name that moves between
modules breaks the traced benchmark without failing any package test, so
this test installs and uninstalls the recorder from tier-1.
"""

import importlib.util
from pathlib import Path

import gpops.kernels
import gpops.operators

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_recorder_install_and_uninstall_restore_every_binding():
    tracing = load_tracing()
    cls = gpops.operators.KernelBifunction
    assert cls is gpops.kernels.KernelBifunction
    bindings = [(module, attr) for modules, attr, _, _ in tracing.TARGETS for module in modules]
    before = [getattr(module, attr) for module, attr in bindings] + [cls.__call__]
    rec = tracing.Recorder()
    rec.install()
    try:
        during = [getattr(module, attr) for module, attr in bindings] + [cls.__call__]
        assert all(new is not old for new, old in zip(during, before))
    finally:
        rec.uninstall()
    after = [getattr(module, attr) for module, attr in bindings] + [cls.__call__]
    assert all(new is old for new, old in zip(after, before))
