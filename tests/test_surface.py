"""The compute-kernel selectors live only where the paths fork.

The native kernels and their numpy references produce the same tables,
labels and routes bit for bit, so the platform picks the kernel
(:mod:`repro.kernels`).  A ``kernel=`` selector survives only at the two
forks the differential suites compare — the router's commit and hop loop
and the builder's frontier sweep — and no ``mode=`` survives anywhere
(the input decides each cluster level's engine).  These tests walk
every ``repro`` module's signatures so the deleted options cannot grow
back unnoticed.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import pytest

import repro
from repro.cli import main
from repro.store import SchemeStore

#: Parameter name → every callable allowed to take it.
ALLOWED = {
    "kernel": {
        "repro.sim.engine.batch.BatchRouter.__init__",
        "repro.sim.engine.batch.BatchRouter.from_compiled",
        "repro.core.build.vectorized.vectorized_arrays",
        # The resolver itself: its argument is the request it resolves.
        "repro.kernels.resolve_kernel",
    },
    "mode": set(),
    "mmap": set(),
    "follow": set(),
}


def _signatures():
    """``{qualified name: signature}`` of every public function, and of
    every class's ``__init__`` and public methods, defined in ``repro``."""
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            qual = f"{module.__name__}.{name}"
            if inspect.isfunction(obj) and not name.startswith("_"):
                found[qual] = inspect.signature(obj)
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if attr.startswith("_") and attr != "__init__":
                        continue
                    func = getattr(member, "__func__", member)
                    if inspect.isfunction(func):
                        found[f"{qual}.{attr}"] = inspect.signature(func)
    return found


SIGNATURES = _signatures()


def test_walk_reaches_the_public_surface():
    for name in (
        "repro.store.service.RouteService.__init__",
        "repro.serve.daemon.RouteDaemon.__init__",
        "repro.store.store.SchemeStore.get_or_build",
        "repro.backends.schemes.TZSchemeBackend.build",
        "repro.scenarios.spec.ScenarioSpec.__init__",
        "repro.core.build.build_arrays",
    ):
        assert name in SIGNATURES, name


@pytest.mark.parametrize("param", sorted(ALLOWED))
def test_option_only_at_its_forks(param):
    takers = {name for name, sig in SIGNATURES.items() if param in sig.parameters}
    assert takers == ALLOWED[param]


def test_get_or_build_takes_no_builder():
    assert "builder" not in inspect.signature(SchemeStore.get_or_build).parameters


@pytest.mark.parametrize(
    "cmd", ["route", "serve", "update", "scenarios", "build", "profile"]
)
def test_no_subcommand_accepts_kernel(cmd, capsys):
    with pytest.raises(SystemExit) as exc:
        main([cmd, "--kernel", "numpy"])
    assert exc.value.code == 2
    assert "--kernel" in capsys.readouterr().err
