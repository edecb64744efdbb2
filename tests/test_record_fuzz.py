"""Mapped records are untrusted input: a damaged container never kills
the process that routes on it.

``RouteService`` and every daemon tenant map a container without
``verify_data``, and the route kernels index memory with what the
records hold.  Each kernel checks every index it reads out of a record
before reading through it (an entry link, a member, a landed neighbour,
a port, a light-port slice) and fails the row with ``FAIL_CORRUPT``.
Here a subprocess flips seeded random bytes in the ``ent`` and ``step``
blobs of a small container and in its light ports (a uint8 map: every
degree of the graph is at most 255), and sets whole fields, and every
light port, to out-of-range values, then opens each copy as a service
and routes; it must exit 0 every time, on either kernel, and
``verify_data`` must refuse every damaged copy.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.experiments import reference_graph
from repro.core.build import build_arrays
from repro.graphs.ports import assign_ports
from repro.kernels import available, native_error
from repro.store import SchemeStore

needs_native = pytest.mark.skipif(
    not available(), reason=f"native kernels unavailable: {native_error()}"
)

#: Runs in a fresh interpreter: argv = container, scratch dir, seed, flips.
SCRIPT = r"""
import sys
import numpy as np
from pathlib import Path
from repro.errors import EncodingError, RoutingError
from repro.sim.engine.batch import FAIL_CORRUPT
from repro.store import RouteService, read_container
from repro.store.format import read_header

src, work, seed, flips = Path(sys.argv[1]), Path(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
header = read_header(src)
raw = src.read_bytes()
start = len(raw) - header["data_bytes"]
blobs = {name: header["arrays"][name] for name in ("cs_ent", "cs_step", "arr_lp_data")}
n = header["meta"]["n"]
rng = np.random.default_rng(seed)
pairs = rng.integers(0, n, size=(3000, 2))
want = RouteService(src).route(pairs)

# whole int32 fields set in every record: (blob, row width, [(byte
# offset in the row, value), ...]); ent: vertex 0, f 4, light_depth 16,
# parent_epos 20, parent_port 28, heavy_epos 32, heavy_port 40, lp_off
# 44; step: next 0
fields = [
    ("cs_ent", 64, [(20, 200000)]), ("cs_ent", 64, [(20, -7)]), ("cs_ent", 64, [(32, 10**7)]),
    ("cs_ent", 64, [(32, -5)]), ("cs_ent", 64, [(0, 10**8)]), ("cs_ent", 64, [(0, -1)]),
    ("cs_ent", 64, [(16, 2**30)]), ("cs_ent", 64, [(16, -4)]), ("cs_ent", 64, [(44, 2**31 - 1)]),
    ("cs_ent", 64, [(44, -9)]), ("cs_ent", 64, [(4, 2**31 - 1)]),
    ("cs_ent", 64, [(20, -2)]), ("cs_ent", 64, [(20, -2), (28, 999)]),
    ("cs_ent", 64, [(32, -2), (40, -3)]), ("cs_ent", 64, [(20, -2), (0, 10**9)]),
    ("cs_step", 16, [(0, 2**31 - 1)]), ("cs_step", 16, [(0, -3)]),
]
cases = [("field", f) for f in fields] + [("flip", i) for i in range(flips)]
# the light ports: every one 0 (no port) or 255 (past every degree),
# then random flips
cases += [("ports", 0), ("ports", 255)] + [("port-flip", i) for i in range(flips // 4)]
corrupt_rows = refused = 0
for j, (kind, what) in enumerate(cases):
    data = bytearray(raw)
    if kind == "field":
        name, width, sets = what
        spec = blobs[name]
        at0 = start + spec["offset"]
        rows = np.frombuffer(data, dtype=np.uint8, count=spec["nbytes"], offset=at0)
        rows = rows.reshape(-1, width)
        for at, value in sets:
            rows[:, at:at + 4] = np.frombuffer(np.int32(value).tobytes(), dtype=np.uint8)
    elif kind == "ports":
        spec = blobs["arr_lp_data"]
        at0 = start + spec["offset"]
        data[at0:at0 + spec["nbytes"]] = bytes([what]) * spec["nbytes"]
    elif kind == "port-flip":
        spec = blobs["arr_lp_data"]
        for _ in range(int(rng.integers(1, 9))):
            at = start + spec["offset"] + int(rng.integers(0, spec["nbytes"]))
            data[at] ^= int(rng.integers(1, 256))
    else:
        for _ in range(int(rng.integers(1, 9))):
            spec = blobs["cs_ent" if rng.random() < 0.75 else "cs_step"]
            at = start + spec["offset"] + int(rng.integers(0, spec["nbytes"]))
            data[at] ^= int(rng.integers(1, 256))
    path = work / f"damaged-{j}.tzs"
    path.write_bytes(bytes(data))
    try:
        got = RouteService(path).route(pairs)
        corrupt_rows += int((got.failure_code == FAIL_CORRUPT).sum())
    except (EncodingError, RoutingError):
        refused += 1
    try:
        read_container(path, verify_data=True)
    except EncodingError:
        pass
    else:
        if bytes(data) != raw:
            raise SystemExit(f"case {j} ({kind}) passed verify_data")
    path.unlink()
print("OK", len(cases), corrupt_rows, refused, int(want.delivered.sum()))
"""


def _run(container: Path, work: Path, env_extra: dict, seed: int) -> str:
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"), **env_extra)
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(container), str(work), str(seed), "60"],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert out.returncode == 0, f"exit {out.returncode}: {out.stderr[-2000:]}"
    assert out.stdout.startswith("OK"), out.stdout
    return out.stdout


@pytest.fixture(scope="module")
def container(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    graph = reference_graph("gnp", 300, 2).largest_component()
    ported = assign_ports(graph, "random", rng=2)
    arrays = build_arrays(graph, 3, ported=ported, rng=2)
    assert arrays.lp_data.dtype == np.uint8  # the fuzz flips bytes of a uint8 map
    store = SchemeStore(root / "store")
    return store.save(graph, ported, arrays, seed=2), root


@needs_native
@pytest.mark.parametrize("seed", [1, 2])
def test_damaged_records_never_kill_the_native_router(container, seed):
    path, root = container
    out = _run(path, root, {}, seed)
    assert int(out.split()[2]) > 0  # some rows failed as corrupt, none crashed


@pytest.mark.parametrize("seed", [3])
def test_damaged_records_never_kill_the_numpy_router(container, seed):
    path, root = container
    _run(path, root, {"REPRO_NATIVE_KERNELS": "0"}, seed)
