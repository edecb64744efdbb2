"""Declarative scenario specs: what a resilience sweep is, as data.

A :class:`ScenarioSpec` names everything one failure sweep depends on —
graph family and size, hierarchy depth ``k``, traffic workload, failure
model and its parameters, trial count, seed, engine — so a whole
evaluation campaign is a *list of values*, serializable to JSON,
expandable from a grid, and rerunnable bit-for-bit.  The lab
(:mod:`repro.scenarios.lab`) turns each spec into a
:class:`ScenarioResult`; the reporting layer
(:mod:`repro.analysis.scenario_report`) turns result lists into JSON
and markdown.

>>> specs = expand_grid(graphs=("gnp", "grid"), ks=(2, 3), n=128)
>>> len(specs)
4
>>> specs[0].name
'gnp-n128-k2-uniform-iid-edges-x32'
>>> specs[0] == ScenarioSpec.from_dict(specs[0].to_dict())
True
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from itertools import product
from typing import Dict, List, Mapping, Optional, Sequence, Tuple


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative resilience scenario (see module docstring).

    ``failure_params`` is stored as a sorted ``(key, value)`` tuple so
    specs stay hashable/frozen; read it through :attr:`params`.  An
    empty tuple means "use the lab's per-model defaults".
    """

    graph: str = "gnp"
    n: int = 256
    k: int = 2
    handshake: bool = False
    workload: str = "uniform"
    pairs: int = 1000
    failure_model: str = "iid-edges"
    failure_params: Tuple[Tuple[str, float], ...] = field(default_factory=tuple)
    trials: int = 32
    seed: int = 0
    engine: str = "auto"

    @property
    def params(self) -> Dict[str, float]:
        """``failure_params`` as a plain dict."""
        return dict(self.failure_params)

    @property
    def name(self) -> str:
        """A stable human-readable slug identifying the scenario."""
        hs = "-hs" if self.handshake else ""
        return (
            f"{self.graph}-n{self.n}-k{self.k}{hs}-{self.workload}-"
            f"{self.failure_model}-x{self.trials}"
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready dict form (inverse of :meth:`from_dict`)."""
        d = asdict(self)
        d["failure_params"] = dict(self.failure_params)
        return d

    @classmethod
    def from_dict(cls, d: Mapping[str, object]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output (or hand-written JSON)."""
        data = dict(d)
        params = data.pop("failure_params", {}) or {}
        if not isinstance(params, Mapping):
            params = dict(params)  # accept (key, value) pair sequences too
        data["failure_params"] = normalize_params(params)
        return cls(**data)


def normalize_params(params: Optional[Mapping[str, float]]) -> Tuple:
    """Canonicalize a failure-parameter mapping into a sorted tuple."""
    if not params:
        return ()
    return tuple(sorted((str(k), v) for k, v in params.items()))


def expand_grid(
    *,
    graphs: Sequence[str] = ("gnp",),
    ks: Sequence[int] = (2,),
    workloads: Sequence[str] = ("uniform",),
    failure_models: Sequence[str] = ("iid-edges",),
    n: int = 256,
    pairs: int = 1000,
    trials: int = 32,
    seed: int = 0,
    handshake: bool = False,
    engine: str = "auto",
    failure_params: Optional[Mapping[str, Mapping[str, float]]] = None,
) -> List[ScenarioSpec]:
    """The cross product ``graphs × ks × workloads × failure_models``.

    ``failure_params`` optionally maps a failure-model name to its
    parameter dict (models not listed use the lab defaults).  Order is
    the deterministic row-major product order, so reports line up run
    to run.
    """
    per_model = failure_params or {}
    return [
        ScenarioSpec(
            graph=g,
            n=n,
            k=k,
            handshake=handshake,
            workload=w,
            pairs=pairs,
            failure_model=fm,
            failure_params=normalize_params(per_model.get(fm)),
            trials=trials,
            seed=seed,
            engine=engine,
        )
        for g, k, w, fm in product(graphs, ks, workloads, failure_models)
    ]
