"""The JSON config format: every block decoded and encoded in one place.

Each block maps its JSON keys to (attribute, read, write): the dataclass
field or generator argument the key fills (None: it fills nothing and is
only checked) and the converters from JSON and back (None: as it is).
Decoding rejects any other key (``reject_unknown``), names the key of a
value that fails to convert, and leaves an absent key to the default of
what it fills; encoding writes every key. Counts and seeds are integers:
``2e4`` reads as 20000, and a non-integral value is an error.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, LognormalSpec, gen_basket_put_dataset, gen_pde_dataset
from .levy import (
    PAYOFFS,
    CompoundPoissonSpec,
    LevyTriplet,
    Payoff,
    equal_correlation_sigma,
    risk_neutral_gamma,
)
from .network import WeightDistributionSpec
from .train import TrainConfig

__all__ = [
    "EXPERIMENT_KINDS",
    "ExperimentSpec",
    "reject_unknown",
    "train_from_dict",
    "train_to_dict",
    "model_from_dict",
    "model_to_dict",
    "payoff_from_dict",
    "payoff_to_dict",
    "dataset_from_dict",
]

EXPERIMENT_KINDS = ("rate_curve", "basket_put", "oracle_convergence", "sgd_vs_ols")


def reject_unknown(doc: dict, allowed, block: str) -> None:
    """Raise a ValueError naming every key of ``doc`` that ``allowed`` lacks."""

    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ValueError(f"unknown keys {unknown} in {block}")


def _integer(value) -> int:
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, int):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _boolean(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def _integers(values) -> tuple[int, ...]:
    return tuple(_integer(v) for v in values)


def _optional(convert):
    return lambda value: None if value is None else convert(value)


def _decode(make, fields: dict, doc: dict, block: str, **given):
    """``make(**given, **the converted keys of doc)``."""

    reject_unknown(doc, fields, block)
    for key, value in doc.items():
        attr, read, _ = fields[key]
        try:
            value = value if read is None else read(value)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{key}: {exc}") from exc
        if attr is not None:
            given[attr] = value
    return make(**given)


def _encode(obj, fields: dict) -> dict:
    out = {}
    for key, (attr, _, write) in fields.items():
        value = None if attr is None else getattr(obj, attr)
        out[key] = value if write is None else write(value)
    return out


# ---------------------------------------------------------------------------
# train entries, models and payoffs

_TRAIN_FIELDS = {
    "method": ("method", None, None),
    "seed": ("seed", _integer, None),
    "lambda": ("lam", None, None),
    "eta0": ("eta0", None, None),
    "batch": ("batch", _optional(_integer), None),
    "steps": ("steps", _optional(_integer), None),
    "cap": ("cap", None, None),
    "average": ("average", _boolean, lambda average: True if average else None),
}


def train_from_dict(doc: dict) -> TrainConfig:
    return _decode(TrainConfig, _TRAIN_FIELDS, doc, "train config")


def train_to_dict(cfg: TrainConfig) -> dict:
    """``method``, ``seed`` and every knob ``cfg`` sets (``average`` only when on)."""

    return {k: v for k, v in _encode(cfg, _TRAIN_FIELDS).items() if v is not None}


def _levy_triplet(sigma, gamma="risk_neutral", jumps=None) -> LevyTriplet:
    if isinstance(gamma, str):
        if gamma != "risk_neutral":
            raise ValueError(f"unknown drift rule {gamma!r}")
        gamma = risk_neutral_gamma(sigma, jumps)
    return LevyTriplet(sigma=sigma, gamma=gamma, jumps=jumps)


def _equal_correlation(sigma, rho, d, **rest) -> LevyTriplet:
    return _levy_triplet(equal_correlation_sigma(sigma, rho, d), **rest)


def _atoms_to_dict(atoms) -> list:
    return [[float(p), np.atleast_1d(np.asarray(y, dtype=float)).tolist()] for p, y in atoms]


_JUMP_FIELDS = {
    "intensity": ("intensity", float, None),
    "atoms": ("atoms", lambda atoms: tuple((float(p), y) for p, y in atoms), _atoms_to_dict),
    "radius": ("radius", float, None),
}

_COV_FIELDS = {"sigma": ("sigma", float, None), "rho": ("rho", float, None), "d": ("d", _integer, None)}

_TRIPLET_FIELDS = {
    "type": (None, None, lambda _: "triplet"),
    "sigma": ("sigma", None, np.ndarray.tolist),
    "gamma": ("gamma", None, np.ndarray.tolist),
    "jumps": (
        "jumps",
        _optional(lambda doc: _decode(CompoundPoissonSpec, _JUMP_FIELDS, doc, "jumps")),
        _optional(lambda jumps: _encode(jumps, _JUMP_FIELDS)),
    ),
}


def _cov(doc):
    if isinstance(doc, dict):
        return _decode(equal_correlation_sigma, _COV_FIELDS, doc, "lognormal cov")
    return doc


_LOGNORMAL_FIELDS = {
    "type": (None, None, lambda _: "lognormal"),
    "s0": ("s0", None, np.ndarray.tolist),
    "cov": ("cov", _cov, np.ndarray.tolist),
    "T": ("T", float, None),
}

_MODELS = {
    "triplet": (_levy_triplet, _TRIPLET_FIELDS),
    "equal_correlation": (_equal_correlation, {**_TRIPLET_FIELDS, **_COV_FIELDS}),
    "lognormal": (LognormalSpec, _LOGNORMAL_FIELDS),
}

# the model types that give Levy paths
_LEVY_MODELS = ("triplet", "equal_correlation")


def model_from_dict(doc: dict, types=tuple(_MODELS)) -> LevyTriplet | LognormalSpec:
    """A model block whose ``type`` is one of ``types``.

    ``equal_correlation`` takes ``sigma``, ``rho`` and ``d``, ``triplet``
    (the default type, where ``types`` has it) a ``sigma`` matrix; both
    take ``gamma``, a vector or ``"risk_neutral"`` (the default).
    """

    kind = doc.get("type", "triplet" if "triplet" in types else None)
    if kind not in types:
        raise ValueError(f"model type {kind!r} is not one of {list(types)}")
    make, fields = _MODELS[kind]
    return _decode(make, fields, doc, f"{kind} model")


def model_to_dict(model: LevyTriplet | LognormalSpec) -> dict:
    """The explicit form: a triplet's matrices, or a lognormal model's ``cov`` matrix."""

    return _encode(model, _LOGNORMAL_FIELDS if isinstance(model, LognormalSpec) else _TRIPLET_FIELDS)


def payoff_to_dict(payoff: Payoff) -> dict:
    params = {
        key: payoff_to_dict(val) if isinstance(val, Payoff) else np.asarray(val).tolist()
        for key, val in payoff.params.items()
    }
    return {"kind": payoff.kind, "params": params}


def payoff_from_dict(doc: dict) -> Payoff:
    """``{"kind": <a constructor's name>, "params": <its arguments>}``."""

    reject_unknown(doc, ("kind", "params"), "payoff")
    kind = doc["kind"]
    if kind not in PAYOFFS:
        raise ValueError(f"unknown payoff kind {kind!r}")
    params = dict(doc["params"])
    reject_unknown(params, inspect.signature(PAYOFFS[kind]).parameters, f"{kind} payoff params")
    if kind == "truncated":
        params["inner"] = payoff_from_dict(params["inner"])
    return PAYOFFS[kind](**params)


# ---------------------------------------------------------------------------
# the experiment declaration


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything an experiment run needs, JSON-serializable.

    ``train`` normalizes to a tuple of TrainConfig; rate curves and
    SGD studies use exactly one, the basket study accepts several and
    reports each on the same data. Every width of a run is a prefix of
    one hidden layer.
    """

    kind: str
    model: LevyTriplet | LognormalSpec | None = None
    payoff: Payoff | None = None
    M: float = 1.0
    T: float = 1.0
    n_train: int = 1
    n_test: int = 1
    N_list: tuple[int, ...] = (10,)
    train: tuple[TrainConfig, ...] = (TrainConfig(method="ols"),)
    master_seed: int = 0
    output_path: str | None = None
    label_kind: str = "single_draw"
    paths: int = 1000
    noise_std: float = 0.0
    test_label_kind: str | None = None
    test_paths: int | None = None
    weight_spec: WeightDistributionSpec = field(default_factory=WeightDistributionSpec)
    basket_weights: tuple[float, ...] | None = None
    C: float = 0.15
    oracle_seeds: int = 20
    sgd_seeds: int = 1
    grid_points: int = 101
    checkpoints: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        train = (self.train,) if isinstance(self.train, TrainConfig) else tuple(self.train)
        object.__setattr__(self, "train", train)
        if not self.train:
            raise ValueError("at least one train config is required")
        ns = tuple(int(n) for n in self.N_list)
        if not ns:
            raise ValueError("N_list must be nonempty")
        if any(n < 1 for n in ns):
            raise ValueError("N_list entries must be positive")
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("N_list must be strictly increasing")
        object.__setattr__(self, "N_list", ns)
        # None leaves these unset; too small a value, or an empty list, is an error
        least = {"n_test": 1, "oracle_seeds": 1, "sgd_seeds": 1, "test_paths": 1, "grid_points": 2}
        for name, low in least.items():
            if getattr(self, name) is not None and getattr(self, name) < low:
                raise ValueError(f"{name} must be at least {low}")
        for name in ("basket_weights", "checkpoints"):
            if getattr(self, name) is not None and len(getattr(self, name)) == 0:
                raise ValueError(f"{name} must be nonempty when set")
        if not self.M > 0:
            raise ValueError("M must be positive")

    def to_dict(self) -> dict:
        out = _encode(self, _SPEC_FIELDS)
        if self.output_path is None:
            del out["output"]
        return out

    @staticmethod
    def from_dict(doc: dict) -> "ExperimentSpec":
        return _decode(ExperimentSpec, _SPEC_FIELDS, doc, "experiment config")

    def config_hash(self) -> str:
        """Hash of the scientific configuration (output path excluded)."""

        echo = self.to_dict()
        echo.pop("output", None)
        blob = json.dumps(echo, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def _nested_only(independent):
    if independent:
        raise ValueError("every width is a prefix of one hidden layer; only false is accepted")
    return independent


_WEIGHT_FIELDS = {"nu": ("nu", float, None), "b_dof": ("b_dof", float, None)}

_SPEC_FIELDS = {
    "kind": ("kind", lambda kind: str(kind).replace("-", "_"), None),
    "model": ("model", lambda doc: model_from_dict(doc) if doc else None, _optional(model_to_dict)),
    "payoff": ("payoff", lambda doc: payoff_from_dict(doc) if doc else None, _optional(payoff_to_dict)),
    "M": ("M", float, None),
    "T": ("T", float, None),
    "n_train": ("n_train", _integer, None),
    "n_test": ("n_test", _integer, None),
    "N_list": ("N_list", _integers, list),
    "train": (
        "train",
        lambda doc: tuple(map(train_from_dict, [doc] if isinstance(doc, dict) else doc)),
        lambda train: [train_to_dict(cfg) for cfg in train],
    ),
    "master_seed": ("master_seed", _integer, None),
    "label_kind": ("label_kind", None, None),
    "paths": ("paths", _integer, None),
    "noise_std": ("noise_std", float, None),
    "test_label_kind": ("test_label_kind", None, None),
    "test_paths": ("test_paths", _optional(_integer), None),
    "weights": (
        "weight_spec",
        lambda doc: _decode(WeightDistributionSpec, _WEIGHT_FIELDS, doc, "weights"),
        lambda spec: _encode(spec, _WEIGHT_FIELDS),
    ),
    # written as false so that every config_hash stays as it was
    "independent_hidden": (None, _nested_only, lambda _: False),
    "basket_weights": ("basket_weights", _optional(tuple), _optional(list)),
    "C": ("C", float, None),
    "oracle_seeds": ("oracle_seeds", _integer, None),
    "sgd_seeds": ("sgd_seeds", _integer, None),
    "grid_points": ("grid_points", _integer, None),
    "checkpoints": ("checkpoints", _optional(_integers), _optional(list)),
    "output": ("output_path", None, None),
}


# ---------------------------------------------------------------------------
# gen-data configs

_DATA_FIELDS = {
    "kind": (None, None, None),
    "output": (None, None, None),  # the CLI's output path
    "M": ("M", float, None),
    "n": ("n", _integer, None),
    "paths": ("paths", _integer, None),
    "noise_std": ("noise_std", float, None),
    "seed": ("seed", _integer, None),
}

_PDE_DATA_FIELDS = {
    **_DATA_FIELDS,
    "model": ("triplet", lambda doc: model_from_dict(doc, _LEVY_MODELS), None),
    "payoff": ("payoff", payoff_from_dict, None),
    "T": ("T", float, None),
    "label_kind": ("label_kind", None, None),
}

_BASKET_DATA_FIELDS = {
    **_DATA_FIELDS,
    "model": ("sampler", lambda doc: model_from_dict(doc, ("lognormal",)), None),
    "weights": ("weights", None, None),
}


def dataset_from_dict(doc: dict, seed: int | None = None) -> Dataset:
    """The dataset a ``gen-data`` config declares; ``seed``, when given, overrides its own.

    ``M`` and ``T`` default as in an experiment, and no ``weights`` means equal ones.
    """

    kind = doc.get("kind", "pde")
    if kind not in ("pde", "basket_put"):
        raise ValueError(f"unknown data kind {kind!r} (expected 'pde' or 'basket_put')")
    if seed is not None:
        doc = {**doc, "seed": seed}
    block = f"{kind} data config"
    if kind == "pde":
        return _decode(gen_pde_dataset, _PDE_DATA_FIELDS, doc, block, M=ExperimentSpec.M, T=ExperimentSpec.T)
    return _decode(gen_basket_put_dataset, _BASKET_DATA_FIELDS, doc, block, M=ExperimentSpec.M, weights=None)
