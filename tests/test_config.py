"""Property tests of the config codecs: round trips, unknown keys, integer fields."""

import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kolmo_rfn.config import (
    ExperimentSpec,
    dataset_from_dict,
    model_from_dict,
    model_to_dict,
    payoff_from_dict,
    payoff_to_dict,
    train_from_dict,
    train_to_dict,
)
from kolmo_rfn.data import LognormalSpec
from kolmo_rfn.levy import basket_put, indicator, max_call, table, tent, truncated
from kolmo_rfn.network import WeightDistributionSpec
from kolmo_rfn.train import METHODS, TrainConfig

# a fixed budget, and no deadline: a loaded machine must not fail a property
examples = settings(max_examples=60, deadline=None)


def via_json(doc):
    # configs live as JSON files, so every round trip goes through the text
    return json.loads(json.dumps(doc))


positive = st.floats(0.01, 100.0)
small = st.floats(-2.0, 2.0)
counts = st.integers(1, 10**6)
seeds = st.integers(0, 2**63)


@st.composite
def train_configs(draw):
    method = draw(st.sampled_from(METHODS))
    needed = {"constrained": {"lam"}, "sgd": {"lam", "eta0", "steps"}}.get(method, set())

    def knob(name, values):
        return draw(values if name in needed else st.none() | values)

    return TrainConfig(
        method=method, lam=knob("lam", positive), eta0=knob("eta0", positive),
        batch=knob("batch", st.integers(1, 512)), steps=knob("steps", counts),
        seed=draw(seeds), cap=knob("cap", positive), average=draw(st.booleans()),
    )


@st.composite
def jump_docs(draw, d):
    k = draw(st.integers(1, 3))
    probs = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k)))
    probs = (probs / probs.sum()).tolist()
    probs[-1] = 1.0 - sum(probs[:-1])
    ys = draw(st.lists(st.lists(st.floats(-0.5, 0.5), min_size=d, max_size=d), min_size=k, max_size=k))
    doc = {"intensity": draw(st.floats(0.0, 5.0)), "atoms": [[p, y] for p, y in zip(probs, ys)]}
    if draw(st.booleans()):
        doc["radius"] = draw(st.floats(1.01, 3.0))
    return doc


@st.composite
def cov_docs(draw, d):
    rho = draw(st.floats(-1.0 / max(d - 1, 1) + 0.01, 1.0))
    return {"sigma": draw(st.floats(0.01, 1.0)), "rho": rho, "d": d}


@st.composite
def model_docs(draw):
    """equal_correlation and triplet blocks with or without jumps, lognormal ones with either cov form."""

    d = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["equal_correlation", "triplet", "lognormal"]))
    if kind == "lognormal":
        cov = draw(cov_docs(d))
        if draw(st.booleans()):  # the explicit matrix form
            cov = model_from_dict({"type": "equal_correlation", **cov}).sigma.tolist()
        doc = {"type": "lognormal", "s0": draw(st.lists(positive, min_size=d, max_size=d)), "cov": cov}
        if draw(st.booleans()):
            doc["T"] = draw(st.floats(0.0, 5.0))
        return doc
    doc = {"type": "equal_correlation", **draw(cov_docs(d))}
    if kind == "triplet":
        doc = {"type": "triplet", "sigma": model_from_dict(doc).sigma.tolist()}
    if draw(st.booleans()):
        doc["jumps"] = draw(jump_docs(d))
    if draw(st.booleans()):
        doc["gamma"] = draw(st.lists(small, min_size=d, max_size=d))
    return doc


def payoffs():
    dims = st.integers(1, 4)
    leaves = st.one_of(
        st.builds(max_call, st.floats(0.0, 3.0), dims),
        st.builds(basket_put, st.floats(0.0, 3.0), st.lists(st.floats(0.0, 2.0), min_size=1, max_size=4)),
        st.builds(tent, small, positive),
        st.builds(lambda lo, width: indicator(lo, [a + w for a, w in zip(lo, width)]),
                  st.lists(small, min_size=1, max_size=3), st.lists(positive, min_size=3, max_size=3)),
        st.builds(lambda x0, steps, ys: table(np.cumsum([x0, *steps]), ys[:len(steps) + 1]),
                  small, st.lists(positive, min_size=1, max_size=5), st.lists(small, min_size=6, max_size=6)),
    )
    return st.recursive(leaves, lambda inner: st.builds(truncated, inner, positive), max_leaves=3)


@st.composite
def specs(draw):
    ns = sorted(draw(st.sets(st.integers(1, 5000), min_size=1, max_size=6)))

    def some(elements):
        return st.none() | st.lists(elements, min_size=1, max_size=5).map(tuple)

    return ExperimentSpec(
        kind=draw(st.sampled_from(["rate_curve", "basket_put", "oracle_convergence", "sgd_vs_ols"])),
        model=draw(st.none() | model_docs().map(model_from_dict)),
        payoff=draw(st.none() | payoffs()),
        M=draw(positive), T=draw(st.floats(0.0, 5.0)),
        n_train=draw(counts), n_test=draw(counts), N_list=tuple(ns),
        train=tuple(draw(st.lists(train_configs(), min_size=1, max_size=3))),
        master_seed=draw(seeds), output_path=draw(st.none() | st.text(max_size=10)),
        label_kind=draw(st.sampled_from(["single_draw", "mc_price", "noisy_observation"])),
        paths=draw(counts), noise_std=draw(st.floats(0.0, 1.0)),
        test_label_kind=draw(st.none() | st.sampled_from(["single_draw", "mc_price"])),
        test_paths=draw(st.none() | counts),
        weight_spec=WeightDistributionSpec(nu=draw(st.floats(1.01, 10.0)), b_dof=draw(positive)),
        basket_weights=draw(some(st.floats(0.0, 2.0))),
        C=draw(positive), oracle_seeds=draw(counts), sgd_seeds=draw(counts),
        grid_points=draw(st.integers(2, 10**4)),
        checkpoints=draw(some(counts)),
    )


class TestRoundTrips:
    @examples
    @given(specs())
    def test_spec(self, spec):
        doc = spec.to_dict()
        again = ExperimentSpec.from_dict(via_json(doc))
        assert again.to_dict() == doc
        assert again.config_hash() == spec.config_hash()
        # every field comes back, not only the encoding (a key dropped from
        # the table would vanish from both sides of the comparison above)
        for f in dataclasses.fields(ExperimentSpec):
            if f.name not in ("model", "payoff"):
                assert getattr(again, f.name) == getattr(spec, f.name), f.name

    @examples
    @given(train_configs())
    def test_train_entry(self, cfg):
        doc = train_to_dict(cfg)
        again = train_from_dict(via_json(doc))
        assert again == cfg
        assert train_to_dict(again) == doc

    @examples
    @given(model_docs())
    def test_model(self, doc):
        model = model_from_dict(doc)
        encoded = model_to_dict(model)
        again = model_from_dict(via_json(encoded))
        assert model_to_dict(again) == encoded
        assert type(again) is type(model)
        if isinstance(model, LognormalSpec):
            assert again.T == model.T and (again.cov == model.cov).all()
        else:
            assert (again.gamma == model.gamma).all()
            assert (model.jumps is None) == (again.jumps is None)

    @examples
    @given(payoffs())
    def test_payoff(self, payoff):
        doc = payoff_to_dict(payoff)
        again = payoff_from_dict(via_json(doc))
        assert payoff_to_dict(again) == doc
        assert again.kind == payoff.kind and again.d == payoff.d


def _spec_doc():
    return {
        "kind": "rate_curve",
        "model": {"type": "equal_correlation", "sigma": 0.2, "rho": 0.2, "d": 1,
                  "jumps": {"intensity": 1.0, "atoms": [[1.0, [0.1]]]}},
        "payoff": {"kind": "truncated", "params": {"inner": {"kind": "tent", "params": {}}, "bound": 1.0}},
        "train": {"method": "ols"}, "weights": {"nu": 5.0},
    }


# each block by the name its message gives: (a loader, a document it
# loads, the path of keys to the block inside that document)
def _blocks():
    logn = {"type": "lognormal", "s0": [1.0, 1.0], "cov": {"sigma": 0.2, "rho": 0.1, "d": 2}}
    trip = {"type": "triplet", "sigma": [[0.04]]}
    pde = {"kind": "pde", "model": trip, "payoff": {"kind": "max_call", "params": {"strike": 1.0}}, "n": 2}
    basket = {"kind": "basket_put", "model": logn, "n": 2, "paths": 2}
    spec = ExperimentSpec.from_dict
    return {
        "experiment config": (spec, _spec_doc(), ()),
        "train config": (spec, _spec_doc(), ("train",)),
        "weights": (spec, _spec_doc(), ("weights",)),
        "equal_correlation model": (spec, _spec_doc(), ("model",)),
        "jumps": (spec, _spec_doc(), ("model", "jumps")),
        "payoff": (spec, _spec_doc(), ("payoff",)),
        "truncated payoff params": (spec, _spec_doc(), ("payoff", "params")),
        "tent payoff params": (spec, _spec_doc(), ("payoff", "params", "inner", "params")),
        "triplet model": (model_from_dict, trip, ()),
        "lognormal model": (model_from_dict, logn, ()),
        "lognormal cov": (model_from_dict, logn, ("cov",)),
        "pde data config": (dataset_from_dict, pde, ()),
        "basket_put data config": (dataset_from_dict, basket, ()),
    }


BLOCKS = _blocks()

# keys a block accepts that the documents above leave out
ALLOWED = {
    "experiment config": set(ExperimentSpec.from_dict({"kind": "rate_curve"}).to_dict()) | {"output"},
    "train config": {"seed", "lambda", "eta0", "batch", "steps", "cap", "average"},
    "weights": {"b_dof"},
    "equal_correlation model": {"gamma"},
    "jumps": {"radius"},
    "tent payoff params": {"center", "width"},
    "triplet model": {"gamma", "jumps"},
    "lognormal model": {"T"},
    "pde data config": {"output", "M", "paths", "noise_std", "seed", "T", "label_kind"},
    "basket_put data config": {"output", "M", "noise_std", "seed", "weights"},
}


class TestUnknownKeys:
    @pytest.mark.parametrize("block", sorted(BLOCKS))
    @examples
    @given(key=st.text(min_size=1, max_size=8))
    def test_every_block_rejects_an_unknown_key(self, block, key):
        load, doc, path = BLOCKS[block]
        doc = via_json(doc)
        target = doc
        for step in path:
            target = target[step]
        assume(key not in target and key not in ALLOWED.get(block, ()))
        load(doc)  # the document loads as it is
        target[key] = 1
        with pytest.raises(ValueError, match=re.escape(f"unknown keys {[key]} in {block}")):
            load(doc)


class TestIntegerFields:
    @pytest.mark.parametrize("field", [
        "n_train", "n_test", "paths", "test_paths", "master_seed", "oracle_seeds", "sgd_seeds", "grid_points",
    ])
    def test_integral_numbers_read_as_integers(self, field):
        doc = {"kind": "rate_curve", field: 2e2}
        assert ExperimentSpec.from_dict(doc).to_dict()[field] == 200
        assert type(ExperimentSpec.from_dict(doc).to_dict()[field]) is int
        for bad in (99.9, "200", [1]):
            with pytest.raises(ValueError, match=f"{field}: expected an integer"):
                ExperimentSpec.from_dict({"kind": "rate_curve", field: bad})

    @pytest.mark.parametrize("field, good, bad", [
        ("N_list", [5.0, 1e1], [5, 10.5]),
        ("checkpoints", [1.0, 5e1], [1, 2.5, 50]),
    ])
    def test_integer_lists(self, field, good, bad):
        spec = ExperimentSpec.from_dict({"kind": "sgd_vs_ols", field: good})
        assert getattr(spec, field) == (int(good[0]), int(good[1]))
        with pytest.raises(ValueError, match=f"{field}: expected an integer"):
            ExperimentSpec.from_dict({"kind": "sgd_vs_ols", field: bad})

    @pytest.mark.parametrize("key", ["steps", "batch", "seed"])
    def test_train_entry_counts(self, key):
        doc = {"method": "sgd", "lambda": 1.0, "eta0": 0.1, "steps": 10, key: 2e4}
        assert train_to_dict(train_from_dict(doc))[key] == 20000
        with pytest.raises(ValueError, match=f"{key}: expected an integer"):
            train_from_dict({**doc, key: 8.5})

    def test_spec_hashes_an_integral_float_as_its_integer(self):
        train = {"method": "sgd", "lambda": 1.0, "eta0": 0.1, "steps": 100, "batch": 8}
        a = ExperimentSpec.from_dict({"kind": "sgd_vs_ols", "train": train})
        b = ExperimentSpec.from_dict({"kind": "sgd_vs_ols", "train": {**train, "steps": 1e2, "batch": 8.0}})
        assert a.config_hash() == b.config_hash()

    @pytest.mark.parametrize("key", ["n", "paths", "seed"])
    def test_gen_data_counts(self, key):
        doc = {"kind": "basket_put", "model": {"type": "lognormal", "s0": [1.0], "cov": [[0.04]]}, "n": 3}
        assert dataset_from_dict({**doc, key: 4.0}).n == (4 if key == "n" else 3)
        with pytest.raises(ValueError, match=f"{key}: expected an integer"):
            dataset_from_dict({**doc, key: 4.5})


class TestBooleanFields:
    def test_average_reads_json_booleans_only(self):
        doc = {"method": "sgd", "lambda": 1.0, "eta0": 0.1, "steps": 10}
        assert train_from_dict(via_json({**doc, "average": True})).average is True
        assert train_from_dict(via_json({**doc, "average": False})).average is False
        for bad in ("false", "true", 0, 1, None, [True]):
            with pytest.raises(ValueError, match="average: expected true or false"):
                train_from_dict({**doc, "average": bad})


class TestDefaults:
    def test_absent_keys_take_the_dataclass_defaults(self):
        spec = ExperimentSpec.from_dict({"kind": "rate_curve"})
        assert spec == ExperimentSpec(kind="rate_curve")
        assert train_from_dict({"method": "ols"}) == TrainConfig(method="ols")

    def test_gen_data_defaults_are_the_generators(self):
        model = {"type": "lognormal", "s0": [1.0, 2.0], "cov": [[0.04, 0.0], [0.0, 0.09]]}
        doc = {"kind": "basket_put", "model": model, "n": 3}
        ds = dataset_from_dict(doc)
        assert (ds.seed, ds.paths, ds.noise_std, ds.M) == (0, 100, 0.0, 1.0)
        # no weights mean equal ones
        assert np.array_equal(ds.Y, dataset_from_dict({**doc, "weights": [0.5, 0.5]}).Y)
        payoff = {"kind": "max_call", "params": {"strike": 1.0}}
        pde = dataset_from_dict({"model": {"sigma": [[0.04]]}, "payoff": payoff, "n": 3})
        assert (pde.seed, pde.label_kind, pde.M, pde.T) == (0, "single_draw", 1.0, 1.0)
        assert dataset_from_dict({**doc, "seed": 4}, seed=9).seed == 9

    def test_independent_hidden_is_false_only(self):
        spec = ExperimentSpec.from_dict({"kind": "rate_curve", "independent_hidden": False})
        assert spec.to_dict()["independent_hidden"] is False
        with pytest.raises(ValueError, match="independent_hidden"):
            ExperimentSpec.from_dict({"kind": "rate_curve", "independent_hidden": True})
