"""A conv layer's backward is one engine call behind the old fault sites.

``ConvLayer.backward`` makes one ``ConvEngine.backward`` call (the GEMM
engines unfold each error once for dW and BP-data) but visits the
``engine.bp`` fault site for dW and then for BP-data, as the two calls
did: a plan fires at the same invocation, on the same layer and method,
and a raise degrades exactly what it degraded -- at dW's visit both
outputs come from the fallback, at BP-data's only the input error.
"""

import numpy as np
import pytest

from repro.data.synthetic import cifar10_like
from repro.nn.sgd import SGDTrainer
from repro.nn.zoo import cifar10_net
from repro.resilience.faults import FaultPlan, FaultSpec, inject
from repro.resilience.quarantine import default_registry


def _step(plan=None, steps=2):
    net = cifar10_net(scale=0.25, rng=np.random.default_rng(0))
    data = cifar10_like(8, seed=0)
    trainer = SGDTrainer(net)
    fired, visits, grads = [], 0, []
    for _ in range(steps):
        if plan is None:
            trainer.step(data.images, data.labels)
        else:
            with inject(plan) as injector:
                trainer.step(data.images, data.labels)
            fired += [(f.invocation, f.attrs["layer"], f.attrs["method"])
                      for f in injector.fired()]
            visits += injector.invocations("engine.bp")
        grads.append({conv.name: conv.d_weights.copy()
                      for conv in net.conv_layers()})
    return net, fired, visits, grads


# Per SGD step: conv3's dW, conv3's BP-data, conv0's dW (the images'
# conv computes no input error).
VISITS = [(1, "conv3", "backward_weights"), (2, "conv3", "backward_data"),
          (3, "conv0", "backward_weights")]


@pytest.mark.parametrize("at,layer,method", VISITS,
                         ids=[f"{layer}-{method}" for _, layer, method
                              in VISITS])
def test_the_bp_site_fires_at_the_calls_it_fired_at(at, layer, method):
    plan = FaultPlan(name="nth-bp", specs=(
        FaultSpec(site="engine.bp", kind="raise", at=(at,)),))
    net, fired, visits, grads = _step(plan, steps=1)
    assert fired == [(at, layer, method)]
    # A conv degraded at its dW visit runs BP-data on the fallback, which
    # visits no site.
    assert visits == len(VISITS) - (at == 1)
    assert {conv.name: conv.bp_engine_name for conv in net.conv_layers()} \
        == {conv.name: "reference" if conv.name == layer
            else "gemm-in-parallel" for conv in net.conv_layers()}
    assert default_registry().is_quarantined(layer, "bp", "gemm-in-parallel")
    clean = _step()[3]
    if method == "backward_data":
        # dW was the engine's, computed before the visit raised.
        assert np.array_equal(grads[0][layer], clean[0][layer])


def test_no_plan_visits_two_sites_per_conv_that_needs_both():
    plan = FaultPlan(name="never", specs=(
        FaultSpec(site="engine.bp", kind="raise", at=(99,)),))
    _, fired, visits, _ = _step(plan, steps=2)
    assert fired == [] and visits == 2 * len(VISITS)
