"""Gradient-buffer reclaim semantics and pooled backward values.

After ``backward()``, intermediate gradients are released into the scratch
pool (their ``.grad`` reads ``None``); leaves, the backward seed, and any
node marked with ``retain_grad()`` keep theirs.  These tests pin that
contract, and that every backward rule writing into pooled scratch
computes exactly the values of its plain numpy expression — on first
accumulation, on in-place re-accumulation, and for broadcast operands.
"""

from __future__ import annotations

import gc

import numpy as np

import pytest

from repro.nn import Tensor


def _small_graph(rng):
    """A leaf -> two intermediates -> scalar loss chain."""
    x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    hidden = (x * 2.0).relu()
    scaled = hidden + 1.0
    loss = scaled.sum()
    return x, hidden, scaled, loss


class TestReclaim:
    def test_intermediate_grads_reclaimed_leaves_kept(self, rng):
        x, hidden, scaled, loss = _small_graph(rng)
        loss.backward()
        assert x.grad is not None
        assert hidden.grad is None
        assert scaled.grad is None
        # The seed tensor backward ran from keeps its gradient too.
        assert loss.grad is not None

    def test_retain_grad_keeps_intermediate(self, rng):
        x, hidden, scaled, loss = _small_graph(rng)
        hidden.retain_grad()
        loss.backward()
        assert hidden.grad is not None
        assert scaled.grad is None
        # d(loss)/d(hidden) = 1 everywhere (sum of hidden + 1.0).
        np.testing.assert_array_equal(hidden.grad, np.ones_like(hidden.data))

    def test_backward_leaves_no_reference_cycle(self, rng):
        gc.collect()
        gc.disable()
        try:
            x, hidden, scaled, loss = _small_graph(rng)
            loss.backward()
            assert loss.grad is not None
            del hidden, scaled, loss
            assert gc.collect() == 0
        finally:
            gc.enable()


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _softmax(x):
    exps = np.exp(x - x.max(axis=-1, keepdims=True))
    return exps / exps.sum(axis=-1, keepdims=True)


def _log_softmax(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


# (op on tensors, d(op)/d(first operand) as a plain numpy expression of the
# operand arrays and the upstream gradient ``g``)
_UNARY_RULES = {
    "pow": (lambda a: a ** 3.0, lambda a, g: g * 3.0 * a ** 2.0),
    "sigmoid": (lambda a: a.sigmoid(),
                lambda a, g: g * _sigmoid(a) * (1.0 - _sigmoid(a))),
    "tanh": (lambda a: a.tanh(), lambda a, g: g * (1.0 - np.tanh(a) ** 2)),
    "softmax": (lambda a: a.softmax(axis=-1),
                lambda a, g: _softmax(a) * (g - (g * _softmax(a)).sum(axis=-1, keepdims=True))),
    "log_softmax": (lambda a: a.log_softmax(axis=-1),
                    lambda a, g: g - np.exp(_log_softmax(a)) * g.sum(axis=-1, keepdims=True)),
}


class TestPooledBackwardValues:
    @pytest.mark.parametrize("name", sorted(_UNARY_RULES))
    def test_unary_rule_matches_numpy_expression(self, rng, name):
        op, rule = _UNARY_RULES[name]
        data = rng.normal(size=(5, 4))
        g = rng.normal(size=(5, 4))
        x = Tensor(data.copy(), requires_grad=True)
        op(x).backward(g)
        np.testing.assert_array_equal(x.grad, rule(data, g))

    @pytest.mark.parametrize("name", sorted(_UNARY_RULES))
    def test_second_accumulation_adds_in_place(self, rng, name):
        op, rule = _UNARY_RULES[name]
        data = rng.normal(size=(5, 4))
        g = rng.normal(size=(5, 4))
        x = Tensor(data.copy(), requires_grad=True)
        (op(x) + op(x)).backward(g)
        np.testing.assert_array_equal(x.grad, rule(data, g) + rule(data, g))

    def test_division_rules_including_broadcast_divisor(self, rng):
        num, den = rng.normal(size=(5, 4)), rng.uniform(0.5, 2.0, size=(1, 4))
        g = rng.normal(size=(5, 4))
        a = Tensor(num.copy(), requires_grad=True)
        b = Tensor(den.copy(), requires_grad=True)
        (a / b).backward(g)
        np.testing.assert_array_equal(a.grad, g / den)
        np.testing.assert_array_equal(
            b.grad, (-g * num / (den ** 2)).sum(axis=0, keepdims=True))

    def test_matmul_rules(self, rng):
        left, right = rng.normal(size=(3, 5, 4)), rng.normal(size=(3, 4, 2))
        g = rng.normal(size=(3, 5, 2))
        a = Tensor(left.copy(), requires_grad=True)
        b = Tensor(right.copy(), requires_grad=True)
        (a @ b).backward(g)
        np.testing.assert_array_equal(a.grad, g @ np.swapaxes(right, -1, -2))
        np.testing.assert_array_equal(b.grad, np.swapaxes(left, -1, -2) @ g)

    def test_matmul_broadcast_operand_reduces(self, rng):
        left, right = rng.normal(size=(3, 5, 4)), rng.normal(size=(4, 2))
        g = rng.normal(size=(3, 5, 2))
        a = Tensor(left.copy(), requires_grad=True)
        b = Tensor(right.copy(), requires_grad=True)
        (a @ b).backward(g)
        np.testing.assert_array_equal(b.grad, (np.swapaxes(left, -1, -2) @ g).sum(axis=0))
