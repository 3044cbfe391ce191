"""A tour of the reverse-mode autodiff core.

Builds a tiny two-layer computation by hand, records it on a gradient
tape, backpropagates, and then corroborates every gradient with central
finite differences. This is the same machinery the full model trains
with; nothing here is a mock.
"""

import numpy as np

from actionflow.numerics import (
    GradTape,
    ParamStore,
    Tensor,
    finite_difference_check,
    matmul,
    mean_all,
    mul,
    relu,
    sub,
)


def build_params(rng):
    return ParamStore({
        "w1": rng.normal(scale=0.5, size=(3, 4)),
        "b1": np.zeros(4),
        "w2": rng.normal(scale=0.5, size=(4, 1)),
    })


def loss_fn(store, x, target):
    h = relu(matmul(x, store["w1"]) + store["b1"])
    out = matmul(h, store["w2"])
    diff = sub(out, target)
    return mean_all(mul(diff, diff))


def main():
    rng = np.random.default_rng(7)
    store = build_params(rng)
    x = Tensor(rng.normal(size=(8, 3)))
    target = Tensor(rng.normal(size=(8, 1)))

    print("parameters:")
    for name, p in store.items():
        print(f"  {name}: shape {p.data.shape}")

    with GradTape() as tape:
        loss = loss_fn(store, x, target)
        tape.backward(loss)
    print(f"\nloss = {loss.item():.6f}, tape recorded {len(tape)} ops")
    for name, _ in store.items():
        g = store.grad(name)
        print(f"  d loss / d {name}: |grad| = {np.linalg.norm(g):.6f}")

    # the check re-evaluates the loss twice per scalar parameter entry
    report = finite_difference_check(lambda s: loss_fn(s, x, target), store)
    print(f"\nfinite differences agree to max relative error "
          f"{report.max_rel_err:.3e} (worst: {report.worst_param})")

    # a few gradient-descent steps shrink the loss monotonically
    print("\nplain gradient descent:")
    for step in range(5):
        store.zero_grads()
        with GradTape() as tape:
            loss = loss_fn(store, x, target)
            tape.backward(loss)
        for name, p in store.items():
            p.data -= 0.1 * store.grad(name)
        print(f"  step {step}: loss {loss.item():.6f}")


if __name__ == "__main__":
    main()
