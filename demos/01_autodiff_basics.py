"""Tour of the tensor core: forward ops, backward, and the replayable tape.

Builds a tiny expression graph, checks its gradients against central finite
differences, and shows that replaying the recorded computation reproduces
the forward values bit for bit.
"""

import numpy as np

from clinli import tensor as T

rng = np.random.default_rng(0)

# y = sum(tanh(A @ B) * C): two parameters, one constant
a = T.Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
b = T.Tensor(rng.uniform(-1, 1, (4, 2)), requires_grad=True)
c = T.Tensor(rng.uniform(-1, 1, (3, 2)))

loss = T.sum_all(T.mul(T.tanh(T.matmul(a, b)), c))
loss.backward()
print(f"loss = {float(loss.data):.6f}")
print(f"grad A:\n{np.round(a.grad, 4)}")

# finite-difference check on one entry of A
h = 1e-5
i, j = 1, 2
orig = a.data[i, j]
a.data[i, j] = orig + h
up = float(T.sum_all(T.mul(T.tanh(T.matmul(a, b)), c)).data)
a.data[i, j] = orig - h
down = float(T.sum_all(T.mul(T.tanh(T.matmul(a, b)), c)).data)
a.data[i, j] = orig
fd = (up - down) / (2 * h)
print(f"analytic dL/dA[{i},{j}] = {a.grad[i, j]:.10f}")
print(f"finite diff          = {fd:.10f}")

# gradient accumulation: using a tensor twice doubles its gradient
x = T.Tensor([1.5], requires_grad=True)
T.sum_all(T.add(x, x)).backward()
print(f"\nd(x + x)/dx = {x.grad}  (two uses accumulate)")

# the recorded graph can be replayed bit for bit, dropout mask included
drop = T.dropout(T.tanh(T.matmul(a, b)), 0.5, rng=np.random.default_rng(7))
out = T.sum_all(drop)
before = out.data.copy()
T.replay(out)
print(f"\nreplay reproduces the forward value exactly: {np.array_equal(out.data, before)}")
print(f"tape length for this graph: {len(T.record(out))} nodes")
