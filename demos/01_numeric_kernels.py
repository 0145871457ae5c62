#!/usr/bin/env python3
"""Tour of the numeric kernels: conv, pooling, adjointness, Adam, gradcheck.

Everything downstream (autoencoders, encoding models) is built from these
pure-numpy ops. Every op takes a batch, time-major: activations are
(timepoints, channels, trials), the trials in the last axis, and a single
epoch is a batch of one. Data files and the autoencoder functions keep
epochs as (trials, channels, timepoints) and swap them at the boundary. Run
top to bottom; takes a second.
"""

import numpy as np

from erpcoder import nn

rng = np.random.default_rng(0)

# A 1D cross-correlation: edge-detector kernel over a ramp.
x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(4, 1, 1)  # 4 timepoints x 1 channel x 1 trial
kernel = np.array([[[1.0, 0.0, -1.0]]])       # 1 out-channel, 1 in-channel, width 3
y, ctx = nn.conv1d_time_major_forward(x, kernel, bias=np.zeros(1))
print("conv([1,2,3,4], [1,0,-1]) =", y[:, 0, 0])  # constant slope -> constant response

# Backward pass gives gradients w.r.t. input, kernels and bias.
grads = nn.conv1d_time_major_backward(ctx, np.ones_like(y))
print("d/dkernel of sum(conv) =", grads.param_grads["kernels"][0, 0])

# Max pooling keeps the winner per window and remembers where it was: offset i
# of window u wins where its mask (window, channel, trial) is set, at position
# u*stride + i.
pooled, pctx = nn.maxpool1d_time_major_forward(np.array([3.0, 1.0, 4.0, 1.0]).reshape(4, 1, 1),
                                               window=2, stride=2)
winners = sorted(int(u) * pctx.stride + i for i, mask in pctx.winner_masks()
                 for u in np.flatnonzero(mask[:, 0, 0]))
print("maxpool [3,1,4,1] w=2 s=2 ->", pooled[:, 0, 0], "winners at", winners)

# The transposed convolution is the exact adjoint of the convolution:
# <conv(x; W), y> == <x, convT(y; W)> for matching geometry.
x = rng.normal(size=(20, 3, 2))                # a batch of 2
w = rng.normal(size=(5, 3, 4))
y = rng.normal(size=(9, 5, 2))                 # conv output length (20-4)//2+1 = 9
cx, _ = nn.conv1d_time_major_forward(x, w, np.zeros(5), stride=2)
ty, _ = nn.convtranspose1d_time_major_forward(y, w, np.zeros(3), stride=2)
print(f"adjoint identity: {float((cx * y).sum()):.12f} == {float((x * ty).sum()):.12f}")

# Adam: the first step with unit gradient moves a parameter by ~lr.
params = {"w": np.array([1.0])}
state = nn.adam_init(params, lr=0.001)
nn.adam_step(params, {"w": np.array([1.0])}, state)
print("Adam first step moved parameter by", 1.0 - params["w"][0])

# Every backward pass in the library is validated against central finite
# differences. The checker reports the worst-element relative error.
w1 = rng.normal(size=(4, 2, 3))
target = rng.normal(size=(8, 4, 1))

def loss_and_grad(x):
    h, c1 = nn.conv1d_time_major_forward(x, w1, np.zeros(4), padding=1)
    a, c2 = nn.tanh_forward(h)
    loss, gl = nn.mse_loss(a, target)
    g = nn.tanh_backward(c2, gl).input_grad
    return loss, nn.conv1d_time_major_backward(c1, g).input_grad

err = nn.finite_difference_check(loss_and_grad, rng.normal(size=(8, 2, 1)))
print(f"conv+tanh gradient vs finite differences: worst rel err {err:.2e}")

# A deliberately wrong gradient is flagged with an error near 1.
a = rng.normal(size=6)
err = nn.finite_difference_check(lambda v: (float(a @ v), 2.0 * a), rng.normal(size=6))
print(f"doubled gradient detected with rel err {err:.3f}")
