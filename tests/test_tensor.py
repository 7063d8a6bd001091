import gc
import re
import weakref

import numpy as np
import pytest

from clinli import tensor as T
from clinli.compaggr import CompAggrConfig, CompAggrModel, aggregate_classify, cross_attention
from clinli.data import NLIExample
from clinli.errors import ConfigError, ContractError, DataError, DimensionError, NumericError
from clinli.tokenizer import build_word_vocab

from oracles import finite_diff_grad, loop_conv_maxpool, loop_conv_maxpool_backward, loop_softmax, rel_err


def param(rng, *shape):
    return T.Tensor(rng.uniform(-1, 1, size=shape), requires_grad=True)


class TestMatmul:
    def test_identity(self):
        a = T.Tensor(np.eye(2))
        b = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(T.matmul(a, b).data, b.data)

    def test_hand_2x2(self):
        a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = T.Tensor([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_array_equal(T.matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 2))))

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        a0 = rng.uniform(-1, 1, size=(3, 4))
        b0 = rng.uniform(-1, 1, size=(4, 2))

        def f(a_arr):
            return (a_arr @ b0).sum()

        a = T.Tensor(a0, requires_grad=True)
        loss = T.sum_all(T.matmul(a, T.Tensor(b0)))
        loss.backward()
        assert rel_err(a.grad, finite_diff_grad(f, a0)) < 1e-6


BANK = (T.Tensor(np.zeros((1, 2, 2))), T.Tensor(np.zeros(1)))


@pytest.mark.parametrize("call,shape", [
    (lambda: T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros(3))), (3,)),
    (lambda: T.matmul(T.Tensor(np.zeros(2)), T.Tensor(np.zeros((2, 3)))), (2,)),
    (lambda: T.conv1d_maxpool(T.Tensor(np.zeros((2, 5))), [BANK]), (2, 5)),
    (lambda: cross_attention(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 4))), T.Tensor(np.zeros((2, 2))), [3]),
     (2, 3)),
    (lambda: aggregate_classify(T.Tensor(np.zeros((2, 5))), [BANK], T.Tensor(np.zeros((1, 3))), T.Tensor(np.zeros(3)),
                                [5]), (2, 5)),
    (lambda: aggregate_classify(T.Tensor(np.zeros((2, 5))), [BANK], T.Tensor(np.zeros((1, 3))), T.Tensor(np.zeros(3)),
                                [3]), (2, 5)),
], ids=["matmul_vector_right", "matmul_vector_left", "conv1d_maxpool_matrix", "cross_attention_matrices",
        "aggregate_classify_matrix", "aggregate_classify_matrix_short"])
def test_unbatched_forms_are_rejected_naming_the_shape(call, shape):
    # the models pass matmul operands of at least two axes and (B, d, m) batches to the compare-aggregate stages
    with pytest.raises(DimensionError, match=re.escape(str(shape))):
        call()


class TestSoftmax:
    def test_uniform_over_zeros(self):
        out = T.softmax(T.Tensor([0.0, 0.0, 0.0]), axis=0)
        np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)

    def test_extreme_inputs_do_not_overflow(self):
        out = T.softmax(T.Tensor([1000.0, 0.0, -1000.0]), axis=0).data
        assert np.all(np.isfinite(out))
        assert out[0] > 1 - 1e-12
        assert out[1] < 1e-12 and out[2] < 1e-12

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-5, 5, size=(4, 6))
        out = T.softmax(T.Tensor(x), axis=1).data
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(out > 0) and np.all(out < 1)
        np.testing.assert_allclose(out, loop_softmax(x, 1), atol=1e-12)

    def test_nan_input_rejected(self):
        with pytest.raises(NumericError):
            T.softmax(T.Tensor([1.0, np.nan]), axis=0)
        # an infinite slice max would give all-NaN probabilities, not an error
        for row in ([np.inf, 0.0], [-np.inf, -np.inf]):
            with pytest.raises(NumericError, match="infinite"):
                T.softmax(T.Tensor([[0.5, 1.0], row]), axis=-1)
        # a -inf entry below a finite max is an exact zero
        np.testing.assert_array_equal(T.softmax(T.Tensor([-np.inf, 0.0]), axis=0).data, [0.0, 1.0])

    def test_bad_axis(self):
        with pytest.raises(DimensionError):
            T.softmax(T.Tensor([1.0, 2.0]), axis=3)

    @pytest.mark.parametrize("seed", range(5))
    def test_grad_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        x0 = rng.uniform(-1, 1, size=5)
        c = rng.uniform(-1, 1, size=5)
        x = T.Tensor(x0, requires_grad=True)
        loss = T.sum_all(T.mul(T.softmax(x, axis=0), T.Tensor(c)))
        loss.backward()
        fd = finite_diff_grad(lambda a: (loop_softmax(a, 0) * c).sum(), x0.copy())
        assert rel_err(x.grad, fd) < 1e-6


class TestElementwise:
    def test_add_identity(self):
        x = T.Tensor([[1.0, -2.0], [0.5, 3.0]])
        out = T.add(x, T.Tensor(np.zeros((2, 2))))
        np.testing.assert_array_equal(out.data, x.data)

    def test_mul_hand(self):
        out = T.mul(T.Tensor([1.0, 2.0, 3.0]), T.Tensor([4.0, 5.0, 6.0]))
        np.testing.assert_array_equal(out.data, [4.0, 10.0, 18.0])

    def test_incompatible_shapes(self):
        with pytest.raises(DimensionError):
            T.add(T.Tensor(np.zeros(3)), T.Tensor(np.zeros(4)))

    def test_tanh_grad_is_one_minus_square(self):
        rng = np.random.default_rng(11)
        x0 = rng.uniform(-1, 1, size=(3, 3))
        x = T.Tensor(x0, requires_grad=True)
        T.sum_all(T.tanh(x)).backward()
        np.testing.assert_allclose(x.grad, 1 - np.tanh(x0) ** 2, rtol=1e-12)
        fd = finite_diff_grad(lambda a: np.tanh(a).sum(), x0.copy())
        assert rel_err(x.grad, fd) < 1e-6

    def test_bias_broadcast_grad_sums_over_rows(self):
        rng = np.random.default_rng(5)
        a = param(rng, 4, 3)
        b = param(rng, 3)
        T.sum_all(T.mul(T.add(a, b), T.add(a, b))).backward()
        fd_b = finite_diff_grad(lambda u: ((a.data + u) ** 2).sum(), b.data.copy())
        assert rel_err(b.grad, fd_b) < 1e-6

    @pytest.mark.parametrize("op", [T.tanh, T.relu])
    @pytest.mark.parametrize("seed", range(5))
    def test_unary_grads_match_finite_differences(self, op, seed):
        rng = np.random.default_rng(100 + seed)
        x0 = rng.uniform(-1, 1, size=(2, 5))
        x = T.Tensor(x0, requires_grad=True)
        T.sum_all(op(x)).backward()

        def f(a):
            t = T.Tensor(a)
            return float(op(t).data.sum())

        assert rel_err(x.grad, finite_diff_grad(f, x0.copy())) < 1e-4


class TestBatchedShapes:
    """Ops on (batch, rows, cols) tensors: broadcast operands get gradients
    summed back to their own shapes."""

    @pytest.mark.parametrize("op", [T.add, T.mul])
    @pytest.mark.parametrize("shape_b", [(4,), (1, 3, 4), (2, 1, 4), (2, 3, 1)])
    def test_broadcast_grads_match_finite_differences(self, op, shape_b):
        rng = np.random.default_rng(61)
        a0 = rng.uniform(-1, 1, size=(2, 3, 4))
        b0 = rng.uniform(-1, 1, size=shape_b)
        c = rng.uniform(-1, 1, size=(2, 3, 4))
        a = T.Tensor(a0, requires_grad=True)
        b = T.Tensor(b0, requires_grad=True)
        T.sum_all(T.mul(op(a, b), T.Tensor(c))).backward()
        assert a.grad.shape == a0.shape and b.grad.shape == b0.shape

        def f(x, y):
            return float((op(T.Tensor(x), T.Tensor(y)).data * c).sum())

        assert rel_err(a.grad, finite_diff_grad(lambda x: f(x, b0), a0.copy())) < 1e-6
        assert rel_err(b.grad, finite_diff_grad(lambda y: f(a0, y), b0.copy())) < 1e-6

    @pytest.mark.parametrize("shape_b", [(4, 5), (3, 4, 5)])
    def test_batched_matmul_grads(self, shape_b):
        rng = np.random.default_rng(62)
        a = param(rng, 3, 2, 4)
        b = param(rng, *shape_b)
        c = rng.uniform(-1, 1, size=(3, 2, 5))
        out = T.matmul(a, b)
        for i in range(3):
            np.testing.assert_allclose(out.data[i], a.data[i] @ (b.data if b.data.ndim == 2 else b.data[i]), atol=1e-12)
        T.sum_all(T.mul(out, T.Tensor(c))).backward()
        fd_a = finite_diff_grad(lambda x: ((x @ b.data) * c).sum(), a.data.copy())
        fd_b = finite_diff_grad(lambda y: ((a.data @ y) * c).sum(), b.data.copy())
        assert rel_err(a.grad, fd_a) < 1e-6
        assert rel_err(b.grad, fd_b) < 1e-6

    def test_batch_axes_must_broadcast(self):
        with pytest.raises(DimensionError):
            T.matmul(T.Tensor(np.zeros((2, 3, 4))), T.Tensor(np.zeros((3, 4, 5))))
        with pytest.raises(DimensionError):
            T.matmul(T.Tensor(np.zeros(4)), T.Tensor(np.zeros((2, 4, 5))))

    def test_last_axis_ops_act_per_batch_element(self):
        rng = np.random.default_rng(63)
        x0 = rng.uniform(-1, 1, size=(2, 3, 4))
        gain, bias = T.Tensor(rng.uniform(0.5, 1.5, 4)), T.Tensor(rng.uniform(-0.2, 0.2, 4))
        x = T.Tensor(x0)
        for i in range(2):
            one = T.Tensor(x0[i])
            np.testing.assert_array_equal(T.transpose(x).data[i], T.transpose(one).data)
            np.testing.assert_array_equal(T.slice_cols(x, 1, 3).data[i], T.slice_cols(one, 1, 3).data)
            np.testing.assert_array_equal(T.slice_rows(x, 1, 3).data[i], T.slice_rows(one, 1, 3).data)
            np.testing.assert_array_equal(
                T.layer_norm(x, gain, bias).data[i], T.layer_norm(one, gain, bias).data
            )

    def test_batched_shape_op_grads(self):
        rng = np.random.default_rng(64)
        x0 = rng.uniform(-1, 1, size=(2, 3, 4))
        g0, b0 = rng.uniform(0.5, 1.5, 4), rng.uniform(-0.2, 0.2, 4)
        c = rng.uniform(-1, 1, size=(2, 4, 3))

        def f(a, g, b):
            y = T.layer_norm(T.Tensor(a), T.Tensor(g), T.Tensor(b))
            return float((T.transpose(y).data * c).sum())

        x = T.Tensor(x0, requires_grad=True)
        gain, bias = T.Tensor(g0, requires_grad=True), T.Tensor(b0, requires_grad=True)
        T.sum_all(T.mul(T.transpose(T.layer_norm(x, gain, bias)), T.Tensor(c))).backward()
        assert rel_err(x.grad, finite_diff_grad(lambda a: f(a, g0, b0), x0.copy())) < 1e-4
        assert rel_err(gain.grad, finite_diff_grad(lambda g: f(x0, g, b0), g0.copy())) < 1e-4
        assert rel_err(bias.grad, finite_diff_grad(lambda b: f(x0, g0, b), b0.copy())) < 1e-4

    def test_take_rows_with_id_matrix(self):
        table = T.Tensor(np.arange(12, dtype=float).reshape(4, 3), requires_grad=True)
        out = T.take_rows(table, [[1, 3], [1, 0]])
        assert out.shape == (2, 2, 3)
        np.testing.assert_array_equal(out.data[1, 0], table.data[1])
        T.sum_all(out).backward()
        np.testing.assert_array_equal(table.grad.sum(axis=1), [3.0, 6.0, 0.0, 3.0])

    def test_reshape_roundtrip_grad(self):
        rng = np.random.default_rng(65)
        a = param(rng, 2, 3, 4)
        r = T.reshape(a, (2, -1))
        assert r.shape == (2, 12)
        T.sum_all(T.mul(r, r)).backward()
        np.testing.assert_allclose(a.grad, 2 * a.data, atol=1e-12)
        with pytest.raises(DimensionError):
            T.reshape(a, (5, 5))


class TestConvMaxpool:
    def test_constant_input_unit_filter(self):
        x = T.Tensor(np.full((1, 1, 4), 2.5))
        w = T.Tensor(np.ones((1, 1, 1)), requires_grad=True)
        b = T.Tensor(np.zeros(1), requires_grad=True)
        out = T.conv1d_maxpool(x, [(w, b)])
        np.testing.assert_allclose(out.data, [[2.5]])

    def test_max_selection(self):
        x = T.Tensor([[[1.0, 5.0, 2.0]]])
        w = T.Tensor(np.ones((1, 1, 1)))
        b = T.Tensor(np.zeros(1))
        np.testing.assert_allclose(T.conv1d_maxpool(x, [(w, b)]).data, [[5.0]])

    def test_empty_sequence_rejected(self):
        with pytest.raises(ContractError):
            T.conv1d_maxpool(T.Tensor(np.zeros((1, 2, 0))), [])

    def test_width_exceeding_length_rejected(self):
        with pytest.raises(DimensionError):
            T.conv1d_maxpool(T.Tensor(np.zeros((1, 2, 2))), [(T.Tensor(np.zeros((1, 2, 3))), T.Tensor(np.zeros(1)))])

    def test_matches_loop_oracle_and_finite_differences(self):
        rng = np.random.default_rng(42)
        x0 = rng.uniform(-1, 1, size=(4, 6))
        banks_np = [(rng.uniform(-1, 1, size=(2, 4, w)), rng.uniform(-0.2, 0.2, size=2)) for w in (1, 2, 3)]
        x = T.Tensor(x0[None], requires_grad=True)
        banks = [(T.Tensor(w, requires_grad=True), T.Tensor(b, requires_grad=True)) for w, b in banks_np]
        out = T.conv1d_maxpool(x, banks)
        np.testing.assert_allclose(out.data[0], loop_conv_maxpool(x0, banks_np), atol=1e-12)

        c = rng.uniform(-1, 1, size=out.shape[1:])
        T.sum_all(T.mul(out, T.Tensor(c))).backward()

        def f_x(a):
            return (loop_conv_maxpool(a, banks_np) * c).sum()

        assert rel_err(x.grad[0], finite_diff_grad(f_x, x0.copy())) < 1e-5
        for i, (w, b) in enumerate(banks):
            def f_w(arr, i=i):
                nb = [(arr if j == i else wj, bj) for j, (wj, bj) in enumerate(banks_np)]
                return (loop_conv_maxpool(x0, nb) * c).sum()

            assert rel_err(w.grad, finite_diff_grad(f_w, banks_np[i][0].copy())) < 1e-5

    @staticmethod
    def grads(x0, banks_np, c):
        """Gradients of a batch of one: the (features, positions) matrix
        ``x0`` with the pooled outputs weighted by ``c``."""
        x = T.Tensor(x0[None], requires_grad=True)
        banks = [(T.Tensor(w, requires_grad=True), T.Tensor(b, requires_grad=True)) for w, b in banks_np]
        T.sum_all(T.mul(T.conv1d_maxpool(x, banks), T.Tensor(c))).backward()
        return x.grad[0], [w.grad for w, _ in banks], [b.grad for _, b in banks]

    def assert_matches_loop_backward(self, x0, banks_np, c):
        dx, dws, dbs = self.grads(x0, banks_np, c)
        ref_dx, ref_dws, ref_dbs = loop_conv_maxpool_backward(x0, banks_np, c)
        np.testing.assert_allclose(dx, ref_dx, rtol=0, atol=1e-12)
        for got, want in zip(dws + dbs, ref_dws + ref_dbs):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("m", [12, 5], ids=["twelve_positions", "one_position_at_widest"])
    def test_backward_matches_per_filter_loop_at_full_scale(self, m):
        rng = np.random.default_rng(m)
        x0 = rng.uniform(-1, 1, size=(100, m))
        banks_np = [(rng.uniform(-0.1, 0.1, size=(100, 100, w)), rng.uniform(-0.1, 0.1, size=100)) for w in range(1, 6)]
        c = rng.uniform(-1, 1, size=500)
        self.assert_matches_loop_backward(x0, banks_np, c)

    def test_dead_bank_gets_zero_gradients(self):
        rng = np.random.default_rng(7)
        x0 = rng.uniform(-1, 1, size=(6, 8))
        live = (rng.uniform(-1, 1, size=(4, 6, 2)), rng.uniform(-0.2, 0.2, size=4))
        dead = (rng.uniform(-1, 1, size=(3, 6, 3)), np.full(3, -100.0))
        c = rng.uniform(-1, 1, size=7)
        self.assert_matches_loop_backward(x0, [live, dead], c)
        _, dws, dbs = self.grads(x0, [live, dead], c)
        assert not dws[1].any() and not dbs[1].any()
        assert dws[0].any()

    def test_tied_maxima_go_to_the_first_position(self):
        # integer entries make every window sum exact, so the ties are exact;
        # columns 0-1 repeat as columns 3-4
        x0 = np.array([[1.0, 2.0, 0.0, 1.0, 2.0, -1.0], [3.0, -1.0, 1.0, 3.0, -1.0, 0.0]])
        banks_np = [(np.array([[[1.0], [1.0]]]), np.zeros(1)), (np.array([[[1.0, 1.0], [1.0, 0.0]]]), np.zeros(1))]
        c = np.array([2.0, -3.0])
        self.assert_matches_loop_backward(x0, banks_np, c)
        dx, _, _ = self.grads(x0, banks_np, c)
        np.testing.assert_array_equal(dx[:, 3:], 0.0)
        assert dx[:, 0].any()

    def test_masked_batch_rows_match_per_filter_loops(self):
        # entries past each row's length are garbage the mask must hide
        rng = np.random.default_rng(21)
        lengths = [3, 9, 5, 7]
        x0 = rng.uniform(-1, 1, size=(4, 6, 9))
        banks_np = [(rng.uniform(-1, 1, size=(3, 6, w)), rng.uniform(-0.2, 0.2, size=3)) for w in (1, 2, 3)]
        c = rng.uniform(-1, 1, size=(4, 9))
        x = T.Tensor(x0, requires_grad=True)
        banks = [(T.Tensor(w, requires_grad=True), T.Tensor(b, requires_grad=True)) for w, b in banks_np]
        out = T.conv1d_maxpool(x, banks, lengths)
        assert out.shape == (4, 9)
        T.sum_all(T.mul(out, T.Tensor(c))).backward()
        want_dws = [np.zeros_like(w) for w, _ in banks_np]
        want_dbs = [np.zeros_like(b) for _, b in banks_np]
        for i, n in enumerate(lengths):
            np.testing.assert_allclose(out.data[i], loop_conv_maxpool(x0[i, :, :n], banks_np), rtol=0, atol=1e-12)
            ref_dx, ref_dws, ref_dbs = loop_conv_maxpool_backward(x0[i, :, :n], banks_np, c[i])
            np.testing.assert_allclose(x.grad[i, :, :n], ref_dx, rtol=0, atol=1e-12)
            assert not x.grad[i, :, n:].any()
            for acc, got in zip(want_dws + want_dbs, ref_dws + ref_dbs):
                acc += got
        for (w, b), dw, db in zip(banks, want_dws, want_dbs):
            np.testing.assert_allclose(w.grad, dw, rtol=0, atol=1e-12)
            np.testing.assert_allclose(b.grad, db, rtol=0, atol=1e-12)

    def test_unmasked_batch_rows_match_single_matrices(self):
        rng = np.random.default_rng(22)
        x0 = rng.uniform(-1, 1, size=(3, 4, 6))
        banks = [(T.Tensor(rng.uniform(-1, 1, size=(2, 4, w))), T.Tensor(rng.uniform(-0.2, 0.2, size=2)))
                 for w in (1, 2, 3)]
        out = T.conv1d_maxpool(T.Tensor(x0), banks).data
        for i in range(3):
            single = T.conv1d_maxpool(T.Tensor(x0[i][None]), banks).data[0]
            np.testing.assert_allclose(out[i], single, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape,lengths", [((1, 2, 5), [5, 5]), ((2, 2, 5), [5]), ((2, 2, 5), [1, 5]),
                                               ((2, 2, 5), [5, 6])],
                             ids=["too_many", "too_few", "shorter_than_a_filter", "longer_than_the_input"])
    def test_invalid_lengths_rejected(self, shape, lengths):
        bank = (T.Tensor(np.zeros((1, 2, 2))), T.Tensor(np.zeros(1)))
        with pytest.raises(DimensionError):
            T.conv1d_maxpool(T.Tensor(np.zeros(shape)), [bank], lengths)

    def test_backward_after_replay_on_changed_input_equals_fresh_run(self):
        rng = np.random.default_rng(3)
        x0, x1 = rng.uniform(-1, 1, size=(2, 5, 9))
        banks_np = [(rng.uniform(-1, 1, size=(4, 5, w)), rng.uniform(-0.2, 0.2, size=4)) for w in (1, 2, 3)]
        c = rng.uniform(-1, 1, size=12)
        x = T.Tensor(x0[None], requires_grad=True)
        banks = [(T.Tensor(w, requires_grad=True), T.Tensor(b, requires_grad=True)) for w, b in banks_np]
        loss = T.sum_all(T.mul(T.conv1d_maxpool(x, banks), T.Tensor(c)))
        x.data = x1[None].copy()
        T.replay(loss)
        loss.backward()
        fresh_dx, fresh_dws, fresh_dbs = self.grads(x1, banks_np, c)
        np.testing.assert_array_equal(x.grad[0], fresh_dx)
        for (w, b), dw, db in zip(banks, fresh_dws, fresh_dbs):
            np.testing.assert_array_equal(w.grad, dw)
            np.testing.assert_array_equal(b.grad, db)


class TestBackward:
    def test_sum_gives_ones(self):
        w = T.Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
        T.sum_all(w).backward()
        np.testing.assert_array_equal(w.grad, np.ones((2, 3)))

    def test_tensor_used_twice_accumulates(self):
        x = T.Tensor([1.0], requires_grad=True)
        y = T.add(x, x)
        T.sum_all(y).backward()
        np.testing.assert_array_equal(x.grad, [2.0])

    def test_non_scalar_loss_rejected(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            T.add(x, x).backward()

    def test_three_branch_graph_matches_finite_differences(self):
        rng = np.random.default_rng(99)
        x = param(rng, 4, 4)
        y = param(rng, 4, 4)
        branch1 = T.tanh(T.matmul(x, y))
        branch2 = T.mul(T.softmax(T.add(x, y), axis=-1), y)
        branch3 = T.relu(T.mul(x, y))
        T.sum_all(T.add(T.add(branch1, branch2), branch3)).backward()

        def f(a, b):
            e = np.exp(a + b)
            return (np.tanh(a @ b) + e / e.sum(axis=-1, keepdims=True) * b + np.maximum(a * b, 0.0)).sum()

        assert rel_err(x.grad, finite_diff_grad(lambda a: f(a, y.data), x.data.copy())) < 1e-6
        assert rel_err(y.grad, finite_diff_grad(lambda b: f(x.data, b), y.data.copy())) < 1e-6


class TestDropout:
    def test_ratio_zero_is_identity(self):
        x = T.Tensor([1.0, 2.0])
        rng = np.random.default_rng(0)
        out = T.dropout(x, 0.0, rng=rng)
        np.testing.assert_array_equal(out.data, x.data)

    def test_inference_mode_is_identity(self):
        x = T.Tensor(np.random.default_rng(1).normal(size=100))
        assert T.dropout(x, 0.9, None) is x

    def test_ratio_one_rejected(self):
        with pytest.raises(ConfigError):
            T.dropout(T.Tensor([1.0]), 1.0, rng=np.random.default_rng(0))

    def test_keep_fraction_and_mean_preserved(self):
        rng = np.random.default_rng(2024)
        x0 = rng.uniform(0.5, 1.5, size=10_000)
        out = T.dropout(T.Tensor(x0), 0.7, rng=np.random.default_rng(7)).data
        kept = np.count_nonzero(out) / out.size
        assert abs(kept - 0.30) < 0.02
        assert abs(out.mean() - x0.mean()) / x0.mean() < 0.05

    def test_grad_flows_through_kept_entries_only(self):
        x = T.Tensor(np.ones(1000), requires_grad=True)
        out = T.dropout(x, 0.5, rng=np.random.default_rng(3))
        T.sum_all(out).backward()
        np.testing.assert_array_equal((x.grad > 0), (out.data > 0))


class TestGatherShapeOps:
    def test_take_rows_gather_and_scatter(self):
        table = T.Tensor(np.arange(12, dtype=float).reshape(4, 3), requires_grad=True)
        out = T.take_rows(table, [1, 1, 3])
        np.testing.assert_array_equal(out.data, table.data[[1, 1, 3]])
        T.sum_all(out).backward()
        expected = np.zeros((4, 3))
        expected[1] = 2.0
        expected[3] = 1.0
        np.testing.assert_array_equal(table.grad, expected)

    def test_take_rows_scatter_of_repeated_ids_equals_add_at_bitwise(self):
        rng = np.random.default_rng(12)
        table = param(rng, 30, 8)
        ids = rng.integers(0, 30, size=(6, 25))  # 150 ids over 30 rows: most rows repeat
        g = rng.normal(size=(6, 25, 8)) * 10.0 ** rng.uniform(-8, 8, size=(6, 25, 1))  # sums depend on order
        T.sum_all(T.mul(T.take_rows(table, ids), T.Tensor(g))).backward()
        expected = np.zeros((30, 8))
        np.add.at(expected, ids, g)
        assert table.grad.tobytes() == expected.tobytes()

    def test_take_rows_out_of_bounds(self):
        with pytest.raises(DataError):
            T.take_rows(T.Tensor(np.zeros((2, 2))), [0, 5])

    def test_slice_concat_stack_grads(self):
        rng = np.random.default_rng(13)
        a = param(rng, 3, 4)
        left = T.slice_cols(a, 0, 2)
        right = T.slice_cols(a, 2, 4)
        back = T.concat([left, right], axis=1)
        T.sum_all(T.mul(back, back)).backward()
        np.testing.assert_allclose(a.grad, 2 * a.data, atol=1e-12)

        cols = [param(rng, 3) for _ in range(2)]
        m = T.stack_cols(cols)
        T.sum_all(T.slice_rows(m, 0, 2)).backward()
        for c in cols:
            np.testing.assert_array_equal(c.grad, [1.0, 1.0, 0.0])

    def test_stack_cols_stacks_batches_along_a_new_last_axis(self):
        rng = np.random.default_rng(19)
        parts = [param(rng, 2, 3) for _ in range(4)]
        m = T.stack_cols(parts)
        assert m.shape == (2, 3, 4)
        np.testing.assert_array_equal(m.data[..., 1], parts[1].data)
        c = rng.uniform(-1, 1, size=(2, 3, 4))
        T.sum_all(T.mul(m, T.Tensor(c))).backward()
        for j, part in enumerate(parts):
            np.testing.assert_array_equal(part.grad, c[..., j])
        with pytest.raises(DimensionError):
            T.stack_cols([param(rng, 2, 3), param(rng, 3, 2)])

    def test_ravel_roundtrip_grad(self):
        rng = np.random.default_rng(17)
        a = param(rng, 2, 3)
        T.sum_all(T.mul(T.ravel(a), T.ravel(a))).backward()
        np.testing.assert_allclose(a.grad, 2 * a.data, atol=1e-12)


class TestLayerNorm:
    @pytest.mark.parametrize("seed", range(5))
    def test_grad_matches_finite_differences(self, seed):
        rng = np.random.default_rng(300 + seed)
        x0 = rng.uniform(-1, 1, size=(3, 6))
        g0 = rng.uniform(0.5, 1.5, size=6)
        b0 = rng.uniform(-0.5, 0.5, size=6)
        c = rng.uniform(-1, 1, size=(3, 6))

        def ln(xa, ga, ba):
            mu = xa.mean(axis=1, keepdims=True)
            var = xa.var(axis=1, keepdims=True)
            return ((xa - mu) / np.sqrt(var + 1e-5)) * ga + ba

        x = T.Tensor(x0, requires_grad=True)
        gain = T.Tensor(g0, requires_grad=True)
        bias = T.Tensor(b0, requires_grad=True)
        T.sum_all(T.mul(T.layer_norm(x, gain, bias), T.Tensor(c))).backward()

        assert rel_err(x.grad, finite_diff_grad(lambda a: (ln(a, g0, b0) * c).sum(), x0.copy())) < 1e-4
        assert rel_err(gain.grad, finite_diff_grad(lambda a: (ln(x0, a, b0) * c).sum(), g0.copy())) < 1e-4
        assert rel_err(bias.grad, finite_diff_grad(lambda a: (ln(x0, g0, a) * c).sum(), b0.copy())) < 1e-4

    def test_rows_normalized(self):
        rng = np.random.default_rng(8)
        x = T.Tensor(rng.normal(2.0, 3.0, size=(4, 8)))
        out = T.layer_norm(x, T.Tensor(np.ones(8)), T.Tensor(np.zeros(8))).data
        np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.var(axis=1), 1.0, atol=1e-4)


class TestNll:
    def test_perfect_prediction_zero_loss(self):
        probs = T.Tensor([[0.0, 1.0, 0.0]])
        loss = T.nll_from_probs(probs, [1])
        assert float(loss.data) == 0.0

    def test_uniform_prediction_ln3(self):
        probs = T.Tensor([[1 / 3, 1 / 3, 1 / 3]])
        loss = T.nll_from_probs(probs, [0])
        np.testing.assert_allclose(float(loss.data), np.log(3.0), rtol=1e-12)

    def test_batch_matches_direct_summation(self):
        rng = np.random.default_rng(21)
        rows, gold, expected = [], [], 0.0
        for _ in range(4):
            p = rng.dirichlet(np.ones(3))
            g = int(rng.integers(3))
            rows.append(p)
            gold.append(g)
            expected -= np.log(p[g])
        loss = T.nll_from_probs(T.Tensor(np.stack(rows)), gold)
        np.testing.assert_allclose(float(loss.data), expected, rtol=1e-12)

    def test_zero_probability_clamped(self):
        probs = T.Tensor([[0.0, 1.0, 0.0]], requires_grad=True)
        loss = T.nll_from_probs(probs, [0])
        assert float(loss.data) == pytest.approx(-np.log(1e-12))
        loss.backward()
        np.testing.assert_array_equal(probs.grad, np.zeros((1, 3)))

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(33)
        p0 = rng.dirichlet(np.ones(3), size=2)
        probs = T.Tensor(p0, requires_grad=True)
        T.nll_from_probs(probs, [2, 0]).backward()
        fd = finite_diff_grad(lambda a: -np.log(a[0, 2]) - np.log(a[1, 0]), p0.copy())
        assert rel_err(probs.grad, fd) < 1e-6

    def test_rejects_vector_and_mismatched_labels(self):
        with pytest.raises(DimensionError):
            T.nll_from_probs(T.Tensor([0.2, 0.3, 0.5]), [0])
        with pytest.raises(ContractError):
            T.nll_from_probs(T.Tensor([[0.2, 0.3, 0.5]]), [0, 1])
        with pytest.raises(DataError):
            T.nll_from_probs(T.Tensor([[0.2, 0.3, 0.5]]), [3])


class TestRecordReplay:
    def _small_graph(self):
        rng = np.random.default_rng(55)
        x = param(rng, 3, 3)
        y = T.dropout(T.tanh(T.matmul(x, x)), 0.4, rng=np.random.default_rng(5))
        return x, T.sum_all(y)

    def test_record_is_topologically_ordered(self):
        _, loss = self._small_graph()
        order = T.record(loss)
        position = {id(n): i for i, n in enumerate(order)}
        for n in order:
            for p in n._parents:
                assert position[id(p)] < position[id(n)]

    def test_replay_reproduces_outputs_bitwise(self):
        _, loss = self._small_graph()
        originals = [n.data.copy() for n in T.record(loss)]
        T.replay(loss)
        for n, orig in zip(T.record(loss), originals):
            assert np.array_equal(n.data, orig)

    def test_forward_is_deterministic(self):
        def run():
            rng = np.random.default_rng(9)
            x = T.Tensor(rng.uniform(-1, 1, size=(4, 4)), requires_grad=True)
            return T.sum_all(T.softmax(T.matmul(x, x), axis=1)).data.copy()

        assert np.array_equal(run(), run())

    def test_long_recurrent_graph_records_backpropagates_and_replays(self):
        # a 300-word premise makes the recurrent encoder's graph deeper than
        # the interpreter's recursion limit
        words = [f"w{i % 37}" for i in range(300)]
        premise, hypothesis = " ".join(words), "w1 w2 w3"
        cfg = CompAggrConfig(word_dim=4, repr_dim=4, filters_per_width=2)
        model = CompAggrModel(cfg, build_word_vocab([premise, hypothesis]), seed=0)
        example = NLIExample(premise, hypothesis, "neutral")
        loss, _ = model.batch_loss([example], training=True, rng=np.random.default_rng(1))
        nodes = T.record(loss)
        assert len(nodes) > 2 * 300 * 5
        loss.backward()
        assert all(p.grad is not None for p in model.parameters().values())
        before = [n.data.copy() for n in nodes]
        T.replay(loss)
        for n, orig in zip(nodes, before):
            assert np.array_equal(n.data, orig)

    def test_backward_after_replay_on_changed_leaf_equals_fresh_run(self):
        rng = np.random.default_rng(21)
        x0, x1 = rng.uniform(-1, 1, size=(2, 3, 8))
        gain, bias = param(rng, 8), param(rng, 8)
        banks = [(param(rng, 4, 3, w), param(rng, 4)) for w in (1, 3)]
        leaves = [gain, bias] + [t for bank in banks for t in bank]

        def build(x):
            h = T.dropout(T.tanh(T.layer_norm(x, gain, bias)), 0.3, rng=np.random.default_rng(4))
            probs = T.softmax(T.conv1d_maxpool(h, banks), axis=-1)
            return T.nll_from_probs(probs, [2])

        def grads(x, loss):
            T.zero_grads([x] + leaves)
            loss.backward()
            return [t.grad.copy() for t in [x] + leaves]

        x = T.Tensor(x0[None], requires_grad=True)
        loss = build(x)
        x.data = x1[None].copy()
        T.replay(loss)
        replayed = grads(x, loss)

        fresh_x = T.Tensor(x1[None], requires_grad=True)
        fresh_loss = build(fresh_x)
        assert np.array_equal(loss.data, fresh_loss.data)
        for g_replayed, g_fresh in zip(replayed, grads(fresh_x, fresh_loss)):
            np.testing.assert_array_equal(g_replayed, g_fresh)

    @pytest.mark.parametrize("op", ["softmax", "layer_norm", "tanh"])
    def test_one_op_backward_after_replay_on_changed_input_equals_fresh_run(self, op):
        # the op alone: a stale saved cell cannot hide behind another op's refresh
        rng = np.random.default_rng(8)
        x0, x1 = rng.uniform(-2, 2, size=(2, 3, 4, 6))
        gain, bias = param(rng, 6), param(rng, 6)
        c = T.Tensor(rng.uniform(-1, 1, size=(3, 4, 6)))  # softmax rows sum to 1: weight them
        apply = {"softmax": lambda x: T.softmax(x, axis=-1), "tanh": T.tanh,
                 "layer_norm": lambda x: T.layer_norm(x, gain, bias)}[op]

        def grads(x, loss):
            T.zero_grads([x, gain, bias])
            loss.backward()
            return [x.grad.copy()] + [t.grad.copy() for t in (gain, bias) if t.grad is not None]

        x = T.Tensor(x0, requires_grad=True)
        loss = T.sum_all(T.mul(apply(x), c))
        x.data = x1.copy()
        T.replay(loss)
        replayed = grads(x, loss)

        fresh_x = T.Tensor(x1, requires_grad=True)
        fresh_loss = T.sum_all(T.mul(apply(fresh_x), c))
        assert loss.data.tobytes() == fresh_loss.data.tobytes()
        fresh = grads(fresh_x, fresh_loss)
        assert len(replayed) == len(fresh) == (3 if op == "layer_norm" else 1)
        for g_replayed, g_fresh in zip(replayed, fresh):
            assert g_replayed.tobytes() == g_fresh.tobytes()

    def test_finished_graph_is_freed_by_reference_counting_alone(self):
        rng = np.random.default_rng(30)
        gain, bias = param(rng, 6), param(rng, 6)
        table = param(rng, 10, 6)
        banks = [(param(rng, 3, 6, w), param(rng, 3)) for w in (1, 2)]

        def train_step():
            """Weak references to every op node's value and closures after a backward."""
            h = T.layer_norm(T.take_rows(table, [[1, 2, 2, 5, 7]]), gain, bias)
            h = T.dropout(T.tanh(h), 0.3, rng=np.random.default_rng(1))
            probs = T.softmax(T.conv1d_maxpool(T.transpose(h), banks), axis=-1)
            loss = T.nll_from_probs(probs, [1])
            loss.backward()
            nodes = [n for n in T.record(loss) if n._backward is not None]
            assert {n.op for n in nodes} >= {"layer_norm", "tanh", "softmax", "conv1d_maxpool", "take_rows"}
            return [weakref.ref(obj) for n in nodes for obj in (n.data, n._forward, n._backward)]

        gc.collect()
        gc.disable()
        try:
            refs = train_step()
            alive = [r() for r in refs if r() is not None]
        finally:
            gc.enable()
        assert not alive, f"{len(alive)} of {len(refs)} objects outlived their graph"
