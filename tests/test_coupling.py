"""Adapter math, length adaptor, parameter inventory, schedules, checkpoints."""

import logging
import math
import os
import re
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stforge import coupling
from stforge.coupling import (
    AdapterParams,
    LengthAdaptorParams,
    ParamEntry,
    ParamInventory,
    TriStageConfig,
    adapter_backward,
    adapter_forward,
    adapter_param_count,
    average_checkpoints,
    build_reference_inventory,
    feature_mask,
    group_counts,
    label_smoothed_ce,
    length_adaptor_forward,
    length_adaptor_output_length,
    lna_trainable_mask,
    read_checkpoint,
    tri_stage_lr,
    write_checkpoint,
)

from oracles import central_difference


def random_adapter(rng, dim=4, hidden=3, scale=0.7):
    return AdapterParams(
        ln_gain=1.0 + scale * rng.standard_normal(dim) * 0.2,
        ln_bias=scale * rng.standard_normal(dim) * 0.2,
        w_up=scale * rng.standard_normal((hidden, dim)),
        b_up=scale * rng.standard_normal(hidden),
        w_down=scale * rng.standard_normal((dim, hidden)),
        b_down=scale * rng.standard_normal(dim),
    )


class TestAdapterForward:
    def test_hand_example(self):
        # d=2, h=1: LN((1,-1)) = (1,-1); relu(1*1 + 0*(-1)) = 1;
        # down (0.5, 0.5) -> y = (1.5, -0.5), up to the LN epsilon
        p = AdapterParams(
            ln_gain=np.ones(2),
            ln_bias=np.zeros(2),
            w_up=np.array([[1.0, 0.0]]),
            b_up=np.zeros(1),
            w_down=np.array([[0.5], [0.5]]),
            b_down=np.zeros(2),
        )
        y = adapter_forward(np.array([[1.0, -1.0]]), p)
        np.testing.assert_allclose(y, [[1.5, -0.5]], atol=1e-5)

    def test_zero_projections_give_exact_identity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((7, 16))
        p = AdapterParams.zeros(16, 64)
        np.testing.assert_array_equal(adapter_forward(x, p), x)

    def test_shape_preserved(self):
        rng = np.random.default_rng(1)
        p = random_adapter(rng, dim=8, hidden=5)
        x = rng.standard_normal((11, 8))
        assert adapter_forward(x, p).shape == (11, 8)

    def test_rejects_wrong_width(self):
        p = AdapterParams.zeros(8, 4)
        with pytest.raises(ValueError):
            adapter_forward(np.zeros((3, 9)), p)

    def test_param_shapes_validated(self):
        with pytest.raises(ValueError, match="w_up"):
            AdapterParams(
                ln_gain=np.ones(4),
                ln_bias=np.zeros(4),
                w_up=np.zeros((3, 5)),
                b_up=np.zeros(3),
                w_down=np.zeros((4, 3)),
                b_down=np.zeros(4),
            )


class TestAdapterParamCount:
    def test_reference_configuration(self):
        assert adapter_param_count(1024, 4096) == 8_395_776

    def test_closed_form_matches_materialized(self):
        for d, h in ((2, 1), (4, 16), (64, 8)):
            assert AdapterParams.zeros(d, h).n_params() == adapter_param_count(d, h)


def loss_through_adapter(x, p, weights):
    return float((adapter_forward(x, p) * weights).sum())


class TestAdapterBackward:
    def check_instance(self, seed, t=3, dim=4, hidden=3):
        rng = np.random.default_rng(seed)
        p = random_adapter(rng, dim, hidden)
        x = rng.standard_normal((t, dim))
        # finite differences need the function smooth at the 1e-4 step:
        # keep ReLU inputs off their kinks and rows away from the
        # constant vector where layer norm curvature explodes
        if np.min(x.std(axis=-1)) < 0.15:
            return
        hidden_pre = (
            (x - x.mean(-1, keepdims=True))
            / np.sqrt(np.var(x, axis=-1, keepdims=True) + 1e-5)
            * p.ln_gain
            + p.ln_bias
        ) @ p.w_up.T + p.b_up
        if np.min(np.abs(hidden_pre)) < 0.05:
            return  # rare degenerate draw; skip rather than test noise
        weights = rng.standard_normal((t, dim))

        grad_x, grad_p = adapter_backward(x, p, weights)

        fd_x = central_difference(lambda v: loss_through_adapter(v, p, weights), x)
        np.testing.assert_allclose(grad_x, fd_x, rtol=1e-5, atol=1e-7)

        for name in ("ln_gain", "ln_bias", "w_up", "b_up", "w_down", "b_down"):
            def loss_at(v, name=name):
                fields = {f: getattr(p, f) for f in (
                    "ln_gain", "ln_bias", "w_up", "b_up", "w_down", "b_down")}
                fields[name] = v
                return loss_through_adapter(x, AdapterParams(**fields), weights)

            fd = central_difference(loss_at, np.asarray(getattr(p, name), dtype=np.float64))
            np.testing.assert_allclose(
                getattr(grad_p, name), fd, rtol=1e-5, atol=1e-7, err_msg=name
            )

    def test_matches_finite_differences(self):
        for seed in range(25):
            self.check_instance(seed)

    def test_residual_path_present(self):
        # zero projections: gradient w.r.t. x is exactly the upstream one
        x = np.random.default_rng(3).standard_normal((4, 6))
        grad_out = np.ones((4, 6))
        grad_x, _ = adapter_backward(x, AdapterParams.zeros(6, 2), grad_out)
        np.testing.assert_array_equal(grad_x, grad_out)

    def test_shape_mismatch_rejected(self):
        p = AdapterParams.zeros(4, 2)
        with pytest.raises(ValueError):
            adapter_backward(np.zeros((3, 4)), p, np.zeros((2, 4)))


class TestLengthAdaptor:
    def test_output_length_arithmetic(self):
        assert length_adaptor_output_length(800) == 100
        assert length_adaptor_output_length(7) == 1
        assert length_adaptor_output_length(7, n_layers=1) == 4
        assert length_adaptor_output_length(7, n_layers=2) == 2

    def test_length_formula_is_triple_ceil_halving(self):
        for t in range(1, 10_001):
            want = math.ceil(math.ceil(math.ceil(t / 2) / 2) / 2)
            assert length_adaptor_output_length(t) == want, t

    def test_forward_length_matches_formula(self):
        p = LengthAdaptorParams.zeros(6)
        for t in (1, 2, 3, 7, 8, 9, 16, 37):
            out = length_adaptor_forward(np.ones((t, 6)), p)
            assert out.shape == (length_adaptor_output_length(t), 6), t

    def test_identity_kernels_subsample_by_8(self):
        rng = np.random.default_rng(5)
        x = np.abs(rng.standard_normal((32, 6)))  # nonnegative: ReLU-safe
        out = length_adaptor_forward(x, LengthAdaptorParams.identity(6))
        np.testing.assert_allclose(out, x[0::8], atol=1e-12)

    def test_no_relu_after_final_layer(self):
        p = LengthAdaptorParams(
            kernels=LengthAdaptorParams.identity(4).kernels,
            biases=(np.zeros(4), np.zeros(4), np.full(4, -5.0)),
        )
        out = length_adaptor_forward(np.ones((8, 4)) * 0.5, p)
        assert np.all(out < 0.0)

    def test_param_count(self):
        assert LengthAdaptorParams.zeros(1024).n_params() == 9_440_256

    def test_layer_count_enforced(self):
        with pytest.raises(ValueError):
            LengthAdaptorParams(kernels=(np.zeros((4, 4, 3)),), biases=(np.zeros(4),))


class TestFeatureMask:
    def test_masks_zero_rows(self):
        rng = np.random.default_rng(7)
        x = np.ones((50, 4))
        out = feature_mask(x, n_spans=3, max_span=0.2, rng=rng)
        zero_rows = np.where((out == 0).all(axis=1))[0]
        assert 1 <= len(zero_rows) <= 30
        untouched = np.setdiff1d(np.arange(50), zero_rows)
        np.testing.assert_array_equal(out[untouched], x[untouched])

    def test_input_not_mutated(self):
        x = np.ones((20, 3))
        feature_mask(x, 2, 0.5, np.random.default_rng(8))
        assert (x == 1).all()

    def test_deterministic_per_seed(self):
        x = np.ones((40, 2))
        a = feature_mask(x, 4, 0.3, np.random.default_rng(9))
        b = feature_mask(x, 4, 0.3, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)

    def test_zero_spans_or_tiny_input_noop(self):
        x = np.ones((10, 2))
        np.testing.assert_array_equal(feature_mask(x, 0, 0.5, np.random.default_rng(0)), x)
        np.testing.assert_array_equal(feature_mask(x, 3, 0.05, np.random.default_rng(0)), x)

    def test_validation(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError):
            feature_mask(np.ones((5, 2)), 1, 1.5, rng)
        with pytest.raises(ValueError):
            feature_mask(np.ones((5, 2)), -1, 0.5, rng)


class TestInventory:
    INV = build_reference_inventory()

    def test_total_in_announced_range(self):
        total = self.INV.total_params()
        assert total == 791_888_384
        assert 730_000_000 <= total <= 810_000_000

    def test_component_subtotals(self):
        groups = group_counts(self.INV)
        assert groups["adapter.layer_norm"][0] + groups["adapter.up_proj"][0] + groups[
            "adapter.down_proj"
        ][0] == 8_395_776
        assert groups["length_adaptor.layers"][0] == 9_440_256
        assert groups["decoder.embed_tokens"][0] == 256_000_000

    def test_trainable_fraction_near_one_fifth(self):
        masked = lna_trainable_mask(self.INV)
        assert masked.trainable_params() == 169_164_800
        assert 0.17 <= masked.trainable_fraction() <= 0.24

    def test_nothing_trainable_before_masking(self):
        assert self.INV.trainable_params() == 0

    def test_mask_flags_expected_groups(self):
        masked = lna_trainable_mask(self.INV)
        flags = {e.name: e.trainable for e in masked.entries}
        # attention asymmetry: encoder self, decoder cross only
        assert flags["encoder.layers.13.self_attn.v_proj.weight"]
        assert flags["decoder.layers.4.encoder_attn.q_proj.weight"]
        assert not flags["decoder.layers.4.self_attn.q_proj.weight"]
        # every layer norm, wherever it lives
        assert flags["encoder.layers.0.self_attn_layer_norm.weight"]
        assert flags["decoder.layers.11.final_layer_norm.bias"]
        assert flags["decoder.layernorm_embedding.weight"]
        assert flags["encoder.feature_extractor.conv3.layer_norm.bias"]
        # coupling modules train end to end
        assert flags["adapter.up_proj.weight"]
        assert flags["length_adaptor.layers.2.weight"]
        # the heavyweight frozen parts
        assert not flags["decoder.embed_tokens.weight"]
        assert not flags["encoder.layers.13.fc1.weight"]
        assert not flags["encoder.pos_conv.weight"]
        assert not flags["encoder.feature_extractor.conv0.weight"]

    def test_unknown_names_warned_and_frozen(self, caplog):
        inv = ParamInventory((ParamEntry("mystery.block.weight", (3, 3)),))
        with caplog.at_level(logging.WARNING):
            masked = lna_trainable_mask(inv)
        assert not masked.entries[0].trainable
        assert "unrecognized" in caplog.text

    def test_group_counts_cover_total(self):
        masked = lna_trainable_mask(self.INV)
        groups = group_counts(masked)
        assert sum(t for t, _ in groups.values()) == masked.total_params()
        assert sum(tr for _, tr in groups.values()) == masked.trainable_params()

    def test_duplicate_names_rejected(self):
        e = ParamEntry("a.weight", (2,))
        with pytest.raises(ValueError, match="duplicate"):
            ParamInventory((e, e))

    def test_entry_size(self):
        assert ParamEntry("x", (3, 4, 5)).size == 60


class TestCheckpoints:
    def tensors(self, seed, scale=1.0):
        rng = np.random.default_rng(seed)
        return {
            "layer.weight": scale * rng.standard_normal((4, 3)).astype(np.float32),
            "layer.bias": scale * rng.standard_normal(4).astype(np.float32),
        }

    def test_average_of_identical_is_identity(self):
        ckpt = self.tensors(0)
        avg = average_checkpoints([ckpt, ckpt, ckpt])
        for name in ckpt:
            np.testing.assert_allclose(avg[name], ckpt[name], atol=1e-7)

    def test_average_matches_numpy_mean(self):
        ckpts = [self.tensors(s) for s in range(5)]
        avg = average_checkpoints(ckpts)
        for name in ckpts[0]:
            want = np.mean([c[name] for c in ckpts], axis=0)
            np.testing.assert_allclose(avg[name], want, atol=1e-6)

    def test_mismatched_tensor_sets_rejected(self):
        a = self.tensors(0)
        b = dict(a)
        del b["layer.bias"]
        with pytest.raises(ValueError, match="different tensor set"):
            average_checkpoints([a, b])

    def test_mismatched_shapes_rejected(self):
        a = self.tensors(0)
        b = dict(a, **{"layer.bias": np.zeros(5, dtype=np.float32)})
        with pytest.raises(ValueError, match="inconsistent shapes"):
            average_checkpoints([a, b])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average_checkpoints([])

    def test_roundtrip(self, tmp_path):
        tensors = self.tensors(1)
        write_checkpoint(tmp_path / "ckpt.npz", tensors)
        back = read_checkpoint(tmp_path / "ckpt.npz")
        assert sorted(back) == sorted(tensors)
        for name in tensors:
            np.testing.assert_array_equal(back[name], tensors[name])

    def test_on_disk_layout_is_little_endian_sorted(self, tmp_path):
        # numpy's own .npz: one stored .npy member per tensor, little-endian float32, in sorted-name order
        tensors = {
            "b": np.array([1.0, 2.0], dtype=np.float64),
            "a": np.array([[3.0]], dtype=np.float32),
        }
        write_checkpoint(tmp_path / "c.npz", tensors)
        with zipfile.ZipFile(tmp_path / "c.npz") as archive:
            assert archive.namelist() == ["a.npy", "b.npy"]
            assert {(info.compress_type, info.date_time) for info in archive.infolist()} == {
                (zipfile.ZIP_STORED, (1980, 1, 1, 0, 0, 0))}  # not dated by the clock: same tensors, same bytes
            for member, values in (("a.npy", [[3.0]]), ("b.npy", [1.0, 2.0])):
                raw = archive.read(member)
                assert b"'descr': '<f4'" in raw
                assert raw.endswith(np.array(values, dtype="<f4").tobytes())
        with np.load(tmp_path / "c.npz", allow_pickle=False) as npz:
            np.testing.assert_array_equal(npz["b"], np.array([1.0, 2.0], dtype=np.float32))

    def test_same_tensors_give_same_bytes(self, tmp_path):
        tensors = self.tensors(7)
        write_checkpoint(tmp_path / "c1.npz", tensors)
        write_checkpoint(tmp_path / "c2.npz", dict(reversed(tensors.items())))
        assert (tmp_path / "c1.npz").read_bytes() == (tmp_path / "c2.npz").read_bytes()

    def test_names_np_savez_cannot_hold_round_trip(self, tmp_path):
        # np.savez refuses a tensor named "file" and drops one named "allow_pickle"
        names = ["file", "allow_pickle", "a/b", "x", "x.npy", "", "ünï code", "../up"]
        tensors = {name: np.full(i + 1, i, dtype=np.float32) for i, name in enumerate(names)}
        tensors["scalar"] = np.float32(2.5)
        write_checkpoint(tmp_path / "c.npz", tensors)
        back = read_checkpoint(tmp_path / "c.npz")
        assert sorted(back) == sorted(tensors)
        for name, want in tensors.items():
            assert back[name].dtype == np.float32 and back[name].shape == np.shape(want), name
            np.testing.assert_array_equal(back[name], want)

    @settings(max_examples=50, deadline=None)
    @given(
        names=st.lists(st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\0"), max_size=8),
                       max_size=4, unique=True),
        shape=st.lists(st.integers(0, 3), max_size=3),
    )
    def test_any_name_round_trips(self, tmp_path_factory, names, shape):
        path = tmp_path_factory.mktemp("names") / "c.npz"
        base = np.arange(math.prod(shape), dtype=np.float32).reshape(shape)
        tensors = {name: base + i for i, name in enumerate(names)}
        write_checkpoint(path, tensors)
        back = read_checkpoint(path)
        assert sorted(back) == sorted(tensors)
        for name in tensors:
            assert back[name].shape == tuple(shape)
            np.testing.assert_array_equal(back[name], tensors[name])

    def test_nul_in_name_refused(self, tmp_path):
        # zipfile would cut the member's name at the NUL and write a file that no longer holds the tensor
        with pytest.raises(ValueError, match="holds a NUL"):
            write_checkpoint(tmp_path / "c.npz", {"a\0b": np.zeros(1)})
        assert list(tmp_path.iterdir()) == []

    def test_failed_rewrite_keeps_previous_checkpoint(self, tmp_path):
        good = self.tensors(4)
        write_checkpoint(tmp_path / "c.npz", good)
        bad = dict(good, **{"a.unconvertible": np.array(["x"])})  # sorts first: fails before any bytes
        with pytest.raises(ValueError):
            write_checkpoint(tmp_path / "c.npz", bad)
        assert [p.name for p in tmp_path.iterdir()] == ["c.npz"]  # no temporary file left
        back = read_checkpoint(tmp_path / "c.npz")
        for name in good:
            np.testing.assert_array_equal(back[name], good[name])

    @pytest.mark.parametrize("tensor, reason", [
        (np.array([1 + 2j, 3 + 4j]), "has dtype complex128, not bool, integer or float"),  # kept the real part
        (np.array([1.0, 1e40]), "holds a finite value past float32's range"),  # stored as inf
        ("1.5", "has dtype <U3, not bool, integer or float"),  # parsed to 1.5
    ], ids=["complex", "overflow", "string"])
    def test_lossy_cast_refused_before_the_file_opens(self, tmp_path, monkeypatch, tensor, reason):
        good = self.tensors(6)
        write_checkpoint(tmp_path / "c.npz", good)
        opened = self.interrupt(monkeypatch, coupling, "atomic_write")
        with pytest.raises(ValueError, match=f"^tensor 'z.lossy' {re.escape(reason)}$"):
            write_checkpoint(tmp_path / "c.npz", dict(good, **{"z.lossy": tensor}))  # sorts last: after the others
        assert not opened
        assert [p.name for p in tmp_path.iterdir()] == ["c.npz"]
        back = read_checkpoint(tmp_path / "c.npz")
        assert sorted(back) == sorted(good)
        for name in good:
            np.testing.assert_array_equal(back[name], good[name])

    def test_values_float32_holds_are_kept(self, tmp_path):
        tensors = {"bool": np.array([True, False]), "int": np.arange(-2, 2, dtype=np.int64), "half": np.float16(1.5),
                   "edge": np.array([-np.finfo(np.float32).max, np.inf, -np.inf, np.nan, 1e-50], dtype=np.float64)}
        write_checkpoint(tmp_path / "c.npz", tensors)
        back = read_checkpoint(tmp_path / "c.npz")
        for name, want in tensors.items():
            np.testing.assert_array_equal(back[name], np.asarray(want, np.float32))

    @staticmethod
    def interrupt(monkeypatch, owner, attr, at=None):
        """Count the calls of owner.attr; with ``at``, raise KeyboardInterrupt in place of the at-th call."""
        real, calls = getattr(owner, attr), []

        def wrapper(*args, **kwargs):
            calls.append(args)
            if len(calls) == at:
                raise KeyboardInterrupt
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)
        return calls

    def test_torn_rewrite_reads_the_old_checkpoint(self, tmp_path, monkeypatch):
        # a rewrite cut at its last rename leaves the old tensors whole: never the old names over the new bytes
        old = {"enc.w": np.full(4, 5, dtype=np.float32), "enc.b": np.full(2, 5, dtype=np.float32)}
        new = {"dec.w": np.full((2, 3), 7, dtype=np.float32)}
        with monkeypatch.context() as patch:
            renames = self.interrupt(patch, os, "replace")
            write_checkpoint(tmp_path / "dry", new)
        write_checkpoint(tmp_path / "c", old)
        with monkeypatch.context() as patch:
            self.interrupt(patch, os, "replace", at=len(renames))
            with pytest.raises(KeyboardInterrupt):
                write_checkpoint(tmp_path / "c", new)
        back = read_checkpoint(tmp_path / "c")
        assert sorted(back) == sorted(old)
        for name in old:
            np.testing.assert_array_equal(back[name], old[name])

    @pytest.mark.parametrize("owner, attr", [(os, "replace"), (np.lib.format, "write_array")], ids=["rename", "member"])
    def test_interrupted_rewrite_keeps_previous_checkpoint(self, tmp_path, monkeypatch, owner, attr):
        # a rewrite cut at any rename, or at the write of any member, leaves the old checkpoint whole
        old, new = self.tensors(8), {"a": np.ones(3, np.float32), "layer.bias": np.zeros(4, np.float32)}
        with monkeypatch.context() as patch:
            calls = self.interrupt(patch, owner, attr)
            write_checkpoint(tmp_path / "dry.npz", new)
        (tmp_path / "dry.npz").unlink()
        assert calls
        write_checkpoint(tmp_path / "c.npz", old)
        for at in range(1, len(calls) + 1):
            with monkeypatch.context() as patch:
                self.interrupt(patch, owner, attr, at=at)
                with pytest.raises(KeyboardInterrupt):
                    write_checkpoint(tmp_path / "c.npz", new)
            assert [p.name for p in tmp_path.iterdir()] == ["c.npz"], at
            back = read_checkpoint(tmp_path / "c.npz")
            assert sorted(back) == sorted(old), at
            for name in old:
                np.testing.assert_array_equal(back[name], old[name])

    @pytest.mark.parametrize("case", ["empty", "cut-header", "cut-half", "cut-last-byte", "not-zip", "bare-npy",
                                      "float64-member", "object-member", "raw-member"])
    def test_unreadable_file_names_the_path(self, tmp_path, case):
        path = tmp_path / "c.npz"
        write_checkpoint(path, self.tensors(5))
        whole = path.read_bytes()
        cuts = {"empty": 0, "cut-header": 10, "cut-half": len(whole) // 2, "cut-last-byte": len(whole) - 1}
        if case in cuts:
            path.write_bytes(whole[: cuts[case]])
        elif case == "not-zip":
            path.write_text("layer.weight 1 2 3\n", encoding="utf-8")
        elif case == "bare-npy":
            with open(path, "wb") as fh:
                np.save(fh, np.ones(3, dtype=np.float32))
        elif case == "raw-member":
            with zipfile.ZipFile(path, "w") as archive:
                archive.writestr("layer.bias.npy", np.ones(4, dtype="<f4").tobytes())
        else:
            bad = np.ones(2) if case == "float64-member" else np.array([Unpickled(), 1], dtype=object)
            with open(path, "wb") as fh:
                np.savez(fh, layer=np.ones(2, dtype=np.float32), other=bad, allow_pickle=True)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: ") as refused:
            read_checkpoint(path)
        if case == "float64-member":
            assert "member 'other.npy' is not a little-endian float32 array" in str(refused.value)
        assert not Unpickled.loaded

    def test_average_survives_interchange(self, tmp_path):
        ckpts = [self.tensors(s) for s in (2, 3)]
        for i, c in enumerate(ckpts):
            write_checkpoint(tmp_path / f"c{i}.npz", c)
        loaded = [read_checkpoint(tmp_path / f"c{i}.npz") for i in range(2)]
        avg = average_checkpoints(loaded)
        for name in ckpts[0]:
            want = (ckpts[0][name].astype(np.float64) + ckpts[1][name]) / 2
            np.testing.assert_allclose(avg[name], want, atol=1e-7)


class Unpickled:
    """An object whose unpickling would be seen: a reader that loads it sets ``loaded``."""

    loaded = False

    def __reduce__(self):
        return _mark_unpickled, ()


def _mark_unpickled():
    Unpickled.loaded = True
    return Unpickled()


class TestTriStage:
    CFG = TriStageConfig(total_steps=100_000)

    def test_endpoint_values(self):
        assert abs(tri_stage_lr(0, self.CFG) - 1e-6) < 1e-12
        assert abs(tri_stage_lr(15_000, self.CFG) - 1e-4) < 1e-12
        assert abs(tri_stage_lr(30_000, self.CFG) - 1e-4) < 1e-12
        assert abs(tri_stage_lr(100_000, self.CFG) - 1e-6) < 1e-12

    def test_warmup_linear_and_increasing(self):
        lrs = [tri_stage_lr(s, self.CFG) for s in range(0, 15_000, 500)]
        assert all(a < b for a, b in zip(lrs, lrs[1:]))
        # linear: second differences vanish
        diffs = np.diff(lrs)
        np.testing.assert_allclose(diffs, diffs[0], rtol=1e-9)

    def test_hold_is_flat(self):
        for step in (15_000, 20_000, 25_000, 30_000):
            assert tri_stage_lr(step, self.CFG) == 1e-4

    def test_decay_exponential_and_decreasing(self):
        lrs = [tri_stage_lr(s, self.CFG) for s in range(30_001, 100_001, 1000)]
        assert all(a > b for a, b in zip(lrs, lrs[1:]))
        ratios = [b / a for a, b in zip(lrs, lrs[1:])]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-9)

    def test_step_bounds(self):
        with pytest.raises(ValueError):
            tri_stage_lr(-1, self.CFG)
        with pytest.raises(ValueError):
            tri_stage_lr(100_001, self.CFG)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TriStageConfig(total_steps=0)
        with pytest.raises(ValueError):
            TriStageConfig(total_steps=10, ratios=(0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            TriStageConfig(total_steps=10, init_scale=0.0)


class TestLabelSmoothedCE:
    def test_uniform_distribution_gives_log_vocab(self):
        lp = np.log(np.full(4, 0.25))
        for eps in (0.0, 0.1, 0.5):
            assert abs(label_smoothed_ce(lp, 2, eps) - math.log(4)) < 1e-12

    def test_eps_zero_is_plain_nll(self):
        lp = np.log(np.array([0.7, 0.2, 0.1]))
        assert abs(label_smoothed_ce(lp, 0, eps=0.0) + math.log(0.7)) < 1e-12

    def test_smoothing_penalizes_confident_wrong_mass(self):
        confident = np.log(np.array([0.98, 0.01, 0.01]))
        spread = np.log(np.array([0.90, 0.05, 0.05]))
        # on the correct class, smoothing makes the overconfident
        # distribution pay more through the sum term
        assert label_smoothed_ce(confident, 0, 0.2) > -math.log(0.98) * (1 - 0.2) - 1e-12

        assert label_smoothed_ce(spread, 0, 0.0) == pytest.approx(-math.log(0.90))

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="normalize"):
            label_smoothed_ce(np.log(np.array([0.5, 0.4])), 0)

    def test_bad_target_and_eps(self):
        lp = np.log(np.full(4, 0.25))
        with pytest.raises(ValueError):
            label_smoothed_ce(lp, 4)
        with pytest.raises(ValueError):
            label_smoothed_ce(lp, 0, eps=1.0)
