import math

import numpy as np
import pytest

from chanbound.channels import (
    ErasureSpec,
    StinespringChannel,
    apply,
    channel_from_dict,
    channel_to_dict,
    common_stinespring,
    complementary,
    complex_gaussian,
    erasure_channel,
    identity_channel,
    load_channel,
    random_channel,
    random_isometry,
    save_channel,
    tensor_power_apply,
)
from chanbound.entropic import mutual_information, von_neumann_entropy
from chanbound.qstate import (
    DensityMatrix,
    QStateError,
    SystemLayout,
    operator_norm,
    partial_trace,
    tensor_product,
)


class TestApply:
    def test_identity(self, gen):
        lay = SystemLayout([("A", 3)])
        rho = gen.density(lay)
        out = apply(identity_channel(3), rho)
        assert np.allclose(out.entries, rho.entries, atol=1e-12)
        assert out.layout.labels == ("B",)

    def test_erasure_block_form(self, gen):
        lay = SystemLayout([("A", 3)])
        rho = gen.density(lay)
        p = 0.3
        out = apply(erasure_channel(ErasureSpec(3, p)), rho)
        expect = np.zeros((4, 4), dtype=complex)
        expect[:3, :3] = (1 - p) * rho.entries
        expect[3, 3] = p
        assert np.max(np.abs(out.entries - expect)) < 1e-12

    def test_psd_and_trace_preserved_on_random_channels(self, gen):
        lay = SystemLayout([("A", 3)])
        for k in range(500):
            ch = random_channel(3, 2, 3, seed=1000 + k)
            out = apply(ch, gen.density(lay))
            assert abs(np.trace(out.entries).real - 1.0) < 1e-9
            assert np.linalg.eigvalsh(out.entries).min() > -1e-9

    def test_passthrough_factors(self, gen):
        lay = SystemLayout([("A", 2), ("D", 2)])
        rho = gen.density(lay)
        out = apply(erasure_channel(ErasureSpec(2, 0.5)), rho)
        assert out.layout.labels == ("B", "D")
        # channel acts as Phi (x) Id: the D marginal is untouched
        assert np.allclose(
            partial_trace(out, ("D",)).entries,
            partial_trace(rho, ("D",)).entries,
            atol=1e-10,
        )

    def test_dimension_mismatch_rejected(self, gen):
        lay = SystemLayout([("A", 3)])
        with pytest.raises(QStateError):
            apply(identity_channel(2), gen.density(lay))
        with pytest.raises(QStateError):
            apply(random_channel(2, 2, 2, seed=5), gen.density(SystemLayout([("C", 2), ("A", 3)])))

    @pytest.mark.parametrize("label", ["B", "E"])
    def test_label_collision_rejected(self, gen, label):
        lay = SystemLayout([("C", 2), ("A", 2), (label, 2)])
        with pytest.raises(QStateError, match="collides"):
            apply(random_channel(2, 2, 2, seed=5), gen.density(lay))

    @pytest.mark.parametrize(
        "factors, channel",
        [
            ([("A", 3), ("C", 2), ("D", 2)], random_channel(3, 2, 2, seed=21)),
            ([("C", 2), ("A", 3), ("D", 2)], random_channel(3, 2, 2, seed=22)),
            ([("C", 2), ("D", 2), ("A", 3)], random_channel(3, 2, 2, seed=23)),
            ([("C", 2), ("A", 3), ("D", 2)], identity_channel(3)),
            ([("C", 2), ("A", 2), ("D", 3)], random_channel(2, 3, 5, seed=24)),
        ],
        ids=["input-first", "input-middle", "input-last", "env-trivial", "env-above-input"],
    )
    def test_matches_kraus_sum(self, gen, factors, channel):
        lay = SystemLayout(factors)
        rho = gen.density(lay)
        pos = lay.position("A")
        pre, post = math.prod(lay.dims[:pos]), math.prod(lay.dims[pos + 1 :])
        expect = 0
        for k in channel.kraus_operators():
            full = np.kron(np.kron(np.eye(pre), k), np.eye(post))
            expect = expect + full @ rho.entries @ full.conj().T
        out = apply(channel, rho)
        assert out.layout.labels == tuple("B" if lbl == "A" else lbl for lbl, _ in factors)
        assert out.layout.dim("B") == channel.d_b
        assert np.max(np.abs(out.entries - expect)) <= 1e-12


@pytest.mark.two_blas_threads
class TestPureApply:
    """A PureState input stays a vector through `apply`: the same state as its projector's path."""

    @pytest.mark.parametrize(
        "factors, channel",
        [
            ([("A", 3), ("C", 2), ("D", 2)], random_channel(3, 2, 2, seed=21)),
            ([("C", 2), ("A", 3), ("D", 2)], random_channel(3, 2, 2, seed=22)),
            ([("C", 2), ("D", 2), ("A", 3)], random_channel(3, 2, 2, seed=23)),
            ([("A", 3)], random_channel(3, 4, 2, seed=25)),
            ([("C", 2), ("A", 3), ("D", 2)], identity_channel(3)),
            ([("C", 2), ("A", 2), ("D", 3)], random_channel(2, 3, 5, seed=24)),
            ([("C", 2), ("A", 40), ("D", 2)], random_channel(40, 8, 5, seed=26)),
        ],
        ids=["input-first", "input-middle", "input-last", "input-alone", "env-trivial", "env-above-input",
             "oscillator-sized"],
    )
    def test_matches_density_path(self, gen, factors, channel):
        lay = SystemLayout(factors)
        for _ in range(4):
            psi = gen.pure(lay)
            out, want = apply(channel, psi), apply(channel, psi.to_density())
            assert isinstance(out, DensityMatrix)
            assert out.layout == want.layout
            assert np.linalg.norm(out.entries - want.entries) <= 1e-14
            assert np.array_equal(out.entries, out.entries.conj().T)

    def test_tensor_power_takes_a_pure_input(self, gen):
        lay = SystemLayout([("A1", 2), ("C", 2), ("A2", 2)])
        psi, ch = gen.pure(lay), random_channel(2, 2, 3, seed=27)
        out = tensor_power_apply(ch, 2, psi, ["A1", "A2"])
        want = tensor_power_apply(ch, 2, psi.to_density(), ["A1", "A2"])
        assert out.layout == want.layout
        assert np.linalg.norm(out.entries - want.entries) <= 1e-14

    def test_pure_input_checks_dimension_and_labels(self, gen):
        psi = gen.pure(SystemLayout([("A", 2), ("B", 2)]))
        with pytest.raises(QStateError):
            apply(random_channel(3, 2, 2, seed=1), psi)
        with pytest.raises(QStateError):
            apply(random_channel(2, 2, 2, seed=1), psi)  # output label B collides


def _as_density(state):
    return state if isinstance(state, DensityMatrix) else state.to_density()


@pytest.mark.two_blas_threads
class TestApplyPlanCache:
    """`apply`'s plan is cached by layout and channel labels and dimensions; its checks run on every call."""

    def test_layouts_and_labels_get_their_own_plans(self, gen):
        ch = random_channel(2, 3, 2, seed=31)
        cases = [
            ([("A", 2), ("C", 2)], ch, [("B", 3), ("C", 2)]),
            ([("A", 2), ("D", 2)], ch, [("B", 3), ("D", 2)]),
            ([("C", 2), ("A", 2)], ch, [("C", 2), ("B", 3)]),
            ([("A", 2), ("C", 2)], ch.relabeled("A", "Q", "E"), [("Q", 3), ("C", 2)]),
            ([("X", 2), ("C", 2)], ch.relabeled("X", "B", "E"), [("B", 3), ("C", 2)]),
        ]
        for _ in range(2):
            for factors, channel, out_factors in cases:
                lay = SystemLayout(factors)
                for state in (gen.density(lay), gen.pure(lay)):
                    out = apply(channel, state)
                    assert out.layout == SystemLayout(out_factors)
                    assert np.linalg.norm(out.entries - apply(channel, _as_density(state)).entries) <= 1e-14

    def test_errors_raise_on_every_call(self, gen):
        ch = random_channel(2, 2, 2, seed=5)
        cases = [
            (SystemLayout([("A", 3), ("C", 2)]), "channel expects 2"),
            (SystemLayout([("C", 2), ("A", 2), ("B", 2)]), "label 'B' collides"),
            (SystemLayout([("A", 2), ("E", 2)]), "label 'E' collides"),
            (SystemLayout([("C", 2)]), "unknown label 'A'"),
        ]
        for lay, message in cases:
            for state in (gen.density(lay), gen.pure(lay)) * 2:
                with pytest.raises(QStateError, match=message):
                    apply(ch, state)
        # the same layouts are accepted by a channel whose dimension and labels fit
        fits = random_channel(3, 2, 2, seed=6)
        assert apply(fits, gen.density(cases[0][0])).layout == SystemLayout([("B", 2), ("C", 2)])


class TestComplementary:
    def test_double_complement(self, gen):
        ch = random_channel(2, 3, 2, seed=3)
        lay = SystemLayout([("A", 2)])
        rho = gen.density(lay)
        once = complementary(ch)
        twice = complementary(once)
        assert np.allclose(apply(twice, rho).entries, apply(ch, rho).entries, atol=1e-9)

    def test_erasure_complement_swaps_probability(self, gen):
        lay = SystemLayout([("A", 2)])
        rho = gen.density(lay)
        comp_out = apply(complementary(erasure_channel(ErasureSpec(2, 0.3))), rho)
        direct = apply(erasure_channel(ErasureSpec(2, 0.7)), rho)
        assert np.allclose(comp_out.entries, direct.entries, atol=1e-12)

    def test_pure_input_entropy_symmetry(self, gen):
        # Schmidt symmetry of V|phi>: both partial traces share a spectrum
        lay = SystemLayout([("A", 3)])
        for k in range(10):
            ch = random_channel(3, 2, 3, seed=50 + k)
            rho = gen.pure(lay).to_density()
            h_b = von_neumann_entropy(apply(ch, rho))
            h_e = von_neumann_entropy(apply(complementary(ch), rho))
            assert abs(h_b - h_e) < 1e-9


class TestErasureFamily:
    def test_p_zero_embeds(self, gen):
        lay = SystemLayout([("A", 2)])
        rho = gen.density(lay)
        out = apply(erasure_channel(ErasureSpec(2, 0.0)), rho)
        assert np.allclose(out.entries[:2, :2], rho.entries, atol=1e-12)
        assert abs(out.entries[2, 2]) < 1e-12

    def test_p_one_is_constant(self, gen):
        lay = SystemLayout([("A", 2)])
        out = apply(erasure_channel(ErasureSpec(2, 1.0)), gen.density(lay))
        assert np.allclose(out.entries, np.diag([0, 0, 1.0]), atol=1e-12)

    @pytest.mark.parametrize("x", [0.01, 0.05, 0.1])
    @pytest.mark.parametrize("d", [2, 3])
    def test_isometry_gap_closed_form(self, d, x):
        va = erasure_channel(ErasureSpec(d, 0.5 - x)).isometry
        vb = erasure_channel(ErasureSpec(d, 0.5)).isometry
        target = math.sqrt(2 - math.sqrt(1 - 2 * x) - math.sqrt(1 + 2 * x))
        assert abs(operator_norm(va - vb) - target) <= 1e-10

    def test_bad_spec_rejected(self):
        with pytest.raises(QStateError):
            ErasureSpec(1, 0.5)
        with pytest.raises(QStateError):
            ErasureSpec(2, 1.5)


class TestRandomChannel:
    def test_isometry_property(self):
        ch = random_channel(3, 2, 3, seed=0)
        v = ch.isometry
        assert np.max(np.abs(v.conj().T @ v - np.eye(3))) < 1e-10

    def test_seed_determinism(self):
        a = random_channel(3, 2, 2, seed=42)
        b = random_channel(3, 2, 2, seed=42)
        assert np.array_equal(a.isometry, b.isometry)

    def test_impossible_dims_rejected(self):
        with pytest.raises(QStateError):
            random_channel(5, 2, 2, seed=0)

    def test_output_trace(self, gen):
        from chanbound.qstate import maximally_mixed

        ch = random_channel(4, 2, 3, seed=7)
        out = apply(ch, maximally_mixed(SystemLayout([("A", 4)])))
        assert abs(np.trace(out.entries).real - 1.0) < 1e-10


class TestComplexGaussian:
    @pytest.mark.parametrize("shape", [(), 5, (5,), (3, 4), (2, 3, 4), (0, 3)])
    def test_matches_sum_of_draws(self, shape):
        # real parts drawn first, then imaginary parts: the bits of a + 1j * b
        got = complex_gaussian(np.random.default_rng(17), shape)
        rng = np.random.default_rng(17)
        ref = np.asarray(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        assert got.dtype == np.complex128 and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()

    def test_isometry_draws_unchanged(self):
        rng = np.random.default_rng(18)
        got = random_isometry(6, 3, rng)
        rng = np.random.default_rng(18)
        q, r = np.linalg.qr(rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3)))
        phases = np.diagonal(r) / np.abs(np.diagonal(r))
        assert got.tobytes() == (q * phases.conj()).tobytes()


class TestTensorPower:
    def test_n1_equals_apply(self, gen):
        lay = SystemLayout([("A1", 2), ("C", 2)])
        ch = random_channel(2, 2, 2, seed=4)
        rho = gen.density(lay)
        via_power = tensor_power_apply(ch, 1, rho, ["A1"])
        via_apply = apply(ch.relabeled("A1", "B1", "E1"), rho)
        assert np.allclose(via_power.entries, via_apply.entries, atol=1e-12)

    def test_product_input_factorizes(self, gen):
        ch = random_channel(2, 2, 2, seed=6)
        r1 = gen.density(SystemLayout([("A1", 2)]))
        r2 = gen.density(SystemLayout([("A2", 2)]))
        joint = tensor_product(r1, r2)
        out = tensor_power_apply(ch, 2, joint, ["A1", "A2"])
        o1 = apply(ch.relabeled("A1", "B1", "E1"), r1)
        o2 = apply(ch.relabeled("A2", "B2", "E2"), r2)
        assert np.allclose(out.entries, tensor_product(o1, o2).entries, atol=1e-11)

    def test_mi_additivity_on_product_inputs(self, gen):
        # I(B^2:D) on rho (x) rho equals 2 I(B:D) on rho
        lay = SystemLayout([("A1", 2), ("D", 2)])
        ch = random_channel(2, 2, 2, seed=8)
        rho = gen.density(lay)
        out1 = tensor_power_apply(ch, 1, rho, ["A1"])
        mi1 = mutual_information(out1, ("B1",), ("D",))
        # rho (x) rho with relabeled factors on the second copy
        second = DensityMatrix(
            SystemLayout([("A2", 2), ("D2", 2)]), rho.entries.copy()
        )
        joint = tensor_product(rho, second)
        out2 = tensor_power_apply(ch, 2, joint, ["A1", "A2"])
        mi2 = mutual_information(
            partial_trace(out2, ("B1", "B2", "D", "D2")), ("B1", "B2"), ("D", "D2")
        )
        assert abs(mi2 - 2 * mi1) < 1e-9

    def test_size_guard(self, gen, monkeypatch):
        # the last output, C (x) B1..B4, has dimension 2 * 8^4 = 8192 > 4096
        import chanbound.channels as channels_mod

        def no_apply(*args):
            raise AssertionError("apply ran before the guard")

        ch = random_channel(2, 8, 1, seed=1)
        lay = SystemLayout([(f"A{k}", 2) for k in (1, 2, 3, 4)] + [("C", 2)])
        rho = gen.density(lay)
        monkeypatch.setattr(channels_mod, "apply", no_apply)
        with pytest.raises(QStateError, match="8192"):
            tensor_power_apply(ch, 4, rho, ["A1", "A2", "A3", "A4"])

    def test_sequential_peak_accepted(self, gen):
        # every state the sequential calls build has dimension 64; a guard on
        # the B (x) E intermediates would read 4 * 8^4 = 16384
        ch = random_channel(2, 2, 4, seed=9)
        labels = ["A1", "A2", "A3", "A4"]
        rho = gen.density(SystemLayout([(lbl, 2) for lbl in labels] + [("C", 2), ("D", 2)]))
        out = tensor_power_apply(ch, 4, rho, labels)
        expect = rho
        for k, lbl in enumerate(labels, start=1):
            expect = apply(ch.relabeled(lbl, f"B{k}", f"E{k}"), expect)
        assert out.layout == expect.layout
        assert out.layout.labels == ("B1", "B2", "B3", "B4", "C", "D")
        assert np.max(np.abs(out.entries - expect.entries)) <= 1e-12


class TestCommonStinespring:
    def test_same_channel_aligns_to_zero(self):
        ch = random_channel(2, 2, 2, seed=11)
        other = StinespringChannel(ch.isometry, 2, 2, 2)
        a, b = common_stinespring(ch, other)
        assert operator_norm(a.isometry - b.isometry) < 1e-9

    def test_both_reproduce_originals(self, gen):
        lay = SystemLayout([("A", 2)])
        phi = random_channel(2, 2, 2, seed=12)
        psi = random_channel(2, 2, 3, seed=13)
        a, b = common_stinespring(phi, psi)
        # output dims must not change even though environments were merged
        for orig, embedded in ((phi, a), (psi, b)):
            for _ in range(5):
                rho = gen.density(lay)
                assert np.allclose(
                    apply(orig, rho).entries, apply(embedded, rho).entries, atol=1e-10
                )

    def test_gap_upper_bounds_bures(self):
        from chanbound.metrics import channel_bures_bracket

        phi = random_channel(2, 2, 2, seed=14)
        psi = random_channel(2, 2, 2, seed=15)
        a, b = common_stinespring(phi, psi)
        gap = operator_norm(a.isometry - b.isometry)
        br = channel_bures_bracket(phi, psi, seed=0)
        assert br.lower <= gap + 1e-9


class TestSerialization:
    def test_round_trip_exact(self, tmp_path):
        ch = random_channel(3, 2, 3, seed=17, input_label="in", output_label="out", env_label="env")
        path = tmp_path / "channel.json"
        save_channel(ch, path)
        back = load_channel(path)
        assert np.array_equal(back.isometry, ch.isometry)
        assert back.dims == ch.dims
        assert back.input_label == "in" and back.env_label == "env"

    def test_dict_shape(self):
        ch = identity_channel(2)
        doc = channel_to_dict(ch)
        assert doc["d_a"] == 2 and doc["d_e"] == 1
        assert len(doc["isometry"]) == 2 * 2 * 1 * 2
        rebuilt = channel_from_dict(doc)
        assert np.array_equal(rebuilt.isometry, ch.isometry)


class TestKrausSlices:
    def test_completeness_and_equivalence(self, gen):
        ch = random_channel(3, 2, 3, seed=91)
        ks = ch.kraus_operators()
        acc = sum(k.conj().T @ k for k in ks)
        assert np.allclose(acc, np.eye(3), atol=1e-10)
        lay = SystemLayout([("A", 3)])
        rho = gen.density(lay)
        via_kraus = sum(k @ rho.entries @ k.conj().T for k in ks)
        assert np.allclose(via_kraus, apply(ch, rho).entries, atol=1e-11)
