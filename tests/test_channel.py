import dataclasses

import numpy as np
import pytest

import tdchan as td
from tdchan.errors import (
    BadDimension,
    DimensionMismatch,
    NotPSD,
    OutOfRange,
)
from tdchan.sampling import haar_states

from oracles import (
    apply_defining_formula,
    haar_unitary,
    kraus_two_copy_output,
    random_density,
    schmidt_state,
)


def test_t_range_values():
    assert td.t_range(2) == (-1.0, pytest.approx(1.0 / 3.0))
    assert td.t_range(3) == (-0.5, 0.25)
    lo, hi = td.t_range(7)
    assert lo == pytest.approx(-1.0 / 6.0)
    assert hi == pytest.approx(1.0 / 8.0)


def test_t_range_rejects_bad_dimension():
    for d in (1, 0, -3):
        with pytest.raises(BadDimension):
            td.t_range(d)


def test_new_channel_constants():
    ch = td.new_channel(3, -0.5)
    assert ch.c1 == pytest.approx(0.25)
    assert ch.c2 == pytest.approx(-0.5)
    assert ch.ratio == pytest.approx(-2.0)

    ch = td.new_channel(2, -1.0)
    assert ch.c1 == pytest.approx(1.0)
    assert ch.c2 == pytest.approx(-2.0)
    assert ch.ratio == pytest.approx(-2.0)

    # ratio is 0 at t = 0 and stays in [-2, 0] on the negative side
    assert td.new_channel(4, 0.0).ratio == 0.0
    for d in (2, 3, 4, 5):
        for t in np.linspace(-1.0 / (d - 1), 0.0, 7):
            r = td.new_channel(d, float(t)).ratio
            assert -2.0 - 1e-12 <= r <= 1e-12


def test_new_channel_guards():
    with pytest.raises(BadDimension):
        td.new_channel(1, 0.0)
    with pytest.raises(OutOfRange):
        td.new_channel(3, -0.5000001)
    with pytest.raises(OutOfRange):
        td.new_channel(3, 0.2500001)
    # endpoints are allowed
    td.new_channel(3, -0.5)
    td.new_channel(3, 0.25)


def test_density_matrix_validation():
    with pytest.raises(BadDimension):
        td.DensityMatrix(np.eye(3)[:2])  # not square
    with pytest.raises(BadDimension):
        td.DensityMatrix(np.array([[1.0]]))  # dim < 2
    m = np.array([[0.5, 0.1], [0.2, 0.5]])
    with pytest.raises(NotPSD):
        td.DensityMatrix(m)  # not Hermitian
    with pytest.raises(NotPSD):
        td.DensityMatrix(np.diag([0.7, 0.7]))  # trace != 1
    with pytest.raises(NotPSD):
        td.DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue
    rho = td.DensityMatrix(np.eye(4) / 4.0)
    assert rho.dim == 4


def test_density_matrix_keeps_the_eigenvalues_of_its_psd_check():
    # The same eigvalsh call on the same matrix, so the same bits; read-only,
    # and neither == nor repr looks at them.  mat is a read-only copy, so
    # neither a write to the caller's matrix nor one to mat can leave the
    # eigenvalues stale.
    rng = np.random.default_rng(11)
    for dim in (2, 3, 9):
        given = random_density(dim, rng)
        rho = td.DensityMatrix(given)
        assert rho.eigenvalues.tobytes() == np.linalg.eigvalsh(rho.mat).tobytes()
        assert not rho.eigenvalues.flags.writeable
        with pytest.raises(ValueError):
            rho.eigenvalues[0] = 0.5
        with pytest.raises(ValueError):
            rho.mat[0, 0] = 0.5
        given[:] = np.eye(dim) / dim
        assert rho.eigenvalues.tobytes() == np.linalg.eigvalsh(rho.mat).tobytes()
        assert "eigenvalues" not in repr(rho)
    kept = {field.name: field for field in dataclasses.fields(td.DensityMatrix)}["eigenvalues"]
    assert not (kept.init or kept.repr or kept.compare)


def test_density_matrices_compare_by_their_matrices():
    # == and in compare the matrices entry for entry, and never raise.
    half = td.DensityMatrix(np.eye(2) / 2)
    assert half == td.DensityMatrix(np.eye(2) / 2)
    assert half != td.DensityMatrix(np.diag([0.75, 0.25]))
    assert half != td.DensityMatrix(np.eye(3) / 3)
    assert half != "half"
    assert td.DensityMatrix(np.eye(2) / 2) in [td.DensityMatrix(np.eye(3) / 3), half]
    assert td.DensityMatrix(np.diag([0.75, 0.25])) not in [half]
    with pytest.raises(TypeError):
        hash(half)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_density_matrix_rejects_non_finite(bad):
    m = np.eye(2, dtype=complex) / 2.0
    m[0, 1] = m[1, 0] = bad
    with pytest.raises(OutOfRange):
        td.DensityMatrix(m)
    m = np.eye(2, dtype=complex) / 2.0
    m[0, 0] = bad
    with pytest.raises(OutOfRange):
        td.DensityMatrix(m)


def test_pure_state():
    rho = td.pure_state(np.array([1.0, 1.0j]) / np.sqrt(2.0))
    assert rho.dim == 2
    assert rho.mat[0, 1] == pytest.approx(-0.5j)
    with pytest.raises(OutOfRange):
        td.pure_state(np.zeros(3))


def test_apply_frozen_example():
    ch = td.new_channel(3, -0.5)
    rho = td.pure_state(np.eye(3)[1])
    out = td.apply(ch, rho)
    eig = np.sort(np.linalg.eigvalsh(out.mat))
    assert eig == pytest.approx([0.0, 0.5, 0.5], abs=1e-12)


def test_apply_matches_defining_formula():
    rng = np.random.default_rng(11)
    for d in (2, 3, 4, 5):
        lo, hi = td.t_range(d)
        for _ in range(20):
            t = float(rng.uniform(lo, hi))
            ch = td.new_channel(d, t)
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            m = g @ g.conj().T
            rho = td.DensityMatrix(m / np.trace(m).real)
            out = td.apply(ch, rho)
            ref = apply_defining_formula(ch, rho.mat)
            assert np.max(np.abs(out.mat - ref)) < 1e-12
            assert np.trace(out.mat).real == pytest.approx(1.0, abs=1e-12)


def test_apply_covariance():
    # conjugating the input by U conjugates the output by conj(U)
    rng = np.random.default_rng(7)
    for d in (2, 3, 4):
        lo, hi = td.t_range(d)
        for _ in range(10):
            t = float(rng.uniform(lo, hi))
            ch = td.new_channel(d, t)
            rho = random_density(d, rng)
            u = haar_unitary(d, rng)
            lhs = apply_defining_formula(ch, u @ rho @ u.conj().T)
            rhs = u.conj() @ apply_defining_formula(ch, rho) @ u.T
            assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_apply_dimension_mismatch():
    ch = td.new_channel(3, -0.25)
    with pytest.raises(DimensionMismatch):
        td.apply(ch, td.DensityMatrix(np.eye(4) / 4.0))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("sign", [+1, -1])
def test_kraus_completeness_and_count(d, sign):
    ks = td.kraus_set(d, sign)
    expect = d * (d + 1) // 2 if sign > 0 else d * (d - 1) // 2
    assert len(ks.operators) == expect
    acc = sum(k.conj().T @ k for k in ks.operators)
    assert np.max(np.abs(acc - np.eye(d))) < 1e-12


def test_kraus_action_matches_closed_form():
    # sign s: rho -> (I tr(rho) + s rho^T) / (d + s)
    rng = np.random.default_rng(23)
    for d in (2, 3, 4):
        for sign in (+1, -1):
            ks = td.kraus_set(d, sign)
            for _ in range(30):
                g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                rho = g @ g.conj().T
                rho /= np.trace(rho).real
                out = ks.apply(rho)
                ref = (np.eye(d) + sign * rho.T) / (d + sign)
                assert np.max(np.abs(out - ref)) < 1e-10


def test_kraus_frozen_actions():
    plus = td.kraus_set(3, +1)
    out = plus.apply(np.eye(3) / 3.0)
    assert np.max(np.abs(out - np.eye(3) / 3.0)) < 1e-14

    minus = td.kraus_set(3, -1)
    v = np.array([1.0, 0.0, 0.0])
    out = minus.apply(np.outer(v, v))
    ref = (np.eye(3) - np.outer(v, v)) / 2.0
    assert np.max(np.abs(out - ref)) < 1e-14


def test_kraus_set_guards():
    with pytest.raises(BadDimension):
        td.kraus_set(1, +1)
    with pytest.raises(OutOfRange):
        td.kraus_set(3, 0)


def test_decompose_frozen_weights():
    wp, wm = td.decompose(td.new_channel(3, 0.25))
    assert wp == pytest.approx(1.0, abs=1e-12)
    assert wm == pytest.approx(0.0, abs=1e-12)

    wp, wm = td.decompose(td.new_channel(3, -0.5))
    assert wp == pytest.approx(0.0, abs=1e-12)
    assert wm == pytest.approx(1.0, abs=1e-12)

    wp, wm = td.decompose(td.new_channel(3, 0.0))
    assert wp == pytest.approx(2.0 / 3.0)
    assert wm == pytest.approx(1.0 / 3.0)


def test_decompose_is_convex_and_reconstructs():
    rng = np.random.default_rng(31)
    for d in (2, 3, 4):
        lo, hi = td.t_range(d)
        plus = td.kraus_set(d, +1)
        minus = td.kraus_set(d, -1)
        for _ in range(8):
            t = float(rng.uniform(lo, hi))
            ch = td.new_channel(d, t)
            wp, wm = td.decompose(ch)
            assert wp >= -1e-12 and wm >= -1e-12
            assert wp + wm == pytest.approx(1.0, abs=1e-12)
            for _ in range(4):
                g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                rho = g @ g.conj().T
                rho /= np.trace(rho).real
                mix = wp * plus.apply(rho) + wm * minus.apply(rho)
                assert np.max(np.abs(mix - apply_defining_formula(ch, rho))) < 1e-10


def test_channel_kraus_reproduces_apply():
    rng = np.random.default_rng(37)
    for d in (2, 3):
        lo, hi = td.t_range(d)
        for t in (lo, hi, float(rng.uniform(lo, hi))):
            ch = td.new_channel(d, t)
            ops = td.channel_kraus(ch)
            acc = sum(k.conj().T @ k for k in ops)
            assert np.max(np.abs(acc - np.eye(d))) < 1e-12
            for _ in range(5):
                g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                rho = g @ g.conj().T
                rho /= np.trace(rho).real
                out = sum(k @ rho @ k.conj().T for k in ops)
                assert np.max(np.abs(out - apply_defining_formula(ch, rho))) < 1e-10


def test_apply_two_copies_matches_kraus_oracle():
    rng = np.random.default_rng(41)
    for d in (2, 3, 4):
        lo, hi = td.t_range(d)
        for _ in range(6):
            t = float(rng.uniform(lo, hi))
            ch = td.new_channel(d, t)
            lam = rng.dirichlet(np.ones(d))
            psi = schmidt_state(lam)
            out = td.apply_two_copies(ch, np.outer(psi, psi))
            ref = kraus_two_copy_output(ch, psi)
            assert np.max(np.abs(out - ref)) < 1e-10
        # A stack of Haar-random pure states, against the oracle state by state.
        ch = td.new_channel(d, float(rng.uniform(lo, hi)))
        states = haar_states(5, d * d, rng)
        out = td.apply_two_copies(ch, np.stack([np.outer(v, v.conj()) for v in states]))
        assert out.shape == (5, d * d, d * d)
        for got, v in zip(out, states):
            assert np.max(np.abs(got - kraus_two_copy_output(ch, v))) < 1e-10


def test_apply_two_copies_stack_is_single_calls():
    rng = np.random.default_rng(43)
    for d in (2, 3, 4):
        lo, hi = td.t_range(d)
        for t in (lo, 0.0, float(rng.uniform(lo, hi)), hi):
            ch = td.new_channel(d, t)
            mats = rng.normal(size=(6, d * d, d * d)) + 1j * rng.normal(size=(6, d * d, d * d))
            singles = np.stack([td.apply_two_copies(ch, m) for m in mats])
            assert np.array_equal(td.apply_two_copies(ch, mats), singles)
            nested = td.apply_two_copies(ch, mats.reshape(2, 3, d * d, d * d))
            assert np.array_equal(nested.reshape(singles.shape), singles)


def test_apply_two_copies_shape_guard():
    ch = td.new_channel(3, -0.5)
    for bad in (np.eye(4) / 4.0, np.zeros((2, 9, 10)), np.zeros(81), np.zeros(9)):
        with pytest.raises(DimensionMismatch):
            td.apply_two_copies(ch, bad)
