"""Column-form sums equal the ``np.sum`` formulas they replace, bit for bit.

`povm._hadamard` and `analysis._self_convolution` add the four columns of
their input directly. The references below are the formulas they replace:
a ``(..., 4, 4)`` product table reduced by ``np.sum`` over its last axis,
whose order of addition `povm._sum4` states. `kirkwood._kd_entries`
likewise contracts its states term by term, and the character identity of
``verify`` transforms a self-convolution part by part.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from xymeas.analysis import _self_convolution
from xymeas.checks import _hadamard_by_parts, _random_qubit_densities
from xymeas.kirkwood import _kd_entries
from xymeas.povm import HADAMARD, OUTCOMES4, _hadamard
from xymeas.qubit import density, eigenstate

_XOR = np.bitwise_xor.outer(np.arange(4), np.arange(4))


def reference_hadamard(table):
    return np.sum(HADAMARD * np.asarray(table)[..., None, :], axis=-1)


def reference_self_convolution(w):
    w = np.asarray(w)
    return np.sum(w[..., None, :] * w[..., _XOR], axis=-1) / 4.0


def bits(x):
    """Dtype, shape and the raw bytes of every entry, so signed zeros count."""
    x = np.asarray(x)
    return x.dtype, x.shape, np.ascontiguousarray(x).view(np.uint64).tobytes()


# Signed zeros, exact cancellations and magnitudes that round; bounded so
# no product or sum overflows.
entries = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 3.0, 1e16, -1e16]),
    st.floats(min_value=-1e100, max_value=1e100, allow_nan=False),
)
shapes = st.one_of(
    st.just((4,)),
    st.integers(1, 40).map(lambda n: (n, 4)),
    st.tuples(st.integers(1, 4), st.integers(1, 12)).map(lambda kn: (*kn, 4)),
)


@st.composite
def tables(draw):
    shape = draw(shapes)
    table = draw(hnp.arrays(np.float64, shape, elements=entries))
    if draw(st.booleans()):
        table = table + 1j * draw(hnp.arrays(np.float64, shape, elements=entries))
    return table


@settings(max_examples=400, deadline=None)
@given(t=tables())
@example(t=np.array([-0.0, -0.0, -0.0, -0.0]))
@example(t=np.array([-0.0, 0.0, -0.0, 0.0]) * (1 + 1j))
@example(t=np.array([[1e16, 1.0, -1e16, 1.0]] * 3, dtype=complex))
def test_transforms_match_np_sum_formulas(t):
    assert bits(_hadamard(t)) == bits(reference_hadamard(t))
    assert bits(_self_convolution(t)) == bits(reference_self_convolution(t))


@settings(max_examples=200, deadline=None)
@given(t=tables())
def test_compositions_match_np_sum_formulas(t):
    assert bits(_hadamard(_hadamard(t))) == bits(reference_hadamard(reference_hadamard(t)))
    assert bits(_self_convolution(_hadamard(t))) == bits(
        reference_self_convolution(reference_hadamard(t))
    )


@settings(max_examples=200, deadline=None)
@given(
    w=st.integers(2, 40).flatmap(
        lambda n: hnp.arrays(np.float64, (n, 2, 4), elements=entries).map(lambda r: r[:, 0] + 1j * r[:, 1])
    )
)
@example(w=np.array([[complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 0.0), 0j]] * 2))
@example(w=np.array([[1e16, 1.0, -1e16, 1.0]] * 3) * (1 + 1j))
def test_fourier_check_transform_matches_np_sum_composition(w):
    # the shape of verify's chunks: several complex models, one per row
    assert bits(_hadamard_by_parts(_self_convolution(w))) == bits(
        reference_hadamard(reference_self_convolution(w))
    )


def test_list_and_integer_inputs_promote_like_the_reference():
    for t in ([1.0, 0.3, 0.5, 0.2j], [1, 2, 3, 4], np.arange(8, dtype=np.int32).reshape(2, 4)):
        assert bits(_hadamard(t)) == bits(reference_hadamard(t))
        assert bits(_self_convolution(t)) == bits(reference_self_convolution(t))


def reference_kd_entries(rho):
    ket_x = np.array([eigenstate("X", x) for x, _ in OUTCOMES4])
    ket_y = np.array([eigenstate("Y", y) for _, y in OUTCOMES4])
    overlap = np.sum(ket_x.conj() * ket_y, axis=-1)
    rho_x = np.sum(np.asarray(rho)[..., None, :, :] * ket_x[:, None, :], axis=-1)
    return overlap * np.sum(ket_y.conj() * rho_x, axis=-1)


def test_kd_entries_match_np_sum_formula():
    rng = np.random.Generator(np.random.Philox(key=11))
    stack = _random_qubit_densities(rng, 500)
    assert bits(_kd_entries(stack)) == bits(reference_kd_entries(stack))
    # eigenstates have exact zeros, whose signs the report digits show
    kets = [eigenstate(axis, value) for axis in "XYZ" for value in (+1, -1)]
    # and states of negative zeros, since np.sum starts every sum from +0.0
    negative_zeros = [np.full((2, 2), z) for z in (complex(-0.0, 0.0), complex(-0.0, -0.0))]
    for rho in [*map(density, kets), *negative_zeros]:
        assert bits(_kd_entries(rho)) == bits(reference_kd_entries(rho))
