"""Column-form sums equal the product-table formulas they replace, bit for bit.

`povm._hadamard` and `checks._self_convolution` add the four columns of
their input directly. The references below are the formulas they replace:
a ``(..., 4, 4)`` product table ``P`` whose rows are added left to right
from +0.0, ``sum((P[..., k] for k in range(4)), 0.0)``, the one order of
every table sum. `kirkwood._kd_entries` is one transform of a state's
Bloch moments, and `kirkwood.reconstruct_kd` is two transforms.
Complex entries add part by part, so a complex table transforms as its
real and imaginary parts do.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from xymeas.checks import _random_bloch_vectors, _self_convolution
from xymeas.kirkwood import SINGULAR_VISIBILITY, _kd_entries, reconstruct_kd
from xymeas.povm import HADAMARD, _hadamard
from xymeas.qubit import AXES, bloch_vector

_XOR = np.bitwise_xor.outer(np.arange(4), np.arange(4))


def added(products):
    """The terms on the last axis of ``products`` added left to right from +0.0."""
    return sum((products[..., k] for k in range(products.shape[-1])), 0.0)


def reference_hadamard(table):
    return added(HADAMARD * np.asarray(table)[..., None, :])


def reference_self_convolution(w):
    w = np.asarray(w)
    return added(w[..., None, :] * w[..., _XOR]) / 4.0


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


# several complex models, one per row: the shape of verify's Fourier-check chunks
CANCELLING_MODELS = np.array([[1e16, 1.0, -1e16, 1.0]] * 3) * (1 + 1j)
SIGNED_ZERO_MODELS = np.array([[complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 0.0), 0j]] * 2)


@settings(max_examples=400, deadline=None)
@given(t=tables())
@example(t=np.array([-0.0, -0.0, -0.0, -0.0]))
@example(t=np.array([-0.0, 0.0, -0.0, 0.0]) * (1 + 1j))
@example(t=np.array([[1e16, 1.0, -1e16, 1.0]] * 3, dtype=complex))
@example(t=CANCELLING_MODELS)
@example(t=SIGNED_ZERO_MODELS)
def test_transforms_add_rows_left_to_right(t):
    assert bits(_hadamard(t)) == bits(reference_hadamard(t))
    assert bits(_self_convolution(t)) == bits(reference_self_convolution(t))


@settings(max_examples=200, deadline=None)
@given(t=tables())
@example(t=CANCELLING_MODELS)
@example(t=SIGNED_ZERO_MODELS)
def test_compositions_add_rows_left_to_right(t):
    assert bits(_hadamard(_hadamard(t))) == bits(reference_hadamard(reference_hadamard(t)))
    assert bits(_self_convolution(_hadamard(t))) == bits(
        reference_self_convolution(reference_hadamard(t))
    )
    # the transform of verify's character identity, 4 H e = (H w)^2
    assert bits(_hadamard(_self_convolution(t))) == bits(
        reference_hadamard(reference_self_convolution(t))
    )


@settings(max_examples=200, deadline=None)
@given(t=tables().filter(np.iscomplexobj))
@example(t=CANCELLING_MODELS)
@example(t=SIGNED_ZERO_MODELS)
@example(t=np.array([1e16, 1.0, -1e16, 1.0]) * (1 + 1j))
def test_complex_transform_is_the_transform_of_its_parts(t):
    by_parts = np.empty(t.shape, t.dtype)
    by_parts.real = _hadamard(t.real)
    by_parts.imag = _hadamard(t.imag)
    assert bits(_hadamard(t)) == bits(by_parts)


def test_list_and_integer_inputs_promote_like_the_reference():
    for t in ([1.0, 0.3, 0.5, 0.2j], [1, 2, 3, 4], np.arange(8, dtype=np.int32).reshape(2, 4)):
        assert bits(_hadamard(t)) == bits(reference_hadamard(t))
        assert bits(_self_convolution(t)) == bits(reference_self_convolution(t))


def reference_kd_entries(r):
    """The moments ``(1, <Y>, <X>, i<Z>)`` of each Bloch vector through the product-table transform, over 4."""
    r = np.asarray(r, dtype=float)
    moments = np.stack([np.ones(r.shape[:-1]), r[..., 1], r[..., 0], 1j * r[..., 2]], axis=-1)
    return reference_hadamard(moments) / 4.0


def test_kd_entries_add_left_to_right():
    rng = np.random.Generator(np.random.Philox(key=11))
    stack = _random_bloch_vectors(rng, 500)
    assert bits(_kd_entries(stack)) == bits(reference_kd_entries(stack))
    # eigenstates have exact zeros, whose signs the report digits show
    eigenstates = [bloch_vector(axis, value) for axis in AXES for value in (+1, -1)]
    # and vectors of negative zeros, since every sum starts from +0.0
    negative_zeros = [np.array([-0.0, -0.0, -0.0]), np.array([0.0, -0.0, 1.0]), np.array([-0.0, 1.0, -0.0])]
    for r in [*eigenstates, *negative_zeros]:
        assert bits(_kd_entries(r)) == bits(reference_kd_entries(r))


def test_reconstruction_is_two_transforms():
    # kd = H (d * H p) / 4 with d = (1, 1/vy, 1/vx, -1/c), for any signs and
    # magnitudes from the floor to 1, and for a complex c off the imaginary axis
    rng = np.random.Generator(np.random.Philox(key=23))
    for k in range(1000):
        p = rng.dirichlet(np.ones(4))
        vx, vy, vz = rng.choice([-1.0, 1.0], 3) * SINGULAR_VISIBILITY * 10.0 ** rng.uniform(0.0, 3.0, 3)
        c = 1j * vz if k % 2 else vz * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        d = np.array([1.0, 1 / complex(vy), 1 / complex(vx), -1 / complex(c)])
        expected = reference_hadamard(reference_hadamard(p) * d) / 4.0
        assert bits(reconstruct_kd(p, vx, vy, c).entries) == bits(expected)
