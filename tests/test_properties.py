"""Property-based invariants over randomly generated inputs."""

import numpy as np
from hypothesis import given, settings, strategies as st

from tomobell import CatState, CoherentProduct, cat_tomogram
from tomobell.portrait import (
    cat_portrait_even_odd,
    cat_portrait_zero_nonzero,
    coherent_portrait_even_odd,
    coherent_portrait_zero_nonzero,
)
from tomobell.cli import format_complex, parse_complex

finite = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)
box_coord = st.floats(min_value=-2.0, max_value=2.0,
                      allow_nan=False, allow_infinity=False)
amp_coord = st.floats(min_value=-2.0, max_value=2.0,
                      allow_nan=False, allow_infinity=False)


@given(finite, finite)
@settings(deadline=None)
def test_complex_literal_roundtrip(re, im):
    z = complex(re, im)
    back = parse_complex(format_complex(z))
    assert abs(back - z) <= 1e-9 * max(abs(z), 1.0)


@given(amp_coord, amp_coord, amp_coord, amp_coord,
       box_coord, box_coord, box_coord, box_coord)
@settings(deadline=None, max_examples=150)
def test_cat_portraits_are_stochastic(g1r, g1i, g2r, g2i, a1r, a1i, a2r, a2i):
    s = CatState(complex(g1r, g1i), complex(g2r, g2i))
    a1, a2 = complex(a1r, a1i), complex(a2r, a2i)
    for fn in (cat_portrait_zero_nonzero, cat_portrait_even_odd):
        p = fn(s, a1, a2)
        v = p.as_array()
        assert np.all(v >= 0.0)
        assert np.all(v <= 1.0 + 1e-12)
        assert abs(v.sum() - 1.0) <= 1e-9


@given(amp_coord, amp_coord, amp_coord, amp_coord,
       box_coord, box_coord, box_coord, box_coord)
@settings(deadline=None, max_examples=150)
def test_coherent_portraits_factorize(g1r, g1i, g2r, g2i, a1r, a1i, a2r, a2i):
    # a product state's portrait is an outer product of per-mode pairs,
    # so the 2x2 cross-determinant vanishes
    s = CoherentProduct(complex(g1r, g1i), complex(g2r, g2i))
    a1, a2 = complex(a1r, a1i), complex(a2r, a2i)
    for fn in (coherent_portrait_zero_nonzero, coherent_portrait_even_odd):
        v = fn(s, a1, a2).as_array()
        assert abs(v[0] * v[3] - v[1] * v[2]) <= 1e-9


@given(amp_coord, amp_coord, box_coord, box_coord,
       st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6))
@settings(deadline=None, max_examples=150)
def test_cat_tomogram_sign_flip_invariance(gr, gi, ar, ai, n1, n2):
    # |g1,g2> + |-g1,-g2> is unchanged by negating both amplitudes
    g = complex(gr, gi)
    a1, a2 = complex(ar, ai), complex(ai, ar)
    plus = cat_tomogram(CatState(g, 0.5 * g), n1, n2, a1, a2)
    minus = cat_tomogram(CatState(-g, -0.5 * g), n1, n2, a1, a2)
    assert abs(plus - minus) <= 1e-12 * max(plus, 1.0)
