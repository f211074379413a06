"""Property tests: invariances every estimate must keep on any valid panel.

Each example draws a panel from a hypothesis-chosen seed and size, so the
data stay in the estimators' valid range while hypothesis explores it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrhetero import BootstrapConfig, Method, MrEstimate, as_triple_arrays, estimate_many
from mrhetero.summary_data import TripleArrays

from conftest import random_triples

# Methods whose fits pass through the origin or use per-SNP ratios, so an
# allele flip changes no floating-point operation's magnitude. MrWaldD and
# Egger fit an intercept, which is not sign-symmetric in the regressor.
FLIP_INVARIANT = [Method.MR_WALD, Method.MR_WALD_R, Method.IVW, Method.DIVW,
                  Method.WEIGHTED_MEDIAN]

panels = st.tuples(st.integers(0, 2**32 - 1), st.integers(5, 60))


def draw_panel(seed, p):
    rng = np.random.default_rng(seed)
    t, _, _ = random_triples(rng, p, noise=0.1)
    return rng, as_triple_arrays(t)


def columns(a: TripleArrays) -> list:
    return [a.snp_ids, a.gamma_tr, a.se_gamma_tr, a.gamma_ou, a.se_gamma_ou,
            a.capgamma_ou, a.se_capgamma_ou]


def same_outcome(x, y) -> bool:
    """Bitwise equal beta and se, or the same error type."""
    if isinstance(x, MrEstimate) and isinstance(y, MrEstimate):
        return (x.beta, x.se) == (y.beta, y.se)
    return type(x) is type(y)


@settings(max_examples=15, deadline=None)
@given(panel=panels, data=st.data())
def test_allele_flip_leaves_estimates_unchanged(panel, data):
    _, a = draw_panel(*panel)
    j = data.draw(st.integers(0, len(a) - 1))
    cols = [c.copy() for c in columns(a)]
    for k in (1, 3, 5):  # gamma_tr, gamma_ou, capgamma_ou: the effect allele swaps in all three files
        cols[k][j] = -cols[k][j]
    boot = BootstrapConfig(n_boot=40, seed=panel[0])
    before = estimate_many(FLIP_INVARIANT, a, boot)
    after = estimate_many(FLIP_INVARIANT, TripleArrays(*cols), boot)
    for m, x, y in zip(FLIP_INVARIANT, before, after):
        assert same_outcome(x, y), m


@settings(max_examples=15, deadline=None)
@given(panel=panels)
def test_snp_order_leaves_point_estimates_unchanged(panel):
    rng, a = draw_panel(*panel)
    shuffled = a.take(rng.permutation(len(a)))
    for m, x, y in zip(Method, estimate_many(list(Method), a), estimate_many(list(Method), shuffled)):
        assert type(x) is type(y), m
        if isinstance(x, MrEstimate):
            assert y.beta == pytest.approx(x.beta, rel=1e-12), m
