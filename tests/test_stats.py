import math
import re

import numpy as np
import pytest

from veplab import holm_posthoc, paired_t, rm_anova, score_vasf
from veplab.errors import DegenerateDataError, InputError
from veplab.stats import VasfScore, f_sf, t_sf_two_sided

# reference survival values computed once with scipy.stats (f.sf / 2*t.sf)
F_REFERENCE = [
    (0.5, 1, 2, 0.552786404500042),
    (1.0, 1, 2, 0.42264973081037427),
    (3.0, 1, 2, 0.22540333075851665),
    (3.29, 6, 78, 0.006143034569020555),
    (2.2, 6, 78, 0.051680995342197375),
    (1.0, 3, 39, 0.4030738485711282),
    (4.1, 3, 39, 0.012719426258971817),
    (9.39, 1, 24, 0.005323740034264927),
    (0.7, 2, 10, 0.5193686643598154),
    (5.5, 4, 40, 0.0012637991654479881),
]
T_REFERENCE = [
    (0.0, 3, 1.0),
    (1.0, 3, 0.39100221895577053),
    (2.449489742783178, 3, 0.09172111331157187),
    (2.87, 13, 0.01314311982727722),
    (-2.87, 13, 0.01314311982727722),
    (1.5, 13, 0.15750429072545655),
    (0.5, 5, 0.638298871640929),
    (3.2, 9, 0.010831302589901327),
    (2.0, 27, 0.05565242732803775),
    (4.0, 2, 0.05719095841793663),
]


def test_f_cdf_reference_points():
    for F, d1, d2, expected in F_REFERENCE:
        assert abs(f_sf(F, d1, d2) - expected) <= 1e-6


def test_t_cdf_reference_points():
    for t, df, expected in T_REFERENCE:
        assert abs(t_sf_two_sided(t, df) - expected) <= 1e-6


def test_rm_anova_paper_shaped_design_df():
    rng = np.random.default_rng(0)
    res = rm_anova(rng.normal(size=(14, 7)))
    assert (res.df1, res.df2) == (6, 78)


def test_rm_anova_hand_computed_example():
    res = rm_anova([[1.0, 2.0], [2.0, 4.0], [3.0, 3.0]])
    assert abs(res.F - 3.0) <= 1e-12
    assert (res.df1, res.df2) == (1, 2)
    assert abs(res.p - 0.225403) <= 1e-3
    # SS_cond = 1.5, SS_err = 1.0
    assert abs(res.eta_sq_partial - 1.5 / 2.5) <= 1e-12


def test_rm_anova_degenerate_and_argument_errors():
    with pytest.raises(DegenerateDataError):
        rm_anova(np.full((4, 3), 2.0))
    with pytest.raises(InputError):
        rm_anova(np.zeros((1, 3)))
    with pytest.raises(InputError):
        rm_anova([[1.0, np.nan], [2.0, 3.0]])


def test_rm_anova_invariant_to_subject_constant():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(10, 4))
    base = rm_anova(x)
    shifted = rm_anova(x + rng.normal(size=(10, 1)) * 50.0)
    assert abs(base.F - shifted.F) <= 1e-9 * max(1.0, abs(base.F))


def test_rm_anova_affine_invariance():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(8, 5))
    base = rm_anova(x)
    scaled = rm_anova(2.5 * x + 7.0)
    assert abs(base.F - scaled.F) <= 1e-9 * max(1.0, abs(base.F))
    assert abs(base.eta_sq_partial - scaled.eta_sq_partial) <= 1e-12


def test_holm_definition_cases():
    assert holm_posthoc([0.01, 0.04]) == [0.02, 0.04]
    assert holm_posthoc([0.01, 0.01, 0.30]) == [0.03, 0.03, 0.30]


def test_holm_adjusted_at_least_raw_and_capped():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = rng.uniform(0, 1, size=rng.integers(1, 8)).tolist()
        adj = holm_posthoc(p)
        assert all(a >= r - 1e-15 for a, r in zip(adj, p))
        assert all(a <= 1.0 for a in adj)


def test_holm_permutation_equivariant():
    rng = np.random.default_rng(4)
    p = rng.uniform(0, 1, size=6).tolist()
    adj = holm_posthoc(p)
    perm = rng.permutation(6)
    adj_perm = holm_posthoc([p[i] for i in perm])
    assert adj_perm == [adj[i] for i in perm]


def test_holm_rejects_out_of_range():
    with pytest.raises(InputError):
        holm_posthoc([0.5, 1.2])


def test_paired_t_hand_example():
    # differences [1, 0, 2, 1]: mean 1, sd sqrt(2/3), t = sqrt(6), df 3
    a = np.array([2.0, 1.0, 5.0, 4.0])
    b = a - np.array([1.0, 0.0, 2.0, 1.0])
    res = paired_t(a, b)
    assert abs(res.t - math.sqrt(6)) <= 1e-12
    assert res.df == 3
    assert abs(res.cohen_d - 1 / math.sqrt(2 / 3)) <= 1e-12


def test_paired_t_degenerate_and_symmetry():
    a = np.array([1.0, 2.0, 3.0])
    with pytest.raises(DegenerateDataError):
        paired_t(a, a)
    rng = np.random.default_rng(5)
    x = rng.normal(size=12)
    y = rng.normal(size=12)
    fwd = paired_t(x, y)
    rev = paired_t(y, x)
    assert abs(fwd.t + rev.t) <= 1e-12
    assert abs(fwd.cohen_d + rev.cohen_d) <= 1e-12
    assert abs(fwd.p - rev.p) <= 1e-12


def test_score_vasf_flat_items():
    s = score_vasf([5.0] * 18)
    assert s.fatigue == 5.0
    assert s.energy == 5.0
    assert s.baseline_corrected is False


def test_score_vasf_baseline_correction():
    task = score_vasf([5.0] * 18, baseline=VasfScore(fatigue=4.0, energy=6.0))
    assert task.fatigue == 1.0
    assert task.energy == -1.0
    assert task.baseline_corrected is True


def test_score_vasf_thirteenths_grid():
    # fatigue means land on the /13 grid, e.g. 8/13 = 0.6154 as in reports
    items = [0.0] * 18
    fatigue_idx = [i for i in range(18) if i not in (5, 6, 7, 8, 9)]
    for i in fatigue_idx[:8]:
        items[i] = 1.0
    s = score_vasf(items)
    assert abs(s.fatigue - 8 / 13) <= 1e-12
    assert round(s.fatigue, 4) == 0.6154


def test_score_vasf_validates():
    with pytest.raises(InputError):
        score_vasf([1.0] * 17)


@pytest.mark.parametrize("bad", [1.7e308, 10.5, -0.1, float("nan"), float("inf")])
def test_score_vasf_rejects_items_off_the_scale(bad):
    # two items of 1.7e308 overflowed the mean to inf instead of failing
    items = [5.0] * 18
    items[3] = items[11] = bad
    message = re.escape(f"VAS-F item 4 is {bad!r}, outside the scale's [0, 10]")
    with pytest.raises(InputError, match=message):
        score_vasf(items)
    # the scale's ends are items like any other
    for edge in (0.0, 10.0):
        assert score_vasf([edge] * 18).fatigue == edge
