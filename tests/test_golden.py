"""Fixed-seed outputs: the behaviour contract of the Monte Carlo engine.

Each run below is small (at most 2^16 words) and fully determined by its
seed, so any change to the random stream, the draw order, the decoder or
the classifier shows up here as a changed count.  A change that alters
these numbers on purpose must say so in CHANGES.md and update them.
"""

import pytest

from norsim.montecarlo import SimConfig, run_stratified, run_trials

PLAIN = {
    "protected_uniform_2_shards": (
        dict(a=1.0, tail=1.0, width=0.0, delta0=4.0, trials=1 << 16, seed=7, shards=2),
        dict(
            events=2971,
            hamming=10819,
            per_class={
                "none": 62565, "type_i": 579, "type_ii": 118, "type_iii": 1138,
                "other": 1136,
            },
            ci95=(0.0054709492360392985, 0.0058691786283157805),
        ),
    ),
    "protected_clamping": (
        dict(a=1.0, tail=1.0, width=0.0, delta0=1.0, trials=1 << 15, seed=3),
        dict(
            events=25153,
            hamming=96689,
            per_class={
                "none": 7615, "type_i": 11930, "type_ii": 1548, "type_iii": 4245,
                "other": 7430,
            },
            ci95=(0.09537555188170234, 0.09651876660676777),
        ),
    ),
    "unprotected_interior_3_shards": (
        dict(
            a=1.0, tail=1.0, width=0.5, delta0=3.0, protected=False,
            data_mode="interior", trials=50_000, seed=11, shards=3,
        ),
        dict(
            events=9260,
            hamming=15040,
            per_class={
                "none": 40740, "type_i": 0, "type_ii": 0, "type_iii": 0, "other": 9260,
            },
            ci95=(0.02272741147470248, 0.02357863451697273),
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(PLAIN))
def test_plain_run_is_pinned(name):
    kwargs, want = PLAIN[name]
    est = run_trials(SimConfig(**kwargs))
    assert est.word_error_events == want["events"]
    assert est.bit_errors_hamming == want["hamming"]
    assert est.per_class == want["per_class"]
    assert est.ci95 == want["ci95"]


def test_stratified_run_is_pinned():
    est = run_stratified(
        SimConfig(
            a=1.0, tail=1e-3, width=6.9, delta0=6.9, stratified=True,
            data_mode="interior", subtrials_per_stratum=1 << 14, seed=5,
        )
    )
    assert [(s.trials, s.events) for s in est.strata] == [
        (0, 0), (16384, 6), (16384, 140), (16384, 294), (16384, 526),
    ]
    assert est.word_error_events == pytest.approx(0.099070272664, rel=1e-12)
    assert est.bit_errors_hamming == pytest.approx(0.331226226156, rel=1e-12)
    want = {
        "none": 65535.90092972734,
        "type_i": 0.00036038366400000004,
        "type_ii": 0.0,
        "type_iii": 0.06498332849200002,
        "other": 0.033726560508,
    }
    assert est.per_class == pytest.approx(want, rel=1e-12)
