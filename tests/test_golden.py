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
            events=2870,
            hamming=10746,
            per_class={
                "none": 62666, "type_i": 603, "type_ii": 94, "type_iii": 1082,
                "other": 1091,
            },
            ci95=(0.005281573050152177, 0.005673292972886657),
        ),
    ),
    "protected_clamping": (
        dict(a=1.0, tail=1.0, width=0.0, delta0=1.0, trials=1 << 15, seed=3),
        dict(
            events=25093,
            hamming=96464,
            per_class={
                "none": 7675, "type_i": 11865, "type_ii": 1537, "type_iii": 4190,
                "other": 7501,
            },
            ci95=(0.09514513449503599, 0.09629147397982842),
        ),
    ),
    "unprotected_interior_3_shards": (
        dict(
            a=1.0, tail=1.0, width=0.5, delta0=3.0, protected=False,
            data_mode="interior", trials=50_000, seed=11, shards=3,
        ),
        dict(
            events=9175,
            hamming=14802,
            per_class={
                "none": 40825, "type_i": 0, "type_ii": 0, "type_iii": 0, "other": 9175,
            },
            ci95=(0.022516443784838934, 0.023364634856727788),
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
        (0, 0), (16384, 5), (16384, 137), (16384, 288), (16384, 516),
    ]
    assert est.word_error_events == pytest.approx(0.083046272664, rel=1e-12)
    assert est.bit_errors_hamming == pytest.approx(0.283991827536, rel=1e-12)
    want = {
        "none": 65535.916953727334,
        "type_i": 0.000407760268,
        "type_ii": 0.0,
        "type_iii": 0.033367040407999995,
        "other": 0.049271471988,
    }
    assert est.per_class == pytest.approx(want, rel=1e-12)
