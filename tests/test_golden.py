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
            events=2850,
            hamming=10339,
            per_class={
                "none": 62686, "type_i": 600, "type_ii": 113, "type_iii": 1097,
                "other": 1040,
            },
            ci95=(0.005244080573712954, 0.005634495975797911),
        ),
    ),
    "protected_clamping": (
        dict(a=1.0, tail=1.0, width=0.0, delta0=1.0, trials=1 << 15, seed=3),
        dict(
            events=25134,
            hamming=96858,
            per_class={
                "none": 7634, "type_i": 12047, "type_ii": 1606, "type_iii": 4128,
                "other": 7353,
            },
            ci95=(0.09530258475310847, 0.09644679223105317),
        ),
    ),
    "unprotected_interior_3_shards": (
        dict(
            a=1.0, tail=1.0, width=0.5, delta0=3.0, protected=False,
            data_mode="interior", trials=50_000, seed=11, shards=3,
        ),
        dict(
            events=9127,
            hamming=14754,
            per_class={
                "none": 40873, "type_i": 0, "type_ii": 0, "type_iii": 0, "other": 9127,
            },
            ci95=(0.022397315109318725, 0.02324378196983379),
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
        (0, 0), (16384, 5), (16384, 137), (16384, 277), (16384, 501),
    ]
    assert est.word_error_events == pytest.approx(0.08304609678, rel=1e-12)
    assert est.bit_errors_hamming == pytest.approx(0.426937314812, rel=1e-12)
    want = {
        "none": 65535.91695390322,
        "type_i": 0.00040785606000000004,
        "type_ii": 0.0,
        "type_iii": 0.001367104384,
        "other": 0.081271136336,
    }
    assert est.per_class == pytest.approx(want, rel=1e-12)
