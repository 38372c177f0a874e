"""Fixed-seed outputs: the behaviour contract of the Monte Carlo engine.

Each run below is small (at most 2^16 words) and fully determined by its
seed, so any change to the random stream, the draw order, the decoder or
the classifier shows up here as a changed count.  A change that alters
these numbers on purpose must say so in CHANGES.md and update them.
"""

import pytest

from norsim.montecarlo import (
    _LATTICE,
    _STATES,
    SimConfig,
    _reach_threshold,
    _row_law,
    _stratum_weights,
    run_stratified,
    run_trials,
)

THREE_STATES = dict(a=1.0, tail=0.1, width=4.6, delta0=4.6, trials=1 << 16, seed=17, shards=2)

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
    # 0 < tail < 1 and width > 0: interior, quiet tail and reaching tail
    # cells occur in one word (test_three_state_words_occur)
    "protected_three_states_2_shards": (
        THREE_STATES,
        dict(
            events=214,
            hamming=757,
            per_class={
                "none": 65322, "type_i": 19, "type_ii": 0, "type_iii": 95, "other": 100,
            },
            ci95=(0.0003570946436803957, 0.00046652929484412804),
        ),
    ),
    "unprotected_three_states_2_shards": (
        dict(THREE_STATES, protected=False),
        dict(
            events=206,
            hamming=273,
            per_class={
                "none": 65330, "type_i": 0, "type_ii": 0, "type_iii": 0, "other": 206,
            },
            ci95=(0.00034286129968596416, 0.0004502468494273718),
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


@pytest.mark.parametrize("protected", [True, False])
def test_three_state_words_occur(protected):
    # the sampler scatters each cell state's value uniforms in turn, so
    # this point pins words that mix all three states
    config = SimConfig(**dict(THREE_STATES, protected=protected))
    c = (_LATTICE - 1 - _reach_threshold(config)) * 2.0**-52
    pi, probs = _row_law(_stratum_weights(config.tail), c)
    mixed = [set(row) == {0, 1, 2} for row in _STATES.tolist()]
    assert 0.0 < c < 1.0
    assert probs[mixed].sum() * pi * config.trials > 10


def test_stratified_run_is_pinned():
    est = run_stratified(
        SimConfig(
            a=1.0, tail=1e-3, width=6.9, delta0=6.9, stratified=True,
            data_mode="interior", subtrials_per_stratum=1 << 14, seed=5,
        )
    )
    # the 65,536-word budget split by stratum weight
    assert [(s.trials, s.events) for s in est.strata] == [
        (0, 0), (65435, 15), (99, 0), (1, 0), (1, 0),
    ]
    assert est.word_error_events == pytest.approx(0.05991251337277971, rel=1e-12)
    assert est.bit_errors_hamming == pytest.approx(0.21967921570019225, rel=1e-12)
    want = {
        "none": 65535.940087486626,
        "type_i": 0.0,
        "type_ii": 0.0,
        "type_iii": 0.03994167558185314,
        "other": 0.01997083779092657,
    }
    assert est.per_class == pytest.approx(want, rel=1e-12)
