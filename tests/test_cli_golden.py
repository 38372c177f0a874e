"""Fixed-seed `results` blocks of `norsim ... --format json`: the CLI's
behaviour contract.

Each case pins the whole `results` block of one command line, key order
included, so a change that reorders, renames or recomputes a reported
value shows up here.  Counts, configuration echoes, rates that are counts
over words and Wilson bounds are compared exactly.  Values computed from
libm functions (`exp`, `log`, `log1p`, `pow`), that is the closed forms
and the binomial stratum weights a stratified estimate is built from, are
compared at a relative 1e-15, a few ulps.  A change that alters these
numbers on purpose must say so in CHANGES.md and update them.
"""

import json
import shlex

import pytest

from norsim.cli import main

# name -> (command line, top-level sections whose floats come from libm, results)
CASES = {
    "plain_dense": (
        "simulate --a-delta0 6.0 --aw 0.0 --tail 1.0 --data-mode uniform --seed 1"
        " --shards 2 --trials 16384",
        ("analytic", "empirical_over_analytic"),
        {"config": {"a": 1.0,
                    "tail": 1.0,
                    "width": 0.0,
                    "delta0": 6.0,
                    "l0": 0.0,
                    "protected": True,
                    "trials": 16384,
                    "seed": 1,
                    "shards": 2,
                    "stratified": False,
                    "data_mode": "uniform",
                    "subtrials_per_stratum": None},
         "estimate": {"trials": 16384,
                      "word_error_events": 60,
                      "bit_errors_hamming": 215,
                      "event_rate_per_bit": 0.000457763671875,
                      "hamming_rate": 0.00164031982421875,
                      "ci95": [0.0003557934951772759, 0.0005888203755076041],
                      "per_class": {"none": 16324,
                                    "type_i": 9,
                                    "type_ii": 2,
                                    "type_iii": 22,
                                    "other": 27},
                      "weighted": False},
         "analytic": {"e2_i": 4.6278676532504835e-05,
                      "e2_ii": 6.170490204333978e-05,
                      "e2_iii": 0.0004165080887925435,
                      "e2_total": 0.0005244916673683882},
         "empirical_rates": {"type_i": 6.866455078125e-05,
                             "type_ii": 1.52587890625e-05,
                             "type_iii": 0.0001678466796875,
                             "other": 0.00020599365234375,
                             "total": 0.000457763671875},
         "empirical_over_analytic": {"type_i": 1.4837189808792817,
                                     "type_ii": 0.2472864968132136,
                                     "type_iii": 0.4029854022141259,
                                     "total": 0.8727758711054597}},
    ),
    "stratified_rare": (
        "simulate --a-delta0 6.9 --aw 6.9 --tail 0.001 --data-mode interior --seed 1"
        " --stratified --subtrials 4096",
        ("estimate", "analytic", "empirical_rates", "empirical_over_analytic"),
        {"config": {"a": 1.0,
                    "tail": 0.001,
                    "width": 6.9,
                    "delta0": 6.9,
                    "l0": 0.0,
                    "protected": True,
                    "trials": 16384,  # 4 * --subtrials, the --trials of the same run
                    "seed": 1,
                    "shards": 1,
                    "stratified": True,
                    "data_mode": "interior",
                    "subtrials_per_stratum": 4096},
         "estimate": {"trials": 16384,
                      "word_error_events": 0.048791568028,
                      "bit_errors_hamming": 0.17942918485599998,
                      "event_rate_per_bit": 3.7225012228393554e-07,
                      "hamming_rate": 1.3689360416870116e-06,
                      "ci95": [1.294140886444018e-07, 1.082175015013183e-06],
                      "per_class": {"none": 16383.951208431972,
                                    "type_i": 9.598397600000002e-05,
                                    "type_ii": 0.0,
                                    "type_iii": 0.032288047788,
                                    "other": 0.016407536264},
                      "weighted": True,
                      "strata": [{"n_tail_cells": 0,
                                  "weight": 0.996005996001,
                                  "trials": 0,
                                  "events": 0,
                                  "mean": 0.0,
                                  "simulated": False},
                                 {"n_tail_cells": 1,
                                  "weight": 0.003988011996,
                                  "trials": 4096,
                                  "events": 3,
                                  "mean": 0.000732421875,
                                  "simulated": True},
                                 {"n_tail_cells": 2,
                                  "weight": 5.988006000000001e-06,
                                  "trials": 4096,
                                  "events": 39,
                                  "mean": 0.009521484375,
                                  "simulated": True},
                                 {"n_tail_cells": 3,
                                  "weight": 3.996e-09,
                                  "trials": 4096,
                                  "events": 81,
                                  "mean": 0.019775390625,
                                  "simulated": True},
                                 {"n_tail_cells": 4,
                                  "weight": 1.0000000000000002e-12,
                                  "trials": 4096,
                                  "events": 109,
                                  "mean": 0.026611328125,
                                  "simulated": True}]},
         "analytic": {"e2_i": 3.779195358931911e-10,
                      "e2_ii": 5.078157355012451e-10,
                      "e2_iii": 2.6076447976630193e-09,
                      "e2_total": 3.4933800690574553e-09},
         "empirical_rates": {"type_i": 7.322996215820314e-10,
                             "type_ii": 0.0,
                             "type_iii": 2.4633825521850585e-07,
                             "other": 1.2517956744384765e-07,
                             "total": 3.7225012228393554e-07},
         "empirical_over_analytic": {"type_i": 1.9377130633146111,
                                     "type_ii": 0.0,
                                     "type_iii": 94.4677187012875,
                                     "total": 106.55872390786608}},
    ),
    "analytic_headline": (
        "analytic --a-delta0 6 --aw 0 --tail 1",
        ("point", "baseline", "protected", "approximations"),
        {"point": {"a_delta0": 6.0, "a_w": 0.0, "tail": 1.0, "a_delta": 4.5},
         "baseline": {"p0": 0.0024787521766663585,
                      "e0": 0.0012347755393391374,
                      "e0_approx": 0.0012393760883331792},
         "protected": {"e2_i": 4.6278676532504835e-05,
                       "e2_ii": 6.170490204333978e-05,
                       "e2_iii": 0.0004165080887925435,
                       "e2_total": 0.0005244916673683882,
                       "ratio": 0.4247668103703291},
         "approximations": {"ratio_width_like_margin": 4.502478752176667,
                            "e2_tail_dominated": 6.170490204333978e-05,
                            "e2_swap_dominated": 0.00041496201582329504,
                            "applicable_regime": "swap_dominated"}},
    ),
    "analytic_table_row": (
        "analytic --exp-margin 1e-2 --aw 4.6 --tail 1e-3",
        ("point", "baseline", "protected", "approximations"),
        {"point": {"a_delta0": 4.605170185988091,
                   "a_w": 4.6,
                   "tail": 0.001,
                   "a_delta": 2.3038776394910685},
         "baseline": {"p0": 1.0000000000000004e-05,
                      "e0": 4.999925000500001e-06,
                      "e0_approx": 5.000000000000002e-06},
         "protected": {"e2_i": 3.740318420555521e-09,
                       "e2_ii": 5.0129421861401846e-08,
                       "e2_iii": 1.723447194738883e-08,
                       "e2_total": 7.110421222934619e-08,
                       "ratio": 0.014221055760283532},
         "approximations": {"ratio_width_like_margin": 0.013453877639491072,
                            "e2_tail_dominated": 5.0129421861401846e-08,
                            "e2_swap_dominated": 1.723421343203307e-08,
                            "applicable_regime": "tail_dominated"}},
    ),
}


def _assert_matches(got, want, libm_sections, path=""):
    if isinstance(want, dict):
        assert list(got) == list(want), path
        for key, value in want.items():
            key_path = f"{path}.{key}" if path else key
            _assert_matches(got[key], value, libm_sections, key_path)
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, libm_sections, f"{path}.{i}")
    elif isinstance(want, float) and path.split(".")[0] in libm_sections:
        assert isinstance(got, float), path
        assert got == pytest.approx(want, rel=1e-15, abs=0.0), path
    else:
        assert type(got) is type(want) and got == want, path


@pytest.mark.parametrize("name", list(CASES))
def test_results_block_is_pinned(name, capsys):
    command, libm_sections, want = CASES[name]
    assert main(shlex.split(command) + ["--format", "json"]) == 0
    got = json.loads(capsys.readouterr().out)["results"]
    _assert_matches(got, want, libm_sections)
