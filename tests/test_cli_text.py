"""Fixed-seed `table` text of every `norsim` command: the report layout
contract.

Each case pins the whole report of one command line in the default
`table` format, apart from the header's `created=` field, the time of the
run.  The header's `version=` and `numpy=` fields are those of the
running packages.  A change that moves, reformats or drops a line shows
up here; a change that does so on purpose must say so in CHANGES.md and
update the pin.
"""

import re
import shlex

import numpy as np
import pytest

import norsim
from norsim.cli import main

# name -> (command line, report lines after the first header line)
CASES = {
    'table1': (
        'table1',
        [
            '# params: ',
            'exp_margin tail   e0     e2     e2/e0',
            '1.E-02 1.E-03 5.E-06 7.E-08 1.E-02',
            '1.E-02 1.E-05 5.E-08 5.E-10 1.E-02',
            '1.E-02 1.E-07 5.E-10 5.E-12 1.E-02',
            '1.E-02 1.E-09 5.E-12 5.E-14 1.E-02',
            '1.E-03 1.E-03 5.E-07 3.E-09 7.E-03',
            '1.E-03 1.E-05 5.E-09 5.E-12 1.E-03',
            '1.E-03 1.E-07 5.E-11 5.E-14 1.E-03',
            '1.E-03 1.E-09 5.E-13 5.E-16 1.E-03',
            '1.E-04 1.E-03 5.E-08 4.E-10 7.E-03',
            '1.E-04 1.E-05 5.E-10 9.E-14 2.E-04',
            '1.E-04 1.E-07 5.E-12 5.E-16 1.E-04',
            '1.E-04 1.E-09 5.E-14 5.E-18 1.E-04',
        ],
    ),
    'analytic': (
        'analytic --a-delta0 6',
        [
            '# params: a-delta0=6.0',
            'point:',
            '  a_delta0                   6.000000000000000e+00',
            '  a_w                        0.000000000000000e+00',
            '  tail                       1.000000000000000e+00',
            '  a_delta                    4.500000000000000e+00',
            'baseline:',
            '  p0                         2.478752176666358e-03',
            '  e0                         1.234775539339137e-03',
            '  e0_approx                  1.239376088333179e-03',
            'protected:',
            '  e2_i                       4.627867653250484e-05',
            '  e2_ii                      6.170490204333978e-05',
            '  e2_iii                     4.165080887925435e-04',
            '  e2_total                   5.244916673683882e-04',
            '  ratio                      4.247668103703291e-01',
            'approximations:',
            '  ratio_width_like_margin    4.502478752176667e+00',
            '  e2_tail_dominated          6.170490204333978e-05',
            '  e2_swap_dominated          4.149620158232950e-04',
            '  applicable_regime          swap_dominated',
        ],
    ),
    'simulate_plain': (
        'simulate --a-delta0 6 --trials 20000 --seed 1',
        [
            '# params: a-delta0=6.0 seed=1 trials=20000',
            'trials=20000 events=69 event_rate_per_bit=4.312500e-04 ci95=(3.409e-04, 5.454e-04)',
            'hamming_rate=1.512500e-03',
            'per_class: {"none": 19931, "type_i": 8, "type_ii": 1, "type_iii": 30, "other": 30}',
            'analytic: {"e2_i": 4.6278676532504835e-05, "e2_ii": 6.170490204333978e-05, "e2_iii": 0.0004165080887925435, "e2_total": 0.0005244916673683882}',
            'empirical/analytic: {"type_i": 1.0804111903433844, "type_ii": 0.1012885490946923, "type_iii": 0.4501713293097435, "total": 0.8222246926510315}',
        ],
    ),
    'simulate_stratified': (
        'simulate --a-delta0 6.9 --aw 6.9 --tail 0.001 --data-mode interior --stratified --subtrials 4096 --seed 1',
        [
            '# params: a-delta0=6.9 aw=6.9 data-mode=interior seed=1 stratified=True subtrials=4096 tail=0.001',
            'trials=16384 events=0.039948391136258254 event_rate_per_bit=3.047820e-07 ci95=(1.656e-07, 6.577e-07)',
            'hamming_rate=1.066737e-06',
            'per_class: {"none": 16383.960051608863, "type_i": 0.0, "type_ii": 0.0, "type_iii": 0.031958712909006606, "other": 0.007989678227251652}',
            'analytic: {"e2_i": 3.779195358931911e-10, "e2_ii": 5.078157355012451e-10, "e2_iii": 2.6076447976630193e-09, "e2_total": 3.4933800690574553e-09}',
            'empirical/analytic: {"type_i": 0.0, "type_ii": 0.0, "type_iii": 93.50415735773568, "total": 87.24559905943403}',
        ],
    ),
    'sweep': (
        'sweep --grid 4,5 --mode both --trials 5000 --seed 2',
        [
            '# params: grid=4,5 mode=both seed=2 trials=5000',
            '      a_delta0             e0    e2_analytic   e2_simulated        ci95_lo        ci95_hi',
            '             4 0.00890928051272003 0.00774610055208237       0.006025 0.0053252629672075093 0.0068114489674866944',
            '             5 0.003335076245736918 0.0020394986149201368 0.0017750000000000001 0.0014092009132113002 0.0022340364880158881',
            'slopes: {"analytic": 1.3581196323090654, "simulated": 1.2437610530983028}',
        ],
    ),
    'roundtrip': (
        'roundtrip',
        [
            '# params: ',
            'ok  codeword_count_313',
            'ok  zero_noise_roundtrip_256',
            'ok  decoder_outputs_parity_valid',
            'ok  all_ok',
        ],
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_table_text_is_pinned(name, capsys):
    line, body = CASES[name]
    assert main(shlex.split(line)) == 0
    got = re.sub(r" created=\S+", "", capsys.readouterr().out)
    command = line.split()[0]
    header = f"# command={command} version={norsim.__version__} numpy={np.__version__}"
    assert got == "\n".join([header, *body]) + "\n"
