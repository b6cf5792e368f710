"""The aliveness searches too slow for tier-1, run as their own CI step:

    PYTHONPATH=src python -m pytest -q tests/slow_intruder.py

Each takes a few seconds: modified Woo-Lam at two sessions plus the
intruder's, and the sound four-step chain whose one-session search is the
larger of the two four-step chains. ``tests/test_intruder.py`` runs the
smaller searches and says what is checked.
"""

from conftest import perfbench_gen
from test_intruder import SESSIONS, _texts, check_no_aliveness_attack


def test_the_intruder_finds_no_aliveness_attack_on_modified_woolam_at_two_sessions():
    check_no_aliveness_attack(*_texts("woolam_modified"), SESSIONS, 10_322)


def test_the_larger_sound_four_step_chain_survives_the_intruder():
    case = perfbench_gen().synth_chain(1, 4, sound=True)
    check_no_aliveness_attack(case.context, case.protocol, 1, 14_089)
