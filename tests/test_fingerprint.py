"""The bitwise fingerprint script: its lines repeat, and a one-ulp change shows."""

from dataclasses import replace

import numpy as np

import fingerprint

SUBSET = (fingerprint.generators, fingerprint.solvers)


def test_a_subset_repeats_line_for_line():
    first = list(fingerprint.fingerprint(SUBSET))
    assert len(first) > 100
    assert list(fingerprint.fingerprint(SUBSET)) == first


def test_one_ulp_in_a_generator_changes_its_lines(monkeypatch):
    before = list(fingerprint.fingerprint([fingerprint.generators]))
    generate = fingerprint.gen_solved_sfq

    def nudged(*args):
        inst = generate(*args)
        e = inst.pencil.E.copy()
        e[0, 0] = np.nextafter(e[0, 0].real, np.inf) + 1j * e[0, 0].imag
        return replace(inst, pencil=replace(inst.pencil, E=e))

    monkeypatch.setattr(fingerprint, "gen_solved_sfq", nudged)
    after = list(fingerprint.fingerprint([fingerprint.generators]))
    assert [line.split()[0] for line in after] == [line.split()[0] for line in before]
    changed = {a.split()[0] for a, b in zip(after, before) if a != b}
    assert changed == {line.split()[0] for line in before if line.startswith("gen_solved_sfq/")}
