"""Byte-for-byte gate on CLI output against the files in tests/golden/.

A speed-up must leave every coefficient, residual and output byte as it
was; golden_cases.py lists the cases and documents how the files were made.
"""

import json

import pytest

from golden_cases import CASES, GOLDEN_DIR, run_case

EXIT_CODES = json.loads((GOLDEN_DIR / "exit_codes.json").read_text(encoding="utf-8"))


def test_every_case_has_a_golden_exit_code():
    assert sorted(EXIT_CODES) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    code, stdout, csv_bytes = run_case(CASES[name], tmp_path)
    assert code == EXIT_CODES[name]
    assert stdout == (GOLDEN_DIR / f"{name}.out").read_text(encoding="utf-8")
    if csv_bytes is not None:
        assert csv_bytes == (GOLDEN_DIR / f"{name}.csv").read_bytes()
