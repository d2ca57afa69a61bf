"""Pinned factor lists: str() and rank() of every K-table and M-table entry
and the Kummer block of G, for every weight tuple with n <= 3 and w_i <= 4
(non-primitive ones included) and for (1,)*60, must match the recording.

Regenerate the recording (only when an output change is intended) with

    PYTHONPATH=src python tests/test_factor_lists.py --write
"""

import itertools
import pathlib
import sys

from dworkgm.dwork import k_table, m_table

PIN = pathlib.Path(__file__).resolve().parent / "golden" / "factor_lists.txt"


def pinned_tuples() -> list[tuple[int, ...]]:
    tuples = [w for n in range(1, 4)
              for w in itertools.product(range(1, 5), repeat=n + 1)]
    return tuples + [(1,) * 60]


def factor_list_lines() -> str:
    lines = []
    for w in pinned_tuples():
        name = ",".join(map(str, w))
        kt = k_table(w)
        for i, fl in kt.items():
            if i:
                lines.append(f"{name} K[{i}] {fl} | rank {fl.rank()}")
        ext = kt[0]
        lines.append(f"{name} K[0] quotient {ext.quotient} | rank "
                     f"{ext.quotient.rank()} | total {ext.rank + ext.quotient.rank()}")
        lines.append(f"{name} kummer_block {ext.kummer_block}")
        if len(w) >= 3:
            for i, fl in m_table(w).items():
                lines.append(f"{name} M[{i}] {fl} | rank {fl.rank()}")
    return "\n".join(lines) + "\n"


def test_factor_lists_match_the_recording():
    assert factor_list_lines().encode() == PIN.read_bytes()


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    PIN.write_bytes(factor_list_lines().encode())
