"""`status_scan.py --diff` on two hand-written scan files."""

import status_scan

OLD = """\
sl2-g2\t0\tequivariance\tpassed\t1e-13\tNone
sl2-g2\t0\tprojection_idempotency\tfailed\t4.2e-10\tresidual exceeds tolerance
sl2-g2\t1\tstrongness_agreement\tfailed\tNone\tBadSignature: residual 3.0e-10
sl3-g1\t2\tmomentum_bivector_law\tpassed\t2e-12\tNone
sl3-g1\t2\tprojection_idempotency\tfailed\t5e-10\tresidual exceeds tolerance
"""

NEW = """\
sl2-g2\t0\tequivariance\tpassed\t3e-13\tNone
sl2-g2\t0\tprojection_idempotency\tpassed\t4e-12\tNone
sl2-g2\t1\tstrongness_agreement\tfailed\tNone\tBadSignature: residual 2.0e-10
sl3-g1\t2\tmomentum_bivector_law\tfailed\t5e-9\tresidual exceeds tolerance
sl3-g1\t2\tprojection_idempotency\tfailed\t6e-10\tresidual exceeds tolerance
"""


def test_diff_names_moved_triples_and_failure_counts(tmp_path, capsys):
    old, new = tmp_path / "old.txt", tmp_path / "new.txt"
    old.write_text(OLD, encoding="utf-8")
    new.write_text(NEW, encoding="utf-8")
    status_scan.main(["--diff", str(old), str(new)])
    assert capsys.readouterr().out.splitlines() == [
        "sl2-g2 0 projection_idempotency: failed 4.2e-10 -> passed 4e-12"
        " | reason residual exceeds tolerance -> None",
        "sl2-g2 1 strongness_agreement: failed None -> failed None"
        " | reason BadSignature: residual 3.0e-10 -> BadSignature: residual"
        " 2.0e-10",
        "sl3-g1 2 momentum_bivector_law: passed 2e-12 -> failed 5e-9"
        " | reason None -> residual exceeds tolerance",
        "3 moved; failing runs per check, old -> new:",
        "  momentum_bivector_law: 0 -> 1",
        "  projection_idempotency: 2 -> 1",
        "  strongness_agreement: 1 -> 1",
        "  total: 3 -> 3",
    ]
