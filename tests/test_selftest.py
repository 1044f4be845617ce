from entroflux.selftest import SUITES, run_selftest


def test_all_suites_pass(capsys):
    assert run_selftest()
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(SUITES)
    assert all(line.startswith("PASS") for line in lines)


def test_corrupted_state_fails_validation_suite(corrupt_validation_states, capsys):
    ok = run_selftest()
    lines = capsys.readouterr().out.splitlines()
    assert not ok
    assert any(line.startswith("FAIL density-validation") for line in lines)
    assert any("counterexample" in line for line in lines)


def test_hook_only_touches_validation_suite(corrupt_validation_states, capsys):
    run_selftest()
    lines = capsys.readouterr().out.splitlines()
    failing = [line for line in lines if line.startswith("FAIL")]
    assert failing == ["FAIL density-validation"]
