from entroflux.selftest import SUITES, run_selftest


def test_all_suites_pass():
    lines = []
    assert run_selftest(log=lines.append)
    assert len(lines) == len(SUITES)
    assert all(line.startswith("PASS") for line in lines)


def test_corrupted_state_fails_validation_suite(corrupt_validation_states):
    lines = []
    ok = run_selftest(log=lines.append)
    assert not ok
    assert any(line.startswith("FAIL density-validation") for line in lines)
    assert any("counterexample" in line for line in lines)


def test_hook_only_touches_validation_suite(corrupt_validation_states):
    lines = []
    run_selftest(log=lines.append)
    failing = [line for line in lines if line.startswith("FAIL")]
    assert failing == ["FAIL density-validation"]
